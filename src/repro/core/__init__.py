"""Core layer: blocks and compute kernels (paper Section 6).

The core layer "is responsible for the execution of the compute kernels,
namely RHS, UP, SOS and FWT" and is the most performance-critical layer.
(The FWT kernel lives in :mod:`repro.compression` together with the rest
of the wavelet pipeline.)
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "block": (
        "DEFAULT_BLOCK_SIZE", "GHOSTS", "Block", "fill_interior", "padded_aos",
    ),
    "kernels": (
        "dt_from_sos", "rhs_kernel", "rhs_kernel_slices", "sos_kernel",
        "update_stage",
    ),
    "ringbuffer": ("RING_DEPTH", "SliceRing"),
    "timestepper": (
        "ForwardEuler", "LowStorageRK3", "RKStage", "TimeStepper",
        "make_stepper",
    ),
})
