"""Declared hot-path kernel specifications and the shared roofline table.

The paper's core layer kept a hand-maintained list of the kernels that
matter (RHS, DT, UP and their substages) and hand-verified each one
before lowering it to QPX intrinsics.  This module is that list for the
Python reproduction: every entry names a kernel function in one of the
hot-path modules, its dtype contract and, when the roofline model covers
it, the key into the shared per-point arithmetic table
:data:`repro.perf.kernels.KERNEL_ARITHMETIC`.

The emitted ``kernel_manifest.json`` records, per kernel, what is
declared here next to what is read off the source -- signature, helper
closure, counted arithmetic and the entry points of the compiled library
(:mod:`repro.native`) its closure calls -- so that drift between code and
declaration shows in review.  Adding a kernel
here is the first step of the "declare a new kernel" walkthrough in
``docs/analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...perf.kernels import KERNEL_ARITHMETIC, KernelArithmetic

#: Dtype-contract shorthand strings used by the spec table.
_COMPUTE = "dtype-preserving; production COMPUTE_DTYPE (float64) SoA"
_AOS_IN = "STORAGE_DTYPE (float32) AoS in, COMPUTE_DTYPE (float64) out"
#: The RHS entry points take one box (a block or a box of blocks).
_COMPUTE_BOX = _COMPUTE + ", one box (NQ, z, y, x)"
_AOS_INPLACE = (
    "STORAGE_DTYPE (float32) AoS in place; COMPUTE_DTYPE (float64) "
    "arithmetic"
)
#: Operands the kernels of a rank's steady-state step take so that it
#: allocates no array.
_HLLE_WORKSPACE = (
    _COMPUTE + "; flux, ustar and 12 face temporaries in an optional held "
    "HlleWorkspace (the sweeps hold one per thread)"
)
_AOS_BOX_OUT = (
    _AOS_IN + ", one box (z, y, x, NQ); optional out= (an array the "
    "result reshapes to without a copy)"
)
#: The two executors of a box plan in the compiled library (the NumPy
#: executor is slice assignment around rhs_kernel).
_PLAN_GATHER = (
    "rows of int64 (cell, ez, ey, ex, address, sz, sy, sx, flip) naming "
    "STORAGE_DTYPE (float32) AoS cells anywhere in memory -> primitive "
    "COMPUTE_DTYPE (float64) SoA field, CONV per cell; compiled library "
    "only"
)
_PLAN_SCATTER = (
    "COMPUTE_DTYPE (float64) SoA result -> the COMPUTE_DTYPE AoS cells the "
    "rows of an int64 plan table name; compiled library only"
)
_AOS_STREAM_IN = (
    "STORAGE_DTYPE (float32) AoS in, one array (a block, a rank's blocks), "
    "python float out; streamed through a COMPUTE_DTYPE (float64) "
    "(NQ + 2, cells) SoA chunk of an optional held flat scratch"
)
_AOS_STREAM_INPLACE = (
    _AOS_INPLACE + ", one C-contiguous array per operand (a block, a "
    "rank's blocks), streamed in chunks of half of an optional held flat "
    "COMPUTE_DTYPE scratch"
)
_AOS_CELLS = (
    "AoS in (any dtype, any layout), COMPUTE_DTYPE (float64) p and "
    "optional ke out, shaped like the cells; the NumPy form walks slabs "
    "of whole planes through one cache-sized scratch"
)
#: The kernels with a door to :mod:`repro.native` and a NumPy form.
_NATIVE = (
    "; the contiguous production case runs in the compiled library where "
    "one is built, same bytes"
)
_WAVELET = (
    "float32 or float64 preserved, one block (z, y, x) or a batch "
    "(B, z, y, x); COMPUTE_DTYPE (float64) prediction rounded once"
)


@dataclass(frozen=True)
class KernelSpec:
    """Declaration of one hot-path kernel the analyzer checks."""

    name: str  #: function name in the defining module
    module: str  #: path suffix of the defining module (``physics/weno.py``)
    dtype_contract: str  #: human-readable precision contract
    model_key: str | None = None  #: key into the shared arithmetic table


#: The declared hot-path kernels (ISSUE 6 module set).
HOT_KERNELS: tuple[KernelSpec, ...] = (
    # physics.weno -- the WENO stage dominates the RHS (83 % of its
    # instructions, paper Table 8).
    KernelSpec("weno5", "physics/weno.py", _COMPUTE, "weno5"),
    KernelSpec("weno5_fused", "physics/weno.py", _COMPUTE, "weno5"),
    KernelSpec("weno3", "physics/weno.py", _COMPUTE),
    # physics.riemann -- the HLLE stage.
    KernelSpec("hlle_flux", "physics/riemann.py", _HLLE_WORKSPACE, "hlle"),
    KernelSpec("einfeldt_wave_speeds", "physics/riemann.py", _COMPUTE,
               "wavespeeds"),
    KernelSpec("hllc_flux", "physics/riemann.py", _COMPUTE),
    # physics.eos -- CONV/BACK stages and the DT reduction chain.
    KernelSpec("conserved_to_primitive", "physics/eos.py", _COMPUTE, "conv"),
    KernelSpec("primitive_to_conserved", "physics/eos.py", _COMPUTE, "back"),
    KernelSpec("pressure", "physics/eos.py", _COMPUTE, "pressure"),
    KernelSpec("total_energy", "physics/eos.py", _COMPUTE, "total_energy"),
    KernelSpec("sound_speed", "physics/eos.py", _COMPUTE, "sound_speed"),
    KernelSpec("max_characteristic_velocity", "physics/eos.py", _COMPUTE,
               "sos"),
    # physics.equations -- RHS assembly (directional sweeps).
    KernelSpec("compute_rhs", "physics/equations.py",
               _COMPUTE_BOX + _NATIVE),
    # core.kernels -- block-level wrappers (AoS/SoA conversion, ring
    # buffers) and the UP stage.
    KernelSpec("gather_conv", "core/kernels.py", _PLAN_GATHER),
    KernelSpec("scatter_aos", "core/kernels.py", _PLAN_SCATTER),
    KernelSpec("rhs_kernel", "core/kernels.py", _AOS_BOX_OUT + _NATIVE),
    KernelSpec("rhs_kernel_slices", "core/kernels.py", _AOS_IN),
    KernelSpec("sos_kernel", "core/kernels.py", _AOS_STREAM_IN + _NATIVE),
    KernelSpec("cell_pressure", "core/kernels.py", _AOS_CELLS + _NATIVE),
    KernelSpec("update_stage", "core/kernels.py",
               _AOS_STREAM_INPLACE + _NATIVE, "up"),
    # core.timestepper / node layer -- orchestration around the kernels.
    KernelSpec("advance", "core/timestepper.py", _AOS_INPLACE),
    KernelSpec("fill_block_ghosts", "node/ghosts.py",
               "STORAGE_DTYPE (float32) AoS in place"),
    # compression -- FWT is one of the paper's four core kernels; the
    # axis-first lifting through strided views and held scratch is the
    # form without a compiler (repro_lift, repro_decimate otherwise).
    KernelSpec("fwt3d", "compression/wavelet.py", _WAVELET + _NATIVE),
    KernelSpec("iwt3d", "compression/wavelet.py", _WAVELET + _NATIVE),
    KernelSpec("decimate", "compression/decimation.py",
               "dtype-preserving, in place" + _NATIVE),
)

def modeled_arithmetic(spec: KernelSpec) -> KernelArithmetic | None:
    """The shared roofline-table entry of a kernel spec, or None."""
    if spec.model_key is None:
        return None
    return KERNEL_ARITHMETIC.get(spec.model_key)
