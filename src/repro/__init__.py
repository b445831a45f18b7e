"""repro: reproduction of "11 PFLOP/s Simulations of Cloud Cavitation Collapse".

A CUBISM-MPCF-style finite-volume solver for inviscid compressible
two-phase flow, organized in the paper's three software layers
(:mod:`repro.cluster` / :mod:`repro.node` / :mod:`repro.core`), with the
wavelet-based I/O compression scheme (:mod:`repro.compression`), bubble
cloud simulation setup (:mod:`repro.sim`) and the Blue Gene/Q performance
models that regenerate the paper's evaluation tables (:mod:`repro.perf`).

Quick start::

    from repro.cluster import Simulation
    from repro.sim import SimulationConfig, cloud_collapse, generate_cloud

    config = SimulationConfig(cells=32, block_size=16, max_steps=20)
    bubbles = generate_cloud(4, (0.5, 0.5, 0.5), 0.3, rng=7,
                             r_min=0.06, r_max=0.1)
    result = Simulation(config, cloud_collapse(bubbles,
                                               smoothing=config.h)).run()
    for t, p in zip(result.times, result.series("max_pressure")):
        print(t, p)

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the system
inventory.  Importing a package imports none of its submodules
(:mod:`repro._exports`): a process loads only what it uses.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    sub: (sub,) for sub in ("cluster", "compression", "core", "node",
                            "perf", "physics", "sim")
})
__all__.append("__version__")
