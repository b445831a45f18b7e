"""Governing equations and numerical schemes (paper Section 3).

Submodules
----------
state
    Quantity layout (7 evolved quantities), AoS/SoA conversions.
eos
    Stiffened-gas equation of state, material definitions, CONV/BACK.
weno
    Fifth-order WENO reconstruction (micro-fused line-table kernel).
riemann
    HLLE numerical flux with quasi-conservative Gamma/Pi transport.
equations
    Directional-sweep RHS assembly.
rayleigh
    Classical single-bubble collapse baselines (Rayleigh, Rayleigh-Plesset,
    Keller-Miksis, Gilmore).
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "eos": (
        "LIQUID", "VAPOR", "Material", "conserved_to_primitive",
        "max_characteristic_velocity", "mixture", "pressure",
        "primitive_to_conserved", "sound_speed", "total_energy",
    ),
    "equations": ("STENCIL_WIDTH", "SweepWorkspace", "compute_rhs"),
    "exact_riemann": ("RiemannSide", "RiemannSolution", "sample", "solve"),
    "rayleigh": (
        "Gilmore", "KellerMiksis", "RayleighPlesset", "rayleigh_collapse_time",
    ),
    "riemann": ("einfeldt_wave_speeds", "hllc_flux", "hlle_flux"),
    "state": (
        "ADVECTED", "CONSERVED", "COMPUTE_DTYPE", "ENERGY", "GAMMA", "NAMES",
        "NQ", "PI", "RHO", "RHOU", "RHOV", "RHOW", "STORAGE_DTYPE",
        "aos_to_soa", "soa_to_aos", "zeros_aos",
    ),
    "weno": ("Weno5Workspace", "weno3", "weno5", "weno5_fused"),
})
