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

from .eos import (
    LIQUID,
    VAPOR,
    Material,
    conserved_to_primitive,
    max_characteristic_velocity,
    mixture,
    pressure,
    primitive_to_conserved,
    sound_speed,
    total_energy,
)
from .equations import STENCIL_WIDTH, SweepWorkspace, compute_rhs
from .exact_riemann import RiemannSide, RiemannSolution, sample, solve
from .rayleigh import (
    Gilmore,
    KellerMiksis,
    RayleighPlesset,
    rayleigh_collapse_time,
)
from .riemann import einfeldt_wave_speeds, hllc_flux, hlle_flux
from .state import (
    ADVECTED,
    CONSERVED,
    COMPUTE_DTYPE,
    ENERGY,
    GAMMA,
    NAMES,
    NQ,
    PI,
    RHO,
    RHOU,
    RHOV,
    RHOW,
    STORAGE_DTYPE,
    aos_to_soa,
    soa_to_aos,
    zeros_aos,
)
from .weno import Weno5Workspace, weno3, weno5, weno5_fused

__all__ = [
    "ADVECTED",
    "CONSERVED",
    "COMPUTE_DTYPE",
    "ENERGY",
    "GAMMA",
    "Gilmore",
    "KellerMiksis",
    "LIQUID",
    "Material",
    "NAMES",
    "NQ",
    "PI",
    "RHO",
    "RHOU",
    "RHOV",
    "RHOW",
    "RayleighPlesset",
    "RiemannSide",
    "RiemannSolution",
    "STENCIL_WIDTH",
    "sample",
    "solve",
    "STORAGE_DTYPE",
    "SweepWorkspace",
    "VAPOR",
    "Weno5Workspace",
    "aos_to_soa",
    "compute_rhs",
    "conserved_to_primitive",
    "einfeldt_wave_speeds",
    "hllc_flux",
    "hlle_flux",
    "max_characteristic_velocity",
    "mixture",
    "pressure",
    "primitive_to_conserved",
    "rayleigh_collapse_time",
    "soa_to_aos",
    "sound_speed",
    "total_energy",
    "weno3",
    "weno5",
    "weno5_fused",
    "zeros_aos",
]
