"""Flow diagnostics monitored during production runs (paper Fig. 5).

"We monitor the maximum pressure in the flow field and on the solid wall,
the equivalent radius of the cloud (3 V_vapor / 4 pi)^(1/3) and the
kinetic energy of the system."

All functions operate on a rank's AoS field; the cluster driver reduces
them globally (max for pressures, sum for volumes/energies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import cell_pressure
from ..physics.eos import LIQUID, VAPOR
from ..physics.state import GAMMA


def pressure_field(field: np.ndarray) -> np.ndarray:
    """Pointwise pressure of an AoS field ``(..., NQ)``, float64."""
    return cell_pressure(field)[0]


def max_pressure(field: np.ndarray) -> float:
    """Maximum pressure in the (rank-local) flow field."""
    return float(pressure_field(field).max())


def _wall_layer(axis: int, side: int) -> tuple[slice, ...]:
    """Index of the cell layer adjacent to the wall ``(axis, side)``."""
    sel = [slice(None)] * 3
    sel[axis] = slice(0, 1) if side == -1 else slice(-1, None)
    return tuple(sel)


def wall_max_pressure(field: np.ndarray, axis: int = 0, side: int = -1) -> float:
    """Maximum pressure on the cell layer adjacent to a solid wall."""
    return float(pressure_field(field[_wall_layer(axis, side)]).max())


def kinetic_energy(field: np.ndarray, h: float) -> float:
    """Total kinetic energy ``sum(|rho u|^2 / (2 rho)) * h^3``."""
    return float(cell_pressure(field, kinetic=True)[1].sum() * h**3)


def vapor_fraction_field(field: np.ndarray) -> np.ndarray:
    """Vapor volume fraction recovered from the advected ``Gamma``.

    ``Gamma`` mixes linearly in the volume fraction, so
    ``alpha = (Gamma - Gamma_liquid) / (Gamma_vapor - Gamma_liquid)``,
    clipped to [0, 1].
    """
    G = field[..., GAMMA].astype(np.float64)
    alpha = (G - LIQUID.G) / (VAPOR.G - LIQUID.G)
    return np.clip(alpha, 0.0, 1.0)


def vapor_volume(field: np.ndarray, h: float) -> float:
    """Total vapor volume ``sum(alpha) * h^3``."""
    return float(vapor_fraction_field(field).sum() * h**3)


@dataclass
class Diagnostics:
    """Global flow diagnostics of one step (after cluster reduction)."""

    max_pressure: float
    wall_max_pressure: float
    kinetic_energy: float
    vapor_volume: float

    @property
    def equivalent_radius(self) -> float:
        """Equivalent cloud radius (blue line of paper Fig. 5)."""
        return float((3.0 * max(self.vapor_volume, 0.0) / (4.0 * np.pi)) ** (1.0 / 3.0))


def rank_diagnostics(field: np.ndarray, h: float, wall: tuple[int, int] | None) -> dict:
    """Rank-local diagnostic contributions (pre-reduction).

    ``wall`` is ``(axis, side)`` of the solid wall, or ``None`` when the
    rank subdomain does not touch it.
    """
    # One pass for p and ke; the wall layer's maximum is taken over a
    # C-order copy, the array wall_max_pressure reduces.
    p, ke = cell_pressure(field, kinetic=True)
    return {
        "max_pressure": float(p.max()),
        "wall_max_pressure": (
            float(np.ascontiguousarray(p[_wall_layer(*wall)]).max())
            if wall is not None else -np.inf
        ),
        "kinetic_energy": float(ke.sum() * h**3),
        "vapor_volume": vapor_volume(field, h),
    }


def reduce_diagnostics(comm, local: dict) -> Diagnostics:
    """Combine rank-local contributions into global :class:`Diagnostics`."""
    return Diagnostics(
        max_pressure=comm.allreduce(local["max_pressure"], op="max"),
        wall_max_pressure=comm.allreduce(local["wall_max_pressure"], op="max"),
        kinetic_energy=comm.allreduce(local["kinetic_energy"], op="sum"),
        vapor_volume=comm.allreduce(local["vapor_volume"], op="sum"),
    )


def format_sanitizer_report(report, max_lines: int = 20) -> str:
    """Human-readable rendering of a sanitizer :class:`ViolationReport`.

    Returns the one-line summary followed by up to ``max_lines``
    block-level findings (runs with the sanitizer off pass ``None`` and
    get an explicit note instead).
    """
    if report is None:
        return "numerics sanitizer: off"
    lines = [report.summary()]
    for v in report.violations[:max_lines]:
        lines.append(f"  {v.format()}")
    hidden = len(report.violations) - max_lines
    if hidden > 0:
        lines.append(f"  ... and {hidden} more")
    return "\n".join(lines)
