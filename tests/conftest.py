"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.physics.eos import LIQUID, VAPOR, total_energy
from repro.physics.state import ENERGY, GAMMA, NQ, PI, RHO, RHOU, RHOV, RHOW

#: The suite-wide base seed (the paper's submission date).
SEED = 20130717


def make_rng(seed=SEED):
    """The suite's single deterministic RNG constructor.

    All tests obtain generators through this helper (or the ``rng``
    fixture built on it) so seeding policy lives in one place;
    parametrized sweeps pass their per-case seed explicitly.
    """
    return np.random.default_rng(seed)


def bytes_equal(a, b) -> bool:
    """Same shape, dtype and bytes -- signed zeros and NaN payloads count.

    The comparison of every bit-identity test: ``np.array_equal`` calls
    ``-0.0`` and ``+0.0`` equal and never equates two NaNs.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@pytest.fixture
def rng():
    """Function-scoped deterministic generator with the suite base seed."""
    return make_rng()


@pytest.fixture(params=["c", "numpy"])
def kernel_path(request, monkeypatch):
    """Runs a test once per kernel path: the compiled library
    (skipped, with the loader's reason, where there is none) and the
    NumPy fallback (``repro.native.lib`` set to ``None``)."""
    from repro import native

    if request.param == "numpy":
        monkeypatch.setattr(native, "lib", None)
        # ... and in spawned ranks and workers, which import afresh: no
        # compiler on their PATH, the fallback the loader takes by itself
        monkeypatch.setenv("PATH", "/nonexistent")
    elif native.lib is None:
        pytest.skip(f"no compiled kernels: {native.status()['reason']}")
    return request.param


#: The solver tree every whole-tree analysis test analyses.
SRC_REPRO = str(Path(__file__).resolve().parents[1] / "src" / "repro")


@pytest.fixture(scope="session")
def src_program():
    """``src/repro`` read and parsed once, shared by every test that
    analyses the whole tree (no analysis family modifies a program)."""
    from repro.analysis.program import Program

    return Program.load([SRC_REPRO])


@pytest.fixture
def cli_src_program(src_program, monkeypatch):
    """Analysis CLI runs on ``src/repro`` reuse :func:`src_program`."""
    from repro.analysis.program import Program

    load = Program.load.__func__

    def shared(cls, paths):
        if [str(p) for p in paths] == [SRC_REPRO]:
            return src_program
        return load(cls, paths)

    monkeypatch.setattr(Program, "load", classmethod(shared))


@pytest.fixture
def resource_ledger():
    """Leak sanitizer around one test: segments/processes/threads.

    Snapshots the ambient resource population before the test and, on
    the way out, asserts nothing new survived (with a grace window for
    ordinary wind-down).  Multi-process suites opt in with an autouse
    wrapper -- see ``tests/test_service_chaos.py``.
    """
    from repro.analysis.syscheck import ResourceLedger

    ledger = ResourceLedger()
    ledger.begin()
    yield ledger
    ledger.assert_clean(grace=10.0)


def make_uniform_aos(shape, rho=1000.0, u=(0.0, 0.0, 0.0), p=100.0,
                     material=LIQUID, dtype=np.float64):
    """Uniform AoS state array of the given spatial shape.

    ``u`` is (w, v, u) = (z, y, x) velocity components.
    """
    out = np.empty(tuple(shape) + (NQ,), dtype=dtype)
    wz, vy, ux = u
    out[..., RHO] = rho
    out[..., RHOU] = rho * ux
    out[..., RHOV] = rho * vy
    out[..., RHOW] = rho * wz
    out[..., ENERGY] = total_energy(rho, ux, vy, wz, p, material.G, material.P)
    out[..., GAMMA] = material.G
    out[..., PI] = material.P
    return out


def make_smooth_aos(shape, rng, amplitude=0.05, dtype=np.float64):
    """A smooth, physically admissible perturbed liquid state.

    Density/pressure/velocity vary smoothly (low-order Fourier modes) so
    kernels see non-trivial but well-conditioned data.
    """
    grids = np.meshgrid(
        *(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False) for n in shape),
        indexing="ij",
    )
    phase = rng.uniform(0, 2 * np.pi, size=6)
    z, y, x = grids
    bump = (
        np.sin(z + phase[0]) * np.cos(y + phase[1])
        + 0.5 * np.sin(x + phase[2]) * np.cos(z + phase[3])
        + 0.25 * np.sin(y + phase[4]) * np.sin(x + phase[5])
    )
    rho = 1000.0 * (1.0 + amplitude * bump)
    p = 100.0 * (1.0 + amplitude * bump)
    u = 5.0 * amplitude * np.sin(x + phase[0])
    v = 5.0 * amplitude * np.cos(y + phase[1])
    w = 5.0 * amplitude * np.sin(z + phase[2])
    out = np.empty(tuple(shape) + (NQ,), dtype=dtype)
    out[..., RHO] = rho
    out[..., RHOU] = rho * u
    out[..., RHOV] = rho * v
    out[..., RHOW] = rho * w
    out[..., ENERGY] = total_energy(rho, u, v, w, p, LIQUID.G, LIQUID.P)
    out[..., GAMMA] = LIQUID.G
    out[..., PI] = LIQUID.P
    return out


def make_primitive_soa(rho, u, v, w, p, mat=LIQUID, shape=()):
    """Primitive SoA state ``(NQ,) + shape`` for the Riemann-solver API.

    The Riemann fluxes take primitives in SoA layout with pressure in the
    ENERGY slot (rho, u, v, w, p, Gamma, Pi).
    """
    W = np.empty((NQ,) + shape)
    W[RHO] = rho
    W[RHOU] = u
    W[RHOV] = v
    W[RHOW] = w
    W[ENERGY] = p
    W[GAMMA] = mat.G
    W[PI] = mat.P
    return W


def exact_flux(W, normal):
    """Analytic Euler flux of one primitive SoA state (consistency ref)."""
    rho, u, v, w, p = W[RHO], W[RHOU], W[RHOV], W[RHOW], W[ENERGY]
    un = W[RHOU + normal]
    E = total_energy(rho, u, v, w, p, W[GAMMA], W[PI])
    F = np.empty_like(W)
    F[RHO] = rho * un
    F[RHOU] = rho * un * u
    F[RHOV] = rho * un * v
    F[RHOW] = rho * un * w
    F[RHOU + normal] += p
    F[ENERGY] = (E + p) * un
    F[GAMMA] = W[GAMMA] * un
    F[PI] = W[PI] * un
    return F


def make_interface_aos(shape, axis=0, dtype=np.float64, u_n=10.0, p0=100.0):
    """A sharp liquid/vapor material interface moving at uniform (p, u)."""
    out = np.empty(tuple(shape) + (NQ,), dtype=dtype)
    coords = np.arange(shape[axis])
    mask_shape = [1, 1, 1]
    mask_shape[axis] = shape[axis]
    is_vapor = (coords >= shape[axis] // 2).reshape(mask_shape)
    is_vapor = np.broadcast_to(is_vapor, shape)
    rho = np.where(is_vapor, 1.0, 1000.0)
    G = np.where(is_vapor, VAPOR.G, LIQUID.G)
    P = np.where(is_vapor, VAPOR.P, LIQUID.P)
    vel = [0.0, 0.0, 0.0]
    vel[axis] = u_n
    w, v, u = vel if axis == 0 else (0, 0, 0)
    if axis == 1:
        w, v, u = 0.0, u_n, 0.0
    elif axis == 2:
        w, v, u = 0.0, 0.0, u_n
    elif axis == 0:
        w, v, u = u_n, 0.0, 0.0
    out[..., RHO] = rho
    out[..., RHOU] = rho * u
    out[..., RHOV] = rho * v
    out[..., RHOW] = rho * w
    out[..., ENERGY] = total_energy(rho, u, v, w, p0, G, P)
    out[..., GAMMA] = G
    out[..., PI] = P
    return out
