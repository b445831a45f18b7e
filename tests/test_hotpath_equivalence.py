"""Bit-identity and dtype-contract tests of the workspace-threaded hot path.

The production WENO5/HLLE kernels thread ``out=``/workspace buffers
through the hot expression chains (rule CP003), WENO5 reads shared line
tables, and the RHS walks each direction in cache-sized pencil tiles with
the sweep axis first.  None of that may change a bit of the result:

* **bit identity** -- every kernel issues the evaluation tree of its
  expression form per element, so results are compared with
  ``conftest.bytes_equal`` (``tobytes()``): ``np.array_equal`` calls ``-0.0``
  and ``+0.0`` equal, and ``0.0 - div`` is not ``-div``.  The whole RHS
  is held to an expression-form reference sweep (last-axis layout, no
  tiling, no workspace) built on ``_weno5_minus_raw``;
* **dtype preservation** -- float32 face states stay float32 end to end
  (rules CP001/CP002: no silent promotion, no strong scalars).

The memory-bound kernels are streamed through held scratch: UP against
the six-line expression form it replaced, SOS (one chunk shared by all the
blocks of a rank) against the per-block expression form, HLLE on a held
workspace against the allocating expression form -- and a whole run
against SHA-256 digests recorded before any of it.

The compression layer is held to the same standard: the axis-first
lifting kernel over batches of blocks against the ``fwt1d_level`` /
``iwt1d_level`` composition, and a whole ``compress`` / ``decompress``
against a pipeline assembled block by block from that oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.cluster.mpi_sim import SimWorld
from repro.compression import wavelet, zerotree
from repro.compression.decimation import (
    DecimationStats,
    decimate,
    decimate_batch,
    guaranteed_threshold,
)
from repro.compression.encoder import StreamEncoder
from repro.compression.io import read_field, write_compressed_parallel
from repro.compression.scheme import WaveletCompressor
from repro.compression.wavelet import (
    detail_mask,
    fwt1d_level,
    fwt3d,
    iwt1d_level,
    iwt3d,
    lift_batch,
    max_levels,
)
from repro.cluster import Simulation
from repro.core.block import GHOSTS, padded_aos
from repro.core.kernels import (
    STREAM_ELEMENTS,
    cell_pressure,
    rhs_kernel,
    sos_kernel,
    stream_scratch,
    update_stage,
)
from repro.core.timestepper import LowStorageRK3
from repro.node import solver as node_solver
from repro.node.dispatcher import Dispatcher
from repro.node.ghosts import BoundarySpec, fill_block_ghosts
from repro.node.grid import BlockGrid
from repro.node.sfc import morton_order
from repro.node.solver import NodeSolver
from repro.physics import equations
from repro.physics.eos import (
    LIQUID,
    VAPOR,
    conserved_to_primitive,
    max_characteristic_velocity,
    pressure,
    primitive_to_conserved,
    sound_speed,
    total_energy,
)
from repro.physics.equations import SweepWorkspace, compute_rhs
from repro.physics.riemann import (
    HlleWorkspace,
    einfeldt_wave_speeds,
    hllc_flux,
    hlle_flux,
)
from repro.physics.state import ENERGY, GAMMA, NQ, PI, RHO, RHOU, RHOV, RHOW
from repro.physics.weno import (
    Weno5Workspace,
    _weno3_biased,
    _weno5_minus_raw,
    weno5,
    weno5_fused,
)

from repro import native
from repro.sim import SimulationConfig, cloud_collapse, generate_cloud
from repro.sim.diagnostics import (
    kinetic_energy,
    max_pressure,
    pressure_field,
    rank_diagnostics,
    vapor_volume,
    wall_max_pressure,
)

from .conftest import bytes_equal, make_rng, make_smooth_aos


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Pins a test to the NumPy kernels.  The classes below that hold the
    tiled sweeps and the streamed UP / SOS to their expression forms are
    about *those* kernels; ``TestNativeBitIdentity`` then holds the
    compiled ones to them."""
    monkeypatch.setattr(native, "lib", None)


def _face_states(rng, shape=(4, 9), dtype=np.float64):
    """A pair of physically admissible primitive face-state batches."""
    W_l = np.empty((NQ,) + shape, dtype=dtype)
    W_r = np.empty((NQ,) + shape, dtype=dtype)
    for W in (W_l, W_r):
        W[RHO] = rng.uniform(500.0, 1500.0, shape)
        W[RHOU] = rng.uniform(-5.0, 5.0, shape)
        W[RHOV] = rng.uniform(-5.0, 5.0, shape)
        W[RHOW] = rng.uniform(-5.0, 5.0, shape)
        W[ENERGY] = rng.uniform(10.0, 200.0, shape)
        W[GAMMA] = LIQUID.G
        W[PI] = LIQUID.P
    return W_l, W_r


def _ref_hlle_combine(s_l, s_r, F_l, F_r, U_l, U_r):
    """Expression-form HLLE combination, the pre-refactor reference.

    Mirrors ``_hlle_combine`` / ``_hlle_wave_bounds`` operation for
    operation so the workspace path must match it bit for bit.
    """
    s_l_m = np.minimum(s_l, 0.0)
    s_r_p = np.maximum(s_r, 0.0)
    span = s_r_p - s_l_m
    safe = np.where(span > 0.0, span, 1.0)
    prod = s_l_m * s_r_p
    hll = (s_r_p * F_l - s_l_m * F_r + prod * (U_r - U_l)) / safe
    avg = 0.5 * (F_l + F_r)
    return np.where(span > 0.0, hll, avg)


def _ref_hlle_flux(W_l, W_r, normal):
    """Expression-form HLLE flux, component by component."""
    mom_n = RHOU + normal
    rho_l, p_l, G_l, P_l = W_l[RHO], W_l[ENERGY], W_l[GAMMA], W_l[PI]
    rho_r, p_r, G_r, P_r = W_r[RHO], W_r[ENERGY], W_r[GAMMA], W_r[PI]
    un_l, un_r = W_l[mom_n], W_r[mom_n]
    s_l, s_r = einfeldt_wave_speeds(
        rho_l, un_l, p_l, G_l, P_l, rho_r, un_r, p_r, G_r, P_r
    )
    E_l = total_energy(rho_l, W_l[RHOU], W_l[RHOV], W_l[RHOW], p_l, G_l, P_l)
    E_r = total_energy(rho_r, W_r[RHOU], W_r[RHOV], W_r[RHOW], p_r, G_r, P_r)

    flux = np.empty_like(W_l)
    flux[RHO] = _ref_hlle_combine(
        s_l, s_r, rho_l * un_l, rho_r * un_r, rho_l, rho_r
    )
    for comp in (RHOU, RHOV, RHOW):
        u_l_c, u_r_c = W_l[comp], W_r[comp]
        F_l = rho_l * un_l * u_l_c
        F_r = rho_r * un_r * u_r_c
        if comp == mom_n:
            F_l = F_l + p_l
            F_r = F_r + p_r
        flux[comp] = _ref_hlle_combine(
            s_l, s_r, F_l, F_r, rho_l * u_l_c, rho_r * u_r_c
        )
    flux[ENERGY] = _ref_hlle_combine(
        s_l, s_r, (E_l + p_l) * un_l, (E_r + p_r) * un_r, E_l, E_r
    )
    flux[GAMMA] = _ref_hlle_combine(s_l, s_r, G_l * un_l, G_r * un_r, G_l, G_r)
    flux[PI] = _ref_hlle_combine(s_l, s_r, P_l * un_l, P_r * un_r, P_l, P_r)
    ones = np.ones_like(un_l)
    ustar = _ref_hlle_combine(s_l, s_r, un_l, un_r, ones, ones)
    return flux, ustar


class TestWeno5BitIdentity:
    def test_matches_raw_expression_form(self):
        v = make_rng().normal(size=(NQ, 7, 20)) * 5.0
        nfaces = v.shape[-1] - 5
        a, b, c, d, e, f = (
            v[..., k : k + nfaces] for k in range(6)
        )
        minus, plus = weno5(v)
        assert bytes_equal(minus, _weno5_minus_raw(a, b, c, d, e))
        assert bytes_equal(plus, _weno5_minus_raw(f, e, d, c, b))

    def test_workspace_and_out_arrays_are_bit_identical(self):
        v = make_rng(7).normal(size=(NQ, 4, 4, 12)) * 3.0
        base_minus, base_plus = weno5(v)
        shape = v.shape[:-1] + (v.shape[-1] - 5,)
        ws = Weno5Workspace(shape)
        om = np.empty(shape)
        op = np.empty(shape)
        minus, plus = weno5(v, workspace=ws, out_minus=om, out_plus=op)
        assert minus is om and plus is op
        assert bytes_equal(minus, base_minus)
        assert bytes_equal(plus, base_plus)

    def test_workspace_reuse_does_not_contaminate(self):
        # A dirty workspace (filled by a previous call on other data)
        # must not change results: every buffer is write-before-read.
        rng = make_rng(11)
        shape = (NQ, 3, 14)
        ws = Weno5Workspace(shape[:-1] + (shape[-1] - 5,))
        v1 = rng.normal(size=shape) * 2.0
        v2 = rng.normal(size=shape) * 40.0
        weno5(v1, workspace=ws)  # dirty the buffers
        minus, plus = weno5(v2, workspace=ws)
        ref_minus, ref_plus = weno5(v2)
        assert bytes_equal(minus, ref_minus)
        assert bytes_equal(plus, ref_plus)

    def test_fused_variant_same_workspace_contract(self):
        v = make_rng(3).normal(size=(NQ, 5, 13))
        shape = v.shape[:-1] + (v.shape[-1] - 5,)
        ws = Weno5Workspace(shape)
        weno5_fused(v + 1.0, workspace=ws)  # dirty the buffers
        minus, plus = weno5_fused(v, workspace=ws)
        ref_minus, ref_plus = weno5_fused(v)
        assert bytes_equal(minus, ref_minus)
        assert bytes_equal(plus, ref_plus)


class TestHlleBitIdentity:
    @pytest.mark.parametrize("normal", [0, 1, 2])
    def test_matches_expression_reference(self, normal):
        W_l, W_r = _face_states(make_rng(normal + 1))
        flux, ustar = hlle_flux(W_l, W_r, normal)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, normal)
        assert bytes_equal(flux, ref_flux)
        assert bytes_equal(ustar, ref_ustar)

    def test_scalar_face_states(self):
        # 1-d (NQ,) states exercise the 0-d ``flux[RHO, ...]`` out= views.
        W_l, W_r = _face_states(make_rng(9), shape=())
        flux, ustar = hlle_flux(W_l, W_r, 0)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, 0)
        assert flux.shape == (NQ,)
        assert bytes_equal(flux, ref_flux)
        assert bytes_equal(ustar, ref_ustar)

    def test_supersonic_faces_upwind_bit_identically(self):
        # Fully supersonic faces (s_l > 0) reduce HLLE to the upwind
        # flux; the clipped-bounds path must still match the reference.
        W_l, W_r = _face_states(make_rng(5), shape=(3,))
        for W in (W_l, W_r):
            W[RHOU] += 50.0  # far above the liquid sound speed
        flux, ustar = hlle_flux(W_l, W_r, 0)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, 0)
        assert bytes_equal(flux, ref_flux)
        assert bytes_equal(ustar, ref_ustar)


def _padded_state(interior, seed, kind="cloud", dtype=np.float64):
    """Ghost-padded conserved SoA state ``(NQ, nz+6, ny+6, nx+6)``.

    ``cloud``: rough two-material field with sharp interfaces and exact
    zeros in the velocities; ``uniform``: one state everywhere (the RHS
    is exactly zero); ``supersonic``: ``cloud`` moving far above the
    liquid sound speed in all three directions, so HLLE upwinds.
    """
    rng = make_rng(seed)
    shape = tuple(n + 6 for n in interior)
    W = np.empty((NQ,) + shape)
    if kind == "uniform":
        for q, value in zip(
            (RHO, RHOU, RHOV, RHOW, ENERGY, GAMMA, PI),
            (1000.0, 1.0, -2.0, 3.0, 100.0, LIQUID.G, LIQUID.P),
        ):
            W[q] = value
    else:
        vapor = (rng.uniform(size=shape) > 0.7).astype(float)
        W[RHO] = rng.uniform(1.0, 1000.0, shape)
        for q in (RHOU, RHOV, RHOW):
            W[q] = rng.uniform(-5.0, 5.0, shape)
            W[q][rng.uniform(size=shape) > 0.8] = 0.0
            if kind == "supersonic":
                W[q] += 3000.0
        W[ENERGY] = rng.uniform(10.0, 200.0, shape)
        W[GAMMA] = LIQUID.G * (1.0 - vapor) + VAPOR.G * vapor
        W[PI] = LIQUID.P * (1.0 - vapor) + VAPOR.P * vapor
    return primitive_to_conserved(W).astype(dtype)


def _ref_faces(Wd, order):
    """Expression-form face states along the last axis."""
    nfaces = Wd.shape[-1] - 5
    a, b, c, d, e, f = (Wd[..., k : k + nfaces] for k in range(6))
    if order == 5:
        return _weno5_minus_raw(a, b, c, d, e), _weno5_minus_raw(f, e, d, c, b)
    return _weno3_biased(b, c, d), _weno3_biased(e, d, c)


def _ref_directional(Wpad, axis, h, order, solver):
    """One sweep as whole-block expressions: ``(div, phi_corr)``."""
    inner = slice(3, -3)
    index = [slice(None), inner, inner, inner]
    index[axis + 1] = slice(None)
    Wd = np.ascontiguousarray(np.swapaxes(Wpad[tuple(index)], axis + 1, 3))
    W_minus, W_plus = _ref_faces(Wd, order)
    flux_fn = _ref_hlle_flux if solver == "hlle" else hllc_flux
    flux, ustar = flux_fn(W_minus, W_plus, 2 - axis)
    inv_h = 1.0 / h
    div = (flux[..., 1:] - flux[..., :-1]) * inv_h
    du = (ustar[..., 1:] - ustar[..., :-1]) * inv_h
    phi_corr = np.zeros_like(div)
    phi_corr[GAMMA] = Wd[GAMMA][..., 3:-3] * du
    phi_corr[PI] = Wd[PI][..., 3:-3] * du
    return np.swapaxes(div, axis + 1, 3), np.swapaxes(phi_corr, axis + 1, 3)


def _ref_compute_rhs(Upad, h, order=5, solver="hlle"):
    """The RHS summed z -> y -> x from the reference sweeps."""
    Wpad = _ref_conserved_to_primitive(Upad)
    rhs = None
    for axis in range(3):
        div, phi_corr = _ref_directional(Wpad, axis, h, order, solver)
        contrib = phi_corr - div
        rhs = contrib if rhs is None else rhs + contrib
    return rhs


#: The schemes of the sweeps: production, and the three ablations.
SCHEMES = [dict(), dict(order=3), dict(solver="hllc"), dict(fused=True)]
SCHEME_IDS = ["weno5-hlle", "weno3", "hllc", "fused"]

#: Boxes the sweeps are given.
BOXES = [
    (16, 16, 32),  # the compiled executor's box of 8^3 blocks
    (8, 16, 16),   # a box of four 8^3 blocks
    (10, 12, 14),  # no two extents alike
    (32, 32, 32),  # a paper block: 32 rows in tiles of 7, remainder 4
]

#: (TILE_ELEMENTS, WENO_CHUNK_ELEMENTS): from one row a tile and one
#: quantity a WENO chunk up to the whole box at once.
SPLITS = {
    "row-quantity": (1, 1),
    "row-box": (1, 1 << 30),
    "3rows-7000": (3 * NQ * 38 * 32, 7000),
    "box-quantity": (1 << 30, 1),
    "box-box": (1 << 30, 1 << 30),
}


@pytest.mark.usefixtures("numpy_kernels")
class TestWholeRhsBitIdentity:
    """``compute_rhs`` against the untiled expression-form reference."""

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("solver", ["hlle", "hllc"])
    @pytest.mark.parametrize("interior", [(8, 8, 8), (16, 16, 16), *BOXES])
    def test_every_order_and_solver(self, interior, solver, order):
        Upad = _padded_state(interior, seed=sum(interior) + order)
        rhs = compute_rhs(Upad, 0.01, order=order, solver=solver)
        assert bytes_equal(rhs, _ref_compute_rhs(Upad, 0.01, order, solver))

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
    @pytest.mark.parametrize("interior", BOXES)
    def test_every_box_scheme_and_split(self, monkeypatch, interior, scheme,
                                        split):
        # The split never shows in the bytes.
        Upad = _padded_state(interior, seed=sum(interior))
        want = compute_rhs(Upad, 0.02, **scheme)
        tile, chunk = SPLITS[split]
        monkeypatch.setattr(equations, "TILE_ELEMENTS", tile)
        monkeypatch.setattr(equations, "WENO_CHUNK_ELEMENTS", chunk)
        assert bytes_equal(compute_rhs(Upad, 0.02, **scheme), want)

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_pencil_count_not_a_multiple_of_the_tile(self, monkeypatch, rows):
        Upad = _padded_state((16, 16, 16), seed=rows)
        monkeypatch.setattr(equations, "TILE_ELEMENTS", rows * NQ * 22 * 16)
        assert bytes_equal(compute_rhs(Upad, 0.01), _ref_compute_rhs(Upad, 0.01))

    @pytest.mark.parametrize("solver", ["hlle", "hllc"])
    def test_uniform_state_is_positive_zero_everywhere(self, solver):
        Upad = _padded_state((8, 16, 8), seed=0, kind="uniform")
        rhs = compute_rhs(Upad, 0.01, solver=solver)
        assert bytes_equal(rhs, np.zeros((NQ, 8, 16, 8)))
        assert bytes_equal(rhs, _ref_compute_rhs(Upad, 0.01, solver=solver))

    @pytest.mark.parametrize("solver", ["hlle", "hllc"])
    def test_supersonic(self, solver):
        Upad = _padded_state((8, 8, 16), seed=5, kind="supersonic")
        rhs = compute_rhs(Upad, 0.01, solver=solver)
        assert bytes_equal(rhs, _ref_compute_rhs(Upad, 0.01, solver=solver))

    def test_float32_state(self):
        Upad = _padded_state((8, 8, 8), seed=9, dtype=np.float32)
        rhs = compute_rhs(Upad, 0.01)
        assert rhs.dtype == np.float32
        assert bytes_equal(rhs, _ref_compute_rhs(Upad, 0.01))

    def test_held_workspace_across_shapes_and_dtypes(self):
        # One workspace serves every tile shape it has seen; revisiting
        # a shape finds buffers dirtied by the calls in between.
        ws = SweepWorkspace()
        states = [
            _padded_state((8, 8, 8), seed=1),
            _padded_state((16, 8, 12), seed=2),
            _padded_state((8, 8, 8), seed=3, dtype=np.float32),
            _padded_state((8, 8, 8), seed=4),
        ]
        for Upad in states:
            rhs = compute_rhs(Upad, 0.01, workspace=ws)
            assert bytes_equal(rhs, _ref_compute_rhs(Upad, 0.01))

    def test_rhs_kernel_aos(self):
        Upad = _padded_state((8, 8, 8), seed=7)
        pad = np.moveaxis(Upad, 0, -1).astype(np.float32)
        ref = _ref_compute_rhs(
            np.ascontiguousarray(np.moveaxis(pad, -1, 0), dtype=np.float64), 0.1
        )
        for workspace in (None, SweepWorkspace()):
            rhs = rhs_kernel(pad, 0.1, workspace=workspace)
            assert bytes_equal(rhs, np.moveaxis(ref, 0, -1))

    def test_rhs_kernel_held_workspace_across_box_shapes(self):
        # The second shape has fewer padded cells than the first but more
        # interior ones: each held field is checked for its own size.
        ws = SweepWorkspace()
        for interior in ((6, 6, 300), (24, 24, 24), (8, 8, 8)):
            Upad = _padded_state(interior, seed=sum(interior))
            pad = np.ascontiguousarray(np.moveaxis(Upad, 0, -1),
                                       dtype=np.float32)
            assert bytes_equal(rhs_kernel(pad, 0.1, workspace=ws),
                               rhs_kernel(pad, 0.1))


class TestChunkedWenoBitIdentity:
    """WENO5 per chunk of whole quantities out of one carved workspace
    against the whole tile at once and against the expression form."""

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunks_equal_whole_tile_and_raw(self, per_chunk, dtype):
        # A tile as the sweep holds it: (NQ, cells, rows, width).
        v = (make_rng(per_chunk).normal(size=(NQ, 14, 12, 8)) * 9.0).astype(dtype)
        whole_minus, whole_plus = weno5(v, axis=1)
        faces = (per_chunk, 9, 12, 8)
        buffer = np.empty(Weno5Workspace.elements(faces, axis=1), dtype=dtype)
        minus, plus = np.empty_like(whole_minus), np.empty_like(whole_plus)
        for q0 in range(0, NQ, per_chunk):
            q1 = min(q0 + per_chunk, NQ)
            ws = Weno5Workspace((q1 - q0,) + faces[1:], dtype=dtype, axis=1,
                                buffer=buffer)
            weno5(v[q0:q1], ws, minus[q0:q1], plus[q0:q1], 1)
        assert bytes_equal(minus, whole_minus)
        assert bytes_equal(plus, whole_plus)
        a, b, c, d, e, f = (v[:, k:k + 9] for k in range(6))
        assert bytes_equal(minus, _weno5_minus_raw(a, b, c, d, e))
        assert bytes_equal(plus, _weno5_minus_raw(f, e, d, c, b))

    def test_workspace_buffer_must_fit(self):
        with pytest.raises(ValueError, match="buffer must hold"):
            Weno5Workspace((2, 9, 4), axis=1, buffer=np.empty(10))
        with pytest.raises(ValueError, match="buffer must hold"):
            Weno5Workspace((2, 9, 4), axis=1,
                           buffer=np.empty(10_000, dtype=np.float32))


def _ref_update_stage(u, res, rhs, a, b, dt):
    """The expression form of the UP kernel: four block-sized temporaries,
    ``U`` advanced from the unrounded ``S``."""
    res64 = res.astype(np.float64)
    res64 *= a
    res64 += dt * rhs
    u64 = u.astype(np.float64)
    u64 += b * res64
    res[...] = res64
    u[...] = u64


def _up_operands(shape, seed, specials=False):
    """``(state, residual, rhs)`` of ``shape``; with ``specials`` every
    operand carries signed zeros, infinities, NaNs and subnormals."""
    rng = make_rng(seed)
    u = rng.normal(size=shape).astype(np.float32)
    res = rng.normal(size=shape).astype(np.float32)
    rhs = rng.normal(size=shape) * 50.0
    if specials:
        values = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-42, 3e38)
        for k, arr in enumerate((u, res, rhs)):
            flat = arr.reshape(-1)
            at = rng.choice(flat.size, size=3 * len(values), replace=False)
            flat[at] = np.roll(np.tile(values, 3), k)
        rhs.reshape(-1)[::97] = 5e-324
    return u, res, rhs


class _CountingSanitizer:
    """Records the hook calls of the UP kernel."""

    def __init__(self):
        self.calls = []

    def check_block_write(self, data, block=None):
        self.calls.append(("write", block, data.shape))

    def check_state(self, data, block=None):
        self.calls.append(("state", block, data.shape))


@pytest.mark.usefixtures("numpy_kernels")
class TestStreamedUpdateBitIdentity:
    """The streamed UP kernel against the expression form it replaced:
    chunking, layout and a held scratch never show in the bytes."""

    STAGES = [(st.a, st.b) for st in LowStorageRK3.stages]

    @staticmethod
    def _check(u, res, rhs, a, b, dt, scratch):
        want_u, want_res = u.copy(), res.copy()
        with np.errstate(all="ignore"):
            _ref_update_stage(want_u, want_res, rhs, a, b, dt)
            update_stage(u, res, rhs, a, b, dt, scratch=scratch)
        assert bytes_equal(u, want_u)
        assert bytes_equal(res, want_res)

    @pytest.mark.parametrize("stage", range(3))
    @pytest.mark.parametrize("shape", [
        (8, 8, 8, NQ), (16, 16, 16, NQ), (32, 32, 32, NQ), (5, 9, 6, NQ),
    ])
    def test_every_stage_and_block_shape(self, shape, stage):
        a, b = self.STAGES[stage]
        assert self.STAGES[0][0] == 0.0  # a = 0 still multiplies
        size = int(np.prod(shape))
        # One element a chunk only where that is 1 890 pass sets, not
        # 229 376; the default scratch; a held one that is far too large.
        chunks = [size - 1, size, size + 1, 1000, None, 4 * size]
        if size < 2000:
            chunks.append(1)
        for chunk in chunks:
            scratch = None if chunk is None else stream_scratch(2 * chunk)
            u, res, rhs = _up_operands(shape, seed=size + stage)
            self._check(u, res, rhs, a, b, 1e-3, scratch)

    @pytest.mark.parametrize("chunk", [1, 7, 300, 2351, 2352, 2353, 10 ** 5])
    def test_signed_zeros_infinities_nans_and_subnormals(self, chunk):
        for stage, (a, b) in enumerate(self.STAGES):
            u, res, rhs = _up_operands((6, 8, 7, NQ), seed=stage,
                                       specials=True)
            self._check(u, res, rhs, a, b, 0.25, stream_scratch(2 * chunk))

    @pytest.mark.parametrize("chunk", [1000, None])
    def test_blocks_of_a_rank_equal_block_by_block(self, chunk):
        scratch = None if chunk is None else stream_scratch(2 * chunk)
        u, res, rhs = _up_operands((5, 8, 8, 8, NQ), seed=3, specials=True)
        a, b = self.STAGES[2]
        want_u, want_res = u.copy(), res.copy()
        with np.errstate(all="ignore"):
            for k in range(5):
                _ref_update_stage(want_u[k], want_res[k], rhs[k], a, b, 0.5)
            update_stage(u, res, rhs, a, b, 0.5, scratch=scratch)
        assert bytes_equal(u, want_u)
        assert bytes_equal(res, want_res)

    def test_float32_rhs_is_scaled_in_its_own_precision(self):
        # ``dt * rhs`` of a float32 RHS is a float32 product in the
        # expression form; the streamed kernel must not widen it first.
        u, res, rhs = _up_operands((4, 4, 4, NQ), seed=8)
        self._check(u, res, rhs.astype(np.float32), -0.4, 0.7, 1e-3, None)

    def test_sanitizer_is_called_once_per_call(self):
        u, res, rhs = _up_operands((8, 8, 8, NQ), seed=1)
        sanitizer = _CountingSanitizer()
        update_stage(u, res, rhs, 0.0, 1.0, 1e-3, sanitizer=sanitizer,
                     block=(1, 2, 3), scratch=stream_scratch(2 * 100))
        assert sanitizer.calls == [("write", (1, 2, 3), u.shape),
                                   ("state", (1, 2, 3), u.shape)]


def _ref_conserved_to_primitive(U):
    """The expression form of the CONV stage (temporaries and all)."""
    W = np.empty_like(U)
    rho = U[RHO]
    inv_rho = 1.0 / rho
    W[RHO] = rho
    W[RHOU] = U[RHOU] * inv_rho
    W[RHOV] = U[RHOV] * inv_rho
    W[RHOW] = U[RHOW] * inv_rho
    W[ENERGY] = pressure(rho, U[RHOU], U[RHOV], U[RHOW], U[ENERGY],
                         U[GAMMA], U[PI])
    W[GAMMA] = U[GAMMA]
    W[PI] = U[PI]
    return W


class TestConvBitIdentity:
    """CONV writes its passes through rows of the result; the values are
    those of the expression form."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 6, 7, 8)])
    def test_matches_expression_form(self, shape, dtype):
        W, _ = _face_states(make_rng(len(shape)), shape=shape, dtype=dtype)
        U = primitive_to_conserved(W)
        ref = _ref_conserved_to_primitive(U)
        assert bytes_equal(conserved_to_primitive(U), ref)
        out = np.full_like(U, np.nan)  # a dirty destination
        assert conserved_to_primitive(U, out=out) is out
        assert bytes_equal(out, ref)

    def test_zero_density_cells_propagate_like_the_expression(self):
        W, _ = _face_states(make_rng(3), shape=(4, 4))
        U = primitive_to_conserved(W)
        U[:, 1, 2] = 0.0
        U[RHO, 3, 3] = np.inf
        with np.errstate(all="ignore"):
            ref = _ref_conserved_to_primitive(U)
            assert bytes_equal(conserved_to_primitive(U), ref)


def _ref_sos(block_aos):
    """The per-block expression form of the SOS kernel."""
    U = np.ascontiguousarray(np.moveaxis(block_aos, -1, 0), dtype=np.float64)
    return max_characteristic_velocity(_ref_conserved_to_primitive(U))


def _sos_grid(num_blocks, n, seed):
    grid = BlockGrid(num_blocks, n, h=0.1)
    field = make_smooth_aos(grid.cells, make_rng(seed)).astype(np.float32)
    # One fast cell somewhere, so the maximum is not on a smooth crest.
    field[grid.cells[0] // 2, 3, 5, RHOU:RHOW + 1] *= 3.0
    grid.from_array(field)
    return grid


@pytest.mark.usefixtures("numpy_kernels")
class TestStreamedSosBitIdentity:
    """``max_sos`` streams the cells of all blocks of a rank -- one array
    -- through one chunk; the result is the maximum of the per-block
    expression form, and NaN wherever that sees one."""

    GRIDS = [((1, 1, 1), 8), ((1, 1, 3), 8), ((4, 4, 4), 8), ((2, 2, 2), 32)]

    @pytest.mark.parametrize("num_blocks, n", GRIDS)
    def test_any_block_count_and_chunk_size(self, num_blocks, n):
        grid = _sos_grid(num_blocks, n, seed=n + len(num_blocks))
        blocks = [b.data for b in grid.blocks.values()]
        want = max(_ref_sos(b) for b in blocks)
        assert NodeSolver(grid).max_sos() == want
        assert sos_kernel(grid.state) == want
        cells = n ** 3
        # One cell a chunk (8^3 only), chunks that end inside a block, at
        # its end, one cell into the next, several blocks a chunk.
        chunks = [cells - 1, cells, cells + 1, 3 * cells + 17, 100 * cells]
        chunks += [1, 77] if n == 8 and len(blocks) <= 3 else [1531]
        for chunk in chunks:
            scratch = stream_scratch((NQ + 2) * chunk)
            assert sos_kernel(grid.state, scratch) == want, chunk

    def test_one_block_is_the_run_of_one(self):
        grid = _sos_grid((1, 1, 2), 8, seed=4)
        for block in grid.blocks.values():
            assert sos_kernel(block.data) == _ref_sos(block.data)
        # A strided view of block data is read, not flattened in place.
        data = grid.blocks[(0, 0, 1)].data
        assert sos_kernel(data[::2, :, 1:]) == _ref_sos(data[::2, :, 1:])

    @pytest.mark.parametrize("num_blocks, n", GRIDS)
    def test_nan_anywhere_reaches_the_result(self, num_blocks, n):
        grid = _sos_grid(num_blocks, n, seed=9)
        blocks = list(grid.blocks.values())
        solver = NodeSolver(grid)
        chunks = [None, (NQ + 2) * (n ** 3 + 5), (NQ + 2) * 100]
        # Every block position (first, last and a spread of 64).
        for k in sorted({0, len(blocks) - 1, *range(1, len(blocks), 7)}):
            cell = (n - 1, k % n, (3 * k) % n)
            saved = blocks[k].data[cell].copy()
            blocks[k].data[cell][ENERGY] = np.nan
            assert np.isnan(solver.max_sos()), k
            for size in chunks:
                scratch = None if size is None else stream_scratch(size)
                got = sos_kernel(grid.state, scratch)
                assert np.isnan(got), (k, size)
            blocks[k].data[cell] = saved
        assert solver.max_sos() == max(_ref_sos(b.data) for b in blocks)


def _zero_face(W_l, W_r, index):
    """Make one face identically zero on both sides: a span that is not
    positive, which sends the whole batch down the masked branch."""
    W_l[(slice(None),) + index] = 0.0
    W_r[(slice(None),) + index] = 0.0


class TestHlleWorkspaceBitIdentity:
    """HLLE on a held workspace (the sweeps hold one per thread) against
    the allocating expression form."""

    #: Face tiles of the sweeps: an 8^3 and a 16^3 box, a full and a
    #: remainder tile of a 32^3 block, a plane of the ring-buffer kernel, a
    #: line.
    SHAPES = [(9, 8, 8), (17, 16, 16), (33, 7, 32), (33, 4, 32), (8, 9),
              (11,)]

    @pytest.mark.parametrize("normal", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_normal_and_tile_shape(self, shape, normal):
        W_l, W_r = _face_states(make_rng(len(shape) + normal), shape=shape)
        ws = HlleWorkspace(W_l.shape)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, normal)
        for workspace in (None, ws, ws):  # fresh, held, held and dirty
            flux, ustar = hlle_flux(W_l, W_r, normal, workspace)
            assert bytes_equal(flux, ref_flux)
            assert bytes_equal(ustar, ref_ustar)
        assert flux is ws.flux and ustar is ws.ustar

    @pytest.mark.parametrize("normal", [0, 1, 2])
    def test_identically_zero_face_takes_the_masked_branch(self, normal):
        shape = (9, 2, 8, 8)
        W_l, W_r = _face_states(make_rng(normal + 20), shape=shape)
        _zero_face(W_l, W_r, (4, 1, 3, 5))
        _zero_face(W_l, W_r, (0, 0, 0, 0))
        ws = HlleWorkspace(W_l.shape)
        with np.errstate(all="ignore"):
            ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, normal)
            flux, ustar = hlle_flux(W_l, W_r, normal, ws)
        assert ws.degenerate.sum() == 2
        assert bytes_equal(flux, ref_flux)
        assert bytes_equal(ustar, ref_ustar)
        # The same workspace on a batch without such a face: nothing of
        # the masked call survives.
        W_l, W_r = _face_states(make_rng(normal + 30), shape=shape)
        flux, ustar = hlle_flux(W_l, W_r, normal, ws)
        ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, normal)
        assert not ws.degenerate.any()
        assert bytes_equal(flux, ref_flux)
        assert bytes_equal(ustar, ref_ustar)

    def test_held_workspace_across_shapes_and_dtypes(self):
        ws = HlleWorkspace((NQ, 9, 5, 8, 8))
        for shape, dtype in (((9, 5, 8, 8), np.float64),
                             ((9, 4, 8, 8), np.float64),
                             ((9, 5, 8, 8), np.float32),
                             ((9, 5, 8, 8), np.float64)):
            W_l, W_r = _face_states(make_rng(sum(shape)), shape=shape,
                                    dtype=dtype)
            flux, ustar = hlle_flux(W_l, W_r, 1, ws)
            ref_flux, ref_ustar = _ref_hlle_flux(W_l, W_r, 1)
            assert bytes_equal(flux, ref_flux)
            assert bytes_equal(ustar, ref_ustar)
            # A workspace of another shape or dtype is not written to.
            assert (flux is ws.flux) == (W_l.shape == ws.shape
                                         and W_l.dtype == ws.dtype)

    def test_buffer_is_the_callers_and_must_fit(self):
        shape = (NQ, 9, 2, 8, 8)
        needed = HlleWorkspace.elements(shape)
        flat = np.empty(needed + 10)
        ws = HlleWorkspace(shape, buffer=flat)
        assert np.shares_memory(ws.flux, flat)
        assert np.shares_memory(ws.degenerate, flat)
        with pytest.raises(ValueError, match="buffer must hold"):
            HlleWorkspace(shape, buffer=np.empty(needed - 1))
        with pytest.raises(ValueError, match="buffer must hold"):
            HlleWorkspace(shape, buffer=np.empty(needed, dtype=np.float32))


#: name -> (cells, block size, periodic, cloud centre (z, y, x)): the case
#: families of the benchmark ladder's step workloads.
RUN_FAMILIES = {
    "cloud64_b32": (64, 32, (False,) * 3, (0.5, 0.5, 0.5)),
    "cloud32_b8": (32, 8, (False,) * 3, (0.5, 0.5, 0.5)),
    "halo2_b8": ((32, 16, 16), 8, (True,) * 3, (1.0, 0.5, 0.5)),
}

#: SHA-256 of the final field of a 3-step run, recorded at the parent of
#: the streamed UP/SOS kernels (bbb2cf4); one digest per family because
#: rank count and backend never show in the field.
RUN_DIGESTS = {
    "cloud64_b32":
        "220db5b8f04d4a2e4b2eb9e352bdbee0a526d8f2d1548425efba1397c92da574",
    "cloud32_b8":
        "7c84c28ac73be0953c7600ed27b27681976138696f9d3ee89634795b60190ac5",
    "halo2_b8":
        "1944361426c1937772636b1f0bb0c34a18389102fad76ad9fd870166650d9f55",
}


class TestRecordedRunDigests:
    """Whole runs -- DT, three RK stages of RHS + UP, halos, allreduce --
    end in the bytes they ended in before UP, SOS and HLLE were streamed
    through held scratch."""

    @pytest.mark.parametrize("ranks, backend",
                             [(1, "sim"), (2, "sim"), (2, "procs")])
    @pytest.mark.parametrize("family", sorted(RUN_FAMILIES))
    def test_final_field_of_a_three_step_run(self, family, ranks, backend,
                                             resource_ledger, kernel_path):
        cells, block, periodic, centre = RUN_FAMILIES[family]
        config = SimulationConfig(
            cells=cells, block_size=block, periodic=periodic, max_steps=3,
            ranks=ranks, cluster_backend=backend, num_workers=1,
            diag_interval=0, dump_interval=0,
        )
        rng = np.random.default_rng([15, zlib.crc32(family.encode())])
        cloud = generate_cloud(8, centre, 0.38, rng=rng, r_min=0.07,
                               r_max=0.11)
        result = Simulation(
            config, cloud_collapse(cloud, smoothing=config.h)).run()
        assert len(result.records) == 3
        # ... on the path asked for, in every rank (spawned ones too)
        assert [rr.kernels["backend"] for rr in result.rank_results] == (
            [kernel_path] * ranks)
        digest = hashlib.sha256(result.final_field.tobytes()).hexdigest()
        assert digest == RUN_DIGESTS[family]


def _diagnostics_and_dumps(ranks, backend, dump_dir):
    """SHA-256 digests of a 3-step 32^3 cloud run that records diagnostics
    and dumps p and Gamma at every step: ``{"diagnostics": <the four
    Diagnostics floats of every record, struct-packed>, <dump file name>:
    <its bytes>}``, and the kernels of each rank."""
    config = SimulationConfig(
        cells=32, block_size=8, max_steps=3, ranks=ranks,
        cluster_backend=backend, num_workers=1, wall=(2, -1),
        diag_interval=1, dump_interval=1, dump_dir=str(dump_dir),
    )
    cloud = generate_cloud(8, (0.5, 0.5, 0.5), 0.38,
                           rng=np.random.default_rng(30), r_min=0.07,
                           r_max=0.11)
    result = Simulation(config, cloud_collapse(cloud, smoothing=config.h)).run()
    assert len(result.records) == 3
    packed = b"".join(
        struct.pack("<4d", d.max_pressure, d.wall_max_pressure,
                    d.kinetic_energy, d.vapor_volume)
        for d in (rec.diagnostics for rec in result.records))
    digests = {"diagnostics": hashlib.sha256(packed).hexdigest()}
    for path in sorted(dump_dir.glob("*.rwz")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, [rr.kernels["backend"] for rr in result.rank_results]


#: (ranks, backend) -> the digests of ``_diagnostics_and_dumps``, recorded
#: before p and the kinetic energy were computed by the compiled cell pass.
DIAG_DUMP_DIGESTS = {
    (1, "sim"): {
        "diagnostics":
            "f30f389a4215b2ff632c7dabbff8f8708263de7894c005d0b2e1dc4bf4cd1a89",
        "dump_step000001_Gamma.rwz":
            "e466ad340b0eb7cfbc9174a8ae53c67544fbc267a066111d2af1537a88ede023",
        "dump_step000001_p.rwz":
            "29432a35d17869a556c68a15df9b0e8c382f5ad3715d95475cd72744f015d0c7",
        "dump_step000002_Gamma.rwz":
            "1d2f654b413ef1a33463df7419ce71c32b1171016e43956bf54ee554e2197806",
        "dump_step000002_p.rwz":
            "5f07fd23c48d1c7a1ac29b92e21724f72f3a977e790c802b439be15ee91b67de",
        "dump_step000003_Gamma.rwz":
            "9741e5e10f08effdae2478585cbc2b3b1b959487341e04291494a6a8a0d284b6",
        "dump_step000003_p.rwz":
            "440eb9615987a04c8805391cfd72a31e7ad9d5d366d98163d9a15a8c9edeb0c4",
    },
    (2, "procs"): {
        "diagnostics":
            "f30f389a4215b2ff632c7dabbff8f8708263de7894c005d0b2e1dc4bf4cd1a89",
        "dump_step000001_Gamma.rwz":
            "47a2b770dd87b314f7f45f7ece9b753c6561b799605c19e9750c62ee1635a39d",
        "dump_step000001_p.rwz":
            "6cac5faf93bb3be6009847dc69c32b4fe043e368cb2a49e78f095f470d3d7b04",
        "dump_step000002_Gamma.rwz":
            "25230470d5373a5167d9ce2a85da4467992bf9bfe1fc5be59108d7012cd42387",
        "dump_step000002_p.rwz":
            "304fcdcae48fbd45b53b155326f4937ca1acc1e4679dd62f75c2743810756fe5",
        "dump_step000003_Gamma.rwz":
            "c755881dec96032445b97d56d1539cc41ceee8b06b6a2d6258b2732ac4088de9",
        "dump_step000003_p.rwz":
            "c4097c9fbbe23cc90c155958f0e7d0d060493376584f98ef99e458c0bbe1a6fe",
    },
}


class TestRecordedDiagnosticDumpDigests:
    """Every step's diagnostics and both dump files of a whole run end in
    the bytes they had when the collect was NumPy column passes -- on either
    kernel path, in every rank."""

    @pytest.mark.parametrize("ranks, backend", [(1, "sim"), (2, "procs")])
    def test_three_step_run_that_records_and_dumps_every_step(
            self, ranks, backend, tmp_path, resource_ledger, kernel_path):
        digests, kernels = _diagnostics_and_dumps(ranks, backend, tmp_path)
        assert kernels == [kernel_path] * ranks
        assert digests == DIAG_DUMP_DIGESTS[(ranks, backend)]


def _ref_cell_pressure(field):
    """p and ke of every cell as the column passes computed them: each
    quantity converted to float64 whole, then the expression forms."""
    rho, ru, rv, rw, E, G, P = (field[..., q].astype(np.float64)
                                for q in range(NQ))
    with np.errstate(all="ignore"):
        return (pressure(rho, ru, rv, rw, E, G, P),
                0.5 * (ru ** 2 + rv ** 2 + rw ** 2) / rho)


def _equal_nan_by_position(a, b):
    """``bytes_equal`` where NaNs count by position only: two kernels need
    not keep the same one of two NaN operands."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and bytes_equal(np.where(nan, 0.0, a), np.where(nan, 0.0, b)))


class TestCellPressureRouting:
    """p and ke per cell on either kernel path, whatever the dtype and
    layout -- only contiguous storage-precision data can enter the
    library: the bytes of the column passes they replaced, in no more
    memory than the result and one slab."""

    @staticmethod
    def _field():
        # planes of 16 x 17 cells: slabs of 30, 10 on the NumPy path
        return make_smooth_aos((40, 16, 17), make_rng(12), dtype=np.float32)

    LAYOUTS = {
        "contiguous": lambda f: f,
        "float64": lambda f: f.astype(np.float64),
        "wall_axis0": lambda f: f[:1],
        "wall_axis2": lambda f: f[:, :, -1:],
        "strided": lambda f: f[::2, :, 1:],
        "cells": lambda f: f.reshape(-1, NQ),
        "one_cell": lambda f: f[3, 4, 5],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_every_layout_gives_the_column_passes_bytes(self, layout,
                                                        kernel_path):
        field = self.LAYOUTS[layout](self._field())
        # results of other values, freed just before: a cell left
        # unwritten would show their bytes
        cell_pressure(2 * field, kinetic=True)
        p, ke = cell_pressure(field, kinetic=True)
        want_p, want_ke = _ref_cell_pressure(field)
        assert bytes_equal(p, want_p) and bytes_equal(ke, want_ke)
        assert bytes_equal(pressure_field(field), want_p)
        assert cell_pressure(field)[1] is None

    def test_what_is_not_an_aos_field(self):
        for bad in (np.zeros((4, 5), np.float32), np.zeros((), np.float32)):
            with pytest.raises(ValueError, match="AoS"):
                cell_pressure(bad)

    def test_peak_memory_is_the_result_and_one_slab(self, kernel_path):
        field = make_smooth_aos((64, 64, 64), make_rng(64), dtype=np.float32)
        pressure_field(field[:1])  # the library loaded, if there is one
        tracemalloc.start()
        try:
            p = pressure_field(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.nbytes == 8 * 64 ** 3
        assert peak <= 1.25 * p.nbytes + 8 * STREAM_ELEMENTS, peak


def _specials(Upad, seed, values):
    """Plant ``values`` at random cells of random quantities of a padded
    state, in place."""
    rng = make_rng(seed)
    flat = Upad.reshape(-1)
    at = rng.choice(flat.size, size=4 * len(values), replace=False)
    flat[at] = np.tile(values, 4)
    return Upad


def _as_pads(Upad):
    """The storage-precision AoS pad ``(mz, my, mx, NQ)`` of an SoA box."""
    return np.ascontiguousarray(np.moveaxis(Upad, 0, -1), dtype=np.float32)


class _CountingLibrary:
    """Stands in for the loaded library and counts what is asked of it."""

    def __init__(self):
        self.asked = []

    def __getattr__(self, name):
        self.asked.append(name)
        raise AssertionError(f"ineligible call entered the library: {name}")


@pytest.mark.skipif(
    native.lib is None,
    reason=f"no compiled kernels: {native.status()['reason']}")
class TestNativeBitIdentity:
    """The compiled kernels against the NumPy kernels they stand in for:
    same calls, once with ``native.lib`` loaded and once with it ``None``,
    ``tobytes()``-equal."""

    @staticmethod
    def _both(monkeypatch, call):
        """``(compiled, numpy)`` results of ``call()``."""
        assert native.lib is not None
        with np.errstate(all="ignore"):
            compiled = call()
            with monkeypatch.context() as patch:
                patch.setattr(native, "lib", None)
                fallback = call()
        return compiled, fallback

    def _check_rhs(self, monkeypatch, Upad, h=0.02, **kw):
        got, want = self._both(
            monkeypatch, lambda: compute_rhs(Upad, h, **kw))
        assert bytes_equal(got, want)
        pads = _as_pads(Upad)
        got, want = self._both(
            monkeypatch, lambda: rhs_kernel(pads, h, **kw))
        assert got.dtype == np.float64
        assert bytes_equal(got, want)

    @pytest.mark.parametrize("interior", [
        (8, 8, 8), (8, 16, 16), (16, 16, 16), (16, 16, 32), (32, 32, 32),
        (24, 8, 40),
    ])
    def test_box_matrix(self, monkeypatch, interior):
        self._check_rhs(monkeypatch,
                        _padded_state(interior, seed=sum(interior)))

    @pytest.mark.parametrize("interior", [
        (3, 22, 14), (14, 3, 22), (22, 14, 3), (1, 1, 1), (2, 70, 65),
    ])
    def test_anisotropic_interiors_put_every_normal_on_every_axis(
            self, monkeypatch, interior):
        # Also rows longer than one chunk of lanes (70, 65 > 64).
        self._check_rhs(monkeypatch,
                        _padded_state(interior, seed=sum(interior)))

    @pytest.mark.parametrize("values", [
        (0.0, -0.0), (np.inf, -np.inf), (np.nan,), (5e-324, -1e-310, 1e-40),
        (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 3e38),
    ], ids=["zeros", "inf", "nan", "subnormal", "all"])
    @pytest.mark.parametrize("interior", [(8, 16, 24), (16, 16, 16)])
    def test_signed_zeros_infinities_nans_and_subnormals(
            self, monkeypatch, interior, values):
        Upad = _specials(_padded_state(interior, seed=interior[1]),
                         interior[0], values)
        self._check_rhs(monkeypatch, Upad)

    def test_identically_zero_region(self, monkeypatch):
        # Conserved zeros: 0 / 0 in CONV, every face of the region NaN.
        Upad = _padded_state((8, 8, 16), seed=21)
        Upad[:, 4:9, 3:12, 13:16] = 0.0
        self._check_rhs(monkeypatch, Upad)
        # Primitive zeros: a span that is not positive between finite
        # (zero) fluxes -- the per-face fallback to the average.
        monkeypatch.setattr(equations, "conserved_to_primitive",
                            lambda U, out: np.copyto(out, U))
        Wpad = conserved_to_primitive(_padded_state((8, 8, 16), seed=22))
        Wpad[:, 2:11, 6:9, :] = 0.0
        got, want = self._both(monkeypatch, lambda: compute_rhs(Wpad, 0.02))
        assert bytes_equal(got, want)
        assert np.isfinite(got[:, :, 4, :]).any()

    def test_uniform_state_is_positive_zero_everywhere(self, monkeypatch):
        Upad = _padded_state((8, 16, 8), seed=0, kind="uniform")
        assert bytes_equal(compute_rhs(Upad, 0.01), np.zeros((NQ, 8, 16, 8)))
        self._check_rhs(monkeypatch, Upad, h=0.01)

    def test_supersonic(self, monkeypatch):
        self._check_rhs(
            monkeypatch, _padded_state((8, 8, 16), seed=5, kind="supersonic"))

    def test_held_workspace_across_shapes(self, monkeypatch):
        ws = SweepWorkspace()
        for interior in ((8, 16, 24), (6, 6, 300), (24, 24, 24), (8, 8, 8)):
            self._check_rhs(monkeypatch, _padded_state(interior, seed=7),
                            workspace=ws)

    def test_out_arrays_of_either_kind(self, monkeypatch):
        Upad = _padded_state((8, 16, 24), seed=33)
        pads = _as_pads(Upad)
        want = rhs_kernel(pads, 0.1)
        # one array, an array the result reshapes to (as the node layer's:
        # the cells of a box of 1 x 2 x 3 blocks where they lie in its RHS
        # array, split by block), a strided destination (both staged by
        # NumPy, swept by the library)
        whole = np.empty((8, 16, 24, NQ))
        assert rhs_kernel(pads, 0.1, out=whole) is whole
        slots = np.empty((1, 2, 3, 8, 8, 8, NQ))
        split = slots.transpose(0, 3, 1, 4, 2, 5, 6)
        assert rhs_kernel(pads, 0.1, out=split) is split
        strided = np.empty((8, 16, 24, 2 * NQ))[..., ::2]
        rhs_kernel(pads, 0.1, out=strided)
        for got in (whole, split.reshape(whole.shape), strided):
            assert bytes_equal(got, want)
        with pytest.raises(ValueError):
            rhs_kernel(pads, 0.1, out=np.empty((8, 16, 12, NQ)))
        soa = np.empty((2, NQ, 8, 16, 24))[1]
        assert bytes_equal(compute_rhs(Upad, 0.1, out=soa),
                           compute_rhs(Upad, 0.1))

    # -- UP ---------------------------------------------------------------

    STAGES = [(st.a, st.b) for st in LowStorageRK3.stages]

    @staticmethod
    def _check_update(u, res, rhs, a, b, dt):
        want_u, want_res = u.copy(), res.copy()
        with np.errstate(all="ignore"):
            _ref_update_stage(want_u, want_res, rhs, a, b, dt)
            update_stage(u, res, rhs, a, b, dt)
        assert bytes_equal(u, want_u)
        assert bytes_equal(res, want_res)

    @pytest.mark.parametrize("stage", range(3))
    @pytest.mark.parametrize("shape", [
        (8, 8, 8, NQ), (32, 32, 32, NQ), (5, 9, 6, NQ), (5, 8, 8, 8, NQ),
    ])
    def test_update_stage_against_the_expression_form(self, shape, stage):
        a, b = self.STAGES[stage]
        assert self.STAGES[0][0] == 0.0  # a = 0 still multiplies
        for specials in (False, True):
            u, res, rhs = _up_operands(shape, seed=stage, specials=specials)
            self._check_update(u, res, rhs, a, b, 0.25)

    # -- SOS --------------------------------------------------------------

    @pytest.mark.parametrize("num_blocks, n", TestStreamedSosBitIdentity.GRIDS)
    def test_max_sos_with_a_nan_in_every_position(self, monkeypatch,
                                                  num_blocks, n):
        grid = _sos_grid(num_blocks, n, seed=n)
        blocks = list(grid.blocks.values())
        solver = NodeSolver(grid)
        data = [b.data for b in blocks]
        got, want = self._both(monkeypatch, solver.max_sos)
        assert got == want == max(_ref_sos(d) for d in data)
        assert sos_kernel(grid.state) == want
        for k in sorted({0, len(blocks) - 1, *range(1, len(blocks), 7)}):
            for cell in ((0, 0, 0), (n - 1, k % n, (3 * k) % n),
                         (n - 1, n - 1, n - 1)):
                for q in (RHO, RHOV, ENERGY, PI):
                    saved = data[k][cell].copy()
                    data[k][cell][q] = np.nan
                    assert np.isnan(solver.max_sos()), (k, cell, q)
                    data[k][cell] = saved
        assert solver.max_sos() == want

    # -- FWT / IWT / DEC --------------------------------------------------

    def _check_wavelet(self, monkeypatch, data, levels,
                       stencils=wavelet.STENCILS):
        """``lift_batch`` forward and inverse and ``decimate_batch`` of
        ``data``, on both executors."""
        for inverse in (False, True):
            def lifted():
                c = data.copy()
                lift_batch(c, levels, inverse=inverse, stencils=stencils)
                return c
            got, want = self._both(monkeypatch, lifted)
            assert bytes_equal(got, want), (levels, inverse)
        assert levels == 0 or not bytes_equal(want, data)
        coeffs = fwt3d(data, levels)
        scale = float(np.nanmedian(np.abs(coeffs)))
        for eps, guaranteed in ((0.0, True), (scale, True), (scale, False)):
            def decimated():
                c = coeffs.copy()
                return c, decimate_batch(c, levels, eps, guaranteed)
            (got, got_stats), (want, want_stats) = self._both(
                monkeypatch, decimated)
            assert bytes_equal(got, want), (levels, eps, guaranteed)
            assert got_stats == want_stats
        assert levels == 0 or sum(s.zeroed for s in want_stats) > 0

    @staticmethod
    def _wavelet_batch(shape, dtype, seed):
        """Values over six decades, so that sums round."""
        rng = make_rng(seed)
        return (rng.normal(size=shape) * 10.0 ** rng.uniform(
            -3, 3, size=(shape[0], 1, 1, 1))).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, count", [(8, 17), (16, 2), (32, 1)])
    def test_wavelet_batch_sample(self, monkeypatch, n, count, dtype):
        data = self._wavelet_batch((count, n, n, n), dtype, seed=n)
        for levels in (0, max_levels(n)):
            self._check_wavelet(monkeypatch, data, levels)

    @pytest.mark.tier2
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_wavelet_batch_matrix(self, monkeypatch, n, dtype):
        data = self._wavelet_batch((17, n, n, n), dtype, seed=n + 1)
        for levels in range(max_levels(n) + 1):
            for count in (1, 2, 7, 17):
                self._check_wavelet(monkeypatch, data[:count], levels)
        self._check_wavelet(monkeypatch, np.abs(data[:3]), max_levels(n),
                            stencils=wavelet._STENCILS_ABS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wavelet_anisotropic_batch_and_absolute_stencils(
            self, monkeypatch, dtype):
        data = self._wavelet_batch((2, 8, 16, 32), dtype, seed=3)
        for levels in (0, 1):
            self._check_wavelet(monkeypatch, data, levels)
        self._check_wavelet(monkeypatch, np.abs(data), 1,
                            stencils=wavelet._STENCILS_ABS)
        tall = self._wavelet_batch((3, 32, 8, 16), dtype, seed=4)
        self._check_wavelet(monkeypatch, tall, 1)

    #: Level-2 slots of a 16-sample axis: coarse, detail, both boundaries.
    SLOTS = [(0, 0, 0), (2, 1, 3), (1, 9, 2), (15, 15, 15), (3, 0, 15),
             (7, 8, 4)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", [
        (np.nan,), (np.inf, -np.inf), (-0.0, 0.0), (5e-324, -1e-310, 1e-42),
    ], ids=["nan", "inf", "zeros", "subnormal"])
    def test_wavelet_specials_in_coarse_detail_and_boundary_slots(
            self, monkeypatch, values, dtype):
        # One kind a batch: the NaN a lifting step makes of an infinity
        # (inf - inf, 0 * inf: the sign bit set) is not the NaN planted
        # here, and which of two NaNs an addition keeps is the operand
        # order of the machine instruction -- NumPy's own vector body and
        # scalar tail disagree about it.  Where two kinds meet, below.
        data = self._wavelet_batch((3, 16, 16, 16), dtype, seed=5)
        for k, slot in enumerate(self.SLOTS):
            data[(k % 2,) + slot] = values[k % len(values)]
        data[2, 8:] = values[0]
        for levels in (1, 2):
            self._check_wavelet(monkeypatch, data, levels)

    def test_wavelet_mixed_nans_agree_up_to_the_payload(self, monkeypatch):
        data = self._wavelet_batch((2, 16, 16, 16), np.float32, seed=6)
        for k, slot in enumerate(self.SLOTS):
            data[(k % 2,) + slot] = (np.nan, np.inf, -np.inf)[k % 3]
        for inverse in (False, True):
            def lifted():
                c = data.copy()
                lift_batch(c, 2, inverse=inverse)
                return c
            got, want = self._both(monkeypatch, lifted)
            hole = np.isnan(want)
            assert hole.any() and not hole.all()
            assert np.array_equal(np.isnan(got), hole)
            assert bytes_equal(got[~hole], want[~hole])

    @pytest.mark.parametrize("bs", [8, 16, 32])
    @pytest.mark.parametrize("streams", [1, 3])
    def test_compress_and_decompress_on_both_executors(self, monkeypatch,
                                                       bs, streams):
        fld = _dump_field((32, 64, 32))
        comp = WaveletCompressor(eps=1e-2, block_size=bs,
                                 num_threads=streams)

        def cycle():
            cf = comp.compress(fld)
            return (cf.payload, cf.stats.decimation, comp.decompress(cf))
        got, want = self._both(monkeypatch, cycle)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert bytes_equal(got[2], want[2])

    def test_threshold_is_compared_in_the_datas_precision(self, monkeypatch):
        """What ``guaranteed`` means at the threshold: ``t`` is rounded to
        float32 before it meets float32 coefficients."""
        t = 0.1  # float32 cannot represent it: float32(0.1) > 0.1
        t32 = np.float32(t)
        assert float(t32) > t
        below, above = (np.nextafter(t32, np.float32(s) * np.inf)
                        for s in (-1, 1))
        assert float(below) < t

        def decimated(values, dtype, eps):
            c = np.zeros((1, 8, 8, 8), dtype=dtype)
            c[0, 4:, 4:, 4:8] = np.resize(np.asarray(values, dtype), (4, 4, 4))
            stats = decimate_batch(c, 1, eps, guaranteed=False)
            return c[0, 4:, 4:, 4:8].ravel()[:len(values)], stats[0].zeroed

        for call, want in [
            # float32: [t, float32(t)) is empty of float32 values, the
            # compare is `< float32(t)`: t32 itself stays, its lower
            # neighbour (below t as well) goes
            (lambda: decimated([below, t32, above, -t32, -below],
                               np.float32, t), [0, t32, above, -t32, 0]),
            # float64: compared in double, float32(t) as a double is kept
            (lambda: decimated([t, float(t32), np.nextafter(t, 0), -t],
                               np.float64, t), [t, float(t32), 0, -t]),
            # eps = 0: nothing is smaller
            (lambda: decimated([0.0, -0.0, 5e-324, t], np.float64, 0.0),
             [0.0, -0.0, 5e-324, t]),
        ]:
            (got, got_n), (ref, ref_n) = self._both(monkeypatch, call)
            assert bytes_equal(got, ref) and got_n == ref_n
            assert bytes_equal(got, np.asarray(want, dtype=got.dtype))
        # zeros that were there count as zeroed (t fills 4^3 slots, the
        # coarse corner another 4^3); eps = 0 zeroes none
        assert decimated([t], np.float64, 0.0)[1] == 0
        assert decimated([t], np.float64, t)[1] == 8**3 - 2 * 4**3

    # -- what never enters the library ------------------------------------

    def test_other_wavelet_inputs_never_enter_the_library(self, monkeypatch):
        wide = self._wavelet_batch((2, 8, 8, 16), np.float64, seed=9)
        # today's results, of contiguous copies (through the library)
        want = fwt3d(wide[..., ::2], 1)
        want_dec = want.copy()
        want_stats = decimate_batch(want_dec, 1, 0.5)
        assert sum(s.zeroed for s in want_stats) > 0
        monkeypatch.setattr(native, "lib", _CountingLibrary())
        strided = wide.copy()[..., ::2]
        lift_batch(strided, 1)
        assert bytes_equal(strided, want)
        assert decimate_batch(strided, 1, 0.5) == want_stats
        assert bytes_equal(strided, want_dec)
        for other in (np.int32, np.float16):
            with pytest.raises(TypeError):
                lift_batch(want.astype(other), 1)
        # decimation never asked for a float: any dtype, NumPy's way
        ints = np.arange(2 * 8**3).reshape(2, 8, 8, 8)
        assert [s.zeroed for s in decimate_batch(
            ints, 1, 100.0, guaranteed=False)] == [100 - 2 * 4 * 4, 0]
        half = want.astype(np.float16)
        decimate_batch(half, 1, 0.5, guaranteed=False)
        assert half.dtype == np.float16 and (half == 0).sum() > 0
        assert native.lib.asked == []

    # -- p and ke per cell: the collect of a dump and of diagnostics -----

    @staticmethod
    def _cell_fields(shape, seed):
        """A smooth storage-precision field and copies with 0, -0, +-inf
        and NaN in rho, E and Gamma: each value alone, then all at once."""
        rng = make_rng(seed)
        base = make_smooth_aos(shape, rng, dtype=np.float32)
        values = (0.0, -0.0, np.inf, -np.inf, np.nan)
        fields = [base]
        for q in (RHO, ENERGY, GAMMA):
            for value in values:
                field = base.copy()
                field.reshape(-1, NQ)[rng.integers(base.size // NQ, size=3),
                                      q] = value
                fields.append(field)
        mixed = base.copy()
        for q in (RHO, ENERGY, GAMMA):
            at = rng.integers(base.size // NQ, size=len(values))
            mixed.reshape(-1, NQ)[at, q] = values
        return fields + [mixed]

    @pytest.mark.parametrize("shape", [
        (1, 1, 1), (8, 8, 8), (5, 17, 33), (64, 64, 8),
    ])
    def test_cell_pressure_with_zeros_infinities_and_nans(self, monkeypatch,
                                                          shape):
        for field in self._cell_fields(shape, seed=sum(shape)):
            got, want = self._both(
                monkeypatch, lambda: cell_pressure(field, kinetic=True))
            for compiled, fallback, ref in zip(got, want,
                                               _ref_cell_pressure(field)):
                assert _equal_nan_by_position(compiled, fallback)
                assert _equal_nan_by_position(compiled, ref)
            p, ke = cell_pressure(field)
            assert ke is None and bytes_equal(p, got[0])

    @pytest.mark.parametrize("wall", [None, (0, -1), (2, 1)])
    def test_rank_diagnostics_on_either_path(self, monkeypatch, wall):
        field = make_smooth_aos((16, 12, 20), make_rng(3), dtype=np.float32)
        got, want = self._both(
            monkeypatch, lambda: rank_diagnostics(field, 0.01, wall))
        assert got == want == {
            "max_pressure": max_pressure(field),
            "wall_max_pressure": (-np.inf if wall is None
                                  else wall_max_pressure(field, *wall)),
            "kinetic_energy": kinetic_energy(field, 0.01),
            "vapor_volume": vapor_volume(field, 0.01),
        }

    @pytest.mark.parametrize("scheme", [
        dict(order=3), dict(solver="hllc"), dict(fused=True),
    ])
    def test_ablation_schemes_never_enter_the_library(self, monkeypatch,
                                                      scheme):
        Upad = _padded_state((8, 8, 16), seed=1)
        pads = _as_pads(Upad)
        want = compute_rhs(Upad, 0.02, **scheme)
        monkeypatch.setattr(native, "lib", _CountingLibrary())
        assert bytes_equal(compute_rhs(Upad, 0.02, **scheme), want)
        rhs_kernel(pads, 0.02, **scheme)
        rhs_kernel(pads, 0.02, out=np.empty((8, 8, 16, NQ)), **scheme)
        assert native.lib.asked == []

    def test_other_dtypes_and_layouts_never_enter_the_library(
            self, monkeypatch):
        Upad = _padded_state((8, 8, 16), seed=2)
        monkeypatch.setattr(native, "lib", _CountingLibrary())
        assert compute_rhs(Upad.astype(np.float32), 0.02).dtype == np.float32
        compute_rhs(Upad, 0.02, out=np.empty((NQ, 8, 8, 32))[..., ::2])
        # a float32 RHS; a strided block and float64 data for SOS
        u, res, rhs = _up_operands((8, 8, 8, NQ), seed=8)
        update_stage(u, res, rhs.astype(np.float32), -0.4, 0.7, 1e-3)
        grid = _sos_grid((1, 1, 2), 8, seed=4)
        data = grid.blocks[(0, 0, 1)].data
        sos_kernel(data[::2, :, 1:])
        sos_kernel(data.astype(np.float64))
        # float64 and strided fields, a wall layer off the first axis
        field = make_smooth_aos((4, 6, 8), make_rng(5), dtype=np.float32)
        for other in (field.astype(np.float64), field[::2], field[:, :, :1]):
            cell_pressure(other, kinetic=True)
        assert native.lib.asked == []


def _box_grid(num_blocks, n, seed):
    """A rank of rough two-material cells (``_padded_state``'s cloud)."""
    grid = BlockGrid(num_blocks, n, h=0.05)
    U = _padded_state(tuple(c - 6 for c in grid.cells), seed)
    grid.from_array(np.moveaxis(U, 0, -1).astype(np.float32))
    return grid


def _face_provider(grid, faces, seed):
    """A ghost provider as the cluster layer's: one received buffer per
    face in ``faces``, a view of it per block face, ``None`` elsewhere."""
    n = grid.block_size
    buffers = {}
    for k, (axis, side) in enumerate(faces):
        U = _padded_state(tuple(c - 6 for c in grid.cells), seed + k)
        cut = [slice(None)] * 3
        cut[axis] = slice(0, 3)
        buffers[axis, side] = np.ascontiguousarray(
            np.moveaxis(U, 0, -1)[tuple(cut)], dtype=np.float32)

    def provider(index, axis, side):
        if (axis, side) not in buffers:
            return None
        cut = [slice(b * n, (b + 1) * n) for b in index]
        cut[axis] = slice(None)
        return buffers[axis, side][tuple(cut)]

    return provider


def _block_lists(grid):
    """What ``evaluate_rhs`` is handed: every block, the interior and the
    halo shell of the cluster layer's split, a shuffled subset, a list
    with holes."""
    blocks = list(grid.sfc_blocks())
    interior = [b for b in blocks if all(
        0 < i < m - 1 for i, m in zip(b.index, grid.num_blocks))]
    order = make_rng(len(blocks)).permutation(len(blocks))
    lists = {
        "all": None, "interior": interior,
        "shell": [b for b in blocks if b not in interior],
        "shuffled": [blocks[k] for k in order[:2 * len(blocks) // 3]],
        "holes": blocks[::2],
    }
    return {name: lst for name, lst in lists.items() if lst != []}


_FACES = [(axis, side) for axis in range(3) for side in (-1, 1)]
_BOUNDARIES = {
    "extrapolate": BoundarySpec.all_extrapolate(),
    "periodic": BoundarySpec.all_periodic(),
    **{f"wall{axis}{side:+d}": BoundarySpec.wall_at(axis, side)
       for axis, side in _FACES},
}


class TestBoxBitIdentity:
    """``evaluate_rhs`` gathers boxes of neighbouring blocks, sweeps each
    as one block and scatters: whatever the box cap, whichever executor
    runs the plan (``native.lib`` loaded, where there is one, and
    ``None``), every block gets the bytes of the per-block oracle --
    ``padded_aos`` + interior + ``fill_block_ghosts`` on the six face
    slabs + ``rhs_kernel``.  The cap is monkeypatched (for both executors
    at once; "shipped" is each one's own): a test seam, not an option."""

    @staticmethod
    def _oracle(grid, boundary, provider):
        g, want = GHOSTS, {}
        for idx, block in grid.blocks.items():
            pad = padded_aos(grid.block_size)
            pad[g:-g, g:-g, g:-g] = block.data
            fill_block_ghosts(pad, grid, block, boundary, provider)
            want[idx] = rhs_kernel(pad, grid.h)
        return want

    def _check(self, monkeypatch, grid, boundary, provider=None, caps=None,
               lists=None, libs=None):
        n = grid.block_size
        caps = caps or {"block": (n,) * 3, "16": (16,) * 3,
                        "shipped": None, "rank": grid.cells}
        lists = lists or _block_lists(grid)
        libs = libs or sorted({None, native.lib}, key=id)
        with np.errstate(all="ignore"):
            want = self._oracle(grid, boundary, provider)
            for (name, cap), lib in itertools.product(caps.items(), libs):
                with monkeypatch.context() as patch:
                    if cap is not None:  # else what each executor ships
                        patch.setattr(node_solver, "BOX_CELLS", cap)
                        patch.setattr(node_solver, "NUMPY_BOX_CELLS", cap)
                    patch.setattr(native, "lib", lib)
                    solver = NodeSolver(grid, boundary=boundary,
                                        dispatcher=Dispatcher(num_workers=1))
                    for which, blocks in lists.items():
                        got = solver.evaluate_rhs(blocks, provider)
                        assert list(got) == [b.index for b in (
                            blocks or grid.sfc_blocks())]
                        for idx, rhs in got.items():
                            assert bytes_equal(rhs, want[idx]), (
                                name, lib is None, which, idx)

    @pytest.mark.parametrize("num_blocks, n, boundaries", [
        ((4, 4, 4), 8, ("extrapolate", "periodic", "wall0-1")),
        ((4, 2, 2), 8, tuple(_BOUNDARIES)),
        ((3, 3, 3), 8, ("extrapolate", "periodic", "wall1+1", "wall2-1")),
        ((1, 1, 5), 8, ("extrapolate", "periodic", "wall2+1")),
        ((2, 2, 2), 16, ("extrapolate", "periodic", "wall0+1")),
    ])
    def test_every_cap_on_both_executors(self, monkeypatch, num_blocks, n,
                                         boundaries):
        grid = _box_grid(num_blocks, n, seed=n + sum(num_blocks))
        for name in boundaries:
            self._check(monkeypatch, grid, _BOUNDARIES[name])

    def test_paper_blocks_are_boxes_of_one(self, monkeypatch):
        """... until the cap is the rank (NumPy on the shipped cap only:
        a second of sweeps a box)."""
        grid = _box_grid((2, 2, 2), 32, seed=32)
        lists = {"all": None, "holes": list(grid.sfc_blocks())[::2]}
        self._check(monkeypatch, grid, _BOUNDARIES["wall0-1"], lists=lists,
                    libs=[native.lib], caps={
                        "shipped": None, "rank": grid.cells})
        self._check(monkeypatch, grid, _BOUNDARIES["periodic"], libs=[None],
                    lists={"all": None},
                    caps={"shipped": None})

    @pytest.mark.parametrize("mask", range(1, 64, 3))
    def test_a_remote_provider_on_a_subset_of_faces(self, monkeypatch, mask):
        """Every face subset between this case and the next two (the
        remaining faces take the boundary condition, whatever it is)."""
        grid = _box_grid((4, 2, 2), 8, seed=4)
        for m in range(mask, min(mask + 3, 64)):
            faces = [face for k, face in enumerate(_FACES) if m >> k & 1]
            boundary = list(_BOUNDARIES.values())[m % 3]
            self._check(
                monkeypatch, grid, boundary,
                provider=_face_provider(grid, faces, seed=m),
                caps={"shipped": None, "rank": grid.cells},
                lists={k: v for k, v in _block_lists(grid).items()
                       if k in ("all", "shell", "holes")})

    def test_a_provider_of_another_layout_is_staged(self, monkeypatch):
        """float64 slabs, slabs to broadcast, strided values: copied into
        storage precision on the way into the plan."""
        grid = _box_grid((2, 2, 2), 8, seed=5)
        inner = _face_provider(grid, _FACES, seed=6)

        def provider(index, axis, side):
            slab = inner(index, axis, side)
            if axis == 0:
                return slab.astype(np.float64).astype(np.float32, order="F")
            if axis == 1:
                return np.repeat(slab, 2, axis=-1)[..., ::2]
            return slab[:1, :1, :1]

        self._check(monkeypatch, grid, _BOUNDARIES["extrapolate"], provider)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.0, 1e-42],
                             ids=["nan", "inf", "-0", "subnormal"])
    @pytest.mark.parametrize("cell", [
        (5, 5, 5),      # interior of block (0, 0, 0)
        (16, 3, 4),     # first layer of the second shipped box: the
                        # first one's ghost
        (3, 7, 4),      # at a block seam inside a box
        (0, 2, 15),     # read by the boundary condition too
    ], ids=["interior", "box-face", "seam", "rank-face"])
    def test_specials_in_a_cell(self, monkeypatch, cell, value):
        grid = _box_grid((4, 2, 2), 8, seed=9)
        field = grid.to_array()
        for q, name in ((RHO, "wall0-1"), (RHOW, "periodic"),
                        (ENERGY, "wall0-1")):
            planted = field.copy()
            planted[cell + (q,)] = value
            grid.from_array(planted)
            self._check(monkeypatch, grid, _BOUNDARIES[name],
                        lists={"all": None}, caps={
                            "shipped": None,
                            "rank": grid.cells})


def _oracle_fwt3d(block, levels):
    """Expression-form forward transform of one block: ``fwt1d_level``
    along x, y, z of the coarse corner through last-axis transpositions."""
    c = np.array(block, copy=True)
    nz, ny, nx = c.shape
    for _ in range(levels):
        sub = c[:nz, :ny, :nx]
        for axis in (2, 1, 0):
            view = np.swapaxes(sub, axis, 2)
            view[...] = fwt1d_level(np.ascontiguousarray(view))
        nz, ny, nx = nz // 2, ny // 2, nx // 2
    return c


def _oracle_iwt3d(coeffs, levels):
    """Expression-form inverse: ``iwt1d_level`` along z, y, x, coarse to
    fine."""
    c = np.array(coeffs, copy=True)
    for lvl in range(levels - 1, -1, -1):
        sub = c[tuple(slice(0, n >> lvl) for n in c.shape)]
        for axis in (0, 1, 2):
            view = np.swapaxes(sub, axis, 2)
            view[...] = iwt1d_level(np.ascontiguousarray(view))
    return c


def _oracle_decimate(coeffs, levels, eps, guaranteed):
    """Expression-form decimation of one block through its detail mask."""
    mask = detail_mask(coeffs.shape, levels)
    t = guaranteed_threshold(eps, coeffs.shape, levels) if guaranteed else eps
    details = coeffs[mask]
    small = np.abs(details) < t
    details[small] = 0.0
    coeffs[mask] = details
    return DecimationStats(int(mask.sum()), int(small.sum()), float(t))


def _morton_slices(shape, bs):
    """Block slices of a field in the compressor's Morton order."""
    idx = np.array([(bz, by, bx)
                    for bz in range(shape[0] // bs)
                    for by in range(shape[1] // bs)
                    for bx in range(shape[2] // bs)])
    return [tuple(slice(i * bs, (i + 1) * bs) for i in idx[k])
            for k in morton_order(idx)]


def _dump_field(shape, dtype=np.float32):
    """A bump plus hashed noise from ``+``, ``*`` and ``/`` on integers
    alone: the same bytes on every host, and both kept and zeroed
    details at ``eps = 1e-2``."""
    z, y, x = np.meshgrid(
        *(np.arange(n, dtype=np.float64) for n in shape), indexing="ij")
    bump = 1.0 / (1.0 + ((z - 11.0) ** 2 + (y - 30.0) ** 2
                         + (x - 17.0) ** 2) / 40.0)
    noise = (np.arange(z.size, dtype=np.uint64) * np.uint64(2654435761)
             % np.uint64(1 << 20)).reshape(shape)
    return (100.0 * bump + noise / float(1 << 30)).astype(dtype)


class TestBatchedWaveletBitIdentity:
    """``fwt3d`` / ``iwt3d`` of a batch = per block = the 1-D oracle, and
    the compressor's one-buffer pipeline = the per-block pipeline, byte
    for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_any_batch_size_and_level_count(self, n, dtype):
        run_full = wavelet.RUN_ELEMENTS // n**3
        rng = make_rng(n)
        # Values over six decades, so that sums round.
        data = (rng.normal(size=(run_full + 1, n, n, n))
                * 10.0 ** rng.uniform(-3, 3, size=(run_full + 1, 1, 1, 1))
                ).astype(dtype)
        for levels in range(max_levels(n) + 1):
            coeffs = np.stack([_oracle_fwt3d(b, levels) for b in data])
            back = np.stack([_oracle_iwt3d(c, levels) for c in coeffs])
            for count in (1, 2, 7, run_full, run_full + 1):
                got = fwt3d(data[:count], levels)
                assert got.dtype == dtype
                assert bytes_equal(got, coeffs[:count]), (levels, count)
                assert bytes_equal(iwt3d(coeffs[:count], levels),
                                   back[:count]), (levels, count)
            # The 3-D call is the batch of one through the same code.
            assert bytes_equal(fwt3d(data[0], levels), coeffs[0])
            assert bytes_equal(iwt3d(coeffs[0], levels), back[0])
        assert bytes_equal(fwt3d(data[:3]), coeffs[:3])  # default: deepest

    @pytest.mark.parametrize("run", [700, 4096, 40000, 1 << 22])
    def test_any_run_split(self, monkeypatch, run):
        monkeypatch.setattr(wavelet, "RUN_ELEMENTS", run)
        data = make_rng(run).normal(size=(5, 16, 16, 16)).astype(np.float32)
        coeffs = np.stack([_oracle_fwt3d(b, 2) for b in data])
        assert bytes_equal(fwt3d(data, 2), coeffs)
        assert bytes_equal(iwt3d(coeffs, 2),
                           np.stack([_oracle_iwt3d(c, 2) for c in coeffs]))

    def test_anisotropic_block_and_strided_input(self):
        data = make_rng(3).normal(size=(2, 8, 16, 32))
        for levels in (0, 1):
            coeffs = np.stack([_oracle_fwt3d(b, levels) for b in data])
            assert bytes_equal(fwt3d(data, levels), coeffs)
            assert bytes_equal(fwt3d(data[1], levels), coeffs[1])
            assert bytes_equal(iwt3d(coeffs, levels), np.stack(
                [_oracle_iwt3d(c, levels) for c in coeffs]))
        wide = make_rng(4).normal(size=(16, 16, 48)).astype(np.float32)
        assert bytes_equal(fwt3d(wide[:, :, 16:32], 2),
                           _oracle_fwt3d(wide[:, :, 16:32], 2))

    def test_signed_zeros_infinities_and_nans(self):
        data = make_rng(5).normal(size=(2, 16, 16, 16)).astype(np.float32)
        data[0, 3, 4, 5] = np.inf
        data[1, 0, 0, 0] = np.nan
        data[1, 8:] = -0.0
        data[0, :, :4] = 0.0
        with np.errstate(invalid="ignore"):
            coeffs = np.stack([_oracle_fwt3d(b, 2) for b in data])
            assert bytes_equal(fwt3d(data, 2), coeffs)
            assert bytes_equal(iwt3d(coeffs, 2), np.stack(
                [_oracle_iwt3d(c, 2) for c in coeffs]))

    def test_input_is_left_alone_and_bad_input_rejected(self):
        data = make_rng(6).normal(size=(3, 8, 8, 8))
        keep = data.copy()
        fwt3d(data, 1)
        iwt3d(data, 1)
        assert bytes_equal(data, keep)
        with pytest.raises(ValueError):
            fwt3d(data[0, 0], 1)
        with pytest.raises(ValueError):
            fwt3d(data, 2)
        with pytest.raises(ValueError):
            iwt3d(data, 2)
        with pytest.raises(TypeError):
            fwt3d(data.astype(np.int32), 1)

    def test_decimate_is_the_batch_of_one(self):
        data = make_rng(7).normal(size=(16, 16, 16)).astype(np.float32)
        for guaranteed in (True, False):
            for eps in (0.0, 0.3):
                ours, ref = fwt3d(data, 2), _oracle_fwt3d(data, 2)
                assert (decimate(ours, 2, eps, guaranteed)
                        == _oracle_decimate(ref, 2, eps, guaranteed))
                assert bytes_equal(ours, ref)

    @staticmethod
    def _reference_pipeline(fld, bs, eps, guaranteed, threads):
        """``(payload, decimation stats, restored field)`` assembled block
        by block from the oracle, per-block decimation and a list of
        blocks through the encoder."""
        levels = max_levels(bs)
        slices = _morton_slices(fld.shape, bs)
        blocks = [_oracle_fwt3d(fld[sel], levels) for sel in slices]
        stats = [_oracle_decimate(c, levels, eps, guaranteed) for c in blocks]
        encoder = StreamEncoder()
        payload, _ = encoder.encode(blocks, threads)
        restored = np.empty_like(fld)
        for sel, c in zip(slices, encoder.decode(payload, (bs,) * 3)):
            restored[sel] = _oracle_iwt3d(c, levels)
        return payload, stats, restored

    @pytest.mark.parametrize("guaranteed", [True, False])
    @pytest.mark.parametrize("threads", [1, 3, 4])
    @pytest.mark.parametrize("shape,bs", [((32, 32, 32), 16),
                                          ((16, 32, 8), 8),
                                          ((32, 64, 32), 32)])
    def test_compress_equals_the_per_block_pipeline(self, shape, bs, threads,
                                                    guaranteed):
        fld = _dump_field(shape)
        for eps in (1e-2, 0.0):
            comp = WaveletCompressor(eps=eps, block_size=bs,
                                     num_threads=threads,
                                     guaranteed=guaranteed)
            cf = comp.compress(fld)
            payload, stats, restored = self._reference_pipeline(
                fld, bs, eps, guaranteed, threads)
            assert cf.payload == payload
            assert cf.stats.decimation == stats
            assert cf.stats.dec_seconds.size == len(stats)
            assert bytes_equal(comp.decompress(cf), restored)

    def test_zerotree_equals_the_per_block_pipeline(self):
        fld = _dump_field((16, 32, 16))
        comp = WaveletCompressor(eps=1e-2, block_size=8,
                                 encoder_kind="zerotree")
        cf = comp.compress(fld)
        slices = _morton_slices(fld.shape, 8)
        blocks = [_oracle_fwt3d(fld[sel], 1) for sel in slices]
        payload, _ = comp._encode_zerotree(blocks, 1)
        assert cf.payload == payload
        assert cf.stats.decimation == []
        restored = np.empty_like(fld)
        for sel, c in zip(slices, blocks):
            coded, _ = zerotree.encode(np.asarray(c, dtype=np.float64), 1,
                                       t_stop=comp._zerotree_t_stop(1))
            restored[sel] = _oracle_iwt3d(zerotree.decode(coded, 1), 1)
        assert bytes_equal(comp.decompress(cf), restored)

    def test_seeded_dump_file_is_the_parent_commits(self, tmp_path):
        """SHA-256 recorded at the parent of the batched kernel (d99d8a7).
        The coefficient and field hashes hold anywhere; the file's only
        where deflate is the zlib the hash was taken with."""
        fld = _dump_field((32, 64, 32))
        comp = WaveletCompressor(eps=1e-2, block_size=16, num_threads=3,
                                 guaranteed=False)
        cf = comp.compress(fld)
        path = str(tmp_path / "p.rwz")
        write_compressed_parallel(SimWorld(1).comm(0), path, "p", cf)

        def sha(data):
            return hashlib.sha256(data).hexdigest()

        coeffs = comp.encoder.decode_batch(cf.payload, (16, 16, 16))
        assert sha(coeffs.tobytes()) == (
            "3035f35fcee984f2a159df885f123ece872e5f771a9937cb9a5d86aa9f7ae5e7")
        assert sum(s.zeroed for s in cf.stats.decimation) == 57729
        assert sha(read_field(path, comp).tobytes()) == (
            "dd36e1e028feac0da0c40d755eced8e17d080e03e5e9bf319edd869401c11664")
        if zlib.ZLIB_RUNTIME_VERSION == "1.2.13":
            with open(path, "rb") as f:
                assert sha(f.read()) == (
                    "36405f4297ad5d324a00064e3f70a20f1cb9b9768ef9e73673bd3774"
                    "829adf10")
            assert len(cf.payload) == 30351


class TestDtypeContracts:
    """float32 in -> float32 out (rules CP001/CP002 at runtime)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hlle_flux_preserves_dtype(self, dtype):
        W_l, W_r = _face_states(make_rng(2), dtype=dtype)
        flux, ustar = hlle_flux(W_l, W_r, 1)
        assert flux.dtype == dtype
        assert ustar.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weno5_preserves_dtype(self, dtype):
        v = (make_rng(4).normal(size=(NQ, 3, 11)) * 2.0).astype(dtype)
        for fn in (weno5, weno5_fused):
            minus, plus = fn(v)
            assert minus.dtype == dtype
            assert plus.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eos_chain_preserves_dtype(self, dtype):
        W, _ = _face_states(make_rng(6), shape=(5, 5), dtype=dtype)
        U = primitive_to_conserved(W)
        assert U.dtype == dtype
        assert conserved_to_primitive(U).dtype == dtype
        p = pressure(U[RHO], U[RHOU], U[RHOV], U[RHOW], U[ENERGY],
                     U[GAMMA], U[PI])
        assert p.dtype == dtype
        E = total_energy(W[RHO], W[RHOU], W[RHOV], W[RHOW], W[ENERGY],
                         W[GAMMA], W[PI])
        assert E.dtype == dtype
        c = sound_speed(W[RHO], W[ENERGY], W[GAMMA], W[PI])
        assert c.dtype == dtype
