"""Fourth-order interpolating wavelets on the interval (FWT kernel).

The paper's compression scheme builds on fourth-order interpolating
(Deslauriers--Dubuc) wavelets "on the interval" (Cohen, Daubechies & Vial;
Donoho): a predict-only lifting transform whose scaling coefficients are
the even samples and whose detail coefficients are the interpolation
errors at the odd samples,

    d_k = x_{2k+1} - P4(x_{2k-2}, x_{2k}, x_{2k+2}, x_{2k+4}),

with the centered cubic weights ``(-1/16, 9/16, 9/16, -1/16)`` and
one-sided cubic stencils at the boundaries (the "on the interval"
property, which is what lets every 32^3 block be transformed as an
independent dataset).

The 3D transform is separable: 1D filtering plus x-y and x-z
transpositions, repeated per multiresolution level on the coarse corner
-- the same three substages the paper vectorizes with QPX (Section 6,
"Enhancing DLP").  Here the transposition is a strided gather that moves
the stencil axis *first*, so that every even/odd operand, every shifted
tap and every boundary slot of the filter is a contiguous slab, and the
filter runs over a batch of blocks in cache-sized runs
(:func:`lift_batch`, :data:`RUN_ELEMENTS`).  Where :mod:`repro.native`
has a compiled library a contiguous batch takes the same step in C
(row slabs for y and z, a transposing stage for x); this NumPy form is
then the fallback and the oracle, byte for byte.

Layout: one in-place-style level maps a length-``N`` axis to
``[N/2 scaling | N/2 details]``; level ``l+1`` recurses on the leading
half.  :func:`fwt3d` / :func:`iwt3d` are exact inverses (property-tested).
:func:`fwt1d_level` / :func:`iwt1d_level` are the same lifting step in
expression form along the last axis: the oracle the batched kernel is
held to, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .. import native

#: Centered Deslauriers-Dubuc 4-point prediction weights.
_W_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
#: One-sided cubic Lagrange weights predicting odd sample 1 from evens
#: 0, 2, 4, 6 (left boundary) -- right boundary uses the mirror image.
_W_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
#: L1 norm of the prediction weights: error amplification per level.
PREDICT_GAIN = float(np.abs(_W_CENTER).sum())  # = 1.25

#: Minimum even-sample count for the cubic boundary stencils.
_MIN_COARSE = 4


def max_levels(n: int) -> int:
    """Deepest multiresolution analysis applicable to an axis of ``n``.

    Each level halves the axis; the cubic interval stencils need at least
    ``2 * _MIN_COARSE`` samples before a level can be applied.
    """
    levels = 0
    while n % 2 == 0 and n >= 2 * _MIN_COARSE:
        n //= 2
        levels += 1
    return levels


def _cubic(w, e0, e1, e2, e3):
    """``((w0*e0 + w1*e1) + w2*e2) + w3*e3``: one 4-point stencil."""
    return w[0] * e0 + w[1] * e1 + w[2] * e2 + w[3] * e3


def _predict(even: np.ndarray) -> np.ndarray:
    """Cubic interpolation of the odd samples from the even samples.

    ``even`` has ``m >= 4`` samples along the last axis; returns ``m``
    predictions (one per odd slot; the boundary slots use the one-sided
    "on the interval" cubic stencils).
    """
    m = even.shape[-1]
    if m < _MIN_COARSE:
        raise ValueError(f"need >= {_MIN_COARSE} coarse samples, got {m}")
    pred = np.empty_like(even)
    # Interior: odd slot k (between evens k and k+1) for k = 1 .. m-3.
    pred[..., 1 : m - 2] = _cubic(
        _W_CENTER, even[..., 0 : m - 3], even[..., 1 : m - 2],
        even[..., 2 : m - 1], even[..., 3:m],
    )
    # Left boundary: odd slot 0 from evens 0..3 (one-sided cubic).
    pred[..., 0] = _cubic(_W_LEFT, *(even[..., k] for k in range(4)))
    # Right boundary: odd slot m-2 interpolated and slot m-1 extrapolated
    # from the last four evens (one-sided cubic stencils).
    last = [even[..., k] for k in range(m - 4, m)]
    pred[..., m - 2] = _cubic(_W_RIGHT_INNER, *last)
    pred[..., m - 1] = _cubic(_W_RIGHT_OUTER, *last)
    return pred


def _lagrange_weights(nodes, x) -> np.ndarray:
    """Lagrange interpolation weights of ``nodes`` evaluated at ``x``."""
    nodes = np.asarray(nodes, dtype=np.float64)
    w = np.empty(nodes.size)
    for i in range(nodes.size):
        others = np.delete(nodes, i)
        w[i] = np.prod((x - others) / (nodes[i] - others))
    return w


# Right-boundary stencils: odd sample sits at grid position 2k+1; the last
# interior-capable odd is between evens m-3 and m-2.  Odd slot m-2 sits at
# position 2m-3 relative to evens at 0,2,..,2m-2: use the last four evens
# (2m-8 .. 2m-2), i.e. local nodes (0,2,4,6) evaluated at 5.  Odd slot m-1
# sits at 2m-1, *beyond* the last even: a cubic Lagrange extrapolation
# there has an L1 weight norm of 6, which makes the decimation error bound
# explode multiplicatively across levels (measured amplification ~1.3e5
# for a 32^3 / 3-level transform).  We instead predict it by mirror
# (even-symmetric) extension -- the DD4 stencil applied to the reflected
# samples collapses to ``9/8 * e[m-1] - 1/8 * e[m-2]`` -- whose gain of
# 1.375 keeps the exact bound at ~88 for 32^3 / 3 levels, at the cost of
# reduced prediction order at that single boundary sample per level.
_W_RIGHT_INNER = _lagrange_weights((0.0, 2.0, 4.0, 6.0), 5.0)
_W_RIGHT_OUTER = np.array([0.0, 0.0, -1.0 / 8.0, 9.0 / 8.0])


def fwt1d_level(x: np.ndarray) -> np.ndarray:
    """One forward level along the last axis: ``[scaling | details]``.

    The last axis must be even with at least ``2 * _MIN_COARSE`` samples.
    """
    n = x.shape[-1]
    if n % 2 or n < 2 * _MIN_COARSE:
        raise ValueError(f"axis length {n} not transformable")
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., : n // 2] = even
    out[..., n // 2 :] = odd - _predict(even)
    return out


def iwt1d_level(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fwt1d_level` along the last axis."""
    n = c.shape[-1]
    if n % 2 or n < 2 * _MIN_COARSE:
        raise ValueError(f"axis length {n} not transformable")
    even = c[..., : n // 2]
    detail = c[..., n // 2 :]
    out = np.empty_like(c)
    out[..., 0::2] = even
    out[..., 1::2] = detail + _predict(even)
    return out


#: The four stencils of one lifting step -- centre, left, right inner,
#: right outer -- as python floats (a float64 scalar times a float64
#: array, whichever way it is spelled), and their magnitudes for the
#: error-bound operator of :func:`iwt3d_abs`.
STENCILS = tuple(
    tuple(float(w) for w in stencil)
    for stencil in (_W_CENTER, _W_LEFT, _W_RIGHT_INNER, _W_RIGHT_OUTER)
)
_STENCILS_ABS = tuple(tuple(abs(w) for w in stencil) for stencil in STENCILS)

#: Sub-cube elements one lifting step works on at a time: whole blocks, as
#: many as fit (at least one).  A step gathers half of them into float64
#: scratch and streams about thirty ufunc passes over three buffers of that
#: size, so a run should stay L2 resident and still amortize the per-pass
#: call cost (about 1 us) -- which is why the coarse levels, whose
#: sub-cubes are 1/8 and 1/64 of a block, take 8 and 64 times the blocks.
#: Measured on the build host (Xeon, 4 MiB L2 per core): the forward
#: transform of one 128^3 float32 pressure field (ladder seed 11) cut into
#: blocks, 21 interleaved rounds, median of the per-round time relative to
#: 64 Ki (22 / 19 / 16 ms for 32^3 / 16^3 / 8^3 blocks):
#:
#:   ======  =====  =====  =====  =====  =====  =====  =====  =====  ======
#:   block    8 Ki  16 Ki  32 Ki  48 Ki  64 Ki  96 Ki  128 Ki 256 Ki 2 Mi
#:   ======  =====  =====  =====  =====  =====  =====  =====  =====  ======
#:   32^3     1.07   0.99   0.97   0.99   1.00   1.01   1.10   1.31   1.74
#:   16^3     2.01   1.43   1.06   0.99   1.00   1.06   1.13   1.29   1.60
#:   8^3      2.10   1.46   1.13   1.01   1.00   1.03   1.08   1.27   1.51
#:   ======  =====  =====  =====  =====  =====  =====  =====  =====  ======
#:
#: (a 32^3 block is 32 Ki elements, so below that only its coarse levels
#: see the setting).  64 Ki is two 32^3 blocks at the first level, 16 at
#: the second, 128 at the third; 16 blocks of 16^3; 128 blocks of 8^3.
RUN_ELEMENTS = 65536


def blocks_per_chunk(block_shape: tuple[int, int, int]) -> int:
    """Blocks worth handing :func:`lift_batch` in one call.

    Eight runs of the first level: one level down a sub-cube has an eighth
    of the elements, so this many blocks fill a run of the second level.
    A caller that does more to the coefficients than transform them
    (decimate, scatter) works chunk by chunk to find them still in cache.
    """
    return max(1, 8 * RUN_ELEMENTS // math.prod(block_shape))


def _tree(taps, weights, out: np.ndarray, term: np.ndarray) -> None:
    """``((w0*t0 + w1*t1) + w2*t2) + w3*t3`` into ``out``: the prediction
    of :func:`_predict`, term for term, without a temporary."""
    np.multiply(taps[0], weights[0], out=out)
    for k in (1, 2, 3):
        np.multiply(taps[k], weights[k], out=term)
        np.add(out, term, out=out)


def _lift(src: np.ndarray, inverse: bool, stencils, flat: np.ndarray) -> None:
    """One lifting step along the *leading* axis of ``src``, in place.

    ``src`` is a view ``(n, ...)`` with the stencil axis moved first, so
    the even and odd samples, the shifted taps and the boundary slots are
    all slabs ``[k]`` / ``[k0:k1]`` of C-contiguous float64 scratch
    carved from ``flat``.  The evens are converted once; the prediction is
    rounded once to the data's precision before it meets the odd samples,
    exactly where the expression form assigns it into an array of the
    data's dtype.
    """
    m = src.shape[0] // 2
    shape = (m,) + src.shape[1:]
    size = math.prod(shape)
    even = flat[:size].reshape(shape)
    pred = flat[size : 2 * size].reshape(shape)
    term = flat[2 * size : 3 * size].reshape(shape)
    coarse, fine = (src[:m], src[m:]) if inverse else (src[0::2], src[1::2])
    np.copyto(even, coarse)
    center, left, right_inner, right_outer = stencils
    _tree([even[k : m - 3 + k] for k in range(4)], center,
          pred[1 : m - 2], term[: m - 3])
    _tree(even[:4], left, pred[0], term[0])
    _tree(even[m - 4 :], right_inner, pred[m - 2], term[0])
    _tree(even[m - 4 :], right_outer, pred[m - 1], term[0])
    if src.dtype == flat.dtype:
        rounded = pred
    else:
        rounded = flat[3 * size : 4 * size].view(src.dtype)[:size].reshape(shape)
        np.copyto(rounded, pred, casting="same_kind")
    if inverse:
        np.add(fine, rounded, out=rounded)
        src[0::2] = even
        src[1::2] = rounded
    else:
        np.subtract(fine, rounded, out=rounded)
        src[:m] = even
        src[m:] = rounded


#: Axis orders of a ``(B, z, y, x)`` batch with z, y or x moved first.
_AXIS_FIRST = ((1, 0, 2, 3), (2, 0, 1, 3), (3, 0, 1, 2))


def _level_runs(blocks: np.ndarray, levels: int, inverse: bool):
    """The sub-cube views ``blocks[b0:b1, :nz, :ny, :nx]`` one lifting step
    takes at a time, in the order the levels are applied: fine to coarse
    (forward) or back, each level in runs of :data:`RUN_ELEMENTS`
    elements."""
    nblocks, *block_shape = blocks.shape
    extents = [tuple(n >> lvl for n in block_shape) for lvl in range(levels)]
    for nz, ny, nx in reversed(extents) if inverse else extents:
        step = max(1, RUN_ELEMENTS // (nz * ny * nx))
        for start in range(0, nblocks, step):
            yield blocks[start : start + step, :nz, :ny, :nx]


def _lift_compiled(blocks: np.ndarray, levels: int, inverse: bool,
                   stencils) -> bool:
    """:func:`lift_batch` of a validated batch by the compiled library, if
    there is one and the batch is C-contiguous: the same tree per sample
    on one row slab of scratch (this call's own -- rank threads compress
    concurrently), the bytes of :func:`_lift`.  False: not taken."""
    lib = native.lib
    taken = lib is not None and native.addressable(blocks, blocks.dtype,
                                                   writeable=True)
    if taken:
        weights = np.array(stencils, dtype=np.float64)
        slab = np.empty(max(blocks.shape[1:3]) * blocks.shape[3])
        lib.repro_lift(blocks.ctypes.data, *blocks.shape, levels, inverse,
                       blocks.itemsize, weights.ctypes.data,
                       slab.ctypes.data)
    return taken


def lift_batch(
    blocks: np.ndarray,
    levels: int | None = None,
    inverse: bool = False,
    stencils=STENCILS,
) -> None:
    """Transform a 3D block or every block of a ``(B, nz, ny, nx)`` batch,
    in place.

    Forward: per level, filter along x, then y, then z on the coarse
    corner; the inverse undoes the levels coarse to fine, z first.  A
    single block is the batch of one; blocks never see each other, so any
    batch gives each block the bytes it gets alone.  A C-contiguous batch
    goes through the compiled library where there is one
    (:mod:`repro.native`), anything else through :func:`_lift`: the same
    bytes either way.
    """
    if blocks.ndim == 3:
        blocks = blocks[np.newaxis]
    elif blocks.ndim != 4:
        raise ValueError("expected a 3D block or a 4D batch of blocks")
    if blocks.dtype not in (np.float32, np.float64):
        raise TypeError(f"unsupported dtype {blocks.dtype}")
    deepest = min(max_levels(n) for n in blocks.shape[1:])
    if levels is None:
        levels = deepest
    elif not 0 <= levels <= deepest:
        raise ValueError(
            f"cannot apply {levels} levels to shape {blocks.shape[1:]}"
        )
    if _lift_compiled(blocks, levels, inverse, stencils):
        return
    # Half a run in each of: evens, prediction, one term, rounded copy.
    largest = max(RUN_ELEMENTS, math.prod(blocks.shape[1:]))
    flat = np.empty(2 * min(largest, blocks.size), dtype=np.float64)
    for sub in _level_runs(blocks, levels, inverse):
        for order in _AXIS_FIRST if inverse else _AXIS_FIRST[::-1]:
            _lift(sub.transpose(order), inverse, stencils, flat)


def fwt3d(data: np.ndarray, levels: int | None = None) -> np.ndarray:
    """Separable 3D forward interpolating-wavelet transform.

    Parameters
    ----------
    data:
        3D array, or a 4D batch ``(B, nz, ny, nx)`` of independent blocks;
        the block axes must support ``levels`` halvings.
    levels:
        Number of multiresolution levels (default: the deepest analysis
        the smallest axis supports).

    Returns
    -------
    Coefficient array, same shape: the ``(n/2^levels)^3`` leading corner
    of every block holds the coarse approximation, everything else is
    detail.
    """
    c = np.array(data, copy=True)
    lift_batch(c, levels)
    return c


def iwt3d(coeffs: np.ndarray, levels: int | None = None) -> np.ndarray:
    """Inverse of :func:`fwt3d` (exact reconstruction)."""
    c = np.array(coeffs, copy=True)
    lift_batch(c, levels, inverse=True)
    return c


def iwt3d_abs(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Inverse transform with absolute-valued weights.

    Applied to non-negative coefficient *magnitudes*, the result bounds
    (by the triangle inequality) the magnitude of the true inverse of any
    coefficient field dominated entrywise by ``coeffs``.  This is the
    engine of the exact decimation error bound in
    :func:`repro.compression.decimation.exact_amplification`.
    """
    c = np.array(coeffs, dtype=np.float64, copy=True)
    if (c < 0).any():
        raise ValueError("coefficient magnitudes must be non-negative")
    lift_batch(c, levels, inverse=True, stencils=_STENCILS_ABS)
    return c


def block_tiles(fld: np.ndarray, bs: int) -> np.ndarray:
    """A field whose extents are multiples of ``bs`` as ``(cz, cy, cx, bs,
    bs, bs)``: ``tiles[bz, by, bx]`` is one block (a view of a
    C-contiguous field)."""
    cz, cy, cx = (n // bs for n in fld.shape)
    return fld.reshape(cz, bs, cy, bs, cx, bs).transpose(0, 2, 4, 1, 3, 5)


def detail_mask(shape: tuple[int, int, int], levels: int) -> np.ndarray:
    """Boolean mask selecting the detail coefficients of a 3D transform."""
    mask = np.ones(shape, dtype=bool)
    corner = tuple(n // (1 << levels) for n in shape)
    mask[: corner[0], : corner[1], : corner[2]] = False
    return mask


def level_of_coefficient(shape: tuple[int, int, int], levels: int) -> np.ndarray:
    """Level index of every coefficient (0 = coarsest details).

    Coefficients in the coarse corner get level ``-1``; detail coefficients
    introduced when going from level ``l`` to ``l+1`` of the *inverse*
    transform get index ``l`` (coarse-to-fine).  Used for per-level
    decimation thresholds.
    """
    lvl = np.full(shape, -1, dtype=np.int8)
    for l_idx in range(levels):
        # Details of inverse step l_idx live in the region of the
        # (levels - l_idx)-times-halved cube minus its own coarse half.
        outer = tuple(n // (1 << (levels - 1 - l_idx)) for n in shape)
        inner = tuple(n // 2 for n in outer)
        region = lvl[: outer[0], : outer[1], : outer[2]]
        sel = region == -1
        sel[: inner[0], : inner[1], : inner[2]] = False
        region[sel] = l_idx
    # Restore the untouched coarse corner.
    corner = tuple(n // (1 << levels) for n in shape)
    lvl[: corner[0], : corner[1], : corner[2]] = -1
    return lvl
