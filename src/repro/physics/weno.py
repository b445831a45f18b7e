"""Fifth-order WENO reconstruction (Jiang & Shu 1996).

The RHS kernel reconstructs primitive quantities at cell faces with a
fifth-order Weighted Essentially Non-Oscillatory scheme -- a non-linear,
data-dependent spatial stencil (paper Section 3).  Two implementations are
provided:

* :func:`weno5` -- the production kernel, the paper's "micro-fused" WENO
  (Table 9): the arithmetic of the expression form
  :func:`_weno5_minus_raw`, element for element and bit for bit, issued
  as ``out=``-threaded passes over shared line tables (93 passes for
  both sides against 136 without the sharing);
* :func:`weno5_fused` -- a variant that also re-associates the
  arithmetic (``a - b - b`` for ``a - 2b``), equal to round-off only.

Conventions
-----------
All functions reconstruct along one axis, by default the **last**.  For an
input of length ``M`` along that axis they return reconstructions at the
``M - 5`` faces that have a full five-point stencil on the corresponding
side:

* ``minus`` (left-biased) face value at ``x_{i+1/2}`` uses cells
  ``i-2 .. i+2``;
* ``plus`` (right-biased) face value at ``x_{i+1/2}`` uses cells
  ``i-1 .. i+3``.

With three ghost cells on each side of an ``n``-cell line (padded length
``n + 6``) this yields exactly the ``n + 1`` faces the flux summation needs,
with ``minus[j]`` and ``plus[j]`` collocated at the same face.
"""

from __future__ import annotations

import math

import numpy as np

from .state import COMPUTE_DTYPE

#: Smoothness-indicator regularization of Jiang & Shu.
WENO_EPS = 1.0e-6

# Optimal (linear) weights of the three candidate stencils.
_D0, _D1, _D2 = 0.1, 0.6, 0.3

# Smoothness-indicator coefficients.
_C13 = 13.0 / 12.0


def _weno5_minus_raw(a, b, c, d, e, out=None):
    """Left-biased reconstruction at the right face of the ``c`` cell.

    ``a..e`` are the five cell averages ``v_{i-2} .. v_{i+2}``; returns the
    WENO5 approximation of ``v_{i+1/2}^-``.
    """
    is0 = _C13 * (a - 2.0 * b + c) ** 2 + 0.25 * (a - 4.0 * b + 3.0 * c) ** 2
    is1 = _C13 * (b - 2.0 * c + d) ** 2 + 0.25 * (b - d) ** 2
    is2 = _C13 * (c - 2.0 * d + e) ** 2 + 0.25 * (3.0 * c - 4.0 * d + e) ** 2

    alpha0 = _D0 / (WENO_EPS + is0) ** 2
    alpha1 = _D1 / (WENO_EPS + is1) ** 2
    alpha2 = _D2 / (WENO_EPS + is2) ** 2
    inv_sum = 1.0 / (alpha0 + alpha1 + alpha2)

    p0 = (2.0 * a - 7.0 * b + 11.0 * c) * (1.0 / 6.0)
    p1 = (-b + 5.0 * c + 2.0 * d) * (1.0 / 6.0)
    p2 = (2.0 * c + 5.0 * d - e) * (1.0 / 6.0)

    res = (alpha0 * p0 + alpha1 * p1 + alpha2 * p2) * inv_sum
    if out is not None:
        out[...] = res
        return out
    return res


def _shifted(arr: np.ndarray, axis: int, start: int, count: int) -> np.ndarray:
    """View of ``count`` entries of ``arr`` from ``start`` along ``axis``."""
    return arr[(slice(None),) * axis + (slice(start, start + count),)]


class Weno5Workspace:
    """Preallocated scratch space of :func:`weno5` / :func:`weno5_fused`.

    A workspace is keyed to the face (output) shape, the dtype and the
    stencil axis; re-creating one per call would defeat the purpose, so
    callers on the hot path hold on to one per chunk or slice shape -- the
    Python analogue of the paper's per-thread ring buffers.

    Besides nine face-shaped temporaries it owns the nine cell-shaped
    *line tables* of :func:`weno5` (``2v 3v 4v 5v 7v 11v`` and the
    smoothness terms ``S-``, ``S+``, ``Q``), together with their shifted
    views: a table entry is computed once per cell and read by every
    face whose stencil covers that cell, on both sides.  All eighteen
    arrays are carved from one flat allocation of :meth:`elements`
    entries.
    """

    def __init__(self, shape: tuple[int, ...], dtype=COMPUTE_DTYPE,
                 axis: int = -1):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.axis = axis % len(self.shape)
        nfaces = self.shape[self.axis]
        ncells = nfaces + 5
        cells = (self.shape[: self.axis] + (ncells,)
                 + self.shape[self.axis + 1:])
        buffer = np.empty(self.elements(self.shape, self.axis),
                          dtype=self.dtype)
        # Nine face-shaped buffers, then nine tables: views, every element
        # written before it is read.
        faces = buffer[:9 * math.prod(self.shape)]  # lint: disable=CL007
        self._bufs = tuple(faces.reshape((9,) + self.shape))
        tables = tuple(buffer[faces.size:].reshape((9,) + cells))
        #: ``2v, 3v, 4v, 5v, 7v, 11v`` over every cell of the line.
        self.scaled = tables[:6]
        #: ``S-``, ``S+``, ``Q`` over the cells that have both neighbours.
        self.smooth = tuple(
            _shifted(t, self.axis, 1, ncells - 2) for t in tables[6:]
        )
        #: ``2v`` over the same cells, the shared operand of ``S-``/``S+``.
        self.twice_inner = _shifted(tables[0], self.axis, 1, ncells - 2)
        #: ``taps[table][k]``: the face-shaped view of a table that starts
        #: at cell ``k`` of the six-cell stencil.
        self.taps = tuple(
            tuple(_shifted(t, self.axis, k, nfaces) for k in range(6))
            for t in tables
        )

    @staticmethod
    def elements(shape: tuple[int, ...], axis: int = -1) -> int:
        """Entries a workspace of face ``shape`` needs: nine face-shaped
        buffers and nine tables five cells longer along ``axis``."""
        faces = math.prod(shape)
        return 9 * (faces + faces // shape[axis] * (shape[axis] + 5))

    def buffers(self) -> tuple[np.ndarray, ...]:
        """The nine face-shaped scratch buffers, in unpack order."""
        return self._bufs


def _weno5_tables(v, ws):
    """Fill the line tables of ``ws`` from the cell averages ``v``.

    Every entry is the value the expression form computes at that cell:
    the scalar multiples appear verbatim in :func:`_weno5_minus_raw`, and
    its three ``13/12 (. - 2. + .)^2`` terms are one function of the
    centre cell evaluated at three shifts.  The right-biased side adds
    the outer neighbours in the opposite order, so it has its own table
    ``S+``; ``Q = 1/4 (v[i-1] - v[i+1])^2`` serves both sides because a
    difference and its negation have the same square.
    """
    x2, x3, x4, x5, x7, x11 = ws.scaled
    np.multiply(2.0, v, out=x2)
    np.multiply(3.0, v, out=x3)
    np.multiply(4.0, v, out=x4)
    np.multiply(5.0, v, out=x5)
    np.multiply(7.0, v, out=x7)
    np.multiply(11.0, v, out=x11)

    inner = v.shape[ws.axis] - 2
    lo = _shifted(v, ws.axis, 0, inner)
    hi = _shifted(v, ws.axis, 2, inner)
    s_minus, s_plus, q = ws.smooth
    np.subtract(lo, ws.twice_inner, out=s_minus)
    np.add(s_minus, hi, out=s_minus)
    np.multiply(s_minus, s_minus, out=s_minus)
    np.multiply(_C13, s_minus, out=s_minus)
    np.subtract(hi, ws.twice_inner, out=s_plus)
    np.add(s_plus, lo, out=s_plus)
    np.multiply(s_plus, s_plus, out=s_plus)
    np.multiply(_C13, s_plus, out=s_plus)
    np.subtract(lo, hi, out=q)
    np.multiply(q, q, out=q)
    np.multiply(0.25, q, out=q)


def _weno5_side(x, taps, s, a, b, c, d, e, scratch, out):
    """One biased reconstruction from the line tables, into ``out``.

    ``x`` are the six shifted views of the input and ``a..e`` the stencil
    positions of ``v_{i-2} .. v_{i+2}`` among them (``0..4`` for the
    left-biased side, ``5..1`` for its mirror image); ``s`` is the
    ``S`` table of that side.  Issues the evaluation tree of
    :func:`_weno5_minus_raw` per element, so the result is bit-identical
    to the expression form (``5c - b`` stands for ``-b + 5c``: the same
    sum for every operand that is not a NaN).
    """
    x2, x3, x4, x5, x7, x11, _, _, q = taps
    t0, t1, t2, w0, w1, w2 = scratch

    # is0 = S[b] + 1/4 (a - 4b + 3c)^2
    np.subtract(x[a], x4[b], out=t0)
    np.add(t0, x3[c], out=t0)
    np.multiply(t0, t0, out=t0)
    np.multiply(0.25, t0, out=t0)
    np.add(s[b], t0, out=w0)
    # is1 = S[c] + Q[c]
    np.add(s[c], q[c], out=w1)
    # is2 = S[d] + 1/4 (3c - 4d + e)^2
    np.subtract(x3[c], x4[d], out=t0)
    np.add(t0, x[e], out=t0)
    np.multiply(t0, t0, out=t0)
    np.multiply(0.25, t0, out=t0)
    np.add(s[d], t0, out=w2)

    # alpha_k = d_k / (eps + is_k)^2, in place
    np.add(WENO_EPS, w0, out=w0)
    np.multiply(w0, w0, out=w0)
    np.divide(_D0, w0, out=w0)
    np.add(WENO_EPS, w1, out=w1)
    np.multiply(w1, w1, out=w1)
    np.divide(_D1, w1, out=w1)
    np.add(WENO_EPS, w2, out=w2)
    np.multiply(w2, w2, out=w2)
    np.divide(_D2, w2, out=w2)

    # inv_sum = 1 / (alpha0 + alpha1 + alpha2)
    np.add(w0, w1, out=t0)
    np.add(t0, w2, out=t0)
    np.divide(1.0, t0, out=t0)

    # alpha0 p0 + alpha1 p1 + alpha2 p2, accumulated in t1
    np.subtract(x2[a], x7[b], out=t1)
    np.add(t1, x11[c], out=t1)
    np.multiply(t1, 1.0 / 6.0, out=t1)
    np.multiply(w0, t1, out=t1)
    np.subtract(x5[c], x[b], out=t2)
    np.add(t2, x2[d], out=t2)
    np.multiply(t2, 1.0 / 6.0, out=t2)
    np.multiply(w1, t2, out=t2)
    np.add(t1, t2, out=t1)
    np.add(x2[c], x5[d], out=t2)
    np.subtract(t2, x[e], out=t2)
    np.multiply(t2, 1.0 / 6.0, out=t2)
    np.multiply(w2, t2, out=t2)
    np.add(t1, t2, out=t1)
    np.multiply(t1, t0, out=out)
    return out


def _weno5_operands(v, workspace, out_minus, out_plus, axis):
    """Validated ``(workspace, out_minus, out_plus, x)`` of a WENO5 call.

    ``x`` are the six face-shaped views of ``v`` starting at cells
    ``0..5`` of the stencil axis.  A workspace whose shape, dtype or
    axis does not match the call is replaced by a fresh one.
    """
    axis = axis % max(v.ndim, 1)
    if v.ndim == 0 or v.shape[axis] < 6:
        raise ValueError(
            f"need at least 6 cells along axis {axis}, got shape {v.shape}"
        )
    nfaces = v.shape[axis] - 5
    out_shape = v.shape[:axis] + (nfaces,) + v.shape[axis + 1:]
    if (
        workspace is None
        or workspace.shape != out_shape
        or workspace.dtype != v.dtype
        or workspace.axis != axis
    ):
        workspace = Weno5Workspace(out_shape, dtype=v.dtype, axis=axis)
    if out_minus is None:
        out_minus = np.empty(out_shape, dtype=v.dtype)
    if out_plus is None:
        out_plus = np.empty(out_shape, dtype=v.dtype)
    x = (
        _shifted(v, axis, 0, nfaces),
        _shifted(v, axis, 1, nfaces),
        _shifted(v, axis, 2, nfaces),
        _shifted(v, axis, 3, nfaces),
        _shifted(v, axis, 4, nfaces),
        _shifted(v, axis, 5, nfaces),
    )
    return workspace, out_minus, out_plus, x


def weno5(
    v: np.ndarray,
    workspace: Weno5Workspace | None = None,
    out_minus: np.ndarray | None = None,
    out_plus: np.ndarray | None = None,
    axis: int = -1,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct both face states along ``axis`` (default: the last).

    Parameters
    ----------
    v:
        Array whose stencil axis holds ``M >= 6`` cell averages
        (including ghosts).
    workspace, out_minus, out_plus:
        Optional preallocated :class:`Weno5Workspace` and output arrays
        (the shape of ``v`` with ``M - 5`` along ``axis``).  Callers on
        the hot path hold these per chunk shape; passing them eliminates
        all per-call allocations.  Results are bit-identical either way.
    axis:
        The stencil axis.  The directional sweeps put it *first* after
        the quantity axis, so every shifted operand is one long
        contiguous run instead of ``M``-element rows.

    Returns
    -------
    (minus, plus):
        ``minus[..., j]`` and ``plus[..., j]`` (indexing along ``axis``)
        are the left/right-biased states at the face between cells
        ``j + 2`` and ``j + 3`` of the padded line.
    """
    workspace, out_minus, out_plus, x = _weno5_operands(
        v, workspace, out_minus, out_plus, axis
    )
    _weno5_tables(v, workspace)
    taps = workspace.taps
    scratch = workspace.buffers()[:6]
    _weno5_side(x, taps, taps[6], 0, 1, 2, 3, 4, scratch, out_minus)
    # The right-biased stencil is the mirror image of the left-biased one.
    _weno5_side(x, taps, taps[7], 5, 4, 3, 2, 1, scratch, out_plus)
    return out_minus, out_plus


def _weno5_minus_fused(a, b, c, d, e, ws: tuple[np.ndarray, ...], out: np.ndarray):
    """Fused left-biased reconstruction writing into ``out``.

    Arithmetic identical to :func:`_weno5_minus_raw`, but every temporary
    lives in the preallocated workspace and operations are issued with
    ``out=`` so no fresh allocations occur -- the NumPy analogue of the
    paper's micro-fusion (common-subexpression reuse plus fewer passes over
    memory).
    """
    t0, t1, t2, is0, is1, is2, acc, num, den = ws

    # is0 = 13/12 (a - 2b + c)^2 + 1/4 (a - 4b + 3c)^2
    np.subtract(a, b, out=t0)
    np.subtract(t0, b, out=t0)
    np.add(t0, c, out=t0)  # a - 2b + c
    np.multiply(t0, t0, out=is0)
    np.multiply(is0, _C13, out=is0)
    np.subtract(a, 4.0 * b, out=t1)  # one unavoidable temp for 4*b
    np.add(t1, 3.0 * c, out=t1)
    np.multiply(t1, t1, out=t2)
    np.multiply(t2, 0.25, out=t2)
    np.add(is0, t2, out=is0)

    # is1 = 13/12 (b - 2c + d)^2 + 1/4 (b - d)^2
    np.subtract(b, c, out=t0)
    np.subtract(t0, c, out=t0)
    np.add(t0, d, out=t0)
    np.multiply(t0, t0, out=is1)
    np.multiply(is1, _C13, out=is1)
    np.subtract(b, d, out=t1)
    np.multiply(t1, t1, out=t2)
    np.multiply(t2, 0.25, out=t2)
    np.add(is1, t2, out=is1)

    # is2 = 13/12 (c - 2d + e)^2 + 1/4 (3c - 4d + e)^2
    np.subtract(c, d, out=t0)
    np.subtract(t0, d, out=t0)
    np.add(t0, e, out=t0)
    np.multiply(t0, t0, out=is2)
    np.multiply(is2, _C13, out=is2)
    np.multiply(c, 3.0, out=t1)
    np.subtract(t1, 4.0 * d, out=t1)
    np.add(t1, e, out=t1)
    np.multiply(t1, t1, out=t2)
    np.multiply(t2, 0.25, out=t2)
    np.add(is2, t2, out=is2)

    # alphas (stored back into is0..is2)
    for isk, dk in ((is0, _D0), (is1, _D1), (is2, _D2)):
        np.add(isk, WENO_EPS, out=isk)
        np.multiply(isk, isk, out=isk)
        np.divide(dk, isk, out=isk)

    # denominator
    np.add(is0, is1, out=den)
    np.add(den, is2, out=den)

    # numerator = alpha0*p0 + alpha1*p1 + alpha2*p2
    np.multiply(a, 2.0, out=t0)
    np.subtract(t0, 7.0 * b, out=t0)
    np.add(t0, 11.0 * c, out=t0)
    np.multiply(t0, 1.0 / 6.0, out=t0)
    np.multiply(is0, t0, out=num)

    np.multiply(c, 5.0, out=t0)
    np.subtract(t0, b, out=t0)
    np.add(t0, 2.0 * d, out=t0)
    np.multiply(t0, 1.0 / 6.0, out=t0)
    np.multiply(is1, t0, out=acc)
    np.add(num, acc, out=num)

    np.multiply(c, 2.0, out=t0)
    np.add(t0, 5.0 * d, out=t0)
    np.subtract(t0, e, out=t0)
    np.multiply(t0, 1.0 / 6.0, out=t0)
    np.multiply(is2, t0, out=acc)
    np.add(num, acc, out=num)

    np.divide(num, den, out=out)
    return out


def weno5_fused(
    v: np.ndarray,
    workspace: Weno5Workspace | None = None,
    out_minus: np.ndarray | None = None,
    out_plus: np.ndarray | None = None,
    axis: int = -1,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-associated WENO5; same contract as :func:`weno5`.

    Returns ``(minus, plus)`` of the shape of ``v`` with ``M - 5`` along
    ``axis``.  Passing a :class:`Weno5Workspace` (and optionally output
    arrays) eliminates all per-call allocations.
    """
    workspace, out_minus, out_plus, x = _weno5_operands(
        v, workspace, out_minus, out_plus, axis
    )
    a, b, c, d, e, f = x
    ws = workspace.buffers()
    _weno5_minus_fused(a, b, c, d, e, ws, out_minus)
    _weno5_minus_fused(f, e, d, c, b, ws, out_plus)
    return out_minus, out_plus


def weno3(v: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Third-order WENO reconstruction (ablation baseline).

    Same calling convention as :func:`weno5` -- input of length ``M``
    along ``axis``, returning ``(minus, plus)`` with ``M - 5`` collocated
    face pairs along it -- so the RHS pipeline can swap reconstruction
    orders without re-plumbing ghosts.
    Used by the spatial-order ablation bench: the paper picks 5th order
    to cut the step count, at a stencil-size (ghost traffic) cost.
    """
    axis = axis % max(v.ndim, 1)
    if v.ndim == 0 or v.shape[axis] < 6:
        raise ValueError(
            f"need at least 6 cells along axis {axis}, got shape {v.shape}"
        )
    nfaces = v.shape[axis] - 5
    # Minus state at the face between padded cells j+2 and j+3 uses cells
    # j+1 .. j+3; plus uses j+2 .. j+4 mirrored.
    a = _shifted(v, axis, 1, nfaces)
    b = _shifted(v, axis, 2, nfaces)
    c = _shifted(v, axis, 3, nfaces)
    d = _shifted(v, axis, 4, nfaces)
    minus = _weno3_biased(a, b, c)
    plus = _weno3_biased(d, c, b)
    return minus, plus


# Expression-form on purpose: the ablation baseline is read against the
# Jiang-Shu formulas, and WENO3 is never the production reconstruction.
def _weno3_biased(a, b, c):  # lint: disable=CP003
    """WENO3 reconstruction of the right face of cell ``b`` from
    ``(a, b, c) = (v_{i-1}, v_i, v_{i+1})``."""
    is0 = (b - a) ** 2
    is1 = (c - b) ** 2
    alpha0 = (1.0 / 3.0) / (WENO_EPS + is0) ** 2
    alpha1 = (2.0 / 3.0) / (WENO_EPS + is1) ** 2
    w0 = alpha0 / (alpha0 + alpha1)
    p0 = 1.5 * b - 0.5 * a
    p1 = 0.5 * (b + c)
    return w0 * p0 + (1.0 - w0) * p1


def weno5_faces_scalar(stencil: np.ndarray) -> float:
    """Reference scalar WENO5 minus-reconstruction of a single 5-stencil.

    Used by property tests to cross-check the vectorized kernels.
    Returns the reconstructed face value as a python float.
    """
    a, b, c, d, e = (float(x) for x in stencil)
    return float(_weno5_minus_raw(a, b, c, d, e))
