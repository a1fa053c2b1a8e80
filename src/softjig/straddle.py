"""Closed-form straddle windows of triangle pairs swept along an axis.

``queries.proper_crossings`` calls a triangle pair crossing only when each
triangle straddles the other's plane by more than its tolerance. When one
triangle of the pair is shifted along an axis, that condition holds on one
interval of shifts, so :func:`row_windows` finds, per pair, the sampled
offsets at which a crossing is possible at all. ``queries.penetrates_along``
checks a pair only there.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

# the windows test straddling at the crossing tolerance less this share of
# it; the slack exceeds the rounding gap bounded in row_windows
SLACK_SHARE = 0.5

# box ranges holding at most this many rows in all are checked whole: a
# crossing test of so few rows costs less than narrowing them (measured on
# box stacks, whose sweeps hold a few hundred rows each)
MIN_ROWS = 1 << 9


def _slope_window(lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Open interval of t with ``lo < t * k < hi``, row-wise; an empty one
    comes back as ``(inf, -inf)``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p, q = lo / k, hi / k
    t_lo = np.where(k > 0, p, q)
    t_hi = np.where(k > 0, q, p)
    whole = (lo < 0) & (hi > 0)
    t_lo = np.where(k == 0, np.where(whole, -np.inf, np.inf), t_lo)
    t_hi = np.where(k == 0, np.where(whole, np.inf, -np.inf), t_hi)
    return t_lo, t_hi


def _min3(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(x[:, 0], x[:, 1]), x[:, 2])


def _max3(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(x[:, 0], x[:, 1]), x[:, 2])


def row_windows(static: TriangleMesh, moving: TriangleMesh, si: np.ndarray, mi: np.ndarray,
                axis: int, offsets: np.ndarray, tol: float,
                block: int) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate pair ``(si[p], mi[p])``, the range ``first[p]:last[p]``
    of the sorted ``offsets`` outside which ``proper_crossings`` at ``tol``
    of the static triangle and the moving one shifted along ``axis`` is
    False.

    The range keeps the offsets at which the two triangle boxes overlap
    along ``axis``, padded by 1e-9 of the largest offset magnitude, and,
    when those ranges hold more than ``MIN_ROWS`` rows in all, at which
    both triangles can straddle each other's planes. Pairs are processed in
    blocks of ``block``.

    A shift leaves both normals unchanged, so every vertex distance moves
    with one slope: ``sa_i(t) = sa_i(0) - t nb[axis]/|nb|`` for static
    vertices to the moving plane and ``sb_i(t) = sb_i(0) + t na[axis]/|na|``
    for moving vertices to the static plane. Each straddle therefore holds
    on one open interval of t, computed from the unshifted corners and
    tested at ``tol`` less a slack of ``SLACK_SHARE * tol``.

    Slack bound, with u = 2**-53, T = the largest offset magnitude, D = the
    two triangle box diagonals plus the padding (no vertex pair is farther
    apart where the boxes overlap), U = the largest axis coordinate of the
    shifted moving triangle there, and P = |e1| + |e2|, the moving
    triangle's edges from its first corner:

    * ``na`` comes from the same floats per row, so ``sb`` differs from its
      affine form only by the rounding of the shift, the subtraction and
      the dot product: at most 21u(U + D + T) over both evaluations.
    * Per row, ``nb`` comes from shifted corners. Only the axis components
      of its edges change, each by at most 2u(U + P); with the rounding of
      both cross products, each computed normal is within 2u(U + 5P)P of
      the exact one, so each unit normal is within 4u(U + 5P)P/|nb| of it.
      Over a lever of at most D this moves ``sa`` by 4uD(U + 5P)P/|nb| per
      evaluation, on top of the same 21u(U + D + T).

    Twice that sum, ``8uD(U + 5P)P/|nb| + 42u(U + D + T)``, bounds the gap
    between the affine form and the per-row test. Where it does not fit
    under the slack (a zero or sliver normal, or coordinates far from the
    origin), the pair keeps its whole box range. So every offset at which
    ``proper_crossings`` is True stays in the range. A zero slack keeps
    every box range whole.
    """
    st_lo, st_hi = static.triangle_bounds
    mv_lo, mv_hi = moving.triangle_bounds
    reach = float(np.abs(offsets).max())
    pad = 1e-9 * reach
    first = np.searchsorted(offsets, st_lo[si, axis] - mv_hi[mi, axis] - pad, side="left")
    last = np.searchsorted(offsets, st_hi[si, axis] - mv_lo[mi, axis] + pad, side="right")
    if np.maximum(last - first, 0).sum() <= MIN_ROWS:
        return first, last

    # per triangle: normals, straddle slopes and the terms of the slack bound
    sc, mc = static.corners, moving.corners
    na = np.cross(sc[:, 1] - sc[:, 0], sc[:, 2] - sc[:, 0])
    e1, e2 = mc[:, 1] - mc[:, 0], mc[:, 2] - mc[:, 0]
    nb = np.cross(e1, e2)
    len_a = np.linalg.norm(na, axis=1)
    len_b = np.linalg.norm(nb, axis=1)
    div_a = np.where(len_a > 0, len_a, 1.0)
    div_b = np.where(len_b > 0, len_b, 1.0)
    slope_a = nb[:, axis] / div_b
    slope_b = na[:, axis] / div_a
    diag_a = np.linalg.norm(st_hi - st_lo, axis=1)
    ext_b = mv_hi - mv_lo
    diag_b = np.linalg.norm(ext_b, axis=1)
    coord_a = np.maximum(np.abs(st_lo[:, axis]), np.abs(st_hi[:, axis]))
    edges = np.linalg.norm(e1, axis=1) + np.linalg.norm(e2, axis=1)

    slack = SLACK_SHARE * tol
    wide = tol - slack
    u = 2.0 ** -53
    for start in range(0, len(si), block):
        sl = slice(start, start + block)
        i, j = si[sl], mi[sl]
        a, b = sc[i], mc[j]
        sa = np.einsum("ikj,ij->ik", a - b[:, 0][:, None, :], nb[j]) / div_b[j][:, None]
        sb = np.einsum("ikj,ij->ik", b - a[:, 0][:, None, :], na[i]) / div_a[i][:, None]
        lo_a, hi_a = _slope_window(_min3(sa) + wide, _max3(sa) - wide, slope_a[j])
        lo_b, hi_b = _slope_window(wide - _max3(sb), -wide - _min3(sb), slope_b[i])

        lever = diag_a[i] + diag_b[j] + pad
        coord = coord_a[i] + ext_b[j, axis] + pad
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = (8 * u * lever * (coord + 5 * edges[j]) * edges[j] / len_b[j]
                   + 42 * u * (coord + lever + reach))
        tight = gap <= slack
        t_lo = np.where(tight, np.maximum(lo_a, lo_b), -np.inf)
        t_hi = np.where(tight, np.minimum(hi_a, hi_b), np.inf)
        first[sl] = np.maximum(first[sl], np.searchsorted(offsets, t_lo, side="right"))
        last[sl] = np.minimum(last[sl], np.searchsorted(offsets, t_hi, side="left"))
    return first, last
