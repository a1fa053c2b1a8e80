"""Closed-form straddle windows of triangle pairs swept along an axis.

``queries.proper_crossings`` calls a triangle pair crossing only when each
triangle straddles the other's plane by more than its tolerance. When one
triangle of the pair is shifted along an axis, that condition holds on one
interval of shifts. :func:`box_ranges` gives each candidate pair the sorted
offsets at which its triangle boxes overlap, and :func:`row_windows`
narrows a batch of those ranges to the offsets at which a crossing is
possible at all. ``queries.penetrates_along`` takes its candidate pairs
batch by batch from the broad-phase stream inside its early-exit scan, and
decides per batch, against ``MIN_ROWS``, whether to narrow, so a blocked
sweep windows only the pairs up to its first crossing.
"""

from __future__ import annotations

import numpy as np

from .mesh import PerMesh, TriangleMesh

# the windows test straddling at the crossing tolerance less this share of
# it; the slack exceeds the rounding gap bounded in row_windows
SLACK_SHARE = 0.5

# batches whose box ranges hold at most this many rows in all are checked
# whole: a crossing test of so few rows costs less than narrowing them
# (measured on box stacks, whose sweeps hold a few hundred rows each and
# fit in one batch)
MIN_ROWS = 1 << 9


def _triangle_terms(mesh: TriangleMesh) -> tuple[np.ndarray, ...]:
    """Per triangle: the normal ``e1 x e2``, its length, the box diagonal
    and ``|e1| + |e2|``, with ``e1``, ``e2`` the edges from the first
    corner."""
    c = mesh.corners
    e1, e2 = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
    normal = np.cross(e1, e2)
    lo, hi = mesh.triangle_bounds
    return (normal, np.linalg.norm(normal, axis=1), np.linalg.norm(hi - lo, axis=1),
            np.linalg.norm(e1, axis=1) + np.linalg.norm(e2, axis=1))


# _triangle_terms of a mesh, computed once per mesh
_terms = PerMesh(_triangle_terms)


def _reach(offsets: np.ndarray) -> float:
    """Largest magnitude of the sorted ``offsets``; 0 when there are none."""
    return float(max(abs(offsets[0]), abs(offsets[-1]))) if len(offsets) else 0.0


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


def _straddle_window(mesh: TriangleMesh, i: np.ndarray, plane: TriangleMesh, j: np.ndarray,
                     axis: int, sign: float, wide: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise open interval of shifts t over which triangle ``i[p]`` of
    ``mesh``, moved by ``sign * t`` along ``axis``, straddles the plane of
    triangle ``j[p]`` of ``plane`` by more than ``wide``."""
    normals, lengths = _terms(plane)[:2]
    normal, div = normals[j], np.where(lengths[j] > 0, lengths[j], 1.0)
    s = mesh.corners[i]
    s -= plane.corners[j, 0][:, None, :]
    s = np.einsum("ikj,ij->ik", s, normal)
    s /= div[:, None]
    lo = np.minimum(np.minimum(s[:, 0], s[:, 1]), s[:, 2])
    hi = np.maximum(np.maximum(s[:, 0], s[:, 1]), s[:, 2])
    return _slope_window(lo + wide, hi - wide, -sign * normal[:, axis] / div)


def box_ranges(static: TriangleMesh, moving: TriangleMesh, si: np.ndarray, mi: np.ndarray,
               axis: int, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate pair ``(si[p], mi[p])``, the range ``first[p]:last[p]``
    of the sorted ``offsets`` at which the static triangle's box and the
    moving one's, shifted along ``axis``, overlap along ``axis``, padded by
    1e-9 of the largest offset magnitude."""
    st_lo, st_hi = static.triangle_bounds
    mv_lo, mv_hi = moving.triangle_bounds
    pad = 1e-9 * _reach(offsets)
    first = np.searchsorted(offsets, st_lo[si, axis] - mv_hi[mi, axis] - pad, side="left")
    last = np.searchsorted(offsets, st_hi[si, axis] - mv_lo[mi, axis] + pad, side="right")
    return first, last


def row_windows(static: TriangleMesh, moving: TriangleMesh, si: np.ndarray, mi: np.ndarray,
                axis: int, offsets: np.ndarray, first: np.ndarray, last: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The box ranges ``first[p]:last[p]`` of :func:`box_ranges` for one
    batch of candidate pairs ``(si[p], mi[p])``, narrowed to the sorted
    ``offsets`` at which both triangles can straddle each other's planes.
    Outside the narrowed range, ``proper_crossings`` at ``tol`` of the
    static triangle and the moving one shifted along ``axis`` is False.
    Whether a batch is narrowed at all (more than ``MIN_ROWS`` rows in its
    box ranges) is decided by the caller per batch.

    A shift leaves both normals unchanged, so every vertex distance moves
    with one slope: ``sa_i(t) = sa_i(0) - t nb[axis]/|nb|`` for static
    vertices to the moving plane and ``sb_i(t) = sb_i(0) + t na[axis]/|na|``
    for moving vertices to the static plane. Each straddle therefore holds
    on one open interval of t, computed from the unshifted corners and
    tested at ``tol`` less a slack of ``SLACK_SHARE * tol``. The moving
    vertices are windowed against the static plane first; the static side
    is gathered only for pairs whose range is still non-empty. Narrowing in
    two steps keeps the same ranges as one, since ``searchsorted`` is
    monotone: the larger of two lower ends is the lower end of the larger.

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
    between the affine form and the per-row test. The bound depends only on
    per-triangle terms, so it is checked before either side is windowed.
    Where it does not fit under the slack (a zero or sliver normal, or
    coordinates far from the origin), the pair is windowed on neither side
    and keeps its whole box range. So every offset at which
    ``proper_crossings`` is True stays in the range. A zero slack keeps
    every box range whole.
    """
    _, _, diag_a, _ = _terms(static)
    _, len_b, diag_b, edges = _terms(moving)
    st_lo, st_hi = static.triangle_bounds
    mv_lo, mv_hi = moving.triangle_bounds
    reach = _reach(offsets)
    pad = 1e-9 * reach
    slack = SLACK_SHARE * tol
    wide = tol - slack
    u = 2.0 ** -53

    lever = diag_a[si] + diag_b[mi] + pad
    coord = (np.maximum(np.abs(st_lo[si, axis]), np.abs(st_hi[si, axis]))
             + (mv_hi[mi, axis] - mv_lo[mi, axis]) + pad)
    p = edges[mi]
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = 8 * u * lever * (coord + 5 * p) * p / len_b[mi] + 42 * u * (coord + lever + reach)

    first, last = first.copy(), last.copy()

    def narrow(rows: np.ndarray, window: tuple[np.ndarray, np.ndarray]) -> None:
        first[rows] = np.maximum(first[rows], np.searchsorted(offsets, window[0], side="right"))
        last[rows] = np.minimum(last[rows], np.searchsorted(offsets, window[1], side="left"))

    # moving vertices against the static plane, on the pairs whose bound fits
    rows = np.flatnonzero(gap <= slack)
    narrow(rows, _straddle_window(moving, mi[rows], static, si[rows], axis, 1.0, wide))
    # static vertices against the moving plane, on the pairs still in range
    rows = rows[first[rows] < last[rows]]
    narrow(rows, _straddle_window(static, si[rows], moving, mi[rows], axis, -1.0, wide))
    return first, last
