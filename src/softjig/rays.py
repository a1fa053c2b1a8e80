"""Containment of probe points by signed ray crossings along a sweep axis.

``queries.penetrates_along`` asks whether probe points, each shifted along
one axis by any offset of a closed range, lie strictly inside a target
solid. All shifts of one probe lie on one line parallel to the axis, so
:func:`ray_containment` intersects the target with that line once per probe
and decides the whole range from the gaps between the crossings. The
target must be a closed 2-cycle, as every part's mesh is
(``parts.PartModel``); ``queries.penetrates_along`` enforces it.
"""

from __future__ import annotations

import numpy as np

from . import broad
from .mesh import TriangleMesh


def _crossings(tri: np.ndarray, q: np.ndarray, pc: np.ndarray, axis: int,
               tol: float) -> tuple[np.ndarray, ...]:
    """For candidate rows (probe ``pc[r]`` at projected point ``q[r]``,
    triangle corners ``tri[r]``): the probes of the rows within ``tol`` of a
    projected edge's line, or of the corner of an edge that projects to a
    point, then ``(probe, z*, sign, margin)`` of every other row whose probe
    line crosses the triangle."""
    u, v = (axis + 1) % 3, (axis + 2) % 3
    # edge functions of the projected candidates; E[:, k] runs from corner k
    # to corner k+1 and weighs the corner opposite it
    pu, pv = tri[:, :, u], tri[:, :, v]
    du, dv = np.roll(pu, -1, axis=1) - pu, np.roll(pv, -1, axis=1) - pv
    ru, rv = q[:, 0, None] - pu, q[:, 1, None] - pv
    edge = du * rv - dv * ru
    length = np.hypot(du, dv)
    near = np.where(length > 0, np.abs(edge) <= tol * length,
                    np.hypot(ru, rv) <= tol).any(axis=1)
    hit = ~near & ((edge > 0).all(axis=1) | (edge < 0).all(axis=1))

    # crossings of the hit triangles: coordinate, sign and margin
    edge, tri = edge[hit], tri[hit]
    area = edge.sum(axis=1)
    z = (np.roll(edge, -1, axis=1) * tri[:, :, axis]).sum(axis=1) / area
    normal = np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    span = (tri.max(axis=1) - tri.min(axis=1)).sum(axis=1) + 2 * tol
    margin = 2 * (tol * normal + 24 * 2.0 ** -53 * span ** 3) / np.abs(area)
    return pc[near], pc[hit], z, np.sign(area), margin


def ray_containment(target: TriangleMesh, points: np.ndarray, axis: int, c_lo: np.ndarray,
                    c_hi: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Per probe p, the line through ``points[p]`` along ``axis`` and the
    closed range ``[c_lo[p], c_hi[p]]`` of its ``axis`` coordinate:
    ``(at, near)``, where ``at[p]`` is a coordinate in the range at which
    the line's point is strictly inside ``target`` (winding number at least
    1), NaN where none is proven, and ``near[p]`` marks the lines that pass
    too near a projected edge to be decided. Candidates run in batches of
    ``block`` (probe, triangle) pairs and probes in blocks of ``block``
    (probe, crossing) cells. Precondition, checked by the caller: the
    target is closed (:data:`softjig.mesh.unbalanced_edges` is 0).

    The target is projected along ``axis`` onto the cyclic axes
    ``(axis+1)%3, (axis+2)%3``, where a triangle's doubled signed area is
    its normal's ``axis`` component ``n[axis]``. The triangles whose
    projected box, padded by ``tol``, holds a probe are its candidates:
    :func:`softjig.broad.box_pairs` of the probe's line, a box unbounded
    along ``axis``, and the triangles' boxes padded by ``tol``.
    Three 2-D edge functions E say whether the probe's line passes through
    a candidate; as barycentric weights they also give the ``axis``
    coordinate z* where it does, and its sign s = sign(n[axis]).

    As every directed edge of the target occurs as often as its reverse,
    the edges of its triangles cancel: a closed, consistently wound
    surface, or a union of such surfaces welded along shared edges or
    faces, where coincident faces of opposite orientation may remain. The
    winding number of such a closed 2-cycle is an integer off its surface.
    Along the probe's line, which passes through no projected edge or
    corner, it is constant between crossings, 0 beyond the target's box,
    and drops by s where c rises past a crossing's z*. So on the gap of
    the line above the k lowest crossings it is the signed count of the
    others, ``sum(s for the crossings above)``.

    A line is ``near`` when its probe lies within ``tol`` of the line of a
    candidate's projected edge, ``|E| <= tol * |edge|``; a triangle
    parallel to the axis projects to a segment, so a probe line within
    ``tol`` of one lands here. An edge parallel to the axis projects to a
    point, its E is 0 exactly, and it counts only for a probe within
    ``tol`` of that point: the triangle projects to a segment through it,
    or to the point alone, and is crossed by no line farther away.

    Each crossing is widened by its margin ``m = 2 (tol |n| + 24 u S^3) /
    |n[axis]|``, S being the sum of the crossed triangle's box extents plus
    ``2 tol``: with the crossings sorted by z*, the gap above the k lowest
    is pulled in to the open interval from the largest ``z* + m`` of those
    k to the least ``z* - m`` of the others. A probe is inside where such a
    gap with a winding number of at least 1 meets its range; ``at`` is the
    middle of the highest such meeting. A point within m of a crossing is
    within ``2 (tol + 24 u S^3 / |n|)`` of the crossed triangle's plane and
    counts as touching it, as in ``queries.proper_crossings``.

    Here ``tol = 1e-9 (1 + C)``, C is the largest coordinate magnitude of
    the target's box and u = 2**-53. Rounding bounds for decided lines:

    * Each E is a cross product of differences of input floats, off by at
      most 8u l S for an edge of length l. Past ``tol * l`` that is under
      8uS/tol < 6e-6 of E, so the signs, hence hit, miss and s, are exact.
    * With every weight off by at most 8u l S, z* is off by at most
      24u S^3 / |n[axis]| + 4uC. The margin m covers that twice over, and
      4uC < tol/2, so every point of a pulled-in gap has exactly the
      crossings above it that the gap has, and their signed count.
    * A triangle the line misses is more than ``tol`` from it in
      projection, hence in space; the plane of a crossed one is
      ``|c - z*| |n[axis]| / |n| > tol`` from a point of a pulled-in gap.
      So every point at which a probe is inside is more than ``tol`` from
      the target surface.
    """
    n_probes = len(points)
    at = np.full(n_probes, np.nan)
    lo, hi = target.aabb
    tol = 1e-9 * (1.0 + float(np.abs(np.concatenate([lo, hi])).max()))
    q = points[:, [(axis + 1) % 3, (axis + 2) % 3]]

    # candidates: triangles whose padded projected box holds the probe,
    # i.e. whose padded box meets the probe's line along the axis; each
    # block of them is reduced to its crossings before the next is built
    line_lo, line_hi = points.copy(), points.copy()
    line_lo[:, axis], line_hi[:, axis] = -np.inf, np.inf
    t_lo, t_hi = target.triangle_bounds
    near = np.zeros(n_probes, dtype=bool)
    found = [(np.zeros(0, dtype=np.intp),) + (np.zeros(0),) * 3]
    pairs = broad.box_pairs(line_lo, line_hi, t_lo - tol, t_hi + tol)
    for pc, tc in broad.batches(pairs, block, block):
        near_pc, *crossings = _crossings(target.corners[tc], q[pc], pc, axis, tol)
        near[near_pc] = True
        found.append(crossings)
    hp, z, sign, margin = map(np.concatenate, zip(*found))

    # each probe's crossings sorted by z* into one row of a (probes, K + 1)
    # table of (z*, s, m), padded above with crossings at +inf of sign 0
    order = np.lexsort((z, hp))
    hp = hp[order]
    counts = np.bincount(hp, minlength=n_probes)
    width = int(counts.max(initial=0)) + 1
    slot = np.arange(len(hp)) - (np.cumsum(counts) - counts)[hp]
    cross = np.zeros((3, n_probes, width))
    cross[0] = np.inf
    cross[:, hp, slot] = np.stack([z[order], sign[order], margin[order]])

    rows = max(1, block // width)
    for start in range(0, n_probes, rows):
        p = slice(start, start + rows)
        z, s, m = cross[:, p]
        lo_c, hi_c = c_lo[p, None], c_hi[p, None]
        # the gap below crossing k and above those before it, pulled in
        below = np.hstack([np.full((len(z), 1), -np.inf),
                           np.maximum.accumulate(z + m, axis=1)[:, :-1]])
        above = np.minimum.accumulate((z - m)[:, ::-1], axis=1)[:, ::-1]
        winding = np.cumsum(s[:, ::-1], axis=1)[:, ::-1]
        inside = (winding >= 1) & (below < above) & (below < hi_c) & (above > lo_c)
        mid = np.where(inside, 0.5 * (np.maximum(below, lo_c) + np.minimum(above, hi_c)), np.nan)
        at[p] = np.where(near[p], np.nan, np.fmax.reduce(mid, axis=1))
    return at, near
