"""Containment of probe points by signed ray crossings along a sweep axis.

``queries.penetrates_along`` asks whether probe points, each shifted by a
set of offsets along one axis, lie strictly inside a target solid. All
shifts of one probe lie on one line parallel to the axis, so
:func:`ray_containment` intersects the target with that line once per probe
and decides every shift on it by counting the signed crossings above it.
Rows it cannot decide safely are cast again by ``queries.penetrates_along``
along the two other axes, each point its own probe, and left to
``queries.winding_fraction`` only when no axis decides them.
The target must be a closed 2-cycle, as every part's mesh is
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


def ray_containment(target: TriangleMesh, probes: np.ndarray, axis: int,
                    probe_of_row: np.ndarray, coords: np.ndarray,
                    block: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row r, the point ``probes[probe_of_row[r]]`` with its ``axis``
    coordinate set to ``coords[r]``: ``(inside, undecided)``, where
    ``inside`` holds on decided rows whose point is strictly inside
    ``target`` (winding number at least 1) and ``undecided`` marks the rows
    left to ``winding_fraction``. Every row must lie inside the target's
    box. Candidates run in batches of ``block`` (probe, triangle) pairs and
    rows in blocks of ``block`` (row, crossing) cells. Precondition, checked
    by the caller: the target is closed (:data:`softjig.mesh.unbalanced_edges`
    is 0).

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
    winding number of such a closed 2-cycle is an integer off its surface. Along the
    probe's line, which passes through no projected edge or corner, it is
    constant between crossings, 0 beyond the target's box, and drops by s
    where c rises past a crossing's z*. So at coordinate c it is the
    signed count of crossings of the ray towards +``axis``,
    ``sum(s for z* > c)``: the integer that ``winding_fraction``
    approximates, so ``>= 1`` is its ``> INSIDE_WINDING``.

    A row is left undecided when

    * its probe lies within ``tol`` of the line of a candidate's projected
      edge, ``|E| <= tol * |edge|``; a triangle parallel to the axis
      projects to a segment, so a probe line within ``tol`` of one lands
      here. An edge parallel to the axis projects to a point, its E is 0
      exactly, and it counts only for a probe within ``tol`` of that point:
      the triangle projects to a segment through it, or to the point alone,
      and is crossed by no line farther away;
    * c lies within ``m = 2 (tol |n| + 24 u S^3) / |n[axis]|`` of one of its
      probe's crossings, S being the sum of the crossed triangle's box
      extents plus ``2 tol``.

    Here ``tol = 1e-9 (1 + C)``, C is the largest coordinate magnitude of
    the target's box and u = 2**-53. Rounding bounds for decided rows:

    * Each E is a cross product of differences of input floats, off by at
      most 8u l S for an edge of length l. Past ``tol * l`` that is under
      8uS/tol < 6e-6 of E, so the signs, hence hit, miss and s, are exact.
    * With every weight off by at most 8u l S, z* is off by at most
      24u S^3 / |n[axis]| + 4uC. The margin m covers that twice over, and
      4uC < tol/2, so the sum counts exactly the crossings above c.
    * A triangle the line misses is more than ``tol`` from it in
      projection, hence in space; the plane of a crossed one is
      ``|c - z*| |n[axis]| / |n| > tol`` from the point. So every decided
      point is more than ``tol`` from the target surface.
    * ``winding_fraction``'s term for one triangle is ``2 atan2(det, den)``
      of the corner differences a, b, c, each rounded relative to itself;
      det and den are off by at most about 20u|a||b||c|, so the term is off
      by at most 40u/sqrt(2(1 + cos θab)(1 + cos θbc)(1 + cos θca)), θxy
      being the angle that edge xy subtends at the point. The angles sum to
      at most 2π, so one factor is at least 1/2, and each other is at
      least min(1, 2h²/(|x||y|)) for h the distance to that edge. At a
      distance over ``tol`` from a triangle with no needle-thin angle
      (below about tol/C), the term is off by at most about 40u 2C/tol
      < 9e-6 rad, so over a target of fewer than 10^5 triangles the
      fraction moves by less than 0.15 from the integer and cannot cross
      ``INSIDE_WINDING``.
    """
    n_rows = len(coords)
    inside = np.zeros(n_rows, dtype=bool)
    undecided = np.ones(n_rows, dtype=bool)
    if n_rows == 0:
        return inside, undecided
    lo, hi = target.aabb
    tol = 1e-9 * (1.0 + float(np.abs(np.concatenate([lo, hi])).max()))
    u, v = (axis + 1) % 3, (axis + 2) % 3
    used, local = np.unique(probe_of_row, return_inverse=True)
    line_lo, line_hi = probes[used], probes[used].copy()
    q = line_lo[:, [u, v]]

    # candidates: triangles whose padded projected box holds the probe,
    # i.e. whose padded box meets the probe's line along the axis; each
    # block of them is reduced to its crossings before the next is built
    line_lo[:, axis], line_hi[:, axis] = -np.inf, np.inf
    t_lo, t_hi = target.triangle_bounds
    probe_near = np.zeros(len(q), dtype=bool)
    found = [(np.zeros(0, dtype=np.intp),) + (np.zeros(0),) * 3]
    pairs = broad.box_pairs(line_lo, line_hi, t_lo - tol, t_hi + tol)
    for pc, tc in broad.batches(pairs, block, block):
        near, *crossings = _crossings(target.corners[tc], q[pc], pc, axis, tol)
        probe_near[near] = True
        found.append(crossings)
    hp, z, sign, margin = map(np.concatenate, zip(*found))

    # pad each probe's crossings into one row of a (probes, K) table
    counts = np.bincount(hp, minlength=len(q))
    width = int(counts.max(initial=0))
    slot = np.arange(len(hp)) - (np.cumsum(counts) - counts)[hp]
    cross_z = np.full((len(q), width), -np.inf)
    cross_s = np.zeros((len(q), width))
    cross_m = np.zeros((len(q), width))
    cross_z[hp, slot] = z
    cross_s[hp, slot] = sign
    cross_m[hp, slot] = margin

    rows = max(1, block // max(width, 1))
    for start in range(0, n_rows, rows):
        sl = slice(start, start + rows)
        p, c = local[sl], coords[sl, None]
        winding = (cross_s[p] * (cross_z[p] > c)).sum(axis=1)
        close = (np.abs(c - cross_z[p]) <= cross_m[p]).any(axis=1)
        undecided[sl] = probe_near[p] | close
        inside[sl] = ~undecided[sl] & (winding >= 1)
    return inside, undecided
