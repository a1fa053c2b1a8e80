"""Distance and penetration queries between triangle meshes.

Conventions that everything downstream relies on:

* Surface contact is not an intersection. Penetration means a transversal
  surface crossing or containment, so parts resting or sliding on each
  other stay legal.
* One kernel, ``penetrates_along``, decides penetration of a mesh shifted by
  a set of offsets along an axis. ``intersects`` is its zero-offset case and
  the translational sweeps in ``relations`` are its sampled case. It
  refuses an open mesh (``mesh.unbalanced_edges``); a part's never is.
* Boxes that only touch count as disjoint wherever the question is
  penetration (``broad.interiors_overlap``): a closed solid lies in its
  box, so solids whose boxes meet in a slab of zero width have disjoint
  interiors. ``intersects`` answers False for them, and a sweep whose boxes
  touch on an axis across it is free at every offset, without the kernel.
* ``min_distance`` is exactly symmetric in its arguments and returns the
  same float as the all-pairs scan: it runs the distance kernel over the
  triangle pairs whose boxes come within a point-to-surface upper bound, in
  order of box gap, and stops once the next gap exceeds the best so far.
* Contact is decided by ``within_distance``, a threshold query equal to
  ``min_distance(a, b) <= epsilon``: a whole-box early-out, triangle pairs
  whose boxes come within epsilon, the distance kernel over those pairs in
  growing batches with early exit, and ``intersects`` last for nested solids.
  The first batch is 64 pairs, since a touching pair usually matches on its
  first candidates.
* The distance kernel, ``triangle_pair_distance_sq``, stacks the 6
  vertex-face and 18 edge-edge candidates of up to ``_STACK_PAIRS`` pairs
  into one call of each row kernel, so a batch costs a fixed, small number
  of numpy calls, and each row's arithmetic is that of its candidate alone.
* ``min_distance``, ``within_distance``, ``penetrates_along`` and its ray
  containment share one broad phase, ``broad.box_pairs``, a stream of
  candidate pairs in blocks; the early-exit scans consume it batch by
  batch, so a scan that stops early never generates the rest.
* ``penetrates_along`` checks a triangle pair only at offsets where both
  triangles can straddle each other's planes. A shift leaves the normals
  unchanged, so every vertex-to-plane distance is affine in the offset with
  one slope, and each straddle holds on one interval per pair, computed in
  closed form (``straddle.row_windows``). It is tested at the touch
  tolerance less a slack of half that tolerance, which exceeds a bound on
  the rounding gap derived there; pairs whose bound does not fit, such as
  zero or sliver normals, keep every offset at which their boxes overlap.
  Only rows on which ``proper_crossings`` is False are skipped. The pairs
  are generated and windowed batch by batch inside the early-exit crossing
  scan, so a blocked sweep generates and windows only the pairs up to its
  first crossing.
* Containment probes are computed once per mesh and kept read-only.
* All offsets of one probe lie on one line along the sweep axis, so
  containment is decided per probe by signed ray crossings
  (``rays.ray_containment``): the winding number at each offset is the
  signed count of the target's crossings above it. Rows whose probe line
  passes within ``tol`` of a projected triangle edge or vertex, and rows
  within a margin of a crossing, go to the dense ``winding_fraction``
  instead. ``tol`` is 1e-9 of (1 + the target's largest coordinate
  magnitude), far enough from the surface that ``winding_fraction``'s
  rounding cannot cross ``INSIDE_WINDING``.

All tolerances are absolute millimetres.
"""

from __future__ import annotations

import numpy as np

from . import broad, straddle
from .mesh import DegenerateMeshError, PerMesh, TriangleMesh, unbalanced_edges
from .rays import ray_containment

TOUCH_TOLERANCE_MM = 1e-9

# winding fraction above this counts as strictly inside a closed mesh
# (inside = 1, outside = 0; on the surface it is not defined, see
# winding_fraction)
INSIDE_WINDING = 0.75

# rows per narrow-phase batch; bounds the kernels' temporaries
_CHUNK_ROWS = 1 << 17

# first and largest batch of an early-exit scan, in rows or (for sweeps and
# contact) candidate pairs; batches double from the first to the largest
_FIRST_BATCH_ROWS = 1 << 12
_LAST_BATCH_ROWS = 1 << 13

# first batch of the contact scan: a touching pair's first few candidates
# are usually within epsilon already
_FIRST_CONTACT_ROWS = 1 << 6


# -- low-level kernels -------------------------------------------------------

def point_triangle_distance_sq(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Row-wise squared distance from ``points[i]`` to triangle ``triangles[i]``.

    Vectorized form of the closest-point-on-triangle region walk from
    Ericson's Real-Time Collision Detection. Each row's closest point is
    computed only in the region that holds for it; a vertex region's
    distance is the vertex distance that every row takes the minimum with.
    """
    p = np.asarray(points, dtype=np.float64)
    tri = np.asarray(triangles, dtype=np.float64)
    # corners as contiguous arrays, so that each step runs as one loop
    a, b, c = np.ascontiguousarray(tri.transpose(1, 0, 2))

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # the first region that holds: vertex a (0), vertex b (1), edge ab (2),
    # vertex c (3), edge ac (4), edge bc (5), else the face (6)
    holds = [(d1 <= 0) & (d2 <= 0), (d3 >= 0) & (d4 <= d3), (vc <= 0) & (d1 >= 0) & (d3 <= 0),
             (d6 >= 0) & (d5 <= d6), (vb <= 0) & (d2 >= 0) & (d6 <= 0),
             (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)]
    region = np.full(len(p), 6, dtype=np.int8)
    for k in range(5, -1, -1):
        region = np.where(holds[k], k, region)

    best = np.full(len(p), np.inf)

    def settle(rows: np.ndarray, closest: np.ndarray) -> None:
        diff = p[rows] - closest
        best[rows] = np.einsum("ij,ij->i", diff, diff)

    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.flatnonzero(region == 2)
        denom = d1[r] - d3[r]
        v = np.where(denom != 0, d1[r] / np.where(denom != 0, denom, 1.0), 0.0)
        settle(r, a[r] + v[:, None] * ab[r])
        r = np.flatnonzero(region == 4)
        denom = d2[r] - d6[r]
        w = np.where(denom != 0, d2[r] / np.where(denom != 0, denom, 1.0), 0.0)
        settle(r, a[r] + w[:, None] * ac[r])
        r = np.flatnonzero(region == 5)
        num = d4[r] - d3[r]
        denom = (d4[r] - d3[r]) + (d5[r] - d6[r])
        w = np.where(denom != 0, num / np.where(denom != 0, denom, 1.0), 0.0)
        settle(r, b[r] + w[:, None] * (c[r] - b[r]))
    # the face, except for degenerate slivers (total 0), whose closest
    # point falls back to vertex a
    r = np.flatnonzero(region == 6)
    total = va[r] + vb[r] + vc[r]
    r, total = r[total != 0], total[total != 0]
    settle(r, a[r] + (vb[r] / total)[:, None] * ab[r] + (vc[r] / total)[:, None] * ac[r])

    # zero-area triangles can mislead the region walk; vertex distances are
    # a free upper bound and leave non-degenerate results untouched
    for v in (a, b, c):
        dv = p - v
        best = np.minimum(best, np.einsum("ij,ij->i", dv, dv))
    return best


def _segment_segment_distance_sq(p1, q1, p2, q2) -> np.ndarray:
    """Row-wise squared distance between segments (p1,q1) and (p2,q2).

    Not symmetric in floating point; callers wanting exact symmetry take the
    min over both argument orders.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - b * b
        s = np.where(denom != 0, (b * f - c * e) / np.where(denom != 0, denom, 1.0), 0.0)
        s = np.clip(s, 0.0, 1.0)
        t = np.where(e != 0, (b * s + f) / np.where(e != 0, e, 1.0), 0.0)

        s_low = np.where(a != 0, -c / np.where(a != 0, a, 1.0), 0.0)
        s_high = np.where(a != 0, (b - c) / np.where(a != 0, a, 1.0), 0.0)
    s = np.where(t < 0, np.clip(s_low, 0.0, 1.0), s)
    s = np.where(t > 1, np.clip(s_high, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)

    c1 = p1 + s[:, None] * d1
    c2 = p2 + t[:, None] * d2
    diff = c2 - c1
    return np.einsum("ij,ij->i", diff, diff)


_EDGES = ((0, 1), (1, 2), (2, 0))

# the stacked kernel's segment rows as (p1, q1, p2, q2) indices into a
# pair's six corners, a's then b's: the 9 (edge of a, edge of b) pairs in
# the order of _EDGES x _EDGES, then the same 9 with the segments swapped
_EDGE_A = np.repeat(_EDGES, 3, axis=0).T
_EDGE_B = np.tile(_EDGES, (3, 1)).T + 3
_SEGMENT_CORNERS = np.vstack([np.hstack([_EDGE_A, _EDGE_B]), np.hstack([_EDGE_B, _EDGE_A])])

# triangle pairs per stacked kernel call: a pair makes 6 point-triangle and
# 18 segment rows, and past a few hundred pairs the larger temporaries cost
# more than the calls they save
_STACK_PAIRS = 1 << 7


def _stacked_distance_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`triangle_pair_distance_sq` of at most ``_STACK_PAIRS`` pairs,
    each kind of candidate stacked into one kernel call."""
    n = len(a)
    pair = np.stack([a, b])
    corners = pair.transpose(0, 2, 1, 3).reshape(6, n, 3)
    # vertex-face rows: a's corners against b, then b's against a
    faces = np.take(pair, [1, 1, 1, 0, 0, 0], axis=0)
    vertex_face = point_triangle_distance_sq(corners.reshape(-1, 3), faces.reshape(-1, 3, 3))
    p1, q1, p2, q2 = np.take(corners, _SEGMENT_CORNERS, axis=0).reshape(4, -1, 3)
    edge_edge = _segment_segment_distance_sq(p1, q1, p2, q2)
    return np.minimum(vertex_face.reshape(6, n).min(axis=0), edge_edge.reshape(18, n).min(axis=0))


def triangle_pair_distance_sq(tri_a: np.ndarray, tri_b: np.ndarray) -> np.ndarray:
    """Row-wise squared distance between triangle pairs.

    Exactly symmetric: the candidate set (6 vertex-face evaluations, and
    each of the 9 edge-edge pairs in both argument orders) is identical for
    both argument orders, so the float minimum is too. For properly
    crossing pairs the value is a positive overestimate; callers combine
    with :func:`proper_crossings`.

    The candidates of up to ``_STACK_PAIRS`` pairs are stacked into one
    :func:`point_triangle_distance_sq` call, 6 rows per pair, and one
    segment call, 18 rows per pair, and the minimum is taken over the
    stacked axis. Each row's arithmetic is that of its candidate alone, so
    the result is the same to the bit however the pairs are stacked.
    """
    a = np.asarray(tri_a, dtype=np.float64)
    b = np.asarray(tri_b, dtype=np.float64)
    if len(a) <= _STACK_PAIRS:
        return _stacked_distance_sq(a, b)
    return np.concatenate([_stacked_distance_sq(a[s:s + _STACK_PAIRS], b[s:s + _STACK_PAIRS])
                           for s in range(0, len(a), _STACK_PAIRS)])


def _interval_on_line(signed: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval each triangle cuts on the plane-intersection line.

    ``signed`` (n, 3): vertex distances to the other plane in mm;
    ``proj`` (n, 3): vertex projections onto the line. The cut is where the
    triangle meets the plane: vertices with ``signed`` exactly 0, and edges
    whose ends have strictly opposite signs, interpolated at 0. A vertex
    merely near a nearly parallel plane can lie far from the line.
    """
    n = len(signed)
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    on_plane = signed == 0
    for i in range(3):
        x = proj[:, i]
        lo = np.where(on_plane[:, i], np.minimum(lo, x), lo)
        hi = np.where(on_plane[:, i], np.maximum(hi, x), hi)
    for i, j in _EDGES:
        si, sj = signed[:, i], signed[:, j]
        crossing = ((si > 0) & (sj < 0)) | ((si < 0) & (sj > 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = si / np.where(crossing, si - sj, 1.0)
            x = proj[:, i] + (proj[:, j] - proj[:, i]) * frac
        lo = np.where(crossing, np.minimum(lo, x), lo)
        hi = np.where(crossing, np.maximum(hi, x), hi)
    return lo, hi


def proper_crossings(tri_a: np.ndarray, tri_b: np.ndarray,
                     tol: float = TOUCH_TOLERANCE_MM) -> np.ndarray:
    """Row-wise transversal-crossing test for triangle pairs.

    True only when both triangles straddle each other's plane strictly
    beyond ``tol`` and the segments in which each meets the other's plane
    overlap by more than ``tol`` mm along the planes' line. Coplanar
    overlap, edge touches, and vertex touches are all false: those are
    contacts, not penetrations.
    """
    a = np.asarray(tri_a, dtype=np.float64)
    b = np.asarray(tri_b, dtype=np.float64)

    na = np.cross(a[:, 1] - a[:, 0], a[:, 2] - a[:, 0])
    nb = np.cross(b[:, 1] - b[:, 0], b[:, 2] - b[:, 0])
    len_a = np.linalg.norm(na, axis=1)
    len_b = np.linalg.norm(nb, axis=1)
    valid = (len_a > 0) & (len_b > 0)
    div_a = np.where(len_a > 0, len_a, 1.0)
    div_b = np.where(len_b > 0, len_b, 1.0)

    # vertex distances to the opposite plane, in mm
    sa = np.einsum("ikj,ij->ik", a - b[:, 0][:, None, :], nb) / div_b[:, None]
    sb = np.einsum("ikj,ij->ik", b - a[:, 0][:, None, :], na) / div_a[:, None]

    straddle_a = (sa.min(axis=1) < -tol) & (sa.max(axis=1) > tol)
    straddle_b = (sb.min(axis=1) < -tol) & (sb.max(axis=1) > tol)
    mask = valid & straddle_a & straddle_b
    if not mask.any():
        return mask

    d = np.cross(na, nb)
    len_d = np.linalg.norm(d, axis=1)
    ok = len_d > 0
    d_hat = d / np.where(ok, len_d, 1.0)[:, None]
    mask &= ok

    pa = np.einsum("ikj,ij->ik", a, d_hat)
    pb = np.einsum("ikj,ij->ik", b, d_hat)
    lo_a, hi_a = _interval_on_line(sa, pa)
    lo_b, hi_b = _interval_on_line(sb, pb)
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    return mask & (overlap > tol)


def winding_fraction(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Generalized winding number of each point w.r.t. a closed surface.

    1 inside, 0 outside; robust for the multi-component watertight solids
    used here. ``corners`` is (t, 3, 3). A point exactly inside a face is
    not 0.5: that face's term is ``atan2(+-0, negative)`` = +-pi, so the
    result is 0 or 1 depending on the sign of a zero. This is why
    :func:`surface_probe_points` pulls probes inside their solid rather
    than leaving them on its surface.
    """
    pts = np.asarray(points, dtype=np.float64)
    tris = np.asarray(corners, dtype=np.float64)
    if len(pts) == 0:
        return np.zeros(0)
    out = np.zeros(len(pts))
    tri_chunk = max(1, _CHUNK_ROWS // max(len(pts), 1))
    for start in range(0, len(tris), tri_chunk):
        t = tris[start:start + tri_chunk]
        a = t[None, :, 0, :] - pts[:, None, :]
        b = t[None, :, 1, :] - pts[:, None, :]
        c = t[None, :, 2, :] - pts[:, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        det = np.einsum("ptj,ptj->pt", a, np.cross(b, c))
        denom = (la * lb * lc
                 + np.einsum("ptj,ptj->pt", a, b) * lc
                 + np.einsum("ptj,ptj->pt", b, c) * la
                 + np.einsum("ptj,ptj->pt", c, a) * lb)
        out += np.arctan2(det, denom).sum(axis=1)
    return out / (2.0 * np.pi)


# -- containment probes ------------------------------------------------------

def interior_probe_point(mesh: TriangleMesh) -> np.ndarray:
    """A point just inside the solid: largest face's centroid nudged inward."""
    corners = mesh.corners
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    normals = np.cross(e1, e2)
    areas2 = np.linalg.norm(normals, axis=1)
    idx = int(np.argmax(areas2))
    normal = normals[idx] / areas2[idx]
    centroid = corners[idx].mean(axis=0)
    depth = 1e-3 * mesh.aabb_diagonal
    return centroid - depth * normal


def surface_probe_points(mesh: TriangleMesh) -> np.ndarray:
    """Containment probes: every face centroid pulled slightly inside the
    solid, plus one deep interior point.

    The inward pull keeps probes of a surface that merely rests on another
    mesh strictly outside it (on-surface winding numbers are degenerate),
    while probes of a penetrating surface stay inside the other solid.
    """
    corners = mesh.corners
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    lengths = np.linalg.norm(normals, axis=1)
    ok = lengths > 0
    depth = 1e-6 * mesh.aabb_diagonal
    probes = corners.mean(axis=1)[ok] - depth * normals[ok] / lengths[ok, None]
    return np.vstack([probes, interior_probe_point(mesh)[None, :]])


def _read_only_probes(mesh: TriangleMesh) -> np.ndarray:
    probes = surface_probe_points(mesh)
    probes.setflags(write=False)
    return probes


# surface_probe_points of a mesh, computed once per mesh and kept read-only
_probe_points = PerMesh(_read_only_probes)


# -- penetration kernel ------------------------------------------------------

def penetrates_along(static: TriangleMesh, moving: TriangleMesh, axis: int,
                     offsets: np.ndarray) -> bool:
    """True iff ``moving``, shifted along ``axis`` by some signed offset in
    ``offsets`` (mm, any order), penetrates ``static``.

    Penetration is a transversal triangle crossing (:func:`proper_crossings`)
    or a surface/interior probe of either mesh strictly inside the other
    solid; probes also catch overlaps whose boundaries meet only along
    tangent planes. Surface contact is not penetration. No offsets, no
    penetration. Both meshes must be closed 2-cycles, as parts are: the
    callers' box culls and ray containment hold only for those, so an open
    one (:data:`softjig.mesh.unbalanced_edges`) raises
    :class:`~softjig.mesh.DegenerateMeshError`. Each triangle pair whose
    boxes overlap somewhere on the offset range is checked only at the
    offsets where they do, padded by
    1e-9 of the largest offset magnitude (:func:`softjig.straddle.box_ranges`),
    and, when a batch's ranges hold more than ``straddle.MIN_ROWS`` rows,
    where both triangles can straddle each other's planes.
    The latter is one interval per pair in closed form, tested at the touch
    tolerance less a slack of half of it; the slack exceeds a bound on the
    rounding gap to the per-row test, derived in
    :func:`softjig.straddle.row_windows`, and pairs whose bound exceeds it
    keep every box-overlap offset. Skipping the rest is exact, not
    approximate. The candidate pairs stream from
    :func:`softjig.broad.box_pairs` in batches that start at
    ``_FIRST_BATCH_ROWS`` and double up to ``_LAST_BATCH_ROWS``: each batch
    gets its box ranges, is windowed, expanded to its (pair, offset) rows
    and crossing-tested, and the scan stops at the first crossing, so a
    blocked sweep generates and windows only the pairs before it.

    Containment rows, the (probe, offset) points strictly inside the
    target's box, are decided by the signed count of the target's
    crossings of each probe's line above them
    (:func:`softjig.rays.ray_containment`), and by :func:`winding_fraction`
    where that is unsafe: for a probe line within ``tol`` of a projected
    triangle edge or vertex, and within a margin of at least
    ``tol |n| / |n[axis]|`` of a crossing, ``tol`` being 1e-9 (1 + the
    target's largest coordinate magnitude).
    """
    for mesh in (static, moving):
        if unbalanced_edges(mesh):
            raise DegenerateMeshError(f"{mesh!r} is not closed: {unbalanced_edges(mesh)} "
                                      f"directed edges do not match their reverses")
    offsets = np.sort(np.asarray(offsets, dtype=np.float64))
    if not len(offsets):
        return False
    st_lo, st_hi = static.triangle_bounds
    mv_lo, mv_hi = moving.triangle_bounds

    # broad phase: static boxes against moving boxes stretched over the range
    ext_lo = mv_lo.copy()
    ext_hi = mv_hi.copy()
    ext_lo[:, axis] += offsets[0]
    ext_hi[:, axis] += offsets[-1]
    pairs = broad.box_pairs(st_lo, st_hi, ext_lo, ext_hi)

    # per pair, the offsets at which its boxes overlap along the axis; past
    # MIN_ROWS rows in the batch, narrowed to the offsets at which both
    # triangles can straddle each other's planes
    sc, mc = static.corners, moving.corners
    for i, j in broad.batches(pairs, _FIRST_BATCH_ROWS, _LAST_BATCH_ROWS):
        lo, hi = straddle.box_ranges(static, moving, i, j, axis, offsets)
        if np.maximum(hi - lo, 0).sum() > straddle.MIN_ROWS:
            lo, hi = straddle.row_windows(static, moving, i, j, axis, offsets, lo, hi,
                                          TOUCH_TOLERANCE_MM)
        counts = np.maximum(hi - lo, 0)
        row_pair = np.repeat(np.arange(len(i)), counts)
        starts = np.cumsum(counts) - counts
        row_offset = offsets[np.arange(len(row_pair)) - starts[row_pair] + lo[row_pair]]
        for start in range(0, len(row_pair), _CHUNK_ROWS):
            rows = row_pair[start:start + _CHUNK_ROWS]
            shifted = mc[j[rows]]
            shifted[:, :, axis] += row_offset[start:start + _CHUNK_ROWS][:, None]
            if proper_crossings(sc[i[rows]], shifted).any():
                return True

    # containment: moving probes in the static solid, static probes in the
    # shifted moving solid, on the (probe, offset) grid inside the target
    # box; rays decide most rows, the winding number the rest
    other = [ax for ax in range(3) if ax != axis]
    for probes, target, sign in ((_probe_points(moving), static, 1.0),
                                 (_probe_points(static), moving, -1.0)):
        lo, hi = target.aabb
        coord = probes[:, axis][:, None] + sign * offsets[None, :]
        inside = (coord > lo[axis]) & (coord < hi[axis])
        inside &= np.all((probes[:, other] > lo[other]) & (probes[:, other] < hi[other]),
                         axis=1)[:, None]
        pi, oi = np.nonzero(inside)
        by_ray, undecided = ray_containment(target, probes, axis, pi, coord[pi, oi],
                                            _LAST_BATCH_ROWS)
        if by_ray.any():
            return True
        pi, oi = pi[undecided], oi[undecided]
        points = probes[pi]
        points[:, axis] = coord[pi, oi]
        for start in range(0, len(points), _CHUNK_ROWS):
            w = winding_fraction(points[start:start + _CHUNK_ROWS], target.corners)
            if (w > INSIDE_WINDING).any():
                return True
    return False


# -- public queries ----------------------------------------------------------

def intersects(mesh_a: TriangleMesh, mesh_b: TriangleMesh) -> bool:
    """True iff the solids overlap with positive penetration: the
    zero-offset case of :func:`penetrates_along`. Pure surface touching
    returns False, and so do solids whose boxes share no interior, touching
    boxes included: a closed solid lies in its box, so their interiors are
    disjoint (see :func:`softjig.relations.sweep_translation_is_free`).
    """
    if not broad.interiors_overlap(*mesh_a.aabb, *mesh_b.aabb):
        return False
    return penetrates_along(mesh_a, mesh_b, 0, np.zeros(1))


def _padded(mesh_a: TriangleMesh, mesh_b: TriangleMesh, distance: float) -> float:
    """``distance`` padded by 1e-9 of (``distance`` + the largest coordinate
    magnitude of either mesh), far above the distance kernel's rounding."""
    scale = float(np.abs(np.concatenate([*mesh_a.aabb, *mesh_b.aabb])).max())
    return distance + 1e-9 * (distance + scale)


def within_distance(mesh_a: TriangleMesh, mesh_b: TriangleMesh, epsilon: float) -> bool:
    """True iff ``min_distance(mesh_a, mesh_b) <= epsilon``, decided without
    computing the distance. Exactly symmetric in the meshes.

    Parts whose whole boxes are more than ``epsilon`` apart cannot touch or
    penetrate. Otherwise the triangle pairs whose boxes come within
    ``epsilon`` run through :func:`triangle_pair_distance_sq` in batches of
    ``_FIRST_CONTACT_ROWS`` (64) pairs, doubling up to ``_LAST_BATCH_ROWS``,
    stopping at the first pair within ``epsilon``; a touching pair usually
    stops in its first batch. A pair with no candidate within ``epsilon``
    runs a few more, smaller batches than from a 4,096-pair start, but the
    kernel stacks at most ``_STACK_PAIRS`` pairs per call either way, so
    its kernel calls barely grow. Failing that, the answer is
    :func:`intersects`, which covers nested solids. Boxes are padded by
    :func:`_padded`, so no pair whose computed distance is within
    ``epsilon`` is skipped.
    """
    lo_a, hi_a = mesh_a.aabb
    lo_b, hi_b = mesh_b.aabb
    reach = _padded(mesh_a, mesh_b, epsilon)
    if np.any(lo_a - reach > hi_b) or np.any(lo_b - reach > hi_a):
        return False
    ca, cb = mesh_a.corners, mesh_b.corners
    pairs = broad.box_pairs(*mesh_a.triangle_bounds, *mesh_b.triangle_bounds, reach)
    for ia, ib in broad.batches(pairs, _FIRST_CONTACT_ROWS, _LAST_BATCH_ROWS):
        if (np.sqrt(triangle_pair_distance_sq(ca[ia], cb[ib])) <= epsilon).any():
            return True
    return intersects(mesh_a, mesh_b)


def _to_triangles_sq(point: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Squared distance from one point to each triangle of ``corners``."""
    return point_triangle_distance_sq(np.broadcast_to(point, (len(corners), 3)), corners)


def min_distance(mesh_a: TriangleMesh, mesh_b: TriangleMesh) -> float:
    """Minimum distance between the surfaces; 0 when touching or overlapping.

    Any distance between two surface points bounds the result from above.
    The bound used is the smaller of two: from the corner of ``mesh_a``
    nearest ``mesh_b``'s box centre to ``mesh_b``, and from the corners of
    the ``mesh_b`` triangle nearest that corner to ``mesh_a``. The closest
    triangle pair's boxes come within the bound, padded by :func:`_padded`.
    Those pairs run through :func:`triangle_pair_distance_sq` in growing
    batches, in order of box gap, which bounds a pair's distance from
    below. The scan stops at 0 or once the next gap exceeds the best
    distance so far, padded, so the result is the all-pairs minimum to the
    last bit and exactly symmetric in the meshes. Nested solids, whose
    surfaces may be far apart, are at distance 0 by :func:`intersects`.
    """
    ca, cb = mesh_a.corners, mesh_b.corners
    points = ca.reshape(-1, 3)
    centre_b = 0.5 * (mesh_b.aabb[0] + mesh_b.aabb[1])
    start = points[np.argmin(np.einsum("ij,ij->i", points - centre_b, points - centre_b))]
    to_b = _to_triangles_sq(start, cb)
    upper_sq = min(to_b.min(), *(_to_triangles_sq(q, ca).min() for q in cb[np.argmin(to_b)]))
    lo_a, hi_a = mesh_a.triangle_bounds
    lo_b, hi_b = mesh_b.triangle_bounds
    ia, ib = broad.gather(broad.box_pairs(lo_a, hi_a, lo_b, hi_b,
                                          _padded(mesh_a, mesh_b, np.sqrt(upper_sq))))
    gap = np.maximum(np.maximum(lo_a[ia] - hi_b[ib], lo_b[ib] - hi_a[ia]), 0.0)
    gap = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    order = np.argsort(gap, kind="stable")
    best = np.inf
    for (rows,) in broad.batches([(order,)], _FIRST_BATCH_ROWS, _LAST_BATCH_ROWS):
        if best == 0.0 or gap[rows[0]] > _padded(mesh_a, mesh_b, np.sqrt(best)):
            break
        best = min(best, float(triangle_pair_distance_sq(ca[ia[rows]], cb[ib[rows]]).min()))
    if best == 0.0 or intersects(mesh_a, mesh_b):
        return 0.0
    return float(np.sqrt(best))
