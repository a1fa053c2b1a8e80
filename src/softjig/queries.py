"""Distance and penetration queries between triangle meshes.

Conventions that everything downstream relies on:

* Surface contact is not an intersection. Penetration means a transversal
  surface crossing or containment, so parts resting or sliding on each
  other stay legal.
* One kernel, ``penetrates_along``, decides penetration of a mesh shifted
  along an axis by any offset of a closed range, crossings and containment
  alike, with no sampling. ``intersects`` is its case of the single offset
  0, and the sweeps in ``relations`` run it over each sweep's range. It
  refuses an open mesh (``mesh.unbalanced_edges``); a part's never is.
* Boxes that only touch count as disjoint wherever the question is
  penetration, for whole parts and for the triangle pairs of the crossing
  scan (``broad.penetration_span`` holds the proof).
* Contact is decided by ``within_distance``, equal to ``min_distance(a, b)
  <= epsilon``. Both run the distance kernel over candidate pairs from the
  one broad phase, ``broad.box_pairs``, in growing batches; a scan that
  stops early never generates the rest. The kernel's corner rows are face
  distances; its edge rows cover the rest (``triangle_pair_distance_sq``).
* A crossing is where ``proper_crossings`` holds. ``penetrates_along``
  finds where to try it from one closed-form interval of crossing offsets
  per candidate triangle pair (``crossing_intervals``).
* Containment is decided per probe over the whole range, from the signed
  crossings of its line along the sweep axis (``rays.ray_containment``).
  The probes (``surface_probe_points``) lie inside their own solid and are
  computed once per mesh.

All tolerances are absolute millimetres.
"""

from __future__ import annotations

import numpy as np

from . import broad
from .mesh import DegenerateMeshError, PerMesh, TriangleMesh, unbalanced_edges
from .rays import ray_containment

TOUCH_TOLERANCE_MM = 1e-9

# rows per narrow-phase batch; bounds the kernels' temporaries
_CHUNK_ROWS = 1 << 17

# first and largest batch of an early-exit scan, in rows or (for sweeps and
# contact) candidate pairs; batches double from the first to the largest
_FIRST_BATCH_ROWS = 1 << 12
_LAST_BATCH_ROWS = 1 << 13

# first batch of the contact scan: a touching pair's first few candidates
# are usually within epsilon already
_FIRST_CONTACT_ROWS = 1 << 6

# first batch of the crossing scan: small enough that a blocked sweep, whose
# first crossing is usually early, computes few intervals, large enough
# that a free one makes few kernel calls
_FIRST_CROSSING_ROWS = 1 << 9


# -- low-level kernels -------------------------------------------------------

def _cross(u: np.ndarray, v: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.cross(u, v, axis=axis)``, to the bit, without its call overhead."""
    tail = (slice(None),) * (-1 - axis)   # axis counts from the end
    u0, u1, u2, v0, v1, v2 = (x[(..., k, *tail)] for x in (u, v) for k in range(3))
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=axis)


def _face_distance_sq(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Row-wise squared distance from ``points[i]`` to the plane of triangle
    ``triangles[i]`` where the point projects into its closed face; inf
    elsewhere, and for a zero-area triangle, which has no face."""
    a, b, c = np.ascontiguousarray(triangles.transpose(1, 0, 2))
    normal = _cross(b - a, c - a)
    normal_sq = np.einsum("ij,ij->i", normal, normal)
    inside = normal_sq > 0
    for p0, p1 in ((a, b), (b, c), (c, a)):
        inside &= np.einsum("ij,ij->i", _cross(p1 - p0, points - p0), normal) >= 0
    height = np.einsum("ij,ij->i", normal, points - a)
    return np.where(inside, height * height / np.where(inside, normal_sq, 1.0), np.inf)


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

# triangle pairs per stacked kernel call: a pair makes 6 face and 18
# segment rows, and past a few hundred pairs the larger temporaries cost
# more than the calls they save
_STACK_PAIRS = 1 << 7


def _stacked_distance_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`triangle_pair_distance_sq` of at most ``_STACK_PAIRS`` pairs,
    each kind of row stacked into one kernel call."""
    n = len(a)
    pair = np.stack([a, b])
    corners = pair.transpose(0, 2, 1, 3).reshape(6, n, 3)
    # face rows: a's corners against b, then b's against a
    faces = np.take(pair, [1, 1, 1, 0, 0, 0], axis=0)
    vertex_face = _face_distance_sq(corners.reshape(-1, 3), faces.reshape(-1, 3, 3))
    p1, q1, p2, q2 = np.take(corners, _SEGMENT_CORNERS, axis=0).reshape(4, -1, 3)
    edge_edge = _segment_segment_distance_sq(p1, q1, p2, q2)
    return np.minimum(vertex_face.reshape(6, n).min(axis=0), edge_edge.reshape(18, n).min(axis=0))


def triangle_pair_distance_sq(tri_a: np.ndarray, tri_b: np.ndarray) -> np.ndarray:
    """Row-wise squared distance between triangle pairs: the least of 6
    face rows (:func:`_face_distance_sq`, each corner against the other
    triangle) and 18 segment rows (the 9 edge pairs, both orders).

    Two disjoint triangles are closest at a corner v and a face point, or
    at two edge points. Where v's nearest point on the other triangle is on
    its boundary, an edge through v is as near, a segment row; so a face
    row counts only where v projects into the closed face, and a zero-area
    triangle needs none. Rounding that moves v across an edge line hands it
    to the segment rows; the tests hold the result within 1e-9 (d + C) of
    the region walk's distance d, C the largest coordinate magnitude (the
    :func:`softjig.broad.padded` margin). Crossing pairs get a positive
    overestimate; callers combine with :func:`intersects`. Both argument
    orders, and any stacking (:func:`_stacked_distance_sq`), run the same
    rows, each with its own arithmetic: the result is exactly symmetric and
    the same to the bit.
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
    # edge (i, i + 1) of each row, as columns i
    sj, pj = signed[:, [1, 2, 0]], proj[:, [1, 2, 0]]
    crossing = np.sign(signed) * np.sign(sj) < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = signed / np.where(crossing, signed - sj, 1.0)
        x = proj + (pj - proj) * frac
    points = np.hstack([proj, x])
    cut = np.hstack([signed == 0, crossing])
    return (np.where(cut, points, np.inf).min(axis=1),
            np.where(cut, points, -np.inf).max(axis=1))


def _plane_distances(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the triangle pairs ``ab[0], ab[1]`` stacked on a leading axis:
    their normals, the normals' lengths, and the distances in mm of each
    triangle's vertices to the other's plane."""
    normal = _cross(ab[:, :, 1] - ab[:, :, 0], ab[:, :, 2] - ab[:, :, 0])
    length = np.linalg.norm(normal, axis=2)
    signed = (np.einsum("sikj,sij->sik", ab - ab[::-1, :, :1], normal[::-1])
              / np.where(length > 0, length, 1.0)[::-1, :, None])
    return normal, length, signed


def _crossing_margin(tri_a: np.ndarray, tri_b: np.ndarray, tol: float) -> np.ndarray:
    """Row-wise least of the margins by which the tests of
    :func:`proper_crossings` hold, positive exactly where it is True: each
    triangle's vertices beyond ``tol`` on both sides of the other's plane,
    and the overlap of the two cuts beyond ``tol`` (computed when some row
    has cuts; -inf for a zero-area triangle or parallel planes)."""
    # both triangles of each row on a leading axis, the other's terms at [::-1]
    ab = np.stack([np.asarray(tri_a, dtype=np.float64), np.asarray(tri_b, dtype=np.float64)])
    normal, length, signed = _plane_distances(ab)
    straddle = np.minimum(-tol - signed.min(axis=2), signed.max(axis=2) - tol).min(axis=0)
    margin = np.where((length > 0).all(axis=0), straddle, -np.inf)
    if not (margin > -tol).any():
        return margin

    d = _cross(normal[0], normal[1])
    len_d = np.linalg.norm(d, axis=1)
    ok = len_d > 0
    d_hat = d / np.where(ok, len_d, 1.0)[:, None]
    lo, hi = _interval_on_line(signed.reshape(-1, 3),
                               np.einsum("sikj,ij->sik", ab, d_hat).reshape(-1, 3))
    n = len(margin)
    overlap = np.minimum(hi[:n], hi[n:]) - np.maximum(lo[:n], lo[n:])
    return np.where(ok, np.minimum(margin, overlap - tol), -np.inf)


def proper_crossings(tri_a: np.ndarray, tri_b: np.ndarray,
                     tol: float = TOUCH_TOLERANCE_MM) -> np.ndarray:
    """Row-wise transversal-crossing test for triangle pairs.

    True only when both triangles straddle each other's plane strictly
    beyond ``tol`` and the segments in which each meets the other's plane
    overlap by more than ``tol`` mm along the planes' line. Coplanar
    overlap, edge touches, and vertex touches are all false: those are
    contacts, not penetrations.
    """
    return _crossing_margin(tri_a, tri_b, tol) > 0


def _straddle_window(tri_s: np.ndarray, tri_m: np.ndarray, axis: int,
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, the open interval of offsets t at which ``tri_m`` shifted
    by t along ``axis`` and ``tri_s`` each have vertices beyond ``tol`` on
    both sides of the other's plane, up to rounding: a shift moves each
    triangle's vertex distances to the other's plane at one slope, the
    ``axis`` component of that plane's unit normal, so the four straddle
    margins of :func:`_crossing_margin` are affine in t."""
    normal, length, signed = _plane_distances(np.stack([tri_s, tri_m]))
    slope = (np.stack([-normal[1][:, axis], normal[0][:, axis]])
             / np.where(length > 0, length, 1.0)[::-1])
    below, above = signed.min(axis=2), signed.max(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rise, fall = (tol - above) / slope, (-tol - below) / slope
    spread = above - below > 2 * tol
    return (np.where(spread, np.minimum(rise, fall), np.inf).max(axis=0),
            np.where(spread, np.maximum(rise, fall), -np.inf).min(axis=0))


def _triangle_terms(mesh: TriangleMesh) -> tuple[np.ndarray, ...]:
    """Per triangle, coordinate-major (triangle index last): the corners
    ``c[p, j]``, the normal ``(c1 - c0) x (c2 - c0)``, the edges
    ``c[p + 1] - c[p]``, their lengths and the longest."""
    c = np.ascontiguousarray(mesh.corners.transpose(1, 2, 0))
    edges = c[[1, 2, 0]] - c
    edge_len = np.sqrt(np.einsum("pjk,pjk->pk", edges, edges))
    return c, np.cross(c[1] - c[0], c[2] - c[0], axis=0), edges, edge_len, edge_len.max(axis=0)


# _triangle_terms of a mesh, computed once per mesh
_terms = PerMesh(_triangle_terms)


def _narrow(lo: np.ndarray, hi: np.ndarray, rel: np.ndarray, axes: np.ndarray, axis: int,
            base: np.ndarray, bend: np.ndarray, margin: float | None,
            tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi)`` narrowed, per pair k, to the offsets t at which the
    projections on each of ``axes[:, :, k]`` of the static corners
    ``(0, rel[0], rel[1])`` and of the moving ones ``rel[2:]`` shifted by t
    along ``axis``, divided by the axis length |n|, overlap by more than
    ``margin``, or by more than the axis's rounding gap
    ``base (1 + bend / |n|)`` when ``margin`` is None. An axis whose gap
    exceeds ``tol / 2`` is left out; the third array says per pair whether
    every axis was kept. An empty interval may come back with a NaN end."""
    length = np.sqrt(np.einsum("ajk,ajk->ak", axes, axes))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = base * (1 + bend / length)
    margin = gap if margin is None else margin
    proj = np.einsum("pjk,ajk->pak", rel, axes)
    s_lo = np.minimum(np.minimum(proj[0], proj[1]), 0)
    s_hi = np.maximum(np.maximum(proj[0], proj[1]), 0)
    m_lo = np.minimum(np.minimum(proj[2], proj[3]), proj[4])
    m_hi = np.maximum(np.maximum(proj[2], proj[3]), proj[4])
    keep = gap <= 0.5 * tol
    div = np.where(keep, length, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        low = np.where(keep, (s_lo - m_hi) / div + margin, -np.inf)
        high = np.where(keep, (s_hi - m_lo) / div - margin, np.inf)
        t1, t2 = low / (axes[:, axis] / div), high / (axes[:, axis] / div)
    t_lo = np.where(low < high, np.minimum(t1, t2), np.nan)
    return (np.maximum(lo, t_lo.max(axis=0)), np.minimum(hi, np.maximum(t1, t2).min(axis=0)),
            keep.all(axis=0))


def crossing_intervals(static: TriangleMesh, moving: TriangleMesh, si: np.ndarray,
                       mi: np.ndarray, axis: int,
                       tol: float = TOUCH_TOLERANCE_MM) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate pair p, the open interval ``(lo[p], hi[p])`` of offsets
    t over which triangle ``mi[p]`` of ``moving``, shifted by t along
    ``axis``, crosses triangle ``si[p]`` of ``static``, up to rounding; it
    is empty (``lo[p] < hi[p]`` is False) when they never cross. A pair
    with a sliver or zero-area face gets its whole box window instead.

    Two triangles cross when every small enough translation keeps them
    meeting, which is what :func:`proper_crossings` tests at one offset.
    ``M + t e`` meets ``S`` iff ``t e`` lies in ``K = S - M``, the hull of
    the 9 differences ``s_i - m_j``, and crosses it iff ``t e`` lies in
    K's interior: strictly inside every facet of K. K's facet normals are
    among 11 axes, the two face normals and the 9 cross products of an edge
    of S with an edge of M (the separating-axis theorem; Ericson,
    *Real-Time Collision Detection*, ch. 5). Along an axis n the shift
    moves M's projection by ``t n[axis]`` and leaves S's, so the two
    projections overlap by more than a margin w on one open interval of t,
    with ends in closed form; the pair's interval is the intersection over
    the axes and over the window in which the triangles' boxes overlap
    along ``axis``. A zero axis, from parallel edges, bounds no facet and is
    skipped. When K is flat (coplanar triangles) its normal is a face axis,
    on which no t gives both sides a positive overlap, so coplanar contact
    and sliding never cross. The face axes run on every pair and the edge
    axes only on the pairs whose interval is still open, from terms kept
    per mesh (``_triangle_terms``).

    Margins, with u = 2**-53, L the diagonal of the box of the pair's six
    unshifted corners (it bounds every corner difference, and |t| in the
    box window), C their largest coordinate magnitude, P the longest edge
    of a face axis's triangle, and |a|, |b| the edges of an edge axis:

    * The face axes are tested at ``w = tol / 2``: each triangle straddles
      the other's plane by more than ``tol / 2``, the straddle tests of
      :func:`proper_crossings` at half its tolerance. That function
      computes the same distances from corners shifted by t, up to C + L
      in magnitude, and takes the moving normal from them: each shifted
      edge is off by at most 3u(C + L), the normal by about 8u(C + L)P and
      its unit vector by 16u(C + L)P/|n|. Over a lever of 2L, with the
      differences, dot products and the window's division, the two
      computations, and each and exact arithmetic, differ by at most
      ``gap = 64u(C + L)(1 + LP/|n|)``. Where ``gap <= tol / 2``, every
      offset at which both of its straddle tests hold is in the window, and
      the window is inside the exact one.
    * The edge axes are tested at ``w = gap = 32uL(1 + |a||b|/|n|)``. The
      computed cross product is within 11u|a||b| of the exact one, its
      unit vector within 22u|a||b|/|n|, which moves a projection over a
      lever of L by 22uL|a||b|/|n|; differences, dot products, the
      normalisation, the shift and the division add at most 10uL. So the
      window is inside the exact open one and holds every offset at which
      the exact projections overlap by more than ``2 gap``.
    * An edge axis whose gap exceeds ``tol / 2``, from nearly parallel
      edges, is dropped. The interval can only grow, so it keeps every
      offset at which the kept axes hold, and may reach offsets at which
      the exact pair only touches.
    * A face axis whose gap exceeds ``tol / 2``, from a sliver or zero-area
      triangle, leaves the pair its whole box window, padded by 4uL, which
      covers its subtractions: :func:`proper_crossings` can find such a
      pair crossing a few tolerances past the exact interval.

    So the interval lies inside the exact crossing interval, unless an edge
    axis was dropped or a face is a sliver, and holds every offset at which
    both triangles straddle each other's planes beyond ``tol`` (as
    computed by :func:`proper_crossings`) and the exact projections overlap
    along each edge axis by more than twice its gap.
    """
    u = 2.0 ** -53
    terms_s, terms_m = _terms(static), _terms(moving)
    c_s, n_s, longest_s = (np.take(x, si, axis=-1) for x in terms_s[:2] + terms_s[4:])
    c_m, n_m, longest_m = (np.take(x, mi, axis=-1) for x in terms_m[:2] + terms_m[4:])
    low = np.minimum(np.minimum.reduce(c_s), np.minimum.reduce(c_m))
    high = np.maximum(np.maximum.reduce(c_s), np.maximum.reduce(c_m))
    lever = np.sqrt(np.einsum("jk,jk->k", high - low, high - low))
    coord = np.maximum(-low, high).max(axis=0)
    pad = 4 * u * lever
    lo = c_s[:, axis].min(axis=0) - c_m[:, axis].max(axis=0) - pad
    hi = c_s[:, axis].max(axis=0) - c_m[:, axis].min(axis=0) + pad

    # the face axes of every pair, corners relative to the first static one
    rel = np.concatenate([c_s[1:] - c_s[0], c_m - c_s[0]])
    face_lo, face_hi, kept = _narrow(lo, hi, rel, np.stack([n_s, n_m]), axis,
                                     64 * u * (coord + lever),
                                     lever * np.stack([longest_s, longest_m]), 0.5 * tol, tol)
    # a pair with a sliver or zero-area face keeps its whole box window
    lo, hi = np.where(kept, face_lo, lo), np.where(kept, face_hi, hi)

    # the edge axes of the other pairs that still cross somewhere
    live = np.flatnonzero(kept & (lo < hi))
    e_s, edge_s = (np.take(x, si[live], axis=-1) for x in terms_s[2:4])
    e_m, edge_m = (np.take(x, mi[live], axis=-1) for x in terms_m[2:4])
    axes = _cross(e_s[:, None], e_m[None], axis=-2).reshape(9, 3, -1)
    bend = (edge_s[:, None] * edge_m[None]).reshape(9, -1)
    lo[live], hi[live], _ = _narrow(lo[live], hi[live], rel[..., live], axes, axis,
                                    32 * u * lever[live], bend, None, tol)
    return lo, hi


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

def surface_probe_points(mesh: TriangleMesh, weights: np.ndarray | None = None,
                         depth: float = 1e-6, which: np.ndarray | None = None) -> np.ndarray:
    """Containment probes, those of index ``which`` (all by default): a
    point of every face, its centroid or the point of barycentric
    ``weights`` of its first two corners, pulled ``depth`` of the mesh's
    diagonal inside the solid, plus one point 1e-3 of it under the largest
    face. The inward pull keeps probes of a surface that merely rests on
    another mesh strictly outside it (on-surface winding numbers are
    degenerate), while probes of a penetrating surface stay inside the
    other solid. No probe leaves its own solid: one whose pull crosses
    another triangle of the mesh (:func:`_first_crossing`), as on a part
    thinner than the pull, goes halfway to the first crossing instead.
    """
    corners = mesh.corners
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    lengths = np.linalg.norm(normals, axis=1)
    faces = np.append(np.flatnonzero(lengths > 0), np.argmax(lengths))
    depth = np.append(np.full(len(faces) - 1, depth), 1e-3)[:, None] * mesh.aabb_diagonal
    faces, depth = (faces, depth) if which is None else (faces[which], depth[which])
    points = (corners[faces].mean(axis=1) if weights is None
              else np.append(weights, 1.0 - weights.sum()) @ corners[faces])
    probes = points - depth * normals[faces] / lengths[faces, None]
    t = _first_crossing(mesh, points, probes, faces)
    cut = np.flatnonzero(t <= 1)
    probes[cut] = points[cut] + 0.5 * t[cut, None] * (probes[cut] - points[cut])
    return probes


def _first_crossing(mesh: TriangleMesh, start: np.ndarray, end: np.ndarray,
                    own: np.ndarray) -> np.ndarray:
    """Per segment k from ``start[k]`` to ``end[k]``, the least fraction
    t in (0, 1] of it at which it meets a triangle other than ``own[k]``
    (Moller-Trumbore, edges included) beyond ``tol`` from ``start[k]``, so
    not on a face through it, as of a touching component; else inf."""
    tol = 1e-9 * (1.0 + float(np.abs(np.concatenate(mesh.aabb)).max()))
    d, length = end - start, np.linalg.norm(end - start, axis=1)
    near = start + d * (tol / length)[:, None]   # candidates beyond tol only
    k, g = broad.gather(broad.box_pairs(np.minimum(near, end), np.maximum(near, end),
                                        *mesh.triangle_bounds))
    k, g = k[g != own[k]], g[g != own[k]]
    tri, d, s = mesh.corners[g], d[k], start[k] - mesh.corners[g, 0]
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    h, q = np.cross(d, e2), np.cross(s, e1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.einsum("ij,ij->i", e1, h)
        u, v, t = (np.einsum("ij,ij->i", x, y) / a for x, y in ((s, h), (d, q), (e2, q)))
        hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t <= 1) & (t * length[k] > tol)
    first = np.full(len(start), np.inf)
    np.minimum.at(first, k[hit], t[hit])
    return first


def _read_only_probes(mesh: TriangleMesh) -> np.ndarray:
    probes = surface_probe_points(mesh)
    probes.setflags(write=False)
    return probes


# surface_probe_points of a mesh, computed once per mesh and kept read-only
_probe_points = PerMesh(_read_only_probes)

# barycentric weights (of the first two corners) of the points of its face
# that a probe takes in turn, each twice as deep, while its line passes near
# a projected edge: the R2 sequence folded into the triangle and drawn 0.4
# of the way to the centroid, so that they fall on no grid the corners share
_PROBE_WEIGHTS = np.array([[0.286260, 0.175238], [0.139187, 0.517142], [0.592113, 0.259046],
                           [0.421627, 0.265717], [0.297966, 0.342854], [0.150893, 0.684758]])


# -- penetration kernel ------------------------------------------------------

def _crosses_at(static: TriangleMesh, moving: TriangleMesh, si: np.ndarray, mi: np.ndarray,
                axis: int, t: np.ndarray) -> bool:
    """Whether :func:`proper_crossings` holds for some pair p, ``moving`` shifted by ``t[p]``."""
    shifted = moving.corners[mi]
    shifted[:, :, axis] += t[:, None]
    return bool(proper_crossings(static.corners[si], shifted).any())


def _crosses_in(static: TriangleMesh, moving: TriangleMesh, si: np.ndarray, mi: np.ndarray,
                axis: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether :func:`proper_crossings` holds for some pair p, ``moving``
    shifted by an offset in ``[lo[p], hi[p]]``: tried at the ends, then at
    the maximiser of its least margin (:func:`_crossing_margin`), on the
    range cut to the pair's straddle window at half the tolerance
    (:func:`_straddle_window`, which keeps what rounding puts a few ulps
    past the window at the tolerance). There both cuts exist, and their
    overlap, the cut of a convex triangle by a moving plane against a fixed
    one, is concave in the offset; so is the least margin. A golden-section
    search, on every pair at once, narrows each window to float resolution
    around its maximiser, and stops at the first positive margin."""
    tri_s, tri_m = static.corners[si], moving.corners[mi]
    w_lo, w_hi = _straddle_window(tri_s, tri_m, axis, 0.5 * TOUCH_TOLERANCE_MM)
    a, b = np.maximum(lo, w_lo), np.minimum(hi, w_hi)
    keep = a <= b
    tri_s, tri_m, a, b = tri_s[keep], tri_m[keep], a[keep], b[keep]

    def margin(t: np.ndarray) -> np.ndarray:
        shifted = tri_m.copy()
        shifted[:, :, axis] += t[:, None]
        return _crossing_margin(tri_s, shifted, TOUCH_TOLERANCE_MM)

    if (margin(a) > 0).any() or (margin(b) > 0).any():
        return True
    # each step keeps 0.618 of every window, so 128 take any float range
    # below its resolution
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(128):
        x1, x2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = margin(x1), margin(x2)
        if (f1 > 0).any() or (f2 > 0).any():
            return True
        if (b - a <= 4 * np.spacing(np.maximum(np.abs(a), np.abs(b)))).all():
            return False
        # the maximiser lies in [a, x2] where f1 >= f2, else in [x1, b]
        a, b = np.where(f1 >= f2, a, x1), np.where(f1 >= f2, x2, b)
    return False


def _holds_a_probe(target: TriangleMesh, source: TriangleMesh, axis: int, first: float,
                   last: float) -> bool:
    """Whether a probe of ``source`` shifted along ``axis`` by some offset in
    ``[first, last]`` lies strictly inside ``target`` (by
    :func:`softjig.rays.ray_containment`, on the probes that can meet the
    interior of the target's box). A probe whose line passes near a
    projected edge moves to the next point of its face (``_PROBE_WEIGHTS``)
    at twice the depth, which also clears a face it rests on once past the
    target's ``tol``; near at every point, it counts as inside."""
    lo, hi = target.aabb
    across = [ax for ax in range(3) if ax != axis]
    points = _probe_points(source)
    probes = np.arange(len(points))
    for k, weights in enumerate((None, *_PROBE_WEIGHTS)):
        if k:
            points = surface_probe_points(source, weights, 1e-6 * 2 ** k, probes)
        c_lo, c_hi = points[:, axis] + first, points[:, axis] + last
        keep = (c_lo < hi[axis]) & (c_hi > lo[axis]) & np.all(
            (points[:, across] > lo[across]) & (points[:, across] < hi[across]), axis=1)
        at, near = ray_containment(target, points[keep], axis, c_lo[keep], c_hi[keep],
                                   _LAST_BATCH_ROWS)
        if not np.isnan(at).all():
            return True
        probes = probes[keep][near]
        if not len(probes):
            return False
    return True


def penetrates_along(static: TriangleMesh, moving: TriangleMesh, axis: int,
                     span: tuple[float, float]) -> bool:
    """True iff ``moving``, shifted along ``axis`` by some signed offset in
    the closed range ``span`` (mm), penetrates ``static``: crosses it, or
    contains a probe of it, or has a probe inside it. A range whose first
    end exceeds its second penetrates nothing.

    A crossing is one where :func:`proper_crossings` holds. The candidate
    pairs are the static and moving triangles whose boxes overlap somewhere
    on the range (:func:`softjig.broad.box_pairs`, moving boxes stretched
    over it) and share interior on the two axes across ``axis``, and along
    it at an end of the range that is 0, as boxes that only touch there
    hold no crossing (:func:`softjig.broad.penetration_span`); so
    :func:`intersects`, the range [0, 0], tests only pairs whose boxes share
    interior on all three axes. The moving bounds that the shift leaves
    exact are moved one ulp inward (``np.nextafter``), which makes the
    closed test strict against them; a shifted, rounded far end is not.

    Each candidate pair gets its interval of crossing offsets once
    (:func:`crossing_intervals`); one that meets the range is tried at the
    midpoint of the two, then at the offset there that maximises its least
    margin (:func:`_crosses_in`). The least margin is concave in the
    offset, so on an interval inside the exact one the midpoint has at
    least half its largest value in range. A candidate stream of one batch
    of fewer than ``_FIRST_CROSSING_ROWS`` pairs, as small meshes give, is
    first tried at the middles of its pairs' box windows. Batches double
    from ``_FIRST_CROSSING_ROWS`` pairs to ``_FIRST_BATCH_ROWS``; the scan
    stops at the first batch that blocks. Both meshes must be closed
    2-cycles, as parts are, for the box culls and ray containment to hold:
    an open one (:data:`softjig.mesh.unbalanced_edges`) raises
    :class:`~softjig.mesh.DegenerateMeshError`.

    Containment is a probe of either mesh strictly inside the other solid
    at some offset of the range (:func:`_holds_a_probe`); probes also catch
    overlaps whose boundaries meet only along tangent planes.
    """
    for mesh in (static, moving):
        if unbalanced_edges(mesh):
            raise DegenerateMeshError(f"{mesh!r} is not closed: {unbalanced_edges(mesh)} "
                                      f"directed edges do not match their reverses")
    first, last = span
    if first > last:
        return False
    # moving boxes stretched over the range, each bound that the shift
    # leaves exact one ulp inward, so that touching boxes are apart there
    lo, hi = moving.triangle_bounds
    ext_lo, ext_hi = np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)
    if first:
        ext_lo[:, axis] = lo[:, axis] + first
    if last:
        ext_hi[:, axis] = hi[:, axis] + last
    pairs = broad.box_pairs(*static.triangle_bounds, ext_lo, ext_hi)
    s_lo, s_hi, m_lo, m_hi = (b[:, axis] for m in (static, moving) for b in m.triangle_bounds)
    for k, (i, j) in enumerate(broad.batches(pairs, _FIRST_CROSSING_ROWS, _FIRST_BATCH_ROWS)):
        # blocked sweeps mostly cross deep in a pair's box window: try its
        # middle when the whole stream is one short batch
        if not k and len(i) < _FIRST_CROSSING_ROWS:
            middle = np.clip([s_lo[i] - m_hi[j], s_hi[i] - m_lo[j]], first, last).mean(0)
            if _crosses_at(static, moving, i, j, axis, middle):
                return True
        lo, hi = crossing_intervals(static, moving, i, j, axis)
        meet = np.flatnonzero((lo < hi) & (lo < last) & (hi > first))
        i, j = i[meet], j[meet]
        lo, hi = np.maximum(lo[meet], first), np.minimum(hi[meet], last)
        mid = 0.5 * (lo + hi)
        # one pair first: a crossing interval is mostly a deep crossing
        if len(meet) and (_crosses_at(static, moving, i[:1], j[:1], axis, mid[:1])
                          or _crosses_at(static, moving, i, j, axis, mid)
                          or _crosses_in(static, moving, i, j, axis, lo, hi)):
            return True
    return (_holds_a_probe(static, moving, axis, first, last)
            or _holds_a_probe(moving, static, axis, -last, -first))


# -- public queries ----------------------------------------------------------

def intersects(mesh_a: TriangleMesh, mesh_b: TriangleMesh) -> bool:
    """True iff the solids overlap with positive penetration: the
    zero-offset case of :func:`penetrates_along`, run on the span that the
    penetration rule (:func:`softjig.broad.penetration_span`) keeps of
    [0, 0]. Pure surface touching returns False, and so do solids whose
    boxes share no interior, touching boxes included.
    """
    first, last = map(float, broad.penetration_span(*mesh_a.aabb, *mesh_b.aabb, 0, 0.0, 0.0))
    return first <= last and penetrates_along(mesh_a, mesh_b, 0, (first, last))


def within_distance(mesh_a: TriangleMesh, mesh_b: TriangleMesh, epsilon: float) -> bool:
    """True iff ``min_distance(mesh_a, mesh_b) <= epsilon``, decided without
    computing the distance. Exactly symmetric in the meshes.

    Parts whose whole boxes fail the contact rule
    (:func:`softjig.broad.within_reach`) cannot touch or penetrate.
    Otherwise the triangle pairs whose boxes come within ``epsilon``,
    padded by :func:`softjig.broad.padded` so that none whose computed
    distance is within it is skipped, run through
    :func:`triangle_pair_distance_sq` in batches of ``_FIRST_CONTACT_ROWS``
    pairs, doubling up to ``_LAST_BATCH_ROWS``, stopping at the first pair
    within ``epsilon``; a touching pair usually stops in its first batch.
    Failing that, the answer is :func:`intersects`, for nested solids.
    """
    if not broad.within_reach(*mesh_a.aabb, *mesh_b.aabb, epsilon):
        return False
    ca, cb = mesh_a.corners, mesh_b.corners
    pairs = broad.box_pairs(*mesh_a.triangle_bounds, *mesh_b.triangle_bounds,
                            broad.padded(epsilon, *mesh_a.aabb, *mesh_b.aabb))
    for ia, ib in broad.batches(pairs, _FIRST_CONTACT_ROWS, _LAST_BATCH_ROWS):
        if (np.sqrt(triangle_pair_distance_sq(ca[ia], cb[ib])) <= epsilon).any():
            return True
    return intersects(mesh_a, mesh_b)


def min_distance(mesh_a: TriangleMesh, mesh_b: TriangleMesh) -> float:
    """Minimum distance between the surfaces; 0 when touching or overlapping.

    Any distance between two surface points bounds the result from above.
    The bound used is the distance from the corner of ``mesh_a`` nearest
    ``mesh_b``'s box centre to the nearest corner of ``mesh_b``. The
    closest triangle pair's boxes come within the bound, padded by
    :func:`softjig.broad.padded`. Those pairs run through
    :func:`triangle_pair_distance_sq` in growing batches, in order of box
    gap, which bounds a pair's distance from below, until 0 or a gap past
    the best distance so far, padded: the result is the all-pairs minimum
    to the last bit, exactly symmetric in the meshes. Nested solids, whose
    surfaces may be far apart, are at distance 0 by :func:`intersects`.
    """
    ca, cb = mesh_a.corners, mesh_b.corners
    points, corners_b = ca.reshape(-1, 3), cb.reshape(-1, 3)
    centre_b = 0.5 * (mesh_b.aabb[0] + mesh_b.aabb[1])
    start = points[np.argmin(np.einsum("ij,ij->i", points - centre_b, points - centre_b))]
    upper_sq = np.einsum("ij,ij->i", corners_b - start, corners_b - start).min()
    lo_a, hi_a = mesh_a.triangle_bounds
    lo_b, hi_b = mesh_b.triangle_bounds
    boxes = (*mesh_a.aabb, *mesh_b.aabb)
    ia, ib = broad.gather(broad.box_pairs(lo_a, hi_a, lo_b, hi_b,
                                          broad.padded(np.sqrt(upper_sq), *boxes)))
    gap = np.maximum(np.maximum(lo_a[ia] - hi_b[ib], lo_b[ib] - hi_a[ia]), 0.0)
    gap = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    order = np.argsort(gap, kind="stable")
    best = np.inf
    for (rows,) in broad.batches([(order,)], _FIRST_BATCH_ROWS, _LAST_BATCH_ROWS):
        if best == 0.0 or gap[rows[0]] > broad.padded(np.sqrt(best), *boxes):
            break
        best = min(best, float(triangle_pair_distance_sq(ca[ia[rows]], cb[ib[rows]]).min()))
    if best == 0.0 or intersects(mesh_a, mesh_b):
        return 0.0
    return float(np.sqrt(best))
