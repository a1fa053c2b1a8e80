import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from softjig import (
    AssemblyModel,
    PartModel,
    cube_stack_assembly,
    peg_assembly,
    proxy_assembly,
)
from softjig.fixtures import box_mesh, compound_mesh
from softjig.mesh import TriangleMesh
from softjig.parts import RigidOrientation, mass_properties
from softjig.planner import BOTTOM_TIE_TOL_MM, FixingPlan, FixingStep, PlannerError
from softjig.queries import (
    _face_distance_sq,
    _segment_segment_distance_sq,
    intersects,
    proper_crossings,
    surface_probe_points,
    triangle_pair_distance_sq,
    winding_fraction,
)
from softjig.relations import (
    DIRECTION_ORDER,
    compute_relation_matrices,
    merge_entity,
)

# winding fraction above this counts as strictly inside a closed mesh
# (inside = 1, outside = 0; on the surface it is not defined, see
# ``queries.winding_fraction``)
INSIDE_WINDING = 0.75

# samples of the sampled reference sweep, over twice the assembly diagonal
STEP_COUNT = 64


@pytest.fixture(scope="session")
def proxy():
    return proxy_assembly()


@pytest.fixture(scope="session")
def peg():
    return peg_assembly()


@pytest.fixture(scope="session")
def cube_stacks():
    return [cube_stack_assembly(seed) for seed in range(5)]


def tunnel_assembly() -> AssemblyModel:
    """Two-part fixture whose slider can leave only along +x: a capped
    square tunnel with a bar resting on its floor."""
    shell = compound_mesh(
        box_mesh((-20, -8, 0), (20, 8, 4)),      # floor
        box_mesh((-20, -8, 10), (20, 8, 14)),    # roof
        box_mesh((-20, -8, 4), (20, -4, 10)),    # wall -y
        box_mesh((-20, 4, 4), (20, 8, 10)),      # wall +y
        box_mesh((-20, -4, 4), (-16, 4, 10)),    # end cap at -x
    )
    slider = box_mesh((-12, -3, 4), (0, 3, 9))
    return AssemblyModel((
        PartModel("tunnel", shell, 200.0),
        PartModel("slider", slider, 30.0),
    ))


def slotted_sheet(thickness: float) -> tuple[TriangleMesh, TriangleMesh]:
    """A C-shaped part, slabs at z 0-10 and z (10 + ``thickness``)-20 and a
    back wall at x 90-100, and a sheet (x 0-80, y 0-100) of that thickness
    snug in its slot: the sheet can leave along -x and +-y only."""
    c = compound_mesh(box_mesh((0, 0, 0), (90, 100, 10)),
                      box_mesh((0, 0, 10 + thickness), (90, 100, 20)),
                      box_mesh((90, 0, 0), (100, 100, 20)))
    return c, box_mesh((0, 0, 10), (80, 100, 10 + thickness))


def rotated_assembly(assembly: AssemblyModel, rotation: np.ndarray) -> AssemblyModel:
    parts = tuple(
        PartModel(p.id, p.mesh.rotated(rotation), p.mass, p.group) for p in assembly.parts
    )
    return AssemblyModel(parts, contact_epsilon=assembly.contact_epsilon)


ROT_Z_QUARTER = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

# shears z by y: parts resting on each other along a plane z = c rest along
# z = c + y instead (exactly, for integer corners) and still slide along x,
# and the boxes of their resting triangles share interior across x
SHEAR_Z_BY_Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])


def direction_of(vector):
    """The direction label of an exact axis-aligned unit vector."""
    (direction,) = [d for d in DIRECTION_ORDER if np.array_equal(vector, d.unit_vector)]
    return direction


def dense_box_pairs(lo_a, hi_a, lo_b, hi_b, gap=0.0):
    """Reference for the concatenated ``broad.box_pairs`` stream: index
    pairs ``(i, j)``, in row-major order, whose boxes overlap once inflated
    by ``gap`` on every axis, from one dense ``(a x b)`` test."""
    overlap = np.ones((len(lo_a), len(lo_b)), dtype=bool)
    for ax in range(3):
        overlap &= lo_a[:, ax][:, None] - gap <= hi_b[:, ax][None, :]
        overlap &= lo_b[:, ax][None, :] - gap <= hi_a[:, ax][:, None]
    return np.nonzero(overlap)


def sweep_steps(max_distance: float, thinnest_extent: float) -> int:
    """Samples of the sampled reference sweep: ``STEP_COUNT``, raised so
    that the step never exceeds half the thinnest AABB extent of the swept
    pair."""
    n = STEP_COUNT
    if thinnest_extent > 0:
        n = max(n, math.ceil(max_distance / (0.5 * thinnest_extent)))
    return n


def sweep_sample_distances(max_distance: float, n_steps: int) -> np.ndarray:
    """Sample offsets ``max_distance * (k / n)`` for k = 1..n, computed so
    that the grid for any integer multiple of ``n_steps`` is an exact
    superset, which keeps refinement monotone."""
    k = np.arange(1, n_steps + 1, dtype=np.float64)
    return max_distance * (k / n_steps)


def naive_sweep_is_free(static_mesh, moving_mesh, direction, max_distance, n_steps) -> bool:
    """The sampled reference sweep: one public intersection query per
    sample, the moving mesh translated by it."""
    unit = direction.unit_vector
    for t in sweep_sample_distances(max_distance, n_steps):
        if intersects(static_mesh, moving_mesh.translated(t * unit)):
            return False
    return True


def oracle_interference_free(assembly: AssemblyModel) -> dict:
    """The 10x sampled oracle for ``compute_all_interference_free``: each
    pair i < k swept by ``naive_sweep_is_free`` at 10 x the step count that
    ``sweep_steps`` resolves for it, with the higher-index part moving and
    the result mirrored into (k, i) of -j."""
    max_distance = 2.0 * assembly.aabb_diagonal
    n = len(assembly.parts)
    free = {d: np.zeros((n, n), dtype=bool) for d in DIRECTION_ORDER}
    for i in range(n):
        for k in range(i + 1, n):
            static, moving = assembly.parts[i].mesh, assembly.parts[k].mesh
            thin = min(float(np.min(m.aabb[1] - m.aabb[0])) for m in (static, moving))
            n_steps = 10 * sweep_steps(max_distance, thin)
            for d in DIRECTION_ORDER:
                free[d][i, k] = free[d.opposite][k, i] = naive_sweep_is_free(
                    static, moving, d, max_distance, n_steps)
    return free


# the rotation turning each direction to world +z; turning it to -z is the
# one of the opposite direction
_TURNS = {
    "+x": [[0, 0, -1], [0, 1, 0], [1, 0, 0]], "+y": [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
    "-x": [[0, 0, 1], [0, 1, 0], [-1, 0, 0]], "-y": [[1, 0, 0], [0, 0, 1], [0, -1, 0]],
    "+z": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "-z": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
}


def rotated_vertex_posture(reachable, parts) -> tuple:
    """Reference for a plan step's posture, by rotating every vertex:
    both verticalizations (axis up, then axis down) of every reachable
    direction rotate every vertex and take the mass properties again, and
    the first strictly lowest CoG height wins. Returns the label, the
    orientation, the bottom part (ties within ``BOTTOM_TIE_TOL_MM`` to the
    heavier part, then the smaller id) and the CoG height."""
    def height(orientation):
        _, cog = mass_properties(parts)
        lowest = min(float(orientation.apply(p.mesh.vertices)[:, 2].min()) for p in parts)
        return float(orientation.apply(cog)[2]) - lowest

    best, best_height = None, np.inf
    for direction in reachable.set_directions:
        for turn in (_TURNS[direction.value], _TURNS[direction.opposite.value]):
            orientation = RigidOrientation(turn)
            candidate_height = height(orientation)
            if candidate_height < best_height:
                best, best_height = (direction, orientation), candidate_height
    label, orientation = best
    lows = [(float(orientation.apply(p.mesh.vertices)[:, 2].min()), p) for p in parts]
    z_min = min(z for z, _ in lows)
    tied = sorted((p for z, p in lows if z - z_min <= BOTTOM_TIE_TOL_MM),
                  key=lambda p: (-p.mass, p.id))
    return label, orientation, tied[0].id, height(orientation)


def merge_walk_plan(assembly: AssemblyModel, sequence) -> FixingPlan:
    """Reference for ``configure_fixing_parts``: the walk over merged
    matrices. Every group is collapsed with ``merge_entity`` first, and the
    target and the next entity are merged after every step, so each step's
    flags come from one entry of freshly merged matrices; each posture is
    ``rotated_vertex_posture``'s."""
    groups = list(dict.fromkeys(p.group for p in assembly.parts if p.group is not None))
    for ref in sequence.steps:
        part = next((p for p in assembly.parts if p.id == ref), None)
        if part is not None and part.group is not None:
            raise PlannerError(f"entity {ref!r} belongs to a group and cannot be sequenced alone")
        if part is None and ref not in groups:
            raise PlannerError(f"unknown sequence entity {ref!r}")
    matrices = compute_relation_matrices(assembly)
    for group in groups:
        matrices = merge_entity(matrices, {p.id for p in assembly.parts if p.group == group},
                                group)

    target = sequence.steps[0]
    model_parts = [p for p in assembly.parts if target in (p.id, p.group)]
    steps = []
    for i, entity in enumerate(sequence.steps[1:], start=1):
        reachable = matrices.reachable_list(target, entity)
        if not reachable.any_set:
            return FixingPlan(tuple(steps), False, f"no reachable direction between "
                                                   f"{target!r} and {entity!r} at step {i}")
        model_parts += [p for p in assembly.parts if entity in (p.id, p.group)]
        combined_id = f"{target}+{entity}"
        while combined_id in matrices.entity_ids:
            combined_id += "~"
        matrices = merge_entity(matrices, {target, entity}, combined_id)
        target = combined_id
        label, orientation, fixed, height = rotated_vertex_posture(reachable, model_parts)
        steps.append(FixingStep(i, fixed, label, orientation, height, reachable))
    return FixingPlan(tuple(steps), True, None)


def naive_point_triangle_distance_sq(points, triangles) -> np.ndarray:
    """Reference point-triangle distance, independent of the product's face
    rows: Ericson's region walk, computing every region's closest point for
    every row and settling each row on the first region that holds, with
    the vertex distances as a floor for zero-area triangles."""
    p = np.asarray(points, dtype=np.float64)
    tri = np.asarray(triangles, dtype=np.float64)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]

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

    closest = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, value):
        use = mask & ~done
        closest[use] = value[use] if value.shape == closest.shape else value
        done[use] = True

    settle((d1 <= 0) & (d2 <= 0), a)
    settle((d3 >= 0) & (d4 <= d3), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom_ab = d1 - d3
        v = np.where(denom_ab != 0, d1 / np.where(denom_ab != 0, denom_ab, 1.0), 0.0)
        settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v[:, None] * ab)
    settle((d6 >= 0) & (d5 <= d6), c)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom_ac = d2 - d6
        w = np.where(denom_ac != 0, d2 / np.where(denom_ac != 0, denom_ac, 1.0), 0.0)
        settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w[:, None] * ac)
        num_bc = d4 - d3
        den_bc = (d4 - d3) + (d5 - d6)
        w2 = np.where(den_bc != 0, num_bc / np.where(den_bc != 0, den_bc, 1.0), 0.0)
        settle((va <= 0) & (num_bc >= 0) & (d5 - d6 >= 0), b + w2[:, None] * (c - b))
        total = va + vb + vc
        safe = np.where(total != 0, total, 1.0)
        interior = a + (vb / safe)[:, None] * ab + (vc / safe)[:, None] * ac
        interior[total == 0] = a[total == 0]
    settle(np.ones(len(p), dtype=bool), interior)

    diff = p - closest
    best = np.einsum("ij,ij->i", diff, diff)
    for v in (a, b, c):
        dv = p - v
        best = np.minimum(best, np.einsum("ij,ij->i", dv, dv))
    return best


def naive_triangle_pair_distance_sq(tri_a, tri_b, vertex_row=_face_distance_sq) -> np.ndarray:
    """Reference for ``queries.triangle_pair_distance_sq``: one kernel call
    per candidate, 6 vertex rows (``vertex_row``: the product's face rows,
    or ``naive_point_triangle_distance_sq`` for the region walk) and 18
    edge-edge (each of the 9 edge pairs in both argument orders), folded
    into a running minimum."""
    a = np.asarray(tri_a, dtype=np.float64)
    b = np.asarray(tri_b, dtype=np.float64)
    edges = ((0, 1), (1, 2), (2, 0))
    best = np.full(len(a), np.inf)
    for i in range(3):
        best = np.minimum(best, vertex_row(a[:, i], b))
        best = np.minimum(best, vertex_row(b[:, i], a))
    for i0, i1 in edges:
        for j0, j1 in edges:
            pa, qa = a[:, i0], a[:, i1]
            pb, qb = b[:, j0], b[:, j1]
            best = np.minimum(best, _segment_segment_distance_sq(pa, qa, pb, qb))
            best = np.minimum(best, _segment_segment_distance_sq(pb, qb, pa, qa))
    return best


def min_distance_brute_force(mesh_a, mesh_b) -> float:
    """All-pairs reference for ``min_distance``: the same triangle kernel
    over every triangle pair, no broad phase."""
    ca, cb = mesh_a.corners, mesh_b.corners
    ia, ib = np.meshgrid(np.arange(len(ca)), np.arange(len(cb)), indexing="ij")
    ia, ib = ia.ravel(), ib.ravel()
    chunk = 1 << 17
    best = min(float(triangle_pair_distance_sq(ca[ia[s:s + chunk]], cb[ib[s:s + chunk]]).min())
               for s in range(0, len(ia), chunk))
    if best == 0.0 or intersects(mesh_a, mesh_b):
        return 0.0
    return float(np.sqrt(best))


def naive_penetrates_along(static_mesh, moving_mesh, axis, offsets) -> bool:
    """Per-sample reference for ``penetrates_along``, with no broad phase:
    every (triangle pair, offset) row through ``proper_crossings`` and every
    probe of either mesh at every offset through the winding number, with
    the moving mesh shifted the way the kernel shifts it. The kernel, which
    decides crossings over a whole range, blocks wherever this does at the
    range's samples."""
    sc, mc = static_mesh.corners, moving_mesh.corners
    offsets = np.asarray(offsets, dtype=np.float64)
    i, j, k = (g.ravel() for g in np.meshgrid(np.arange(len(sc)), np.arange(len(mc)),
                                             np.arange(len(offsets)), indexing="ij"))
    chunk = 1 << 16
    for start in range(0, len(i), chunk):
        sl = slice(start, start + chunk)
        shifted = mc[j[sl]]
        shifted[:, :, axis] += offsets[k[sl]][:, None]
        if proper_crossings(sc[i[sl]], shifted).any():
            return True
    for probes, target, sign in ((surface_probe_points(moving_mesh), sc, 1.0),
                                 (surface_probe_points(static_mesh), mc, -1.0)):
        points = np.repeat(probes, len(offsets), axis=0)
        points[:, axis] += sign * np.tile(offsets, len(probes))
        if (winding_fraction(points, target) > INSIDE_WINDING).any():
            return True
    return False


# -- exact triangle intersection ------------------------------------------------

def _sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _on_segment(x, p, q) -> bool:
    """Whether point ``x`` lies on the closed segment pq."""
    d, w = _sub(q, p), _sub(x, p)
    return not any(_cross(w, d)) and 0 <= _dot(w, d) <= _dot(d, d)


def _segments_meet(p, q, r, s) -> bool:
    """Whether the closed segments pq and rs share a point."""
    d1, d2, w = _sub(q, p), _sub(s, r), _sub(r, p)
    if not any(d1):
        return _on_segment(p, r, s)
    if not any(d2):
        return _on_segment(r, p, q)
    c = _cross(d1, d2)
    if any(c):
        if _dot(w, c) != 0:
            return False       # skew lines
        cc = _dot(c, c)
        t, u = _dot(_cross(w, d2), c) / cc, _dot(_cross(w, d1), c) / cc
        return 0 <= t <= 1 and 0 <= u <= 1
    if any(_cross(w, d1)):
        return False           # parallel lines
    lo, hi = sorted((_dot(w, d1), _dot(_sub(s, p), d1)))
    return lo <= _dot(d1, d1) and hi >= 0


def _segment_meets_triangle(p, q, tri) -> bool:
    """Whether the closed segment pq meets the closed triangle ``tri``."""
    a, b, c = tri
    n = _cross(_sub(b, a), _sub(c, a))
    edges = ((a, b), (b, c), (c, a))
    if not any(n):             # the triangle is a segment or a point
        return any(_segments_meet(p, q, u, v) for u, v in edges)
    sp, sq = _dot(n, _sub(p, a)), _dot(n, _sub(q, a))
    if (sp > 0 and sq > 0) or (sp < 0 and sq < 0):
        return False

    def inside(x) -> bool:     # x in the triangle's plane
        return all(_dot(_cross(_sub(v, u), _sub(x, u)), n) >= 0 for u, v in edges)

    if sp == sq == 0:
        return inside(p) or inside(q) or any(_segments_meet(p, q, u, v) for u, v in edges)
    t = sp / (sp - sq)
    return inside(tuple(x + t * (y - x) for x, y in zip(p, q)))


def exact_triangles_meet(tri_a, tri_b) -> bool:
    """Whether two closed triangles share a point, in exact rational
    arithmetic on their float corners. When they do, an edge of one meets
    the other: the ends of each triangle's cut on the other's plane lie on
    its edges, coplanar triangles that overlap cross edges or nest, and a
    triangle with collinear corners is the union of its edges."""
    a, b = ([tuple(Fraction(float(x)) for x in corner) for corner in tri]
            for tri in (tri_a, tri_b))
    return any(_segment_meets_triangle(p, q, other)
               for tri, other in ((a, b), (b, a))
               for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])))


def exact_crossing_interval(tri_s, tri_m, axis):
    """The open interval of offsets t over which ``tri_m`` shifted by t
    along ``axis`` crosses ``tri_s``, in exact rational arithmetic on their
    float corners, or None when it never does. The shifted triangle meets
    the static one iff ``t e`` lies in K, the hull of the 9 differences
    ``s - m``, and crosses it iff ``t e`` lies in K's interior. Every plane
    through three of the differences with all nine on one side supports a
    face of K, and the interior is strictly inside all of them; it is empty
    when the nine are coplanar."""
    s, m = ([tuple(Fraction(float(x)) for x in corner) for corner in tri]
            for tri in (tri_s, tri_m))
    points = [_sub(p, q) for p in s for q in m]
    lo, hi, solid = None, None, False
    for a, b, c in itertools.combinations(points, 3):
        n = _cross(_sub(b, a), _sub(c, a))
        if not any(n):
            continue
        side = [_dot(n, _sub(p, a)) for p in points]
        if all(d >= 0 for d in side):
            n = tuple(-x for x in n)
        elif not all(d <= 0 for d in side):
            continue
        solid |= any(side)
        bound, slope = _dot(n, a), n[axis]        # n . (t e) < n . a
        if slope > 0:
            hi = bound / slope if hi is None else min(hi, bound / slope)
        elif slope < 0:
            lo = bound / slope if lo is None else max(lo, bound / slope)
        elif bound <= 0:
            return None
    if not solid or lo is None or hi is None or lo >= hi:
        return None
    return lo, hi
