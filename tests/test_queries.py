import itertools
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    INSIDE_WINDING,
    SHEAR_Z_BY_Y,
    tunnel_assembly,
    dense_box_pairs,
    exact_crossing_interval,
    exact_triangles_meet,
    min_distance_brute_force,
    naive_penetrates_along,
    naive_point_triangle_distance_sq,
    naive_triangle_pair_distance_sq,
    slotted_sheet,
)

from softjig import (
    AssemblySequence,
    broad,
    configure_fixing_parts,
    proxy_assembly,
    queries,
)
from softjig.fixtures import box_mesh, compound_mesh, generate_proxy_fixture, revolve_mesh
from softjig.cli import main
from softjig.parts import AssemblyModel, PartError, PartModel
from softjig.relations import compute_relation_matrices
from softjig.mesh import (DegenerateMeshError, TriangleMesh, load_mesh, save_stl_binary,
                          unbalanced_edges)
from softjig.queries import (
    TOUCH_TOLERANCE_MM,
    crossing_intervals,
    intersects,
    min_distance,
    penetrates_along,
    proper_crossings,
    surface_probe_points,
    triangle_pair_distance_sq,
    winding_fraction,
    within_distance,
)
from softjig.rays import ray_containment

unit_cube = lambda: box_mesh((0, 0, 0), (1, 1, 1))


def test_touching_faces_distance_zero():
    assert min_distance(unit_cube(), unit_cube().translated((1, 0, 0))) == 0.0


def test_axis_aligned_gap():
    a = box_mesh((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    b = a.translated((3, 0, 0))
    assert min_distance(a, b) == 2.0


def test_min_distance_symmetry_exact():
    motor = generate_proxy_fixture("motor").mesh
    plate = generate_proxy_fixture("plate").mesh
    shifted = plate.translated((0.3, 7.1, 12.9))
    assert min_distance(motor, shifted) == min_distance(shifted, motor)


def test_min_distance_matches_brute_force_on_fixture_meshes(proxy, peg, cube_stacks):
    meshes = [generate_proxy_fixture(k).mesh for k in
              ("motor", "plate", "bolt-pair", "peg", "blind-hole-base")]
    pairs = list(itertools.combinations(meshes, 2))
    for assembly in (proxy, peg, *cube_stacks):
        pairs += itertools.combinations([p.mesh for p in assembly.parts], 2)
    # a small box over the middle of a large thin slab's face, where the
    # nearest vertices are far from the nearest features, and a pair whose
    # gap is many times its size; as built, tilted, and rotated
    rng = np.random.default_rng(0)
    rotation = random_rotation(rng)
    for a, b in ((box_mesh((-500, -400, 0), (500, 400, 2)), box_mesh((-1, -1, 4), (1, 1, 6))),
                 (box_mesh((0, 0, 0), (3, 2, 1)), box_mesh((400, -250, 120), (402, -248, 122)))):
        pairs += [(a, b), (a, tilted(b, rng)), (a.rotated(rotation), b.rotated(rotation))]
    # a box with an unreferenced vertex right next to the other box, which
    # an upper bound taken from vertices rather than surfaces would trust
    box = box_mesh((0, 0, 0), (1, 1, 1))
    stray = TriangleMesh(np.vstack([box.vertices, [[5.0, 0.5, 0.5]]]), box.triangles)
    pairs.append((stray, box.translated((5.1, 0, 0))))
    # a cylinder tilted over another's top cap: thousands of candidate
    # pairs, with the closest one far from the first in row-major order
    cylinder = revolve_mesh([(0, 0), (10, 0), (10, 40), (0, 40)], 128)
    c, s = np.cos(0.01), np.sin(0.01)
    over = cylinder.rotated(np.array([[1, 0, 0], [0, c, -s], [0, s, c]]))
    pairs.append((cylinder, over.translated((0.3, 0.2, 40.5 - over.aabb[0][2]))))
    for a, b in pairs:
        d = min_distance(a, b)
        assert d == min_distance(b, a) == min_distance_brute_force(a, b), (a, b)


def test_proxy_assembled_contacts_have_zero_distance():
    motor = generate_proxy_fixture("motor").mesh
    plate = generate_proxy_fixture("plate").mesh
    bolts = generate_proxy_fixture("bolt-pair").mesh
    for a, b in [(motor, plate), (motor, bolts), (plate, bolts)]:
        assert min_distance_brute_force(a, b) == 0.0


def test_overlapping_cubes_intersect():
    assert intersects(unit_cube(), unit_cube().translated((0.5, 0, 0)))


def test_kissing_contact_does_not_intersect(monkeypatch):
    """Solids whose boxes touch only on a face, overlapping on the other
    two axes or not, are not intersecting in either order, and the
    penetration kernel is never asked."""
    def forbidden(*args):
        raise AssertionError("penetrates_along called")

    monkeypatch.setattr(queries, "penetrates_along", forbidden)
    lower = box_mesh((0, 0, 0), (10, 10, 10))
    cylinder = revolve_mesh([(0, 0), (4, 0), (4, 6), (0, 6)], 16)
    for a, b in [(unit_cube(), unit_cube().translated((1.0, 0, 0))),
                 (unit_cube(), unit_cube().translated((0, 0, 1.0))),
                 (lower, box_mesh((2, 3, 10), (9, 12, 18))),
                 (lower, box_mesh((-5, -5, -5), (0, 15, 15))),
                 (lower, cylinder.translated((5, 5, 10))),
                 (lower, cylinder.translated((14, 5, 2)))]:
        assert not intersects(a, b)
        assert not intersects(b, a)


def test_containment_intersects_without_crossings():
    big = unit_cube()
    small = box_mesh((0.3, 0.3, 0.3), (0.7, 0.7, 0.7))
    assert intersects(big, small)
    assert intersects(small, big)


def test_equal_extent_shallow_overlap_detected():
    # surfaces meet only along tangent planes; no transversal crossing exists
    a = unit_cube()
    b = unit_cube().translated((0.9, 0, 0))
    assert intersects(a, b)
    assert min_distance(a, b) == 0.0


def test_nested_meshes_distance_zero():
    big = unit_cube()
    small = box_mesh((0.3, 0.3, 0.3), (0.7, 0.7, 0.7))
    assert min_distance(big, small) == 0.0


def test_coplanar_overlap_is_not_a_crossing():
    tri_a = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
    tri_b = np.array([[[0.5, 0.5, 0], [2.5, 0.5, 0], [0.5, 2.5, 0]]], dtype=float)
    assert not proper_crossings(tri_a, tri_b)[0]


def test_transversal_crossing_detected():
    tri_a = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
    tri_b = np.array([[[0.5, 0.5, -1], [1.5, 0.5, 1], [0.5, 1.5, 1]]], dtype=float)
    assert proper_crossings(tri_a, tri_b)[0]


def test_edge_touch_is_not_a_crossing():
    tri_a = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
    tri_b = np.array([[[0.5, 0.5, 0], [1.5, 0.5, 2], [0.5, 1.5, 2]]], dtype=float)
    assert not proper_crossings(tri_a, tri_b)[0]


point_coords = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
points3 = st.tuples(point_coords, point_coords, point_coords)


def triangle_area(tri) -> float:
    a, b, c = (np.asarray(v, dtype=float) for v in tri)
    return 0.5 * float(np.linalg.norm(np.cross(b - a, c - a)))


@given(p=points3, tri=st.tuples(points3, points3, points3))
@settings(max_examples=200, deadline=None)
def test_point_triangle_distance_against_sampling(p, tri):
    """The pair kernel on a triangle collapsed to the point ``p``, and the
    region-walk reference, against dense sampling of the triangle."""
    assume(triangle_area(tri) > 1e-6)
    tri_arr = np.array([tri], dtype=float)
    p_arr = np.array([p], dtype=float)
    d = float(np.sqrt(triangle_pair_distance_sq(np.array([[p, p, p]], dtype=float), tri_arr)[0]))
    a, b, c = (np.asarray(v, dtype=float) for v in tri)
    # dense barycentric sampling can only find distances >= the true minimum
    grid = np.linspace(0, 1, 25)
    u, v = np.meshgrid(grid, grid)
    keep = (u + v) <= 1.0
    samples = a + u[keep, None] * (b - a) + v[keep, None] * (c - a)
    sampled = np.linalg.norm(samples - np.asarray(p), axis=1).min()
    assert d <= sampled + 1e-9
    assert d <= min(np.linalg.norm(np.asarray(p) - v) for v in (a, b, c)) + 1e-12
    assert d >= 0
    walk = float(np.sqrt(naive_point_triangle_distance_sq(p_arr, tri_arr)[0]))
    assert abs(d - walk) <= 1e-9 * (d + 5)


def test_point_triangle_distance_degenerate_needle():
    # coincident vertices collapse a triangle to a segment, which has no
    # face: its edges still report the touching point, in both orders and
    # whether the needle's end rests on a face or a corner on the needle
    needle = np.array([[[1, 0, 0], [1, 0, 0], [0, 0, 0]]], dtype=float)
    on_needle = np.array([[[0.5, 0, 0], [0.5, 1, 0], [0.5, 0, 1]]], dtype=float)
    under_end = np.array([[[0, -1, -1], [0, 1, -1], [0, 0, 1]]], dtype=float)
    for other in (on_needle, under_end):
        assert triangle_pair_distance_sq(needle, other)[0] == 0.0
        assert triangle_pair_distance_sq(other, needle)[0] == 0.0
    assert naive_point_triangle_distance_sq(np.zeros((1, 3)), needle)[0] == 0.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_triangle_pair_distance_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3, 3, (4, 3, 3))
    b = rng.uniform(-3, 3, (4, 3, 3))
    assert np.array_equal(triangle_pair_distance_sq(a, b), triangle_pair_distance_sq(b, a))


def touching_copies(tri, rng) -> np.ndarray:
    """Triangles touching ``tri`` row by row: one corner on a point of its
    face or edge, the others on its plane or pushed off it."""
    out = rng.uniform(-2, 2, tri.shape) + tri.mean(axis=1, keepdims=True)
    weights = rng.dirichlet(np.ones(3), len(tri))
    weights[rng.random(len(tri)) < 0.3, 2] = 0.0
    out[:, 0] = np.einsum("pk,pkj->pj", weights / weights.sum(axis=1, keepdims=True), tri)
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    out[:, 1:] += rng.choice([0.0, 1.0], (len(tri), 2, 1)) * normal[:, None]
    return out


def degenerate(tri, rng) -> np.ndarray:
    """``tri`` with some rows collapsed: a repeated corner, three collinear
    corners, a sliver a few ulps off a line, or a single point."""
    tri = tri.copy()
    kind = rng.integers(0, 5, len(tri))
    t = rng.uniform(-1, 2, len(tri))[:, None]
    tri[kind == 0, 2] = tri[kind == 0, 1]
    line = tri[:, 0] + t * (tri[:, 1] - tri[:, 0])
    tri[kind == 1, 2] = line[kind == 1]
    tri[kind == 2, 2] = line[kind == 2] + 4 * np.spacing(line[kind == 2])
    tri[kind == 3] = tri[kind == 3, :1]
    return tri


@st.composite
def triangle_pair_stacks(draw):
    """Stacks of triangle pairs of a drawn kind and size, sizes around the
    first contact batch and the kernel's stacking chunk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = queries._STACK_PAIRS
    n = draw(st.sampled_from([1, 2, 63, 64, 65, stack - 1, stack, stack + 1, 2 * stack + 3]))
    kind = draw(st.sampled_from(["random", "grid", "degenerate", "shared", "touching",
                                 "coincident"]))
    if kind == "grid":
        a, b = rng.integers(-2, 3, (2, n, 3, 3)).astype(float)
    else:
        a, b = rng.normal(size=(2, n, 3, 3)) * rng.uniform(0.01, 10)
    if kind == "degenerate":
        a, b = degenerate(a, rng), degenerate(b, rng)
    elif kind == "shared":
        # one shared corner, or two (a shared edge), at random places in b
        for row in range(n):
            k = int(rng.integers(1, 3))
            b[row, rng.permutation(3)[:k]] = a[row, rng.permutation(3)[:k]]
    elif kind == "touching":
        b = touching_copies(a, rng)
    elif kind == "coincident":
        b = a[:, rng.permutation(3)]
    if draw(st.booleans()):
        a, b = a + 1e6, b + 1e6
    return a, b


@given(pair=triangle_pair_stacks())
@settings(max_examples=120, deadline=None)
def test_stacked_distance_kernel_matches_per_candidate_calls(pair):
    """Bit for bit, in both argument orders: the stacked kernel against
    ``naive_triangle_pair_distance_sq``, one call per candidate."""
    a, b = pair
    expected = naive_triangle_pair_distance_sq(a, b).view(np.int64)
    assert np.array_equal(triangle_pair_distance_sq(a, b).view(np.int64), expected)
    assert np.array_equal(triangle_pair_distance_sq(b, a).view(np.int64), expected)


@given(pair=triangle_pair_stacks())
@settings(max_examples=120, deadline=None)
def test_face_rows_match_the_region_walk(pair):
    """In both argument orders, the kernel's face rows give the distance of
    the region walk (``naive_point_triangle_distance_sq``) in its vertex
    rows, to within 1e-9 of (d + C), d the distance and C the largest
    coordinate magnitude of the pair: the ``broad.padded`` margin. Crossing
    pairs included, zero-area and sliver triangles too."""
    a, b = pair
    walk = np.sqrt(naive_triangle_pair_distance_sq(a, b, naive_point_triangle_distance_sq))
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), np.abs(b).max(axis=(1, 2)))
    for d in (triangle_pair_distance_sq(a, b), triangle_pair_distance_sq(b, a)):
        assert (np.abs(np.sqrt(d) - walk) <= 1e-9 * (walk + scale)).all()


def test_touching_cylinders_decide_contact_in_one_small_batch(monkeypatch):
    """Counter, no timing: two closed 1,024-triangle cylinders stacked face
    to face are in contact after one kernel call over at most 64 candidate
    pairs, the first contact batch."""
    lower = revolve_mesh([(0, 0), (20, 0), (20, 30), (0, 30)], 256)
    upper = revolve_mesh([(0, 30), (17, 30), (17, 62), (0, 62)], 256)
    assert len(lower.triangles) == len(upper.triangles) == 1024
    rows = []
    original = queries.triangle_pair_distance_sq

    def recorded(tri_a, tri_b):
        rows.append(len(tri_a))
        return original(tri_a, tri_b)

    monkeypatch.setattr(queries, "triangle_pair_distance_sq", recorded)
    assert within_distance(lower, upper, 0.01)
    assert len(rows) == 1 and rows[0] <= 64


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_min_distance_matches_brute_force_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    lo_a, hi_a = rng.uniform(-5, 0, 3), rng.uniform(0.5, 5, 3)
    off = rng.uniform(-8, 8, 3)
    lo_b, hi_b = rng.uniform(-5, 0, 3) + off, rng.uniform(0.5, 5, 3) + off
    a = box_mesh(lo_a, hi_a)
    b = box_mesh(lo_b, hi_b)
    # further inputs: both boxes under one random rotation, which keeps the
    # distance up to rounding, and b alone tilted about its centre
    rotation = random_rotation(rng)
    for mesh_a, mesh_b in ((a, b), (a.rotated(rotation), b.rotated(rotation)),
                           (a, tilted(b, rng))):
        assert (min_distance(mesh_a, mesh_b) == min_distance(mesh_b, mesh_a)
                == min_distance_brute_force(mesh_a, mesh_b))
    # analytic oracle: for axis-aligned boxes the distance is the norm of
    # the per-axis gaps, and d == 0 exactly when they touch or overlap
    gaps = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
    analytic = float(np.linalg.norm(gaps))
    d = min_distance(a, b)
    assert d == pytest.approx(analytic, abs=1e-9)
    assert (d == 0.0) == (intersects(a, b) or analytic <= 1e-9)
    assert min_distance(a.rotated(rotation), b.rotated(rotation)) == pytest.approx(analytic,
                                                                                   abs=1e-9)


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def tilted(mesh, rng):
    """``mesh`` under a random rotation about its box centre."""
    centre = 0.5 * (mesh.aabb[0] + mesh.aabb[1])
    return mesh.translated(-centre).rotated(random_rotation(rng)).translated(centre)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("scale", [1 - 1e-6, 1 + 1e-6])
def test_within_distance_at_epsilon_boundary_on_rotated_meshes(seed, scale):
    """Rotated boxes, face to face and corner to corner, at gaps just inside
    and just outside epsilon: the threshold query agrees with min_distance."""
    rng = np.random.default_rng(seed)
    eps = 0.01
    rotation = random_rotation(rng)
    box = box_mesh((0, 0, 0), (10, 10, 10))
    origin = rng.uniform(-50, 50, 3)
    a = box.transformed(rotation, origin)
    for step in (np.array([10.0, 0, 0]) + [eps * scale, 0, 0],
                 np.full(3, 10.0 + eps * scale / np.sqrt(3))):
        b = box.transformed(rotation, origin + rotation @ step)
        expected = scale < 1
        assert (min_distance(a, b) <= eps) == expected
        assert within_distance(a, b, eps) == within_distance(b, a, eps) == expected


@pytest.mark.parametrize("gap", [0.99, 1.01, 1.2, 1.5])
def test_within_distance_scans_past_its_first_batch_on_a_near_miss(monkeypatch, gap):
    """Two 256-segment cylinders side by side along the (+x, +y) diagonal,
    their walls ``gap`` times epsilon apart: just inside epsilon, or a near
    miss, whose triangles' boxes come within epsilon while none of its
    triangle pairs does. The threshold query agrees with ``min_distance``
    in both orders, and a near miss sends more than one first contact batch
    of candidate pairs to the distance kernel before it answers."""
    eps = 0.05
    rows, kernel = [], queries.triangle_pair_distance_sq
    monkeypatch.setattr(queries, "triangle_pair_distance_sq",
                        lambda a, b: rows.append(len(a)) or kernel(a, b))
    centre = (20 + 12 + gap * eps) / np.sqrt(2)
    left = revolve_mesh([(0, 0), (20, 0), (20, 30), (0, 30)], 256)
    right = revolve_mesh([(0, 0), (12, 0), (12, 25), (0, 25)], 256).translated((centre, centre, 0))
    near_miss = gap > 1
    for a, b in ((left, right), (right, left)):
        rows.clear()
        assert within_distance(a, b, eps) == (not near_miss)
        assert sum(rows) > queries._FIRST_CONTACT_ROWS or not near_miss
        assert (min_distance(a, b) <= eps) == (not near_miss)


# -- broad phase ----------------------------------------------------------------

def box_soup(rng, n: int, stretch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``n`` boxes on a coarse grid, so that faces, edges and corners touch
    often, scaled per axis by ``stretch``."""
    lo = rng.integers(-6, 6, (n, 3)).astype(float)
    hi = lo + rng.integers(0, 4, (n, 3))
    return lo * stretch, hi * stretch


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(0, 40), n_b=st.integers(0, 40),
       gap=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
       stretch=st.sampled_from([(1, 1, 1), (1, 1, 30), (0.1, 7, 1)]),
       unbounded=st.sampled_from([None, 0, 2]),
       budget=st.sampled_from(["one cell", "one row", 7, 200, None]),
       split=st.sampled_from([1, 3, None]))
@settings(max_examples=300, deadline=None)
def test_box_pair_stream_equals_dense_oracle(seed, n_a, n_b, gap, stretch, unbounded, budget,
                                             split):
    """The blocks of ``broad.box_pairs``, concatenated, are the dense
    oracle's pairs in the same row-major order, on box soups with a gap,
    stretched boxes, an empty side, probe-like boxes unbounded along one
    axis, block budgets down to one cell or one row of ``b``, and row
    ranges halved down to single rows. No dense test exceeds the budget."""
    rng = np.random.default_rng(seed)
    lo_a, hi_a = box_soup(rng, n_a, np.array(stretch, float))
    lo_b, hi_b = box_soup(rng, n_b, np.array(stretch, float))
    if unbounded is not None:
        lo_a[:, unbounded], hi_a[:, unbounded] = -np.inf, np.inf
    cells = {"one cell": 1, "one row": max(n_b, 1), None: broad.BLOCK_CELLS}.get(budget, budget)
    tested = []
    overlap = broad._overlap

    def counted(*boxes):
        tested.append(len(boxes[0]) * boxes[2].shape[1])
        return overlap(*boxes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(broad, "BLOCK_CELLS", cells)
        patch.setattr(broad, "SPLIT_ROWS", split or broad.SPLIT_ROWS)
        patch.setattr(broad, "_overlap", counted)
        blocks = list(broad.box_pairs(lo_a, hi_a, lo_b, hi_b, gap))
    i, j = broad.gather(iter(blocks))
    expected_i, expected_j = dense_box_pairs(lo_a, hi_a, lo_b, hi_b, gap)
    assert np.array_equal(i, expected_i) and np.array_equal(j, expected_j)
    assert all(len(bi) == len(bj) > 0 for bi, bj in blocks)
    assert max(tested, default=0) <= cells


# -- swept crossing intervals ---------------------------------------------------

def triangle_pair(kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """A static triangle and one near it: random, exactly coplanar (both in
    one axis plane), tilted off the static plane by about the touch
    tolerance, a near-sliver in that plane, or a needle whose corners are
    collinear in floating point, crossing an axis-plane static triangle at
    a tilt of a few tolerances."""
    if kind == "needle":
        plane = int(rng.integers(3))
        in_plane = [ax for ax in range(3) if ax != plane]
        center = rng.integers(-40, 41, 3).astype(float)
        a = np.tile(center, (3, 1))
        a[:, in_plane] += [[-3, -2], [3, -2], [0, 3]]
        direction = np.zeros(3)
        direction[in_plane] = rng.choice([-2, -1, 1, 2], 2)
        direction[plane] = -rng.choice([-3, 3]) * 2.0 ** -30
        steps = np.array([-1.0, 1.0, rng.integers(-2, 3) / 8])   # last one on the plane
        return a, center + steps[:, None] * direction
    center = rng.uniform(-50, 50, 3)
    a = center + rng.uniform(-2, 2, (3, 3))
    if kind == "random":
        return a, center + rng.uniform(-2, 2, (3, 3))
    if kind == "coplanar":
        b = center + rng.uniform(-2, 2, (3, 3))
        plane = rng.integers(3)
        a[:, plane] = b[:, plane] = center[plane]
        return a, b
    normal = np.cross(a[1] - a[0], a[2] - a[0])
    normal /= np.linalg.norm(normal)
    e = (a[1] - a[0]) / np.linalg.norm(a[1] - a[0])
    uv = rng.uniform(-1.5, 1.5, (3, 2))
    if kind == "sliver":
        uv[2] = uv[0] + rng.uniform(0.1, 0.9) * (uv[1] - uv[0])
    b = a.mean(axis=0) + uv[:, :1] * e + uv[:, 1:] * np.cross(normal, e)
    if kind == "sliver":
        b[2] += rng.choice([0.0, 1e-13, 1e-11, 1e-9]) * rng.normal(size=3)
    b += TOUCH_TOLERANCE_MM * rng.uniform(-3, 3, (3, 1)) * normal
    return a, b


def tetra_on(tri: np.ndarray) -> TriangleMesh:
    """Closed tetrahedron whose first face is ``tri``, corners in order, and
    whose apex lies behind it, so the winding is outward."""
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    length = np.linalg.norm(n)
    normal = n / length if length > 0 else np.array([0.6, 0.0, 0.8])
    apex = tri.mean(axis=0) - 0.7 * normal
    return TriangleMesh(np.vstack([tri, apex]), [[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]])


def straddle_flips(a: np.ndarray, b: np.ndarray, axis: int) -> list[float]:
    """Offsets of ``b`` along ``axis`` at which a vertex of either triangle
    sits at +-tolerance from the other's plane, where the straddle tests of
    ``proper_crossings`` flip."""
    flips = []
    for p, q, side in ((a, b, -1.0), (b, a, 1.0)):
        n = np.cross(q[1] - q[0], q[2] - q[0])
        length = np.linalg.norm(n)
        if length == 0 or n[axis] == 0:
            continue
        dist = (p - q[0]) @ n / length
        for sgn in (1.0, -1.0):
            flips.extend((sgn * TOUCH_TOLERANCE_MM - dist) / (side * n[axis] / length))
    return flips


def slid_in_plane(a: np.ndarray, b: np.ndarray, rng, n: int) -> np.ndarray:
    """Up to ``n`` copies of triangle ``b``, each slid within the plane of
    triangle ``a`` by up to 4 mm along two axes, keeping the copies whose
    boxes meet ``a``'s: each keeps its distances to ``a``'s plane, and many
    pass near an edge of ``a``."""
    normal = np.cross(a[1] - a[0], a[2] - a[0])
    normal /= np.linalg.norm(normal)
    e = (a[1] - a[0]) / np.linalg.norm(a[1] - a[0])
    uv = rng.uniform(-4, 4, (n, 2))
    slid = b[None] + uv[:, :1, None] * e + uv[:, 1:, None] * np.cross(normal, e)
    lo, hi = slid.min(axis=1), slid.max(axis=1)
    return slid[np.all((lo <= a.max(axis=0)) & (hi >= a.min(axis=0)), axis=1)]


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "coplanar", "tilted", "sliver", "needle"]))
@example(seed=7, kind="tilted")
@example(seed=24, kind="sliver")
@example(seed=2, kind="needle")
@settings(max_examples=150, deadline=None)
def test_proper_crossings_only_where_triangles_meet(seed, kind):
    """A pair that ``proper_crossings`` calls crossing shares a point in
    exact rational arithmetic: a vertex just off the other plane is not
    taken as a point of the cut, however far it lies from the planes' line.
    The pairs are slid within the static plane, so many come near its
    edges, where nearly parallel planes once stretched the cut."""
    rng = np.random.default_rng(seed)
    a, b = triangle_pair(kind, rng)
    slid = slid_in_plane(a, b, rng, 20)
    hit = proper_crossings(np.broadcast_to(a, slid.shape), slid)
    for tri in slid[hit]:
        assert exact_triangles_meet(a, tri), (a.tolist(), tri.tolist())


def pair_interval(a: np.ndarray, b: np.ndarray, axis: int) -> tuple[float, float, bool]:
    """``crossing_intervals`` of one static and one moving triangle, and
    whether both face axes fit their rounding bound (otherwise the pair
    keeps its whole box window)."""
    first = np.zeros(1, dtype=np.intp)
    kept, narrow = [], queries._narrow

    def recorded(*args):
        out = narrow(*args)
        kept.extend(out[2])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(queries, "_narrow", recorded)
        lo, hi = crossing_intervals(tetra_on(a), tetra_on(b), first, first, axis)
    return float(lo[0]), float(hi[0]), kept[0]


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "coplanar", "tilted", "sliver", "needle"]),
       swap=st.booleans())
@example(seed=880919, kind="tilted", swap=False)
@example(seed=2293695319, kind="tilted", swap=True)
@settings(max_examples=200, deadline=None)
def test_crossing_intervals_hold_every_crossing_offset(seed, kind, swap):
    """Every offset at which ``proper_crossings`` of the shifted pair is
    True lies in the pair's interval, probed a few ulps around each
    straddle flip and at random offsets of both signs. Unless the pair
    keeps its whole box window (a sliver or thin face), the interval lies
    in the exact rational one and is empty where that finds the pair
    disjoint or only touching (coplanar pairs included). And, on every
    kind, ``penetrates_along`` over a range blocks wherever a scan of every
    row at the range's samples does, and otherwise only where the exact
    interval of one of its pairs meets the range."""
    rng = np.random.default_rng(seed)
    a, b = triangle_pair(kind, rng)
    if swap:
        a, b = b, a
    axis = int(rng.integers(3))
    shift = rng.integers(-40, 41) / 8
    b = b.copy()
    b[:, axis] -= shift
    offsets = [rng.uniform(-6, 6, 8), shift + rng.uniform(-2, 2, 8)]
    for t in straddle_flips(a, b, axis):
        if np.isfinite(t) and abs(t) < 1e6:
            offsets.append(t + np.arange(-8, 9) * np.spacing(t))
    offsets = np.unique(np.concatenate(offsets))

    lo, hi, faces_kept = pair_interval(a, b, axis)
    shifted = np.repeat(b[None], len(offsets), axis=0)
    shifted[:, :, axis] += offsets[:, None]
    hit = proper_crossings(np.broadcast_to(a, shifted.shape), shifted)
    assert ((offsets[hit] > lo) & (offsets[hit] < hi)).all(), offsets[hit & ((offsets <= lo)
                                                                           | (offsets >= hi))]
    if faces_kept:
        exact = exact_crossing_interval(a, b, axis)
        if exact is None:
            assert lo >= hi or np.isnan(lo) or np.isnan(hi), (lo, hi)
        elif lo < hi:
            assert exact[0] <= lo and hi <= exact[1], ((lo, hi), exact)

    span = tuple(np.sort(rng.choice(offsets, 2)))
    assert_blocks_as_the_scan(tetra_on(a), tetra_on(b), axis, span,
                              offsets[(offsets >= span[0]) & (offsets <= span[1])])


def witnessed_probe(static, moving, axis, span) -> bool:
    """Whether ``rays.ray_containment`` puts a probe of either mesh, at any
    point of the list that ``penetrates_along`` tries, strictly inside the
    other at an offset of ``span``, confirmed by the winding number of the
    point it returns."""
    first, last = span
    for source, target, shift in ((moving, static, (first, last)),
                                  (static, moving, (-last, -first))):
        for points in (surface_probe_points(source),
                       *(surface_probe_points(source, w, 1e-6 * 2 ** (k + 1))
                         for k, w in enumerate(queries._PROBE_WEIGHTS))):
            at, _ = ray_containment(target, points, axis, points[:, axis] + shift[0],
                                    points[:, axis] + shift[1], 1 << 10)
            hit = ~np.isnan(at)
            points = points[hit]
            points[:, axis] = at[hit]
            if (winding_fraction(points, target.corners) > INSIDE_WINDING).any():
                return True
    return False


def assert_blocks_as_the_scan(static, moving, axis, span, samples) -> None:
    """``penetrates_along`` over ``span`` blocks wherever
    ``naive_penetrates_along`` at ``samples`` (offsets inside ``span``)
    does. Where it alone blocks, some triangle pair whose interval meets
    the range crosses in range by the exact reference, or a probe is inside
    the other solid at an offset of the range by the winding number."""
    blocked = penetrates_along(static, moving, axis, span)
    if naive_penetrates_along(static, moving, axis, samples):
        assert blocked
    elif blocked:
        si, mi = (g.ravel() for g in np.meshgrid(np.arange(len(static.corners)),
                                                 np.arange(len(moving.corners)), indexing="ij"))
        lo, hi = crossing_intervals(static, moving, si, mi, axis)
        exact = [exact_crossing_interval(static.corners[si[p]], moving.corners[mi[p]], axis)
                 for p in np.flatnonzero((lo < hi) & (lo < span[1]) & (hi > span[0]))]
        assert (any(e is not None and e[0] < span[1] and e[1] > span[0] for e in exact)
                or witnessed_probe(static, moving, axis, span)), span


def tetra_beside(tri: np.ndarray, axis: int, side: float) -> TriangleMesh | None:
    """``tetra_on`` the triangle, its corners in the order that keeps the
    apex out of the triangle's box on the ``side`` (+1 or -1) along
    ``axis``, so that the solid's box touches what the triangle's touches
    there; None when neither order does (a zero normal)."""
    end = tri[:, axis].max() if side > 0 else tri[:, axis].min()
    for corners in (tri, tri[[0, 2, 1]]):
        mesh = tetra_on(corners)
        if mesh.aabb[int(side > 0)][axis] == end:
            return mesh
    return None


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "coplanar", "tilted", "sliver", "needle"]),
       swap=st.booleans(), across=st.booleans(), above=st.booleans())
@settings(max_examples=200, deadline=None)
def test_touching_triangle_boxes_never_cross_in_range(seed, kind, swap, across, above):
    """A pair whose boxes only touch, on an axis across the sweep at any
    range, or along it at a range that ends at offset 0 and runs away from
    the touch: no offset of the closed range is in the exact crossing
    interval, and ``penetrates_along`` over the range does not block where
    ``naive_penetrates_along`` at its samples does not: no probe of either
    solid enters the other."""
    rng = np.random.default_rng(seed)
    a, b = triangle_pair(kind, rng)
    if swap:
        a, b = b, a
    axis = int(rng.integers(3))
    touch = int(rng.choice([ax for ax in range(3) if ax != axis])) if across else axis
    # the moving triangle above the static one along `touch`, or below it
    b = b.copy()
    if above:
        b[:, touch] += a[:, touch].max() - b[:, touch].min()
        b[:, touch] = np.maximum(b[:, touch], a[:, touch].max())
        b[np.argmin(b[:, touch]), touch] = a[:, touch].max()
    else:
        b[:, touch] += a[:, touch].min() - b[:, touch].max()
        b[:, touch] = np.minimum(b[:, touch], a[:, touch].min())
        b[np.argmax(b[:, touch]), touch] = a[:, touch].min()
    side = 1.0 if above else -1.0
    static, moving = tetra_beside(a, touch, side), tetra_beside(b, touch, -side)
    assume(static is not None and moving is not None)
    if across:
        span = tuple(np.sort(rng.choice([0.0, *rng.uniform(-6, 6, 2)], 2, replace=False)))
    else:
        span = tuple(sorted((0.0, side * rng.choice([0.0, rng.uniform(0, 6)]))))

    exact = exact_crossing_interval(a, b, axis)
    assert exact is None or exact[1] <= span[0] or exact[0] >= span[1], (exact, span)
    samples = np.linspace(*span, 9)
    if not naive_penetrates_along(static, moving, axis, samples):
        assert not penetrates_along(static, moving, axis, span)


def test_face_to_face_and_edge_to_edge_boxes_never_cross_apart():
    """Boxes touching face to face (on top, on a side) or edge to edge, and
    every triangle pair of them along every axis: the pairs cross only
    where the moving box is pushed into the other one, so no interval
    meets the offsets that slide or lift it, and none holds 0, where the
    boxes only touch. The exact reference agrees on a sample of the
    pairs."""
    lower = box_mesh((0, 0, 0), (4, 4, 4))
    si, mi = (g.ravel() for g in np.meshgrid(np.arange(12), np.arange(12), indexing="ij"))
    for upper, into in ((box_mesh((1, 1, 4), (3, 5, 6)), 2), (box_mesh((4, 1, 1), (6, 3, 3)), 0),
                        (box_mesh((4, 4, 0), (6, 6, 4)), None)):
        for axis in range(3):
            lo, hi = crossing_intervals(lower, upper, si, mi, axis)
            crossing = lo < hi
            if axis == into:
                assert crossing.any() and (hi[crossing] <= 0).all()
            else:
                assert not crossing.any()
            for p in range(0, len(si), 11):
                exact = exact_crossing_interval(lower.corners[si[p]], upper.corners[mi[p]], axis)
                assert (exact is None) == (not crossing[p])
                assert exact is None or exact[1] <= 0


def test_penetrates_along_without_offsets_is_false():
    """An empty range, no offsets, has nothing to penetrate, even for
    solids that overlap; the kernel takes an empty candidate list, and a
    range of one offset is the intersection test."""
    static = box_mesh((0, 0, 0), (2, 2, 2))
    moving = box_mesh((1, 1, 1), (3, 3, 3))
    assert intersects(static, moving)
    for axis in range(3):
        assert not penetrates_along(static, moving, axis, (1.0, 0.0))
        assert penetrates_along(static, moving, axis, (0.0, 0.0))
    none = np.zeros(0, dtype=np.intp)
    lo, hi = crossing_intervals(static, moving, none, none, 0)
    assert lo.shape == hi.shape == (0,)


def tiled_floor_with_blocker(tiles: int) -> tuple[TriangleMesh, TriangleMesh, TriangleMesh]:
    """A floor of ``tiles`` x ``tiles`` unit boxes, the same floor with a
    post past its +x end as the last component, and a slab resting on the
    floor that covers it, all sheared by ``SHEAR_Z_BY_Y``: the resting
    faces are tilted, so the boxes of the slab's and the tiles' triangles
    share interior across x. The post is taller than the slab and narrow in
    y, so no probe of either lies inside the other when the slab runs into
    it: only crossings block."""
    boxes = [box_mesh((x, y, 0), (x + 1, y + 1, 1)) for x in range(tiles) for y in range(tiles)]
    blocker = box_mesh((tiles + 2, 5, 0), (tiles + 4, 6, 10))
    slab = box_mesh((0, 0, 1), (tiles, tiles, 2))
    return tuple(m.rotated(SHEAR_Z_BY_Y)
                 for m in (compound_mesh(*boxes), compound_mesh(*boxes, blocker), slab))


def test_blocked_sweep_finds_a_crossing_past_the_first_batch(monkeypatch):
    """The crossing candidate pairs of a blocked sweep all come after more
    than ``_FIRST_BATCH_ROWS`` non-crossing ones in row-major order, whose
    boxes share interior: a slab slides along a tilted tiled floor it rests
    on into a post past the floor's end. The scan still reports it blocked,
    as a scan of every row does; the same sweep without the post is free,
    and without crossings nothing blocks it."""
    floor, blocked_floor, slab = tiled_floor_with_blocker(20)
    offsets = np.linspace(0.5, 5.0, 10)
    span = (0.5, 5.0)
    for static, expected in ((floor, False), (blocked_floor, True)):
        assert penetrates_along(static, slab, 0, span) is expected
        assert naive_penetrates_along(static, slab, 0, offsets) is expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(queries, "_crosses_at", lambda *args: False)
        patch.setattr(queries, "_crosses_in", lambda *args: False)
        assert not penetrates_along(blocked_floor, slab, 0, span)

    sent, intervals = [], queries.crossing_intervals

    def recorded(*args):
        lo, hi = intervals(*args)
        sent.append((lo < hi) & (lo < span[1]) & (hi > span[0]))
        return lo, hi

    monkeypatch.setattr(queries, "crossing_intervals", recorded)
    assert penetrates_along(blocked_floor, slab, 0, span)
    crossing = np.flatnonzero(np.concatenate(sent))
    assert len(crossing) and crossing.min() > queries._FIRST_BATCH_ROWS


def test_small_blocked_sweep_is_decided_at_box_window_middles(monkeypatch):
    """Counter: a box pushed down through another, 144 candidate pairs,
    fewer than one first batch, crosses at the middles of the pairs' box
    windows, so the interval kernel is never called. A box sliding on top
    of the other, whose triangles' boxes only touch across the sweep, has
    no candidates; sheared so that the faces it slides on are tilted, it
    has candidates but no crossing, and reaches the kernel."""
    static = box_mesh((0, 0, 0), (4, 4, 4))
    sent, intervals = [], queries.crossing_intervals
    monkeypatch.setattr(queries, "crossing_intervals",
                        lambda *args: sent.append(len(args[2])) or intervals(*args))
    above = box_mesh((1, 1, 6), (3, 3, 8))
    assert penetrates_along(static, above, 2, (-10.0, -0.5))
    assert sent == []
    resting = box_mesh((1, 1, 4), (3, 3, 6))
    assert not penetrates_along(static, resting, 0, (0.5, 10.0))
    assert sent == []
    tilted = (m.rotated(SHEAR_Z_BY_Y) for m in (static, resting))
    assert not penetrates_along(*tilted, 0, (0.5, 10.0))
    assert sent and sum(sent) < queries._FIRST_CROSSING_ROWS


def test_long_scan_ending_on_a_short_batch_skips_the_box_window_middles(monkeypatch):
    """Counter: a slab sliding along a tilted floor of 12 x 12 tiles, free,
    whose crossing scan runs five batches and ends on one of 2 pairs, under
    ``_FIRST_CROSSING_ROWS``, never tries the box-window middles, which
    only a stream that is one short batch as a whole gets: with no
    interval meeting the range, no offset at all is tried."""
    floor, _, slab = tiled_floor_with_blocker(12)
    sizes, batches = [], broad.batches

    def recorded(blocks, first, last):
        for batch in batches(blocks, first, last):
            if first == queries._FIRST_CROSSING_ROWS:
                sizes.append(len(batch[0]))
            yield batch

    def forbidden(*args):
        raise AssertionError("an offset was tried")

    monkeypatch.setattr(broad, "batches", recorded)
    monkeypatch.setattr(queries, "_crosses_at", forbidden)
    assert not penetrates_along(floor, slab, 0, (0.5, 5.0))
    assert len(sizes) == 5 and 0 < sizes[-1] < queries._FIRST_CROSSING_ROWS


def test_sliver_pair_keeps_its_whole_box_range():
    """A moving sliver, its apex 1e-12 mm off the line of its other two
    corners, all 1 mm or more off the static plane, never straddles it.
    Yet the rounding bound of its near-zero normal exceeds half the
    tolerance, so the pair keeps its whole box window along z, where
    ``proper_crossings`` decides it; the same pair with a fat moving
    triangle gets an empty interval."""
    a = np.array([[0.0, -3.0, -3.0], [0.0, 3.0, -3.0], [0.0, 0.0, 3.0]])
    offsets = np.linspace(-4.0, 4.0, 33)
    for apex, sliver in (([1.5, 1e-12, 0.5], True), ([1.5, 2.0, 0.5], False)):
        b = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0], apex])
        lo, hi, faces_kept = pair_interval(a, b, 2)
        assert faces_kept != sliver
        if sliver:
            assert lo == pytest.approx(-4.0, abs=1e-12) and hi == pytest.approx(3.0, abs=1e-12)
        else:
            assert not lo < hi
        shifted = np.repeat(b[None], len(offsets), axis=0)
        shifted[:, :, 2] += offsets[:, None]
        assert not proper_crossings(np.broadcast_to(a, shifted.shape), shifted).any()
        assert not penetrates_along(tetra_on(a), tetra_on(b), 2, (-4.0, 4.0))


def test_golden_search_confirms_a_crossing_that_its_ends_and_middle_miss():
    """A static sliver 2e-6 mm wide and a moving triangle swept along z:
    the pair keeps its whole box window, about (0, 10) mm, and
    ``proper_crossings`` holds on about [0.0001, 1.923] mm only. The
    window's ends and middle miss that, so only the golden-section search
    of ``_crosses_in`` finds the crossing; no test of the five
    ``triangle_pair`` kinds or of random sliver sweeps needs it."""
    a = np.array([[10.0, -1e-6, 0.0], [12.0, -1e-6, 0.0], [11.0, 1e-6, 0.0]])
    b = np.array([[0.0, 0.0, -10.0], [0.0, 0.0, 0.0], [13.0, 0.0, 0.0]])
    static, moving, i = tetra_on(a), tetra_on(b), np.array([0])
    lo, hi = queries.crossing_intervals(static, moving, i, i, 2)
    assert abs(lo[0]) < 1e-12 and abs(hi[0] - 10.0) < 1e-12
    for t in (lo, hi, 0.5 * (lo + hi)):
        assert not queries._crosses_at(static, moving, i, i, 2, t)
    assert queries._crosses_at(static, moving, i, i, 2, np.array([1.0]))
    assert queries._crosses_in(static, moving, i, i, 2, lo, hi)


@pytest.mark.parametrize("mesh", [*slotted_sheet(0.1), box_mesh((0, 0, 0), (100, 100, 1e-5)),
                                  box_mesh((100, 0, 0), (200, 100, 1e-5))],
                         ids=["c_part", "sheet", "thin_base", "thin_plate"])
def test_every_probe_lies_inside_its_own_solid(mesh):
    """Every probe, at its face's centroid or moved to another point of its
    face, lies strictly inside its own solid by the winding number, also
    on parts thinner than the probe's pull: a 0.1 mm sheet, whose largest
    face's probe would be pulled 0.128 mm, and 1e-5 mm plates, whose
    face probes would be pulled 1.4e-4 mm or more. The pull is cut short,
    not the probe dropped."""
    sets = [surface_probe_points(mesh), *(surface_probe_points(mesh, w, 1e-6 * 2 ** (k + 1))
                                          for k, w in enumerate(queries._PROBE_WEIGHTS))]
    for points in sets:
        assert len(points) == len(mesh.triangles) + 1
        assert (winding_fraction(points, mesh.corners) > INSIDE_WINDING).all()


def test_probe_points_computed_once_per_mesh(monkeypatch):
    """Counter, not timing: building the proxy, whose interpenetration
    check computes probes, and a whole plan on it compute each mesh's
    containment probes once, and the kept arrays are read-only and
    bit-identical to a fresh computation."""
    computed = []
    original = queries.surface_probe_points

    def counted(mesh):
        computed.append(mesh)
        return original(mesh)

    monkeypatch.setattr(queries, "surface_probe_points", counted)
    assembly = proxy_assembly()
    plan = configure_fixing_parts(assembly, AssemblySequence.parse("motor,plate,bolts"))
    assert plan.complete
    assert computed and len({id(mesh) for mesh in computed}) == len(computed)
    for mesh in computed:
        probes = queries._probe_points(mesh)
        assert not probes.flags.writeable
        assert probes.tobytes() == original(mesh).tobytes()


# -- containment by ray crossings -------------------------------------------------

def ray_target(kind: str, rng) -> TriangleMesh:
    """A closed target: an axis-aligned or rotated box, a solid of
    revolution (faces parallel to one axis), two overlapping boxes in one
    mesh (winding number 2 where they overlap), a welded union of boxes
    sharing a face and an edge (directed edges that occur twice, each as
    often as its reverse) or an inward-wound copy of one of those; or an
    "open" one, with two triangles removed."""
    if kind == "box":
        lo = rng.integers(-8, 0, 3)
        mesh = box_mesh(lo, lo + rng.integers(1, 9, 3))
        return mesh if rng.random() < 0.5 else mesh.rotated(random_rotation(rng))
    if kind == "revolve":
        heights = np.sort(rng.choice(np.arange(-6, 7), 4, replace=False))
        radii = rng.integers(1, 6, 2)
        mesh = revolve_mesh([(0, heights[0]), (radii[0], heights[1]), (radii[1], heights[2]),
                             (0, heights[3])], segments=int(rng.integers(3, 13)))
        return mesh if rng.random() < 0.5 else mesh.rotated(random_rotation(rng))
    if kind == "overlap":
        lo = rng.integers(-6, 0, (2, 3))
        return compound_mesh(*(box_mesh(l, l + rng.integers(3, 7, 3)) for l in lo))
    if kind == "welded":
        # a box, one sharing its whole face and one sharing only its edge,
        # welded by an STL round trip
        lo, size = rng.integers(-6, 0, 3), rng.integers(1, 5, 3)
        ax = int(rng.integers(3))
        face, edge = np.zeros(3, dtype=int), np.zeros(3, dtype=int)
        face[ax] = edge[ax] = size[ax]
        edge[(ax + 1) % 3] = size[(ax + 1) % 3]
        mesh = compound_mesh(*(box_mesh(lo + s, lo + s + size) for s in (0 * face, face, -edge)))
        with tempfile.TemporaryDirectory() as tmp:
            save_stl_binary(mesh, Path(tmp) / "welded.stl")
            mesh = load_mesh(Path(tmp) / "welded.stl")
        return mesh if rng.random() < 0.5 else mesh.rotated(random_rotation(rng))
    if kind == "inward":
        mesh = ray_target(str(rng.choice(["box", "revolve", "overlap", "welded"])), rng)
        return TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1])
    # not welded: taking out its two coincident faces of opposite
    # orientation would leave it closed
    mesh = ray_target(str(rng.choice(["box", "revolve", "overlap"])), rng)
    drop = rng.choice(len(mesh.triangles), 2, replace=False)
    return TriangleMesh(mesh.vertices, np.delete(mesh.triangles, drop, axis=0))


def naive_unbalanced_edges(mesh: TriangleMesh) -> int:
    """``|#(u, v) - #(v, u)|`` summed over each pair of vertices {u, v},
    counted edge by edge."""
    directed = Counter((int(u), int(v)) for tri in mesh.triangles
                       for u, v in zip(tri, np.roll(tri, -1)))
    pairs = {(min(u, v), max(u, v)) for u, v in directed}
    return sum(abs(directed[u, v] - directed[v, u]) for u, v in pairs)


def nudged(x: np.ndarray, rng) -> np.ndarray:
    """``x`` moved by a few ulps in one random coordinate."""
    x = x.copy()
    ax = rng.integers(x.shape[-1])
    x[..., ax] += rng.integers(-3, 4, len(x)) * np.spacing(x[..., ax])
    return x


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["box", "revolve", "overlap", "welded", "inward", "open"]),
       axis=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_ray_containment_matches_winding_number(seed, kind, axis):
    """Per probe line and closed range of its coordinate along the line:
    where ``ray_containment`` finds the probe inside, the coordinate it
    returns is in the range and the winding number there is inside; and
    at random offsets in the range and at its ends, wherever the point is
    more than 1e-5 from the surface and the winding number puts it inside,
    the line is found inside or marked near an edge. The kernel refuses an
    open target, whose unbalanced edges are counted edge by edge. Probes
    sit at random, exactly on vertices, edges and faces of the target, and
    a few ulps off them, so that many lines pass near projected edges;
    range ends sit at random, at vertex heights and a few ulps off those.
    And ``penetrates_along`` blocks wherever a scan of every row does, and
    otherwise only on an exact crossing or a probe the winding number puts
    inside."""
    rng = np.random.default_rng(seed)
    target = ray_target(kind, rng)
    corners = target.corners
    lo, hi = target.aabb
    tri = corners[rng.integers(len(corners), size=12)]
    weights = rng.dirichlet(np.ones(3), 12)
    on_surface = np.vstack([
        target.vertices,
        (tri[:, 0] + tri[:, 1]) / 2,
        tri[:, 0] + rng.random((12, 1)) * (tri[:, 2] - tri[:, 0]),
        np.einsum("pk,pkj->pj", weights, tri),
    ])
    probes = np.vstack([on_surface, nudged(on_surface, rng), rng.uniform(lo, hi, (12, 3))])
    heights = np.concatenate([target.vertices[:, axis], rng.uniform(lo[axis], hi[axis], 8)])
    heights = np.concatenate([heights, nudged(heights[:, None], rng)[:, 0]])
    ends = np.sort(rng.choice(heights, (len(probes), 2)), axis=1)
    single = rng.random(len(probes)) < 0.25
    ends[single, 1] = ends[single, 0]

    assert unbalanced_edges(target) == naive_unbalanced_edges(target)
    assert (unbalanced_edges(target) == 0) == (kind != "open")
    moving = ray_target(str(rng.choice(["box", "revolve", "overlap"])), rng)
    moving = moving.translated(rng.uniform(-0.5, 0.5, 3))
    offsets = rng.uniform(-12, 12, 6)
    if kind == "open":
        with pytest.raises(DegenerateMeshError, match="not match their reverses"):
            penetrates_along(target, moving, axis, (-12.0, 12.0))
        return
    at, near = ray_containment(target, probes, axis, ends[:, 0], ends[:, 1], 1 << 10)
    hit = ~np.isnan(at)
    assert not (hit & near).any()
    assert ((ends[hit, 0] <= at[hit]) & (at[hit] <= ends[hit, 1])).all()
    points = probes[hit]
    points[:, axis] = at[hit]
    assert (winding_fraction(points, corners) > INSIDE_WINDING).all()
    # random offsets of each range, and its ends
    share = np.hstack([np.zeros((len(probes), 1)), rng.random((len(probes), 6)),
                       np.ones((len(probes), 1))])
    pi = np.repeat(np.arange(len(probes)), share.shape[1])
    points = probes[pi]
    points[:, axis] = (ends[:, :1] + share * (ends[:, 1:] - ends[:, :1])).ravel()
    surface = naive_point_triangle_distance_sq(np.repeat(points, len(corners), axis=0),
                                               np.tile(corners, (len(points), 1, 1)))
    far = surface.reshape(len(points), -1).min(axis=1) > 1e-10
    inside = winding_fraction(points, corners) > INSIDE_WINDING
    assert (hit | near)[pi[inside & far]].all()

    # the moving target is off the integer grid: a probe exactly on the
    # other surface has a degenerate winding number, which the oracle counts
    # and the kernel's strict box crop drops
    offsets.sort()
    assert_blocks_as_the_scan(target, moving, axis, (offsets[0], offsets[-1]), offsets)


def test_rays_decide_rows_beside_walls_parallel_to_the_axis():
    """Counter: inside a revolved part whose side wall runs along the
    sweep axis, every probe line that passes no projected edge or corner
    is decided by the rays, although the wall triangles' projected boxes
    hold many of the probes, and at each single offset the answer is the
    winding number's. A wall edge parallel to the axis projects to a point
    and marks only probes within ``tol`` of it."""
    target = revolve_mesh([(0, 0), (10, 0), (10, 20), (0, 20)], 8)
    rng = np.random.default_rng(0)
    radius, angle = 9.9 * np.sqrt(rng.random(200)), rng.uniform(0, 2 * np.pi, 200)
    probes = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                              rng.uniform(1, 19, 200)])
    points = np.repeat(probes, 4, axis=0)
    points[:, 2] = rng.uniform(1, 19, len(points))
    at, near = ray_containment(target, points, 2, points[:, 2], points[:, 2], 1 << 10)
    inside = ~np.isnan(at)
    assert not near.any()
    assert np.array_equal(inside, winding_fraction(points, target.corners) > INSIDE_WINDING)
    assert np.array_equal(at[inside], points[inside, 2])
    assert 0 < inside.sum() < len(points)


def count_rechosen(monkeypatch) -> list:
    """Wraps ``queries.surface_probe_points``; the returned list gets, per
    call that moves probes off their face's centroid, the index in
    ``_PROBE_WEIGHTS`` of the point they move to."""
    calls = []
    original = queries.surface_probe_points

    def counted(mesh, weights=None, depth=1e-6, which=None):
        if weights is not None:
            calls.append(next(k for k, w in enumerate(queries._PROBE_WEIGHTS)
                              if np.array_equal(w, weights)))
        return original(mesh, weights, depth, which)

    monkeypatch.setattr(queries, "surface_probe_points", counted)
    return calls


def test_rays_decide_most_proxy_containment_rows(monkeypatch):
    """Counter, no timing: a proxy plan moves no probe off its face's
    centroid, since no probe line passes near a projected edge, and its
    plan is the one made with every probe moved to the first other point
    of its face."""
    calls = count_rechosen(monkeypatch)
    sequence = AssemblySequence.parse("motor,plate,bolts")
    plan = configure_fixing_parts(proxy_assembly(), sequence).to_json_dict()
    assert calls == []
    moved = queries.PerMesh(lambda mesh: surface_probe_points(mesh, queries._PROBE_WEIGHTS[0]))
    monkeypatch.setattr(queries, "_probe_points", moved)
    assert configure_fixing_parts(proxy_assembly(), sequence).to_json_dict() == plan


def side_by_side_cylinders(segments: int, bands: int) -> tuple[TriangleMesh, TriangleMesh]:
    """Two cylinders side by side: r 25, z 0-40 at the origin, and r 12,
    z 0-30 with its axis 39 mm away along the (+x, +y) diagonal, each side
    wall cut into ``bands`` rings. The small one's probe heights coincide
    with the large one's ring heights, so probe lines along x and y pass
    through projected ring edges."""
    def cylinder(radius, height):
        wall = [(radius, height * k / bands) for k in range(bands + 1)]
        return revolve_mesh([(0, 0), *wall, (0, height)], segments)
    offset = 39 / np.sqrt(2)
    return cylinder(25, 40), cylinder(12, 30).translated((offset, offset, 0))


def side_by_side_assembly() -> AssemblyModel:
    big, small = side_by_side_cylinders(64, 3)
    return AssemblyModel((PartModel("big", big, 1.0), PartModel("small", small, 1.0)))


def side_by_side_flags(monkeypatch, assembly=None) -> tuple[dict, list]:
    """The interference-free flags of the (64, 3) side-by-side cylinders,
    or of ``assembly``, built beforehand, with the small one moving, then
    fixed, and the probe moves made."""
    calls = count_rechosen(monkeypatch)
    assembly = assembly or side_by_side_assembly()
    free = compute_relation_matrices(assembly).interference_free
    return {d.value: (bool(free[d][0, 1]), bool(free[d][1, 0])) for d in free}, calls


def test_rechosen_probes_decide_side_by_side_cylinders(monkeypatch):
    """Counter: on two side-by-side cylinders, whose probe lines graze the
    other's ring edges, the probes on those lines move once, to the first
    other point of their face, where every line is decided, and the
    matrices are the hand-derived ones: the small one runs into the large
    one along -x and -y, the large one into the small one along +x and +y."""
    flags, calls = side_by_side_flags(monkeypatch)
    assert calls and set(calls) == {0}
    for d, (small_moving, big_moving) in flags.items():
        assert small_moving == (d not in ("-x", "-y"))
        assert big_moving == (d not in ("+x", "+y"))


def test_a_probe_near_an_edge_at_every_point_counts_as_inside(monkeypatch):
    """With no other point of a face to move to, a probe line that passes
    near a projected edge counts as inside: the side-by-side cylinders,
    whose grazing lines block nothing once moved, lose free directions and
    gain none. They are built first: building them checks them at offset
    0, where those lines count as inside too, and refuses the pair."""
    expected, _ = side_by_side_flags(monkeypatch)
    assembly = side_by_side_assembly()
    monkeypatch.setattr(queries, "_PROBE_WEIGHTS", queries._PROBE_WEIGHTS[:0])
    with pytest.raises(PartError, match="parts 'big' and 'small' interpenetrate"):
        side_by_side_assembly()
    flags, calls = side_by_side_flags(monkeypatch, assembly)
    assert calls == []
    lost = [(d, k) for d in flags for k in (0, 1) if expected[d][k] and not flags[d][k]]
    gained = [(d, k) for d in flags for k in (0, 1) if flags[d][k] and not expected[d][k]]
    assert lost and not gained


def test_probes_resting_on_a_face_within_tol_move_deeper(monkeypatch):
    """Counter: the tunnel moved 1e5 mm along x, where the target's ``tol``
    (1e-4 mm) exceeds the 1e-6 of the diagonal that the slider's probes are
    pulled in by: the lines of the probes on the face that rests on the
    floor pass within ``tol`` of the floor's projected face at every point
    of that depth, and are decided only once a move pulls them deeper. The
    slider still leaves only along +x, as it does at the origin."""
    calls = count_rechosen(monkeypatch)
    shifted = AssemblyModel(tuple(PartModel(p.id, p.mesh.translated((1e5, 0, 0)), p.mass)
                                  for p in tunnel_assembly().parts))
    free = compute_relation_matrices(shifted).interference_free
    assert max(calls) >= 1
    for d in free:
        assert free[d][0, 1] == (d.value == "+x"), d


def test_rays_decide_every_cli_proxy_containment_row(monkeypatch, tmp_path):
    """Counter: a proxy plan from the STL files that ``softjig fixtures``
    writes, whose welded plate repeats directed edges, moves no probe off
    its face's centroid."""
    calls = count_rechosen(monkeypatch)
    assert main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    plate = load_mesh(tmp_path / "plate.stl")
    tail, head = plate.triangles.ravel(), np.roll(plate.triangles, -1, axis=1).ravel()
    assert len(np.unique(tail * len(plate.vertices) + head)) < len(tail)
    assert main(["plan", str(tmp_path / "assembly.json"), "--sequence", "motor,plate,bolts",
                 "--out", str(tmp_path / "plan.json")]) == 0
    assert calls == []


def test_no_probe_moves_on_the_fixture_sets(monkeypatch, proxy, peg, cube_stacks):
    """Counter: the matrices of the proxy, the peg, the tunnel, the cube
    stacks and two stacked cylinders move no probe off its face's
    centroid, so the fallback that counts a probe near an edge at every
    point as inside is never reached on them."""
    calls = count_rechosen(monkeypatch)
    cylinders = AssemblyModel((
        PartModel("lower", revolve_mesh([(0, 0), (20, 0), (20, 30), (0, 30)], 256), 1.0),
        PartModel("upper", revolve_mesh([(0, 30), (17, 30), (17, 60), (0, 60)], 256), 1.0)))
    for assembly in (proxy, peg, tunnel_assembly(), *cube_stacks, cylinders):
        compute_relation_matrices(assembly)
    assert calls == []


def open_plate() -> TriangleMesh:
    """The proxy plate with its first two triangles taken out: 4 directed
    edges lose their reverses."""
    plate = proxy_assembly().part("plate").mesh
    return TriangleMesh(plate.vertices, plate.triangles[2:])


def test_kernel_refuses_an_open_mesh_on_either_side():
    """``intersects`` and ``penetrates_along`` raise for an open mesh on
    either side, whose box culls and ray containment would not hold, even
    at offsets where a closed pair would be answered at once."""
    plate, motor = open_plate(), proxy_assembly().part("motor").mesh
    assert unbalanced_edges(plate) == naive_unbalanced_edges(plate) == 4
    for static, moving in ((plate, motor), (motor, plate)):
        with pytest.raises(DegenerateMeshError, match="4 directed edges"):
            intersects(static, moving)
        for span in ((0.0, 5.0), (1.0, 0.0)):
            with pytest.raises(DegenerateMeshError, match="4 directed edges"):
                penetrates_along(static, moving, 2, span)


def test_winding_classifies_inside_outside():
    cube = unit_cube()
    pts = np.array([
        [0.5, 0.5, 0.5],    # inside
        [2.0, 0.5, 0.5],    # outside
        [0.5, 0.5, 1.5],    # outside above
    ])
    w = winding_fraction(pts, cube.corners)
    assert w[0] > 0.9
    assert abs(w[1]) < 0.1 and abs(w[2]) < 0.1


def test_winding_multi_component():
    pair = generate_proxy_fixture("bolt-pair").mesh
    inside_a = np.array([[-9.0, 0.0, 45.5]])   # inside one bolt head
    between = np.array([[0.0, 0.0, 45.5]])     # between the bolts
    assert winding_fraction(inside_a, pair.corners)[0] > 0.9
    assert abs(winding_fraction(between, pair.corners)[0]) < 0.1
