import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import min_distance_brute_force

from softjig.fixtures import box_mesh, generate_proxy_fixture
from softjig.queries import (
    intersects,
    min_distance,
    point_triangle_distance_sq,
    proper_crossings,
    triangle_pair_distance_sq,
    winding_fraction,
    within_distance,
)

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


def test_bvh_matches_brute_force_on_fixture_meshes():
    meshes = {k: generate_proxy_fixture(k).mesh for k in
              ("motor", "plate", "bolt-pair", "peg", "blind-hole-base")}
    for (na, a), (nb, b) in itertools.combinations(meshes.items(), 2):
        assert min_distance(a, b) == min_distance_brute_force(a, b), (na, nb)


def test_proxy_assembled_contacts_have_zero_distance():
    motor = generate_proxy_fixture("motor").mesh
    plate = generate_proxy_fixture("plate").mesh
    bolts = generate_proxy_fixture("bolt-pair").mesh
    for a, b in [(motor, plate), (motor, bolts), (plate, bolts)]:
        assert min_distance_brute_force(a, b) == 0.0


def test_overlapping_cubes_intersect():
    assert intersects(unit_cube(), unit_cube().translated((0.5, 0, 0)))


def test_kissing_contact_does_not_intersect():
    assert not intersects(unit_cube(), unit_cube().translated((1.0, 0, 0)))
    assert not intersects(unit_cube(), unit_cube().translated((0, 0, 1.0)))


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
    assume(triangle_area(tri) > 1e-6)
    tri_arr = np.array([tri], dtype=float)
    p_arr = np.array([p], dtype=float)
    d = float(np.sqrt(point_triangle_distance_sq(p_arr, tri_arr)[0]))
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


def test_point_triangle_distance_degenerate_needle():
    # coincident vertices collapse the triangle to a segment; the vertex
    # fallback still reports the touching point
    tri = np.array([[[1, 0, 0], [1, 0, 0], [0, 0, 0]]], dtype=float)
    p = np.array([[0.0, 0.0, 0.0]])
    assert point_triangle_distance_sq(p, tri)[0] == 0.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_triangle_pair_distance_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3, 3, (4, 3, 3))
    b = rng.uniform(-3, 3, (4, 3, 3))
    assert np.array_equal(triangle_pair_distance_sq(a, b), triangle_pair_distance_sq(b, a))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_min_distance_matches_brute_force_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    lo_a, hi_a = rng.uniform(-5, 0, 3), rng.uniform(0.5, 5, 3)
    off = rng.uniform(-8, 8, 3)
    lo_b, hi_b = rng.uniform(-5, 0, 3) + off, rng.uniform(0.5, 5, 3) + off
    a = box_mesh(lo_a, hi_a)
    b = box_mesh(lo_b, hi_b)
    d = min_distance(a, b)
    assert d == min_distance_brute_force(a, b)
    assert d == min_distance(b, a)
    # analytic oracle: for axis-aligned boxes the distance is the norm of
    # the per-axis gaps, and d == 0 exactly when they touch or overlap
    gaps = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
    analytic = float(np.linalg.norm(gaps))
    assert d == pytest.approx(analytic, abs=1e-9)
    assert (d == 0.0) == (intersects(a, b) or analytic <= 1e-9)


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


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
