import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjig.fixtures import FIXTURE_AABBS, box_mesh, generate_proxy_fixture
from softjig.mesh import (
    DegenerateMeshError,
    MeshParseError,
    TriangleMesh,
    load_mesh,
    save_obj,
    save_stl_ascii,
    save_stl_binary,
    weld_vertices,
)

UNIT_CUBE_ASCII_STL = """solid cube
""" + "".join(
    f"""  facet normal 0 0 0
    outer loop
      vertex {v0}
      vertex {v1}
      vertex {v2}
    endloop
  endfacet
"""
    for v0, v1, v2 in [
        ("0 0 0", "1 1 0", "1 0 0"), ("0 0 0", "0 1 0", "1 1 0"),
        ("0 0 1", "1 0 1", "1 1 1"), ("0 0 1", "1 1 1", "0 1 1"),
        ("0 0 0", "1 0 0", "1 0 1"), ("0 0 0", "1 0 1", "0 0 1"),
        ("1 0 0", "1 1 0", "1 1 1"), ("1 0 0", "1 1 1", "1 0 1"),
        ("1 1 0", "0 1 0", "0 1 1"), ("1 1 0", "0 1 1", "1 1 1"),
        ("0 1 0", "0 0 0", "0 0 1"), ("0 1 0", "0 0 1", "0 1 1"),
    ]
) + "endsolid cube\n"


def test_ascii_stl_unit_cube(tmp_path):
    path = tmp_path / "cube.stl"
    path.write_text(UNIT_CUBE_ASCII_STL)
    mesh = load_mesh(path, fmt="stl-ascii")
    assert len(mesh.vertices) == 8
    assert len(mesh.triangles) == 12
    assert mesh.signed_volume() == pytest.approx(1.0)


def test_ascii_stl_autodetect(tmp_path):
    path = tmp_path / "cube.stl"
    path.write_text(UNIT_CUBE_ASCII_STL)
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 12


def test_binary_stl_zero_triangles_is_degenerate(tmp_path):
    path = tmp_path / "empty.stl"
    path.write_bytes(b"\x00" * 80 + struct.pack("<I", 0))
    with pytest.raises(DegenerateMeshError):
        load_mesh(path, fmt="stl-binary")


def test_binary_stl_truncated_is_parse_error(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_bytes(b"\x00" * 80 + struct.pack("<I", 5) + b"\x00" * 10)
    with pytest.raises(MeshParseError):
        load_mesh(path, fmt="stl-binary")


def test_ascii_stl_bad_vertex_is_parse_error(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_text("solid x\nfacet\nvertex 1 2\nendsolid x\n")
    with pytest.raises(MeshParseError):
        load_mesh(path, fmt="stl-ascii")


def test_non_finite_coordinates_rejected(tmp_path):
    text = UNIT_CUBE_ASCII_STL.replace("vertex 0 0 0", "vertex nan 0 0", 1)
    path = tmp_path / "nan.stl"
    path.write_text(text)
    with pytest.raises(DegenerateMeshError):
        load_mesh(path, fmt="stl-ascii")


def test_binary_stl_round_trip(tmp_path):
    mesh = generate_proxy_fixture("motor").mesh
    path = tmp_path / "motor.stl"
    save_stl_binary(mesh, path)
    loaded = load_mesh(path, fmt="stl-binary")
    assert loaded.signed_volume() == pytest.approx(mesh.signed_volume(), rel=1e-5)
    lo, hi = loaded.aabb
    ref_lo, ref_hi = mesh.aabb
    assert np.allclose(lo, ref_lo, atol=1e-4) and np.allclose(hi, ref_hi, atol=1e-4)


def test_stl_writer_is_deterministic(tmp_path):
    mesh = generate_proxy_fixture("plate").mesh
    save_stl_binary(mesh, tmp_path / "a.stl")
    save_stl_binary(mesh, tmp_path / "b.stl")
    assert (tmp_path / "a.stl").read_bytes() == (tmp_path / "b.stl").read_bytes()


def test_ascii_stl_round_trip(tmp_path):
    mesh = generate_proxy_fixture("peg").mesh
    path = tmp_path / "peg_ascii.stl"
    save_stl_ascii(mesh, path)
    loaded = load_mesh(path)
    assert loaded.signed_volume() == pytest.approx(mesh.signed_volume(), rel=1e-8)
    lo, hi = loaded.aabb
    ref_lo, ref_hi = mesh.aabb
    assert np.allclose(lo, ref_lo, atol=1e-7) and np.allclose(hi, ref_hi, atol=1e-7)


def test_obj_round_trip_plate_aabb_matches_declared(tmp_path):
    # the generator's declared dimensions are the analytic oracle here
    mesh = generate_proxy_fixture("plate").mesh
    path = tmp_path / "plate.obj"
    save_obj(mesh, path)
    loaded = load_mesh(path, fmt="obj")
    lo, hi = loaded.aabb
    exp_lo, exp_hi = FIXTURE_AABBS["plate"]
    assert np.allclose(lo, exp_lo, atol=1e-6)
    assert np.allclose(hi, exp_hi, atol=1e-6)


def test_obj_ignores_other_records(tmp_path):
    path = tmp_path / "cube.obj"
    mesh = box_mesh((0, 0, 0), (1, 1, 1))
    save_obj(mesh, path)
    decorated = "# comment\nvt 0 0\nvn 0 0 1\no cube\n" + path.read_text()
    path.write_text(decorated)
    loaded = load_mesh(path, fmt="obj")
    assert len(loaded.triangles) == 12


def test_obj_quad_faces_are_triangulated(tmp_path):
    path = tmp_path / "quads.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "v 0 0 1\nv 1 0 1\nv 1 1 1\nv 0 1 1\n"
        "f 1 4 3 2\nf 5 6 7 8\nf 1 2 6 5\nf 2 3 7 6\nf 3 4 8 7\nf 4 1 5 8\n"
    )
    mesh = load_mesh(path, fmt="obj")
    assert len(mesh.triangles) == 12
    assert mesh.signed_volume() == pytest.approx(1.0)


def test_obj_without_faces_is_parse_error(tmp_path):
    path = tmp_path / "points.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    with pytest.raises(MeshParseError):
        load_mesh(path, fmt="obj")


def test_duplicate_vertices_welded():
    v = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0],
        [0, 0, 0.0000005], [1, 0, 0], [0, 0, 1],
    ], dtype=float)
    t = np.array([[0, 1, 2], [3, 4, 5]])
    welded_v, welded_t = weld_vertices(v, t)
    assert len(welded_v) == 4
    assert welded_t.max() < 4


def write_far_box_obj(path, x: float):
    """A 10 mm box at ``x`` as OBJ."""
    box = box_mesh((x, 0, 0), (x + 10, 10, 10))
    save_obj(box, path)
    return box


def test_far_off_mesh_refused_at_the_weld_limit(tmp_path):
    path = tmp_path / "far.obj"
    write_far_box_obj(path, 1e13)
    with pytest.raises(DegenerateMeshError, match="weld limit of 9.22337e\\+12 mm"):
        load_mesh(path)


def test_far_mesh_inside_the_weld_limit_loads_unchanged(tmp_path):
    path = tmp_path / "far.obj"
    box = write_far_box_obj(path, 1e12)
    mesh = load_mesh(path)
    assert len(mesh.vertices) == 8 and len(mesh.triangles) == 12
    np.testing.assert_array_equal(np.unique(mesh.vertices, axis=0),
                                  np.unique(box.vertices, axis=0))
    assert mesh.signed_volume() == 1000.0


@pytest.mark.parametrize("save, name", [(save_obj, "far.obj"), (save_stl_ascii, "far.stl")],
                         ids=["obj", "stl-ascii"])
def test_text_writers_keep_a_far_box(tmp_path, save, name):
    path = tmp_path / name
    save(box_mesh((1e12, 0, 0), (1e12 + 10, 10, 10)), path)
    mesh = load_mesh(path)
    assert len(mesh.vertices) == 8
    assert mesh.signed_volume() == 1000.0


WRITERS = [pytest.param(save_obj, "obj", np.float64, 1e12, id="obj"),
           pytest.param(save_stl_ascii, "stl-ascii", np.float64, 1e12, id="stl-ascii"),
           pytest.param(save_stl_binary, "stl-binary", np.float32, 1e6, id="stl-binary")]


@pytest.mark.parametrize("save, fmt, dtype, reach", WRITERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_writers_round_trip_box_vertices_exactly(save, fmt, dtype, reach, data):
    # binary STL stores float32, so its boxes stay where float32 still
    # resolves a 1 mm edge
    coordinate = st.one_of(st.floats(-100.0, 100.0), st.floats(-reach, reach))
    lo = np.array([data.draw(coordinate) for _ in range(3)])
    size = np.array([data.draw(st.floats(1.0, 1000.0)) for _ in range(3)])
    box = box_mesh(lo, lo + size)
    expected = np.unique(box.vertices.astype(dtype).astype(np.float64), axis=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "box"
        save(box, path)
        loaded = load_mesh(path, fmt=fmt)
    np.testing.assert_array_equal(np.unique(loaded.vertices, axis=0), expected)


def test_inward_winding_normalized_on_load(tmp_path):
    flipped = TriangleMesh(
        box_mesh((0, 0, 0), (1, 1, 1)).vertices,
        box_mesh((0, 0, 0), (1, 1, 1)).triangles[:, ::-1],
    )
    assert flipped.signed_volume() < 0
    path = tmp_path / "flipped.stl"
    save_stl_binary(flipped, path)
    loaded = load_mesh(path)
    assert loaded.signed_volume() > 0


def test_degenerate_too_few_triangles():
    with pytest.raises(DegenerateMeshError):
        TriangleMesh(np.eye(3), np.array([[0, 1, 2]]))


def test_triangle_index_out_of_range():
    with pytest.raises(DegenerateMeshError):
        TriangleMesh(np.eye(4, 3), np.array([[0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 4]]))


def test_construction_copies_the_callers_arrays():
    """The mesh keeps read-only copies: the caller's arrays stay writable,
    and editing them afterwards leaves the mesh unchanged."""
    cube = box_mesh((0, 0, 0), (1, 1, 1))
    v, t = cube.vertices.copy(), cube.triangles.copy()
    mesh = TriangleMesh(v, t)
    v[0, 0] = 5.0
    t[0] = t[0, ::-1]
    assert np.array_equal(mesh.vertices, cube.vertices)
    assert np.array_equal(mesh.triangles, cube.triangles)
    assert np.array_equal(mesh.corners, cube.corners)
    assert not mesh.vertices.flags.writeable and not mesh.triangles.flags.writeable


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_mesh("/nonexistent/mesh.stl")


def test_cube_volume_and_centroid_exact():
    cube = box_mesh((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    assert cube.signed_volume() == 1.0
    assert np.array_equal(cube.volume_centroid(), np.zeros(3))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_mass_properties_invariant_under_reindexing(seed):
    rng = np.random.default_rng(seed)
    mesh = generate_proxy_fixture("peg").mesh
    tri_perm = rng.permutation(len(mesh.triangles))
    vert_perm = rng.permutation(len(mesh.vertices))
    inverse = np.empty_like(vert_perm)
    inverse[vert_perm] = np.arange(len(vert_perm))
    shuffled = TriangleMesh(mesh.vertices[vert_perm], inverse[mesh.triangles][tri_perm])
    assert shuffled.signed_volume() == pytest.approx(mesh.signed_volume(), rel=1e-9)
    assert np.allclose(shuffled.volume_centroid(), mesh.volume_centroid(), rtol=1e-9, atol=1e-12)


def test_transforms_compose():
    mesh = box_mesh((0, 0, 0), (2, 1, 1))
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    moved = mesh.transformed(rot, (5.0, 0.0, 0.0))
    lo, hi = moved.aabb
    assert np.allclose(lo, [4.0, 0.0, 0.0])
    assert np.allclose(hi, [5.0, 2.0, 1.0])
