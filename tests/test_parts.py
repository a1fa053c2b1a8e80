import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjig.fixtures import box_mesh, generate_proxy_fixture
from softjig.mesh import DegenerateMeshError, TriangleMesh
from softjig.parts import (
    AssemblyModel,
    PartError,
    PartModel,
    RigidOrientation,
    mass_properties,
)


def cube_part(pid="cube", mass=1.0, offset=(0, 0, 0)):
    mesh = box_mesh((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)).translated(offset)
    return PartModel(pid, mesh, mass)


def test_single_cube_mass_properties_exact():
    total, cog = mass_properties([cube_part(mass=1.0)])
    assert total == 1.0
    assert np.array_equal(cog, np.zeros(3))


def test_equal_masses_give_midpoint_exactly():
    # both box centroids are exactly representable (z = 0 and z = 2)
    a = PartModel("a", box_mesh((-1, -1, -1), (1, 1, 1)), 5.0)
    b = PartModel("b", box_mesh((0, 0, 1), (2, 2, 3)), 5.0)
    assert a.cog[2] == 0.0 and b.cog[2] == 2.0
    _, cog = mass_properties([a, b])
    assert cog[2] == 1.0


def test_mass_weighted_mean():
    a = cube_part("a", 1.0, (0, 0, 0))
    b = cube_part("b", 3.0, (0, 0, 4))
    total, cog = mass_properties([a, b])
    assert total == 4.0
    assert cog[2] == pytest.approx(3.0)


@given(
    masses=st.lists(st.floats(0.1, 50, allow_nan=False), min_size=3, max_size=3),
    zs=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_combined_cog_is_pairwise_associative(masses, zs):
    parts = [cube_part(f"p{i}", m, (0, 0, z)) for i, (m, z) in enumerate(zip(masses, zs))]
    m_ab, cog_ab = mass_properties(parts[:2])
    merged = [
        PartModel("ab", box_mesh(cog_ab - 0.5, cog_ab + 0.5), m_ab),
        parts[2],
    ]
    _, cog_fold = mass_properties(merged)
    _, cog_all = mass_properties(parts)
    assert np.allclose(cog_fold, cog_all, rtol=1e-9, atol=1e-9)


def test_voxel_oracle_for_blind_hole_cog():
    """Brute-force voxel integration at 256^3 over the pocketed block.

    The oracle uses only axis-aligned interval tests, independent of the
    mesh integration path.
    """
    from softjig.fixtures import BASE_HALF, BASE_HEIGHT, POCKET_FLOOR, POCKET_HALF

    n = 256
    lo = np.array([-BASE_HALF, -BASE_HALF, 0.0])
    hi = np.array([BASE_HALF, BASE_HALF, BASE_HEIGHT])
    centers = [
        (np.linspace(lo[a], hi[a], n + 1)[:-1] + np.linspace(lo[a], hi[a], n + 1)[1:]) / 2
        for a in range(3)
    ]
    x = centers[0][:, None, None]
    y = centers[1][None, :, None]
    z = centers[2][None, None, :]
    pocket = (np.abs(x) < POCKET_HALF) & (np.abs(y) < POCKET_HALF) & (z > POCKET_FLOOR)
    solid = ~pocket
    count = solid.sum()
    oracle = np.array([(solid * x).sum(), (solid * y).sum(), (solid * z).sum()]) / count

    part = generate_proxy_fixture("blind-hole-base")
    _, cog = mass_properties([part])
    assert np.linalg.norm(cog - oracle) <= 1e-3 * part.mesh.aabb_diagonal


def test_nonpositive_mass_rejected():
    with pytest.raises(PartError):
        cube_part(mass=0.0)
    with pytest.raises(PartError):
        cube_part(mass=-3.0)


@pytest.mark.parametrize("mass", [float("inf"), float("nan"), float("-inf")])
def test_non_finite_mass_rejected_naming_the_part(mass):
    with pytest.raises(PartError, match="'heavy'"):
        cube_part(pid="heavy", mass=mass)


def test_cog_computed_once_and_bit_identical(monkeypatch):
    part = generate_proxy_fixture("blind-hole-base")
    assert np.array_equal(part.cog, part.mesh.volume_centroid())

    def fail(self):
        raise AssertionError("volume_centroid recomputed")

    monkeypatch.setattr(TriangleMesh, "volume_centroid", fail)
    mass_properties([part, part])


def test_inverted_mesh_rejected():
    cube = box_mesh((0, 0, 0), (1, 1, 1))
    inverted = TriangleMesh(cube.vertices, cube.triangles[:, ::-1])
    with pytest.raises(DegenerateMeshError):
        PartModel("bad", inverted, 1.0)


def test_open_mesh_rejected_naming_the_part():
    """The proxy plate with two triangles taken out still encloses a
    positive signed volume, yet is refused where the part is built, with
    the part's id and its count of unbalanced directed edges."""
    plate = generate_proxy_fixture("plate")
    opened = TriangleMesh(plate.mesh.vertices, plate.mesh.triangles[2:])
    assert opened.signed_volume() > 0
    with pytest.raises(DegenerateMeshError) as refused:
        PartModel("plate", opened, plate.mass)
    assert str(refused.value) == ("part 'plate': mesh is not closed: 4 directed edges do not "
                                  "match their reverses")


def test_empty_part_list_rejected():
    with pytest.raises(PartError):
        mass_properties([])


def test_rigid_orientation_validation():
    RigidOrientation(np.eye(3))
    with pytest.raises(PartError):
        RigidOrientation(np.eye(3) * 2.0)
    with pytest.raises(PartError):
        RigidOrientation(np.diag([1.0, 1.0, -1.0]))  # det -1


def test_assembly_unique_ids():
    with pytest.raises(PartError):
        AssemblyModel((cube_part("x"), cube_part("x", offset=(3, 0, 0))))


def test_assembly_group_name_cannot_shadow_part_id():
    a = cube_part("a")
    b = PartModel("b", box_mesh((2, 0, 0), (3, 1, 1)), 1.0, group="a")
    with pytest.raises(PartError):
        AssemblyModel((a, b))


def test_contact_epsilon_bounds():
    parts = (cube_part("a"), cube_part("b", offset=(2, 0, 0)))
    diag = AssemblyModel(parts).aabb_diagonal
    with pytest.raises(PartError):
        AssemblyModel(parts, contact_epsilon=0.02 * diag)
    with pytest.raises(PartError):
        AssemblyModel(parts, contact_epsilon=0.0)
    assert AssemblyModel(parts).contact_epsilon == pytest.approx(1e-3 * diag)
