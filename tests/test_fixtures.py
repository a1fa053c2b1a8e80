import numpy as np
import pytest

from softjig.fixtures import (
    FIXTURE_AABBS,
    FIXTURE_KINDS,
    MOTOR_HEIGHT,
    SHAFT_RADIUS,
    SHAFT_TOP,
    cube_stack_assembly,
    generate_proxy_fixture,
    plate_mesh,
    proxy_assembly,
)
from softjig.queries import min_distance


def test_cube_kind_is_unit_cube():
    cube = generate_proxy_fixture("cube")
    assert len(cube.mesh.triangles) == 12
    assert cube.mesh.signed_volume() == pytest.approx(1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_proxy_fixture("gearbox")


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_fixture_aabb_matches_declared(kind):
    part = generate_proxy_fixture(kind)
    lo, hi = part.mesh.aabb
    exp_lo, exp_hi = FIXTURE_AABBS[kind]
    assert np.allclose(lo, exp_lo, atol=1e-9)
    assert np.allclose(hi, exp_hi, atol=1e-9)


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_fixture_volume_positive(kind):
    assert generate_proxy_fixture(kind).mesh.signed_volume() > 0


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_fixture_generation_deterministic(kind):
    a = generate_proxy_fixture(kind).mesh
    b = generate_proxy_fixture(kind).mesh
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_motor_pins_protrude_below_base_plane():
    motor = generate_proxy_fixture("motor").mesh
    base_plane_z = 0.0
    below = motor.vertices[motor.vertices[:, 2] < base_plane_z]
    assert len(below) > 0
    assert below[:, 2].min() == pytest.approx(-3.0)
    # pins sit inboard of the cylinder wall
    assert np.linalg.norm(below[:, :2], axis=1).max() < 15.0


def test_shaft_axis_collinear_with_plate_hole_axis():
    motor = generate_proxy_fixture("motor").mesh
    shaft_ring = motor.vertices[
        (motor.vertices[:, 2] >= MOTOR_HEIGHT) &
        (np.linalg.norm(motor.vertices[:, :2], axis=1) <= SHAFT_RADIUS + 1e-9) &
        (np.linalg.norm(motor.vertices[:, :2], axis=1) > 0)
    ]
    shaft_axis_xy = shaft_ring[:, :2].mean(axis=0)
    plate_hole_center = np.zeros(2)  # central cutout is centred by construction
    assert np.linalg.norm(shaft_axis_xy - plate_hole_center) < 1e-9
    assert shaft_ring[:, 2].max() == pytest.approx(SHAFT_TOP)


def test_shaft_clears_plate_hole():
    motor = generate_proxy_fixture("motor").mesh
    plate = plate_mesh()
    # contact comes from the plate resting on the motor's top annulus, not
    # from the shaft grazing the hole wall
    assert min_distance(motor, plate) == 0.0


def test_proxy_assembly_layout(proxy):
    assert proxy.part_ids == ["motor", "plate", "bolt_a", "bolt_b"]
    assert [p.id for p in proxy.parts if p.group == "bolts"] == ["bolt_a", "bolt_b"]
    merged = proxy_assembly(split_bolts=False)
    assert merged.part_ids == ["motor", "plate", "bolts"]


def test_cube_stack_consecutive_contacts():
    asm = cube_stack_assembly(seed=7)
    for below, above in zip(asm.parts, asm.parts[1:]):
        assert min_distance(below.mesh, above.mesh) == 0.0


def test_cube_stack_deterministic():
    a = cube_stack_assembly(seed=3)
    b = cube_stack_assembly(seed=3)
    for pa, pb in zip(a.parts, b.parts):
        assert np.array_equal(pa.mesh.vertices, pb.mesh.vertices)
        assert pa.mass == pb.mass
