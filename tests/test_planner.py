import json
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    ROT_Z_QUARTER,
    direction_of,
    merge_walk_plan,
    rotated_assembly,
    tunnel_assembly,
)

from softjig import planner
from softjig.fixtures import (
    box_mesh,
    cube_stack_assembly,
    generate_proxy_fixture,
    peg_assembly,
    proxy_assembly,
)
from softjig.parts import AssemblyModel, PartModel, RigidOrientation, mass_properties
from softjig.planner import (
    AssemblySequence,
    FixingPlan,
    FixingStep,
    PlannerError,
    bottom_part,
    candidate_orientations,
    cog_height,
    configure_fixing_parts,
    select_posture,
)
from softjig.relations import DIRECTION_ORDER, Direction, ReachableDirectionList


def flags_for(*directions: Direction) -> ReachableDirectionList:
    return ReachableDirectionList(tuple(d in directions for d in DIRECTION_ORDER))


def cube_part(pid, mass=1.0, lo=(0, 0, 0), hi=(1, 1, 1)):
    return PartModel(pid, box_mesh(lo, hi), mass)


# -- candidate orientations ---------------------------------------------------

def test_plus_z_candidates_are_identity_and_flip():
    up, down = candidate_orientations(Direction.PLUS_Z)
    assert np.array_equal(up.rotation, np.eye(3))
    assert np.array_equal(down.rotation, np.diag([1.0, -1.0, -1.0]))


def test_plus_x_candidates_are_quarter_turns():
    up, down = candidate_orientations(Direction.PLUS_X)
    assert np.allclose(up.apply([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0])
    assert np.allclose(down.apply([1.0, 0.0, 0.0]), [0.0, 0.0, -1.0])
    for r in (up, down):
        assert abs(np.trace(r.rotation @ r.rotation.T) - 3.0) < 1e-12


@pytest.mark.parametrize("direction", DIRECTION_ORDER)
def test_all_candidates_are_proper_rotations(direction):
    for orientation in candidate_orientations(direction):
        r = orientation.rotation
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    up, down = candidate_orientations(direction)
    assert np.allclose(up.apply(direction.unit_vector), [0, 0, 1])
    assert np.allclose(down.apply(direction.unit_vector), [0, 0, -1])


# -- cog height ---------------------------------------------------------------

def test_unit_cube_cog_height():
    part = cube_part("c")
    assert cog_height([part], RigidOrientation.identity()) == pytest.approx(0.5)


def test_tall_box_upright_vs_lying():
    tall = PartModel("t", box_mesh((0, 0, 0), (10, 10, 100)), 5.0)
    upright = cog_height([tall], RigidOrientation.identity())
    lying = cog_height([tall], candidate_orientations(Direction.PLUS_X)[0])
    assert upright == pytest.approx(50.0)
    assert lying == pytest.approx(5.0)


def test_proxy_motor_plate_identity_lower_than_flipped():
    parts = [generate_proxy_fixture("motor"), generate_proxy_fixture("plate")]
    identity, flipped = candidate_orientations(Direction.PLUS_Z)
    assert cog_height(parts, identity) < cog_height(parts, flipped)


def test_cog_height_non_negative_in_any_orientation():
    parts = [generate_proxy_fixture("motor")]
    for d in DIRECTION_ORDER:
        for orientation in candidate_orientations(d):
            assert cog_height(parts, orientation) >= 0.0


@pytest.mark.parametrize("axis", [0, 2], ids=["about_x", "about_z"])
def test_cog_height_and_bottom_part_refuse_other_rotations(axis):
    """Both read heights off the parts' boxes, which only a signed axis
    permutation maps to boxes: a 30 degree turn is refused, not answered."""
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    turn = np.eye(3)
    i, j = [k for k in range(3) if k != axis]
    turn[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
    parts = [cube_part("a"), cube_part("b", lo=(0, 0, 1), hi=(1, 1, 2))]
    for query in (cog_height, bottom_part):
        with pytest.raises(PlannerError, match="signed axis permutation"):
            query(parts, RigidOrientation(turn))


# -- posture selection --------------------------------------------------------

def test_single_flag_picks_bottom_heavy_orientation():
    heavy_low = [cube_part("base", 10.0, (0, 0, 0), (2, 2, 1)),
                 cube_part("top", 1.0, (0.5, 0.5, 1), (1.5, 1.5, 4))]
    label, orientation = select_posture(flags_for(Direction.PLUS_Z), heavy_low)
    assert label is Direction.PLUS_Z
    assert np.array_equal(orientation.rotation, np.eye(3))


def test_tie_breaks_use_direction_order_then_axis_up():
    cube = [cube_part("c", 1.0, (-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))]
    label, orientation = select_posture(flags_for(Direction.PLUS_Z, Direction.MINUS_Z), cube)
    assert label is Direction.PLUS_Z
    assert np.array_equal(orientation.rotation, np.eye(3))
    label, _ = select_posture(flags_for(*DIRECTION_ORDER), cube)
    assert label is Direction.PLUS_X


def test_case2_final_posture_leaves_motor_lowest(proxy):
    parts = list(proxy.parts)
    label, orientation = select_posture(flags_for(Direction.MINUS_Z), parts)
    assert label is Direction.MINUS_Z
    assert np.array_equal(orientation.rotation, np.eye(3))  # motor stays at the bottom
    assert bottom_part(parts, orientation) == "motor"


def test_empty_flags_rejected():
    with pytest.raises(PlannerError):
        select_posture(flags_for(), [cube_part("c")])


# -- bottom part --------------------------------------------------------------

def test_bottom_part_identity_and_flipped():
    low = cube_part("low", 1.0, (0, 0, 0), (1, 1, 1))
    high = cube_part("high", 1.0, (0, 0, 2), (1, 1, 3))
    identity, flipped = candidate_orientations(Direction.PLUS_Z)
    assert bottom_part([low, high], identity) == "low"
    assert bottom_part([low, high], flipped) == "high"


def test_bottom_tie_broken_by_mass_then_id():
    light = cube_part("alpha", 1.0, (0, 0, 0), (1, 1, 1))
    heavy = cube_part("beta", 5.0, (2, 0, 0), (3, 1, 1))
    assert bottom_part([light, heavy], RigidOrientation.identity()) == "beta"
    twin = cube_part("aaa", 1.0, (4, 0, 0), (5, 1, 1))
    assert bottom_part([light, twin], RigidOrientation.identity()) == "aaa"


def test_proxy_bottom_part_is_motor(proxy):
    assert bottom_part(list(proxy.parts), RigidOrientation.identity()) == "motor"


# -- sequences ----------------------------------------------------------------

def test_sequence_validation():
    with pytest.raises(PlannerError):
        AssemblySequence(("solo",))
    with pytest.raises(PlannerError):
        AssemblySequence(("a", "b", "a"))
    assert AssemblySequence.parse(" motor , plate ,bolts ").steps == ("motor", "plate", "bolts")


def test_unknown_sequence_entity(proxy):
    with pytest.raises(PlannerError):
        configure_fixing_parts(proxy, AssemblySequence(("motor", "flywheel")))


def test_grouped_part_cannot_be_sequenced_alone(proxy):
    with pytest.raises(PlannerError):
        configure_fixing_parts(proxy, AssemblySequence(("motor", "plate", "bolt_a")))


# -- full planner -------------------------------------------------------------

def test_case1_motor_plate_bolts(proxy):
    plan = configure_fixing_parts(proxy, AssemblySequence.parse("motor,plate,bolts"))
    assert plan.complete and plan.halt_reason is None
    assert [(s.fixed_part, s.posture_label.value) for s in plan.steps] == \
        [("motor", "+z"), ("motor", "+z")]


def test_case2_plate_bolts_motor(proxy):
    plan = configure_fixing_parts(proxy, AssemblySequence.parse("plate,bolts,motor"))
    assert plan.complete
    assert [(s.fixed_part, s.posture_label.value) for s in plan.steps] == \
        [("plate", "+z"), ("motor", "-z")]


def test_split_and_combined_bolts_agree():
    split_plan = configure_fixing_parts(
        proxy_assembly(split_bolts=True), AssemblySequence.parse("motor,plate,bolts"))
    merged_plan = configure_fixing_parts(
        proxy_assembly(split_bolts=False), AssemblySequence.parse("motor,plate,bolts"))
    for a, b in zip(split_plan.steps, merged_plan.steps):
        assert (a.fixed_part, a.posture_label) == (b.fixed_part, b.posture_label)
        assert a.reachable_list.flags == b.reachable_list.flags


def test_non_contacting_parts_halt():
    a = cube_part("a", 1.0, (0, 0, 0), (10, 10, 10))
    b = cube_part("b", 1.0, (30, 0, 0), (40, 10, 10))
    plan = configure_fixing_parts(AssemblyModel((a, b)), AssemblySequence(("a", "b")))
    assert not plan.complete
    assert len(plan.steps) == 0
    assert "a" in plan.halt_reason and "b" in plan.halt_reason


def test_sequence_over_a_subset_of_parts(proxy):
    plan = configure_fixing_parts(proxy, AssemblySequence.parse("motor,plate"))
    assert plan.complete
    assert len(plan.steps) == 1
    assert (plan.steps[0].fixed_part, plan.steps[0].posture_label.value) == ("motor", "+z")


def test_multi_merge_walk_over_cube_stack(cube_stacks):
    # bottom-up order through repeated merges; every new box rests on the
    # previous one, so each step has the five non-downward flags set
    asm = cube_stacks[0]
    plan = configure_fixing_parts(asm, AssemblySequence(tuple(asm.part_ids)))
    assert plan.complete
    assert len(plan.steps) == len(asm.parts) - 1
    for step in plan.steps:
        assert step.reachable_list.flags == (True, True, True, True, True, False)
        assert step.reachable_list[step.posture_label]
        assert step.cog_height >= 0.0


def test_plan_length_and_flag_invariants(proxy):
    plan = configure_fixing_parts(proxy, AssemblySequence.parse("motor,plate,bolts"))
    assert len(plan.steps) == 2  # entities - 1
    for step in plan.steps:
        assert step.reachable_list[step.posture_label]
        assert step.cog_height >= 0.0


def test_mass_scaling_leaves_plan_unchanged(proxy):
    scaled = AssemblyModel(
        tuple(PartModel(p.id, p.mesh, p.mass * 7.0, p.group) for p in proxy.parts),
        contact_epsilon=proxy.contact_epsilon,
    )
    seq = AssemblySequence.parse("plate,bolts,motor")
    base_plan = configure_fixing_parts(proxy, seq)
    scaled_plan = configure_fixing_parts(scaled, seq)
    for a, b in zip(base_plan.steps, scaled_plan.steps):
        assert a.fixed_part == b.fixed_part
        assert a.posture_label is b.posture_label
        assert np.array_equal(a.orientation.rotation, b.orientation.rotation)


def test_lateral_mating_plan():
    plan = configure_fixing_parts(tunnel_assembly(), AssemblySequence(("tunnel", "slider")))
    assert plan.complete
    (step,) = plan.steps
    assert step.posture_label is Direction.PLUS_X
    assert step.fixed_part == "tunnel"
    assert step.reachable_list.flags == (True, False, False, False, False, False)


def test_quarter_turn_equivariance():
    asm = tunnel_assembly()
    seq = AssemblySequence(("tunnel", "slider"))
    plan = configure_fixing_parts(asm, seq)
    rotated_plan = configure_fixing_parts(rotated_assembly(asm, ROT_Z_QUARTER), seq)
    for orig, rot in zip(plan.steps, rotated_plan.steps):
        expected = direction_of(ROT_Z_QUARTER @ orig.posture_label.unit_vector)
        assert rot.posture_label is expected
        assert rot.fixed_part == orig.fixed_part


def test_quarter_turn_equivariance_on_proxy(proxy):
    seq = AssemblySequence.parse("motor,plate,bolts")
    plan = configure_fixing_parts(proxy, seq)
    rotated_plan = configure_fixing_parts(rotated_assembly(proxy, ROT_Z_QUARTER), seq)
    for orig, rot in zip(plan.steps, rotated_plan.steps):
        expected = direction_of(ROT_Z_QUARTER @ orig.posture_label.unit_vector)
        assert rot.posture_label is expected
        assert rot.fixed_part == orig.fixed_part


def test_determinism(proxy):
    seq = AssemblySequence.parse("plate,bolts,motor")
    a = configure_fixing_parts(proxy, seq)
    b = configure_fixing_parts(proxy, seq)
    assert a.to_json_dict() == b.to_json_dict()


@st.composite
def grouped_stack_walks(draw):
    """A 6-10 box stack with random groups, sometimes a part named like the
    merge of two others, and a random order over a random subset of its
    entities (most such orders halt)."""
    levels = draw(st.integers(6, 10))
    base = cube_stack_assembly(draw(st.integers(0, 999)), levels)
    ids = base.part_ids
    if draw(st.booleans()):
        a, b, c = draw(st.permutations(range(levels)))[:3]
        ids[c] = f"{ids[a]}+{ids[b]}"
    groups = draw(st.lists(st.sampled_from([None, None, "g0", "g1", "g2"]),
                           min_size=levels, max_size=levels))
    assembly = AssemblyModel(tuple(
        PartModel(pid, p.mesh, p.mass, g) for pid, p, g in zip(ids, base.parts, groups)))
    entities = list(dict.fromkeys(pid if g is None else g for pid, g in zip(ids, groups)))
    assume(len(entities) >= 2)
    order = draw(st.permutations(entities))
    return assembly, AssemblySequence(tuple(order[:draw(st.integers(2, len(order)))]))


@settings(max_examples=30, deadline=None)
@given(walk=grouped_stack_walks())
def test_plan_equals_the_merge_walk(walk):
    assembly, sequence = walk
    assert (configure_fixing_parts(assembly, sequence).to_json_dict()
            == merge_walk_plan(assembly, sequence).to_json_dict())


def test_part_named_like_a_merge_keeps_the_merge_name_unique():
    parts = tuple(cube_part(pid, 1.0 + i, (0, 0, 10 * i), (10, 10, 10 * i + 10))
                  for i, pid in enumerate(["a", "b", "a+b", "c"]))
    assembly = AssemblyModel(parts)
    plans = {}
    for steps in (("a", "b", "c"), ("a", "b", "a+b", "c")):
        sequence = AssemblySequence(steps)
        plans[steps] = configure_fixing_parts(assembly, sequence).to_json_dict()
        assert plans[steps] == merge_walk_plan(assembly, sequence).to_json_dict()
    assert plans[("a", "b", "c")]["halt_reason"] == \
        "no reachable direction between 'a+b~' and 'c' at step 2"


def assert_postures_match_the_reference(assembly, sequence):
    """Every step of the plan equals ``merge_walk_plan``'s, whose postures
    are ``rotated_vertex_posture``'s, bit for bit: label, rotation, fixed
    part and the CoG height float (``json`` writes the shortest repr that
    reads back to the same double)."""
    plan = configure_fixing_parts(assembly, sequence).to_json_dict()
    assert plan["complete"]
    assert json.dumps(plan) == json.dumps(merge_walk_plan(assembly, sequence).to_json_dict())


@pytest.mark.parametrize("order", ["motor,plate,bolts", "plate,bolts,motor"])
@pytest.mark.parametrize("split_bolts", [True, False], ids=["split", "joined"])
def test_proxy_postures_match_the_rotated_vertex_reference(split_bolts, order):
    assert_postures_match_the_reference(proxy_assembly(split_bolts), AssemblySequence.parse(order))


def test_fixture_postures_match_the_rotated_vertex_reference():
    """The peg in both orders, the tunnel, and criterion 06's quarter-turned
    proxy and tunnel."""
    peg = peg_assembly()
    for ids in (peg.part_ids, peg.part_ids[::-1]):
        assert_postures_match_the_reference(peg, AssemblySequence(tuple(ids)))
    tunnel_order = AssemblySequence(("tunnel", "slider"))
    assert_postures_match_the_reference(tunnel_assembly(), tunnel_order)
    assert_postures_match_the_reference(rotated_assembly(tunnel_assembly(), ROT_Z_QUARTER),
                                        tunnel_order)
    assert_postures_match_the_reference(rotated_assembly(proxy_assembly(), ROT_Z_QUARTER),
                                        AssemblySequence.parse("motor,plate,bolts"))


@pytest.mark.parametrize("seed", range(15))
def test_stack_postures_match_the_rotated_vertex_reference(seed):
    """A six-level stack, bottom-up and top-down."""
    stack = cube_stack_assembly(seed, 6)
    for ids in (stack.part_ids, stack.part_ids[::-1]):
        assert_postures_match_the_reference(stack, AssemblySequence(tuple(ids)))


def test_a_stack_plan_takes_the_mass_properties_twice_a_step_and_turns_no_vertex(monkeypatch):
    """A 16-box plan takes ``mass_properties`` once to pick each posture and
    once for its CoG height, not once per candidate, and never rotates a
    point."""
    calls = []
    monkeypatch.setattr(planner, "mass_properties",
                        lambda parts: calls.append(len(parts)) or mass_properties(parts))

    def refuse(self, points):
        raise AssertionError("RigidOrientation.apply called")

    monkeypatch.setattr(RigidOrientation, "apply", refuse)
    stack = cube_stack_assembly(3, 16)
    plan = configure_fixing_parts(stack, AssemblySequence(tuple(stack.part_ids)))
    assert plan.complete and len(plan.steps) == 15
    assert len(calls) <= 2 * len(plan.steps)


def test_planner_never_merges_matrices(proxy, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("merge_entity called")

    for name, module in list(sys.modules.items()):
        if name.startswith("softjig") and hasattr(module, "merge_entity"):
            monkeypatch.setattr(module, "merge_entity", refuse)
    plan = configure_fixing_parts(proxy, AssemblySequence.parse("plate,bolts,motor"))
    assert plan.complete and len(plan.steps) == 2


def test_fixing_step_validates_flag():
    with pytest.raises(PlannerError):
        FixingStep(
            step_index=1,
            fixed_part="x",
            posture_label=Direction.PLUS_Z,
            orientation=RigidOrientation.identity(),
            cog_height=1.0,
            reachable_list=flags_for(Direction.PLUS_X),
        )


def test_fixing_plan_halt_consistency():
    with pytest.raises(PlannerError):
        FixingPlan(steps=(), complete=True, halt_reason="boom")
    with pytest.raises(PlannerError):
        FixingPlan(steps=(), complete=False, halt_reason=None)
