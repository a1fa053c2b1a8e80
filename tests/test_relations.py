import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ROT_Z_QUARTER,
    SHEAR_Z_BY_Y,
    dense_box_pairs,
    direction_of,
    min_distance_brute_force,
    naive_penetrates_along,
    naive_sweep_is_free,
    oracle_interference_free,
    rotated_assembly,
    slotted_sheet,
    sweep_sample_distances,
)

from softjig import broad, cube_stack_assembly, queries, relations
from softjig.descriptors import load_descriptor
from softjig.fixtures import box_mesh, compound_mesh, generate_proxy_fixture, revolve_mesh
from softjig.mesh import save_stl_binary
from softjig.parts import AssemblyModel, PartModel
from softjig.queries import intersects, min_distance, triangle_pair_distance_sq, within_distance
from softjig.relations import (
    DIRECTION_ORDER,
    Direction,
    ReachableDirectionList,
    RelationError,
    RelationMatrices,
    compute_all_interference_free,
    compute_contact_matrix,
    compute_reachable_matrix,
    compute_relation_matrices,
    merge_entity,
    sweep_translation_is_free,
)


def two_cubes(gap: float) -> AssemblyModel:
    a = PartModel("a", box_mesh((0, 0, 0), (10, 10, 10)), 1.0)
    b = PartModel("b", box_mesh((0, 0, 10 + gap), (10, 10, 20 + gap)), 1.0)
    return AssemblyModel((a, b))


# -- directions ---------------------------------------------------------------

def test_direction_labels_and_vectors():
    assert [d.value for d in DIRECTION_ORDER] == ["+x", "-x", "+y", "-y", "+z", "-z"]
    for d in DIRECTION_ORDER:
        v = d.unit_vector
        assert np.linalg.norm(v) == 1.0
        assert np.count_nonzero(v) == 1
        assert np.array_equal(d.opposite.unit_vector, -v)


# -- contact ------------------------------------------------------------------

def test_separated_cubes_have_no_contact():
    asm = two_cubes(gap=10.0)
    asm = AssemblyModel(asm.parts, contact_epsilon=0.1)
    assert not compute_contact_matrix(asm).any()


def test_stacked_touching_cubes_contact():
    contact = compute_contact_matrix(two_cubes(gap=0.0))
    assert contact[0, 1] and contact[1, 0]
    assert not contact.diagonal().any()


def test_proxy_contact_matrix(proxy):
    contact = compute_contact_matrix(proxy)
    ids = proxy.part_ids
    idx = {p: i for i, p in enumerate(ids)}
    assert contact[idx["motor"], idx["plate"]]
    assert contact[idx["plate"], idx["bolt_a"]] and contact[idx["plate"], idx["bolt_b"]]
    assert contact[idx["motor"], idx["bolt_a"]] and contact[idx["motor"], idx["bolt_b"]]
    assert not contact[idx["bolt_a"], idx["bolt_b"]]
    assert np.array_equal(contact, contact.T)


def test_nested_cube_contacts_through_intersects():
    outer = box_mesh((0, 0, 0), (10, 10, 10))
    inner = box_mesh((4, 4, 4), (6, 6, 6))
    assembly = AssemblyModel((PartModel("outer", outer, 1.0), PartModel("inner", inner, 1.0)),
                             contact_epsilon=0.1)
    d = triangle_pair_distance_sq(np.repeat(outer.corners, 12, axis=0),
                                  np.tile(inner.corners, (12, 1, 1)))
    assert np.sqrt(d.min()) > assembly.contact_epsilon
    assert within_distance(outer, inner, 0.1) and within_distance(inner, outer, 0.1)
    assert compute_contact_matrix(assembly)[0, 1]


def test_contact_guard_no_per_leaf_distance_calls(monkeypatch):
    """Work-count guard, not a timing: one distance batch per part pair
    whose boxes come within epsilon, and no ``min_distance`` at all."""
    assembly = cube_stack_assembly(0, levels=16)
    calls = {"min_distance": 0, "triangle_pair_distance_sq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(queries, name, counted(name, getattr(queries, name)))
    monkeypatch.setattr(relations, "min_distance", counted("min_distance", min_distance),
                        raising=False)
    contact = compute_contact_matrix(assembly)
    eps = assembly.contact_epsilon
    near = sum(
        not (np.any(a.mesh.aabb[0] - eps > b.mesh.aabb[1])
             or np.any(b.mesh.aabb[0] - eps > a.mesh.aabb[1]))
        for i, a in enumerate(assembly.parts) for b in assembly.parts[i + 1:])
    assert calls["min_distance"] == 0
    assert 0 < calls["triangle_pair_distance_sq"] <= near
    assert contact.sum() > 0


def test_contact_symmetry_on_random_stacks(cube_stacks):
    for asm in cube_stacks:
        contact = compute_contact_matrix(asm)
        assert np.array_equal(contact, contact.T)
        assert not contact.diagonal().any()


# -- interference sweeps ------------------------------------------------------

def stacked_cylinders() -> AssemblyModel:
    """Two 1,024-triangle cylinders in face contact, the upper one narrower."""
    lower = revolve_mesh([(0, 0), (20, 0), (20, 30), (0, 30)], 256)
    upper = revolve_mesh([(0, 30), (17, 30), (17, 60), (0, 60)], 256)
    return AssemblyModel((PartModel("lower", lower, 1.0), PartModel("upper", upper, 1.0)))


LATERAL = (Direction.PLUS_X, Direction.MINUS_X, Direction.PLUS_Y, Direction.MINUS_Y)


def lateral_sweep(assembly: AssemblyModel, direction: Direction) -> tuple[float, float]:
    """The signed range of the default sweep of the second part past the
    first along ``direction``: the offsets in (0, D] at which the whole
    boxes overlap along the axis. What the penetration kernel would be
    given if the touching-box cull did not decide the sweep first."""
    static, moving = (p.mesh for p in assembly.parts)
    max_distance = 2.0 * assembly.aabb_diagonal
    ax = direction.axis
    if direction.sign > 0:
        t_lo, t_hi = static.aabb[0][ax] - moving.aabb[1][ax], static.aabb[1][ax] - moving.aabb[0][ax]
    else:
        t_lo, t_hi = moving.aabb[0][ax] - static.aabb[1][ax], moving.aabb[1][ax] - static.aabb[0][ax]
    first, last = max(t_lo, 0.0), min(t_hi, max_distance)
    return (first, last) if direction.sign > 0 else (-last, -first)


def sheared_sweeps(sweep) -> list:
    """``sweep`` over the +-x ranges of the stacked cylinders sheared by
    ``SHEAR_Z_BY_Y``: the upper one slides on a tilted face, so the boxes
    of the resting triangles share interior across x, and stays free."""
    assembly = rotated_assembly(stacked_cylinders(), SHEAR_Z_BY_Y)
    lower, upper = (p.mesh for p in assembly.parts)
    return [sweep(lower, upper, 0, lateral_sweep(assembly, d))
            for d in (Direction.PLUS_X, Direction.MINUS_X)]


def test_crossing_rows_pruned_on_stacked_cylinders(monkeypatch):
    """Work-count guard, not a timing: on two stacked 1,024-triangle
    cylinders in face contact, the crossing kernel gets at most one row per
    candidate pair of a sweep, its nine edge axes run on at most a fifth of
    the rows that its two face axes see, and the six matrices are the
    expected ones. The lateral sweeps are decided by the box cull; driven
    with their ranges directly, their triangles' boxes only touch across
    the sweep, so they have no candidate. The rows are counted on the -z
    sweep and on the sheared cylinders' +-x sweeps, which have candidates."""
    assembly = stacked_cylinders()
    lower, upper = (p.mesh for p in assembly.parts)
    sweeps = []
    penetrates, box_pairs, narrow = relations.penetrates_along, broad.box_pairs, queries._narrow

    def sweep(static, moving, axis, span):
        sweeps.append({"rows": {2: 0, 9: 0}})
        return penetrates(static, moving, axis, span)

    def candidates(*args):   # the first call of a sweep is its crossing scan's
        sweeps[-1].setdefault("pairs", len(dense_box_pairs(*args)[0]))
        return box_pairs(*args)

    def counted(lo, hi, rel, axes, *args):
        sweeps[-1]["rows"][len(axes)] += len(lo)
        return narrow(lo, hi, rel, axes, *args)

    monkeypatch.setattr(relations, "penetrates_along", sweep)
    monkeypatch.setattr(broad, "box_pairs", candidates)
    monkeypatch.setattr(queries, "_narrow", counted)
    free = compute_all_interference_free(assembly)
    lateral_blocked = [sweep(lower, upper, d.axis, lateral_sweep(assembly, d)) for d in LATERAL]
    assert sheared_sweeps(sweep) == [False] * 2

    assert len(sweeps) == 7
    blocked, lateral, sheared = sweeps[:1], sweeps[1:5], sweeps[5:]
    assert all(s["pairs"] == s["rows"][2] == s["rows"][9] == 0 for s in lateral)
    for s in blocked + sheared:
        assert 0 < s["rows"][2] <= s["pairs"]
    face_rows, edge_rows = (sum(s["rows"][n] for s in blocked + sheared) for n in (2, 9))
    assert 0 < 5 * edge_rows <= face_rows
    assert lateral_blocked == [False] * 4
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d is not Direction.MINUS_Z)
        assert free[d][1, 0] == (d is not Direction.PLUS_Z)


def test_sweeps_window_only_the_pairs_they_need(monkeypatch):
    """Counter, not timing, on two stacked 1,024-triangle cylinders in face
    contact. Each candidate pair of a sweep reaches the crossing kernel at
    most once, and the blocked -z sweep sends at most one first batch
    before its first crossing. The lateral sweeps are decided by the box
    cull; driven with their ranges directly, they have no candidate and
    send nothing. A free sweep of the sheared cylinders along +-x sends
    every candidate pair of the dense oracle, in row-major order."""
    assembly = stacked_cylinders()
    lower, upper = (p.mesh for p in assembly.parts)
    sweeps = []
    penetrates, box_pairs, intervals = (relations.penetrates_along, broad.box_pairs,
                                        queries.crossing_intervals)

    def sweep(static, moving, axis, span):
        sweeps.append({"direction": direction_of(np.sign(span[0] + span[1]) * np.eye(3)[axis]),
                       "sent": [np.zeros(0, dtype=np.intp)]})
        sweeps[-1]["blocked"] = penetrates(static, moving, axis, span)
        return sweeps[-1]["blocked"]

    def candidates(*args):   # the first call of a sweep is its crossing scan's
        sweeps[-1].setdefault("pairs", dense_box_pairs(*args))
        return box_pairs(*args)

    def kernel(static, moving, si, mi, axis):
        sweeps[-1]["sent"].append(si * len(moving.corners) + mi)
        return intervals(static, moving, si, mi, axis)

    monkeypatch.setattr(relations, "penetrates_along", sweep)
    monkeypatch.setattr(broad, "box_pairs", candidates)
    monkeypatch.setattr(queries, "crossing_intervals", kernel)
    free = compute_all_interference_free(assembly)
    for d in LATERAL:
        sweep(lower, upper, d.axis, lateral_sweep(assembly, d))
    sheared_sweeps(sweep)

    for s in sweeps:
        sent = np.concatenate(s["sent"])
        assert len(np.unique(sent)) == len(sent)
    blocked, lateral, sheared = sweeps[0], sweeps[1:5], sweeps[5:]
    assert blocked["direction"] is Direction.MINUS_Z
    assert blocked["blocked"] and not free[Direction.MINUS_Z][0, 1]
    assert 0 < sum(map(len, blocked["sent"])) <= queries._FIRST_BATCH_ROWS
    assert [s["direction"] for s in lateral] == list(LATERAL)
    for s in lateral:
        assert not s["blocked"] and len(s["pairs"][0]) == len(np.concatenate(s["sent"])) == 0
    for s in sheared:
        si, mi = s["pairs"]
        assert not s["blocked"] and len(si) > queries._FIRST_BATCH_ROWS
        assert np.array_equal(np.concatenate(s["sent"]), si * len(upper.corners) + mi)


def test_face_contact_sweeps_skip_the_kernel(monkeypatch):
    """Counter: on two stacked cylinders in face contact, whose boxes touch
    on z, the +-x and +-y sweeps are proven free by the boxes alone and make
    no ``penetrates_along`` call; only the blocked -z sweep reaches it (+z
    has no overlapping sample)."""
    assembly = stacked_cylinders()
    axes = []
    penetrates = relations.penetrates_along

    def counted(static, moving, axis, span):
        axes.append((axis, float(np.sign(span[0] + span[1]))))
        return penetrates(static, moving, axis, span)

    monkeypatch.setattr(relations, "penetrates_along", counted)
    free = compute_all_interference_free(assembly)
    assert axes == [(2, -1.0)]
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d is not Direction.MINUS_Z)


def test_proxy_sweeps_send_few_rows_to_the_crossing_kernel(proxy, monkeypatch):
    """Counter: the proxy's resting faces (plate on motor, bolt heads on the
    plate) give triangle pairs whose boxes only touch across the sweep or
    at offset 0; they never reach ``crossing_intervals``, so its sweeps
    send it at most 5,000 rows (30,220 when touching pairs were sent)."""
    rows, intervals = [], queries.crossing_intervals
    monkeypatch.setattr(queries, "crossing_intervals",
                        lambda *args: rows.append(len(args[2])) or intervals(*args))
    compute_all_interference_free(proxy)
    assert 0 < sum(rows) <= 5_000


QUARTER_TURNS = (
    np.eye(3),
    ROT_Z_QUARTER,
    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),   # about x
    np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),   # about y
)


@st.composite
def integer_solid(draw):
    """A box or a revolved part (a multiple of 4 segments) whose box corners
    are integers, so that integer shifts and quarter turns keep them exact."""
    lo = np.array(draw(st.tuples(*[st.integers(-4, 4)] * 3)), dtype=float)
    size = np.array(draw(st.tuples(*[st.integers(1, 6)] * 3)), dtype=float)
    if draw(st.booleans()):
        return box_mesh(lo, lo + size)
    radius, height = float(draw(st.integers(1, 4))), size[2]
    segments = draw(st.sampled_from([4, 8, 12]))
    return revolve_mesh([(0, 0), (radius, 0), (radius, height), (0, height)],
                        segments).translated(lo)


@st.composite
def touching_pairs(draw):
    """(static, moving) whose boxes touch on at least one axis in a slab of
    zero width: neighbours of a cube stack, or integer solids placed against
    each other on a drawn axis and side, both turned by one quarter turn."""
    if draw(st.booleans()):
        stack = cube_stack_assembly(draw(st.integers(0, 1000)), levels=2)
        static, moving = (p.mesh for p in stack.parts)
    else:
        static, moving = draw(integer_solid()), draw(integer_solid())
        ax, shift = draw(st.integers(0, 2)), np.zeros(3)
        if draw(st.booleans()):
            shift[ax] = static.aabb[1][ax] - moving.aabb[0][ax]
        else:
            shift[ax] = static.aabb[0][ax] - moving.aabb[1][ax]
        moving = moving.translated(shift)
    if draw(st.booleans()):
        static, moving = moving, static
    turn = draw(st.sampled_from(QUARTER_TURNS))
    return static.rotated(turn), moving.rotated(turn)


@given(pair=touching_pairs())
@settings(max_examples=40, deadline=None)
def test_touching_boxes_cull_only_free_sweeps(pair):
    """Oracle with no broad phase and no cull: for a pair whose boxes touch
    on an axis across the sweep, every sample offset of the sweep is free
    under ``naive_penetrates_along``, so the cull that calls the sweep free
    outright gives the kernel's own answer."""
    static, moving = pair
    (s_lo, s_hi), (m_lo, m_hi) = static.aabb, moving.aabb
    touching = [ax for ax in range(3) if s_hi[ax] == m_lo[ax] or m_hi[ax] == s_lo[ax]]
    assert touching
    max_distance = 2.0 * float(np.linalg.norm(np.maximum(s_hi, m_hi) - np.minimum(s_lo, m_lo)))
    offsets = sweep_sample_distances(max_distance, 16)
    for d in DIRECTION_ORDER:
        if all(ax == d.axis for ax in touching):
            continue
        assert sweep_translation_is_free(static, moving, d, max_distance), d.value
        assert not naive_penetrates_along(static, moving, d.axis, d.sign * offsets), d.value


@given(pair=touching_pairs(), gap=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_contact_matrix_matches_brute_force_distance(pair, gap):
    """The contact matrix, decided by early-exit batches of the stacked
    distance kernel, against ``min_distance_brute_force`` over every
    triangle pair: touching pairs, and the same pairs moved apart by
    ``gap`` times the contact tolerance along the axis of their box
    centres' largest offset."""
    static, moving = pair
    epsilon = AssemblyModel((PartModel("s", static, 1.0),
                             PartModel("m", moving, 1.0))).contact_epsilon
    centres = [0.5 * (m.aabb[0] + m.aabb[1]) for m in pair]
    ax = int(np.argmax(np.abs(centres[1] - centres[0])))
    shift = np.zeros(3)
    shift[ax] = gap * epsilon * np.sign(centres[1][ax] - centres[0][ax])
    moving = moving.translated(shift)
    assembly = AssemblyModel((PartModel("s", static, 1.0), PartModel("m", moving, 1.0)),
                             contact_epsilon=epsilon)
    expected = min_distance_brute_force(static, moving) <= epsilon
    assert compute_contact_matrix(assembly)[0, 1] == expected


def test_blocked_sweep_stops_generating_candidates(monkeypatch):
    """Counter, not timing, on two stacked 1,024-triangle cylinders in face
    contact, with the block budget patched small. No dense box test of any
    sweep exceeds the budget, and the blocked -z sweep runs fewer of them
    than its whole candidate set needs: it stops generating candidates at
    its first crossing."""
    assembly = stacked_cylinders()
    budget = 1 << 10
    sweeps = []
    penetrates, box_pairs, overlap = relations.penetrates_along, broad.box_pairs, broad._overlap

    def sweep(static, moving, axis, span):
        sweeps.append({"direction": direction_of(np.sign(span[0] + span[1]) * np.eye(3)[axis]),
                       "tests": []})
        sweeps[-1]["blocked"] = penetrates(static, moving, axis, span)
        return sweeps[-1]["blocked"]

    def candidates(*args):
        sweeps[-1]["args"] = args
        return box_pairs(*args)

    def counted(*boxes):
        sweeps[-1]["tests"].append(len(boxes[0]) * boxes[2].shape[1])
        return overlap(*boxes)

    monkeypatch.setattr(broad, "BLOCK_CELLS", budget)
    monkeypatch.setattr(relations, "penetrates_along", sweep)
    monkeypatch.setattr(broad, "box_pairs", candidates)
    monkeypatch.setattr(broad, "_overlap", counted)
    free = compute_all_interference_free(assembly)
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d is not Direction.MINUS_Z)
    assert all(0 < max(s["tests"]) <= budget for s in sweeps)

    (blocked,) = [s for s in sweeps if s["direction"] is Direction.MINUS_Z]
    assert blocked["blocked"]
    sweeps.append({"tests": []})
    broad.gather(box_pairs(*blocked["args"]))
    assert 0 < len(blocked["tests"]) < len(sweeps[-1]["tests"])


# -- the box pass --------------------------------------------------------------

grid_boxes = st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * 3),
                                st.tuples(*[st.integers(0, 3)] * 3)), min_size=1, max_size=5)
signed_range = st.sampled_from([(0.0, 0.0), (0.0, 9.0), (-9.0, 0.0), (-2.5, 1.0), (1.0, 1.0),
                                (2.0, 1.0), (-0.0, 4.0)])


@given(boxes=grid_boxes, axis=st.integers(0, 2), reach=signed_range,
       epsilon=st.sampled_from([0.0, 0.5, 1.0, 1e-12]))
@settings(max_examples=300, deadline=None)
def test_box_rules_answer_every_pair_as_one_pair(boxes, axis, reach, epsilon):
    """Each box rule of ``broad``, asked once over the (n, n) pairs of some
    integer-grid boxes, where touching and equal bounds are common (zero
    extents included), gives every pair the very floats it gives the pair
    alone, and the penetration span is the exact one: the closed hull of
    the offsets in ``reach`` at which the boxes share interior on every
    axis, with the mirrored span for the mirrored question."""
    lo = np.array([b[0] for b in boxes], dtype=float)
    hi = lo + np.array([b[1] for b in boxes], dtype=float)
    first, last = reach
    span = broad.penetration_span(lo[:, None], hi[:, None], lo, hi, axis, first, last)
    near = broad.within_reach(lo[:, None], hi[:, None], lo, hi, epsilon)
    for i, k in itertools.product(range(len(boxes)), repeat=2):
        one = broad.penetration_span(lo[i], hi[i], lo[k], hi[k], axis, first, last)
        assert (span[0][i, k], span[1][i, k]) == one
        t_lo, t_hi = lo[i] - hi[k], hi[i] - lo[k]
        across = all(t_lo[o] < 0 < t_hi[o] for o in range(3) if o != axis)
        meet = across and t_lo[axis] < last and first < t_hi[axis] and first <= last \
            and t_lo[axis] < t_hi[axis]
        assert one == ((max(t_lo[axis], first), min(t_hi[axis], last)) if meet
                       else (np.inf, -np.inf))
        mirror = broad.penetration_span(lo[k], hi[k], lo[i], hi[i], axis, -last, -first)
        assert mirror == ((-one[1], -one[0]) if meet else one)
        reach_ik = epsilon + 1e-9 * (epsilon + np.abs([lo[i], hi[i], lo[k], hi[k]]).max())
        pair = bool(broad.within_reach(lo[i], hi[i], lo[k], hi[k], epsilon))
        assert near[i, k] == pair == (not (np.any(lo[i] - reach_ik > hi[k])
                                           or np.any(lo[k] - reach_ik > hi[i])))


def test_box_pass_sends_only_the_pairs_that_can_meet(monkeypatch):
    """Counter on a 128-box stack: contact asks ``within_distance`` only of
    the pairs whose boxes come within the padded tolerance (8,128 pairs were
    asked when every pair was), and the sweeps run
    ``sweep_translation_is_free`` only on the (pair, direction) entries
    whose boxes share interior somewhere on the sweep (48,768 entries were
    run), pair-major, then in direction order, each with the higher index
    moving. The expected entries come from a scalar loop over the pairs."""
    assembly = cube_stack_assembly(5, 128)
    parts, eps = assembly.parts, assembly.contact_epsilon
    max_distance = 2.0 * assembly.aabb_diagonal
    asked, swept = [], []
    within, sweep = relations.within_distance, relations.sweep_translation_is_free

    def counted_contact(a, b, epsilon):
        asked.append((a, b))
        return within(a, b, epsilon)

    def counted_sweep(static, moving, direction, distance):
        swept.append((static, moving, direction))
        return sweep(static, moving, direction, distance)

    monkeypatch.setattr(relations, "within_distance", counted_contact)
    monkeypatch.setattr(relations, "sweep_translation_is_free", counted_sweep)
    relations.compute_contact_matrix(assembly)
    relations.compute_all_interference_free(assembly)

    near, meet = [], []
    for a, b in itertools.combinations(parts, 2):
        (lo_a, hi_a), (lo_b, hi_b) = a.mesh.aabb, b.mesh.aabb
        reach = eps + 1e-9 * (eps + float(np.abs([lo_a, hi_a, lo_b, hi_b]).max()))
        if not (np.any(lo_a - reach > hi_b) or np.any(lo_b - reach > hi_a)):
            near.append((a.mesh, b.mesh))
        for d in DIRECTION_ORDER:
            ax = d.axis
            if not all(lo_a[o] < hi_b[o] and lo_b[o] < hi_a[o] for o in range(3) if o != ax):
                continue
            if d.sign > 0:
                t_lo, t_hi = lo_a[ax] - hi_b[ax], hi_a[ax] - lo_b[ax]
            else:
                t_lo, t_hi = lo_b[ax] - hi_a[ax], hi_b[ax] - lo_a[ax]
            if max(t_lo, 0.0) < min(t_hi, max_distance):
                meet.append((a.mesh, b.mesh, d))
    assert asked == near and len(near) == 127
    assert swept == meet and 0 < len(meet) < 48_768


def test_fully_separated_cubes_free_in_all_directions():
    a = PartModel("a", box_mesh((0, 0, 0), (5, 5, 5)), 1.0)
    b = PartModel("b", box_mesh((20, 30, 40), (25, 35, 45)), 1.0)
    free = compute_all_interference_free(AssemblyModel((a, b)))
    for d in DIRECTION_ORDER:
        assert free[d][0, 1]
        assert free[d][1, 0]


def test_peg_in_blind_hole_free_only_upward(peg):
    free = compute_all_interference_free(peg)
    base, peg_i = 0, 1
    assert free[Direction.PLUS_Z][base, peg_i]
    for d in DIRECTION_ORDER:
        if d is not Direction.PLUS_Z:
            assert not free[d][base, peg_i], d.value


def test_resting_cube_blocked_only_downward():
    asm = two_cubes(gap=0.0)
    free = compute_all_interference_free(asm)
    for d in DIRECTION_ORDER:
        expected = d is not Direction.MINUS_Z
        assert free[d][0, 1] == expected, d.value


def test_sweep_engine_matches_naive_loop():
    """On a peg in its hole and on boxes stacked and side by side, whose
    blocking windows are wide, the sweep decided over its whole range
    equals the sampled reference at every resolution."""
    base = generate_proxy_fixture("blind-hole-base").mesh
    peg = generate_proxy_fixture("peg").mesh
    lower = box_mesh((0, 0, 0), (10, 10, 10))
    upper = box_mesh((2, 3, 10), (9, 12, 18))
    beside = box_mesh((10, 0, 0), (20, 10, 10))
    for static, moving in [(base, peg), (lower, upper), (lower, beside)]:
        for d in DIRECTION_ORDER:
            for n in (16, 37, 64):
                assert sweep_translation_is_free(static, moving, d, 80.0) == \
                    naive_sweep_is_free(static, moving, d, 80.0, n), (d.value, n)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_sweep_engine_matches_naive_on_random_boxes(seed):
    """Random boxes: a sweep is blocked exactly when the boxes' interiors
    meet at some offset in (0, 40], and so wherever the per-sample loop
    finds an intersection, which it may miss between its 16 samples."""
    rng = np.random.default_rng(seed)
    lo_s, hi_s = rng.uniform(-6, 0, 3), rng.uniform(1, 6, 3)
    off = rng.uniform(-10, 10, 3)
    lo_m, hi_m = rng.uniform(-6, 0, 3) + off, rng.uniform(1, 6, 3) + off
    static, moving = box_mesh(lo_s, hi_s), box_mesh(lo_m, hi_m)
    for d in DIRECTION_ORDER:
        ax, others = d.axis, [o for o in range(3) if o != d.axis]
        t_lo, t_hi = sorted(d.sign * np.array([lo_s[ax] - hi_m[ax], hi_s[ax] - lo_m[ax]]))
        overlap = (all(lo_s[o] < hi_m[o] and lo_m[o] < hi_s[o] for o in others)
                   and max(t_lo, 0.0) < min(t_hi, 40.0))
        free = sweep_translation_is_free(static, moving, d, 40.0)
        assert free == (not overlap), d.value
        assert naive_sweep_is_free(static, moving, d, 40.0, 16) or not free, d.value


grid_box = st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.tuples(*[st.integers(1, 3)] * 3))


@given(a=grid_box, b=grid_box, epsilon=st.sampled_from([0.5, 1.2, 1.5, 1.9, 2.1]))
@settings(max_examples=300, deadline=None)
def test_grid_box_pairs_match_analytic_rules(a, b, epsilon):
    """Oracle that shares no code with the penetration kernel: integer-grid
    boxes, where face, edge and corner touches are common. Box gaps are
    square roots of integers, and no ``epsilon`` lies near one."""
    lo_a, lo_b = np.array(a[0], float), np.array(b[0], float)
    hi_a, hi_b = lo_a + a[1], lo_b + b[1]
    depth = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    mesh_a, mesh_b = box_mesh(lo_a, hi_a), box_mesh(lo_b, hi_b)
    gap = float(np.linalg.norm(np.maximum(0.0, -depth)))
    assert within_distance(mesh_a, mesh_b, epsilon) == within_distance(mesh_b, mesh_a, epsilon) \
        == (min_distance(mesh_a, mesh_b) <= epsilon) == (gap <= epsilon)
    assembly = AssemblyModel((PartModel("a", mesh_a, 1.0), PartModel("b", mesh_b, 1.0)))
    contact = compute_contact_matrix(assembly)
    assert contact[0, 1] == contact[1, 0] == (gap <= assembly.contact_epsilon)
    penetrating = bool((depth > 0).all())
    assert intersects(mesh_a, mesh_b) == intersects(mesh_b, mesh_a) == penetrating
    if penetrating:
        return
    free = compute_all_interference_free(assembly)
    for d in DIRECTION_ORDER:
        ax = d.axis
        side_overlap = all(depth[o] > 0 for o in range(3) if o != ax)
        # a moving part is blocked iff the static box lies ahead along d
        if d.sign > 0:
            a_ahead, b_ahead = lo_a[ax] >= hi_b[ax], lo_b[ax] >= hi_a[ax]
        else:
            a_ahead, b_ahead = hi_a[ax] <= lo_b[ax], hi_b[ax] <= lo_a[ax]
        assert free[d][0, 1] == (not (side_overlap and a_ahead)), d.value
        assert free[d][1, 0] == (not (side_overlap and b_ahead)), d.value


def test_duality_on_fixtures(proxy, peg, cube_stacks):
    for asm in [proxy, peg, *cube_stacks]:
        free = compute_all_interference_free(asm)
        n = len(asm.parts)
        for d in DIRECTION_ORDER:
            for i in range(n):
                for k in range(n):
                    if i != k:
                        assert free[d][i, k] == free[d.opposite][k, i]


def test_refining_steps_never_flips_free_to_blocked_to_free(peg):
    """The sampled reference only loses freedom as its grid is refined,
    and the sweep, decided over its whole range, is blocked wherever any
    refinement is."""
    max_distance = 2.0 * peg.aabb_diagonal
    for static, moving in itertools.combinations(peg.parts, 2):
        for d in DIRECTION_ORDER:
            base = naive_sweep_is_free(static.mesh, moving.mesh, d, max_distance, 16)
            exact = sweep_translation_is_free(static.mesh, moving.mesh, d, max_distance)
            assert base or not exact, (static.id, moving.id, d.value)
            for factor in (2, 3, 10):
                finer = naive_sweep_is_free(static.mesh, moving.mesh, d, max_distance,
                                            16 * factor)
                # refinement may only remove claimed freedom, never invent it
                assert base or not finer, (static.id, moving.id, d.value, factor)
                assert finer or not exact, (static.id, moving.id, d.value, factor)


def test_default_sweeps_equal_the_10x_oracle_on_fixtures(proxy, peg):
    for asm in (proxy, peg):
        std = compute_all_interference_free(asm)
        oracle = oracle_interference_free(asm)
        for d in DIRECTION_ORDER:
            assert (std[d] == oracle[d]).all()


def thin_shelf_pair() -> AssemblyModel:
    """A 1 mm sheet under a 1 mm shelf, each hung from a post: sweeping the
    sheet along +z meets the shelf only for offsets in (41.3, 43.3) mm, a
    window narrower than the default 4.375 mm step."""
    static = compound_mesh(box_mesh((-60, -20, 0), (-50, 20, 53.3)),
                           box_mesh((-40, -20, 52.3), (40, 20, 53.3)))
    moving = compound_mesh(box_mesh((50, -15, 0), (60, 15, 60)),
                           box_mesh((-30, -15, 10), (30, 15, 11)))
    return AssemblyModel((PartModel("shelf", static, 1.0), PartModel("sheet", moving, 1.0)))


def test_thin_shelf_blocks_plus_z_under_finer_sampling():
    pair = thin_shelf_pair()
    assert not oracle_interference_free(pair)[Direction.PLUS_Z][0, 1]
    shelf, sheet = (p.mesh for p in pair.parts)
    assert not sweep_translation_is_free(shelf, sheet, Direction.PLUS_Z,
                                         2.0 * pair.aabb_diagonal)


def flush_shelf_pair() -> AssemblyModel:
    """The shelf of :func:`thin_shelf_pair` and a 1 mm sheet with the
    shelf's own footprint, flush with it on x and y: sweeping the sheet
    along +z, no triangle pair ever properly crosses, and only containment
    blocks, for offsets in (41.3, 43.3) mm, between two samples of a
    4.4 mm step."""
    static, _ = (p.mesh for p in thin_shelf_pair().parts)
    moving = compound_mesh(box_mesh((50, -15, 0), (60, 15, 60)),
                           box_mesh((-40, -20, 10), (40, 20, 11)))
    return AssemblyModel((PartModel("shelf", static, 1.0), PartModel("sheet", moving, 1.0)))


def crossed_bars() -> AssemblyModel:
    """A bar along x at z 20-22 over a bar along y at z 0-2: sweeping the
    lower bar along +z, every crossing pair has a triangle parallel to z,
    and no probe of either lies strictly inside the other."""
    static = box_mesh((-50, -1, 20), (50, 1, 22))
    moving = box_mesh((-1, -50, 0), (1, 50, 2))
    return AssemblyModel((PartModel("upper", static, 1.0), PartModel("lower", moving, 1.0)))


@pytest.mark.parametrize("assembly", [thin_shelf_pair(), crossed_bars(), flush_shelf_pair()],
                         ids=["thin_shelf", "crossed_bars", "flush_shelf"])
def test_narrow_blocking_windows_block_on_the_default_path(assembly):
    """The sheet passing the shelf for 2 mm of a 4.4 mm sample step, flush
    with it or not, and the crossed bars, are blocked along +z by the
    default matrices: their crossings and containment are decided over the
    whole range, not at samples. Moving away, along -z, is free."""
    free = compute_relation_matrices(assembly).interference_free
    assert not free[Direction.PLUS_Z][0, 1] and not free[Direction.MINUS_Z][1, 0]
    assert free[Direction.MINUS_Z][0, 1] and free[Direction.PLUS_Z][1, 0]


def sliver_footed_block(depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of a 6 x 6 x 5 mm block whose bottom face
    lies ``depth`` below z = 0 and is fanned from a vertex 1e-12 mm off
    its front edge, so its first triangle is a sliver along that edge."""
    box = box_mesh((2, 2, 0), (8, 8, 5))
    vertices = np.vstack([box.vertices, [5.0, 2.0 + 1e-12, 0.0]])
    vertices[vertices[:, 2] == 0, 2] = -depth
    bottom = [[0, 8, 1], [1, 8, 2], [2, 8, 3], [3, 8, 0]]
    return vertices, np.vstack([bottom, box.triangles[2:]])


def test_sliver_footed_part_resting_within_the_tolerance_slides_off(tmp_path):
    """A block resting on a plate, its bottom 0.8 nm into the plate's top,
    within the touch tolerance, with a sliver in that bottom along its
    front edge: contact, not penetration. The descriptor loads, the pair
    touches, and the block is free to slide off along x and y and to lift,
    and blocked only downward, into the plate."""
    vertices, triangles = sliver_footed_block(0.8e-9)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in triangles.tolist()]
    (tmp_path / "block.obj").write_text("\n".join(lines) + "\n")
    save_stl_binary(box_mesh((0, 0, -10), (10, 10, 0)), tmp_path / "plate.stl")
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps({"parts": [
        {"id": "plate", "mesh_path": "plate.stl", "mass_g": 1.0},
        {"id": "block", "mesh_path": "block.obj", "mass_g": 1.0}]}))
    assembly = load_descriptor(descriptor)
    plate, block = (p.mesh for p in assembly.parts)
    assert block.vertices[:, 2].min() == -0.8e-9
    assert not intersects(plate, block) and within_distance(plate, block, 1e-6)
    matrices = compute_relation_matrices(assembly)
    assert matrices.contact[0, 1]
    free = matrices.interference_free
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d != Direction.MINUS_Z), d
        assert free[d][1, 0] == (d != Direction.PLUS_Z), d


@pytest.mark.parametrize("thickness", [0.1, 1.0])
def test_sheet_thinner_than_its_probe_depth_loads_in_its_slot(tmp_path, thickness):
    """A sheet snug in the slot of a C-shaped part, 0.1 mm thin, less than
    the 0.128 mm by which the probe under its largest face used to be
    pulled in, which put that probe in the slab below, or 1 mm thick: the
    descriptor loads, the parts do not interpenetrate in either order, and
    the sheet slides out along -x and +-y and is blocked along +x, into
    the back wall, and along +-z, into the slabs."""
    c, sheet = slotted_sheet(thickness)
    save_stl_binary(c, tmp_path / "c.stl")
    save_stl_binary(sheet, tmp_path / "s.stl")
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps({"parts": [
        {"id": "c", "mesh_path": "c.stl", "mass_g": 1.0},
        {"id": "s", "mesh_path": "s.stl", "mass_g": 1.0}]}))
    assembly = load_descriptor(descriptor)
    c, sheet = (p.mesh for p in assembly.parts)
    assert not intersects(c, sheet) and not intersects(sheet, c)
    free = compute_relation_matrices(assembly).interference_free
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d.value in ("-x", "+y", "-y")), d


def test_rotation_permutes_interference_matrices(proxy):
    rotated = rotated_assembly(proxy, ROT_Z_QUARTER)
    m_orig = compute_all_interference_free(proxy)
    m_rot = compute_all_interference_free(rotated)
    assert np.array_equal(compute_contact_matrix(proxy), compute_contact_matrix(rotated))
    for d in DIRECTION_ORDER:
        d_orig = direction_of(ROT_Z_QUARTER.T @ d.unit_vector)
        assert np.array_equal(m_rot[d], m_orig[d_orig]), (d.value, d_orig.value)


def test_sweeps_run_twice_the_diagonal(monkeypatch):
    """Every sweep that the box pass keeps runs twice the assembly
    diagonal, with no setting and no sample count: the one sweep of the
    stacked cubes whose boxes can meet (-z), and all six of a cube nested
    in another's box."""
    nested = AssemblyModel((PartModel("outer", box_mesh((0, 0, 0), (10, 10, 10)), 1.0),
                            PartModel("inner", box_mesh((4, 4, 4), (6, 6, 6)), 1.0)))
    for asm, kept in ((two_cubes(gap=0.0), [Direction.MINUS_Z]), (nested, DIRECTION_ORDER)):
        sweeps = []
        monkeypatch.setattr(relations, "sweep_translation_is_free",
                            lambda static, moving, direction, distance:
                            sweeps.append((direction, distance)))
        compute_all_interference_free(asm)
        assert sweeps == [(d, 2 * asm.aabb_diagonal) for d in kept]


def thin_plate_beside_cube() -> AssemblyModel:
    """A 1e-5 mm plate beside a 100 mm cube, touching its +x face: a
    sample step capped at half the plate's thickness would take about 1e8
    samples."""
    a = PartModel("a", box_mesh((0, 0, 0), (100, 100, 100)), 1.0)
    b = PartModel("b", box_mesh((100, 0, 0), (200, 100, 1e-5)), 1.0)
    return AssemblyModel((a, b))


def cube_on_thin_base() -> AssemblyModel:
    """The thin plate of :func:`thin_plate_beside_cube` as the static part,
    with the cube resting on it."""
    a = PartModel("a", box_mesh((0, 0, 0), (100, 100, 1e-5)), 1.0)
    b = PartModel("b", box_mesh((0, 0, 1e-5), (100, 100, 100)), 1.0)
    return AssemblyModel((a, b))


@pytest.mark.parametrize("assembly, blocked", [(cube_on_thin_base(), "-z"),
                                               (thin_plate_beside_cube(), "-x")],
                         ids=["thin_base", "thin_plate"])
def test_thin_pairs_are_decided(assembly, blocked):
    """Pairs with a 1e-5 mm part are decided like any other, by hand: the
    two parts touch, the moving part is blocked only by running into the
    static one, along ``blocked``, and the static part only along the
    opposite direction. Every other sweep slides along a face or moves
    away."""
    matrices = compute_relation_matrices(assembly)
    assert matrices.contact[0, 1]
    free = matrices.interference_free
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d.value != blocked), d
        assert free[d][1, 0] == (d.opposite.value != blocked), d


# -- reachable gate -----------------------------------------------------------

def test_reachable_zero_without_contact():
    n = 3
    contact = np.zeros((n, n), dtype=bool)
    free = np.ones((n, n), dtype=bool)
    np.fill_diagonal(free, False)
    assert not compute_reachable_matrix(contact, free).any()


def test_reachable_direct_evaluation():
    contact = np.array([[0, 1], [1, 0]], dtype=bool)
    free = np.array([[0, 1], [1, 0]], dtype=bool)
    reach = compute_reachable_matrix(contact, free)
    assert reach[0, 1] and reach[1, 0]


def test_reachable_asymmetric_contact_is_symmetrized():
    contact = np.array([[0, 1], [0, 0]], dtype=bool)
    free = np.array([[0, 0], [1, 0]], dtype=bool)
    reach = compute_reachable_matrix(contact, free)
    assert reach.tolist() == [[False, False], [True, False]]


def test_reachable_dimension_mismatch():
    with pytest.raises(RelationError):
        compute_reachable_matrix(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


def test_reachable_gate_bounds_on_fixtures(proxy, cube_stacks):
    for asm in [proxy, *cube_stacks]:
        mats = compute_relation_matrices(asm)
        gate = mats.contact | mats.contact.T
        for d in DIRECTION_ORDER:
            reach = mats.reachable[d]
            assert not (reach & ~gate).any()
            assert not (reach & ~mats.interference_free[d]).any()


def test_reachable_direction_list_ordering(peg):
    mats = compute_relation_matrices(peg)
    flags = mats.reachable_list("base", "peg")
    assert flags.flags == (False, False, False, False, True, False)
    assert flags.set_directions == (Direction.PLUS_Z,)


def unrelated_pair() -> RelationMatrices:
    zeros = np.zeros((2, 2), dtype=bool)
    return RelationMatrices(("a", "b"), zeros, {d: zeros for d in DIRECTION_ORDER})


def test_reachable_list_all_zero():
    flags = unrelated_pair().reachable_list("a", "b")
    assert flags.flags == (False,) * 6
    assert not flags.any_set


def test_reachable_list_unknown_entity():
    mats = unrelated_pair()
    with pytest.raises(RelationError):
        mats.reachable_list("a", "zz")
    with pytest.raises(RelationError):
        mats.reachable_list("a", "a")


def test_proxy_motor_plate_reachable_only_plus_z(proxy):
    mats = compute_relation_matrices(proxy)
    assert mats.reachable_list("motor", "plate").flags == (False, False, False, False, True, False)


# -- merging ------------------------------------------------------------------

def test_identity_merge_relabels_only(proxy):
    mats = compute_relation_matrices(proxy)
    merged = merge_entity(mats, {"plate"}, "plate")
    assert merged.entity_ids == mats.entity_ids
    assert np.array_equal(merged.contact, mats.contact)
    for d in DIRECTION_ORDER:
        assert np.array_equal(merged.interference_free[d], mats.interference_free[d])


def test_merge_uses_and_semantics_for_interference(proxy):
    mats = compute_relation_matrices(proxy)
    merged = merge_entity(mats, {"motor", "plate"}, "motor+plate")
    assert merged.entity_ids == ("motor+plate", "bolt_a", "bolt_b")
    c = merged.index_of("motor+plate")
    for bolt in ("bolt_a", "bolt_b"):
        k = merged.index_of(bolt)
        # the plate alone blocks the bolts downward, so the merged entity must
        assert not merged.interference_free[Direction.MINUS_Z][c, k]
        assert merged.interference_free[Direction.PLUS_Z][c, k]


def test_merge_uses_or_semantics_for_contact(proxy):
    mats = compute_relation_matrices(proxy)
    merged = merge_entity(mats, {"bolt_a", "bolt_b"}, "bolts")
    c = merged.index_of("bolts")
    assert merged.contact[c, merged.index_of("motor")]
    assert merged.contact[c, merged.index_of("plate")]


def test_case1_merge_reachable_only_plus_z(proxy):
    mats = compute_relation_matrices(proxy)
    mats = merge_entity(mats, {"bolt_a", "bolt_b"}, "bolts")
    mats = merge_entity(mats, {"motor", "plate"}, "combined")
    flags = mats.reachable_list("combined", "bolts")
    assert flags.flags == (False, False, False, False, True, False)


def test_reachable_between_equals_the_merged_entry(proxy):
    mats = compute_relation_matrices(proxy)
    ids = mats.entity_ids
    for labels in itertools.product((0, 1, 2), repeat=len(ids)):
        rows = [i for i, label in enumerate(labels) if label == 1]
        cols = [i for i, label in enumerate(labels) if label == 2]
        if not rows or not cols:
            continue
        merged = merge_entity(mats, {ids[i] for i in rows}, "rows")
        merged = merge_entity(merged, {ids[i] for i in cols}, "cols")
        assert mats.reachable_between(rows, cols) == merged.reachable_list("rows", "cols")


def test_merge_unknown_member(proxy):
    mats = compute_relation_matrices(proxy)
    with pytest.raises(RelationError):
        merge_entity(mats, {"motor", "flywheel"}, "x")
    with pytest.raises(RelationError):
        merge_entity(mats, set(), "x")
    with pytest.raises(RelationError):
        merge_entity(mats, {"motor"}, "plate")  # collides with survivor


# -- matrices container -------------------------------------------------------

def test_relation_matrices_validation():
    ids = ("a", "b")
    contact = np.array([[0, 1], [1, 0]], dtype=bool)
    free = {d: np.zeros((2, 2), dtype=bool) for d in DIRECTION_ORDER}
    mats = RelationMatrices(ids, contact, free)
    for d in DIRECTION_ORDER:
        assert not mats.reachable[d].any()
    with pytest.raises(RelationError):
        RelationMatrices(ids, np.array([[1, 0], [0, 0]], dtype=bool), free)
    with pytest.raises(RelationError):
        RelationMatrices(ids, np.array([[0, 1], [0, 0]], dtype=bool), free)


def test_json_export_counts_and_values(peg):
    mats = compute_relation_matrices(peg)
    doc = mats.to_json_dict()
    assert doc["entity_ids"] == ["base", "peg"]
    assert len(doc["interference_free"]) == 6
    assert len(doc["reachable"]) == 6
    assert doc["contact"] == [[0, 1], [1, 0]]
    assert doc["interference_free"]["+z"] == [[0, 1], [0, 0]]
    assert doc["reachable"]["+z"] == [[0, 1], [0, 0]]
    total = 1 + len(doc["interference_free"]) + len(doc["reachable"])
    assert total == 13


def test_reachable_direction_list_requires_six_flags():
    with pytest.raises(RelationError):
        ReachableDirectionList((True, False))
