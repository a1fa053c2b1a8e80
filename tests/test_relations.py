import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ROT_Z_QUARTER,
    dense_box_pairs,
    direction_of,
    min_distance_brute_force,
    naive_penetrates_along,
    naive_sweep_is_free,
    oracle_interference_free,
    rotated_assembly,
)

from softjig import broad, cube_stack_assembly, queries, relations, straddle
from softjig.fixtures import box_mesh, compound_mesh, generate_proxy_fixture, revolve_mesh
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
    sweep_sample_distances,
    sweep_steps,
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


def lateral_sweep_offsets(assembly: AssemblyModel, direction: Direction) -> np.ndarray:
    """The signed offsets of the default sweep of the second part past the
    first along ``direction`` at which the whole boxes overlap along the
    axis: what the penetration kernel would be given if the touching-box
    cull did not decide the sweep first."""
    static, moving = (p.mesh for p in assembly.parts)
    max_distance = 2.0 * assembly.aabb_diagonal
    thin = min(float(np.min(m.aabb[1] - m.aabb[0])) for m in (static, moving))
    samples = sweep_sample_distances(max_distance, sweep_steps(max_distance, thin))
    ax = direction.axis
    if direction.sign > 0:
        t_lo, t_hi = static.aabb[0][ax] - moving.aabb[1][ax], static.aabb[1][ax] - moving.aabb[0][ax]
    else:
        t_lo, t_hi = moving.aabb[0][ax] - static.aabb[1][ax], moving.aabb[1][ax] - static.aabb[0][ax]
    return direction.sign * samples[(samples >= t_lo) & (samples <= t_hi)]


def test_crossing_rows_pruned_on_stacked_cylinders(monkeypatch):
    """Work-count guard, not a timing: on two stacked 1,024-triangle
    cylinders in face contact, the straddle windows leave at most a fifth
    of the rows that the triangle-box windows alone give, and the six
    matrices do not change. The lateral sweeps are decided by the box cull,
    so the kernel is driven with their offsets directly."""
    assembly = stacked_cylinders()
    lower, upper = (p.mesh for p in assembly.parts)
    rows = [0]
    original = queries.proper_crossings

    def counted(a, b, *args):
        rows[-1] += len(a)
        return original(a, b, *args)

    def lateral_blocked():
        return [queries.penetrates_along(lower, upper, d.axis, lateral_sweep_offsets(assembly, d))
                for d in LATERAL]

    monkeypatch.setattr(queries, "proper_crossings", counted)
    pruned = compute_all_interference_free(assembly)
    pruned_lateral = lateral_blocked()
    # a zero slack leaves no pair's rounding bound under it, so every pair
    # keeps its whole box window
    monkeypatch.setattr(straddle, "SLACK_SHARE", 0.0)
    rows.append(0)
    box_only = compute_all_interference_free(assembly)
    box_only_lateral = lateral_blocked()
    assert 0 < 5 * rows[0] <= rows[1]
    assert pruned_lateral == box_only_lateral == [False] * 4
    for d in DIRECTION_ORDER:
        assert np.array_equal(pruned[d], box_only[d])
        assert pruned[d][0, 1] == (d is not Direction.MINUS_Z)
        assert pruned[d][1, 0] == (d is not Direction.PLUS_Z)


def test_sweeps_window_only_the_pairs_they_need(monkeypatch):
    """Counter, not timing, on two stacked 1,024-triangle cylinders in face
    contact. The blocked -z sweep windows at most one first batch of
    candidate pairs before its first crossing. A free lateral sweep streams
    and windows each candidate pair of the dense oracle exactly once, and
    its static-side straddle windows see only the pairs that the
    static-plane windows leave in range. The lateral sweeps are decided by
    the box cull, so the kernel is driven with their offsets directly."""
    assembly = stacked_cylinders()
    lower, upper = (p.mesh for p in assembly.parts)
    sweeps = []
    penetrates, box_pairs = relations.penetrates_along, broad.box_pairs
    row_windows, straddle_window = straddle.row_windows, straddle._straddle_window

    def sweep(static, moving, axis, offsets):
        sweeps.append({"direction": direction_of(np.sign(offsets[0]) * np.eye(3)[axis]), "windows": []})
        sweeps[-1]["blocked"] = penetrates(static, moving, axis, offsets)
        return sweeps[-1]["blocked"]

    def candidates(*args):
        sweeps[-1]["pairs"] = dense_box_pairs(*args)
        sweeps[-1]["streamed"] = []
        for block in box_pairs(*args):
            sweeps[-1]["streamed"].append(block)
            yield block

    def windows(static, moving, si, mi, axis, offsets, first, last, tol):
        sweeps[-1]["windows"].append({"si": si, "mi": mi, "first": first, "last": last,
                                      "offsets": offsets, "sides": []})
        return row_windows(static, moving, si, mi, axis, offsets, first, last, tol)

    def side(mesh, i, *args):
        window = straddle_window(mesh, i, *args)
        sweeps[-1]["windows"][-1]["sides"].append((mesh, len(i), window))
        return window

    monkeypatch.setattr(relations, "penetrates_along", sweep)
    monkeypatch.setattr(broad, "box_pairs", candidates)
    monkeypatch.setattr(straddle, "row_windows", windows)
    monkeypatch.setattr(straddle, "_straddle_window", side)
    compute_all_interference_free(assembly)
    for d in LATERAL:
        sweep(lower, upper, d.axis, lateral_sweep_offsets(assembly, d))

    by_direction = {s["direction"]: s for s in sweeps}
    blocked = by_direction[Direction.MINUS_Z]
    assert blocked["blocked"]
    assert 0 < sum(len(w["si"]) for w in blocked["windows"]) <= queries._FIRST_BATCH_ROWS
    lateral = [by_direction[d] for d in LATERAL]
    for s in lateral:
        assert not s["blocked"]
        windowed = np.concatenate([w["si"] * len(upper.corners) + w["mi"] for w in s["windows"]])
        si, mi = s["pairs"]
        assert np.array_equal(windowed, si * len(upper.corners) + mi)
        streamed = broad.gather(iter(s["streamed"]))
        assert np.array_equal(streamed[0], si) and np.array_equal(streamed[1], mi)
        survivors = 0
        for w in s["windows"]:
            (moved, plane_rows, (t_lo, t_hi)), (plane, static_rows, _) = w["sides"]
            assert (moved, plane) == (upper, lower)
            assert plane_rows == len(w["si"])     # every pair's rounding bound fits
            first = np.maximum(w["first"], np.searchsorted(w["offsets"], t_lo, side="right"))
            last = np.minimum(w["last"], np.searchsorted(w["offsets"], t_hi, side="left"))
            assert static_rows == np.count_nonzero(first < last)
            survivors += static_rows
        assert 0 < 4 * survivors < len(si)


def test_face_contact_sweeps_skip_the_kernel(monkeypatch):
    """Counter: on two stacked cylinders in face contact, whose boxes touch
    on z, the +-x and +-y sweeps are proven free by the boxes alone and make
    no ``penetrates_along`` call; only the blocked -z sweep reaches it (+z
    has no overlapping sample)."""
    assembly = stacked_cylinders()
    axes = []
    penetrates = relations.penetrates_along

    def counted(static, moving, axis, offsets):
        axes.append((axis, float(np.sign(offsets[0]))))
        return penetrates(static, moving, axis, offsets)

    monkeypatch.setattr(relations, "penetrates_along", counted)
    free = compute_all_interference_free(assembly)
    assert axes == [(2, -1.0)]
    for d in DIRECTION_ORDER:
        assert free[d][0, 1] == (d is not Direction.MINUS_Z)


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
        assert sweep_translation_is_free(static, moving, d, max_distance, 16), d.value
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

    def sweep(static, moving, axis, offsets):
        sweeps.append({"direction": direction_of(np.sign(offsets[0]) * np.eye(3)[axis]),
                       "tests": []})
        sweeps[-1]["blocked"] = penetrates(static, moving, axis, offsets)
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
    base = generate_proxy_fixture("blind-hole-base").mesh
    peg = generate_proxy_fixture("peg").mesh
    lower = box_mesh((0, 0, 0), (10, 10, 10))
    upper = box_mesh((2, 3, 10), (9, 12, 18))
    beside = box_mesh((10, 0, 0), (20, 10, 10))
    for static, moving in [(base, peg), (lower, upper), (lower, beside)]:
        for d in DIRECTION_ORDER:
            for n in (16, 37, 64):
                assert sweep_translation_is_free(static, moving, d, 80.0, n) == \
                    naive_sweep_is_free(static, moving, d, 80.0, n), (d.value, n)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_sweep_engine_matches_naive_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    static = box_mesh(rng.uniform(-6, 0, 3), rng.uniform(1, 6, 3))
    off = rng.uniform(-10, 10, 3)
    moving = box_mesh(rng.uniform(-6, 0, 3) + off, rng.uniform(1, 6, 3) + off)
    for d in DIRECTION_ORDER:
        assert sweep_translation_is_free(static, moving, d, 40.0, 16) == \
            naive_sweep_is_free(static, moving, d, 40.0, 16), d.value


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
    max_distance = 2.0 * peg.aabb_diagonal
    for static, moving in itertools.combinations(peg.parts, 2):
        for d in DIRECTION_ORDER:
            base = sweep_translation_is_free(static.mesh, moving.mesh, d, max_distance, 16)
            for factor in (2, 3, 10):
                finer = sweep_translation_is_free(static.mesh, moving.mesh, d, max_distance,
                                                  16 * factor)
                # refinement may only remove claimed freedom, never invent it
                assert base or not finer, (static.id, moving.id, d.value, factor)


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
                                         2.0 * pair.aabb_diagonal, 640)


def test_rotation_permutes_interference_matrices(proxy):
    rotated = rotated_assembly(proxy, ROT_Z_QUARTER)
    m_orig = compute_all_interference_free(proxy)
    m_rot = compute_all_interference_free(rotated)
    assert np.array_equal(compute_contact_matrix(proxy), compute_contact_matrix(rotated))
    for d in DIRECTION_ORDER:
        d_orig = direction_of(ROT_Z_QUARTER.T @ d.unit_vector)
        assert np.array_equal(m_rot[d], m_orig[d_orig]), (d.value, d_orig.value)


def test_sweeps_run_twice_the_diagonal_at_the_fixed_resolution(monkeypatch):
    """Every sweep runs twice the assembly diagonal at ``STEP_COUNT``
    samples unless a thin part raises it: neither has a setting."""
    asm = two_cubes(gap=0.0)
    sweeps = set()
    monkeypatch.setattr(relations, "sweep_translation_is_free",
                        lambda static, moving, direction, distance, n_steps:
                        sweeps.add((distance, n_steps)))
    compute_all_interference_free(asm)
    assert sweeps == {(2 * asm.aabb_diagonal, relations.STEP_COUNT)}


def _forbid_sample_allocation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("sweep offsets were allocated")
    monkeypatch.setattr(relations, "sweep_sample_distances", forbidden)


def thin_plate_beside_cube() -> AssemblyModel:
    """A 1e-5 mm plate beside a 100 mm cube: the step is capped at half the
    plate's thickness, so the default sweep needs about 1e8 steps."""
    a = PartModel("a", box_mesh((0, 0, 0), (100, 100, 100)), 1.0)
    b = PartModel("b", box_mesh((100, 0, 0), (200, 100, 1e-5)), 1.0)
    return AssemblyModel((a, b))


def cube_on_thin_base() -> AssemblyModel:
    """The thin plate of :func:`thin_plate_beside_cube` as the static part,
    with the cube resting on it: the cap holds whichever part is thin."""
    a = PartModel("a", box_mesh((0, 0, 0), (100, 100, 1e-5)), 1.0)
    b = PartModel("b", box_mesh((0, 0, 1e-5), (100, 100, 100)), 1.0)
    return AssemblyModel((a, b))


@pytest.mark.parametrize("assembly", [cube_on_thin_base(), thin_plate_beside_cube()],
                         ids=["thin_base", "thin_plate"])
def test_oversized_sweep_refused_before_allocation(monkeypatch, assembly):
    _forbid_sample_allocation(monkeypatch)
    with pytest.raises(RelationError, match=r"'b' past 'a' needs \d+ steps"):
        compute_all_interference_free(assembly)


def test_sweep_at_step_cap_goes_ahead(monkeypatch):
    """A pair whose resolved count equals ``MAX_SWEEP_STEPS`` is swept;
    one step more is refused."""
    _forbid_sample_allocation(monkeypatch)
    seen = []
    monkeypatch.setattr(relations, "sweep_translation_is_free",
                        lambda static, moving, direction, distance, n_steps: seen.append(n_steps))
    monkeypatch.setattr(relations, "MAX_SWEEP_STEPS", relations.STEP_COUNT)
    compute_all_interference_free(two_cubes(gap=0.0))
    assert seen == [relations.STEP_COUNT] * len(DIRECTION_ORDER)
    monkeypatch.setattr(relations, "MAX_SWEEP_STEPS", relations.STEP_COUNT - 1)
    with pytest.raises(RelationError, match=r"'b' past 'a' needs 64 steps"):
        compute_all_interference_free(two_cubes(gap=0.0))


def test_steps_raised_for_thin_movers():
    assert sweep_steps(max_distance=1000.0, thinnest_extent=4.0) == 500
    assert sweep_steps(max_distance=100.0, thinnest_extent=50.0) == relations.STEP_COUNT == 64
    assert sweep_steps(max_distance=100.0, thinnest_extent=0.0) == relations.STEP_COUNT


def test_step_count_resolved_once_per_pair(monkeypatch, proxy):
    calls = []
    monkeypatch.setattr(relations, "sweep_steps",
                        lambda *args, steps=sweep_steps: calls.append(args) or steps(*args))
    compute_all_interference_free(proxy)
    assert len(proxy.parts) == 4 and len(calls) == 6


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
