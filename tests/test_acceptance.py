"""Acceptance suite: one test per shipped criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (ROT_Z_QUARTER, direction_of, oracle_interference_free, rotated_assembly,
                      tunnel_assembly)

from softjig.cli import main
from softjig.evaluation import ForceSample, displacement_report, frame_distance, resolve_forces
from softjig.fixtures import cube_stack_assembly, generate_proxy_fixture, peg_assembly, proxy_assembly
from softjig.parts import mass_properties
from softjig.planner import AssemblySequence, configure_fixing_parts
from softjig.relations import (
    DIRECTION_ORDER,
    compute_all_interference_free,
    compute_relation_matrices,
)

from test_evaluation import square_obs


def verdict(number: int, passed: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def shipped_fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    assert main(["fixtures", "--out-dir", str(out)]) == 0
    return out


def test_criterion_01_fixing_table_reproduction(shipped_fixture_dir, tmp_path):
    descriptor = str(shipped_fixture_dir / "assembly.json")
    expected = {
        "motor,plate,bolts": [("motor", "+z"), ("motor", "+z")],
        "plate,bolts,motor": [("plate", "+z"), ("motor", "-z")],
    }
    ok = True
    for sequence, target in expected.items():
        out = tmp_path / f"plan_{sequence.replace(',', '_')}.json"
        started = time.perf_counter()
        code = main(["plan", descriptor, "--sequence", sequence, "--out", str(out)])
        elapsed = time.perf_counter() - started
        plan = json.loads(out.read_text())
        steps = [(s["fixed_part"], s["posture_label"]) for s in plan["steps"]]
        ok &= code == 0 and plan["complete"] and steps == target and elapsed < 10.0
    verdict(1, ok, "both assembly orders reproduce the target fixing table in < 10 s each")


def test_criterion_02_interference_oracle_equivalence():
    started = time.perf_counter()
    ok = True
    for assembly in (proxy_assembly(), peg_assembly()):
        standard = compute_all_interference_free(assembly)
        oracle = oracle_interference_free(assembly)
        for d in DIRECTION_ORDER:
            ok &= bool((standard[d] == oracle[d]).all())
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    verdict(2, ok, f"default sweeps equal the 10x oracle on every fixture ({elapsed:.1f} s)")


def test_criterion_03_duality_on_random_stacks():
    ok = True
    for seed in range(5):
        assembly = cube_stack_assembly(seed)
        free = compute_all_interference_free(assembly)
        n = len(assembly.parts)
        for d in DIRECTION_ORDER:
            for i in range(n):
                for k in range(n):
                    if i != k:
                        ok &= bool(free[d][i, k]) == bool(free[d.opposite][k, i])
    verdict(3, ok, "mirror identity M_j(i,k) == M_-j(k,i) exact on 5 seeded cube stacks")


def test_criterion_04_reachability_gate_algebra(tmp_path):
    ok = True
    for assembly in (proxy_assembly(), peg_assembly()):
        mats = compute_relation_matrices(assembly)
        gate = mats.contact | mats.contact.T
        for d in DIRECTION_ORDER:
            ok &= not (mats.reachable[d] & ~gate).any()
            ok &= not (mats.reachable[d] & ~mats.interference_free[d]).any()
    # no contact forces an all-zero reachable list, which halts the planner
    from softjig.mesh import save_stl_binary
    from softjig.fixtures import box_mesh
    save_stl_binary(box_mesh((0, 0, 0), (10, 10, 10)), tmp_path / "a.stl")
    save_stl_binary(box_mesh((25, 0, 0), (35, 10, 10)), tmp_path / "b.stl")
    (tmp_path / "apart.json").write_text(json.dumps({"parts": [
        {"id": "a", "mesh_path": "a.stl", "mass_g": 1.0},
        {"id": "b", "mesh_path": "b.stl", "mass_g": 1.0},
    ]}))
    code = main(["plan", str(tmp_path / "apart.json"), "--sequence", "a,b",
                 "--out", str(tmp_path / "halted.json")])
    halted = json.loads((tmp_path / "halted.json").read_text())
    ok &= code == 2 and not halted["complete"] and halted["halt_reason"] is not None
    verdict(4, ok, "reachability never exceeds contact or interference freedom; "
                   "contact-free pair halts with exit 2")


def test_criterion_05_center_of_gravity_correctness():
    from softjig.fixtures import BASE_HALF, BASE_HEIGHT, POCKET_FLOOR, POCKET_HALF, box_mesh
    from softjig.parts import PartModel

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
    solid = ~((np.abs(x) < POCKET_HALF) & (np.abs(y) < POCKET_HALF) & (z > POCKET_FLOOR))
    count = solid.sum()
    oracle = np.array([(solid * x).sum(), (solid * y).sum(), (solid * z).sum()]) / count

    part = generate_proxy_fixture("blind-hole-base")
    _, cog = mass_properties([part])
    ok = np.linalg.norm(cog - oracle) <= 1e-3 * part.mesh.aabb_diagonal

    # both boxes have exactly representable centroids (z = 0 and z = 2)
    a = PartModel("a", box_mesh((-1, -1, -1), (1, 1, 1)), 5.0)
    b = PartModel("b", box_mesh((0, 0, 1), (2, 2, 3)), 5.0)
    ok &= a.cog[2] == 0.0 and b.cog[2] == 2.0
    _, combined = mass_properties([a, b])
    ok &= combined[2] == 1.0
    verdict(5, ok, "combined CoG matches the 256^3 voxel oracle within 0.1% of the "
                   "AABB diagonal; equal masses give the exact midpoint")


def test_criterion_06_posture_equivariance():
    ok = True
    for assembly, sequence in [
        (proxy_assembly(), AssemblySequence.parse("motor,plate,bolts")),
        (tunnel_assembly(), AssemblySequence(("tunnel", "slider"))),
    ]:
        plan = configure_fixing_parts(assembly, sequence)
        rotated_plan = configure_fixing_parts(rotated_assembly(assembly, ROT_Z_QUARTER), sequence)
        ok &= plan.complete and rotated_plan.complete
        for orig, rot in zip(plan.steps, rotated_plan.steps):
            expected = direction_of(ROT_Z_QUARTER @ orig.posture_label.unit_vector)
            ok &= rot.posture_label is expected and rot.fixed_part == orig.fixed_part
    verdict(6, ok, "quarter-turn about z permutes posture labels (x<->y axes) with "
                   "identical fixed parts")


def test_criterion_07_force_resolution():
    ok = resolve_forces(ForceSample(3, 4, 0)) == (0.0, 5.0)
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        fx, fy, fz = rng.uniform(-50, 50, 3)
        angle = rng.uniform(0, 2 * math.pi)
        _, base_shear = resolve_forces(ForceSample(fx, fy, fz))
        c, s = math.cos(angle), math.sin(angle)
        _, rotated_shear = resolve_forces(ForceSample(c * fx - s * fy, s * fx + c * fy, fz))
        ok &= abs(rotated_shear - base_shear) < 1e-12
    verdict(7, ok, "normal/shear split exact on (3,4,0); shear invariant under 1000 "
                   "planar rotations within 1e-12")


def test_criterion_08_frame_distance_metric():
    ok = frame_distance(square_obs(), square_obs()) == 0.0
    half_turn = square_obs()
    flipped = type(half_turn)(points=tuple((-x, -y) for x, y in half_turn.points))
    ok &= abs(frame_distance(square_obs(), flipped) - 2.0 * math.sqrt(2.0)) < 1e-12
    d_base = frame_distance(square_obs(cx=3, cy=4), square_obs(cx=8, cy=1))
    d_moved = frame_distance(square_obs(cx=3 + 77.7, cy=4 - 13.2),
                             square_obs(cx=8 + 77.7, cy=1 - 13.2))
    ok &= abs(d_base - d_moved) < 1e-12
    verdict(8, ok, "frame distance: 0 for identical frames, 2*sqrt(2) for a half turn, "
                   "translation-invariant within 1e-12")


def test_criterion_09_push_success_classifier():
    reports = {
        px: displacement_report(square_obs(scale=50), square_obs(cx=px, scale=50),
                                jig_width_px=320.0)
        for px in (156.4, 108.4, 126.0)
    }
    ok = reports[156.4].centroid_translation_mm == 78.2 and reports[156.4].success
    ok &= reports[108.4].centroid_translation_mm == 54.2 and not reports[108.4].success
    ok &= reports[126.0].centroid_translation_mm == 63.0 and reports[126.0].success
    verdict(9, ok, "78.2 mm -> success, 54.2 mm -> failure, 63.0 mm -> success "
                   "(inclusive 90% of 70 mm)")


def test_criterion_10_byte_identical_reruns(shipped_fixture_dir, tmp_path):
    descriptor = str(shipped_fixture_dir / "assembly.json")
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    before.write_text(json.dumps({"image_tag": "b", "points": [[0, 100], [100, 0], [0, -100], [-100, 0]]}))
    after.write_text(json.dumps({"image_tag": "a", "points": [[156.4, 100], [256.4, 0], [156.4, -100], [56.4, 0]]}))

    runs = {
        "fixtures": lambda d: main(["fixtures", "--out-dir", str(d / "fx")]),
        "plan": lambda d: main(["plan", descriptor, "--sequence", "motor,plate,bolts",
                                "--out", str(d / "plan.json")]),
        "matrices": lambda d: main(["matrices", descriptor, "--out", str(d / "matrices.json")]),
        "evaluate": lambda d: main(["evaluate", str(before), str(after),
                                    "--jig-width-px", "320", "--out", str(d / "report.json")]),
    }
    ok = True
    for name, run in runs.items():
        d1 = tmp_path / f"{name}_1"
        d2 = tmp_path / f"{name}_2"
        d1.mkdir()
        d2.mkdir()
        run(d1)
        run(d2)
        files1 = sorted(p for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p for p in d2.rglob("*") if p.is_file())
        ok &= [p.name for p in files1] == [p.name for p in files2] and len(files1) > 0
        for f1, f2 in zip(files1, files2):
            ok &= f1.read_bytes() == f2.read_bytes()
    verdict(10, ok, "every subcommand writes byte-identical outputs on consecutive runs")
