import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from softjig import relations
from softjig.cli import _build_parser, main
from softjig.descriptors import load_descriptor
from softjig.fixtures import box_mesh, proxy_assembly
from softjig.mesh import TriangleMesh, load_mesh, save_obj, save_stl_binary

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--out-dir", str(out)]) == 0
    return out


def write_observation(path, cx, cy=0.0):
    points = [[cx, cy + 100], [cx + 100, cy], [cx, cy - 100], [cx - 100, cy]]
    path.write_text(json.dumps({"image_tag": path.stem, "points": points}))
    return path


def write_two_cube_descriptor(tmp_path, gap_x: float):
    save_stl_binary(box_mesh((0, 0, 0), (10, 10, 10)), tmp_path / "a.stl")
    save_stl_binary(box_mesh((10 + gap_x, 0, 0), (20 + gap_x, 10, 10)), tmp_path / "b.stl")
    descriptor = {
        "parts": [
            {"id": "a", "mesh_path": "a.stl", "mass_g": 10.0},
            {"id": "b", "mesh_path": "b.stl", "mass_g": 10.0},
        ],
    }
    path = tmp_path / "cubes.json"
    path.write_text(json.dumps(descriptor))
    return path


# -- fixtures command ----------------------------------------------------------

def test_fixtures_writes_meshes_and_descriptor(fixture_dir):
    names = sorted(p.name for p in fixture_dir.iterdir())
    assert names == ["assembly.json", "bolt_a.stl", "bolt_b.stl", "motor.stl", "plate.stl"]
    descriptor = json.loads((fixture_dir / "assembly.json").read_text())
    assert [p["id"] for p in descriptor["parts"]] == ["motor", "plate", "bolt_a", "bolt_b"]
    assert descriptor["parts"][2]["group"] == "bolts"
    loaded = load_descriptor(fixture_dir / "assembly.json")
    expected = proxy_assembly()
    assert [(p.id, p.mass, p.group) for p in loaded.parts] == \
        [(p.id, p.mass, p.group) for p in expected.parts]
    for part, reference in zip(loaded.parts, expected.parts):
        # binary STL stores float32 corners
        np.testing.assert_array_equal(part.mesh.corners,
                                      reference.mesh.corners.astype(np.float32))


def test_fixtures_regeneration_byte_identical(fixture_dir, tmp_path):
    assert main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    for name in ("motor.stl", "plate.stl", "bolt_a.stl", "bolt_b.stl", "assembly.json"):
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes()


# -- plan command ----------------------------------------------------------------

def test_plan_case1_from_descriptor(fixture_dir, tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan", str(fixture_dir / "assembly.json"),
                 "--sequence", "motor,plate,bolts", "--out", str(out)])
    assert code == 0
    plan = json.loads(out.read_text())
    assert plan["complete"] is True
    assert [(s["fixed_part"], s["posture_label"]) for s in plan["steps"]] == \
        [("motor", "+z"), ("motor", "+z")]
    table = capsys.readouterr().out
    assert "motor" in table and "+z" in table


def test_plan_case2_builtin_proxy(tmp_path):
    out = tmp_path / "plan.json"
    code = main(["plan", "--fixtures", "proxy",
                 "--sequence", "plate,bolts,motor", "--out", str(out)])
    assert code == 0
    plan = json.loads(out.read_text())
    assert [(s["fixed_part"], s["posture_label"]) for s in plan["steps"]] == \
        [("plate", "+z"), ("motor", "-z")]


def test_plan_missing_part_exits_1(fixture_dir, tmp_path):
    out = tmp_path / "plan.json"
    code = main(["plan", str(fixture_dir / "assembly.json"),
                 "--sequence", "motor,flywheel", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_plan_non_contacting_parts_exits_2(tmp_path):
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=15.0)
    out = tmp_path / "plan.json"
    code = main(["plan", str(descriptor), "--sequence", "a,b", "--out", str(out)])
    assert code == 2
    plan = json.loads(out.read_text())
    assert plan["complete"] is False
    assert plan["halt_reason"]
    assert plan["steps"] == []


def test_plan_infinite_mass_exits_1(tmp_path, capsys):
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=0.0)
    doc = json.loads(descriptor.read_text())
    doc["parts"][1]["mass_g"] = float("inf")
    descriptor.write_text(json.dumps(doc))
    assert "Infinity" in descriptor.read_text()
    out = tmp_path / "plan.json"
    code = main(["plan", str(descriptor), "--sequence", "a,b", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "(b)" in err and "finite" in err


def test_plan_non_finite_translation_exits_1_naming_the_part(fixture_dir, tmp_path, capsys):
    doc = json.loads((fixture_dir / "assembly.json").read_text())
    for part in doc["parts"]:
        part["mesh_path"] = str(fixture_dir / part["mesh_path"])
    doc["parts"][1]["pose"]["translation_mm"] = [0, 0, float("inf")]
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps(doc))
    assert "Infinity" in descriptor.read_text()
    out = tmp_path / "plan.json"
    code = main(["plan", str(descriptor), "--sequence", "motor,plate,bolts", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "(plate)" in err and "non-finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_plan_non_finite_rotation_exits_1_as_a_bad_pose(fixture_dir, tmp_path, capsys, bad):
    """A NaN or infinite rotation entry is one bad-pose line naming the
    part, with no numpy warning before it."""
    doc = json.loads((fixture_dir / "assembly.json").read_text())
    for part in doc["parts"]:
        part["mesh_path"] = str(fixture_dir / part["mesh_path"])
    doc["parts"][1]["pose"]["rotation"] = [[bad, 0, 0], [0, 1, 0], [0, 0, 1]]
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps(doc))
    code = main(["plan", str(descriptor), "--sequence", "motor,plate,bolts"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "parts[1]" in err and "bad pose" in err


def test_plan_open_mesh_exits_1_naming_the_part(fixture_dir, tmp_path, capsys):
    """``plate.stl`` with 2 of its 120 triangles removed is refused at load:
    exit 1, one stderr line naming the part and its 4 unbalanced edges."""
    doc = json.loads((fixture_dir / "assembly.json").read_text())
    for part in doc["parts"]:
        part["mesh_path"] = str(fixture_dir / part["mesh_path"])
    plate = load_mesh(fixture_dir / "plate.stl")
    assert len(plate.triangles) == 120
    save_stl_binary(TriangleMesh(plate.vertices, plate.triangles[2:]), tmp_path / "plate.stl")
    doc["parts"][1]["mesh_path"] = str(tmp_path / "plate.stl")
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps(doc))
    out = tmp_path / "plan.json"
    code = main(["plan", str(descriptor), "--sequence", "motor,plate,bolts", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "(plate)" in err and "not closed" in err
    assert "4 directed edges" in err


def test_plan_interpenetrating_pose_exits_1_naming_both_parts(fixture_dir, tmp_path, capsys):
    """The plate posed 1 mm down sinks into the motor: the descriptor is
    refused with one stderr line naming both parts, not planned."""
    doc = json.loads((fixture_dir / "assembly.json").read_text())
    for part in doc["parts"]:
        part["mesh_path"] = str(fixture_dir / part["mesh_path"])
    doc["parts"][1]["pose"]["translation_mm"] = [0, 0, -1]
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps(doc))
    out = tmp_path / "plan.json"
    code = main(["plan", str(descriptor), "--sequence", "motor,plate,bolts", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "interpenetrate" in err
    assert "'motor'" in err and "'plate'" in err


def unreadable_input(kind: str, fixture_dir: Path, tmp_path: Path) -> list[str]:
    """Arguments of a ``matrices`` call whose descriptor is not UTF-8, whose
    descriptor path is a directory, whose OBJ mesh is not UTF-8, or whose
    ``--out`` is an existing directory."""
    descriptor = fixture_dir / "assembly.json"
    if kind == "descriptor_not_utf8":
        descriptor = tmp_path / "latin1.json"
        descriptor.write_bytes('{"parts": [], "note": "\u00e9"}'.encode("latin-1"))
    elif kind == "descriptor_is_a_directory":
        descriptor = tmp_path
    elif kind == "obj_not_utf8":
        (tmp_path / "cube.obj").write_bytes(b"# caf\xe9\nv 0 0 0\n")
        descriptor = tmp_path / "obj.json"
        descriptor.write_text(json.dumps({"parts": [
            {"id": "cube", "mesh_path": "cube.obj", "mass_g": 1.0}]}))
    else:
        return ["matrices", str(descriptor), "--out", str(tmp_path)]
    return ["matrices", str(descriptor), "--out", str(tmp_path / "matrices.json")]


@pytest.mark.parametrize("kind", ["descriptor_not_utf8", "descriptor_is_a_directory",
                                  "obj_not_utf8", "out_is_a_directory"])
def test_unreadable_input_or_output_exits_1_with_one_line(fixture_dir, tmp_path, capsys, kind):
    args = unreadable_input(kind, fixture_dir, tmp_path)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("softjig: ")
    assert not (tmp_path / "matrices.json").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_matrices_infinite_max_distance_flag_exits_1(tmp_path, capsys):
    """``--max-distance-mm`` is retired: any value is a usage error."""
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=0.0)
    out = tmp_path / "matrices.json"
    code = main(["matrices", str(descriptor), "--max-distance-mm", "inf", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "unrecognized arguments: --max-distance-mm" in capsys.readouterr().err


def test_plan_infinite_max_distance_in_descriptor_exits_1(tmp_path, capsys):
    """A number in ``sweep.max_distance_mm`` is refused, infinite or not,
    with one line naming the field; null is accepted."""
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=0.0)
    doc = json.loads(descriptor.read_text())
    for distance in (float("inf"), 500.0):
        doc["sweep"] = {"max_distance_mm": distance}
        descriptor.write_text(json.dumps(doc))
        code = main(["plan", str(descriptor), "--sequence", "a,b"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "sweep.max_distance_mm" in err
    doc["sweep"] = {"max_distance_mm": None}
    descriptor.write_text(json.dumps(doc))
    assert main(["plan", str(descriptor), "--sequence", "a,b"]) == 0


@pytest.mark.parametrize("setting, field", [
    ({"sweep": {"max_distance_mm": "far"}}, "sweep.max_distance_mm"),
    ({"sweep": {"step_count": "many"}}, "sweep.step_count"),
    ({"sweep": {"step_count": 16.9}}, "sweep.step_count"),
    ({"contact_epsilon_mm": "tiny"}, "contact_epsilon_mm"),
    ({"sweep": [1]}, "'sweep'"),
    ({"sweep": {"step_count": 64}}, "sweep.step_count"),
])
def test_matrices_malformed_descriptor_setting_exits_1(tmp_path, capsys, setting, field):
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=0.0)
    doc = json.loads(descriptor.read_text())
    doc.update(setting)
    descriptor.write_text(json.dumps(doc))
    out = tmp_path / "matrices.json"
    code = main(["matrices", str(descriptor), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and field in err


def test_matrices_of_a_thin_plate_beside_a_cube(tmp_path):
    """A 1e-5 mm plate beside a 100 mm cube, which a sampled sweep would
    need about 1e8 steps for, is decided like any other pair: the two
    touch, and the plate is blocked only along -x, into the cube."""
    save_stl_binary(box_mesh((0, 0, 0), (100, 100, 100)), tmp_path / "a.stl")
    save_stl_binary(box_mesh((100, 0, 0), (200, 100, 1e-5)), tmp_path / "b.stl")
    descriptor = tmp_path / "plate.json"
    descriptor.write_text(json.dumps({"parts": [
        {"id": "a", "mesh_path": "a.stl", "mass_g": 10.0},
        {"id": "b", "mesh_path": "b.stl", "mass_g": 1.0},
    ]}))
    out = tmp_path / "matrices.json"
    assert main(["matrices", str(descriptor), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["contact"] == [[0, 1], [1, 0]]
    for d, free in doc["interference_free"].items():
        assert free == [[0, int(d != "-x")], [int(d != "+x"), 0]], d


@pytest.mark.parametrize("kernel", ["within_distance", "penetrates_along"])
@pytest.mark.parametrize("command", [["matrices"], ["plan", "--sequence", "motor,plate,bolts"]])
def test_out_of_memory_exits_1_naming_both_parts(tmp_path, capsys, monkeypatch, kernel, command):
    """A MemoryError in contact or in a sweep ends the command with exit 1
    and one stderr line that names the pair, not a traceback."""
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(relations, kernel, exhausted)
    out = tmp_path / "out.json"
    assert main([command[0], "--fixtures", "proxy", *command[1:], "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "out of memory" in err
    assert "'motor'" in err and "'plate'" in err


def test_plan_requires_exactly_one_source(fixture_dir):
    assert main(["plan", "--sequence", "a,b"]) == 1
    assert main(["plan", str(fixture_dir / "assembly.json"), "--fixtures", "proxy",
                 "--sequence", "a,b"]) == 1


def test_plan_descriptor_determinism(fixture_dir, tmp_path):
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    args = ["plan", str(fixture_dir / "assembly.json"), "--sequence", "motor,plate,bolts"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_plan_ignores_an_obj_vertex_that_no_triangle_uses(tmp_path):
    """A 10 g box under a 1 g column plans +z with the CoG 3.41 mm up. One
    more vertex 50 mm below the box, in its OBJ but in no face, leaves the
    plan JSON byte-identical: a posture's height is read off the triangles,
    not off every vertex the file lists (with it, +x at 5 mm would win)."""
    save_obj(box_mesh((0, 0, 0), (10, 10, 5)), tmp_path / "box.obj")
    save_stl_binary(box_mesh((4, 4, 5), (6, 6, 20)), tmp_path / "column.stl")
    descriptor = tmp_path / "assembly.json"
    descriptor.write_text(json.dumps({"parts": [
        {"id": "box", "mesh_path": "box.obj", "mass_g": 10.0},
        {"id": "column", "mesh_path": "column.stl", "mass_g": 1.0}]}))
    plans = []
    for stray in ("", "v 0 0 -50\n"):
        with open(tmp_path / "box.obj", "a") as obj:
            obj.write(stray)
        out = tmp_path / f"plan{len(plans)}.json"
        assert main(["plan", str(descriptor), "--sequence", "box,column", "--out", str(out)]) == 0
        plans.append(out.read_bytes())
    assert load_mesh(tmp_path / "box.obj").vertices[:, 2].min() == -50.0
    assert plans[1] == plans[0]
    (step,) = json.loads(plans[0])["steps"]
    assert (step["posture_label"], step["fixed_part"]) == ("+z", "box")
    assert step["cog_height_mm"] == pytest.approx(37.5 / 11)


# -- matrices command -------------------------------------------------------------

def test_matrices_export(fixture_dir, tmp_path):
    out = tmp_path / "matrices.json"
    code = main(["matrices", str(fixture_dir / "assembly.json"), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["entity_ids"] == ["motor", "plate", "bolt_a", "bolt_b"]
    matrix_count = 1 + len(doc["interference_free"]) + len(doc["reachable"])
    assert matrix_count == 13
    for key in ("+x", "-x", "+y", "-y", "+z", "-z"):
        assert key in doc["interference_free"] and key in doc["reachable"]


def test_matrices_empty_parts_exits_1(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"parts": []}))
    assert main(["matrices", str(path)]) == 1


def test_matrices_determinism(fixture_dir, tmp_path):
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    args = ["matrices", str(fixture_dir / "assembly.json")]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", [["plan", "--sequence", "a,b"], ["matrices"]],
                         ids=["plan", "matrices"])
def test_retired_oracle_flag_exits_1(tmp_path, capsys, command):
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=0.0)
    out = tmp_path / "out.json"
    assert main([command[0], str(descriptor), *command[1:], "--oracle",
                 "--out", str(out)]) == 1
    assert "--oracle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["plan", "--sequence", "a,b"], ["matrices"]],
                         ids=["plan", "matrices"])
def test_retired_steps_flag_exits_1_with_one_line(tmp_path, capsys, command):
    """Sweeps have no sample count: ``--steps`` is a usage error,
    reported in one stderr line, even at the old default."""
    descriptor = write_two_cube_descriptor(tmp_path, gap_x=0.0)
    out = tmp_path / "out.json"
    assert main([command[0], str(descriptor), *command[1:], "--steps", "64",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unrecognized arguments: --steps 64" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["plan", "--fixtures", "proxy", "--sequence", "a,b"],
                                     ["matrices", "--fixtures", "proxy"],
                                     ["evaluate", "before.json", "after.json",
                                      "--jig-width-px", "320"]],
                         ids=["plan", "matrices", "evaluate"])
def test_out_directory_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    """An ``--out`` that is a directory, or whose directory is missing, is
    refused in one line naming the given path before anything is loaded."""
    def forbidden(*args):
        raise AssertionError("work started before --out was checked")
    for module, name in (("cli", "_load_assembly"), ("cli", "compute_relation_matrices"),
                         ("evaluation", "load_observation")):
        monkeypatch.setattr(f"softjig.{module}.{name}", forbidden)
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "taken", tmp_path / "missing" / "out.json"):
        assert main([*command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"--out {out}:" in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


# -- evaluate command --------------------------------------------------------------

def test_evaluate_success_exit_0(tmp_path):
    before = write_observation(tmp_path / "before.json", 500.0)
    after = write_observation(tmp_path / "after.json", 656.4)
    out = tmp_path / "report.json"
    code = main(["evaluate", str(before), str(after),
                 "--jig-width-px", "320", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["centroid_translation_mm"] == 78.2
    assert report["success"] is True


def test_evaluate_failure_exit_2(tmp_path):
    before = write_observation(tmp_path / "before.json", 500.0)
    after = write_observation(tmp_path / "after.json", 608.4)
    code = main(["evaluate", str(before), str(after), "--jig-width-px", "320"])
    assert code == 2


def test_evaluate_missing_width_exits_1(tmp_path, capsys):
    before = write_observation(tmp_path / "before.json", 0.0)
    after = write_observation(tmp_path / "after.json", 10.0)
    assert main(["evaluate", str(before), str(after)]) == 1
    assert "jig-width-px" in capsys.readouterr().err


def test_evaluate_with_forces(tmp_path):
    before = write_observation(tmp_path / "before.json", 0.0)
    after = write_observation(tmp_path / "after.json", 156.4)
    csv = tmp_path / "forces.csv"
    csv.write_text("fx,fy,fz,t\n1,0,-20,0\n3,4,-50,0.1\n0,1,-10,0.2\n")
    out = tmp_path / "report.json"
    code = main(["evaluate", str(before), str(after), "--jig-width-px", "320",
                 "--force-csv", str(csv), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["peak_normal_force_n"] == 50.0
    assert report["peak_shear_force_n"] == 5.0


@pytest.mark.parametrize("flag, value, name", [
    ("--ratio", "-1", "success_ratio"),
    ("--push-mm", "-70", "push_mm"),
    ("--push-mm", "nan", "push_mm"),
    ("--jig-width-mm", "0", "jig_width_mm"),
    ("--jig-width-px", "inf", "jig_width_px"),
])
def test_evaluate_bad_number_exits_1(tmp_path, capsys, flag, value, name):
    before = write_observation(tmp_path / "before.json", 500.0)
    after = write_observation(tmp_path / "after.json", 656.4)
    out = tmp_path / "report.json"
    args = ["evaluate", str(before), str(after), "--jig-width-px", "320", "--out", str(out)]
    assert main(args + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and name in captured.err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["observation_not_utf8", "observation_nested",
                                 "force_csv_not_utf8"])
def test_evaluate_unreadable_input_exits_1_naming_the_file(tmp_path, capsys, bad):
    before = write_observation(tmp_path / "before.json", 500.0)
    after = write_observation(tmp_path / "after.json", 656.4)
    forces = tmp_path / "forces.csv"
    forces.write_text("fx,fy,fz\n1,2,3\n")
    path = forces if bad.startswith("force_csv") else after
    if bad == "observation_not_utf8":
        after.write_bytes(after.read_bytes().replace(b'"after"', b'"aft\xe9r"'))
    elif bad == "observation_nested":
        after.write_text("[" * 100_000)   # nested past the recursion limit
    else:
        forces.write_bytes(b"fx,fy,fz\n1,2,\xe9")
    out = tmp_path / "report.json"
    code = main(["evaluate", str(before), str(after), "--jig-width-px", "320",
                 "--force-csv", str(forces), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(path) in err
    assert not out.exists()


def test_evaluate_determinism(tmp_path):
    before = write_observation(tmp_path / "before.json", 0.0)
    after = write_observation(tmp_path / "after.json", 100.0)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["evaluate", str(before), str(after), "--jig-width-px", "321"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


# -- usage errors ------------------------------------------------------------------

def test_unknown_subcommand_exits_1():
    assert main(["defragment"]) == 1


def test_bad_flag_exits_1():
    assert main(["plan", "--no-such-flag"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "softjig" in capsys.readouterr().out


def readme_commands() -> list[str]:
    """The ``softjig ...`` lines of README's command-line block, with ``\\``
    continuations joined."""
    block = re.search(r"## Command line\s+```sh\n(.*?)```", README.read_text(), re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.startswith("softjig ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    parser = _build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


# -- package -----------------------------------------------------------------------

def test_every_exported_name_resolves():
    """``softjig`` imports its exports lazily: each name in ``__all__``
    must still exist in the module it is taken from."""
    import softjig
    for retired in ("SweepParams", "min_distance", "merge_entity"):
        assert retired not in softjig.__all__, retired
    for name in softjig.__all__:
        assert getattr(softjig, name) is not None, name


# -- benchmark tooling -------------------------------------------------------------

def test_benchmark_tracer_names_resolve():
    """Every (module, function) that ``perfbench/tracer.py`` wraps for
    ``perfbench/run.py --trace 1`` is a callable in ``softjig.<module>``
    once ``softjig.cli`` is imported, which is where the tracer looks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function in tracer.TRACED:
        assert callable(getattr(sys.modules[f"softjig.{module}"], function, None)), \
            (module, function)
