import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from softjig.cli import main
from softjig.descriptors import DescriptorError, load_descriptor
from softjig.fixtures import box_mesh
from softjig.mesh import save_stl_binary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def write_cube_stl(tmp_path, name="cube.stl"):
    save_stl_binary(box_mesh((0, 0, 0), (10, 10, 10)), tmp_path / name)
    return name


def write_descriptor(tmp_path, payload):
    path = tmp_path / "assembly.json"
    path.write_text(json.dumps(payload))
    return path


def test_pose_places_mesh_in_assembled_frame(tmp_path):
    mesh_name = write_cube_stl(tmp_path)
    quarter_turn = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    path = write_descriptor(tmp_path, {"parts": [
        {"id": "a", "mesh_path": mesh_name, "mass_g": 5.0},
        {"id": "b", "mesh_path": mesh_name, "mass_g": 5.0,
         "pose": {"rotation": quarter_turn, "translation_mm": [30.0, 0.0, 0.0]}},
    ]})
    assembly = load_descriptor(path)
    lo, hi = assembly.part("b").mesh.aabb
    assert np.allclose(lo, [20.0, 0.0, 0.0])
    assert np.allclose(hi, [30.0, 10.0, 10.0])


def test_groups_and_overrides_parsed(tmp_path):
    mesh_name = write_cube_stl(tmp_path)
    path = write_descriptor(tmp_path, {
        "parts": [
            {"id": "a", "mesh_path": mesh_name, "mass_g": 1.0},
            {"id": "b", "mesh_path": mesh_name, "mass_g": 2.0, "group": "pair",
             "pose": {"rotation": np.eye(3).tolist(), "translation_mm": [0, 0, 10]}},
            {"id": "c", "mesh_path": mesh_name, "mass_g": 2.0, "group": "pair",
             "pose": {"rotation": np.eye(3).tolist(), "translation_mm": [0, 0, 20]}},
        ],
        "contact_epsilon_mm": 0.05,
        "sweep": {"step_count": None, "max_distance_mm": None},
    })
    assembly = load_descriptor(path)
    assert [p.id for p in assembly.parts if p.group == "pair"] == ["b", "c"]
    assert assembly.contact_epsilon == 0.05


def test_missing_mesh_file(tmp_path):
    path = write_descriptor(tmp_path, {"parts": [
        {"id": "a", "mesh_path": "ghost.stl", "mass_g": 1.0},
    ]})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_invalid_pose_rejected(tmp_path):
    mesh_name = write_cube_stl(tmp_path)
    path = write_descriptor(tmp_path, {"parts": [
        {"id": "a", "mesh_path": mesh_name, "mass_g": 1.0,
         "pose": {"rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                  "translation_mm": [0, 0, 0]}},
    ]})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_missing_required_field(tmp_path):
    write_cube_stl(tmp_path)
    path = write_descriptor(tmp_path, {"parts": [{"id": "a", "mass_g": 1.0}]})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_invalid_json(tmp_path):
    path = tmp_path / "assembly.json"
    path.write_text("{nope")
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_empty_parts(tmp_path):
    path = write_descriptor(tmp_path, {"parts": []})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_bad_mass_rejected(tmp_path):
    mesh_name = write_cube_stl(tmp_path)
    path = write_descriptor(tmp_path, {"parts": [
        {"id": "a", "mesh_path": mesh_name, "mass_g": -4.0},
    ]})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_non_numeric_mass_rejected(tmp_path):
    mesh_name = write_cube_stl(tmp_path)
    path = write_descriptor(tmp_path, {"parts": [
        {"id": "a", "mesh_path": mesh_name, "mass_g": "heavy"},
    ]})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_non_numeric_translation_rejected(tmp_path):
    mesh_name = write_cube_stl(tmp_path)
    path = write_descriptor(tmp_path, {"parts": [
        {"id": "a", "mesh_path": mesh_name, "mass_g": 1.0,
         "pose": {"rotation": np.eye(3).tolist(), "translation_mm": [0, "far", 0]}},
    ]})
    with pytest.raises(DescriptorError):
        load_descriptor(path)


def test_interpenetrating_parts_refused_naming_both(tmp_path):
    """Two cubes posed 5 mm into each other are refused by name; posed face
    to face they load."""
    mesh_name = write_cube_stl(tmp_path)
    for shift, refused in ((5.0, True), (10.0, False)):
        path = write_descriptor(tmp_path, {"parts": [
            {"id": "a", "mesh_path": mesh_name, "mass_g": 1.0},
            {"id": "b", "mesh_path": mesh_name, "mass_g": 1.0,
             "pose": {"rotation": np.eye(3).tolist(), "translation_mm": [shift, 0, 0]}},
        ]})
        if refused:
            with pytest.raises(DescriptorError, match="'a' and 'b' interpenetrate"):
                load_descriptor(path)
        else:
            assert load_descriptor(path).part_ids == ["a", "b"]


def test_fixture_and_benchmark_inputs_load(tmp_path):
    """No input of the repo's own tools has a penetrating or open part: the
    ``softjig fixtures`` descriptor, every stack of the benchmark's pool
    and 16 of its cylinder layouts all load."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads    # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    assert main(["fixtures", "--out-dir", str(tmp_path / "proxy")]) == 0
    descriptors = [tmp_path / "proxy" / "assembly.json"]
    for index in range(workloads.STACK_POOL):
        descriptors.append(workloads.write_stack(tmp_path / f"stack{index}",
                                                 workloads.stack_boxes(index)))
    for seed in range(16):
        descriptors.append(workloads.write_cylinders(tmp_path / f"cylinders{seed}",
                                                     workloads.cylinder_layout(seed)))
    for descriptor in descriptors:
        load_descriptor(descriptor)
