import json

import numpy as np
import pytest

from softjig.descriptors import DescriptorError, load_descriptor
from softjig.fixtures import box_mesh
from softjig.mesh import save_stl_binary


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
    assembly, _ = load_descriptor(path)
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
        "sweep": {"step_count": 33, "max_distance_mm": 500.0},
    })
    assembly, params = load_descriptor(path)
    assert [p.id for p in assembly.parts if p.group == "pair"] == ["b", "c"]
    assert assembly.contact_epsilon == 0.05
    assert params.step_count == 33
    assert params.max_distance == 500.0


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
