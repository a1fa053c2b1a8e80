"""Assembly descriptor files: JSON serialization of an assembled product.

A descriptor lists each part's mesh file, mass, and rigid pose that places
the mesh in assembled-frame coordinates, plus an optional contact
tolerance::

    {
      "parts": [
        {"id": "motor", "mesh_path": "motor.stl", "mass_g": 300.0,
         "pose": {"rotation": [[..3x3..]], "translation_mm": [0, 0, 0]},
         "group": null}
      ],
      "contact_epsilon_mm": null
    }

Mesh paths are resolved relative to the descriptor's directory. The
fields ``sweep.max_distance_mm`` and ``sweep.step_count`` may only be null
or absent: every sweep is decided over its whole range, twice the assembly
diagonal, with no samples to count. Posed parts may not interpenetrate.
Any other field, at the top level or in a part, its pose or ``sweep``, is
refused by name, so a misspelt setting cannot pass unnoticed, and so is a
boolean or a string for a number (``mass_g``, ``contact_epsilon_mm``, a
pose) and anything but a string for ``id``, ``mesh_path`` or a set ``group``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .mesh import MeshError, load_mesh
from .parts import AssemblyModel, PartError, PartModel, RigidOrientation


class DescriptorError(ValueError):
    """Malformed assembly descriptor."""


# the fields each object of a descriptor may carry
_FIELDS = {
    "descriptor": ("parts", "contact_epsilon_mm", "sweep"),
    "part": ("id", "mesh_path", "mass_g", "pose", "group"),
    "pose": ("rotation", "translation_mm"),
    "sweep": ("max_distance_mm", "step_count"),
}


def _check_fields(path: Path, where: str, obj: dict, kind: str) -> None:
    """Refuse the first field of ``obj`` that a ``kind`` object may not carry."""
    for key in obj:
        if key not in _FIELDS[kind]:
            raise DescriptorError(f"{path}: {where}unknown field {key!r}")


def _check_number(path: Path, field: str, value) -> None:
    """Refuse a boolean or a string in ``value``, a number or lists of them:
    ``float()`` and numpy would read either as a number."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, (bool, str)):
            raise DescriptorError(f"{path}: {field}: must be a number, "
                                  f"not {'a boolean' if isinstance(v, bool) else 'a string'}")


def load_descriptor(path) -> AssemblyModel:
    """Parse a descriptor and load its meshes into an assembly. An ``id`` or
    ``group`` with a comma or outer whitespace, which no sequence can name,
    is refused naming the field, a part whose posed mesh is open by
    :class:`PartModel`, and interpenetrating parts by :class:`AssemblyModel`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise DescriptorError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DescriptorError(f"{path}: descriptor must be a JSON object")
    _check_fields(path, "", data, "descriptor")

    raw_parts = data.get("parts")
    if not isinstance(raw_parts, list) or not raw_parts:
        raise DescriptorError(f"{path}: descriptor needs a non-empty 'parts' list")

    parts = []
    for i, entry in enumerate(raw_parts):
        if not isinstance(entry, dict):
            raise DescriptorError(f"{path}: parts[{i}] must be an object")
        _check_fields(path, f"parts[{i}]: ", entry, "part")
        _check_number(path, f"parts[{i}]: mass_g", entry.get("mass_g"))
        group = entry.get("group")
        for name, value in (("id", entry.get("id", "")), ("group", "" if group is None else group),
                            ("mesh_path", entry.get("mesh_path", ""))):
            if not isinstance(value, str):   # str() would read true as 'True'
                raise DescriptorError(f"{path}: parts[{i}]: {name}: must be a string, "
                                      f"not {json.dumps(value)}")
            if name != "mesh_path" and ("," in value or value != value.strip()):
                raise DescriptorError(f"{path}: parts[{i}]: {name}: {value!r} cannot be named "
                                      f"in a sequence")
        try:
            part_id = entry["id"]
            mesh_path = (path.parent / entry["mesh_path"]).resolve()
            mass = float(entry["mass_g"])
        except KeyError as exc:
            raise DescriptorError(f"{path}: parts[{i}] missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise DescriptorError(f"{path}: parts[{i}]: {exc}") from exc
        try:
            mesh = load_mesh(mesh_path)
        except (MeshError, OSError) as exc:
            raise DescriptorError(f"{path}: parts[{i}] ({part_id}): {exc}") from exc
        pose = entry.get("pose")
        if pose is not None:
            if isinstance(pose, dict):
                _check_fields(path, f"parts[{i}]: pose: ", pose, "pose")
                for name in _FIELDS["pose"]:
                    _check_number(path, f"parts[{i}]: pose: {name}", pose.get(name))
            try:
                rotation = RigidOrientation(pose["rotation"])
                translation = [float(v) for v in pose["translation_mm"]]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DescriptorError(f"{path}: parts[{i}]: bad pose: {exc}") from exc
            if len(translation) != 3:
                raise DescriptorError(f"{path}: parts[{i}]: translation must have 3 entries")
            try:
                mesh = mesh.transformed(rotation.rotation, translation)
            except MeshError as exc:
                raise DescriptorError(f"{path}: parts[{i}] ({part_id}): {exc}") from exc
        try:
            parts.append(PartModel(part_id, mesh, mass, group=group))
        except (PartError, MeshError) as exc:
            raise DescriptorError(f"{path}: parts[{i}] ({part_id}): {exc}") from exc

    sweep_cfg = {} if data.get("sweep") is None else data["sweep"]
    if not isinstance(sweep_cfg, dict):
        raise DescriptorError(f"{path}: 'sweep' must be an object")
    _check_fields(path, "sweep: ", sweep_cfg, "sweep")
    for name in ("max_distance_mm", "step_count"):
        if sweep_cfg.get(name) is not None:
            raise DescriptorError(f"{path}: sweep.{name}: must be null; sweeps are decided "
                                  f"over their whole range, twice the assembly diagonal")
    epsilon = data.get("contact_epsilon_mm")
    _check_number(path, "contact_epsilon_mm", epsilon)
    try:
        epsilon = None if epsilon is None else float(epsilon)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"{path}: contact_epsilon_mm: {exc}") from None
    try:
        return AssemblyModel(tuple(parts), contact_epsilon=epsilon)
    except PartError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc


def descriptor_dict(parts: tuple[PartModel, ...]) -> dict:
    """Descriptor content for assembled parts whose meshes are saved as
    ``<id>.stl`` beside it: identity poses, and a group only where set."""
    return {
        "parts": [
            {
                "id": part.id,
                "mesh_path": f"{part.id}.stl",
                "mass_g": part.mass,
                "pose": {
                    "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "translation_mm": [0.0, 0.0, 0.0],
                },
                **({"group": part.group} if part.group is not None else {}),
            }
            for part in parts
        ],
    }
