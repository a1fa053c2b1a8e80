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
or absent: sweeps sample at a fixed resolution over twice the assembly
diagonal. Posed parts may not interpenetrate.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from .mesh import MeshError, load_mesh
from .parts import AssemblyModel, PartError, PartModel, RigidOrientation
from .queries import intersects


class DescriptorError(ValueError):
    """Malformed assembly descriptor."""


def load_descriptor(path) -> AssemblyModel:
    """Parse a descriptor and load its meshes into an assembly. A part
    whose posed mesh is open is refused by :class:`PartModel`, and a pair of
    parts that interpenetrate (:func:`softjig.queries.intersects`) by name."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise DescriptorError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DescriptorError(f"{path}: descriptor must be a JSON object")

    raw_parts = data.get("parts")
    if not isinstance(raw_parts, list) or not raw_parts:
        raise DescriptorError(f"{path}: descriptor needs a non-empty 'parts' list")

    parts = []
    for i, entry in enumerate(raw_parts):
        if not isinstance(entry, dict):
            raise DescriptorError(f"{path}: parts[{i}] must be an object")
        try:
            part_id = str(entry["id"])
            mesh_path = (path.parent / str(entry["mesh_path"])).resolve()
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
        group = entry.get("group")
        try:
            parts.append(PartModel(part_id, mesh, mass, group=None if group is None else str(group)))
        except (PartError, MeshError) as exc:
            raise DescriptorError(f"{path}: parts[{i}] ({part_id}): {exc}") from exc

    sweep_cfg = data.get("sweep") or {}
    if not isinstance(sweep_cfg, dict):
        raise DescriptorError(f"{path}: 'sweep' must be an object")
    for name in ("max_distance_mm", "step_count"):
        if sweep_cfg.get(name) is not None:
            raise DescriptorError(f"{path}: sweep.{name}: must be null; sweeps sample at a "
                                  f"fixed resolution over twice the assembly diagonal")
    epsilon = data.get("contact_epsilon_mm")
    try:
        epsilon = None if epsilon is None else float(epsilon)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"{path}: contact_epsilon_mm: {exc}") from None
    try:
        assembly = AssemblyModel(tuple(parts), contact_epsilon=epsilon)
    except PartError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc
    for a, b in itertools.combinations(assembly.parts, 2):
        if intersects(a.mesh, b.mesh):
            raise DescriptorError(f"{path}: parts {a.id!r} and {b.id!r} interpenetrate in "
                                  f"the assembled pose")
    return assembly


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
