"""Sequential parts-fixing configuration.

Walks a given assembly order. At each step it reads the reachable-direction
list between the subassembly built so far and the next entity off the
part-level matrices, taking both as sets of part indices; it halts with a
diagnostic if no direction is reachable, otherwise adds the entity's parts,
picks the posture whose vertical placement gives the combined model the
lowest center of gravity, and records the bottom part as the one to fix on
the jig.

A posture label names the mating axis; the physical orientation is the one
of its two verticalizations (axis up or axis down) with the lower CoG
height. Even a single reachable flag therefore still resolves to a definite
world orientation. Each verticalization is a signed axis permutation, so a
height is read exactly off the combined CoG and the parts' triangle boxes:
no vertex is rotated, and a vertex that no triangle uses does not count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .parts import AssemblyModel, PartModel, RigidOrientation, mass_properties
from .relations import Direction, ReachableDirectionList, compute_relation_matrices

BOTTOM_TIE_TOL_MM = 1e-6


class PlannerError(ValueError):
    """Invalid sequence or assembly input to the planner."""


@dataclass(frozen=True)
class AssemblySequence:
    """Ordered entity references (part ids or group names), length >= 2."""

    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        if len(steps) < 2:
            raise PlannerError("assembly sequence needs at least 2 entities")
        if len(set(steps)) != len(steps):
            raise PlannerError("assembly sequence repeats an entity")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def parse(cls, text: str) -> "AssemblySequence":
        return cls(tuple(s.strip() for s in text.split(",") if s.strip()))


@dataclass(frozen=True)
class FixingStep:
    """One planned step: which part to fix, in which posture."""

    step_index: int                      # 1-based
    fixed_part: str
    posture_label: Direction
    orientation: RigidOrientation
    cog_height: float                    # mm above the model's lowest triangle corner
    reachable_list: ReachableDirectionList

    def __post_init__(self) -> None:
        if not self.reachable_list[self.posture_label]:
            raise PlannerError(
                f"step {self.step_index}: posture {self.posture_label.value} is not reachable"
            )
        if self.cog_height < 0:
            raise PlannerError(f"step {self.step_index}: negative CoG height")


@dataclass(frozen=True)
class FixingPlan:
    """Planner output: one step per assembly operation, or a partial plan
    plus a halt diagnostic when some pair has no reachable direction."""

    steps: tuple[FixingStep, ...]
    complete: bool
    halt_reason: str | None = None

    def __post_init__(self) -> None:
        if self.complete != (self.halt_reason is None):
            raise PlannerError("halt_reason must be present exactly when incomplete")

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {
                    "index": s.step_index,
                    "fixed_part": s.fixed_part,
                    "posture_label": s.posture_label.value,
                    "rotation": s.orientation.rotation.tolist(),
                    "cog_height_mm": s.cog_height,
                    "reachable_flags": [int(f) for f in s.reachable_list.flags],
                }
                for s in self.steps
            ],
            "complete": self.complete,
            "halt_reason": self.halt_reason,
        }


# (axis up, axis down) per direction as signed axis permutations, checked as
# rotations on first use: importing the planner runs no matrix product
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_ROT_X_180 = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
_ROT_Y_P90 = ((0, 0, 1), (0, 1, 0), (-1, 0, 0))   # +x -> -z
_ROT_Y_M90 = ((0, 0, -1), (0, 1, 0), (1, 0, 0))   # +x -> +z
_ROT_X_P90 = ((1, 0, 0), (0, 0, -1), (0, 1, 0))   # +y -> +z
_ROT_X_M90 = ((1, 0, 0), (0, 0, 1), (0, -1, 0))   # +y -> -z

_VERTICALIZATIONS = {
    Direction.PLUS_X: (_ROT_Y_M90, _ROT_Y_P90),
    Direction.MINUS_X: (_ROT_Y_P90, _ROT_Y_M90),
    Direction.PLUS_Y: (_ROT_X_P90, _ROT_X_M90),
    Direction.MINUS_Y: (_ROT_X_M90, _ROT_X_P90),
    Direction.PLUS_Z: (_IDENTITY, _ROT_X_180),
    Direction.MINUS_Z: (_ROT_X_180, _IDENTITY),
}


@functools.cache
def candidate_orientations(direction: Direction) -> tuple[RigidOrientation, RigidOrientation]:
    """The two rotations aligning a direction's axis with the world z-axis,
    mapping it to +z first, then to -z."""
    return tuple(RigidOrientation(rows) for rows in _VERTICALIZATIONS[direction])


def _lows(parts: list[PartModel], orientation: RigidOrientation) -> np.ndarray:
    """World height of each part's lowest triangle corner, oriented. Only a
    signed axis permutation is taken; under one, a box corner's world height
    is one of its coordinates or its negative, exactly."""
    if not np.isin(orientation.rotation, (-1.0, 0.0, 1.0)).all():
        raise PlannerError("posture orientation must be a signed axis permutation")
    return (np.array([p.mesh.aabb for p in parts]) @ orientation.rotation[2]).min(axis=1)


def cog_height(parts: list[PartModel], orientation: RigidOrientation) -> float:
    """Height of the combined CoG above the model's lowest triangle corner,
    oriented. The orientation must be a signed axis permutation, as every
    candidate posture is; any other raises :class:`PlannerError`."""
    _, cog = mass_properties(parts)
    return float(orientation.rotation[2] @ cog) - float(_lows(parts, orientation).min())


def select_posture(reachable: ReachableDirectionList,
                   parts: list[PartModel]) -> tuple[Direction, RigidOrientation]:
    """Pick the (direction, orientation) minimizing the combined CoG height.

    Candidates are both verticalizations of every reachable direction; ties
    fall to the fixed direction order and then to the axis-up orientation.
    """
    if not reachable.any_set:
        raise PlannerError("no reachable direction to select a posture from")
    candidates = [(d, o) for d in reachable.set_directions for o in candidate_orientations(d)]
    up = np.array([o.rotation[2] for _, o in candidates])
    _, cog = mass_properties(parts)
    heights = up @ cog - (np.array([p.mesh.aabb for p in parts]) @ up.T).min(axis=(0, 1))
    return candidates[int(np.argmin(heights))]   # the first of equal heights


def bottom_part(parts: list[PartModel], orientation: RigidOrientation) -> str:
    """Id of the part whose triangles reach lowest, oriented. The orientation
    must be a signed axis permutation; any other raises :class:`PlannerError`.

    Ties within 1e-6 mm go to the heavier part, then the smaller id.
    """
    if not parts:
        raise PlannerError("bottom_part needs a non-empty model")
    lows = _lows(parts, orientation)
    tied = [p for z, p in zip(lows - lows.min(), parts) if z <= BOTTOM_TIE_TOL_MM]
    return min(tied, key=lambda p: (-p.mass, p.id)).id


def _entity_members(assembly: AssemblyModel, sequence: AssemblySequence) -> dict[str, list[int]]:
    """Part indices of every entity (a group or an ungrouped part), in part
    order, after checking that the sequence names only entities."""
    members: dict[str, list[int]] = {}
    for i, p in enumerate(assembly.parts):
        members.setdefault(p.id if p.group is None else p.group, []).append(i)
    for ref in sequence.steps:
        if ref in members:
            continue
        if ref in assembly.part_ids:
            raise PlannerError(f"entity {ref!r} belongs to a group and cannot be sequenced alone")
        raise PlannerError(f"unknown sequence entity {ref!r}")
    return members


def _merge_id(existing: set[str], left: str, right: str) -> str:
    candidate = f"{left}+{right}"
    while candidate in existing:
        candidate += "~"
    return candidate


def configure_fixing_parts(assembly: AssemblyModel, sequence: AssemblySequence) -> FixingPlan:
    """Run the fixing-configuration walk over an assembly order.

    Returns a complete plan of ``len(sequence) - 1`` steps, or a partial
    plan with ``halt_reason`` naming the first pair that cannot be mated
    along any axis direction.
    """
    members = _entity_members(assembly, sequence)
    matrices = compute_relation_matrices(assembly)
    live_ids = set(members)

    target = sequence.steps[0]
    rows = list(members[target])
    steps: list[FixingStep] = []

    for i, entity in enumerate(sequence.steps[1:], start=2):
        reachable = matrices.reachable_between(rows, members[entity])
        if not reachable.any_set:
            return FixingPlan(tuple(steps), complete=False, halt_reason=(
                f"no reachable direction between {target!r} and {entity!r} at step {i - 1}"))
        rows += members[entity]
        model_parts = [assembly.parts[k] for k in rows]
        combined_id = _merge_id(live_ids, target, entity)
        live_ids = (live_ids - {target, entity}) | {combined_id}
        target = combined_id

        label, orientation = select_posture(reachable, model_parts)
        steps.append(FixingStep(
            step_index=i - 1,
            fixed_part=bottom_part(model_parts, orientation),
            posture_label=label,
            orientation=orientation,
            cog_height=cog_height(model_parts, orientation),
            reachable_list=reachable,
        ))

    return FixingPlan(steps=tuple(steps), complete=True, halt_reason=None)
