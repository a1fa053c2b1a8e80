"""Contact, interference-free, and reachable-direction relations.

For parts i, k of an assembled product:

* ``contact[i, k]`` — the surfaces are within the contact tolerance.
* ``interference_free[j][i, k]`` — part k can translate along axis
  direction j from its assembled pose all the way out of the assembly
  without ever penetrating part i, decided over the whole translation,
  with no sampling, by the penetration kernel ``queries.penetrates_along``.
* ``reachable[j]`` — elementwise gate of contact with interference
  freedom: ``(C | C^T) & M_j``. A pair's six reachable flags, in the fixed
  order +x, -x, +y, -y, +z, -z, form its reachable-direction list.

Each unordered pair is swept once per direction on the pair's relative
motion (the higher-index part is always the one displaced), which makes the
mirror identity ``M_j(i,k) == M_-j(k,i)`` hold exactly. One pass of the box
rules of ``broad`` over all pairs of part boxes keeps the pairs that can
touch and the sweeps that can penetrate; only those reach the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .broad import penetration_span, within_reach
from .mesh import TriangleMesh
from .parts import AssemblyModel
from .queries import penetrates_along, within_distance


class RelationError(ValueError):
    """Invalid relation computation input (dimensions, unknown entities)."""


class Direction(Enum):
    """Axis-aligned direction label, one of the six assembly axes."""

    PLUS_X = "+x"
    MINUS_X = "-x"
    PLUS_Y = "+y"
    MINUS_Y = "-y"
    PLUS_Z = "+z"
    MINUS_Z = "-z"

    @property
    def axis(self) -> int:
        return {"x": 0, "y": 1, "z": 2}[self.value[1]]

    @property
    def sign(self) -> float:
        return 1.0 if self.value[0] == "+" else -1.0

    @property
    def unit_vector(self) -> np.ndarray:
        v = np.zeros(3)
        v[self.axis] = self.sign
        return v

    @property
    def opposite(self) -> "Direction":
        flip = {"+": "-", "-": "+"}
        return Direction(flip[self.value[0]] + self.value[1])


# fixed order of the six flags in every reachable-direction list
DIRECTION_ORDER: tuple[Direction, ...] = (
    Direction.PLUS_X, Direction.MINUS_X,
    Direction.PLUS_Y, Direction.MINUS_Y,
    Direction.PLUS_Z, Direction.MINUS_Z,
)


@dataclass(frozen=True)
class ReachableDirectionList:
    """Six reachability flags for an ordered pair, in DIRECTION_ORDER."""

    flags: tuple[bool, bool, bool, bool, bool, bool]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", tuple(bool(f) for f in self.flags))
        if len(self.flags) != 6:
            raise RelationError(f"expected 6 flags, got {len(self.flags)}")

    def __getitem__(self, direction: Direction) -> bool:
        return self.flags[DIRECTION_ORDER.index(direction)]

    @property
    def any_set(self) -> bool:
        return any(self.flags)

    @property
    def set_directions(self) -> tuple[Direction, ...]:
        return tuple(d for d, f in zip(DIRECTION_ORDER, self.flags) if f)


# -- sweep engine ------------------------------------------------------------

def sweep_translation_is_free(static: TriangleMesh, moving: TriangleMesh,
                              direction: Direction, max_distance: float) -> bool:
    """True iff ``moving``, translated along ``direction`` by any offset up
    to ``max_distance``, neither crosses ``static`` nor holds a probe of it,
    nor has a probe inside it: :func:`softjig.queries.penetrates_along`
    over the span that the penetration rule
    (:func:`softjig.broad.penetration_span`) keeps of [0, D], or of [-D, 0]
    along a negative direction. A sweep with none is free outright.
    """
    axis, reach = direction.axis, sorted((0.0, direction.sign * max_distance))
    first, last = map(float, penetration_span(*static.aabb, *moving.aabb, axis, *reach))
    return first > last or not penetrates_along(static, moving, axis, (first, last))


def part_pairs(assembly: AssemblyModel) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Every pair (i, k), i < k, of the parts in row-major order, as a
    (pairs, 2) array, and per pair the boxes ``(lo, hi)`` of part i, then
    of part k, with which a box rule of ``broad`` answers every pair."""
    lo, hi = np.array([p.mesh.aabb for p in assembly.parts]).transpose(1, 0, 2)
    i, k = np.triu_indices(len(lo), 1)
    return np.stack([i, k], axis=1), (lo[i], hi[i], lo[k], hi[k])


# -- relation matrices -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RelationMatrices:
    """Entity ids with their contact, interference-free, and reachable matrices.

    Diagonals are zero everywhere (self-relations are undefined), contact is
    symmetric, and ``reachable[j] = (contact | contact^T) & interference_free[j]``
    by construction.
    """

    entity_ids: tuple[str, ...]
    contact: np.ndarray
    interference_free: dict[Direction, np.ndarray]
    reachable: dict[Direction, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.entity_ids)
        contact = np.array(self.contact, dtype=bool)
        if contact.shape != (n, n):
            raise RelationError(f"contact matrix shape {contact.shape} != ({n}, {n})")
        if contact.diagonal().any():
            raise RelationError("contact diagonal must be zero")
        if not np.array_equal(contact, contact.T):
            raise RelationError("contact matrix must be symmetric")
        free = {}
        for d in DIRECTION_ORDER:
            m = np.array(self.interference_free[d], dtype=bool)
            if m.shape != (n, n):
                raise RelationError(f"interference matrix {d.value} has shape {m.shape}")
            np.fill_diagonal(m, False)
            free[d] = m
        reach = {d: compute_reachable_matrix(contact, free[d]) for d in DIRECTION_ORDER}
        for m in (contact, *free.values(), *reach.values()):
            m.setflags(write=False)
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        object.__setattr__(self, "contact", contact)
        object.__setattr__(self, "interference_free", free)
        object.__setattr__(self, "reachable", reach)

    def __repr__(self) -> str:
        return f"RelationMatrices(entities={list(self.entity_ids)})"

    def index_of(self, entity_id: str) -> int:
        try:
            return self.entity_ids.index(entity_id)
        except ValueError:
            raise RelationError(f"unknown entity {entity_id!r}") from None

    def reachable_list(self, source_id: str, target_id: str) -> ReachableDirectionList:
        """The six reachable flags for an ordered entity pair, in fixed order."""
        i, k = self.index_of(source_id), self.index_of(target_id)
        if i == k:
            raise RelationError(f"self-pair {source_id!r} has no reachable list")
        return self.reachable_between([i], [k])

    def reachable_between(self, rows: list[int], cols: list[int]) -> ReachableDirectionList:
        """Reachable flags between two disjoint index sets, taken as wholes.

        The sets are in contact when any member pair is, and ``cols`` moves
        freely along a direction only when every member pair does: the
        directional blocking relations of Wilson & Latombe for a
        subassembly, read from the part-level matrices.
        """
        block = np.ix_(rows, cols)
        touching = self.contact[block].any()
        return ReachableDirectionList(tuple(
            touching and self.interference_free[d][block].all() for d in DIRECTION_ORDER))

    def to_json_dict(self) -> dict:
        return {
            "entity_ids": list(self.entity_ids),
            "contact": self.contact.astype(int).tolist(),
            "interference_free": {
                d.value: self.interference_free[d].astype(int).tolist() for d in DIRECTION_ORDER
            },
            "reachable": {
                d.value: self.reachable[d].astype(int).tolist() for d in DIRECTION_ORDER
            },
        }


def compute_contact_matrix(assembly: AssemblyModel) -> np.ndarray:
    """Symmetric boolean contact matrix over the assembly's parts.

    Parts are in contact when their surface distance is within the
    assembly's contact tolerance (:func:`softjig.queries.within_distance`,
    asked of the pairs that :func:`softjig.broad.within_reach` keeps).
    Running out of memory on a pair raises :class:`RelationError` naming it.
    """
    contact = np.zeros((len(assembly.parts),) * 2, dtype=bool)
    pairs, boxes = part_pairs(assembly)
    for i, k in pairs[within_reach(*boxes, assembly.contact_epsilon)]:
        a, b = assembly.parts[i], assembly.parts[k]
        try:
            touching = within_distance(a.mesh, b.mesh, assembly.contact_epsilon)
        except MemoryError:
            raise RelationError(f"out of memory deciding contact between {a.id!r} "
                                f"and {b.id!r}") from None
        contact[i, k] = contact[k, i] = touching
    return contact


def compute_all_interference_free(assembly: AssemblyModel) -> dict[Direction, np.ndarray]:
    """All six interference-free matrices. Entry (i, k) of matrix j is true
    when part k sweeps out along j without penetrating part i.

    Each unordered pair i < k is swept once per direction, over twice the
    assembly diagonal, with the higher index moving; the result fills
    (i, k) of matrix j and (k, i) of matrix -j, so the mirror identity
    between (i, k, j) and (k, i, -j) is bit-exact. Beyond that distance an
    axis translation cannot re-enter the assembly bounds. Only the sweeps
    that :func:`softjig.broad.penetration_span` gives a span run
    :func:`sweep_translation_is_free`, pair-major, then in direction order.
    Running out of memory raises :class:`RelationError` naming both parts.
    """
    max_distance = 2.0 * assembly.aabb_diagonal
    pairs, boxes = part_pairs(assembly)
    # (pair, j): the pair's part k has a span to sweep past part i along j
    swept = np.stack([np.less_equal(*penetration_span(*boxes, d.axis,
                                                      *sorted((0.0, d.sign * max_distance))))
                      for d in DIRECTION_ORDER], axis=1)
    free = {d: ~np.eye(len(assembly.parts), dtype=bool) for d in DIRECTION_ORDER}
    for p, j in np.argwhere(swept):
        (i, k), d = pairs[p], DIRECTION_ORDER[j]
        static, moving = assembly.parts[i], assembly.parts[k]
        try:
            result = sweep_translation_is_free(static.mesh, moving.mesh, d, max_distance)
        except MemoryError:
            raise RelationError(f"out of memory sweeping {moving.id!r} past "
                                f"{static.id!r} along {d.value}") from None
        free[d][i, k] = free[d.opposite][k, i] = result
    return free


def compute_reachable_matrix(contact: np.ndarray, interference_free: np.ndarray) -> np.ndarray:
    """Elementwise gate: reachable = (contact OR contact^T) AND interference-free."""
    c = np.asarray(contact, dtype=bool)
    m = np.asarray(interference_free, dtype=bool)
    if c.shape != m.shape or c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise RelationError(f"matrix shapes differ: {c.shape} vs {m.shape}")
    if c.diagonal().any() or m.diagonal().any():
        raise RelationError("diagonals must be zero")
    return (c | c.T) & m


def compute_relation_matrices(assembly: AssemblyModel) -> RelationMatrices:
    """Contact, interference-free, and reachable matrices over the parts."""
    return RelationMatrices(tuple(assembly.part_ids), compute_contact_matrix(assembly),
                            compute_all_interference_free(assembly))


def merge_entity(matrices: RelationMatrices, members: set[str] | frozenset[str],
                 new_id: str) -> RelationMatrices:
    """Collapse a set of entities into one combined entity.

    The combined entity contacts a neighbour when any member does (OR) and
    moves freely only when every member does (AND); reachability is then
    recomputed from the gate formula. The combined row/column sits at the
    first member's position. This is :meth:`RelationMatrices.reachable_between`
    in matrix form; the planner reads index sets and never merges.
    """
    members = set(members)
    if not members:
        raise RelationError("members must be non-empty")
    first = min(matrices.index_of(m) for m in members)
    ids = matrices.entity_ids
    if new_id in set(ids) - members:
        raise RelationError(f"new id {new_id!r} collides with an existing entity")
    # per new entity, in order: the old indices it aggregates
    groups = [[k for k, e in enumerate(ids) if e in members] if i == first else [i]
              for i, e in enumerate(ids) if i == first or e not in members]

    def aggregate(matrix: np.ndarray, combine) -> np.ndarray:
        rows = np.stack([combine(matrix[g], axis=0) for g in groups])
        return np.stack([combine(rows[:, g], axis=1) for g in groups], axis=1)

    contact = aggregate(matrices.contact, np.any)
    np.fill_diagonal(contact, False)
    free = {d: aggregate(matrices.interference_free[d], np.all) for d in DIRECTION_ORDER}
    return RelationMatrices(tuple(new_id if g[0] == first else ids[g[0]] for g in groups),
                            contact, free)
