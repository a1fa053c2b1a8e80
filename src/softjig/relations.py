"""Contact, interference-free, and reachable-direction relations.

For parts i, k of an assembled product:

* ``contact[i, k]`` — the surfaces are within the contact tolerance.
* ``interference_free[j][i, k]`` — part k can translate along axis
  direction j from its assembled pose all the way out of the assembly
  without ever penetrating part i, checked at uniform samples by the
  penetration kernel ``queries.penetrates_along``. The resolution is
  fixed: ``STEP_COUNT`` samples per sweep, more for thin parts.
* ``reachable[j]`` — elementwise gate of contact with interference
  freedom: ``(C | C^T) & M_j``. A pair's six reachable flags, in the fixed
  order +x, -x, +y, -y, +z, -z, form its reachable-direction list.

Each unordered pair is swept once per direction on the pair's relative
motion (the higher-index part is always the one displaced), which makes the
mirror identity ``M_j(i,k) == M_-j(k,i)`` hold exactly. A pair whose boxes
share no interior on an axis across the sweep, face contact included, is
free without the kernel; ``sweep_translation_is_free`` carries the proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .broad import interiors_overlap
from .mesh import TriangleMesh
from .parts import AssemblyModel
from .queries import penetrates_along, within_distance

# samples of every sweep, which runs twice the assembly AABB diagonal: beyond
# that an axis translation cannot re-enter the assembly bounds
STEP_COUNT = 64
# most samples one pair's sweep may take; above it the sweep is refused
# before its offsets are allocated
MAX_SWEEP_STEPS = 1 << 20


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


def sweep_steps(max_distance: float, thinnest_extent: float) -> int:
    """Samples one pair's sweep takes: ``STEP_COUNT``, raised so that the
    step never exceeds half the thinnest AABB extent of the swept pair."""
    n = STEP_COUNT
    if thinnest_extent > 0:
        n = max(n, math.ceil(max_distance / (0.5 * thinnest_extent)))
    return n


def sweep_sample_distances(max_distance: float, n_steps: int) -> np.ndarray:
    """Sample offsets ``max_distance * (k / n)`` for k = 1..n.

    Computed so that the grid for any integer multiple of ``n_steps`` is an
    exact superset, which keeps refinement monotone.
    """
    k = np.arange(1, n_steps + 1, dtype=np.float64)
    return max_distance * (k / n_steps)


# -- sweep engine ------------------------------------------------------------

def sweep_translation_is_free(static: TriangleMesh, moving: TriangleMesh,
                              direction: Direction, max_distance: float,
                              n_steps: int) -> bool:
    """True iff ``moving`` never penetrates ``static`` at any sampled offset.

    A pair whose whole boxes share no interior on one of the two axes
    across the sweep is free outright, touching boxes included: a closed
    solid lies in its box, and a shift along the sweep axis leaves the
    other coordinates unchanged, so boxes that meet in a slab of zero width
    on such an axis keep the solids' interiors disjoint at every offset.
    No proper crossing (its segment would lie in the slab, in the relative
    interior of both triangles, making them coplanar) and no probe strictly
    inside the other solid can occur, so "free" holds exactly, not only at
    the samples. Otherwise, samples where the two boxes cannot overlap are
    cropped; the rest go to :func:`softjig.queries.penetrates_along`, the
    same kernel that :func:`softjig.queries.intersects` runs at offset zero
    on boxes that share interior.
    """
    axis, sign = direction.axis, direction.sign
    s_lo, s_hi = static.aabb
    m_lo, m_hi = moving.aabb
    if not interiors_overlap(s_lo, s_hi, m_lo, m_hi, [ax for ax in range(3) if ax != axis]):
        return True
    if sign > 0:
        t_lo, t_hi = s_lo[axis] - m_hi[axis], s_hi[axis] - m_lo[axis]
    else:
        t_lo, t_hi = m_lo[axis] - s_hi[axis], m_hi[axis] - s_lo[axis]

    scale = n_steps / max_distance
    k_lo = max(1, math.ceil(t_lo * scale - 1e-9))
    k_hi = min(n_steps, math.floor(t_hi * scale + 1e-9))
    if k_lo > k_hi:
        return True
    samples = sweep_sample_distances(max_distance, n_steps)[k_lo - 1:k_hi]
    return not penetrates_along(static, moving, axis, sign * samples)


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
            m.setflags(write=False)
            free[d] = m
        reach = {d: compute_reachable_matrix(contact, free[d]) for d in DIRECTION_ORDER}
        contact.setflags(write=False)
        for d in DIRECTION_ORDER:
            reach[d].setflags(write=False)
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
    assembly's contact tolerance (:func:`softjig.queries.within_distance`).
    Running out of memory on a pair raises :class:`RelationError` naming it.
    """
    n = len(assembly.parts)
    contact = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for k in range(i + 1, n):
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

    Each unordered pair i < k resolves its step count once
    (:func:`sweep_steps`) and is swept once per direction with the higher
    index moving; the result fills (i, k) of matrix j and (k, i) of matrix
    -j, so the mirror identity between (i, k, j) and (k, i, -j) is bit-exact. A pair that needs more than
    ``MAX_SWEEP_STEPS`` steps is refused before any offsets are allocated,
    and running out of memory raises :class:`RelationError` naming both parts.
    """
    max_distance = 2.0 * assembly.aabb_diagonal
    n = len(assembly.parts)
    free = {d: np.zeros((n, n), dtype=bool) for d in DIRECTION_ORDER}
    for i in range(n):
        for k in range(i + 1, n):
            static, moving = assembly.parts[i], assembly.parts[k]
            thin = min(float(np.min(p.mesh.aabb[1] - p.mesh.aabb[0])) for p in (static, moving))
            n_steps = sweep_steps(max_distance, thin)
            if n_steps > MAX_SWEEP_STEPS:
                raise RelationError(
                    f"sweeping {moving.id!r} past {static.id!r} needs "
                    f"{n_steps} steps, more than the limit of {MAX_SWEEP_STEPS}")
            for d in DIRECTION_ORDER:
                try:
                    result = sweep_translation_is_free(static.mesh, moving.mesh, d,
                                                       max_distance, n_steps)
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
    contact = compute_contact_matrix(assembly)
    free = compute_all_interference_free(assembly)
    return RelationMatrices(tuple(assembly.part_ids), contact, free)


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
    for m in members:
        matrices.index_of(m)
    survivors = set(matrices.entity_ids) - members
    if new_id in survivors:
        raise RelationError(f"new id {new_id!r} collides with an existing entity")

    old_ids = matrices.entity_ids
    member_idx = np.array([i for i, e in enumerate(old_ids) if e in members])
    first = int(member_idx[0])

    new_ids: list[str] = []
    source_rows: list[np.ndarray] = []  # per new entity: old indices it aggregates
    for i, e in enumerate(old_ids):
        if i == first:
            new_ids.append(new_id)
            source_rows.append(member_idx)
        elif e not in members:
            new_ids.append(e)
            source_rows.append(np.array([i]))

    def aggregate(matrix: np.ndarray, combine) -> np.ndarray:
        rows = np.stack([combine(matrix[idx, :], axis=0) for idx in source_rows])
        return np.stack([combine(rows[:, idx], axis=1) for idx in source_rows]).T

    contact = aggregate(matrices.contact, np.any)
    np.fill_diagonal(contact, False)
    free = {}
    for d in DIRECTION_ORDER:
        m = aggregate(matrices.interference_free[d], np.all)
        np.fill_diagonal(m, False)
        free[d] = m
    return RelationMatrices(tuple(new_ids), contact, free)
