"""Rigid parts, assemblies, and mass properties.

Units are millimetres and grams throughout. Each part carries its mesh in
assembled-frame coordinates plus a declared mass; density is uniform per
part, scaled to that mass, since meshes carry no material map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .broad import penetration_span
from .mesh import DegenerateMeshError, TriangleMesh, unbalanced_edges
from .queries import intersects

DEFAULT_CONTACT_EPSILON_FACTOR = 1e-3
MAX_CONTACT_EPSILON_FACTOR = 1e-2

ORTHONORMALITY_TOL = 1e-9


class PartError(ValueError):
    """Invalid part or assembly definition."""


@dataclass(frozen=True)
class PartModel:
    """One rigid part: id, triangle mesh in assembled pose, mass in grams.

    The mesh must be a closed 2-cycle (:data:`softjig.mesh.unbalanced_edges`
    is 0) enclosing a positive volume; every part is built here, so the
    penetration kernel only ever sees closed solids.

    ``group`` marks parts that are assembled as a single unit (e.g. a set of
    bolts placed in one step); group names act as sequence entities.
    """

    id: str
    mesh: TriangleMesh
    mass: float
    group: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise PartError("part id must be non-empty")
        if self.group == "":
            raise PartError(f"part {self.id!r}: group '' cannot be named in a sequence")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise PartError(f"part {self.id!r}: mass must be finite and > 0, got {self.mass}")
        unbalanced = unbalanced_edges(self.mesh)
        if unbalanced:
            raise DegenerateMeshError(f"part {self.id!r}: mesh is not closed: {unbalanced} "
                                      f"directed edges do not match their reverses")
        volume = self.mesh.signed_volume()
        if not (volume > 0):
            raise DegenerateMeshError(
                f"part {self.id!r}: enclosed volume {volume:.6g} mm^3 is not positive"
            )
        cog = self.mesh.volume_centroid()
        cog.setflags(write=False)
        object.__setattr__(self, "_cog", cog)

    @property
    def cog(self) -> np.ndarray:
        """Uniform-density center of gravity of this part (mm)."""
        return self._cog


def mass_properties(parts: list[PartModel]) -> tuple[float, np.ndarray]:
    """Total mass (g) and mass-weighted combined center of gravity (mm).

    The combined CoG is the mass-weighted mean of the per-part
    uniform-density centroids.
    """
    if not parts:
        raise PartError("mass_properties needs at least one part")
    masses = np.array([p.mass for p in parts])
    cogs = np.array([p.cog for p in parts])
    total = float(masses.sum())
    return total, (masses[:, None] * cogs).sum(axis=0) / total


@dataclass(frozen=True, eq=False)
class RigidOrientation:
    """A proper rotation taking assembled-frame directions to world directions."""

    rotation: np.ndarray

    def __post_init__(self) -> None:
        r = np.ascontiguousarray(np.asarray(self.rotation, dtype=np.float64))
        if r.shape != (3, 3):
            raise PartError(f"rotation must be 3x3, got {r.shape}")
        if not np.isfinite(r).all():
            raise PartError("rotation entries must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > ORTHONORMALITY_TOL:
            raise PartError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
            raise PartError("rotation determinant is not +1 within 1e-9")
        r.setflags(write=False)
        object.__setattr__(self, "rotation", r)

    @classmethod
    def identity(cls) -> "RigidOrientation":
        return cls(np.eye(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T


@dataclass(frozen=True)
class AssemblyModel:
    """An assembled product: ordered parts plus the contact tolerance.

    ``contact_epsilon`` defaults to 1e-3 of the assembly AABB diagonal and
    must stay below 1e-2 of it; CAD mates are nominally exact and the
    tolerance only absorbs mesh discretization. The first pair of parts that
    interpenetrates (:func:`softjig.queries.intersects`) is refused by name.
    """

    parts: tuple[PartModel, ...]
    contact_epsilon: float | None = None
    aabb_diagonal: float = field(init=False)

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise PartError("assembly needs at least one part")
        ids = [p.id for p in parts]
        if len(set(ids)) != len(ids):
            raise PartError("part ids must be unique")
        groups = {p.group for p in parts if p.group is not None}
        clash = groups & set(ids)
        if clash:
            raise PartError(f"group names collide with part ids: {sorted(clash)}")
        # finite running sums of mass and |mass * cog| keep any subset's CoG finite
        with np.errstate(over="ignore"):
            sums = np.cumsum([[p.mass, *p.mass * np.abs(p.cog)] for p in parts], axis=0)
        for part, row in zip(parts, sums):
            if not np.isfinite(row).all():
                raise PartError(f"part {part.id!r}: mass {part.mass:g} overflows the mass totals")
        lo = np.min([p.mesh.aabb[0] for p in parts], axis=0)
        hi = np.max([p.mesh.aabb[1] for p in parts], axis=0)
        diagonal = float(np.linalg.norm(hi - lo))
        eps = self.contact_epsilon
        if eps is None:
            eps = DEFAULT_CONTACT_EPSILON_FACTOR * diagonal
        if not (0 < eps < MAX_CONTACT_EPSILON_FACTOR * diagonal):
            raise PartError(
                f"contact_epsilon {eps} out of range (0, {MAX_CONTACT_EPSILON_FACTOR * diagonal})"
            )
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "contact_epsilon", float(eps))
        object.__setattr__(self, "aabb_diagonal", diagonal)
        pairs, boxes = part_pairs(self)
        for i, k in pairs[np.less_equal(*penetration_span(*boxes, 0, 0.0, 0.0))]:
            if intersects(parts[i].mesh, parts[k].mesh):
                raise PartError(f"parts {parts[i].id!r} and {parts[k].id!r} interpenetrate "
                                f"in the assembled pose")

    @property
    def part_ids(self) -> list[str]:
        return [p.id for p in self.parts]

    def part(self, part_id: str) -> PartModel:
        for p in self.parts:
            if p.id == part_id:
                return p
        raise KeyError(part_id)


def part_pairs(assembly: AssemblyModel) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Every pair (i, k), i < k, of the parts in row-major order, as a
    (pairs, 2) array, and per pair the boxes ``(lo, hi)`` of part i, then
    of part k, with which a box rule of ``broad`` answers every pair."""
    lo, hi = np.array([p.mesh.aabb for p in assembly.parts]).transpose(1, 0, 2)
    i, k = np.triu_indices(len(lo), 1)
    return np.stack([i, k], axis=1), (lo[i], hi[i], lo[k], hi[k])
