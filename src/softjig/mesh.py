"""Indexed triangle meshes: file IO, welding, orientation, and per-triangle bounds.

All coordinates are millimetres. Meshes are immutable after construction and
every query on them is pure, so shared instances are safe to use from multiple
threads.
"""

from __future__ import annotations

import struct
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WELD_TOLERANCE_MM = 1e-6


class MeshError(Exception):
    """Base class for mesh construction and parsing failures."""


class MeshParseError(MeshError):
    """The file could not be parsed in the declared format."""


class DegenerateMeshError(MeshError):
    """Too few vertices/triangles, bad indices, non-finite coordinates, or an open solid."""


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle mesh with precomputed corners and bounds.

    ``vertices`` is (n, 3) float64 mm, ``triangles`` is (m, 3) int64 indices.
    The corners, the per-triangle boxes and the whole-mesh box are computed
    once here; every array is read-only.
    Construction validates shape, index range, and finiteness; it does not
    weld, reorient or require a closed surface (see :func:`weld_vertices`,
    :func:`orient_outward` and :data:`unbalanced_edges`).
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        # copies, so freezing them leaves the caller's arrays writable
        v = np.array(self.vertices, dtype=np.float64, order="C")
        t = np.array(self.triangles, dtype=np.int64, order="C")
        if v.ndim != 2 or v.shape[1] != 3:
            raise DegenerateMeshError(f"vertices must be (n, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise DegenerateMeshError(f"triangles must be (m, 3), got {t.shape}")
        if not np.isfinite(v).all():
            raise DegenerateMeshError("non-finite vertex coordinates")
        if len(v) < 4 or len(t) < 4:
            raise DegenerateMeshError(
                f"degenerate mesh: {len(v)} vertices, {len(t)} triangles (need >= 4 of each)"
            )
        if t.min() < 0 or t.max() >= len(v):
            raise DegenerateMeshError("triangle index out of range")
        corners = v[t]
        tri_lo, tri_hi = corners.min(axis=1), corners.max(axis=1)
        arrays = {"vertices": v, "triangles": t, "_corners": corners, "_tri_lo": tri_lo,
                  "_tri_hi": tri_hi, "_lo": tri_lo.min(axis=0), "_hi": tri_hi.max(axis=0)}
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __repr__(self) -> str:
        return f"TriangleMesh({len(self.vertices)} vertices, {len(self.triangles)} triangles)"

    # -- geometry ----------------------------------------------------------

    @property
    def corners(self) -> np.ndarray:
        """(m, 3, 3) triangle corner coordinates."""
        return self._corners

    @property
    def triangle_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._tri_lo, self._tri_hi

    @property
    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lo, self._hi

    @property
    def aabb_diagonal(self) -> float:
        lo, hi = self.aabb
        return float(np.linalg.norm(hi - lo))

    def signed_volume(self) -> float:
        """Signed enclosed volume by the divergence theorem (mm^3).

        Positive when triangle winding is outward.
        """
        a, b, c = self._corners[:, 0], self._corners[:, 1], self._corners[:, 2]
        return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)

    def volume_centroid(self) -> np.ndarray:
        """Centroid of the enclosed volume, assuming uniform density."""
        a, b, c = self._corners[:, 0], self._corners[:, 1], self._corners[:, 2]
        tet_vol = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
        total = tet_vol.sum()
        if total <= 0.0:
            raise DegenerateMeshError(
                f"mesh encloses non-positive volume ({total:.6g} mm^3); not watertight?"
            )
        tet_centroid = (a + b + c) / 4.0
        return (tet_vol[:, None] * tet_centroid).sum(axis=0) / total

    def translated(self, offset) -> "TriangleMesh":
        return TriangleMesh(self.vertices + np.asarray(offset, dtype=np.float64), self.triangles)

    def rotated(self, rotation: np.ndarray) -> "TriangleMesh":
        r = np.asarray(rotation, dtype=np.float64)
        return TriangleMesh(self.vertices @ r.T, self.triangles)

    def transformed(self, rotation: np.ndarray, translation) -> "TriangleMesh":
        r = np.asarray(rotation, dtype=np.float64)
        t = np.asarray(translation, dtype=np.float64)
        return TriangleMesh(self.vertices @ r.T + t, self.triangles)


class PerMesh:
    """``compute(mesh)``, computed once per mesh and kept for the mesh's
    lifetime; the lock makes concurrent first calls on a shared mesh compute
    it once."""

    def __init__(self, compute) -> None:
        self._compute = compute
        self._values: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def __call__(self, mesh: TriangleMesh):
        with self._lock:
            value = self._values.get(mesh)
            if value is None:
                value = self._compute(mesh)
                self._values[mesh] = value
        return value


def _count_unbalanced_edges(mesh: TriangleMesh) -> int:
    """``|#(u, v) - #(v, u)|`` summed over each pair of vertices {u, v}:
    the size of the multiset difference between the sorted directed-edge
    keys and the sorted keys of their reverses. It is 0 iff the triangles
    form a closed 2-cycle, such as a closed, consistently wound surface or
    a union of them welded along shared edges or faces."""
    t = mesh.triangles
    n = len(mesh.vertices)
    tail, head = t.ravel(), np.roll(t, -1, axis=1).ravel()
    forward, reverse = np.sort(tail * n + head), np.sort(head * n + tail)
    if np.array_equal(forward, reverse):
        return 0
    key, count = np.unique(forward, return_counts=True)
    count -= np.searchsorted(reverse, key, "right") - np.searchsorted(reverse, key, "left")
    return int(np.maximum(count, 0).sum())


# per mesh, computed once: parts and the penetration kernel require 0
unbalanced_edges = PerMesh(_count_unbalanced_edges)


def weld_vertices(vertices: np.ndarray, triangles: np.ndarray,
                  tolerance: float = WELD_TOLERANCE_MM) -> tuple[np.ndarray, np.ndarray]:
    """Merge vertices that coincide within ``tolerance`` (grid snap).

    The grid keys are int64, so a coordinate at or beyond ``2**63 *
    tolerance`` (about 9.2e12 mm at the default) is refused rather than
    wrapped into a key that welds unrelated vertices together.
    """
    v = np.asarray(vertices, dtype=np.float64)
    t = np.asarray(triangles, dtype=np.int64)
    scaled = np.round(v / tolerance)
    if len(v) and np.abs(scaled).max() >= 2.0 ** 63:
        raise DegenerateMeshError(
            f"vertex coordinate {np.abs(v).max():.6g} mm is beyond the weld limit of "
            f"{2.0 ** 63 * tolerance:.6g} mm")
    keys = scaled.astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return v[first], inverse[t]


def orient_outward(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Flip every triangle when the mesh's signed volume is negative.

    File normals are ignored on purpose: the divergence-theorem sign is the
    only orientation evidence that survives sloppy exporters.
    """
    v = np.asarray(vertices, dtype=np.float64)
    t = np.asarray(triangles, dtype=np.int64)
    corners = v[t]
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    volume = np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0
    if volume < 0.0:
        t = t[:, ::-1]
    return t


def _finish_mesh(vertices: np.ndarray, triangles: np.ndarray) -> TriangleMesh:
    if len(triangles) < 4:
        raise DegenerateMeshError(
            f"degenerate mesh: {len(triangles)} triangles (need >= 4)"
        )
    if not np.isfinite(vertices).all():
        raise DegenerateMeshError("non-finite vertex coordinates")
    v, t = weld_vertices(vertices, triangles)
    t = orient_outward(v, t)
    return TriangleMesh(v, t)


# -- STL -------------------------------------------------------------------

# one binary STL facet: unit normal, three corners, attribute byte count
_STL_FACET = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")])


def _facet_normals(corners: np.ndarray) -> np.ndarray:
    """Unit normals of ``corners`` (t, 3, 3), in their own precision; 0
    for a zero-area facet."""
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    lengths = np.linalg.norm(normals, axis=1)
    safe = lengths > 0
    normals[safe] /= lengths[safe, None]
    normals[~safe] = 0.0
    return normals


def _parse_stl_ascii(text: str) -> tuple[np.ndarray, np.ndarray]:
    coords: list[float] = []
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["vertex"]:
            if len(parts) != 4:
                raise MeshParseError(f"bad vertex record: {line.strip()!r}")
            try:
                coords.extend(float(p) for p in parts[1:])
            except ValueError as exc:
                raise MeshParseError(f"bad vertex record: {line.strip()!r}") from exc
    if not coords or len(coords) % 9 != 0:
        raise MeshParseError("ASCII STL does not contain whole facets")
    vertices = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    triangles = np.arange(len(vertices), dtype=np.int64).reshape(-1, 3)
    return vertices, triangles


def _parse_stl_binary(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    if len(data) < 84:
        raise MeshParseError("binary STL shorter than its 84-byte preamble")
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) != expected:
        raise MeshParseError(
            f"binary STL length {len(data)} does not match {count} triangles ({expected})"
        )
    if count == 0:
        raise DegenerateMeshError("binary STL declares 0 triangles")
    body = np.frombuffer(data, dtype=_STL_FACET, count=count, offset=84)
    vertices = body["verts"].astype(np.float64).reshape(-1, 3)
    triangles = np.arange(len(vertices), dtype=np.int64).reshape(-1, 3)
    return vertices, triangles


def _sniff_format(path: Path) -> str:
    if path.suffix.lower() == ".obj":
        return "obj"
    with open(path, "rb") as f:
        head = f.read(512)
    if head.lstrip()[:5] == b"solid":
        # could still be binary with a chatty header; check length consistency
        size = path.stat().st_size
        if size >= 84:
            (count,) = struct.unpack_from("<I", head, 80) if len(head) >= 84 else (0,)
            if size == 84 + 50 * count and count > 0:
                return "stl-binary"
        return "stl-ascii"
    return "stl-binary"


def load_mesh(path, fmt: str = "auto") -> TriangleMesh:
    """Load a triangle mesh from STL (binary or ASCII) or OBJ.

    Duplicate vertices within 1e-6 mm are merged and the winding is
    normalized outward from the signed-volume sign. ``fmt`` is one of
    ``stl-binary``, ``stl-ascii``, ``obj``, or ``auto``.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(path)
    if fmt == "auto":
        fmt = _sniff_format(path)
    if fmt == "stl-binary":
        vertices, triangles = _parse_stl_binary(path.read_bytes())
    elif fmt in ("stl-ascii", "obj"):
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MeshParseError(f"{path}: not UTF-8 text") from exc
        vertices, triangles = (_parse_stl_ascii if fmt == "stl-ascii" else _parse_obj)(text)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    return _finish_mesh(vertices, triangles)


def save_stl_binary(mesh: TriangleMesh, path) -> None:
    """Write a little-endian binary STL (80-byte header, 50-byte facets).

    Output bytes are a pure function of the mesh, so repeated writes are
    identical.
    """
    corners = mesh.corners.astype(np.float32)
    record = np.zeros(len(corners), dtype=_STL_FACET)
    record["normal"] = _facet_normals(corners)
    record["verts"] = corners
    header = b"softjig mesh" + b" " * 68
    with open(path, "wb") as f:
        f.write(header)
        f.write(struct.pack("<I", len(corners)))
        f.write(record.tobytes())


def save_stl_ascii(mesh: TriangleMesh, path) -> None:
    lines = ["solid softjig"]
    corners = mesh.corners
    for tri, n in zip(corners.tolist(), _facet_normals(corners).tolist()):
        lines.append(f"  facet normal {n[0]!r} {n[1]!r} {n[2]!r}")
        lines.append("    outer loop")
        for v in tri:
            lines.append(f"      vertex {v[0]!r} {v[1]!r} {v[2]!r}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append("endsolid softjig")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- OBJ -------------------------------------------------------------------

def _parse_obj(text: str) -> tuple[np.ndarray, np.ndarray]:
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue  # only v/f records are honoured
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshParseError(f"line {lineno}: short vertex record")
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError as exc:
                raise MeshParseError(f"line {lineno}: bad vertex record") from exc
        else:
            try:
                idx = [int(p.split("/")[0]) for p in parts[1:]]
            except ValueError as exc:
                raise MeshParseError(f"line {lineno}: bad face record") from exc
            if len(idx) < 3:
                raise MeshParseError(f"line {lineno}: face with fewer than 3 vertices")
            resolved = [i - 1 if i > 0 else len(vertices) + i for i in idx]
            for k in range(1, len(resolved) - 1):  # fan-triangulate polygons
                faces.append([resolved[0], resolved[k], resolved[k + 1]])
    if not vertices or not faces:
        raise MeshParseError("OBJ contains no v/f records")
    v = np.asarray(vertices, dtype=np.float64)
    try:
        t = np.asarray(faces, dtype=np.int64)
    except OverflowError:
        raise MeshParseError("OBJ face index out of range") from None
    if t.min() < 0 or t.max() >= len(v):
        raise MeshParseError("OBJ face index out of range")
    return v, t


def save_obj(mesh: TriangleMesh, path) -> None:
    lines = []
    for v in mesh.vertices.tolist():
        lines.append(f"v {v[0]!r} {v[1]!r} {v[2]!r}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
