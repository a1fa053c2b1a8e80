"""Seeded inputs, operations and output checks for the perfbench workloads.

The benchmark writes every input itself (the proxy product through
``softjig fixtures``), so the program under test only ever sees STL files
and descriptors. Expected outputs come from analytic oracles in this file
or from digests recorded in ``digests.json``, never from the code under
test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

DIRECTIONS = ("+x", "-x", "+y", "-y", "+z", "-z")   # the program's flag order

PROXY_SEQUENCES = ("motor,plate,bolts", "plate,bolts,motor")
# (fixed part, posture) per step, from the paper's fixing table
PROXY_EXPECTED_STEPS = {
    "motor,plate,bolts": [("motor", "+z"), ("motor", "+z")],
    "plate,bolts,motor": [("plate", "+z"), ("motor", "-z")],
}

STACK_LEVELS = 16
STACK_POOL = 64          # distinct stacks with a recorded plan digest
STACK_STRIDE = 8         # seed s starts at pool entry 8 * s
CYLINDER_SEGMENTS = 256  # 4 * 256 = 1,024 triangles per closed cylinder

_F32 = struct.Struct("<f")
_FACET = struct.Struct("<12fH")


def f32(x: float) -> float:
    """``x`` rounded to the float32 that a binary STL stores."""
    return _F32.unpack(_F32.pack(x))[0]


def write_stl(path: Path, triangles) -> None:
    """Binary STL of ``triangles`` (three xyz tuples each); normals are left 0."""
    body = b"".join(_FACET.pack(0.0, 0.0, 0.0, *a, *b, *c, 0) for a, b, c in triangles)
    path.write_bytes(b"perfbench".ljust(80) + struct.pack("<I", len(triangles)) + body)


def write_descriptor(path: Path, parts) -> None:
    """Descriptor for ``parts`` = [(id, mesh file name, mass in g)], identity poses."""
    doc = {"parts": [{"id": pid, "mesh_path": mesh, "mass_g": mass} for pid, mesh, mass in parts]}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def box_triangles(lo, hi):
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    v = [(x0, y0, z0), (x1, y0, z0), (x1, y1, z0), (x0, y1, z0),
         (x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1)]
    faces = ((0, 2, 1), (0, 3, 2), (4, 5, 6), (4, 6, 7), (0, 1, 5), (0, 5, 4),
             (1, 2, 6), (1, 6, 5), (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7))
    return [(v[a], v[b], v[c]) for a, b, c in faces]


def cylinder_triangles(cx, cy, radius, z0, z1, segments=CYLINDER_SEGMENTS):
    """Closed, outward-wound cylinder: bottom fan, side quads, top fan."""
    ring = [(cx + radius * math.cos(2 * math.pi * j / segments),
             cy + radius * math.sin(2 * math.pi * j / segments)) for j in range(segments)]
    bottom, top = (cx, cy, z0), (cx, cy, z1)
    tris = []
    for j in range(segments):
        (ax, ay), (bx, by) = ring[j], ring[(j + 1) % segments]
        tris.append((bottom, (bx, by, z0), (ax, ay, z0)))
        tris.append(((ax, ay, z0), (bx, by, z0), (bx, by, z1)))
        tris.append(((ax, ay, z0), (bx, by, z1), (ax, ay, z1)))
        tris.append((top, (ax, ay, z1), (bx, by, z1)))
    return tris


def matrices_json(ids, contact, free) -> bytes:
    """The exact bytes ``softjig matrices --out`` writes for these matrices.

    Matrices hold only 0/1, so the reachable gate ``(C | C^T) & M`` is
    applied here and the whole file is known without the code under test.
    """
    n = len(ids)
    reach = {d: [[int((contact[i][k] or contact[k][i]) and free[d][i][k]) for k in range(n)]
                 for i in range(n)] for d in DIRECTIONS}
    doc = {
        "entity_ids": list(ids),
        "contact": [[int(c) for c in row] for row in contact],
        "interference_free": {d: [[int(f) for f in row] for row in free[d]] for d in DIRECTIONS},
        "reachable": reach,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# -- box stacks ---------------------------------------------------------------

def stack_boxes(index: int, levels: int = STACK_LEVELS):
    """Tower of ``levels`` boxes, each resting exactly on the one below.

    Same size and offset rules as ``softjig.fixtures.cube_stack_assembly``
    but drawn from Python's ``random`` and rounded to float32, so the
    coordinates the oracle uses are the ones the STL carries. Returns
    [(lo, hi, mass)].
    """
    rng = random.Random(index)
    boxes = []
    z = 0.0
    cx = cy = 0.0
    prev_half = None
    for _ in range(levels):
        half = rng.uniform(3.0, 8.0)
        height = rng.uniform(4.0, 10.0)
        if prev_half is not None:
            limit = 0.6 * (prev_half + half)
            cx += rng.uniform(-limit, limit)
            cy += rng.uniform(-limit, limit)
        lo = (f32(cx - half), f32(cy - half), f32(z))
        hi = (f32(cx + half), f32(cy + half), f32(z + height))
        boxes.append((lo, hi, round(rng.uniform(1.0, 100.0), 3)))
        z += height
        prev_half = half
    return boxes


def box_oracle(boxes):
    """Contact and interference-free matrices of axis-aligned boxes, exactly.

    Contact: the boxes' gap is within the program's default tolerance,
    1e-3 of the assembly box diagonal. Interference-free along d for
    (static i, moving k): k's box swept over (0, 2 x diagonal] never
    overlaps i's box with positive volume.
    """
    n = len(boxes)
    lo_all = [min(b[0][a] for b in boxes) for a in range(3)]
    hi_all = [max(b[1][a] for b in boxes) for a in range(3)]
    diagonal = math.sqrt(sum((h - l) ** 2 for l, h in zip(lo_all, hi_all)))
    eps, reach = 1e-3 * diagonal, 2.0 * diagonal

    def gap(s, m):
        return math.sqrt(sum(max(0.0, s[0][a] - m[1][a], m[0][a] - s[1][a]) ** 2 for a in range(3)))

    def blocked(s, m, axis, sign):
        for a in range(3):
            if a != axis and not (s[0][a] < m[1][a] and m[0][a] < s[1][a]):
                return False
        if sign > 0:   # offsets t with m + t overlapping s: (s.lo - m.hi, s.hi - m.lo)
            t_lo, t_hi = s[0][axis] - m[1][axis], s[1][axis] - m[0][axis]
        else:
            t_lo, t_hi = m[0][axis] - s[1][axis], m[1][axis] - s[0][axis]
        return t_hi > 0.0 and t_lo < reach

    contact = [[i != k and gap(boxes[i], boxes[k]) <= eps for k in range(n)] for i in range(n)]
    free = {}
    for d in DIRECTIONS:
        axis, sign = "xyz".index(d[1]), 1 if d[0] == "+" else -1
        free[d] = [[i != k and not blocked(boxes[i], boxes[k], axis, sign) for k in range(n)]
                   for i in range(n)]
    return contact, free


def write_stack(directory: Path, boxes) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    parts = []
    for i, (lo, hi, mass) in enumerate(boxes):
        write_stl(directory / f"box{i}.stl", box_triangles(lo, hi))
        parts.append((f"box{i}", f"box{i}.stl", mass))
    descriptor = directory / "assembly.json"
    write_descriptor(descriptor, parts)
    return descriptor


# -- three cylinders ----------------------------------------------------------

CYLINDER_IDS = ("lower", "upper", "side")


def cylinder_layout(seed: int):
    """Lower and upper cylinders stacked coaxially in face contact, plus a
    shorter side cylinder standing 1-3 mm from the lower one along the
    (+x, +y) diagonal, so its box overlaps both others in x and y.

    Returns [(id, cx, cy, radius, z0, z1)]; the seed jitters radii, heights
    and the gap, never the triangle count.
    """
    rng = random.Random(seed)
    r_low = rng.uniform(20.0, 22.0)
    h_low = rng.uniform(30.0, 33.0)
    r_up = r_low * rng.uniform(0.8, 0.9)
    h_up = rng.uniform(30.0, 33.0)
    r_side = rng.uniform(10.0, 11.0)
    h_side = h_low * rng.uniform(0.7, 0.8)
    offset = (r_low + rng.uniform(1.0, 3.0) + r_side) / math.sqrt(2.0)
    return [
        ("lower", 0.0, 0.0, r_low, 0.0, h_low),
        ("upper", 0.0, 0.0, r_up, h_low, h_low + h_up),
        ("side", offset, offset, r_side, 0.0, h_side),
    ]


def cylinder_expected():
    """Hand-derived matrices of the three-cylinder layout.

    Only lower/upper touch. Upper leaves lower along every direction but
    -z, and lower leaves upper along every direction but +z. Side runs
    into lower along -x and -y, since its footprint overlaps lower's in
    both bands; lower runs into side along +x and +y. Side and upper never
    meet: side ends below upper's bottom face and stays outside its radius
    when it moves along z.
    """
    contact = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    blocked = {(0, 1): ("-z",), (1, 0): ("+z",), (0, 2): ("-x", "-y"), (2, 0): ("+x", "+y")}
    free = {d: [[int(i != k and d not in blocked.get((i, k), ())) for k in range(3)]
                for i in range(3)] for d in DIRECTIONS}
    return contact, free


def write_cylinders(directory: Path, layout) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    parts = []
    for pid, cx, cy, radius, z0, z1 in layout:
        write_stl(directory / f"{pid}.stl", cylinder_triangles(cx, cy, radius, z0, z1))
        parts.append((pid, f"{pid}.stl", round(radius * radius * (z1 - z0) * 7.8e-3, 3)))
    descriptor = directory / "assembly.json"
    write_descriptor(descriptor, parts)
    return descriptor


# -- operations ---------------------------------------------------------------

@dataclass
class Op:
    """One softjig CLI invocation and the check of what it wrote."""

    kind: str                                   # plan | matrices
    args: list[str]                             # CLI arguments after the program
    out: Path                                   # the --out file
    check: Callable[[int, bytes], str | None]   # (exit code, output) -> problem or None

    @property
    def label(self) -> str:
        """The subcommand and its input directory, for failure messages."""
        return f"{self.kind} {Path(self.args[1]).parent.name}"


class SetupError(Exception):
    """The program or its inputs cannot be set up; no result is printed."""


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


NO_DIGEST = "no digest recorded for this input"


def _check_digest(data: bytes, digest: str | None) -> str | None:
    if digest is None:
        return NO_DIGEST
    if sha256(data) != digest:
        return "output differs from the digest recorded for this input"
    return None


def check_plan(code: int, data: bytes, expected_steps=None, flags=None,
               n_steps=None, digest=None) -> str | None:
    """Problems with one plan output, or None."""
    if code != 0:
        return f"exit code {code}, expected 0 (complete plan)"
    try:
        plan = json.loads(data)
    except ValueError:
        return "plan output is not JSON"
    if plan.get("complete") is not True:
        return f"plan incomplete: {plan.get('halt_reason')}"
    steps = plan.get("steps", [])
    if n_steps is not None and len(steps) != n_steps:
        return f"{len(steps)} plan steps, expected {n_steps}"
    if expected_steps is not None:
        got = [(s.get("fixed_part"), s.get("posture_label")) for s in steps]
        if got != expected_steps:
            return f"plan steps {got}, expected {expected_steps}"
    if flags is not None:
        bad = [s.get("index") for s in steps if s.get("reachable_flags") != flags]
        if bad:
            return f"reachable flags differ from {flags} at steps {bad}"
    return _check_digest(data, digest)


def check_matrices(code: int, data: bytes, expected: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    if data != expected:
        return "matrices differ from the oracle's"
    return None


class Workload:
    """Seeded inputs under ``work``; ``op(i)`` is the i-th timed operation."""

    name = ""
    cycle = 1   # ops per op cycle

    def __init__(self, work: Path, seed: int, cli: Callable[[list[str]], int]):
        self.work = work
        self.seed = seed
        self.cli = cli      # runs one untimed softjig CLI call, returns its exit code
        self.digests = load_digests()

    def digest(self, group: str, key: str) -> str | None:
        return self.digests.get(group, {}).get(key)

    def generate(self) -> None:
        """Write the inputs of the first op (timed as set-up)."""
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError


class Proxy(Workload):
    """The paper's 4-part proxy, written once by ``softjig fixtures``."""

    name = "proxy"
    cycle = len(PROXY_SEQUENCES)

    def generate(self) -> None:
        code = self.cli(["fixtures", "--out-dir", str(self.work / "proxy")])
        if code != 0:
            raise SetupError(f"softjig fixtures exited {code}")

    @property
    def descriptor(self) -> str:
        return str(self.work / "proxy" / "assembly.json")

    def warmup(self) -> Op:
        return self.op(0)

    def op(self, i: int) -> Op:
        sequence = PROXY_SEQUENCES[i % len(PROXY_SEQUENCES)]
        out = self.work / "plan.json"
        digest = self.digest("proxy", f"plan {sequence}")
        return Op("plan", ["plan", self.descriptor, "--sequence", sequence, "--out", str(out)], out,
                  lambda code, data: check_plan(code, data, PROXY_EXPECTED_STEPS[sequence],
                                                digest=digest))


class BoxStack(Workload):
    """A fresh 16-box stack per op, from a pool of 64 with recorded digests."""

    name = "box_stack"

    def stack_index(self, i: int) -> int:
        return (STACK_STRIDE * self.seed + i) % STACK_POOL

    def prepare(self, i: int) -> tuple[str, list]:
        index = self.stack_index(i)
        boxes = stack_boxes(index)
        directory = self.work / f"stack{index}"
        descriptor = directory / "assembly.json"
        if not descriptor.exists():
            write_stack(directory, boxes)
        return str(descriptor), boxes

    def generate(self) -> None:
        write_stack(self.work / f"stack{self.stack_index(0)}", stack_boxes(self.stack_index(0)))

    def warmup(self) -> Op:
        descriptor, boxes = self.prepare(0)
        contact, free = box_oracle(boxes)
        expected = matrices_json([f"box{i}" for i in range(len(boxes))], contact, free)
        out = self.work / "matrices.json"
        return Op("matrices", ["matrices", descriptor, "--out", str(out)], out,
                  lambda code, data: check_matrices(code, data, expected))

    def op(self, i: int) -> Op:
        descriptor, boxes = self.prepare(i)
        sequence = ",".join(f"box{k}" for k in range(len(boxes)))
        digest = self.digest("box_stack", str(self.stack_index(i)))
        out = self.work / "plan.json"
        return Op("plan", ["plan", descriptor, "--sequence", sequence, "--out", str(out)], out,
                  lambda code, data: check_plan(code, data, flags=[1, 1, 1, 1, 1, 0],
                                                n_steps=len(boxes) - 1, digest=digest))


class DensePair(Workload):
    """One ``matrices`` over three 1,024-triangle cylinders, fresh per op."""

    name = "dense_pair"

    def prepare(self, i: int) -> str:
        directory = self.work / f"cylinders{i}"
        descriptor = directory / "assembly.json"
        if not descriptor.exists():
            write_cylinders(directory, cylinder_layout(self.seed * 1_000_003 + i))
        return str(descriptor)

    def generate(self) -> None:
        write_cylinders(self.work / "cylinders0", cylinder_layout(self.seed * 1_000_003))

    def warmup(self) -> Op:
        return self.op(0)

    def op(self, i: int) -> Op:
        descriptor = self.prepare(i)
        expected = matrices_json(CYLINDER_IDS, *cylinder_expected())
        out = self.work / "matrices.json"
        return Op("matrices", ["matrices", descriptor, "--out", str(out)], out,
                  lambda code, data: check_matrices(code, data, expected))


WORKLOADS = {w.name: w for w in (Proxy, BoxStack, DensePair)}
