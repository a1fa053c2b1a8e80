"""Fixing-performance metrics: force resolution, jig-frame displacement,
pixel-to-mm conversion, and the push-distance success classifier.

Frames are measured from four screw markers clicked a quarter-turn apart on
the jig rim, in image pixels. By convention the first point defines the +y
axis and the second the +x axis, relative to the marker centroid. Only the
in-plane pose is modelled; the jig surface is assumed to stay horizontal.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_JIG_WIDTH_MM = 160.0
DEFAULT_PUSH_MM = 70.0
DEFAULT_SUCCESS_RATIO = 0.9


class EvaluationError(ValueError):
    """Invalid evaluation input."""


@dataclass(frozen=True)
class ForceSample:
    """One force-plate sample in Newtons; timestamp in seconds, optional."""

    fx: float
    fy: float
    fz: float
    timestamp: float | None = None

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.fz)):
            raise EvaluationError(f"non-finite force sample ({self.fx}, {self.fy}, {self.fz})")


def resolve_forces(sample: ForceSample) -> tuple[float, float]:
    """Split a sample into (normal, shear) magnitudes.

    Normal is |fz|; shear is the planar magnitude sqrt(fx^2 + fy^2).
    """
    return abs(sample.fz), math.hypot(sample.fx, sample.fy)


def peak_forces(series: list[ForceSample]) -> tuple[float, float]:
    """Independent maxima of normal and shear force over a series."""
    if not series:
        raise EvaluationError("empty force series")
    resolved = [resolve_forces(s) for s in series]
    return max(n for n, _ in resolved), max(s for _, s in resolved)


@dataclass(frozen=True)
class JigFrameObservation:
    """Four screw-marker points (pixels) defining a jig frame in one image.

    Point order matters: points[0] defines +y and points[1] defines +x.
    """

    points: tuple[tuple[float, float], ...]
    image_tag: str = ""

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) != 4:
            raise EvaluationError(f"expected 4 marker points, got {len(pts)}")
        if not all(math.isfinite(c) for p in pts for c in p):
            raise EvaluationError("non-finite marker point")
        for i in range(4):
            for j in range(i + 1, 4):
                if pts[i] == pts[j]:
                    raise EvaluationError(f"marker points {i + 1} and {j + 1} coincide")
        object.__setattr__(self, "points", pts)


def jig_frame(obs: JigFrameObservation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame of an observation: (x axis, y axis, centroid), all in pixels.

    Axes are marker positions relative to the marker centroid: x from the
    second point, y from the first.
    """
    pts = np.asarray(obs.points, dtype=np.float64)
    centroid = pts.mean(axis=0)
    x_axis = pts[1] - centroid
    y_axis = pts[0] - centroid
    if np.linalg.norm(x_axis) == 0.0 or np.linalg.norm(y_axis) == 0.0:
        raise EvaluationError("zero-length frame axis (marker coincides with centroid)")
    return x_axis, y_axis, centroid


def frame_distance(before: JigFrameObservation, after: JigFrameObservation) -> float:
    """Distance between two jig frames from their relative axis change (px).

    Built from centroid-relative axes, so it is invariant under a common
    translation of the whole marker set; it measures rotation/deformation
    of the frame, not travel.
    """
    x_b, y_b, _ = jig_frame(before)
    x_a, y_a, _ = jig_frame(after)
    dx = x_a - x_b
    dy = y_a - y_b
    return float(np.sqrt(dx @ dx + dy @ dy))


@dataclass(frozen=True)
class DisplacementResult:
    """Displacement metrics for one before/after observation pair.

    ``frame_distance_px`` is the literal relative-axes metric;
    ``centroid_translation_mm`` is what the push-success rule consumes, and
    both are reported so either reading can be audited.
    """

    frame_distance_px: float
    centroid_translation_px: float
    mm_per_px: float
    centroid_translation_mm: float
    success: bool

    def to_json_dict(self) -> dict:
        return {
            "frame_distance_px": self.frame_distance_px,
            "centroid_translation_px": self.centroid_translation_px,
            "mm_per_px": self.mm_per_px,
            "centroid_translation_mm": self.centroid_translation_mm,
            "success": self.success,
        }


def displacement_report(before: JigFrameObservation, after: JigFrameObservation,
                        jig_width_px: float,
                        jig_width_mm: float = DEFAULT_JIG_WIDTH_MM,
                        push_mm: float = DEFAULT_PUSH_MM,
                        success_ratio: float = DEFAULT_SUCCESS_RATIO) -> DisplacementResult:
    """Classify a fixing trial from how far the jig moved under the push.

    The jig travelled with the part while the gripper pushed ``push_mm``;
    the trial succeeds when the centroid translation reaches
    ``success_ratio * push_mm`` (boundary inclusive). Pixel scale comes from
    the known jig width. Each of the four numbers must be positive and finite.
    """
    for name, value in (("jig_width_px", jig_width_px), ("jig_width_mm", jig_width_mm),
                        ("push_mm", push_mm), ("success_ratio", success_ratio)):
        if not (math.isfinite(value) and value > 0):
            raise EvaluationError(f"{name} must be positive and finite, got {value}")
    _, _, c_before = jig_frame(before)
    _, _, c_after = jig_frame(after)
    mm_per_px = jig_width_mm / jig_width_px
    translation_px = float(np.linalg.norm(c_after - c_before))
    translation_mm = translation_px * mm_per_px
    return DisplacementResult(
        frame_distance_px=frame_distance(before, after),
        centroid_translation_px=translation_px,
        mm_per_px=mm_per_px,
        centroid_translation_mm=translation_mm,
        success=translation_mm >= success_ratio * push_mm,
    )


# -- file formats ------------------------------------------------------------

def load_observation(path) -> JigFrameObservation:
    """Read a marker observation: {"image_tag": str, "points": [[x, y] x 4]}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise EvaluationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "points" not in data:
        raise EvaluationError(f"{path}: expected an object with a 'points' field")
    try:
        points = tuple((float(p[0]), float(p[1])) for p in data["points"])
    except (TypeError, ValueError, OverflowError, IndexError, KeyError) as exc:
        raise EvaluationError(f"{path}: points must be four [x, y] pairs") from exc
    return JigFrameObservation(points=points, image_tag=str(data.get("image_tag", "")))


def load_force_series(path) -> list[ForceSample]:
    """Read a force series CSV with header fx,fy,fz[,t]."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise EvaluationError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(lines)
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise EvaluationError(f"{path}: empty force CSV") from None
    if header[:3] != ["fx", "fy", "fz"] or len(header) > 4 or \
            (len(header) == 4 and header[3] != "t"):
        raise EvaluationError(f"{path}: expected header fx,fy,fz[,t], got {header}")
    with_time = len(header) == 4
    samples = []
    for lineno, row in enumerate(reader, 2):
        if not row:
            continue
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise EvaluationError(f"{path}:{lineno}: bad number in {row}") from exc
        if len(values) != len(header):
            raise EvaluationError(f"{path}:{lineno}: expected {len(header)} columns")
        samples.append(ForceSample(
            fx=values[0], fy=values[1], fz=values[2],
            timestamp=values[3] if with_time else None,
        ))
    if not samples:
        raise EvaluationError(f"{path}: no samples in force CSV")
    return samples
