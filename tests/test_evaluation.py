import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjig.evaluation import (
    EvaluationError,
    ForceSample,
    JigFrameObservation,
    displacement_report,
    frame_distance,
    jig_frame,
    load_force_series,
    load_observation,
    peak_forces,
    resolve_forces,
)

SQUARE = ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))


def square_obs(cx=0.0, cy=0.0, scale=1.0, tag="obs"):
    return JigFrameObservation(
        points=tuple((cx + scale * x, cy + scale * y) for x, y in SQUARE),
        image_tag=tag,
    )


# -- force resolution ---------------------------------------------------------

def test_pure_normal_load():
    assert resolve_forces(ForceSample(0, 0, -5)) == (5.0, 0.0)


def test_three_four_five_shear_exact():
    assert resolve_forces(ForceSample(3, 4, 0)) == (0.0, 5.0)


def test_unit_components():
    normal, shear = resolve_forces(ForceSample(1, 1, 1))
    assert normal == 1.0
    assert shear == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_non_finite_sample_rejected():
    with pytest.raises(EvaluationError):
        ForceSample(float("nan"), 0, 0)
    with pytest.raises(EvaluationError):
        ForceSample(0, float("inf"), 0)


@given(
    fx=st.floats(-100, 100, allow_nan=False),
    fy=st.floats(-100, 100, allow_nan=False),
    fz=st.floats(-100, 100, allow_nan=False),
    angle=st.floats(0, 2 * math.pi, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_shear_rotation_invariance_and_normal_evenness(fx, fy, fz, angle):
    base_n, base_s = resolve_forces(ForceSample(fx, fy, fz))
    c, s = math.cos(angle), math.sin(angle)
    rot_n, rot_s = resolve_forces(ForceSample(c * fx - s * fy, s * fx + c * fy, fz))
    assert abs(rot_s - base_s) < 1e-12
    assert rot_n == base_n
    flipped_n, _ = resolve_forces(ForceSample(fx, fy, -fz))
    assert flipped_n == base_n


# -- peaks --------------------------------------------------------------------

def test_constant_series_peaks():
    series = [ForceSample(3, 4, -10)] * 5
    assert peak_forces(series) == (10.0, 5.0)


def test_two_peak_series_takes_larger():
    placement = [ForceSample(0.5, 0, -8, t * 0.1) for t in range(3)]
    push = [ForceSample(6, 8, -20, 1 + t * 0.1) for t in range(3)]
    quiet = [ForceSample(0, 0, -1, 2.0)]
    assert peak_forces(placement + quiet + push) == (20.0, 10.0)


def test_single_peak_series():
    series = [ForceSample(1, 0, -5), ForceSample(2, 0, -9), ForceSample(0.5, 0, -2)]
    assert peak_forces(series) == (9.0, 2.0)


def test_empty_series_rejected():
    with pytest.raises(EvaluationError):
        peak_forces([])


# -- jig frames ---------------------------------------------------------------

def test_square_markers_give_unit_axes():
    x_axis, y_axis, centroid = jig_frame(square_obs())
    assert np.array_equal(centroid, [0.0, 0.0])
    assert np.array_equal(x_axis, [1.0, 0.0])
    assert np.array_equal(y_axis, [0.0, 1.0])


def test_translation_moves_centroid_not_axes():
    x0, y0, c0 = jig_frame(square_obs())
    x1, y1, c1 = jig_frame(square_obs(cx=10, cy=20))
    assert np.allclose(c1 - c0, [10, 20])
    assert np.array_equal(x0, x1) and np.array_equal(y0, y1)


def test_rotation_rotates_axes():
    rotated = JigFrameObservation(
        points=tuple((-y, x) for x, y in SQUARE), image_tag="r90")
    x_axis, y_axis, _ = jig_frame(rotated)
    assert np.allclose(x_axis, [0.0, 1.0])
    assert np.allclose(y_axis, [-1.0, 0.0])


def test_coincident_markers_rejected():
    with pytest.raises(EvaluationError):
        JigFrameObservation(points=((0, 0), (0, 0), (1, 1), (2, 2)))


def test_marker_on_centroid_rejected():
    # distinct points, but the first one lands on the centroid: zero y axis
    obs = JigFrameObservation(points=((1.0, 1.0), (3.0, 1.0), (1.0, 3.0), (-1.0, -1.0)))
    with pytest.raises(EvaluationError):
        jig_frame(obs)


# -- frame distance -----------------------------------------------------------

def test_identical_observations_zero_distance():
    assert frame_distance(square_obs(), square_obs()) == 0.0


def test_half_turn_distance_two_root_two():
    after = JigFrameObservation(points=tuple((-x, -y) for x, y in SQUARE))
    d = frame_distance(square_obs(), after)
    assert abs(d - 2.0 * math.sqrt(2.0)) < 1e-12


def test_translation_leaves_frame_distance_unchanged():
    before = square_obs()
    after = square_obs(cx=123.4, cy=-56.7)
    assert frame_distance(before, after) < 1e-12


def test_frame_distance_symmetric():
    a = square_obs()
    b = JigFrameObservation(points=tuple((x * 1.5, y * 0.5) for x, y in SQUARE))
    assert frame_distance(a, b) == frame_distance(b, a)


@given(dx=st.floats(-500, 500, allow_nan=False), dy=st.floats(-500, 500, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_common_translation_invariance(dx, dy):
    before = square_obs(cx=7, cy=-3, scale=20)
    after = square_obs(cx=7 + 5, cy=-3 - 2, scale=20)
    d0 = frame_distance(before, after)
    d1 = frame_distance(square_obs(cx=7 + dx, cy=-3 + dy, scale=20),
                        square_obs(cx=12 + dx, cy=-5 + dy, scale=20))
    assert abs(d0 - d1) < 1e-9


# -- displacement classification -----------------------------------------------

def report_for_push(px: float, jig_width_px: float = 320.0):
    return displacement_report(square_obs(scale=50), square_obs(cx=px, scale=50),
                               jig_width_px=jig_width_px)


def test_mean_success_displacement():
    result = report_for_push(156.4)
    assert result.mm_per_px == 0.5
    assert result.centroid_translation_mm == 78.2
    assert result.success


def test_mean_failure_displacement():
    result = report_for_push(108.4)
    assert result.centroid_translation_mm == 54.2
    assert not result.success


def test_threshold_boundary_inclusive():
    result = report_for_push(126.0)
    assert result.centroid_translation_mm == 63.0
    assert result.success  # 63.0 == 0.9 * 70 exactly, boundary counts


def test_just_below_threshold_fails():
    assert not report_for_push(125.9).success


def test_mm_conversion_is_linear():
    narrow = report_for_push(100.0, jig_width_px=320.0)
    wide = report_for_push(100.0, jig_width_px=640.0)
    assert narrow.centroid_translation_mm == 2.0 * wide.centroid_translation_mm


@given(px=st.floats(0, 400, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_success_monotone_in_displacement(px):
    smaller = report_for_push(px)
    larger = report_for_push(px + 10.0)
    assert larger.centroid_translation_mm >= smaller.centroid_translation_mm
    assert (not smaller.success) or larger.success


def test_nonpositive_width_rejected():
    with pytest.raises(EvaluationError):
        report_for_push(100.0, jig_width_px=0.0)


@pytest.mark.parametrize("name", ["jig_width_px", "jig_width_mm", "push_mm", "success_ratio"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_or_non_finite_numbers_rejected(name, value):
    numbers = {"jig_width_px": 320.0, name: value}
    with pytest.raises(EvaluationError, match=f"^{name} must be positive and finite"):
        displacement_report(square_obs(0.0, 0.0), square_obs(100.0, 0.0), **numbers)


# -- file formats ---------------------------------------------------------------

def test_observation_round_trip(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"image_tag": "before", "points": [[0, 1], [1, 0], [0, -1], [-1, 0]]}))
    obs = load_observation(path)
    assert obs.image_tag == "before"
    assert obs.points == SQUARE


def test_observation_bad_json(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text("{not json")
    with pytest.raises(EvaluationError):
        load_observation(path)


def test_observation_malformed_points(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"points": [[1], [2, 3], [4, 5], [6, 7]]}))
    with pytest.raises(EvaluationError):
        load_observation(path)
    path.write_text(json.dumps({"points": [["x", "y"]] * 4}))
    with pytest.raises(EvaluationError):
        load_observation(path)


def test_observation_coordinate_beyond_float_range(tmp_path):
    """A marker coordinate written as an integer too large for a float is
    refused with an error that names the file, not an OverflowError."""
    path = tmp_path / "obs.json"
    huge = int("9" * 400)
    path.write_text(json.dumps({"points": [[huge, 0], [1, 0], [0, -1], [-1, 0]]}))
    with pytest.raises(EvaluationError, match="obs.json"):
        load_observation(path)


def test_force_csv_with_and_without_time(tmp_path):
    timed = tmp_path / "timed.csv"
    timed.write_text("fx,fy,fz,t\n1,2,-3,0.0\n4,5,-6,0.1\n")
    series = load_force_series(timed)
    assert len(series) == 2 and series[1].timestamp == 0.1
    plain = tmp_path / "plain.csv"
    plain.write_text("fx,fy,fz\n1,2,-3\n")
    assert load_force_series(plain)[0].timestamp is None


def test_force_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2,3\n")
    with pytest.raises(EvaluationError):
        load_force_series(path)


def test_force_csv_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("fx,fy,fz\n1,two,3\n")
    with pytest.raises(EvaluationError):
        load_force_series(path)
