"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

The oracles and the trace summary are checked on small hand cases. The
end-to-end tests run every workload briefly on the default seed and on
one other seed, which takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
OPPOSITE = {"+x": "-x", "-x": "+x", "+y": "-y", "-y": "+y", "+z": "-z", "-z": "+z"}


def mirror_holds(free, n):
    """The program's identity: k leaves i along d iff i leaves k along -d."""
    return all(free[d][i][k] == free[OPPOSITE[d]][k][i]
               for d in wl.DIRECTIONS for i in range(n) for k in range(n))


def test_box_oracle_two_stacked_boxes():
    boxes = [((0.0, 0.0, 0.0), (4.0, 4.0, 2.0), 1.0), ((1.0, 1.0, 2.0), (3.0, 3.0, 5.0), 1.0)]
    contact, free = wl.box_oracle(boxes)
    assert contact == [[False, True], [True, False]]
    # the upper box leaves the lower one along everything but -z
    assert [free[d][0][1] for d in wl.DIRECTIONS] == [True, True, True, True, True, False]
    assert [free[d][1][0] for d in wl.DIRECTIONS] == [True, True, True, True, False, True]


def test_box_oracle_blocks_a_box_buried_under_an_overhang():
    # the top box overhangs the bottom one and cannot drop past it
    boxes = [((0.0, 0.0, 0.0), (2.0, 2.0, 1.0), 1.0), ((1.0, 1.0, 5.0), (4.0, 4.0, 6.0), 1.0)]
    contact, free = wl.box_oracle(boxes)
    assert not contact[0][1]
    assert not free["-z"][0][1] and free["+z"][0][1] and free["+x"][0][1]


def test_stack_oracle_is_mirror_symmetric_and_touches_only_neighbours():
    boxes = wl.stack_boxes(3)
    contact, free = wl.box_oracle(boxes)
    n = len(boxes)
    assert all(contact[i][k] == (abs(i - k) == 1) for i in range(n) for k in range(n))
    assert mirror_holds(free, n)


def test_stack_boxes_are_exact_in_float32():
    for lo, hi, _ in wl.stack_boxes(5):
        assert all(wl.f32(v) == v for v in lo + hi)


def test_cylinder_expectation_is_mirror_symmetric():
    contact, free = wl.cylinder_expected()
    assert mirror_holds(free, 3)
    assert contact == [list(r) for r in zip(*contact)]


def test_cylinder_layout_keeps_the_side_part_clear():
    for seed in range(20):
        (_, _, _, r_low, _, h_low), (_, _, _, r_up, z_up, _), (_, cx, cy, r_side, _, h_side) = \
            wl.cylinder_layout(seed)
        gap = (cx * cx + cy * cy) ** 0.5 - r_low - r_side
        assert 1.0 <= gap <= 3.0
        assert h_side < z_up == h_low and r_up < r_low
        # side's footprint reaches into lower's bands along x and y
        assert cx - r_side < r_low - 5.0


def test_matrices_json_layout():
    text = wl.matrices_json(("a", "b"), [[0, 1], [1, 0]],
                            {d: [[0, 1], [1, 0]] for d in wl.DIRECTIONS}).decode()
    doc = json.loads(text)
    assert list(doc) == ["entity_ids", "contact", "interference_free", "reachable"]
    assert list(doc["reachable"]) == list(wl.DIRECTIONS)
    assert doc["reachable"]["+x"] == [[0, 1], [1, 0]]
    assert text.endswith("]\n  }\n}\n")


def test_summarize_self_and_inclusive_time():
    names = {n: i for i, n in enumerate(tracer.NAMES)}
    md, tp, sw, pc = (names[n] for n in (
        "queries.min_distance", "queries.triangle_pair_distance_sq",
        "relations.sweep_translation_is_free", "queries.proper_crossings"))
    spans = [
        [md, -1, 0.0, 10.0, None],
        [tp, 0, 1.0, 3.0, 5],
        [md, 0, 4.0, 6.0, None],       # nested in itself: not counted twice
        [sw, -1, 20.0, 21.0, 1],       # no narrow-phase child: culled
        [sw, -1, 30.0, 34.0, 0],
        [pc, 4, 31.0, 33.0, 7],
    ]
    s = tracer.summarize(spans)
    f = s["functions"]
    assert f["queries.min_distance"]["calls"] == 2
    assert f["queries.min_distance"]["s"] == 10.0
    assert f["queries.min_distance"]["self_s"] == (10.0 - 2.0 - 2.0) + 2.0
    assert f["queries.triangle_pair_distance_sq"]["work"] == 5
    assert s["top_level_s"] == 15.0
    assert (s["sweeps_free"], s["sweeps_culled"]) == (1, 1)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    p, v = run.tail([float(i) for i in range(40)])
    assert p == 75.0 and v == 29.0
    assert sum(x > v for x in range(40)) == 10


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)
    return proc


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_workload_runs_clean(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_pass_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    for name in ("relations.compute_contact_matrix.calls",
                 "relations.sweep_translation_is_free.calls", "queries.proper_crossings.rows",
                 "jsonio.bytes_written", "cli.startup_s"):
        assert metrics[name]["value"] > 0, name


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "proxy", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
