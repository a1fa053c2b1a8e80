"""``scripts/bench_pairs.py`` on synthetic entries: seed lists, quartile
summaries, the claim verdict and the regression check. Nothing here starts
a process."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_seeds_takes_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("11-13,20") == [11, 12, 13, 20]
    assert bench_pairs.parse_seeds("5") == [5]
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))


def test_summary_is_inclusive_quartiles_rounded():
    assert bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_pairs.summary([0.123456, 0.2]) == {
        "median": 0.1617, "q1": 0.1426, "q3": 0.1809, "n": 2}


def entry(parent: list[float], change: list[float], *, correct: bool = True,
          failed: tuple[int, int] = (0, 0), attempted: tuple[int, int] = (100, 100)) -> dict:
    """A workload entry of ``bench_workload``'s shape, ``op_s.p50`` only:
    one pair per seed, the change winning where its value is lower."""
    return {
        "pairs": len(parent),
        "parent": {"op_s.p50": bench_pairs.summary(parent), "correct": True,
                   "failed_ops": failed[0], "attempted_ops": attempted[0]},
        "change": {"op_s.p50": bench_pairs.summary(change), "correct": correct,
                   "failed_ops": failed[1], "attempted_ops": attempted[1]},
        "pairs_won_by_change": {"op_s.p50": sum(c < p for p, c in zip(parent, change))},
    }


PARENT = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.31, 0.29, 0.30, 0.31]
FASTER = [0.24, 0.25, 0.23, 0.24, 0.26, 0.24, 0.25, 0.23, 0.24, 0.25]


def claim(workload: dict) -> dict:
    return bench_pairs.claim_block("proxy:op_s.p50", {"proxy": workload}, [1, 2])


def test_claim_is_met_by_a_clear_win():
    block = claim(entry(PARENT, FASTER))
    assert block["met"] and block["pairs_won"] == "10 of 10"
    assert (block["median_parent"], block["median_change"]) == (0.3, 0.24)
    assert block["unit"] == "s" and block["fresh_seeds"] == [1, 2]


@pytest.mark.parametrize("change", [
    {"correct": False},                                     # a wrong output
    {"failed": (0, 1)},                                     # a failed op, none at the parent
    {"failed": (1, 3), "attempted": (100, 120)},            # a larger failed share
])
def test_claim_is_not_met_by_an_unsound_change(change):
    assert not claim(entry(PARENT, FASTER, **change))["met"]


def test_claim_allows_a_failed_share_no_higher_than_the_parent():
    assert claim(entry(PARENT, FASTER, failed=(2, 1), attempted=(100, 120)))["met"]


def test_claim_needs_nine_of_ten_pairs_and_a_gap_past_the_spread():
    slower_twice = FASTER[:8] + [0.32, 0.33]
    assert not claim(entry(PARENT, slower_twice))["met"]
    within_spread = [p - 0.005 for p in PARENT]
    block = claim(entry(PARENT, within_spread))
    assert block["pairs_won"] == "10 of 10" and not block["met"]


def test_no_claim_is_a_sentence():
    assert bench_pairs.claim_block("", {}, [1]).startswith("none")


def runs_entry(parent: list[float], change: list[float]) -> dict:
    """A workload entry with every end-to-end metric of ``BENCHMARK.json``
    given the same values, one run per value and side."""
    names = [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]]
    runs = ([{"side": "parent", **{n: v for n in names}} for v in parent]
            + [{"side": "change", **{n: v for n in names}} for v in change])
    return {"parent": {n: bench_pairs.summary(parent) for n in names},
            "change": {n: bench_pairs.summary(change) for n in names}, "runs": runs}


OP_S = {"name": "op_s.p50", "better": "lower", "bound": 0.24}
HIGHER = {"name": "op_s.p50", "better": "higher", "bound": 0.24}


def test_regression_is_ok_within_the_bound_and_worse_past_it():
    assert bench_pairs.regression(runs_entry(PARENT, [p * 1.2 for p in PARENT]), OP_S) == "ok"
    assert bench_pairs.regression(runs_entry(PARENT, [p * 1.3 for p in PARENT]), OP_S) == "worse"
    assert bench_pairs.regression(runs_entry(PARENT, FASTER), OP_S) == "ok"


def test_regression_follows_the_metric_direction():
    assert bench_pairs.regression(runs_entry(PARENT, [p * 0.7 for p in PARENT]),
                                  HIGHER) == "worse"
    assert bench_pairs.regression(runs_entry(PARENT, [p * 1.3 for p in PARENT]), HIGHER) == "ok"


def test_regression_is_unresolved_when_the_parent_spreads_past_the_bound():
    """A parent whose quartiles are further apart than the bound cannot
    show a regression either way, unless every change run beats every
    parent run."""
    wide = [0.2, 0.3, 0.4, 0.2, 0.3, 0.4, 0.2, 0.3, 0.4, 0.3]
    assert bench_pairs.regression(runs_entry(wide, wide), OP_S) == "unresolved"
    assert bench_pairs.regression(runs_entry(wide, [0.19] * 10), OP_S) == "ok"
    assert bench_pairs.regression(runs_entry(wide, [0.5] * 10), OP_S) == "unresolved"


def test_regression_block_covers_every_workload_and_end_to_end_metric():
    block = bench_pairs.regression_block({"proxy": runs_entry(PARENT, PARENT),
                                          "box_stack": runs_entry(PARENT, [0.5] * 10)})
    names = {m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]}
    assert set(block) == {"proxy", "box_stack"}
    assert set(block["proxy"]) == set(block["box_stack"]) == names
    assert set(block["proxy"].values()) == {"ok"}
    assert set(block["box_stack"].values()) == {"worse"}
