#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written as a BENCH file.

Run from anywhere inside a checkout::

    python3 scripts/bench_pairs.py --parent HEAD~1 --label my_change \\
        --seeds 11-21 --claim dense_pair:op_s.p50

The change side is this checkout's working tree. The parent side is the
committed tree of ``--parent``, exported with ``git archive`` into a
temporary directory and removed at the end; the repository itself is not
touched. Each seed is one pair per workload: both sides run
``perfbench/run.py --trace 0`` with that seed and ``BENCHMARK.json``'s
``run_seconds``, one process at a time, and the side that runs first flips
every pair. The result is ``BENCH_<label>.json`` at the root of the
checkout, in the schema of the other BENCH files: per workload the seeds,
each side's median and quartiles of every end-to-end metric of
``BENCHMARK.json``, the pairs the change won, and every run. Its
``change`` and ``notes`` are left empty, to be written in by hand.

``--claim WORKLOAD:METRIC`` records whether that metric improved: the
change must win at least 9 of every 10 pairs, the medians must differ by
more than the parent's quartile spread, every change run must be correct,
and the change must fail no larger share of its ops than the parent.

With a claim or without, ``regression`` records per workload and
end-to-end metric whether the change got worse by more than the metric's
relative ``bound`` in ``BENCHMARK.json``: ``worse`` when the change's median
is past the parent's by more than the bound, ``unresolved`` when the
parent's quartile spread is wider than the bound (unless every change run
beats every parent run), and ``ok`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0"
METHOD = ("alternating parent/change pairs (order flips every pair), same seed and run "
          "length on both sides; quartiles by statistics.quantiles(n=4, method='inclusive') "
          "over each side's runs; a pair is won when the change's value is better")


def parse_seeds(text: str) -> list[int]:
    """``"11-13,20"`` -> ``[11, 12, 13, 20]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> Path:
    """The committed files of ``rev`` in a new temporary directory."""
    directory = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)
    return directory


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` process: its last line, plus the host
    record from the line that starts with ``record``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{SECONDS:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record "):]) for line in lines if line.startswith("record "))
    return {"result": result, "record": record}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def won(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def bench_workload(workload: str, seeds: list[int],
                   checkouts: dict[str, Path]) -> tuple[dict, dict]:
    metrics = [(m["name"], m["better"]) for m in BENCHMARK["end_to_end"]]
    runs, host = [], {}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(checkouts[side], workload, seed)
            host = out["record"]
            result = out["result"]
            runs.append({"side": side, "seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{name: round(result["metrics"][name]["value"], 4)
                            for name, _ in metrics}})
            print(f"{workload} seed {seed} {side}: "
                  + " ".join(f"{name} {runs[-1][name]}" for name, _ in metrics), flush=True)
    entry = {"seeds": seeds, "pairs": len(seeds)}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        entry[side] = {name: summary([r[name] for r in mine]) for name, _ in metrics}
        entry[side].update(correct=all(r["correct"] for r in mine),
                           failed_ops=sum(r["failed"] for r in mine),
                           attempted_ops=sum(r["attempted"] for r in mine))
    by_pair = {(r["seed"], r["side"]): r for r in runs}
    entry["pairs_won_by_change"] = {
        name: sum(won(by_pair[seed, "change"][name], by_pair[seed, "parent"][name], better)
                  for seed in seeds)
        for name, better in metrics}
    entry["runs"] = [{key: r[key] for key in ("side", "seed", *(n for n, _ in metrics))}
                     for r in runs]
    return entry, host


def regression(entry: dict, metric: dict) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one end-to-end ``metric`` of
    ``BENCHMARK.json`` on one workload ``entry``; the bound is relative to
    the parent's median."""
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    parent, change = entry["parent"][name], entry["change"][name]
    runs = {side: [r[name] for r in entry["runs"] if r["side"] == side]
            for side in ("parent", "change")}
    if lower:
        beats_all = max(runs["change"]) < min(runs["parent"])
        worse = change["median"] > parent["median"] * (1 + bound)
    else:
        beats_all = min(runs["change"]) > max(runs["parent"])
        worse = change["median"] < parent["median"] * (1 - bound)
    if beats_all:
        return "ok"
    if parent["q3"] - parent["q1"] > bound * abs(parent["median"]):
        return "unresolved"
    return "worse" if worse else "ok"


def regression_block(workloads: dict) -> dict:
    """:func:`regression` of every workload and end-to-end metric."""
    return {workload: {m["name"]: regression(entry, m) for m in BENCHMARK["end_to_end"]}
            for workload, entry in workloads.items()}


def claim_block(claim: str, workloads: dict, seeds: list[int]) -> dict | str:
    if not claim:
        return "none: no end-to-end metric may get worse by more than its bound"
    workload, metric = claim.split(":")
    entry = workloads[workload]
    parent, change = entry["parent"][metric], entry["change"][metric]
    sound = (entry["change"]["correct"]
             and entry["change"]["failed_ops"] * entry["parent"]["attempted_ops"]
             <= entry["parent"]["failed_ops"] * entry["change"]["attempted_ops"])
    wins, pairs = entry["pairs_won_by_change"][metric], entry["pairs"]
    spread = round(parent["q3"] - parent["q1"], 4)
    unit, better = next((m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
                        if m["name"] == metric)
    return {"workload": workload, "metric": metric, "unit": unit,
            "pairs_won": f"{wins} of {pairs}",
            "median_parent": parent["median"], "median_change": change["median"],
            "parent_iqr": spread,
            "met": (sound and 10 * wins >= 9 * pairs
                    and won(change["median"], parent["median"], better)
                    and abs(change["median"] - parent["median"]) > spread),
            "fresh_seeds": seeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]],
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="one pair per seed, e.g. 11-21 or 3,5,8 (default 1-10)")
    parser.add_argument("--claim", default="", help="WORKLOAD:METRIC claimed to improve")
    args = parser.parse_args(argv)

    parent_rev = git("rev-parse", "--short", args.parent)
    parent = export(parent_rev)
    try:
        checkouts = {"parent": parent, "change": ROOT}
        workloads, host = {}, {}
        for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
            workloads[workload], host = bench_workload(workload, args.seeds, checkouts)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    bench = {
        "label": args.label,
        "change": "",
        "parent": parent_rev,
        "command": COMMAND,
        "run_seconds": SECONDS,
        "host": {key: host.get(key) for key in ("nproc", "python", "numpy", "blas")},
        "method": METHOD,
        "claim": claim_block(args.claim, workloads, args.seeds),
        "regression": regression_block(workloads),
        "workloads": workloads,
        "notes": [],
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
