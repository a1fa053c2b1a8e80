#!/usr/bin/env python3
"""softjig benchmark: wall time of real CLI processes, plus a layer trace.

Run from anywhere inside a checkout::

    python3 perfbench/run.py --workload proxy --seed 0 --seconds 15 --trace 0

One client drives a closed loop: it spawns one ``softjig`` process, waits
for it to exit, checks what it wrote, and only then spawns the next, so at
most one child is alive. Each operation is timed from spawn to exit, which
includes interpreter start and imports, as a user waiting on the command
sees it. Set-up writes the workload's inputs from the seed and runs one
untimed, checked warm-up operation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation once untraced and once under ``tracer.py`` and reports per-layer
metrics per operation. The report goes to stdout; its last line is one
JSON object with the keys correct, attempted, failed and metrics. Without
the program's sources next to this directory it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Op, SetupError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0      # every run ends within 180 s, children included
SETUP_REPEATS = 3         # input generation is timed this often; setup_s takes the median
STARTUP_REPEATS = 5       # bare `import softjig.cli` children behind cli.startup_s
TAIL_BEYOND = 10          # a tail percentile needs this many samples above it

CLI = "import sys; from softjig.cli import entrypoint; sys.exit(entrypoint())"
PROBE = """\
import json, platform, numpy, softjig.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (AttributeError, KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}))
"""

# name, unit, better: the metrics of BENCHMARK.json
END_TO_END = (
    ("op_s.p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
PER_LAYER = tuple(
    [(f"{name}.{what}", unit, "lower") for name in tracer.NAMES
     for what, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [
        ("mesh.triangles_loaded", "count", "lower"),
        ("relations.contact.pairs", "count", "lower"),
        ("relations.contact.touching_ratio", "ratio", "higher"),
        ("queries.triangle_pair_distance_sq.rows", "count", "lower"),
        ("relations.sweep.free_ratio", "ratio", "higher"),
        ("relations.sweep.culled_ratio", "ratio", "higher"),
        ("queries.proper_crossings.rows", "count", "lower"),
        ("queries.winding_fraction.evals", "count", "lower"),
        ("jsonio.bytes_written", "B", "lower"),
        ("cli.startup_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
)
# what op_s.p50 is called in the report, per workload
OP_LABEL = {"plan": "plan_s", "matrices": "matrices_s"}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stderr: str


class Runner:
    """Spawns one child at a time under a shared hard deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], stdout=subprocess.DEVNULL) -> Child:
        """Run ``argv`` to completion; wall time is spawn to exit."""
        log = self.work / "stderr.log"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=stdout, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, tail[0])

    def cli(self, args: list[str]) -> int:
        return self.spawn([sys.executable, "-c", CLI, *args]).code

    def run_op(self, op: Op, spans: Path | None = None) -> Child:
        """One checked operation, traced into ``spans`` when given."""
        op.out.unlink(missing_ok=True)
        if spans is None:
            argv = [sys.executable, "-c", CLI, *op.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *op.args]
        child = self.spawn(argv)
        data = op.out.read_bytes() if op.out.exists() else b""
        problem = op.check(child.code, data)
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op.label}: {problem} {child.stderr}".strip())
        return child

    def probe(self) -> dict:
        """Versions of the toolchain, from a child that imports the program."""
        with open(self.work / "probe.json", "wb") as out:
            child = self.spawn([sys.executable, "-c", PROBE], stdout=out)
        if child.code != 0:
            raise SetupError(f"cannot import softjig.cli: {child.stderr}")
        return json.loads((self.work / "probe.json").read_text())


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, or None when that percentile would not reach the median."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def set_up(workload, runner: Runner) -> float:
    """Generate the first inputs (median of repeats) plus one warm-up op."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.generate()
        times.append(time.perf_counter() - start)
    warm = runner.run_op(workload.warmup())
    return statistics.median(times) + warm.wall_s


def measure(workload, runner: Runner, seconds: float) -> dict:
    walls, rss = [], []
    kind = None
    end = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < end:
        op = workload.op(i)
        kind = op.kind
        child = runner.run_op(op)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
        i += 1
    return {"kind": kind, "walls": walls, "peak_rss_mb": max(rss)}


def measure_traced(workload, runner: Runner, seconds: float) -> tuple[dict, int]:
    """Each op runs untraced, then traced, on the same input; whole op
    cycles repeat until ``seconds`` have passed. Returns the per-layer
    metrics and the number of traced ops behind them."""
    startup = [runner.spawn([sys.executable, "-c", "import softjig.cli"]).wall_s
               for _ in range(STARTUP_REPEATS)]
    plain, traced, summaries = [], [], []
    end = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < end:
        for _ in range(workload.cycle):
            op = workload.op(i)
            plain.append(runner.run_op(op).wall_s)
            spans = runner.work / "spans.json"
            spans.unlink(missing_ok=True)
            traced.append(runner.run_op(op, spans).wall_s)
            if spans.exists():
                summaries.append(tracer.summarize(json.loads(spans.read_text())["spans"]))
            else:
                runner.failures.append(f"{op.label}: the tracer wrote no spans")
            i += 1
    if not summaries:
        raise SetupError("no traced operation produced spans")
    return layer_metrics(summaries, plain, traced, statistics.median(startup)), len(summaries)


def layer_metrics(summaries, plain, traced, startup_s) -> dict:
    """Per-layer metrics per traced operation; ratios from the totals."""
    n = len(summaries)
    total = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in tracer.NAMES}
    work: dict[str, object] = {}
    top_s = free = culled = 0
    for summary in summaries:
        for name, entry in summary["functions"].items():
            for key in ("calls", "s", "self_s"):
                total[name][key] += entry[key]
            if entry["work"] is not None:
                work[name] = (tracer.add_work(work[name], entry["work"]) if name in work
                              else entry["work"])
        top_s += summary["top_level_s"]
        free += summary["sweeps_free"]
        culled += summary["sweeps_culled"]
    out = {}
    for name, entry in total.items():
        for key, value in entry.items():
            out[f"{name}.{key}"] = value / n
    pairs, touching = work.get("relations.compute_contact_matrix", [0, 0])
    sweeps = total["relations.sweep_translation_is_free"]["calls"]
    out.update({
        "mesh.triangles_loaded": work.get("mesh.load_mesh", 0) / n,
        "relations.contact.pairs": pairs / n,
        "relations.contact.touching_ratio": touching / pairs if pairs else 0.0,
        "queries.triangle_pair_distance_sq.rows":
            work.get("queries.triangle_pair_distance_sq", 0) / n,
        "relations.sweep.free_ratio": free / sweeps if sweeps else 0.0,
        "relations.sweep.culled_ratio": culled / sweeps if sweeps else 0.0,
        "queries.proper_crossings.rows": work.get("queries.proper_crossings", 0) / n,
        "queries.winding_fraction.evals": work.get("queries.winding_fraction", 0) / n,
        "jsonio.bytes_written": work.get("jsonio.write_json_atomic", 0) / n,
        "cli.startup_s": startup_s,
        "trace.overhead_s": (sum(traced) - sum(plain)) / n,
        "trace.unattributed_s": (sum(traced) - top_s) / n,
    })
    return out


def report(args, record: dict, setup_s: float, runner: Runner, result: dict) -> list[str]:
    lines = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
             f"seconds={args.seconds:g} nproc={runner.nproc} python={record['python']} "
             f"numpy={record['numpy']} blas={record['blas']}"]
    if args.trace:
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<48} {result[name]:.6g} {unit}")
    else:
        label = OP_LABEL[result["kind"]]
        walls = result["walls"]
        lines.append(f"  {label + '.p50':<18} {statistics.median(walls):.4f} s   "
                     f"median of {len(walls)} {result['kind']} processes (op_s.p50)")
        t = tail(walls)
        if t is None:
            lines.append(f"  {label + '.tail':<18} not reported: {len(walls)} samples, "
                         f"a tail needs {2 * TAIL_BEYOND}")
        else:
            lines.append(f"  {label + '.tail':<18} {t[1]:.4f} s   p{t[0]:.0f} of {len(walls)}")
        lines.append(f"  {'peak_rss_mb':<18} {result['peak_rss_mb']:.1f} MB")
    lines.append(f"  {'setup_s':<18} {setup_s:.4f} s   input generation (median of "
                 f"{SETUP_REPEATS}) + 1 warm-up op")
    failed = len(runner.failures)
    lines.append(f"  {'error_rate':<18} {failed / runner.attempted:.4g}     "
                 f"{failed} of {runner.attempted} ops failed (warm-up included)")
    lines.extend(f"  failed: {f}" for f in runner.failures)
    lines.append("record " + json.dumps(record, sort_keys=True))
    return lines


def run(args) -> int:
    if not (ROOT / "src" / "softjig" / "cli.py").is_file():
        raise SetupError(f"no softjig sources under {ROOT / 'src'}")
    start = time.monotonic()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner = Runner(work, start + HARD_LIMIT_S)
        versions = runner.probe()
        workload = WORKLOADS[args.workload](work, args.seed, runner.cli)
        setup_s = set_up(workload, runner)
        if args.trace:
            result, n_traced = measure_traced(workload, runner, args.seconds)
            metrics = {name: {"value": result[name], "unit": unit} for name, unit, _ in PER_LAYER}
            samples = {"ops_traced": n_traced, "cli.startup_s": STARTUP_REPEATS}
        else:
            result = measure(workload, runner, args.seconds)
            values = {"op_s.p50": statistics.median(result["walls"]),
                      "peak_rss_mb": result["peak_rss_mb"], "setup_s": setup_s}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
            samples = {"op_s.p50": len(result["walls"]), "setup_s.generation": SETUP_REPEATS}
        record = {"seed": args.seed, "nproc": runner.nproc, **versions, "samples": samples}
        print("\n".join(report(args, record, setup_s, runner, result)))
        failed = len(runner.failures)
        print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
