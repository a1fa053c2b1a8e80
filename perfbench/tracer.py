"""Outside-in span recorder for one softjig CLI call, and its summary.

Run from a checkout root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/tracer.py SPANS.json plan DESCRIPTOR --sequence a,b --out plan.json

It imports ``softjig.cli``, wraps every function in ``TRACED`` under each
name that binds it in a loaded ``softjig`` module (``planner.merge_entity``
is the same object as ``relations.merge_entity``), calls
``softjig.cli.main`` with the remaining arguments, writes the spans to
SPANS.json and exits with main's return code. Spans stay in memory until
then. Stdlib only; the wrappers never touch arguments or results, so
outputs are unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (module, function) pairs at the layer boundaries the benchmark reports
TRACED = (
    ("descriptors", "load_descriptor"),
    ("mesh", "load_mesh"),
    ("relations", "compute_contact_matrix"),
    ("queries", "min_distance"),
    ("queries", "triangle_pair_distance_sq"),
    ("queries", "intersects"),
    ("relations", "compute_all_interference_free"),
    ("relations", "sweep_translation_is_free"),
    ("queries", "proper_crossings"),
    ("queries", "winding_fraction"),
    ("queries", "surface_probe_points"),
    ("planner", "configure_fixing_parts"),
    ("planner", "select_posture"),
    ("planner", "cog_height"),
    ("parts", "mass_properties"),
    ("relations", "merge_entity"),
    ("jsonio", "write_json_atomic"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
NARROW_PHASE = ("queries.proper_crossings", "queries.winding_fraction")


def _contact_work(args, result):
    n = len(result)
    return [n * (n - 1) // 2, int(result.sum()) // 2]   # pairs, touching pairs


# per-span work counts, taken from arguments and results after the span ends
WORK = {
    "mesh.load_mesh": lambda args, result: len(result.triangles),
    "relations.compute_contact_matrix": _contact_work,
    "queries.triangle_pair_distance_sq": lambda args, result: len(args[0]),
    "queries.proper_crossings": lambda args, result: len(args[0]),
    "queries.winding_fraction": lambda args, result: len(args[0]) * len(args[1]),
    "relations.sweep_translation_is_free": lambda args, result: int(bool(result)),
    "jsonio.write_json_atomic": lambda args, result: os.path.getsize(args[1]),
}


class Recorder:
    """Spans as [name index, parent span or -1, start, end, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, index: int, fn):
        work = WORK.get(NAMES[index])
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, open_[-1] if open_ else -1, 0.0, 0.0, None]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function under every softjig name bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "softjig" or name.startswith("softjig."))]
        for index, (module, function) in enumerate(TRACED):
            original = getattr(sys.modules[f"softjig.{module}"], function)
            wrapper = self.wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def add_work(a, b):
    return [x + y for x, y in zip(a, b)] if isinstance(a, list) else a + b


def summarize(spans) -> dict:
    """Per traced function: calls, inclusive s, self s and summed work;
    plus the time of top-level spans and the sweep outcomes.

    Inclusive time skips spans nested inside a span of the same function,
    so no interval is counted twice.
    """
    per = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": None} for name in NAMES}
    child_s = [0.0] * len(spans)
    narrow_child = [False] * len(spans)
    for name_i, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
            if NAMES[name_i] in NARROW_PHASE:
                narrow_child[parent] = True
    top_s = 0.0
    sweeps_free = sweeps_culled = 0
    for i, (name_i, parent, t0, t1, work) in enumerate(spans):
        name = NAMES[name_i]
        entry = per[name]
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_s[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_i:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["s"] += t1 - t0
        if parent < 0:
            top_s += t1 - t0
        if work is not None:
            entry["work"] = work if entry["work"] is None else add_work(entry["work"], work)
        if name == "relations.sweep_translation_is_free":
            sweeps_free += work or 0
            sweeps_culled += not narrow_child[i]
    return {"functions": per, "top_level_s": top_s,
            "sweeps_free": sweeps_free, "sweeps_culled": sweeps_culled}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import softjig.cli

    recorder = Recorder()
    recorder.install()
    try:
        return softjig.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"names": NAMES, "spans": recorder.spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
