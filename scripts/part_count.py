#!/usr/bin/env python3
"""In-process contact and sweep times and call counts on box stacks.

Run from a checkout root::

    PYTHONPATH=src python3 scripts/part_count.py --parts 16,64,128,256 --runs 3

For ``cube_stack_assembly(5, n)`` at each part count n it prints one row:
the least of ``--runs`` wall times of ``compute_contact_matrix`` and of
``compute_all_interference_free``, each run on a freshly built assembly so
that no per-mesh cache is warm, and the calls that one such pair of calls
makes to ``within_distance``, ``sweep_translation_is_free`` and the
penetration kernel ``penetrates_along``, counted as names of
``softjig.relations`` in a separate, untimed run. numpy and the standard
library only.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from softjig import cube_stack_assembly, relations

COUNTED = ("within_distance", "sweep_translation_is_free", "penetrates_along")


def least_times(parts: int, runs: int) -> tuple[float, float]:
    """Least contact and sweep wall times over ``runs`` fresh assemblies."""
    contact = sweeps = float("inf")
    for _ in range(runs):
        assembly = cube_stack_assembly(5, parts)
        start = perf_counter()
        relations.compute_contact_matrix(assembly)
        middle = perf_counter()
        relations.compute_all_interference_free(assembly)
        end = perf_counter()
        contact, sweeps = min(contact, middle - start), min(sweeps, end - middle)
    return contact, sweeps


def call_counts(parts: int) -> dict[str, int]:
    """Calls of each ``COUNTED`` name of ``softjig.relations`` made by one
    contact matrix and one set of interference-free matrices."""
    counts = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(relations, name) for name in COUNTED}

    def counted(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    try:
        for name in COUNTED:
            setattr(relations, name, counted(name))
        assembly = cube_stack_assembly(5, parts)
        relations.compute_contact_matrix(assembly)
        relations.compute_all_interference_free(assembly)
    finally:
        for name, fn in originals.items():
            setattr(relations, name, fn)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parts", default="16,64,128,256",
                        help="comma-separated part counts (default: 16,64,128,256)")
    parser.add_argument("--runs", type=int, default=3, help="timed runs per part count")
    args = parser.parse_args(argv)
    print("parts  contact_s  sweeps_s  " + "  ".join(COUNTED))
    for parts in (int(p) for p in args.parts.split(",")):
        contact, sweeps = least_times(parts, args.runs)
        counts = call_counts(parts)
        print(f"{parts:5d}  {contact:9.4f}  {sweeps:8.4f}  "
              + "  ".join(f"{counts[name]:{len(name)}d}" for name in COUNTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
