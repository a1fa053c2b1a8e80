"""Command-line front end.

Subcommands::

    softjig fixtures  --out-dir DIR            write proxy meshes + descriptor
    softjig plan      [DESCRIPTOR] --sequence a,b,c [--out plan.json]
    softjig matrices  [DESCRIPTOR] [--out matrices.json]
    softjig evaluate  BEFORE.json AFTER.json --jig-width-px W [--force-csv F]

Exit codes: 0 success / complete plan / success classification; 2 partial
plan or failure classification; 1 any input or usage error. Output files
are written atomically, so an error exit never leaves a partial file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .descriptors import DescriptorError, descriptor_dict, load_descriptor
from .jsonio import write_json_atomic
from .mesh import MeshError, save_stl_binary
from .parts import AssemblyModel, PartError
from .planner import AssemblySequence, PlannerError, configure_fixing_parts
from .relations import RelationError, SweepParams, compute_relation_matrices

_INPUT_ERROR = 1
_PARTIAL_OR_FAILURE = 2


class _CliError(Exception):
    """Input error mapped to exit code 1 with a message on stderr."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softjig",
        description="Plan parts-fixing configurations on a universal soft jig "
                    "and evaluate fixing performance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_assembly_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("descriptor", nargs="?", help="assembly descriptor JSON")
        p.add_argument("--fixtures", choices=["proxy"],
                       help="use a built-in fixture assembly instead of a descriptor")
        p.add_argument("--epsilon-mm", type=float, default=None,
                       help="contact tolerance override in mm")
        p.add_argument("--steps", type=int, default=None,
                       help="sweep step count override (>= 16)")

    p_plan = sub.add_parser("plan", help="plan fixed parts and postures for an assembly order")
    add_assembly_source(p_plan)
    p_plan.add_argument("--sequence", required=True,
                        help="comma-separated entity ids in assembly order")
    p_plan.add_argument("--out", help="write the plan JSON here")

    p_mat = sub.add_parser("matrices", help="compute contact/interference/reachable matrices")
    add_assembly_source(p_mat)
    p_mat.add_argument("--out", help="write the matrices JSON here")

    p_eval = sub.add_parser("evaluate", help="classify a fixing trial from marker observations")
    p_eval.add_argument("before", help="marker observation JSON before the push")
    p_eval.add_argument("after", help="marker observation JSON after the push")
    p_eval.add_argument("--force-csv", help="optional force series CSV (fx,fy,fz[,t])")
    p_eval.add_argument("--jig-width-px", type=float, default=None,
                        help="jig width in image pixels (required)")
    p_eval.add_argument("--jig-width-mm", type=float, default=160.0)
    p_eval.add_argument("--push-mm", type=float, default=70.0)
    p_eval.add_argument("--ratio", type=float, default=0.9,
                        help="success threshold as a fraction of the push distance")
    p_eval.add_argument("--out", help="write the report JSON here")

    p_fix = sub.add_parser("fixtures", help="write the proxy fixture meshes and descriptor")
    p_fix.add_argument("--out-dir", required=True, help="output directory")
    return parser


def _load_assembly(args) -> tuple[AssemblyModel, SweepParams]:
    if (args.descriptor is None) == (args.fixtures is None):
        raise _CliError("give exactly one assembly source: a descriptor path or --fixtures proxy")
    if args.fixtures:
        from .fixtures import proxy_assembly
        assembly, params = proxy_assembly(), SweepParams()
    else:
        assembly, params = load_descriptor(args.descriptor)
    if args.epsilon_mm is not None:
        assembly = AssemblyModel(assembly.parts, contact_epsilon=args.epsilon_mm)
    if args.steps is not None:
        params = SweepParams(step_count=args.steps)
    return assembly, params


def _cmd_plan(args) -> int:
    assembly, params = _load_assembly(args)
    sequence = AssemblySequence.parse(args.sequence)
    plan = configure_fixing_parts(assembly, sequence, params)

    print(f"{'step':>4}  {'posture':>7}  fixed part")
    for step in plan.steps:
        print(f"{step.step_index:>4}  {step.posture_label.value:>7}  {step.fixed_part}")
    if not plan.complete:
        print(f"halted: {plan.halt_reason}", file=sys.stderr)
    if args.out:
        write_json_atomic(plan.to_json_dict(), args.out)
    return 0 if plan.complete else _PARTIAL_OR_FAILURE


def _cmd_matrices(args) -> int:
    assembly, params = _load_assembly(args)
    matrices = compute_relation_matrices(assembly, params)
    if args.out:
        write_json_atomic(matrices.to_json_dict(), args.out)
    else:
        ids = ", ".join(matrices.entity_ids)
        print(f"entities: {ids}")
        print(f"contact pairs: {int(matrices.contact.sum()) // 2}")
    return 0


def _cmd_evaluate(args) -> int:
    # imported here, so that plan and matrices never load the evaluation toolkit
    from .evaluation import (EvaluationError, displacement_report, load_force_series,
                             load_observation, peak_forces)
    if args.jig_width_px is None:
        raise _CliError("--jig-width-px is required (the known jig width in image pixels)")
    try:
        before = load_observation(args.before)
        after = load_observation(args.after)
        result = displacement_report(
            before, after,
            jig_width_px=args.jig_width_px,
            jig_width_mm=args.jig_width_mm,
            push_mm=args.push_mm,
            success_ratio=args.ratio,
        )
        report = result.to_json_dict()
        if args.force_csv:
            series = load_force_series(args.force_csv)
            peak_normal, peak_shear = peak_forces(series)
            report["peak_normal_force_n"] = peak_normal
            report["peak_shear_force_n"] = peak_shear
        label = "success" if result.success else "failure"
        print(f"{label}: jig moved {result.centroid_translation_mm:.3f} mm "
              f"(threshold {args.ratio * args.push_mm:.3f} mm)")
        if args.out:
            write_json_atomic(report, args.out)
        return 0 if result.success else _PARTIAL_OR_FAILURE
    except EvaluationError as exc:
        raise _CliError(str(exc)) from None


def _cmd_fixtures(args) -> int:
    from .fixtures import proxy_assembly
    out_dir = Path(args.out_dir)
    parts = proxy_assembly().parts
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for part in parts:
            save_stl_binary(part.mesh, out_dir / f"{part.id}.stl")
        write_json_atomic(descriptor_dict(parts), out_dir / "assembly.json")
    except OSError as exc:
        print(f"softjig: cannot write fixtures: {exc}", file=sys.stderr)
        return _INPUT_ERROR
    print(f"wrote {len(parts)} meshes + assembly.json to {out_dir}")
    return 0


_HANDLERS = {
    "plan": _cmd_plan,
    "matrices": _cmd_matrices,
    "evaluate": _cmd_evaluate,
    "fixtures": _cmd_fixtures,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; everything else is a usage error
        return 0 if exc.code == 0 else _INPUT_ERROR
    try:
        return _HANDLERS[args.command](args)
    except (_CliError, DescriptorError, MeshError, PartError, PlannerError, RelationError,
            OSError) as exc:
        print(f"softjig: {exc}", file=sys.stderr)
        return _INPUT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
