"""softjig: parts-fixing planning and evaluation for universal soft jigs.

Given triangle-mesh models of assembly parts in their assembled poses and
an assembly order, the planner decides which (sub)assembly to fix on the
jig and in which posture at every step. The evaluation half scores fixing
trials from force-plate series and before/after marker observations.

The names below are imported from their modules on first use, so that
importing one submodule, such as ``softjig.cli``, loads only what it needs.
"""

import importlib

_EXPORTS = {
    "evaluation": ("DisplacementResult", "ForceSample", "JigFrameObservation",
                   "displacement_report", "frame_distance", "jig_frame", "peak_forces",
                   "resolve_forces"),
    "fixtures": ("cube_stack_assembly", "generate_proxy_fixture", "peg_assembly",
                 "proxy_assembly"),
    "mesh": ("TriangleMesh", "load_mesh", "save_obj", "save_stl_ascii", "save_stl_binary"),
    "parts": ("AssemblyModel", "PartModel", "RigidOrientation", "mass_properties"),
    "planner": ("AssemblySequence", "FixingPlan", "FixingStep", "bottom_part",
                "candidate_orientations", "cog_height", "configure_fixing_parts",
                "select_posture"),
    "queries": ("intersects", "min_distance", "within_distance"),
    "relations": ("DIRECTION_ORDER", "Direction", "ReachableDirectionList", "RelationMatrices",
                  "compute_all_interference_free", "compute_contact_matrix",
                  "compute_reachable_matrix", "compute_relation_matrices", "merge_entity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
