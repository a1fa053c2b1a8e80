"""softjig: parts-fixing planning and evaluation for universal soft jigs.

Given triangle-mesh models of assembly parts in their assembled poses and
an assembly order, the planner decides which (sub)assembly to fix on the
jig and in which posture at every step. The evaluation half scores fixing
trials from force-plate series and before/after marker observations.
"""

from .evaluation import (
    DisplacementResult,
    ForceSample,
    JigFrameObservation,
    displacement_report,
    frame_distance,
    jig_frame,
    peak_forces,
    resolve_forces,
)
from .fixtures import cube_stack_assembly, generate_proxy_fixture, peg_assembly, proxy_assembly
from .mesh import TriangleMesh, load_mesh, save_obj, save_stl_ascii, save_stl_binary
from .parts import AssemblyModel, PartModel, RigidOrientation, mass_properties
from .planner import (
    AssemblySequence,
    FixingPlan,
    FixingStep,
    bottom_part,
    candidate_orientations,
    cog_height,
    configure_fixing_parts,
    select_posture,
)
from .queries import intersects, min_distance, within_distance
from .relations import (
    DIRECTION_ORDER,
    Direction,
    ReachableDirectionList,
    RelationMatrices,
    SweepParams,
    compute_all_interference_free,
    compute_contact_matrix,
    compute_reachable_matrix,
    compute_relation_matrices,
    merge_entity,
    reachable_direction_list,
)

__all__ = [
    "AssemblyModel",
    "AssemblySequence",
    "DIRECTION_ORDER",
    "Direction",
    "DisplacementResult",
    "FixingPlan",
    "FixingStep",
    "ForceSample",
    "JigFrameObservation",
    "PartModel",
    "ReachableDirectionList",
    "RelationMatrices",
    "RigidOrientation",
    "SweepParams",
    "TriangleMesh",
    "bottom_part",
    "candidate_orientations",
    "cog_height",
    "compute_all_interference_free",
    "compute_contact_matrix",
    "compute_reachable_matrix",
    "compute_relation_matrices",
    "configure_fixing_parts",
    "cube_stack_assembly",
    "displacement_report",
    "frame_distance",
    "generate_proxy_fixture",
    "intersects",
    "jig_frame",
    "load_mesh",
    "mass_properties",
    "merge_entity",
    "min_distance",
    "peak_forces",
    "peg_assembly",
    "proxy_assembly",
    "reachable_direction_list",
    "resolve_forces",
    "save_obj",
    "save_stl_ascii",
    "save_stl_binary",
    "select_posture",
    "within_distance",
]

__version__ = "0.1.0"
