"""arcgen: constant-valency arc-transitive graph families whose symmetry
groups need unboundedly many generators, verified exactly at desk scale.
"""

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .field_linalg import FpMatrix, FpSubspace, rref
from .graph_builder import Graph, build_family_graph, export_graph
from .group_algebra import (
    AbelianH,
    build_e_basis,
    gamma_chain,
    min_generators_local,
    outer_action,
    section_dims,
)
from .harness import BoundReport, VTInstance, bound_report, load_instance
from .perm_group import (
    Perm,
    PermGroup,
    exponent,
    frattini_decomposition_check,
    frattini_rank,
    is_automorphism,
    is_vertex_transitive,
    local_action,
)
from .pipeline import (
    Bundle,
    ClaimReport,
    ConstructionParams,
    build_bundle,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianH",
    "BoundReport",
    "Bundle",
    "Caps",
    "CapExceeded",
    "ClaimReport",
    "ConstructionParams",
    "DEFAULT_CAPS",
    "FpMatrix",
    "FpSubspace",
    "Graph",
    "Perm",
    "PermGroup",
    "VTInstance",
    "bound_report",
    "build_bundle",
    "build_e_basis",
    "build_family_graph",
    "exponent",
    "export_graph",
    "frattini_decomposition_check",
    "frattini_rank",
    "gamma_chain",
    "is_automorphism",
    "is_vertex_transitive",
    "load_instance",
    "local_action",
    "min_generators_local",
    "outer_action",
    "rref",
    "section_dims",
    "verify_theorem1",
]
