"""flowsentry: fault-tolerant max-flow and min-cut sensitivity oracles
for unit-capacity directed multigraphs."""

from .bruteforce import brute_force
from .errors import (
    EnumerationBudgetExceeded,
    InternalInvariantError,
    ParseError,
    QueryError,
)
from .family import BuiltFamily, FlowFamily, build_flow_family
from .flows import (
    IntFlow,
    UnitFlow,
    max_flow,
)
from .generators import FAMILIES, generate
from .graph import (
    DirectedMultigraph,
    FlowNetwork,
    PrunedEdgeSet,
    parse_network,
    prune_to_st_paths,
    serialize_network,
)
from .kfault import (
    KFaultOracle,
    build_kfault_oracle,
    mincut_partition_k,
    mincut_size_k,
    reachable_under_failures,
)
from .mincut import (
    CutPartition,
    build_mincut_oracle,
    crossing_edges,
)
from .oracles import FlowDiff, SensitivityOracle
from .verify import VerificationReport, run_verify

__all__ = [
    "BuiltFamily",
    "CutPartition",
    "DirectedMultigraph",
    "EnumerationBudgetExceeded",
    "FAMILIES",
    "FlowDiff",
    "FlowFamily",
    "FlowNetwork",
    "IntFlow",
    "InternalInvariantError",
    "KFaultOracle",
    "ParseError",
    "PrunedEdgeSet",
    "QueryError",
    "SensitivityOracle",
    "UnitFlow",
    "VerificationReport",
    "brute_force",
    "build_flow_family",
    "build_kfault_oracle",
    "build_mincut_oracle",
    "crossing_edges",
    "generate",
    "max_flow",
    "mincut_partition_k",
    "mincut_size_k",
    "parse_network",
    "prune_to_st_paths",
    "reachable_under_failures",
    "run_verify",
    "serialize_network",
]
