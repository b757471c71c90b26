"""The paper's core contribution: (1-1) p-homomorphism matching.

Decision procedures, the four approximation algorithms (compMaxCard,
compMaxCard^{1-1}, compMaxSim, compMaxSim^{1-1}), the naive product-graph
algorithms, exact optimum solvers, quality metrics, validity checking, the
Appendix-B optimizations, and the high-level :func:`match` facade.

The paper's algorithm names are exported as aliases (``compMaxCard`` etc.)
next to the PEP 8 ones.
"""

from repro.core.backends import PythonIntBackend, SolverBackend, get_backend
from repro.core.phom import PHomResult, Violation, check_phom_mapping, validate_threshold
from repro.core.quality import MatchQuality, match_quality, qual_card, qual_sim
from repro.core.workspace import MatchingWorkspace
from repro.core.engine import comp_max_card_engine, greedy_match
from repro.core.comp_max_card import comp_max_card, comp_max_card_injective
from repro.core.comp_max_sim import (
    comp_max_sim,
    comp_max_sim_injective,
    partition_pairs_by_weight,
)
from repro.core.decision import find_phom_mapping, is_phom, is_phom_injective
from repro.core.product import (
    mapping_to_pairs,
    pairs_to_mapping,
    product_graph,
    wis_instance,
)
from repro.core.naive import (
    naive_comp_max_card,
    naive_comp_max_card_injective,
    naive_comp_max_sim,
    naive_comp_max_sim_injective,
)
from repro.core.exact import exact_comp_max_card, exact_comp_max_sim
from repro.core.optimize import (
    CompressedDataGraph,
    comp_max_card_compressed,
    comp_max_card_partitioned,
    compress_data_graph,
    pattern_components,
    plan_components,
    solve_component,
)
from repro.core.incremental import DeltaEvent, DeltaLog
from repro.core.prepared import PreparedDataGraph, prepare_data_graph
from repro.core.store import PreparedIndexStore, StoreEntry
from repro.core.api import (
    MatchReport,
    closure_pattern,
    match,
    match_prepared,
    update_graph,
)
from repro.core.service import (
    MatchSession,
    MatchingService,
    PreparedGraphCache,
    ServiceStats,
    default_service,
    match_many,
    reset_default_service,
)
from repro.core.sharding import (
    ShardPlan,
    ShardedMatchingService,
    default_sharded_service,
    reset_default_sharded_services,
)
from repro.core.aio import AsyncMatchingService
from repro.core.bounded import (
    bounded_workspace,
    comp_max_card_bounded,
    is_phom_bounded,
)
from repro.core.witness import EdgeWitness, format_witnesses, mapping_witnesses

# Paper-spelling aliases.
compMaxCard = comp_max_card
compMaxCard_1_1 = comp_max_card_injective
compMaxSim = comp_max_sim
compMaxSim_1_1 = comp_max_sim_injective

__all__ = [
    "SolverBackend",
    "PythonIntBackend",
    "get_backend",
    "PHomResult",
    "Violation",
    "check_phom_mapping",
    "validate_threshold",
    "MatchQuality",
    "match_quality",
    "qual_card",
    "qual_sim",
    "MatchingWorkspace",
    "comp_max_card_engine",
    "greedy_match",
    "comp_max_card",
    "comp_max_card_injective",
    "comp_max_sim",
    "comp_max_sim_injective",
    "partition_pairs_by_weight",
    "find_phom_mapping",
    "is_phom",
    "is_phom_injective",
    "mapping_to_pairs",
    "pairs_to_mapping",
    "product_graph",
    "wis_instance",
    "naive_comp_max_card",
    "naive_comp_max_card_injective",
    "naive_comp_max_sim",
    "naive_comp_max_sim_injective",
    "exact_comp_max_card",
    "exact_comp_max_sim",
    "CompressedDataGraph",
    "comp_max_card_compressed",
    "comp_max_card_partitioned",
    "compress_data_graph",
    "pattern_components",
    "plan_components",
    "solve_component",
    "ShardPlan",
    "ShardedMatchingService",
    "default_sharded_service",
    "reset_default_sharded_services",
    "AsyncMatchingService",
    "MatchReport",
    "closure_pattern",
    "match",
    "match_prepared",
    "update_graph",
    "DeltaEvent",
    "DeltaLog",
    "PreparedDataGraph",
    "prepare_data_graph",
    "PreparedIndexStore",
    "StoreEntry",
    "MatchSession",
    "MatchingService",
    "PreparedGraphCache",
    "ServiceStats",
    "default_service",
    "reset_default_service",
    "match_many",
    "bounded_workspace",
    "comp_max_card_bounded",
    "is_phom_bounded",
    "EdgeWitness",
    "format_witnesses",
    "mapping_witnesses",
    "compMaxCard",
    "compMaxCard_1_1",
    "compMaxSim",
    "compMaxSim_1_1",
]
