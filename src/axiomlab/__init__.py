"""axiomlab: an exact combinatorial engine for object allocation rules.

Everything is exhaustive and exact at desk scale: profile domains are
enumerated completely, lottery weights are rational numbers, and every axiom
verdict carries a reproducible witness.
"""

from .axioms import Axiom, CheckReport, check_axiom, check_individual_rationality
from .errors import (
    AxiomLabError,
    AxiomNotApplicable,
    BoundsError,
    CapacityShortfall,
    DomainViolation,
    EmptyInstance,
    FormatError,
    InvalidInstance,
    NullObjectMissing,
    PreconditionViolated,
    SizeOverflow,
    TableMiss,
)
from .matchings import (
    ImprovementCycle,
    apply_cycle,
    blocking_pair,
    find_dominating,
    find_improvement_cycle,
    is_non_wasteful,
    is_pairwise_efficient,
    is_pareto_efficient,
    matching_verdict,
    pareto_dominates,
    reduce_to_single_cycle,
    trade_cycles,
)
from .model import (
    GENERAL,
    NULL_BOTTOM,
    Instance,
    count_matchings,
    enumerate_matchings,
    is_feasible,
    validate_instance,
)
from .preferences import (
    appendix_transform_sequence,
    common_rank_rearrange,
    count_profiles,
    enumerate_profiles,
    is_monotonic_transformation,
    lower_contour,
    push_to_top,
)
from .rules import (
    Lottery,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TopTradingCyclesRule,
    bossy_flip_rule,
    evaluate,
    evaluate_lottery,
    random_serial_dictatorship,
    serial_dictatorship,
    top_trading_cycles,
)
from .theorems import (
    AgentPartition,
    SearchResult,
    TheoremVerdict,
    partition_agents,
    replay_theorem1_proof,
    replay_theorem3_proof,
    search_counterexample,
    verify_proposition1,
    verify_theorem1,
)

__version__ = "0.1.0"
