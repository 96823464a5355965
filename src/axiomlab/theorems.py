"""Harnesses that mechanically verify the engine's equivalence claims.

The claims, stated in the engine's own terms:

* **Thm1a / Thm1b** -- a lottery rule satisfying probabilistic monotonicity
  (plus ex-post non-wastefulness when total capacity exceeds the number of
  agents; nothing extra when capacity equals it) is ex-post pairwise
  efficient if and only if it is ex-post Pareto efficient.
* **Cor2 / Thm3** -- the deterministic counterpart with Maskin monotonicity,
  on the general and the null-bottom domain respectively.
* **Prop1** -- group strategy-proofness, pairwise strategy-proofness,
  strategy-proofness plus non-bossiness, and Maskin monotonicity coincide
  for deterministic rules.

Each harness verifies the hypotheses *before* looking at the conclusion and
refuses to claim anything when they fail.  The proof replays re-execute the
constructive arguments behind Thm1 and Thm3 on concrete inputs, asserting
every intermediate claim by brute force.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial

from .axioms import DETERMINISTIC_ONLY, EX_POST_KINDS, Axiom, check_axiom
from .errors import AxiomNotApplicable, BoundsError, PreconditionViolated
from .matchings import (
    blocking_pair,
    is_non_wasteful,
    matching_verdict,
    pareto_dominates,
    reduce_to_single_cycle,
)
from .model import GENERAL, NULL_BOTTOM, Instance, Matching, enumerate_matchings, object_usage
from .preferences import (
    CommonRanking,
    Profile,
    appendix_transform_sequence,
    common_object_ranking,
    common_rank_rearrange,
    enumerate_profiles,
    in_domain,
    is_monotonic_transformation,
    prefers,
    push_to_top,
    single_trade_cycle,
)
from .rules import (
    Lottery,
    RuleDescriptor,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    evaluate,
    is_lottery_rule,
    rule_label,
)


@dataclass(frozen=True)
class AgentPartition:
    """Split of the agents induced by a dominated matching and its improver.

    ``cycle_agents`` lists the trading cycle in proof order (agent ``s``
    receives the old allotment of agent ``s-1``), ``fixed_real`` keep the
    same real object, ``null_agents`` hold the null object on both sides,
    and ``kappa`` is the count of agents holding real objects.
    """

    cycle_agents: tuple[int, ...]
    fixed_real: frozenset[int]
    null_agents: frozenset[int]
    kappa: int


def partition_agents(inst: Instance, matching: Matching, improved: Matching) -> AgentPartition:
    """Partition agents into cycle / fixed-real / null groups."""
    null = inst.null_object
    movers, fixed_real, null_agents = [], set(), set()
    for i in range(inst.n):
        if matching[i] == improved[i]:
            if matching[i] == null:
                null_agents.add(i)
            else:
                fixed_real.add(i)
        else:
            if matching[i] == null or improved[i] == null:
                raise PreconditionViolated(
                    f"agent {i} moves between the null object and a real object"
                )
            movers.append(i)
    cycle = single_trade_cycle(matching, improved)
    assert sorted(cycle) == movers
    return AgentPartition(
        cycle_agents=cycle,
        fixed_real=frozenset(fixed_real),
        null_agents=frozenset(null_agents),
        kappa=len(cycle) + len(fixed_real),
    )


@dataclass
class TheoremVerdict:
    """Result of one theorem harness run.

    ``conclusion_verified`` is None when the hypotheses failed, in which case
    no claim about the conclusion is made.  ``timings`` holds per-check wall
    times; it is not part of ``to_dict`` so reports stay byte-comparable.
    """

    theorem: str
    rule: str
    hypotheses_verified: list[dict]
    conclusion_verified: bool | None
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.conclusion_verified is True

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "rule": self.rule,
            "hypotheses_verified": self.hypotheses_verified,
            "conclusion_verified": self.conclusion_verified,
            "witness": self.witness,
            "details": self.details,
        }


def _theorem_label(inst: Instance, rule: RuleDescriptor) -> str:
    if is_lottery_rule(rule):
        return "Thm1a" if inst.total_capacity > inst.n else "Thm1b"
    if inst.domain == NULL_BOTTOM:
        return "Thm3"
    return "Cor2"


def _checker(inst: Instance, rule: RuleDescriptor, workers: int):
    """``check_axiom`` on one outcome table of the rule, reported under the rule's own label.

    The rule is evaluated here, once, unless it is a table already.  A
    deterministic table is viewed as weight-1 lotteries once, on the first
    lottery axiom, so the lottery checks read that view in place.
    """
    table = rule
    if not isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
        tabulate = TabulatedLotteryRule if is_lottery_rule(rule) else TabulatedDeterministicRule
        table = tabulate({p: evaluate(inst, rule, p) for p in enumerate_profiles(inst)})
    label = rule_label(rule)

    @cache
    def lottery_view():
        return TabulatedLotteryRule({p: Lottery.point(m) for p, m in table.table.items()})

    def check(axiom):
        as_lottery = axiom not in DETERMINISTIC_ONLY and not is_lottery_rule(table)
        view = lottery_view() if as_lottery else table
        return replace(check_axiom(inst, view, axiom, workers=workers), rule=label)

    return check


def verify_theorem1(
    inst: Instance, rule: RuleDescriptor, *, workers: int = 1
) -> TheoremVerdict:
    """Check the pairwise/Pareto equivalence claim for one rule.

    Hypotheses first: probabilistic monotonicity (Maskin monotonicity for
    deterministic rules), plus ex-post non-wastefulness when total capacity
    exceeds the number of agents.  Only if they all pass does the harness
    read the conclusion: the rule is ex-post pairwise efficient iff it is
    ex-post Pareto efficient, i.e. the two ex-post checks agree.  When they
    disagree the witness is the failing check's.  The rule is evaluated once
    into an outcome table that every check reads.
    """
    label = _theorem_label(inst, rule)
    slack = inst.total_capacity > inst.n
    hypothesis_axioms = [
        Axiom.PROB_MONOTONIC if is_lottery_rule(rule) else Axiom.MASKIN_MONOTONIC
    ]
    if slack:
        hypothesis_axioms.append(Axiom.EX_POST_NON_WASTEFUL)
    check = _checker(inst, rule, workers)
    hypothesis_reports = [check(axiom) for axiom in hypothesis_axioms]
    hypotheses = [r.to_dict() for r in hypothesis_reports]
    timings = {f"hypothesis_{r.axiom}": round(r.wall_time, 6) for r in hypothesis_reports}
    details = {
        "capacity_case": "slack" if slack else "tight",
        "domain": inst.domain,
    }
    if inst.domain == NULL_BOTTOM and is_lottery_rule(rule):
        details["note"] = "lottery rules on the null-bottom domain are outside the proven claims"
    failed = next((r for r in hypothesis_reports if not r.passed), None)
    if failed is not None:
        details["status"] = "hypotheses not met"
        return TheoremVerdict(
            label, rule_label(rule), hypotheses, None, failed.witness, details, timings
        )

    pairwise, pareto = check(Axiom.EX_POST_PAIRWISE), check(Axiom.EX_POST_PARETO)
    details["ex_post_pairwise"] = pairwise.passed
    details["ex_post_pareto"] = pareto.passed
    details["profiles_checked"] = max(pairwise.profiles_checked, pareto.profiles_checked)
    timings["conclusion_scan"] = round(pairwise.wall_time + pareto.wall_time, 6)
    verified = pairwise.passed == pareto.passed
    witness = None if verified else (pareto if pairwise.passed else pairwise).witness
    return TheoremVerdict(label, rule_label(rule), hypotheses, verified, witness, details, timings)


def _timed(timings: dict[str, float], key: str, thunk):
    """Run ``thunk``, record its wall time under ``key``, return its value."""
    started = time.perf_counter()
    value = thunk()
    timings[key] = round(time.perf_counter() - started, 6)
    return value


def _theorem1_replay_core(
    inst: Instance,
    profile: Profile,
    matching: Matching,
    improved: Matching,
    ranking: CommonRanking | None = None,
) -> dict:
    if not pareto_dominates(improved, matching, profile):
        raise PreconditionViolated("improved matching does not Pareto-dominate the original")
    ranking = ranking if ranking is not None else common_object_ranking(inst)
    timings: dict[str, float] = {}
    timed = partial(_timed, timings)

    pushed = push_to_top(inst, profile, improved)
    rearranged = common_rank_rearrange(inst, pushed, improved, ranking)
    push_monotonic = timed(
        "push_is_monotonic_at_original",
        lambda: is_monotonic_transformation(profile, pushed, matching),
    )
    mutual = timed(
        "rearranged_mutually_monotonic_at_improved",
        lambda: is_monotonic_transformation(pushed, rearranged, improved)
        and is_monotonic_transformation(rearranged, pushed, improved),
    )
    universe = enumerate_matchings(inst)
    survivors = timed(
        "survivor_scan",
        lambda: [
            m
            for m in universe
            if blocking_pair(m, rearranged) is None and is_non_wasteful(inst, m, rearranged)
        ],
    )
    target_usage = object_usage(inst, improved)
    counts_match = all(object_usage(inst, m) == target_usage for m in survivors)
    unique = survivors == [improved]
    assertions = {
        "push_is_monotonic_at_original": push_monotonic,
        "rearranged_mutually_monotonic_at_improved": mutual,
        "survivor_object_counts_match_improved": counts_match,
        "unique_survivor_is_improved": unique,
    }
    return {
        "replay": "Thm1",
        "assertions": assertions,
        "passed": all(assertions.values()),
        "pushed_profile": pushed,
        "rearranged_profile": rearranged,
        "survivors": survivors,
        "matchings_scanned": len(universe),
        "timings": timings,
    }


def replay_theorem1_proof(
    inst: Instance,
    profile: Profile,
    matching: Matching,
    improved: Matching,
    ranking: CommonRanking | None = None,
) -> dict:
    """Replay the unrestricted-domain uniqueness argument on concrete inputs.

    Builds the push-to-top profile and its common-ranking rearrangement, then
    brute-forces four claims: the push is a monotonic transformation at the
    original matching; push and rearrangement are mutually monotonic at the
    improved matching; every pairwise-efficient non-wasteful matching at the
    rearranged profile assigns each object exactly as the improved matching
    does; and the improved matching is the only such survivor.
    """
    if inst.domain != GENERAL:
        raise PreconditionViolated("the unrestricted replay runs on the general domain")
    return _theorem1_replay_core(inst, profile, matching, improved, ranking)


def replay_theorem3_proof(
    inst: Instance, profile: Profile, matching: Matching, improved: Matching
) -> dict:
    """Replay the null-bottom stepwise argument on concrete inputs.

    Reduces the improvement to a single shortest trading cycle (re-profiling
    agents on other cycles by pushing their current allotment on top), runs
    the stepwise profile sequence, and asserts: the reduction and each
    prescribed stage relation hold, every stage profile stays in the
    null-bottom domain, every non-wasteful matching at every stage assigns
    objects exactly as the improved matching does, and the final profile
    makes the first and last cycle agents a blocking swap at the original
    matching.

    When no agent holds the null object the unrestricted argument applies
    unchanged; the report then carries ``degenerate = True`` and embeds the
    unrestricted replay.
    """
    if inst.domain != NULL_BOTTOM:
        raise PreconditionViolated("the stepwise replay runs on the null-bottom domain")
    if not pareto_dominates(improved, matching, profile):
        raise PreconditionViolated("improved matching does not Pareto-dominate the original")
    if not is_non_wasteful(inst, matching, profile):
        raise PreconditionViolated("original matching is wasteful")

    null = inst.null_object
    if not any(matching[i] == null == improved[i] for i in range(inst.n)):
        core = _theorem1_replay_core(inst, profile, matching, improved)
        return {
            "replay": "Thm3",
            "degenerate": True,
            "delegated": core,
            "passed": core["passed"],
        }

    reduced_profile, reduced_improved, _ = reduce_to_single_cycle(
        inst, profile, matching, improved
    )
    cycle = single_trade_cycle(matching, reduced_improved)  # raises on 2-cycles
    partition = partition_agents(inst, matching, reduced_improved)
    sequence = appendix_transform_sequence(inst, reduced_profile, matching, reduced_improved)
    timings: dict[str, float] = {}
    timed = partial(_timed, timings)

    reduction_monotonic = timed(
        "reduction_is_monotonic_at_original",
        lambda: is_monotonic_transformation(profile, reduced_profile, matching),
    )
    stage_domain_ok = timed(
        "stages_stay_in_domain", lambda: all(in_domain(inst, prof) for prof in sequence)
    )

    def check_stage_relations():
        ok = is_monotonic_transformation(
            reduced_profile, sequence[0], matching
        ) and is_monotonic_transformation(sequence[0], sequence[1], matching)
        for step, (before, after) in enumerate(zip(sequence[1:], sequence[2:]), start=2):
            changed = [i for i in range(inst.n) if before[i] != after[i]]
            ok &= changed == [cycle[step]]
        return ok

    stage_relations = timed("stage_relations_hold", check_stage_relations)

    universe = enumerate_matchings(inst)
    target_usage = object_usage(inst, reduced_improved)
    counts_ok = timed(
        "stage_object_counts_match_improved",
        lambda: all(
            object_usage(inst, m) == target_usage
            for prof in sequence
            for m in universe
            if is_non_wasteful(inst, m, prof)
        ),
    )

    final = sequence[-1]
    first, last = cycle[0], cycle[-1]
    swap_blocks = prefers(final[first], matching[last], matching[first]) and prefers(
        final[last], matching[first], matching[last]
    )
    assertions = {
        "reduction_is_monotonic_at_original": reduction_monotonic,
        "stage_relations_hold": stage_relations,
        "stages_stay_in_domain": stage_domain_ok,
        "stage_object_counts_match_improved": counts_ok,
        "final_profile_has_blocking_swap": swap_blocks,
    }
    return {
        "replay": "Thm3",
        "degenerate": False,
        "assertions": assertions,
        "passed": all(assertions.values()),
        "partition": {
            "cycle_agents": list(partition.cycle_agents),
            "fixed_real": sorted(partition.fixed_real),
            "null_agents": sorted(partition.null_agents),
            "kappa": partition.kappa,
        },
        "sequence_length": len(sequence),
        "sequence": sequence,
        "blocking_swap": {
            "agents": [first, last],
            "cycle_positions": [1, len(cycle)],
            "objects": [matching[first], matching[last]],
        },
        "timings": timings,
    }


def verify_proposition1(
    inst: Instance, rule: RuleDescriptor, *, workers: int = 1
) -> TheoremVerdict:
    """Check that the four incentive properties agree for a deterministic rule.

    Computes group strategy-proofness, pairwise strategy-proofness,
    strategy-proofness with non-bossiness, and Maskin monotonicity, and
    verifies all four booleans coincide.
    """
    if is_lottery_rule(rule):
        raise AxiomNotApplicable("the four-way equivalence is about deterministic rules")
    check = _checker(inst, rule, workers)
    reports = {
        axiom: check(axiom)
        for axiom in (
            Axiom.GROUP_STRATEGY_PROOF,
            Axiom.PAIRWISE_STRATEGY_PROOF,
            Axiom.STRATEGY_PROOF,
            Axiom.NON_BOSSY,
            Axiom.MASKIN_MONOTONIC,
        )
    }
    properties = {
        "group_strategy_proof": reports[Axiom.GROUP_STRATEGY_PROOF].passed,
        "pairwise_strategy_proof": reports[Axiom.PAIRWISE_STRATEGY_PROOF].passed,
        "strategy_proof_and_non_bossy": reports[Axiom.STRATEGY_PROOF].passed
        and reports[Axiom.NON_BOSSY].passed,
        "maskin_monotonic": reports[Axiom.MASKIN_MONOTONIC].passed,
    }
    agreed = len(set(properties.values())) == 1
    witness = None if agreed else {"kind": "mixed_verdict", "properties": properties}
    return TheoremVerdict(
        theorem="Prop1",
        rule=rule_label(rule),
        hypotheses_verified=[r.to_dict() for r in reports.values()],
        conclusion_verified=agreed,
        witness=witness,
        details={"properties": properties, "all_hold": agreed and all(properties.values())},
        timings={r.axiom: round(r.wall_time, 6) for r in reports.values()},
    )


@dataclass
class SearchResult:
    """Outcome of a counterexample search.

    ``budget_exhausted`` means "none found within budget"; it never claims
    impossibility.
    """

    status: str
    rule: RuleDescriptor | None
    witness: dict | None
    candidates_tried: int
    required: list[str]
    violated: str

    @property
    def found(self) -> bool:
        return self.status == "found"


def search_counterexample(
    inst: Instance,
    required: list[Axiom],
    violated: Axiom,
    budget: int,
    seed: int = 0,
    rule_space: str = "deterministic",
) -> SearchResult:
    """Search tabulated rules satisfying ``required`` but violating ``violated``.

    Candidates are built per profile from the matchings allowed by the
    ex-post requirements, biased toward matchings that break the violated
    axiom; one greedy candidate is tried first, then seeded random ones.
    Every candidate is screened by the full checkers, so a returned rule has
    already been independently re-verified.  ``budget`` bounds the number of
    candidates tried; a budget below 1 is a BoundsError.
    """
    if budget < 1:
        raise BoundsError(f"a budget of {budget} tries no candidate")
    required = [Axiom(a) for a in required]
    violated = Axiom(violated)
    rng = random.Random(seed)
    profiles = list(enumerate_profiles(inst))
    universe = enumerate_matchings(inst)

    keep_kinds = [EX_POST_KINDS[a] for a in required if a in EX_POST_KINDS]
    break_kind = EX_POST_KINDS.get(violated)

    allowed: dict[Profile, list[Matching]] = {}
    breakers: dict[Profile, list[Matching]] = {}
    for profile in profiles:
        pool = [
            m
            for m in universe
            if all(matching_verdict(inst, m, profile, k) is None for k in keep_kinds)
        ]
        allowed[profile] = pool
        if break_kind is not None:
            breakers[profile] = [
                m for m in pool if matching_verdict(inst, m, profile, break_kind)
            ]

    def greedy_choice(profile):
        if breakers.get(profile):
            return breakers[profile][0]
        return allowed[profile][0]

    def random_choice(profile):
        pool = breakers[profile] if breakers.get(profile) and rng.random() < 0.75 else allowed[profile]
        return pool[rng.randrange(len(pool))]

    def make_candidate(attempt: int) -> RuleDescriptor:
        pick = greedy_choice if attempt == 0 else random_choice
        if rule_space == "deterministic":
            return TabulatedDeterministicRule({p: pick(p) for p in profiles})
        table = {}
        for p in profiles:
            first = pick(p)
            extra = allowed[p][rng.randrange(len(allowed[p]))] if attempt else allowed[p][0]
            support = {first, extra}
            table[p] = Lottery({m: 1 for m in support}, len(support))
        return TabulatedLotteryRule(table)

    tried = 0
    while tried < budget:
        candidate = make_candidate(tried)
        tried += 1
        violated_report = check_axiom(inst, candidate, violated)
        if violated_report.passed:
            continue
        if all(check_axiom(inst, candidate, a).passed for a in required):
            return SearchResult(
                status="found",
                rule=candidate,
                witness=violated_report.witness,
                candidates_tried=tried,
                required=[a.value for a in required],
                violated=violated.value,
            )
    return SearchResult(
        status="budget_exhausted",
        rule=None,
        witness=None,
        candidates_tried=tried,
        required=[a.value for a in required],
        violated=violated.value,
    )
