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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import partial

from .axioms import (
    DETERMINISTIC_ONLY,
    EX_POST_KINDS,
    Axiom,
    Outcomes,
    check_axiom,
    require_applicable,
    require_workers,
)
from .errors import AxiomNotApplicable, BoundsError, PreconditionViolated
from .matchings import matching_verdict, pareto_dominates, reduce_to_single_cycle
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
    sort_agents,
    sorted_profiles,
)
from .rules import (
    Lottery,
    RuleDescriptor,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
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
    times and ``stats`` each check's ``CheckReport.stats``, keyed by axiom;
    neither is part of ``to_dict``, so reports stay byte-comparable.
    """

    theorem: str
    rule: str
    hypotheses_verified: list[dict]
    conclusion_verified: bool | None
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict, compare=False)
    stats: dict = field(default_factory=dict, compare=False)

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
    """``check_axiom`` on one ``Outcomes`` of the rule per kind, shared by every check.

    The worker count is checked first.  The rule is evaluated inside the
    timed checks, and each table's totality and anonymity are settled once.
    """
    require_workers(workers)
    tables = {}

    def check(axiom):
        lottery = axiom not in DETERMINISTIC_ONLY
        if lottery not in tables:
            tables[lottery] = Outcomes(inst, rule, lottery)
        return check_axiom(inst, tables[lottery], axiom, workers=workers)

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
    disagree the witness is the failing check's.  The checks share one
    ``Outcomes`` of the rule per kind (``_checker``).
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
    stats = {r.axiom: r.stats() for r in hypothesis_reports}
    failed = next((r for r in hypothesis_reports if not r.passed), None)
    if failed is not None:
        details["status"] = "hypotheses not met"
        return TheoremVerdict(
            label, rule_label(rule), hypotheses, None, failed.witness, details, timings, stats
        )

    pairwise, pareto = check(Axiom.EX_POST_PAIRWISE), check(Axiom.EX_POST_PARETO)
    stats.update({r.axiom: r.stats() for r in (pairwise, pareto)})
    details["ex_post_pairwise"] = pairwise.passed
    details["ex_post_pareto"] = pareto.passed
    details["profiles_checked"] = max(pairwise.profiles_checked, pareto.profiles_checked)
    timings["conclusion_scan"] = round(pairwise.wall_time + pareto.wall_time, 6)
    verified = pairwise.passed == pareto.passed
    witness = None if verified else (pareto if pairwise.passed else pairwise).witness
    return TheoremVerdict(
        label, rule_label(rule), hypotheses, verified, witness, details, timings, stats
    )


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
            if matching_verdict(inst, m, rearranged, "pairwise") is None
            and matching_verdict(inst, m, rearranged, "non-wasteful") is None
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
    if matching_verdict(inst, matching, profile, "non-wasteful") is not None:
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
            if matching_verdict(inst, m, prof, "non-wasteful") is None
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
        stats={r.axiom: r.stats() for r in reports.values()},
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


#: The kinds of tabulated rule ``search_counterexample`` draws candidates from.
RULE_SPACES = ("deterministic", "lottery")


class _DrawnLotteries(Mapping):
    """A lottery candidate's read-only table: the matchings drawn for each profile.

    A profile's uniform lottery over its drawn matchings is built the first
    time the profile is read, and that same object is returned on every later
    read.  Membership, length and iteration read the draws and build nothing.
    """

    def __init__(self, draws: dict[Profile, tuple[Matching, Matching]]):
        self._draws = draws
        self._built: dict[Profile, Lottery] = {}

    def __getitem__(self, profile: Profile) -> Lottery:
        lottery = self._built.get(profile)
        if lottery is None:
            support = dict.fromkeys(self._draws[profile], 1)
            lottery = self._built[profile] = Lottery(support, len(support))
        return lottery

    def __contains__(self, profile) -> bool:
        return profile in self._draws

    def __len__(self) -> int:
        return len(self._draws)

    def __iter__(self) -> Iterator[Profile]:
        return iter(self._draws)


def _prescreen(
    inst: Instance, profiles: list[Profile], keep_kinds: list[str], break_kind: str | None
) -> tuple[dict[Profile, list[Matching]], dict[Profile, list[Matching]]]:
    """Per profile, the matchings meeting every kept kind, and those breaking ``break_kind``.

    Both lists are in ``enumerate_matchings`` order, the breakers are a
    subset of the allowed matchings, and without ``break_kind`` there are no
    breakers.  The efficiency notions are
    equivariant under agent relabelling: m meets one at P iff sigma m meets it
    at sigma P.  So the verdicts are taken on the sorted profiles only, and
    every other profile gets its sorted profile's lists relabelled back to its
    agents (``preferences.sort_agents``) and sorted again.  Swapping two
    agents with equal preferences fixes the sorted profile and so its lists;
    the tie-break of the sort cannot matter.  Each relabelled matching is the
    ``enumerate_matchings`` tuple itself.
    """
    universe = enumerate_matchings(inst)
    canon = {m: m for m in universe}
    screened = {}
    for _, profile in sorted_profiles(inst):
        pool = [
            m
            for m in universe
            if all(matching_verdict(inst, m, profile, k) is None for k in keep_kinds)
        ]
        broken = [m for m in pool if break_kind and matching_verdict(inst, m, profile, break_kind)]
        screened[profile] = pool, broken

    def relabelled(matchings, relabel):
        return sorted(canon[relabel(m)] for m in matchings)

    allowed: dict[Profile, list[Matching]] = {}
    breakers: dict[Profile, list[Matching]] = {}
    for profile in profiles:
        sorted_profile, relabel = sort_agents(profile)
        pool, broken = screened[sorted_profile]
        if relabel is not None:
            pool, broken = relabelled(pool, relabel), relabelled(broken, relabel)
        allowed[profile] = pool
        if break_kind is not None:
            breakers[profile] = broken
    return allowed, breakers


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
    axiom; one greedy candidate is tried first, then seeded random ones.  A
    lottery candidate is the uniform lottery over two matchings drawn per
    profile.  Every draw is made when the candidate is made, in profile
    order, so a seed always yields the same candidates; each profile's
    ``Lottery`` is built only when a check first reads it, since the checks
    of an early-failing candidate read few profiles.  The allowed and
    breaking matchings are screened on the sorted profiles only and
    relabelled onto the others (``_prescreen``).

    Each candidate is checked against the required axioms the draws do not
    enforce (those outside ``EX_POST_KINDS``), in the order given, then the
    violated axiom, then the required ex-post axioms, stopping at the first
    decisive result.  A candidate is accepted iff the violated axiom fails
    and every required axiom passes, and no check draws from the rng, so the
    order decides only how much is checked, never the result.  The required
    axioms no draw enforces are the ones a candidate can fail, and a failing
    scan stops at its first violation, while the violated axiom's scan may
    walk much of the domain before it meets a drawn breaker.
    Every candidate is screened by the full checkers, so a returned rule has
    already been independently re-verified.  ``budget`` bounds the number of
    candidates tried; a budget below 1 is a BoundsError, and a
    ``rule_space`` outside ``RULE_SPACES`` a PreconditionViolated.  An axiom
    that no candidate can be checked against (a deterministic-only axiom in
    the lottery space, or individual rationality, which needs an endowment)
    raises AxiomNotApplicable before any candidate is built.
    """
    if budget < 1:
        raise BoundsError(f"a budget of {budget} tries no candidate")
    if rule_space not in RULE_SPACES:
        raise PreconditionViolated(f"unknown rule space {rule_space!r}, not in {RULE_SPACES}")
    required = [Axiom(a) for a in required]
    violated = Axiom(violated)
    for axiom in (violated, *required):
        require_applicable(inst, axiom, rule_space == "lottery")
    rng = random.Random(seed)
    profiles = list(enumerate_profiles(inst))
    allowed, breakers = _prescreen(
        inst,
        profiles,
        [EX_POST_KINDS[a] for a in required if a in EX_POST_KINDS],
        EX_POST_KINDS.get(violated),
    )

    def greedy_choice(profile):
        if breakers.get(profile):
            return breakers[profile][0]
        return allowed[profile][0]

    def random_choice(profile):
        pool = breakers[profile] if breakers.get(profile) and rng.random() < 0.75 else allowed[profile]
        return rng.choice(pool)

    def make_candidate(attempt: int) -> RuleDescriptor:
        pick = greedy_choice if attempt == 0 else random_choice
        if rule_space == "deterministic":
            return TabulatedDeterministicRule({p: pick(p) for p in profiles})
        draws = {}
        for p in profiles:
            first = pick(p)
            extra = rng.choice(allowed[p]) if attempt else allowed[p][0]
            draws[p] = first, extra
        return TabulatedLotteryRule(_DrawnLotteries(draws))

    unenforced = [a for a in required if a not in EX_POST_KINDS]
    enforced = [a for a in required if a in EX_POST_KINDS]
    tried = 0
    while tried < budget:
        candidate = make_candidate(tried)
        tried += 1
        check = _checker(inst, candidate, 1)
        if not all(check(a).passed for a in unenforced):
            continue
        violated_report = check(violated)
        if violated_report.passed:
            continue
        if all(check(a).passed for a in enforced):
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
