"""Exhaustive desk-scale checkers for every rule axiom.

Each axiom has one definition, shared by the scan and by the witness replay:
a deviation generator, which lists in scan order everything the axiom
quantifies over at one profile (misreports, coalitions, transformed profiles,
support matchings), and a violation body, which walks those deviations and
returns the witness of the first violation, or None.

The scan calls the body once per profile of the instance's complete profile
domain and reports the first violation in a fixed lexicographic scan order:
profiles stream lexicographically, agents ascend, misreports ascend
lexicographically, coalitions ascend by size then membership.  The witness is
therefore deterministic: identical inputs yield identical reports.
``replay_witness`` calls the same body on the one deviation a witness records,
reading outcomes as the scan does, and accepts only if it finds that witness.

The two monotonicity axioms are scanned over single-agent steps only.  A
monotonic transformation at x can be made one agent at a time, each agent
moving from R_i to R'_i, and every intermediate profile is again a monotonic
transformation at x of its predecessor (and stays in the null-bottom domain,
since each preference in it is some R_i or R'_i).  Under Maskin monotonicity
the outcome stays x along the path; under probabilistic monotonicity the
weight of x never falls, so x stays in the support at every step.  Hence both
axioms hold iff they hold for single-agent deviations, read from
``preferences.monotonic_steps``: Maskin monotonicity walks agents ascending,
then each agent's alternatives lexicographically; probabilistic monotonicity
walks support matchings, then agents, then alternatives.  The bodies still
test ``is_monotonic_transformation``, so witnesses transforming several agents
replay too.

The four incentive axioms (strategy-proofness, non-bossiness, pairwise and
group strategy-proofness) are scanned over menus.  A block is a coalition C
together with the reports of every agent outside C; its menu is, for each
distinct outcome the rule reaches in the block, the lexicographically first
joint report of C reaching it, listed in scan order.  The four bodies read a
deviated profile only through its outcome, so every report reaching an outcome
violates iff the first one does.  The first violating report of the full scan
is therefore the first report of its outcome, a menu entry, and no menu entry
before it violates; a report reaching the truthful outcome never violates.
Hence scanning coalitions by size then membership, then each coalition's menu,
finds the same first witness as scanning every joint report.  Menus are built
on first use and cached on the scan's context, so each pool worker keeps its
own.

The scan and the replay read outcomes through ``_outcomes``.  A table of the
axiom's kind (lottery or deterministic) is read in place, and any other rule
is evaluated at a profile the first time a body reads it; a table with a gap
raises TableMiss, even when the scan would stop early.  Profile scans can be
partitioned across worker processes; chunks are contiguous outer-profile
ranges, so merging keeps the scan-earliest witness and results are
independent of the worker count.  Each worker evaluates the rule only where
its chunk reads.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations, product
from typing import Callable

from .errors import AxiomNotApplicable, BoundsError, TableMiss
from .matchings import matching_verdict
from .model import Instance, Matching
from .preferences import (
    Profile,
    all_preferences,
    count_profiles,
    enumerate_profiles,
    is_monotonic_transformation,
    monotonic_steps,
    prefers,
    weakly_prefers,
)
from .rules import (
    RuleDescriptor,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    evaluate,
    evaluate_lottery,
    is_lottery_rule,
    rule_label,
)


class Axiom(str, Enum):
    STRATEGY_PROOF = "strategy_proof"
    PAIRWISE_STRATEGY_PROOF = "pairwise_strategy_proof"
    GROUP_STRATEGY_PROOF = "group_strategy_proof"
    NON_BOSSY = "non_bossy"
    MASKIN_MONOTONIC = "maskin_monotonic"
    PROB_MONOTONIC = "prob_monotonic"
    EQUAL_TREATMENT = "equal_treatment"
    EX_POST_PARETO = "ex_post_pareto"
    EX_POST_PAIRWISE = "ex_post_pairwise"
    EX_POST_NON_WASTEFUL = "ex_post_non_wasteful"
    INDIVIDUAL_RATIONALITY = "individual_rationality"


#: Axioms whose definition quantifies over a deterministic outcome function.
DETERMINISTIC_ONLY = frozenset(
    {
        Axiom.STRATEGY_PROOF,
        Axiom.PAIRWISE_STRATEGY_PROOF,
        Axiom.GROUP_STRATEGY_PROOF,
        Axiom.NON_BOSSY,
        Axiom.MASKIN_MONOTONIC,
    }
)

#: The ex-post axioms and the ``matching_verdict`` kind each support matching must meet.
EX_POST_KINDS = {
    Axiom.EX_POST_PARETO: "pareto",
    Axiom.EX_POST_PAIRWISE: "pairwise",
    Axiom.EX_POST_NON_WASTEFUL: "non-wasteful",
}


@dataclass
class CheckReport:
    """Outcome of one axiom check.

    ``profiles_checked`` counts outer-loop profiles up to and including the
    witness profile (or the whole domain on a pass), so it does not depend on
    the worker count.  ``wall_time`` is informational only and excluded from
    report comparisons.
    """

    axiom: str
    verdict: str
    witness: dict | None
    profiles_checked: int
    wall_time: float = field(compare=False)
    rule: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "rule": self.rule,
            "verdict": self.verdict,
            "witness": self.witness,
            "profiles_checked": self.profiles_checked,
        }


@dataclass
class _Context:
    """What a definition needs besides the profile: the instance and the endowment."""

    inst: Instance
    endowment: Matching | None = None
    _reports: dict = field(default_factory=dict)
    _menus: dict = field(default_factory=dict)

    @cached_property
    def preferences(self) -> list:
        return all_preferences(self.inst)

    def reports(self, size: int) -> tuple:
        """Every joint report of ``size`` agents, lexicographically."""
        if size not in self._reports:
            self._reports[size] = tuple(product(self.preferences, repeat=size))
        return self._reports[size]

    def menu(self, profile: Profile, coalition: tuple, outcomes) -> tuple:
        """The first joint report of ``coalition`` reaching each outcome, in scan order.

        Everyone outside the coalition reports as at ``profile``.  The menu is
        built on first use and cached for every profile of the same block.
        """
        block = coalition, tuple(r for a, r in enumerate(profile) if a not in coalition)
        if block not in self._menus:
            deviated, firsts = list(profile), {}
            for reports in self.reports(len(coalition)):
                for a, r in zip(coalition, reports):
                    deviated[a] = r
                firsts.setdefault(outcomes[tuple(deviated)], reports)
            self._menus[block] = tuple(firsts.values())
        return self._menus[block]


# Violation bodies.  Each takes ``(ctx, profile, outcomes, deviations)``, where
# ``outcomes`` maps profiles to the rule's outcome there, and returns the
# witness of the first deviation that violates the axiom, or None.


def _manipulation(ctx, profile, outcomes, deviations):
    mine = outcomes[profile]
    for agent, misreport in deviations:
        truth = profile[agent]
        if misreport == truth:
            continue
        deviated = profile[:agent] + (misreport,) + profile[agent + 1 :]
        got = outcomes[deviated][agent]
        if prefers(truth, got, mine[agent]):
            return {
                "kind": "manipulation",
                "profile": profile,
                "agent": agent,
                "misreport": misreport,
                "truthful_allotment": mine[agent],
                "manipulated_allotment": got,
            }
    return None


def _pair_manipulation(ctx, profile, outcomes, deviations):
    mine = outcomes[profile]
    for (i, j), (ri, rj) in deviations:
        deviated = list(profile)
        deviated[i], deviated[j] = ri, rj
        deviated = tuple(deviated)
        if deviated == profile:
            continue
        got = outcomes[deviated]
        for strict, weak in ((i, j), (j, i)):
            if prefers(profile[strict], got[strict], mine[strict]) and weakly_prefers(
                profile[weak], got[weak], mine[weak]
            ):
                return {
                    "kind": "pair_manipulation",
                    "profile": profile,
                    "agents": [i, j],
                    "misreports": [ri, rj],
                    "strict_agent": strict,
                }
    return None


def _group_manipulation(ctx, profile, outcomes, deviations):
    mine = outcomes[profile]
    for coalition, reports in deviations:
        deviated = list(profile)
        for a, r in zip(coalition, reports):
            deviated[a] = r
        deviated = tuple(deviated)
        if deviated == profile:
            continue
        got = outcomes[deviated]
        if all(weakly_prefers(profile[a], got[a], mine[a]) for a in coalition) and any(
            prefers(profile[a], got[a], mine[a]) for a in coalition
        ):
            return {
                "kind": "group_manipulation",
                "profile": profile,
                "agents": list(coalition),
                "misreports": list(reports),
            }
    return None


def _bossiness(ctx, profile, outcomes, deviations):
    mine = outcomes[profile]
    for agent, misreport in deviations:
        if misreport == profile[agent]:
            continue
        got = outcomes[profile[:agent] + (misreport,) + profile[agent + 1 :]]
        if got[agent] == mine[agent] and got != mine:
            return {
                "kind": "bossiness",
                "profile": profile,
                "agent": agent,
                "misreport": misreport,
                "outcome": mine,
                "flipped_outcome": got,
            }
    return None


def _non_monotonicity(ctx, profile, outcomes, deviations):
    chosen = outcomes[profile]
    for transformed in deviations:
        if is_monotonic_transformation(profile, transformed, chosen):
            if outcomes[transformed] != chosen:
                return {
                    "kind": "monotonicity",
                    "profile": profile,
                    "transformed": transformed,
                    "matching": chosen,
                    "new_outcome": outcomes[transformed],
                }
    return None


def _prob_non_monotonicity(ctx, profile, lotteries, deviations):
    lottery = lotteries[profile]
    for transformed, matching in deviations:
        if is_monotonic_transformation(profile, transformed, matching):
            before = lottery.weight(matching)
            after = lotteries[transformed].weight(matching)
            if after < before:
                return {
                    "kind": "prob_monotonicity",
                    "profile": profile,
                    "transformed": transformed,
                    "matching": matching,
                    "weight_before": str(before),
                    "weight_after": str(after),
                }
    return None


def _unequal_treatment(ctx, profile, lotteries, deviations):
    lottery = lotteries[profile]
    for (i, j), matching in deviations:
        if profile[i] != profile[j]:
            continue
        swapped = list(matching)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        swapped = tuple(swapped)
        if lottery.weight(swapped) != lottery.weight(matching):
            return {
                "kind": "equal_treatment",
                "profile": profile,
                "agents": [i, j],
                "matching": matching,
                "swapped": swapped,
                "weight": str(lottery.weight(matching)),
                "swapped_weight": str(lottery.weight(swapped)),
            }
    return None


def _ex_post_failure(kind: str) -> Callable:
    def violation(ctx, profile, lotteries, deviations):
        lottery = lotteries[profile]
        for matching in deviations:
            if not lottery.weight(matching):
                continue
            witness = matching_verdict(ctx.inst, matching, profile, kind)
            if witness is not None:
                return {**witness, "profile": profile, "matching": matching}
        return None

    return violation


def _irrationality(ctx, profile, lotteries, deviations):
    lottery = lotteries[profile]
    for matching, (agent, endowed) in deviations:
        if lottery.weight(matching) and not weakly_prefers(
            profile[agent], matching[agent], endowed
        ):
            return {
                "kind": "individual_rationality",
                "profile": profile,
                "matching": matching,
                "agents": [agent],
                "objects": [matching[agent], endowed],
            }
    return None


@dataclass(frozen=True)
class _Definition:
    """One axiom: its deviations at a profile, in scan order, and its violation body.

    ``recorded`` reads back from a witness the deviation it records, in the
    shape the generator yields.
    """

    deviations: Callable  # (ctx, profile, outcomes) -> iterable of deviations
    violation: Callable  # (ctx, profile, outcomes, deviations) -> witness or None
    recorded: Callable  # witness -> deviation


# Deviation generators take ``(ctx, profile, outcomes)``; ``recorded`` readers
# take a witness.  Both produce deviations of the shape the body unpacks.


def _agent_misreports(ctx, profile, outcomes):
    return (
        (agent, reports[0])
        for agent in range(ctx.inst.n)
        for reports in ctx.menu(profile, (agent,), outcomes)
    )


def _coalition_menus(ctx, profile, outcomes, sizes):
    return (
        (coalition, reports)
        for size in sizes
        for coalition in combinations(range(ctx.inst.n), size)
        for reports in ctx.menu(profile, coalition, outcomes)
    )


def _agent_misreport(witness):
    return witness["agent"], witness["misreport"]


def _coalition_misreports(witness):
    return witness["agents"], witness["misreports"]


def _support(ctx, profile, lotteries):
    return lotteries[profile].support()


def _monotonic_steps(ctx, profile, matching):
    """Single-agent monotonic transformations of ``profile`` at ``matching``:
    agents ascend, then each agent's alternatives ascend lexicographically."""
    steps = monotonic_steps(ctx.inst)
    for agent, pref in enumerate(profile):
        for alternative in steps[pref, matching[agent]]:
            yield profile[:agent] + (alternative,) + profile[agent + 1 :]


_DEFINITIONS = {
    Axiom.STRATEGY_PROOF: _Definition(_agent_misreports, _manipulation, _agent_misreport),
    Axiom.PAIRWISE_STRATEGY_PROOF: _Definition(
        lambda ctx, profile, outcomes: _coalition_menus(ctx, profile, outcomes, (2,)),
        _pair_manipulation,
        _coalition_misreports,
    ),
    Axiom.GROUP_STRATEGY_PROOF: _Definition(
        lambda ctx, profile, outcomes: _coalition_menus(
            ctx, profile, outcomes, range(1, ctx.inst.n + 1)
        ),
        _group_manipulation,
        _coalition_misreports,
    ),
    Axiom.NON_BOSSY: _Definition(_agent_misreports, _bossiness, _agent_misreport),
    Axiom.MASKIN_MONOTONIC: _Definition(
        lambda ctx, profile, outcomes: _monotonic_steps(ctx, profile, outcomes[profile]),
        _non_monotonicity,
        lambda w: w["transformed"],
    ),
    Axiom.PROB_MONOTONIC: _Definition(
        lambda ctx, profile, lotteries: (
            (transformed, matching)
            for matching in lotteries[profile].support()
            for transformed in _monotonic_steps(ctx, profile, matching)
        ),
        _prob_non_monotonicity,
        lambda w: (w["transformed"], w["matching"]),
    ),
    Axiom.EQUAL_TREATMENT: _Definition(
        lambda ctx, profile, lotteries: product(
            combinations(range(ctx.inst.n), 2), lotteries[profile].support()
        ),
        _unequal_treatment,
        lambda w: (w["agents"], w["matching"]),
    ),
    **{
        axiom: _Definition(_support, _ex_post_failure(kind), lambda w: w["matching"])
        for axiom, kind in EX_POST_KINDS.items()
    },
    Axiom.INDIVIDUAL_RATIONALITY: _Definition(
        lambda ctx, profile, lotteries: product(
            lotteries[profile].support(), enumerate(ctx.endowment)
        ),
        _irrationality,
        lambda w: (w["matching"], (w["agents"][0], w["objects"][1])),
    ),
}


class _OnDemand(dict):
    """Outcome table that evaluates the rule at a profile the first time it is read."""

    def __init__(self, outcome_at: Callable[[Profile], object]):
        super().__init__()
        self._outcome_at = outcome_at

    def __missing__(self, profile):
        self[profile] = outcome = self._outcome_at(profile)
        return outcome


def _outcomes(inst: Instance, rule: RuleDescriptor, axiom: Axiom):
    """The rule's outcomes keyed by profile; TableMiss names a table's first gap."""
    lottery = axiom not in DETERMINISTIC_ONLY
    if isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
        for profile in enumerate_profiles(inst):
            if profile not in rule.table:
                raise TableMiss(f"no table entry for profile {profile}")
        if is_lottery_rule(rule) == lottery:
            return rule.table
    evaluate_one = evaluate_lottery if lottery else evaluate
    return _OnDemand(lambda profile: evaluate_one(inst, rule, profile))


def _scan(inst, rule, axiom, endowment, start=0, stop=None):
    """First violation among profiles ``start:stop`` as ``(index, witness)``, or None."""
    definition = _DEFINITIONS[axiom]
    ctx = _Context(inst, endowment)
    outcomes = _outcomes(inst, rule, axiom)
    deviations, violation = definition.deviations, definition.violation
    for idx, profile in enumerate(enumerate_profiles(inst, start, stop), start):
        witness = violation(ctx, profile, outcomes, deviations(ctx, profile, outcomes))
        if witness is not None:
            return idx, witness
    return None


def check_axiom(
    inst: Instance,
    rule: RuleDescriptor,
    axiom: Axiom,
    endowment: Matching | None = None,
    *,
    workers: int = 1,
) -> CheckReport:
    """Check one axiom for one rule over the full profile domain.

    Pass means the universally quantified definition held everywhere; fail
    carries the scan-first witness.  ``workers`` splits the profile scan over
    that many processes without changing the report.  Lottery rules reject the
    deterministic-only incentive axioms with AxiomNotApplicable; deterministic
    rules are checked against lottery axioms as the degenerate weight-1
    lottery.
    """
    axiom = Axiom(axiom)
    if workers < 1:
        raise BoundsError(f"a worker count of {workers} is below 1")
    if axiom in DETERMINISTIC_ONLY and is_lottery_rule(rule):
        raise AxiomNotApplicable(f"{axiom.value} is defined for deterministic rules only")
    if axiom is Axiom.INDIVIDUAL_RATIONALITY:
        if endowment is None:
            raise AxiomNotApplicable("individual rationality needs an endowment")
        if not inst.is_housing_market():
            raise AxiomNotApplicable("individual rationality is checked on housing markets")

    started = time.perf_counter()
    total = count_profiles(inst)
    if workers > 1 and total >= 4 * workers:
        chunk = (total + workers - 1) // workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scans = [
                pool.submit(_scan, inst, rule, axiom, endowment, lo, min(lo + chunk, total))
                for lo in range(0, total, chunk)
            ]
            hits = [h for h in (scan.result() for scan in scans) if h is not None]
        hit = min(hits, key=lambda h: h[0]) if hits else None
    else:
        hit = _scan(inst, rule, axiom, endowment)
    elapsed = time.perf_counter() - started
    if hit is None:
        return CheckReport(axiom.value, "pass", None, total, elapsed, rule_label(rule))
    return CheckReport(axiom.value, "fail", hit[1], hit[0] + 1, elapsed, rule_label(rule))


def check_individual_rationality(
    inst: Instance,
    rule: RuleDescriptor,
    endowment: Matching,
    *,
    workers: int = 1,
) -> CheckReport:
    """Every agent weakly prefers her allotment to her endowment, everywhere."""
    return check_axiom(inst, rule, Axiom.INDIVIDUAL_RATIONALITY, endowment, workers=workers)


def _frozen(value):
    """JSON-shaped value with every list turned into a tuple, recursively."""
    if isinstance(value, dict):
        return {key: _frozen(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def replay_witness(
    inst: Instance, rule: RuleDescriptor, axiom: Axiom, witness: dict
) -> bool:
    """Re-verify a fail witness from scratch against the rule.

    Runs the axiom's violation body on the one deviation the witness records,
    with the rule's outcomes read as the scan reads them, and returns True iff
    the body reports exactly this witness.  Soundness therefore does not rest
    on the scan that produced it.
    """
    axiom = Axiom(axiom)
    definition = _DEFINITIONS[axiom]
    witness = _frozen(witness)
    outcomes = _outcomes(inst, rule, axiom)
    found = definition.violation(
        _Context(inst), witness["profile"], outcomes, [definition.recorded(witness)]
    )
    return found is not None and _frozen(found) == witness
