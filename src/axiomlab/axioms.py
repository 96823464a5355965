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
together with the reports of every agent outside C; its menu holds, for each
distinct outcome the rule reaches in the block, that outcome and the
lexicographically first joint report of C reaching it, listed in scan order.
The bodies read a deviation only through its outcome, which the menu entry
carries, so every report reaching an outcome violates iff the first one does.
The first violating report of the full scan is therefore the first report of
its outcome, a menu entry, and no menu entry before it violates; a report
reaching the truthful outcome never violates, so it needs no skip.  Hence
scanning coalitions by size then membership, then each coalition's menu, finds
the same first witness as scanning every joint report.  Strategy-proofness and
pairwise and group strategy-proofness share one body, which reports the first
deviation in which every member of the coalition weakly gains and one strictly
gains; they differ only in the coalition sizes scanned (1, 2, and 1 to n).
Menus are built on first use and cached on the scan's context, so each pool
worker keeps its own.

Five lottery axioms are scanned over anonymity orbits when the rule is
anonymous: probabilistic monotonicity, equal treatment and the three ex-post
axioms (``RELABEL_INVARIANT``).  Each is unchanged when the agents are
relabelled: if f(sigma P) = sigma f(P) for every relabelling sigma, a
violation at P maps to one at sigma P (a support matching m to sigma m, a
pair of equal reports to a pair of equal reports, a single-agent monotonic
step at m to one at sigma m).  Individual rationality is not: the endowment
stays put.  A stable sort of the agents by preference takes P to its sorted
profile S, the lexicographically first profile of its orbit.  One pass,
``Outcomes.anonymous``, checks two conditions on the outcomes the scan reads:
every profile's lottery is its sorted profile's relabelled back to the
original agents, and every sorted profile's lottery is unchanged when two
adjacent agents with equal preferences swap.  Without the second, S could
favour one of two agents who report alike, and the relabelling the first
condition fixes would not be the only one from S to P.  Adjacent tied swaps
generate every relabelling that fixes S, so together the two conditions give
f(sigma P) = sigma f(P) for every sigma.  The first violating profile of the
full scan is then sorted, since its sorted profile violates too and comes no
later; so scanning the sorted profiles in enumeration order, each under its
index in the full enumeration, runs the same body on the same first
violating profile and returns the same witness and ``profiles_checked``.  A
pass reports the whole domain, as the full scan does.  A rule that fails the
pass gets the plain scan of every profile.

The scan and the replay read outcomes through ``Outcomes``, one table per
rule and kind, which a harness shares across its checks.  It checks a
tabulated rule's totality once: a gap raises TableMiss, even when the scan
would stop early.  A table of the axiom's kind is read in place, any other
rule is evaluated at a profile when first read, and every read is kept.  The
anonymity pass runs once per table and keeps the sorted profiles' lotteries;
once it has passed, an unsorted profile reads its sorted profile's lottery
relabelled back, which the pass proved equal.  Scans can be split across
worker processes into contiguous ranges of the scanned stream; merging keeps
the scan-earliest witness, so results do not depend on the worker count.
Each worker receives the table with its anonymity verdict and kept outcomes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import combinations, islice, product
from operator import itemgetter
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
    preference_ranks,
    prefers,
    sort_agents,
    sorted_profiles,
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

#: The lottery axioms that hold at a profile iff they hold at every relabelling
#: of its agents.  Individual rationality is not one: the endowment is not
#: relabelled.
RELABEL_INVARIANT = frozenset({Axiom.PROB_MONOTONIC, Axiom.EQUAL_TREATMENT, *EX_POST_KINDS})


@dataclass
class CheckReport:
    """Outcome of one axiom check.

    ``profiles_checked`` counts outer-loop profiles up to and including the
    witness profile (or the whole domain on a pass), so it does not depend on
    the worker count.  ``scan`` names the stream the scan walked, ``"orbits"``
    (the sorted profiles of an anonymous rule) or ``"profiles"`` (the whole
    domain), and ``scan_size`` is its length.  Those two and ``wall_time``
    are informational only and excluded from report comparisons.
    """

    axiom: str
    verdict: str
    witness: dict | None
    profiles_checked: int
    wall_time: float = field(compare=False)
    rule: str = ""
    scan: str = field(default="profiles", compare=False)
    scan_size: int = field(default=0, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def stats(self) -> dict:
        """Which scan ran and how many profiles it streams; not part of ``to_dict``."""
        return {"scan": self.scan, "scan_size": self.scan_size}

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
        """The first joint report of ``coalition`` reaching each outcome, with the outcome.

        Everyone outside the coalition reports as at ``profile``.  The menu is
        built on first use and cached for every profile of the same block.
        """
        block = coalition, tuple(r for a, r in enumerate(profile) if a not in coalition)
        if block not in self._menus:
            firsts = {}
            for reports in self.reports(len(coalition)):
                firsts.setdefault(outcomes[_deviated(profile, coalition, reports)], reports)
            self._menus[block] = tuple((reports, got) for got, reports in firsts.items())
        return self._menus[block]


def _deviated(profile: Profile, coalition, reports) -> Profile:
    """``profile`` with each agent of ``coalition`` reporting her entry of ``reports``."""
    deviated = list(profile)
    for a, r in zip(coalition, reports):
        deviated[a] = r
    return tuple(deviated)


# Violation bodies.  Each takes ``(ctx, profile, outcomes, deviations)``, where
# ``outcomes`` maps profiles to the rule's outcome there, and returns the
# witness of the first deviation that violates the axiom, or None.


def _coalition_gain(witness: Callable) -> Callable:
    """The body of the three manipulation axioms: the first deviation in which every
    coalition member weakly gains and one strictly gains, as ``witness`` reports it."""

    def violation(ctx, profile, outcomes, deviations):
        mine = outcomes[profile]
        ranks = [preference_ranks(pref) for pref in profile]
        held = [rank[obj] for rank, obj in zip(ranks, mine)]
        for coalition, reports, got in deviations:
            strict = False
            for a in coalition:
                rank = ranks[a][got[a]]
                if rank > held[a]:
                    break
                strict = strict or rank < held[a]
            else:
                if strict:
                    return witness(profile, mine, coalition, reports, got)
        return None

    return violation


def _manipulation_witness(profile, mine, coalition, reports, got):
    (agent,), (misreport,) = coalition, reports
    return {
        "kind": "manipulation",
        "profile": profile,
        "agent": agent,
        "misreport": misreport,
        "truthful_allotment": mine[agent],
        "manipulated_allotment": got[agent],
    }


def _pair_witness(profile, mine, coalition, reports, got):
    i, j = coalition
    return {
        "kind": "pair_manipulation",
        "profile": profile,
        "agents": [i, j],
        "misreports": list(reports),
        "strict_agent": i if prefers(profile[i], got[i], mine[i]) else j,
    }


def _group_witness(profile, mine, coalition, reports, got):
    return {
        "kind": "group_manipulation",
        "profile": profile,
        "agents": list(coalition),
        "misreports": list(reports),
    }


def _bossiness(ctx, profile, outcomes, deviations):
    mine = outcomes[profile]
    for (agent,), (misreport,), got in deviations:
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
            moved = lotteries[transformed]
            count, denominator = lottery.share(matching)
            moved_count, moved_denominator = moved.share(matching)
            if moved_count * denominator < count * moved_denominator:
                return {
                    "kind": "prob_monotonicity",
                    "profile": profile,
                    "transformed": transformed,
                    "matching": matching,
                    "weight_before": str(lottery.weight(matching)),
                    "weight_after": str(moved.weight(matching)),
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
        if lottery.share(swapped) != lottery.share(matching):
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
            if matching not in lottery:
                continue
            witness = matching_verdict(ctx.inst, matching, profile, kind)
            if witness is not None:
                return {**witness, "profile": profile, "matching": matching}
        return None

    return violation


def _irrationality(ctx, profile, lotteries, deviations):
    lottery = lotteries[profile]
    for matching, (agent, endowed) in deviations:
        if matching in lottery and not weakly_prefers(
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

    ``recorded`` reads back from a witness, with the rule's outcomes, the
    deviation it records, in the shape the generator yields.
    """

    deviations: Callable  # (ctx, profile, outcomes) -> iterable of deviations
    violation: Callable  # (ctx, profile, outcomes, deviations) -> witness or None
    recorded: Callable  # (witness, outcomes) -> deviation


# Deviation generators take ``(ctx, profile, outcomes)`` and ``recorded`` readers
# ``(witness, outcomes)``; both produce deviations of the shape the body unpacks.


def _coalition_menus(*sizes):
    """The menus of every coalition of these sizes (all sizes if none), as
    ``(coalition, reports, outcome)``: coalitions by size then membership,
    then each menu in scan order."""

    def deviations(ctx, profile, outcomes):
        n = ctx.inst.n
        return (
            (coalition, reports, got)
            for size in sizes or range(1, n + 1)
            for coalition in combinations(range(n), size)
            for reports, got in ctx.menu(profile, coalition, outcomes)
        )

    return deviations


def _agent_misreport(witness, outcomes):
    coalition, reports = (witness["agent"],), (witness["misreport"],)
    return coalition, reports, outcomes[_deviated(witness["profile"], coalition, reports)]


def _coalition_misreports(witness, outcomes):
    coalition, reports = witness["agents"], witness["misreports"]
    return coalition, reports, outcomes[_deviated(witness["profile"], coalition, reports)]


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
    Axiom.STRATEGY_PROOF: _Definition(
        _coalition_menus(1), _coalition_gain(_manipulation_witness), _agent_misreport
    ),
    Axiom.PAIRWISE_STRATEGY_PROOF: _Definition(
        _coalition_menus(2), _coalition_gain(_pair_witness), _coalition_misreports
    ),
    Axiom.GROUP_STRATEGY_PROOF: _Definition(
        _coalition_menus(), _coalition_gain(_group_witness), _coalition_misreports
    ),
    Axiom.NON_BOSSY: _Definition(_coalition_menus(1), _bossiness, _agent_misreport),
    Axiom.MASKIN_MONOTONIC: _Definition(
        lambda ctx, profile, outcomes: _monotonic_steps(ctx, profile, outcomes[profile]),
        _non_monotonicity,
        lambda w, _: w["transformed"],
    ),
    Axiom.PROB_MONOTONIC: _Definition(
        lambda ctx, profile, lotteries: (
            (transformed, matching)
            for matching in lotteries[profile].support()
            for transformed in _monotonic_steps(ctx, profile, matching)
        ),
        _prob_non_monotonicity,
        lambda w, _: (w["transformed"], w["matching"]),
    ),
    Axiom.EQUAL_TREATMENT: _Definition(
        lambda ctx, profile, lotteries: product(
            combinations(range(ctx.inst.n), 2), lotteries[profile].support()
        ),
        _unequal_treatment,
        lambda w, _: (w["agents"], w["matching"]),
    ),
    **{
        axiom: _Definition(_support, _ex_post_failure(kind), lambda w, _: w["matching"])
        for axiom, kind in EX_POST_KINDS.items()
    },
    Axiom.INDIVIDUAL_RATIONALITY: _Definition(
        lambda ctx, profile, lotteries: product(
            lotteries[profile].support(), enumerate(ctx.endowment)
        ),
        _irrationality,
        lambda w, _: (w["matching"], (w["agents"][0], w["objects"][1])),
    ),
}


class Outcomes(dict):
    """One rule's outcomes on one instance, keyed by profile: lotteries, or
    matchings unless ``lottery``; how they are read and kept is in the module docstring."""

    def __init__(self, inst: Instance, rule: RuleDescriptor, lottery: bool):
        super().__init__()
        self.inst, self.rule, self.lottery = inst, rule, lottery
        # _read(profile) is the rule's outcome there, not kept.
        self._read = partial(evaluate_lottery if lottery else evaluate, inst, rule)
        if isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
            for profile in enumerate_profiles(inst):
                if profile not in rule.table:
                    raise TableMiss(f"no table entry for profile {profile}")
            if is_lottery_rule(rule) == lottery:
                self._read = rule.table.__getitem__

    def __missing__(self, profile: Profile):
        if self.__dict__.get("anonymous"):  # the pass has run and found the rule anonymous
            sorted_profile, relabel = sort_agents(profile)
            self[profile] = self[sorted_profile].relabelled(relabel)
        else:
            self[profile] = self._read(profile)
        return self[profile]

    @cached_property
    def anonymous(self) -> bool:
        """True iff relabelling the agents of a profile relabels its lottery alike.

        One pass in enumeration order, stopping at the first mismatch, checks
        that every profile's lottery is the lottery of its sorted profile
        relabelled back to the original agents (``preferences.sort_agents``,
        as RSD sorts them), and that every sorted profile's lottery is
        unchanged when two adjacent agents with equal preferences swap.  It
        keeps the sorted profiles' lotteries only.
        """
        n = self.inst.n
        # swaps[p] exchanges what agents p and p + 1 get
        swaps = [itemgetter(*range(p), p + 1, p, *range(p + 2, n)) for p in range(n - 1)]
        for profile in enumerate_profiles(self.inst):
            sorted_profile, relabel = sort_agents(profile)
            if relabel is None:
                lottery = self[profile]
                for p, swap in enumerate(swaps):
                    tied = profile[p] == profile[p + 1]
                    if tied and not lottery.equals_relabelled(lottery, swap):
                        return False
            elif not self._read(profile).equals_relabelled(self[sorted_profile], relabel):
                return False
        return True


#: Each scan's stream of ``(index in enumerate_profiles, profile)`` pairs.
_STREAMS = {
    "profiles": lambda inst: enumerate(enumerate_profiles(inst)),
    "orbits": sorted_profiles,
}


def _scan(outcomes, axiom, endowment, scan, start=0, stop=None):
    """First violation among items ``start:stop`` of the ``scan`` stream as
    ``(index, witness)``, or None."""
    definition = _DEFINITIONS[axiom]
    ctx = _Context(outcomes.inst, endowment)
    deviations, violation = definition.deviations, definition.violation
    for idx, profile in islice(_STREAMS[scan](outcomes.inst), start, stop):
        witness = violation(ctx, profile, outcomes, deviations(ctx, profile, outcomes))
        if witness is not None:
            return idx, witness
    return None


def require_workers(workers: int) -> None:
    """A worker count below 1 is a BoundsError."""
    if workers < 1:
        raise BoundsError(f"a worker count of {workers} is below 1")


def require_applicable(
    inst: Instance, axiom: Axiom, lottery: bool, endowment: Matching | None = None
) -> None:
    """AxiomNotApplicable unless ``axiom`` can be checked for a rule of this kind.

    Lottery rules meet no deterministic-only axiom, and individual
    rationality needs an endowment on a housing market.
    """
    if axiom in DETERMINISTIC_ONLY and lottery:
        raise AxiomNotApplicable(f"{axiom.value} is defined for deterministic rules only")
    if axiom is Axiom.INDIVIDUAL_RATIONALITY:
        if endowment is None:
            raise AxiomNotApplicable("individual rationality needs an endowment")
        if not inst.is_housing_market():
            raise AxiomNotApplicable("individual rationality is checked on housing markets")


def check_axiom(
    inst: Instance,
    rule: RuleDescriptor | Outcomes,
    axiom: Axiom,
    endowment: Matching | None = None,
    *,
    workers: int = 1,
) -> CheckReport:
    """Check one axiom for one rule over the full profile domain.

    Pass means the universally quantified definition held everywhere; fail
    carries the scan-first witness.  ``rule`` may be the rule's ``Outcomes``
    of the axiom's kind, which the check reads and extends.  For a
    relabel-invariant axiom, a rule whose ``Outcomes.anonymous`` holds is
    scanned on its sorted profiles only, with the same report.  ``workers``
    splits the scanned stream over that many processes without changing the
    report.  Lottery rules reject the deterministic-only incentive axioms
    with AxiomNotApplicable; deterministic rules are checked against lottery
    axioms as the degenerate weight-1 lottery.
    """
    axiom = Axiom(axiom)
    require_workers(workers)
    lottery = axiom not in DETERMINISTIC_ONLY
    given = rule if isinstance(rule, Outcomes) else None
    rule = rule if given is None else given.rule
    require_applicable(inst, axiom, is_lottery_rule(rule), endowment)

    started = time.perf_counter()
    total = count_profiles(inst)
    outcomes = Outcomes(inst, rule, lottery) if given is None else given
    if axiom in RELABEL_INVARIANT and outcomes.anonymous:
        # One sorted profile per multiset of n preferences.
        scan, size = "orbits", math.comb(len(all_preferences(inst)) + inst.n - 1, inst.n)
    else:
        scan, size = "profiles", total
    if workers > 1 and size >= 4 * workers:
        chunk = (size + workers - 1) // workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_scan, outcomes, axiom, endowment, scan, lo, lo + chunk)
                for lo in range(0, size, chunk)
            ]
            hits = [h for h in (future.result() for future in futures) if h is not None]
        hit = min(hits, key=lambda h: h[0]) if hits else None
    else:
        hit = _scan(outcomes, axiom, endowment, scan)
    elapsed = time.perf_counter() - started
    label = rule_label(rule)
    if hit is None:
        return CheckReport(axiom.value, "pass", None, total, elapsed, label, scan, size)
    return CheckReport(axiom.value, "fail", hit[1], hit[0] + 1, elapsed, label, scan, size)


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
    outcomes = Outcomes(inst, rule, axiom not in DETERMINISTIC_ONLY)
    recorded = definition.recorded(witness, outcomes)
    found = definition.violation(_Context(inst), witness["profile"], outcomes, [recorded])
    return found is not None and _frozen(found) == witness
