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
walks support matchings, then agents, then alternatives.  The bodies take
each deviation to be a monotonic transformation, as every step is; the
``recorded`` readers test ``is_monotonic_transformation`` on a witness's
transformed profile, over all agents, so witnesses transforming several agents
replay and a transformation that is not monotonic does not.

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
Menus are built on first use and kept on the rule's ``Outcomes``, so the
checks of a harness, which share that table, build each menu once.

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

RSD is anonymous: if the sorted profile puts agent ``order[p]`` at position
``p``, the agent order ``(order[o_1], ..., order[o_n])`` gives agent
``order[p]`` what the position order ``(o_1, ..., o_n)`` gives position ``p``
there, and this maps the n! orders one to one.
``rules.random_serial_dictatorship`` counts the orders layer by layer over
partial matchings instead of running each, but its counts are exactly the
number of orders reaching each matching, so the argument holds as stated, and
so does the one for neutrality below.  RSD's table reads every unsorted
profile through its sorted profile from the start, so it meets the first
condition by construction of its reads; how its pass checks the second is
below.

Every axiom but individual rationality is also unchanged when the objects are
relabelled: a relabelling tau permutes objects of equal capacity and fixes the
null object (``preferences.object_classes``), so it maps admissible
preferences and feasible matchings to admissible preferences and feasible
matchings, rankings to rankings, lower contour sets to lower contour sets and
capacities to themselves.  If f(tau P) = tau f(P) for every tau, a violation
at P maps to one at tau P.  Individual rationality is not: the endowment stays
put.  A relabelling other than the identity moves every preference, since a
preference ranks every object, so each object orbit is the profiles tau H for
its first profile H and every tau, each once.  One pass, ``Outcomes.neutral``,
checks f(tau H) = tau f(H) for every such head H and every tau other than the
identity (``preferences.nontrivial_relabellings``), which suffices: if P = tau
H, then f(sigma P) = f(sigma tau H) = sigma tau f(H) = sigma f(P) for every
sigma.  On a matchings table the heads are those of the object orbits.  On a
lottery table the pass runs only once the anonymity pass holds, and the heads
are those of the orbits under the agent and object relabellings together:
every profile is P = pi tau H for an agent relabelling pi, and agent and
object relabellings commute, so f(sigma P) = pi sigma tau f(H) = sigma pi
f(tau H) = sigma f(P).  The group of agent and object relabellings together
then maps violations to violations too.  So the argument above carries over
to these groups: the first violating profile of the full scan comes first in
its orbit, since every profile of the orbit violates, and scanning the
profiles that come first in their orbits in enumeration order, each under its
index in the full enumeration, returns the same witness and
``profiles_checked``.  Every scan and pass walks one stream,
``preferences.orbit_profiles(inst, agents, objects)``, which keeps the first
profile of each orbit under the agent relabellings, the object relabellings or
both, and with neither every profile.

RSD is neutral too: each serial dictatorship commutes with a relabelling tau.
By induction along the agent order, the k-th agent to pick at tau P ranks
tau of what she ranks at P, and finds the capacity left at each object tau o
equal to that left at o after the first k - 1 picks at P, since tau keeps
capacities and fixes the null object; so she picks tau of what she picks at
P.  Hence RSD(tau P) = tau RSD(P).  So RSD is evaluated at the heads of
the orbits under both groups together only, and both of its passes are one
pass over those heads, ``Outcomes._stabilised``.  At each head H it checks
that f(H) is fixed by H's stabiliser: the relabellings g, of the agents and
objects together, with g H = H.  An element sigma tau with sigma tau H = H
has sorted(tau H) = H, and for each such tau other than the identity the
stable sort gives tau H = pi H for one agent relabelling pi; the element
then differs from pi^-1 tau by an agent relabelling that fixes H.  So the
adjacent tied swaps and one pi^-1 tau per such tau generate the stabiliser,
and the pass checks those: the tie condition, and that f(H) relabelled back,
pi f(H), equals tau f(H).  Then the table that reads every other profile P
as its head's lottery carried to it, g f(H) for a g with P = g H
(``preferences.orbit_head``: the agent sort of tau P relabelled back, then
tau^-1), is well defined, since two such g differ by an element of the
stabiliser, and equivariant: for every relabelling h, h P = (h g) H reads
h g f(H) = h f(P).  The scans of the joint orbits are therefore exact for
the table read, as above, and that table is RSD's own, since RSD is
anonymous and neutral.  A read goes through an object relabelling only once
this pass has passed.  Before that, and if it ever fails, RSD is evaluated at
every sorted profile it reads, and its two passes run as for any other rule.

The scan and the replay read outcomes through ``Outcomes``, one table per
rule and kind, which a harness shares across its checks.  It checks a
tabulated rule's totality once: a gap raises TableMiss, even when the scan
would stop early.  The check is one subset test of the table's keys against
the instance's domain set (``preferences.profile_set``); only a table that
fails it is walked, to name its first gap in enumeration order.  A table of the axiom's kind is read in place, any other
rule is evaluated at a profile when first read (a deterministic rule's
lotteries can read the kept matchings, ``Outcomes.as_lotteries``), and every
read is kept.  The anonymity pass runs once per table and keeps the sorted
profiles' lotteries.  The neutrality pass runs once per table too, and keeps
the same on a lottery table and every profile's matching on a matchings
table.  An unsorted profile reads its sorted profile's lottery relabelled
back: for RSD from construction on, and for any other rule once the pass has
proved that equal.  Once RSD's pass over the heads has passed, which keeps the
heads' lotteries only, every profile of RSD's table reads its head's lottery
instead, so RSD is evaluated, its n! orders counted, at the heads only; no
other read goes through an object relabelling.  A check that runs no pass,
such as individual rationality, or ``replay_witness``, never triggers it.
``Outcomes.evaluations`` counts the rule's evaluations, and each report says
how many its check made.  Only ``Outcomes`` relabels, so direct checks of RSD
share its evaluations only through one ``Outcomes``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import combinations, product
from operator import itemgetter
from typing import Callable

from .errors import AxiomNotApplicable, PreconditionViolated, TableMiss
from .matchings import matching_verdict
from .model import Instance, Matching, is_feasible
from .preferences import (
    Profile,
    all_preferences,
    count_profiles,
    enumerate_profiles,
    is_monotonic_transformation,
    monotonic_steps,
    nontrivial_relabellings,
    orbit_count,
    orbit_head,
    orbit_profiles,
    preference_ranks,
    prefers,
    profile_set,
    sort_agents,
    weakly_prefers,
)
from .rules import (
    Lottery,
    RandomSerialDictatorshipRule,
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
    witness profile (or the whole domain on a pass).  ``scan`` names the
    stream the scan walked: the whole domain (``"profiles"``), or the first
    profile of each orbit under the agent relabellings (``"agent_orbits"``,
    the sorted profiles of an anonymous rule), the object relabellings
    (``"object_orbits"``, of a neutral rule) or both together
    (``"agent_object_orbits"``).
    ``scan_size`` is the stream's length, and ``evaluations`` counts the
    rule evaluations this check made (``Outcomes.evaluations``).  Those three
    and ``wall_time`` are informational only and excluded from report
    comparisons.
    """

    axiom: str
    verdict: str
    witness: dict | None
    profiles_checked: int
    wall_time: float = field(compare=False)
    rule: str = ""
    scan: str = field(default="profiles", compare=False)
    scan_size: int = field(default=0, compare=False)
    evaluations: int = field(default=0, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def stats(self) -> dict:
        """Which scan ran, named by the relabellings whose orbits it kept one
        profile of, how many profiles it streams, and how many rule
        evaluations the check made; not part of ``to_dict``."""
        return {"scan": self.scan, "scan_size": self.scan_size, "evaluations": self.evaluations}

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "rule": self.rule,
            "verdict": self.verdict,
            "witness": self.witness,
            "profiles_checked": self.profiles_checked,
        }


def _deviated(profile: Profile, coalition, reports) -> Profile:
    """``profile`` with each agent of ``coalition`` reporting her entry of ``reports``."""
    deviated = list(profile)
    for a, r in zip(coalition, reports):
        deviated[a] = r
    return tuple(deviated)


# Violation bodies.  Each takes ``(profile, outcomes, deviations)``, where
# ``outcomes`` is the rule's ``Outcomes``, and returns the witness of the
# first deviation that violates the axiom, or None.


def _coalition_gain(witness: Callable) -> Callable:
    """The body of the three manipulation axioms: the first deviation in which every
    coalition member weakly gains and one strictly gains, as ``witness`` reports it."""

    def violation(profile, outcomes, deviations):
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


def _bossiness(profile, outcomes, deviations):
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


# The two monotonicity bodies take every deviation to be a monotonic
# transformation at its matching: the scan's come from ``monotonic_steps``,
# and the ``recorded`` readers test a witness's.


def _non_monotonicity(profile, outcomes, deviations):
    chosen = outcomes[profile]
    for transformed in deviations:
        if outcomes[transformed] != chosen:
            return {
                "kind": "monotonicity",
                "profile": profile,
                "transformed": transformed,
                "matching": chosen,
                "new_outcome": outcomes[transformed],
            }
    return None


def _prob_non_monotonicity(profile, lotteries, deviations):
    lottery = lotteries[profile]
    for transformed, matching in deviations:
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


def _unequal_treatment(profile, lotteries, deviations):
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
    def violation(profile, lotteries, deviations):
        lottery = lotteries[profile]
        for matching in deviations:
            if matching not in lottery:
                continue
            witness = matching_verdict(lotteries.inst, matching, profile, kind)
            if witness is not None:
                return {**witness, "profile": profile, "matching": matching}
        return None

    return violation


def _irrationality(profile, lotteries, deviations):
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
    deviation it records, in the shape the generator yields, or None if the
    axiom does not quantify over it.
    """

    deviations: Callable  # (profile, outcomes) -> iterable of deviations
    violation: Callable  # (profile, outcomes, deviations) -> witness or None
    recorded: Callable  # (witness, outcomes) -> deviation or None


# Deviation generators take ``(profile, outcomes)`` (individual rationality's
# takes the endowment first) and ``recorded`` readers ``(witness, outcomes)``;
# both produce deviations of the shape the body unpacks.


def _coalition_menus(*sizes):
    """The menus of every coalition of these sizes (all sizes if none), as
    ``(coalition, reports, outcome)``: coalitions by size then membership,
    then each menu in scan order."""

    def deviations(profile, outcomes):
        n = outcomes.inst.n
        return (
            (coalition, reports, got)
            for size in sizes or range(1, n + 1)
            for coalition in combinations(range(n), size)
            for reports, got in outcomes.menu(profile, coalition)
        )

    return deviations


def _agent_misreport(witness, outcomes):
    coalition, reports = (witness["agent"],), (witness["misreport"],)
    return coalition, reports, outcomes[_deviated(witness["profile"], coalition, reports)]


def _coalition_misreports(witness, outcomes):
    coalition, reports = witness["agents"], witness["misreports"]
    return coalition, reports, outcomes[_deviated(witness["profile"], coalition, reports)]


def _support(profile, lotteries):
    return lotteries[profile].support()


def _recorded_step(witness, matching, deviation):
    """``deviation`` if the witness's ``transformed`` is a monotonic
    transformation of its profile at ``matching``, in any number of agents;
    else None."""
    if is_monotonic_transformation(witness["profile"], witness["transformed"], matching):
        return deviation
    return None


def _monotonic_steps(inst, profile, matching):
    """Single-agent monotonic transformations of ``profile`` at ``matching``:
    agents ascend, then each agent's alternatives ascend lexicographically."""
    steps = monotonic_steps(inst)
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
        lambda profile, outcomes: _monotonic_steps(outcomes.inst, profile, outcomes[profile]),
        _non_monotonicity,
        lambda w, outcomes: _recorded_step(w, outcomes[w["profile"]], w["transformed"]),
    ),
    Axiom.PROB_MONOTONIC: _Definition(
        lambda profile, lotteries: (
            (transformed, matching)
            for matching in lotteries[profile].support()
            for transformed in _monotonic_steps(lotteries.inst, profile, matching)
        ),
        _prob_non_monotonicity,
        lambda w, _: _recorded_step(w, w["matching"], (w["transformed"], w["matching"])),
    ),
    Axiom.EQUAL_TREATMENT: _Definition(
        lambda profile, lotteries: product(
            combinations(range(lotteries.inst.n), 2), lotteries[profile].support()
        ),
        _unequal_treatment,
        lambda w, _: (w["agents"], w["matching"]),
    ),
    **{
        axiom: _Definition(_support, _ex_post_failure(kind), lambda w, _: w["matching"])
        for axiom, kind in EX_POST_KINDS.items()
    },
    Axiom.INDIVIDUAL_RATIONALITY: _Definition(
        lambda endowment, profile, lotteries: product(
            lotteries[profile].support(), enumerate(endowment)
        ),
        _irrationality,
        lambda w, _: (w["matching"], (w["agents"][0], w["objects"][1])),
    ),
}


def _require_total(inst: Instance, table) -> None:
    """TableMiss naming the first profile, in enumeration order, missing from ``table``.

    The keys are compared with the shared domain set in one subset test, and
    only a table that fails it is walked to find the gap.  Extra keys are
    ignored.
    """
    if not table.keys() >= profile_set(inst):
        for profile in enumerate_profiles(inst):
            if profile not in table:
                raise TableMiss(f"no table entry for profile {profile}")


def _counted(counter: list[int], evaluated: Callable, inst: Instance, rule, profile: Profile):
    """``evaluated(inst, rule, profile)``, counted in ``counter[0]``."""
    counter[0] += 1
    return evaluated(inst, rule, profile)


def _point(matchings: "Outcomes", profile: Profile) -> Lottery:
    return Lottery.point(matchings[profile])


class Outcomes(dict):
    """One rule's outcomes on one instance, keyed by profile: lotteries, or
    matchings unless ``lottery``; how they are read and kept is in the module
    docstring.  It also keeps the incentive axioms' menus (``menu``), so every
    check that reads the table reads the menus earlier checks built."""

    def __init__(self, inst: Instance, rule: RuleDescriptor, lottery: bool):
        super().__init__()
        self.inst, self.rule, self.lottery = inst, rule, lottery
        self._menus = {}
        self._evaluations = [0]  # one counter, shared with the table of ``as_lotteries``
        # _read(profile) is the rule's outcome there, not kept.
        evaluated = evaluate_lottery if lottery else evaluate
        self._read = partial(_counted, self._evaluations, evaluated, inst, rule)
        # Whether an unsorted profile reads its sorted profile's outcome relabelled
        # back: for RSD from the start, for any other rule once the pass has passed.
        self._relabels = isinstance(rule, RandomSerialDictatorshipRule)
        # Whether every profile reads its orbit head's outcome, carried through
        # an object relabelling too: for RSD once ``_stabilised`` has passed.
        self._heads = False
        if isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
            _require_total(inst, rule.table)
            if is_lottery_rule(rule) == lottery:
                self._read = rule.table.__getitem__

    @property
    def evaluations(self) -> int:
        """How often the rule was evaluated for this table (``rules.evaluate`` or
        ``evaluate_lottery``); table entries and relabelled reads are not
        evaluations.  The table of ``as_lotteries`` counts the evaluations of
        the matchings it reads.

        >>> table = Outcomes(Instance(3, (1, 1, 1)), RandomSerialDictatorshipRule(), True)
        >>> table.neutral, table.evaluations  # RSD at the 10 heads of 216 profiles
        (True, 10)
        """
        return self._evaluations[0]

    def __missing__(self, profile: Profile):
        if self._heads:
            head, carry = orbit_head(self.inst, profile)
        elif self._relabels:
            head, carry = sort_agents(profile)
        else:
            head, carry = profile, None
        read = self._read(profile) if carry is None else self[head].relabelled(carry)
        self[profile] = read
        return read

    def as_lotteries(self) -> "Outcomes":
        """The lottery table of this deterministic rule, reading the matchings kept here."""
        lotteries = Outcomes(self.inst, self.rule, True)
        lotteries._read = partial(_point, self)
        lotteries._evaluations = self._evaluations
        return lotteries

    def menu(self, profile: Profile, coalition: tuple) -> tuple:
        """The first joint report of ``coalition`` reaching each outcome, with the outcome.

        Everyone outside the coalition reports as at ``profile``.  The menu is
        built on first use and kept for every profile of the same block.
        """
        block = coalition, tuple(r for a, r in enumerate(profile) if a not in coalition)
        if block not in self._menus:
            firsts = {}
            for reports in product(all_preferences(self.inst), repeat=len(coalition)):
                firsts.setdefault(self[_deviated(profile, coalition, reports)], reports)
            self._menus[block] = tuple((reports, got) for got, reports in firsts.items())
        return self._menus[block]

    @cached_property
    def anonymous(self) -> bool:
        """True iff relabelling the agents of a profile relabels its lottery alike.

        For RSD this holds once ``_stabilised`` does.  Otherwise one pass in
        enumeration order, stopping at the first mismatch, checks that every
        profile's lottery is the lottery of its sorted profile relabelled back
        to the original agents (``preferences.sort_agents``), and that every
        sorted profile's lottery is unchanged when two adjacent agents with
        equal preferences swap.  For RSD, whose reads meet the first condition
        by construction, it walks the sorted profiles only.  It keeps the
        sorted profiles' lotteries only.
        """
        if self._stabilised:
            return True
        swaps = _adjacent_swaps(self.inst.n)
        for _, profile in orbit_profiles(self.inst, agents=self._relabels):
            sorted_profile, relabel = sort_agents(profile)
            if relabel is None:
                if not _ties_kept(profile, self[profile], swaps):
                    return False
            elif not self._read(profile).equals_relabelled(self[sorted_profile], relabel):
                return False
        self._relabels = True
        return True

    @cached_property
    def neutral(self) -> bool:
        """True iff relabelling the objects of a profile relabels its outcome alike.

        The relabellings permute objects of equal capacity and fix the null
        object (``preferences.object_classes``).  For RSD this holds once
        ``_stabilised`` does.  Otherwise one pass, stopping at the first
        mismatch, checks f(tau H) = tau f(H) for every relabelling tau other
        than the identity and every head H of the table's stream,
        ``orbit_profiles(inst, agents=self.lottery, objects=True)``.  It reads
        through this table; a matchings table keeps every read, a lottery
        table only the sorted profiles' lotteries.  A lottery table is tested
        only once ``anonymous`` holds, so that a table failing that pass, such
        as a deterministic rule's point lotteries or a search candidate, is not
        evaluated at every profile before a scan that may stop at its first.
        False when no two real objects share a capacity, since then there is
        no relabelling to use.
        """
        relabellings = nontrivial_relabellings(self.inst)
        if not relabellings or (self.lottery and not self.anonymous):
            return False
        if self._stabilised:
            return True
        if self.lottery:
            same, read = Lottery.equals_relabelled, self._unkept
        else:
            same, read = _equals_renamed, self.__getitem__
        moves = _moves(self.inst, relabellings)
        for _, head in orbit_profiles(self.inst, agents=self.lottery, objects=True):
            outcome = self[head]
            for rename, relabel in moves:
                if not same(read(tuple(map(rename, head))), outcome, relabel):
                    return False
        return True

    @cached_property
    def _stabilised(self) -> bool:
        """RSD's anonymity and neutrality passes in one, over the heads of
        ``orbit_profiles(inst, agents=True, objects=True)``: True iff each
        head's lottery is fixed by every relabelling that fixes the head.

        At each head H, stopping at the first mismatch, it checks that the
        lottery is unchanged when two adjacent agents with equal preferences
        swap, and, for every object relabelling tau other than the identity
        whose tau H sorts to H, that the lottery relabelled back from the sort
        of tau H equals tau f(H).  Once it holds every profile reads its orbit
        head's lottery (``preferences.orbit_head``), so RSD is evaluated at the
        heads only; until then, and if it fails, at the sorted profiles, and
        the two passes run as for any other rule.  It keeps the heads'
        lotteries only.  False for any rule but RSD.
        """
        if not isinstance(self.rule, RandomSerialDictatorshipRule):
            return False
        swaps = _adjacent_swaps(self.inst.n)
        moves = _moves(self.inst, nontrivial_relabellings(self.inst))
        for _, head in orbit_profiles(self.inst, agents=True, objects=True):
            lottery = self[head]
            if not _ties_kept(head, lottery, swaps):
                return False
            for rename, relabel in moves:
                sorted_profile, back = sort_agents(tuple(map(rename, head)))
                if sorted_profile == head and not lottery.relabelled(back).equals_relabelled(
                    lottery, relabel
                ):
                    return False
        self._heads = True
        return True

    def _unkept(self, profile: Profile) -> Lottery:
        """The lottery of an anonymous table at ``profile``, read as
        ``__missing__`` reads it, keeping only its sorted profile's."""
        sorted_profile, relabel = sort_agents(profile)
        lottery = self[sorted_profile]
        return lottery if relabel is None else lottery.relabelled(relabel)


def _adjacent_swaps(n: int) -> list[Callable[[Matching], Matching]]:
    """``swaps[p]`` exchanges what agents p and p + 1 get."""
    return [itemgetter(*range(p), p + 1, p, *range(p + 2, n)) for p in range(n - 1)]


def _ties_kept(profile: Profile, lottery: Lottery, swaps) -> bool:
    """No two adjacent agents who report alike at ``profile`` are told apart by its lottery."""
    return all(
        profile[p] != profile[p + 1] or lottery.equals_relabelled(lottery, swap)
        for p, swap in enumerate(swaps)
    )


def _moves(inst: Instance, relabellings) -> list[tuple[Callable, Callable]]:
    """Per relabelling: each preference renamed, and each matching renamed."""
    prefs = all_preferences(inst)
    return [
        ({pref: tuple(map(tau.__getitem__, pref)) for pref in prefs}.__getitem__,
         partial(_renamed, tau))
        for tau in relabellings
    ]


def _renamed(tau: tuple[int, ...], matching: Matching) -> Matching:
    """``matching`` with each object ``o`` renamed ``tau[o]``."""
    return tuple(map(tau.__getitem__, matching))


def _equals_renamed(moved: Matching, matching: Matching, relabel: Callable) -> bool:
    """``Lottery.equals_relabelled`` for matchings."""
    return moved == relabel(matching)


#: The name of the scan of ``orbit_profiles(inst, agents, objects)``, by
#: (agents, objects): the relabellings whose orbits it keeps the first profile of.
_SCANS = {
    (False, False): "profiles",
    (True, False): "agent_orbits",
    (False, True): "object_orbits",
    (True, True): "agent_object_orbits",
}


def _scan(outcomes, axiom, endowment, agents=False, objects=False):
    """First violation in ``orbit_profiles(inst, agents, objects)`` as
    ``(index, witness)``, or None."""
    definition = _DEFINITIONS[axiom]
    deviations, violation = definition.deviations, definition.violation
    if axiom is Axiom.INDIVIDUAL_RATIONALITY:
        deviations = partial(deviations, endowment)
    for idx, profile in orbit_profiles(outcomes.inst, agents, objects):
        witness = violation(profile, outcomes, deviations(profile, outcomes))
        if witness is not None:
            return idx, witness
    return None


def require_applicable(
    inst: Instance, axiom: Axiom, lottery: bool, endowment: Matching | None = None
) -> None:
    """AxiomNotApplicable unless ``axiom`` can be checked for a rule of this kind.

    Lottery rules meet no deterministic-only axiom, and individual
    rationality needs an endowment on a housing market; an endowment that is
    not a feasible matching of ``inst`` is a PreconditionViolated.
    """
    if axiom in DETERMINISTIC_ONLY and lottery:
        raise AxiomNotApplicable(f"{axiom.value} is defined for deterministic rules only")
    if axiom is Axiom.INDIVIDUAL_RATIONALITY:
        if endowment is None:
            raise AxiomNotApplicable("individual rationality needs an endowment")
        if not inst.is_housing_market():
            raise AxiomNotApplicable("individual rationality is checked on housing markets")
        if not is_feasible(inst, endowment):
            raise PreconditionViolated(f"endowment {endowment} is not a feasible matching")


def check_axiom(
    inst: Instance,
    rule: RuleDescriptor | Outcomes,
    axiom: Axiom,
    endowment: Matching | None = None,
) -> CheckReport:
    """Check one axiom for one rule over the full profile domain.

    Pass means the universally quantified definition held everywhere; fail
    carries the scan-first witness.  ``rule`` may be the rule's ``Outcomes``
    of the axiom's kind on ``inst``, which the check reads and extends; one of
    another instance or kind is a PreconditionViolated.  The scan keeps the
    first profile of each orbit, with the same report: of the agent orbits
    for a relabel-invariant axiom when ``Outcomes.anonymous`` holds, of the
    object orbits for any axiom but individual rationality when
    ``Outcomes.neutral`` holds, and of the orbits under both when both do.
    Lottery rules reject the deterministic-only incentive axioms with
    AxiomNotApplicable; deterministic rules are checked against lottery
    axioms as the degenerate weight-1 lottery.
    """
    axiom = Axiom(axiom)
    lottery = axiom not in DETERMINISTIC_ONLY
    given = rule if isinstance(rule, Outcomes) else None
    rule = rule if given is None else given.rule
    require_applicable(inst, axiom, is_lottery_rule(rule), endowment)
    if given is not None and (given.inst, given.lottery) != (inst, lottery):
        raise PreconditionViolated("the outcome table is of another instance or kind")

    started = time.perf_counter()
    total = count_profiles(inst)
    outcomes = Outcomes(inst, rule, lottery) if given is None else given
    evaluated = outcomes.evaluations
    agents = axiom in RELABEL_INVARIANT and outcomes.anonymous
    objects = axiom is not Axiom.INDIVIDUAL_RATIONALITY and outcomes.neutral
    scan = _SCANS[agents, objects]
    size = orbit_count(inst, agents, objects)
    hit = _scan(outcomes, axiom, endowment, agents, objects)
    elapsed = time.perf_counter() - started
    work = (rule_label(rule), scan, size, outcomes.evaluations - evaluated)
    if hit is None:
        return CheckReport(axiom.value, "pass", None, total, elapsed, *work)
    return CheckReport(axiom.value, "fail", hit[1], hit[0] + 1, elapsed, *work)


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
    if recorded is None:
        return False
    found = definition.violation(witness["profile"], outcomes, [recorded])
    return found is not None and _frozen(found) == witness
