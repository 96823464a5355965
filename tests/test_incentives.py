"""The menu scan of the four incentive axioms against two oracles that share
no code with it: the bodies it replaced, run on every joint report, and the
verdict read from the outcomes each coalition reaches in each block."""

from collections import defaultdict
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    Instance,
    SerialDictatorshipRule,
    TabulatedDeterministicRule,
    TopTradingCyclesRule,
    check_axiom,
    count_profiles,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
)
from axiomlab.axioms import _DEFINITIONS, Axiom, Outcomes, replay_witness
from axiomlab.model import NULL_BOTTOM
from axiomlab.preferences import all_preferences, prefers, weakly_prefers
from axiomlab.rules import rule_label
from helpers import bossy_flip_rule, random_tabulated_rule

UNIT3 = Instance(3, (1, 1, 1))
SLACK3 = Instance(3, (2, 1, 1))
NULL3 = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
SLACK4 = Instance(4, (2, 1, 1))
NULL4 = Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)

#: The four incentive axioms.
CASES = [
    Axiom.STRATEGY_PROOF,
    Axiom.NON_BOSSY,
    Axiom.PAIRWISE_STRATEGY_PROOF,
    Axiom.GROUP_STRATEGY_PROOF,
]


# The engine's violation bodies before the three manipulation bodies became
# one, kept verbatim as oracles.  Each builds every deviated profile and reads
# its outcome itself, and skips the truthful report.


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


#: The earlier body of each axiom.
EARLIER_BODIES = {
    Axiom.STRATEGY_PROOF: _manipulation,
    Axiom.NON_BOSSY: _bossiness,
    Axiom.PAIRWISE_STRATEGY_PROOF: _pair_manipulation,
    Axiom.GROUP_STRATEGY_PROOF: _group_manipulation,
}


def coalition_sizes(n, axiom):
    if axiom in (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY):
        return (1,)
    return (2,) if axiom is Axiom.PAIRWISE_STRATEGY_PROOF else range(1, n + 1)


def brute_force_deviations(inst, axiom):
    """Every deviation in scan order, in the shape the earlier bodies unpack:
    agents then misreports, or coalitions by size then membership, then every
    joint report lexicographically."""
    n, preferences = inst.n, all_preferences(inst)
    if axiom in (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY):
        return list(product(range(n), preferences))
    return [
        (coalition, reports)
        for size in coalition_sizes(n, axiom)
        for coalition in combinations(range(n), size)
        for reports in product(preferences, repeat=size)
    ]


@lru_cache(maxsize=None)
def table_of(inst, rule):
    return {p: evaluate(inst, rule, p) for p in enumerate_profiles(inst)}


def violates(axiom, profile, mine, coalition, got):
    """True iff ``coalition`` moving the outcome from ``mine`` to ``got`` at
    ``profile`` violates ``axiom``: every member weakly gains and one strictly
    gains, or, for non-bossiness, the agent keeps her allotment and another's
    changes."""
    if axiom is Axiom.NON_BOSSY:
        (agent,) = coalition
        return got[agent] == mine[agent] and got != mine
    return all(weakly_prefers(profile[a], got[a], mine[a]) for a in coalition) and any(
        prefers(profile[a], got[a], mine[a]) for a in coalition
    )


@lru_cache(maxsize=None)
def holds_by_reachable_outcomes(inst, rule, axiom):
    """The axiom's verdict from the definition's other form.

    A coalition can reach, from any profile of a block (its coalition and the
    reports of everyone outside it), exactly the outcomes the rule gives on
    that block.  So the axiom holds iff no profile of any block has an outcome
    of its block that ``violates`` the axiom for the coalition.
    """
    table = table_of(inst, rule)
    for size in coalition_sizes(inst.n, axiom):
        for coalition in combinations(range(inst.n), size):
            outside = [a for a in range(inst.n) if a not in coalition]
            reached = defaultdict(set)
            for profile, outcome in table.items():
                reached[tuple(profile[a] for a in outside)].add(outcome)
            for profile, mine in table.items():
                block = reached[tuple(profile[a] for a in outside)]
                if any(violates(axiom, profile, mine, coalition, got) for got in block):
                    return False
    return True


@lru_cache(maxsize=None)
def joint_report_scan(inst, rule, axiom):
    """``(witness, profiles_checked)`` of the earlier body run on every joint report."""
    deviations = brute_force_deviations(inst, axiom)
    violation, outcomes = EARLIER_BODIES[axiom], table_of(inst, rule)
    for checked, profile in enumerate(enumerate_profiles(inst), 1):
        witness = violation(None, profile, outcomes, deviations)
        if witness is not None:
            return witness, checked
    return None, checked


@lru_cache(maxsize=None)
def oracle_report(inst, rule, axiom):
    """The ``to_dict()`` a check must give.

    A pass report is fixed (no witness, the whole domain), so a pass needs
    only the verdict, read from the reachable outcomes.  A fail is scanned
    with the earlier body for its witness.
    """
    if holds_by_reachable_outcomes(inst, rule, axiom):
        verdict, witness, checked = "pass", None, count_profiles(inst)
    else:
        (witness, checked), verdict = joint_report_scan(inst, rule, axiom), "fail"
        assert witness is not None, (axiom, "the two oracles disagree")
    return {
        "axiom": axiom.value,
        "rule": rule_label(rule),
        "verdict": verdict,
        "witness": witness,
        "profiles_checked": checked,
    }


def perturbed_sd(inst, index, choice, order=(0, 1, 2)):
    """SD's table with the ``index``-th profile's matching replaced."""
    table = dict(table_of(inst, SerialDictatorshipRule(order)))
    profile = list(table)[index % len(table)]
    universe = enumerate_matchings(inst)
    table[profile] = universe[choice % len(universe)]
    return TabulatedDeterministicRule(table)


def three_agent_rules(inst):
    """SD in two orders, SD changed at one profile mid-domain (so the scan meets
    many blocks before it fails), and three random tables."""
    return {
        "sd012": SerialDictatorshipRule((0, 1, 2)),
        "sd201": SerialDictatorshipRule((2, 0, 1)),
        "sd012-perturbed": perturbed_sd(inst, 100, 5),
        **{f"random{seed}": random_tabulated_rule(inst, seed) for seed in (11, 12, 13)},
    }


FAMILY = {
    **{
        f"{name}-{rule}": (inst, rule_obj)
        for name, inst in (("unit3", UNIT3), ("slack3", SLACK3), ("null3", NULL3))
        for rule, rule_obj in three_agent_rules(inst).items()
    },
    "unit3-ttc": (UNIT3, TopTradingCyclesRule((0, 1, 2))),
    "unit3-bossy": (UNIT3, bossy_flip_rule(UNIT3)),
    "slack4-sd0123": (SLACK4, SerialDictatorshipRule((0, 1, 2, 3))),
    "slack4-random11": (SLACK4, random_tabulated_rule(SLACK4, 11)),
    "null4-sd3120": (NULL4, SerialDictatorshipRule((3, 1, 2, 0))),
    "null4-random12": (NULL4, random_tabulated_rule(NULL4, 12)),
    # Four agents, failing mid-domain, so coalitions of three and four agents
    # are scanned on many blocks before the first violation.
    "slack4-sd0123-perturbed": (SLACK4, perturbed_sd(SLACK4, 600, 5, (0, 1, 2, 3))),
    "null4-sd3120-perturbed": (NULL4, perturbed_sd(NULL4, 700, 3, (3, 1, 2, 0))),
}


def assert_agrees_with_oracle(inst, rule, axiom):
    report = check_axiom(inst, rule, axiom)
    assert report.to_dict() == oracle_report(inst, rule, axiom), axiom
    if not report.passed:
        assert replay_witness(inst, rule, axiom, report.witness), axiom


@pytest.mark.parametrize("axiom", CASES)
@pytest.mark.parametrize("name", list(FAMILY))
def test_menus_agree_with_the_brute_force_oracle(name, axiom):
    assert_agrees_with_oracle(*FAMILY[name], axiom)


def test_family_has_passing_and_failing_rules():
    def verdicts(names, axiom):
        return {oracle_report(*FAMILY[name], axiom)["verdict"] for name in names}

    for axiom in CASES:
        assert verdicts(("slack4-sd0123", "null4-sd3120"), axiom) == {"pass"}
        assert verdicts(("slack4-random11", "null4-random12"), axiom) == {"fail"}
    assert verdicts(("unit3-bossy",), Axiom.STRATEGY_PROOF) == {"pass"}
    assert verdicts(("unit3-bossy",), Axiom.NON_BOSSY) == {"fail"}
    for name in ("unit3-sd012", "slack3-sd012", "null3-sd012", "slack4-sd0123", "null4-sd3120"):
        report = oracle_report(*FAMILY[f"{name}-perturbed"], Axiom.GROUP_STRATEGY_PROOF)
        assert report["verdict"] == "fail" and report["profiles_checked"] > 1


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([UNIT3, SLACK3, NULL3]), st.integers(0, 215), st.integers(0, 23))
def test_perturbations_of_sd_agree_with_the_oracle_and_replay(inst, index, choice):
    rule = perturbed_sd(inst, index, choice)
    for axiom in CASES:
        assert_agrees_with_oracle(inst, rule, axiom)


THREE_AGENT_FAMILY = [name for name, (inst, _) in FAMILY.items() if inst.n == 3]


@pytest.mark.parametrize("axiom", CASES)
@pytest.mark.parametrize("name", THREE_AGENT_FAMILY)
def test_the_oracles_agree_at_three_agents(name, axiom):
    """The reachable-outcome verdict is the joint-report scan's, passes included."""
    witness, _ = joint_report_scan(*FAMILY[name], axiom)
    assert holds_by_reachable_outcomes(*FAMILY[name], axiom) == (witness is None)


@pytest.mark.parametrize("axiom", CASES)
@pytest.mark.parametrize("name", THREE_AGENT_FAMILY)
def test_every_profile_gets_the_earlier_bodys_witness(name, axiom):
    """At every profile, not only the scan's first violating one, the one body
    over the menus reports what the earlier body reports over every joint report."""
    inst, rule = FAMILY[name]
    definition, outcomes = _DEFINITIONS[axiom], Outcomes(inst, rule, False)
    deviations = brute_force_deviations(inst, axiom)
    for profile in enumerate_profiles(inst):
        menus = definition.deviations(profile, outcomes)
        expected = EARLIER_BODIES[axiom](None, profile, outcomes, deviations)
        assert definition.violation(profile, outcomes, menus) == expected, profile
