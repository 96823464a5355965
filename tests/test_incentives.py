"""The menu scan of the four incentive axioms against the brute-force
coalition x report oracle it replaced."""

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
    bossy_flip_rule,
    check_axiom,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
)
from axiomlab.axioms import _DEFINITIONS, Axiom, CheckOptions, _Context, replay_witness
from axiomlab.model import NULL_BOTTOM
from axiomlab.preferences import all_preferences
from axiomlab.rules import random_tabulated_rule, rule_label

UNIT3 = Instance(3, (1, 1, 1))
SLACK3 = Instance(3, (2, 1, 1))
NULL3 = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
SLACK4 = Instance(4, (2, 1, 1))
NULL4 = Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)

#: The four incentive axioms, with the coalition cap each is checked at.
CASES = [
    (Axiom.STRATEGY_PROOF, None),
    (Axiom.NON_BOSSY, None),
    (Axiom.PAIRWISE_STRATEGY_PROOF, None),
    (Axiom.GROUP_STRATEGY_PROOF, None),
    (Axiom.GROUP_STRATEGY_PROOF, 2),
]


def brute_force_deviations(inst, axiom, cap):
    """Every deviation in scan order: agents then misreports, or coalitions by
    size then membership, then every joint report lexicographically."""
    n, preferences = inst.n, all_preferences(inst)
    if axiom in (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY):
        return list(product(range(n), preferences))
    if axiom is Axiom.PAIRWISE_STRATEGY_PROOF:
        sizes = (2,)
    else:
        sizes = range(1, (n if cap is None else min(cap, n)) + 1)
    return [
        (coalition, reports)
        for size in sizes
        for coalition in combinations(range(n), size)
        for reports in product(preferences, repeat=size)
    ]


@lru_cache(maxsize=None)
def table_of(inst, rule):
    return {p: evaluate(inst, rule, p) for p in enumerate_profiles(inst)}


@lru_cache(maxsize=None)
def oracle_report(inst, rule, axiom, cap=None):
    """The ``to_dict()`` of a scan that runs the axiom's body on every deviation."""
    deviations = brute_force_deviations(inst, axiom, cap)
    violation, ctx, outcomes = _DEFINITIONS[axiom].violation, _Context(inst), table_of(inst, rule)
    verdict, witness, checked = "pass", None, 0
    for checked, profile in enumerate(enumerate_profiles(inst), 1):
        witness = violation(ctx, profile, outcomes, deviations)
        if witness is not None:
            verdict = "fail"
            break
    return {
        "axiom": axiom.value,
        "rule": rule_label(rule),
        "verdict": verdict,
        "witness": witness,
        "profiles_checked": checked,
    }


def perturbed_sd(inst, index, choice):
    """SD's table with the ``index``-th profile's matching replaced."""
    table = dict(table_of(inst, SerialDictatorshipRule((0, 1, 2))))
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
}


def assert_agrees_with_oracle(inst, rule, axiom, cap, workers=(1,)):
    expected = oracle_report(inst, rule, axiom, cap)
    for count in workers:
        report = check_axiom(inst, rule, axiom, CheckOptions(max_coalition=cap, workers=count))
        assert report.to_dict() == expected, (axiom, cap, count)
        if not report.passed:
            assert replay_witness(inst, rule, axiom, report.witness), (axiom, cap)


@pytest.mark.parametrize("axiom, cap", CASES)
@pytest.mark.parametrize("name", list(FAMILY))
def test_menus_agree_with_the_brute_force_oracle(name, axiom, cap):
    assert_agrees_with_oracle(*FAMILY[name], axiom, cap, workers=(1, 2))


def test_family_has_passing_and_failing_rules():
    def verdicts(names, axiom, cap):
        return {oracle_report(*FAMILY[name], axiom, cap)["verdict"] for name in names}

    for axiom, cap in CASES:
        assert verdicts(("slack4-sd0123", "null4-sd3120"), axiom, cap) == {"pass"}
        assert verdicts(("slack4-random11", "null4-random12"), axiom, cap) == {"fail"}
    assert verdicts(("unit3-bossy",), Axiom.STRATEGY_PROOF, None) == {"pass"}
    assert verdicts(("unit3-bossy",), Axiom.NON_BOSSY, None) == {"fail"}
    for name in ("unit3", "slack3", "null3"):
        report = oracle_report(*FAMILY[f"{name}-sd012-perturbed"], Axiom.GROUP_STRATEGY_PROOF)
        assert report["verdict"] == "fail" and report["profiles_checked"] > 1


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([UNIT3, SLACK3, NULL3]), st.integers(0, 215), st.integers(0, 23))
def test_perturbations_of_sd_agree_with_the_oracle_and_replay(inst, index, choice):
    rule = perturbed_sd(inst, index, choice)
    for axiom, cap in CASES:
        assert_agrees_with_oracle(inst, rule, axiom, cap)
