"""The single-agent monotonicity scan against a brute-force all-pairs oracle."""

from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    Instance,
    Lottery,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TableMiss,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TopTradingCyclesRule,
    check_axiom,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
    evaluate_lottery,
    is_monotonic_transformation,
    verify_proposition1,
    verify_theorem1,
)
from axiomlab.axioms import _DEFINITIONS, Axiom, Outcomes, replay_witness
from axiomlab.model import NULL_BOTTOM
from axiomlab.rules import is_lottery_rule
from helpers import bossy_flip_rule, plain_report, random_tabulated_rule

UNIT3 = Instance(3, (1, 1, 1))
NULL3 = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
SLACK4 = Instance(4, (2, 1, 1))
NULL4 = Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
SD = SerialDictatorshipRule((0, 1, 2))
RSD = RandomSerialDictatorshipRule()
MONOTONICITY = (Axiom.MASKIN_MONOTONIC, Axiom.PROB_MONOTONIC)


def oracle_violations(inst, rule):
    """Every violating ``(index, profile, transformed, matching)``, in the order
    of the all-pairs scan: profiles, then every profile filtered by
    ``is_monotonic_transformation``, then support matchings.

    A deterministic rule is its weight-1 lottery, so one oracle serves both
    monotonicity axioms.
    """
    profiles = list(enumerate_profiles(inst))
    lotteries = {p: evaluate_lottery(inst, rule, p) for p in profiles}
    for index, profile in enumerate(profiles):
        lottery = lotteries[profile]
        for transformed in profiles:
            for matching in lottery.support():
                if is_monotonic_transformation(profile, transformed, matching) and (
                    lotteries[transformed].weight(matching) < lottery.weight(matching)
                ):
                    yield index, profile, transformed, matching


def changed_agents(violation):
    _, profile, transformed, _ = violation
    return [i for i, (a, b) in enumerate(zip(profile, transformed)) if a != b]


def first_multi_agent_violation(inst, rule):
    """The oracle's first violation whose transformation changes two agents or more."""
    return next((v for v in oracle_violations(inst, rule) if len(changed_agents(v)) >= 2), None)


def applicable(rule):
    return (Axiom.PROB_MONOTONIC,) if is_lottery_rule(rule) else MONOTONICITY


def assert_agrees_with_oracle(inst, rule):
    """Same verdict as the all-pairs oracle; a fail reports the first violation
    among single-agent transformations, in the documented scan order."""
    expected, violated = None, False
    for index, violations in groupby(oracle_violations(inst, rule), key=lambda v: v[0]):
        violated = True
        single = [v for v in violations if len(changed_agents(v)) == 1]
        if single:  # support matchings, then the agent, then the transformed profile
            first = min(single, key=lambda v: (v[3], changed_agents(v), v[2]))
            expected = index + 1, first[1:]
            break
    for axiom in applicable(rule):
        report = check_axiom(inst, rule, axiom)
        assert report.passed != violated, axiom
        if not report.passed:
            profiles_checked, violation = expected
            assert report.profiles_checked == profiles_checked, axiom
            assert report.witness == witness_for(inst, rule, axiom, *violation), axiom
            assert replay_witness(inst, rule, axiom, report.witness), axiom


def witness_for(inst, rule, axiom, profile, transformed, matching):
    """The witness a scan reports for this violation."""
    if axiom is Axiom.MASKIN_MONOTONIC:
        return {
            "kind": "monotonicity",
            "profile": profile,
            "transformed": transformed,
            "matching": matching,
            "new_outcome": evaluate(inst, rule, transformed),
        }
    return {
        "kind": "prob_monotonicity",
        "profile": profile,
        "transformed": transformed,
        "matching": matching,
        "weight_before": str(evaluate_lottery(inst, rule, profile).weight(matching)),
        "weight_after": str(evaluate_lottery(inst, rule, transformed).weight(matching)),
    }


@lru_cache(maxsize=None)
def table_of(inst, rule):
    return {p: evaluate(inst, rule, p) for p in enumerate_profiles(inst)}


def perturbed(inst, base, index, first, second):
    """``base`` tabulated, with the entry at the ``index``-th profile replaced:
    a deterministic base gets the ``first`` matching, a lottery base the
    uniform lottery on the ``first`` and ``second`` matchings."""
    universe = enumerate_matchings(inst)
    table = dict(table_of(inst, base))
    profile = list(table)[index % len(table)]
    first, second = universe[first % len(universe)], universe[second % len(universe)]
    if not is_lottery_rule(base):
        table[profile] = first
        return TabulatedDeterministicRule(table)
    table[profile] = half_and_half(first, second)
    return TabulatedLotteryRule(table)


def half_and_half(first, second):
    if first == second:
        return Lottery.point(first)
    return Lottery.from_weights({first: Fraction(1, 2), second: Fraction(1, 2)})


def mixture(inst, a, b):
    """The 50/50 mixture of two deterministic rules, tabulated."""
    return TabulatedLotteryRule(
        {
            p: half_and_half(evaluate(inst, a, p), evaluate(inst, b, p))
            for p in enumerate_profiles(inst)
        }
    )


def constant(inst, matching):
    return TabulatedDeterministicRule({p: matching for p in enumerate_profiles(inst)})


FAMILY = {
    "unit-sd": (UNIT3, SD),
    "unit-sd-201": (UNIT3, SerialDictatorshipRule((2, 0, 1))),
    "unit-ttc": (UNIT3, TopTradingCyclesRule((0, 1, 2))),
    "unit-bossy": (UNIT3, bossy_flip_rule(UNIT3)),
    "unit-constant": (UNIT3, constant(UNIT3, (2, 0, 1))),
    "unit-rsd": (UNIT3, RSD),
    "unit-sd-mixture": (UNIT3, mixture(UNIT3, SD, SerialDictatorshipRule((2, 1, 0)))),
    "unit-sd-perturbed-first": (UNIT3, perturbed(UNIT3, SD, 0, 1, 1)),
    "unit-sd-perturbed-middle": (UNIT3, perturbed(UNIT3, SD, 107, 4, 4)),
    "unit-sd-perturbed-last": (UNIT3, perturbed(UNIT3, SD, 215, 0, 0)),
    "unit-rsd-perturbed": (UNIT3, perturbed(UNIT3, RSD, 150, 2, 5)),
    "null-sd": (NULL3, SD),
    "null-constant": (NULL3, constant(NULL3, (1, 2, 3))),
    "null-rsd": (NULL3, RSD),
    "null-sd-mixture": (NULL3, mixture(NULL3, SD, SerialDictatorshipRule((1, 2, 0)))),
    "null-sd-perturbed": (NULL3, perturbed(NULL3, SD, 100, 3, 3)),
    "null-rsd-perturbed": (NULL3, perturbed(NULL3, RSD, 60, 7, 9)),
}


@pytest.mark.parametrize("name", list(FAMILY))
def test_single_agent_steps_agree_with_the_all_pairs_oracle(name):
    assert_agrees_with_oracle(*FAMILY[name])


#: Four agents: SD, which passes, and SD with the entry at one profile replaced
#: by another matching, which fails mid-domain.  The first violation of
#: ``slack4-sd-perturbed-148`` and ``null4-sd-perturbed-111`` is a step of the
#: fourth agent.  Fixed cases, since one run of the all-pairs oracle on 1,296
#: profiles takes seconds.
FOUR_AGENT_CASES = {
    "slack4-sd": (SLACK4, (0, 1, 2, 3), None),
    "slack4-sd-perturbed-148": (SLACK4, (0, 1, 2, 3), (148, 3)),
    "slack4-sd-perturbed-400": (SLACK4, (0, 1, 2, 3), (400, 5)),
    "null4-sd": (NULL4, (3, 1, 2, 0), None),
    "null4-sd-perturbed-111": (NULL4, (3, 1, 2, 0), (111, 5)),
    "null4-sd-perturbed-777": (NULL4, (3, 1, 2, 0), (777, 9)),
}


@pytest.mark.parametrize("name", list(FOUR_AGENT_CASES))
def test_four_agent_steps_agree_with_the_all_pairs_oracle(name):
    inst, rule = four_agent_rule(name)
    change = FOUR_AGENT_CASES[name][2]
    assert check_axiom(inst, rule, Axiom.MASKIN_MONOTONIC).passed == (change is None)
    assert_agrees_with_oracle(inst, rule)


def four_agent_rule(name):
    inst, order, change = FOUR_AGENT_CASES[name]
    rule = SerialDictatorshipRule(order)
    if change is not None:
        index, matching = change
        rule = perturbed(inst, rule, index, matching, matching)
    return inst, rule


@pytest.mark.parametrize("name", [*FAMILY, *FOUR_AGENT_CASES])
def test_monotonicity_reports_are_the_plain_scans(name):
    """The bodies take every step to be monotonic; whichever stream the check
    scans, its reports are the plain scan's of every profile."""
    inst, rule = FAMILY[name] if name in FAMILY else four_agent_rule(name)
    for axiom in applicable(rule):
        assert check_axiom(inst, rule, axiom).to_dict() == plain_report(inst, rule, axiom), axiom


def test_a_witness_whose_transformation_is_not_monotonic_does_not_replay():
    """Agent 0 moves object 1 above object 0, the object she holds.  The outcome
    changes and the weight of the matching falls, so each body alone reports
    the forged witness; the ``recorded`` readers reject it."""
    inst, profile = UNIT3, ((0, 1, 2),) * 3
    transformed = ((1, 0, 2),) + profile[1:]
    for axiom, rule in ((Axiom.MASKIN_MONOTONIC, SD), (Axiom.PROB_MONOTONIC, RSD)):
        outcomes = Outcomes(inst, rule, axiom is Axiom.PROB_MONOTONIC)
        matching = (0, 1, 2)
        assert not is_monotonic_transformation(profile, transformed, matching)
        deviation = transformed if axiom is Axiom.MASKIN_MONOTONIC else (transformed, matching)
        witness = _DEFINITIONS[axiom].violation(profile, outcomes, [deviation])
        assert witness is not None and witness["matching"] == matching, axiom
        assert check_axiom(inst, rule, axiom).passed, axiom
        assert not replay_witness(inst, rule, axiom, witness), axiom


def test_family_has_passing_and_failing_rules():
    verdicts = {
        name: check_axiom(inst, rule, Axiom.PROB_MONOTONIC).passed
        for name, (inst, rule) in FAMILY.items()
    }
    assert verdicts["unit-rsd"] and verdicts["null-sd"]
    assert not verdicts["unit-bossy"] and not verdicts["null-rsd-perturbed"]


def test_a_multi_agent_witness_of_the_all_pairs_scan_replays():
    """Witnesses recorded before the single-agent scan transform several agents."""
    inst, rule = FAMILY["unit-sd-perturbed-last"]
    violation = first_multi_agent_violation(inst, rule)
    for axiom in MONOTONICITY:
        witness = witness_for(inst, rule, axiom, *violation[1:])
        assert replay_witness(inst, rule, axiom, witness)


perturbations = st.tuples(
    st.sampled_from([UNIT3, NULL3]),
    st.sampled_from([SD, RSD]),
    st.integers(0, 215),
    st.integers(0, 23),
    st.integers(0, 23),
)


@settings(max_examples=30, deadline=None)
@given(perturbations)
def test_perturbations_agree_with_the_oracle_and_replay(args):
    inst = args[0]
    rule = perturbed(*args)
    assert_agrees_with_oracle(inst, rule)
    multi_agent = first_multi_agent_violation(inst, rule)
    if multi_agent is not None:
        for axiom in applicable(rule):
            witness = witness_for(inst, rule, axiom, *multi_agent[1:])
            assert replay_witness(inst, rule, axiom, witness)


HARNESSES = {"thm1": verify_theorem1, "prop1": verify_proposition1}


@pytest.mark.parametrize(
    "axiom, base",
    [
        *product((Axiom.EX_POST_PARETO, Axiom.MASKIN_MONOTONIC), ("sd", "random")),
        *product((Axiom.EX_POST_PARETO, Axiom.PROB_MONOTONIC), ("rsd", "random-lottery")),
        *product(("thm1",), ("sd", "random", "rsd", "random-lottery")),
        *product(("prop1",), ("sd", "random")),
    ],
)
@pytest.mark.parametrize("inst", [UNIT3, NULL3], ids=["unit3", "null3"])
def test_a_table_missing_its_last_profile_raises(axiom, base, inst):
    """Every scan and harness checks that a table is total before reading it, so
    a gap is never skipped, even when the scan stops at an early violation, on
    the general domain and on the null-bottom one."""
    rule = {"sd": SD, "rsd": RSD}.get(base) or random_tabulated_rule(inst, 11)
    table = dict(table_of(inst, rule))
    table.popitem()
    if base in ("sd", "random"):
        rule = TabulatedDeterministicRule(table)
    else:
        rule = TabulatedLotteryRule({p: evaluate_lottery(inst, rule, p) for p in table})
    with pytest.raises(TableMiss):
        if axiom in HARNESSES:
            HARNESSES[axiom](inst, rule)
        else:
            check_axiom(inst, rule, axiom)
