"""Serial dictatorship, RSD exactness, top trading cycles, and dispatch."""

import doctest
import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    NULL_BOTTOM,
    Instance,
    Lottery,
    PreconditionViolated,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    SizeOverflow,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TableMiss,
    check_axiom,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
    evaluate_lottery,
    matching_verdict,
    random_serial_dictatorship,
    serial_dictatorship,
    top_trading_cycles,
    verify_theorem1,
)
from axiomlab import rules
from axiomlab.axioms import _DEFINITIONS, Axiom, Outcomes
from axiomlab.model import object_usage
from axiomlab.preferences import all_preferences, orbit_count, weakly_prefers
from helpers import is_pareto_efficient, plain_report


def rsd_oracle(inst, profile):
    """Independent RSD computation: a from-scratch dictatorship per order."""
    counts = {}
    for order in permutations(range(inst.n)):
        left = list(inst.capacities)
        out = [None] * inst.n
        for agent in order:
            for obj in profile[agent]:
                if left[obj] > 0:
                    left[obj] -= 1
                    out[agent] = obj
                    break
        key = tuple(out)
        counts[key] = counts.get(key, 0) + 1
    total = math.factorial(inst.n)
    return {m: Fraction(c, total) for m, c in counts.items()}


def test_rules_doctests():
    import axiomlab.rules as rules_module

    failures, _ = doctest.testmod(rules_module)
    assert failures == 0


def test_serial_dictatorship_orders():
    inst = Instance(2, (1, 1))
    profile = ((0, 1), (0, 1))
    assert serial_dictatorship(inst, (0, 1), profile) == (0, 1)
    assert serial_dictatorship(inst, (1, 0), profile) == (1, 0)


def test_sd_outputs_exactly_the_pareto_efficient_matchings(unit3):
    """Cross-oracle: {SD(order)} equals the brute-force Pareto-efficient set."""
    matchings = enumerate_matchings(unit3)
    orders = list(permutations(range(3)))
    for profile in enumerate_profiles(unit3):
        sd_set = {serial_dictatorship(unit3, order, profile) for order in orders}
        pareto_set = {
            m for m in matchings if is_pareto_efficient(unit3, m, profile, matchings)
        }
        assert sd_set == pareto_set


def test_sd_pareto_cross_oracle_sampled_n4():
    import random

    inst = Instance(4, (1, 1, 1, 1))
    matchings = enumerate_matchings(inst)
    orders = list(permutations(range(4)))
    prefs = list(permutations(range(4)))
    rng = random.Random(404)
    for _ in range(40):
        profile = tuple(prefs[rng.randrange(len(prefs))] for _ in range(4))
        sd_set = {serial_dictatorship(inst, order, profile) for order in orders}
        pareto_set = {
            m for m in matchings if is_pareto_efficient(inst, m, profile, matchings)
        }
        assert sd_set == pareto_set


def test_sd_respects_capacities():
    inst = Instance(4, (2, 1, 1))
    for profile in enumerate_profiles(inst):
        for order in permutations(range(4)):
            outcome = serial_dictatorship(inst, order, profile)
            usage = object_usage(inst, outcome)
            assert all(usage[o] <= inst.capacities[o] for o in range(inst.k))


def test_rsd_two_agents():
    inst = Instance(2, (1, 1))
    same = ((0, 1), (0, 1))
    lottery = random_serial_dictatorship(inst, same)
    assert lottery.weight((0, 1)) == Fraction(1, 2)
    assert lottery.weight((1, 0)) == Fraction(1, 2)
    disjoint = ((0, 1), (1, 0))
    assert random_serial_dictatorship(inst, disjoint) == Lottery.point((0, 1))


def test_rsd_three_agents_frozen(unit3):
    """Weights for agents (a>b>c, a>b>c, b>a>c), frozen from the 6-order oracle."""
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    lottery = random_serial_dictatorship(unit3, profile)
    expected = {
        (0, 1, 2): Fraction(1, 6),
        (0, 2, 1): Fraction(1, 3),
        (1, 0, 2): Fraction(1, 6),
        (2, 0, 1): Fraction(1, 3),
    }
    assert dict(lottery.items()) == expected
    assert dict(lottery.items()) == rsd_oracle(unit3, profile)


def test_rsd_matches_oracle_everywhere(unit3):
    for profile in enumerate_profiles(unit3):
        lottery = random_serial_dictatorship(unit3, profile)
        oracle = rsd_oracle(unit3, profile)
        assert dict(lottery.items()) == oracle
        assert sum(w for _, w in lottery.items()) == 1
        assert all(w.denominator in (1, 2, 3, 6) for _, w in lottery.items())


@pytest.mark.parametrize(
    "inst",
    [
        Instance(3, (2, 1, 1)),
        Instance(4, (2, 1, 1)),
        Instance(4, (2, 2, 1)),
        Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
    ],
    ids=["slack3", "caps211", "caps221", "null4"],
)
def test_rsd_matches_the_oracle_on_every_profile(inst):
    for profile in enumerate_profiles(inst):
        assert dict(random_serial_dictatorship(inst, profile).items()) == rsd_oracle(inst, profile)


def _relabelled(profile, agents):
    """The profile in which agent ``i`` reports what agent ``agents[i]`` reported."""
    return tuple(profile[a] for a in agents)


N5_PROFILES = [
    ((0, 1, 2),) * 5,
    ((0, 1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2), (2, 1, 0)),
    ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1)),
]


@pytest.mark.parametrize("profile", N5_PROFILES, ids=["all-equal", "two-two-one", "all-distinct"])
def test_rsd_matches_the_oracle_on_every_relabelling_n5(profile):
    """One profile per tie pattern at n=5, caps (2,2,2): every agent relabelling."""
    inst = Instance(5, (2, 2, 2))
    for agents in permutations(range(5)):
        relabelled = _relabelled(profile, agents)
        assert dict(random_serial_dictatorship(inst, relabelled).items()) == rsd_oracle(
            inst, relabelled
        )


@st.composite
def rsd_instances_and_profiles(draw):
    """n <= 5 agents, 2-4 objects, capacities totalling n (tight) or up to n + 2
    (slack), zeros allowed; either domain, and a random profile in it."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    total = n + draw(st.integers(0, 2))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    capacities = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
    if draw(st.booleans()):
        inst = Instance(n, capacities, null_object=0, domain=NULL_BOTTOM)
    else:
        inst = Instance(n, capacities)
    preferences = st.sampled_from(all_preferences(inst))
    return inst, tuple(draw(st.lists(preferences, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(rsd_instances_and_profiles())
def test_rsd_matches_the_oracle_on_random_instances(case):
    inst, profile = case
    assert dict(random_serial_dictatorship(inst, profile).items()) == rsd_oracle(inst, profile)


@pytest.mark.parametrize(
    "inst, profile",
    [
        (Instance(6, (2, 2, 2)), tuple(permutations(range(3)))),
        (Instance(6, (2, 2, 2)), ((0, 1, 2),) * 3 + ((1, 0, 2),) * 2 + ((2, 0, 1),)),
        (Instance(7, (2, 2, 2, 1)), tuple(permutations(range(4)))[::3][:7]),
        (Instance(7, (3, 2, 2)), ((0, 1, 2),) * 3 + ((1, 0, 2),) * 2 + ((2, 1, 0), (0, 2, 1))),
    ],
    ids=["n6-all-distinct", "n6-mixed-ties", "n7-all-distinct", "n7-mixed-ties"],
)
def test_rsd_matches_the_oracle_at_n6_and_n7(inst, profile):
    """The oracle runs 720 orders at n=6 and 5,040 at n=7."""
    assert len(profile) == inst.n
    assert dict(random_serial_dictatorship(inst, profile).items()) == rsd_oracle(inst, profile)


RSD_INSTANCES = {
    "slack3": Instance(3, (2, 1, 1)),
    "caps211": Instance(4, (2, 1, 1)),
    "caps221": Instance(4, (2, 2, 1)),
    "null4": Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
}


def _every_irrational_profile(outcomes):
    """Every violation of individual rationality as ``(index, witness)``, each
    agent endowed with the last object: the axiom's body run on the table's
    read at each profile, in enumeration order."""
    definition = _DEFINITIONS[Axiom.INDIVIDUAL_RATIONALITY]
    endowment = (outcomes.inst.k - 1,) * outcomes.inst.n
    hits = []
    for idx, profile in enumerate(enumerate_profiles(outcomes.inst)):
        deviations = definition.deviations(endowment, profile, outcomes)
        if witness := definition.violation(profile, outcomes, deviations):
            hits.append((idx, witness))
    return hits


@pytest.mark.parametrize("name", sorted(RSD_INSTANCES))
def test_rsd_outcomes_equal_rsd_at_every_profile(name):
    """An RSD ``Outcomes`` relabels its sorted profiles' lotteries from the start.

    Its reads equal RSD run at each profile: read by the individual-rationality
    body at every profile, with no anonymity pass, before the pass and after it.
    """
    inst = RSD_INSTANCES[name]
    direct = {p: random_serial_dictatorship(inst, p) for p in enumerate_profiles(inst)}
    scanned = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    hits = _every_irrational_profile(scanned)
    assert hits == _every_irrational_profile(Outcomes(inst, TabulatedLotteryRule(direct), True))
    assert hits and len(scanned) == len(direct)
    assert "anonymous" not in scanned.__dict__
    assert all(scanned[p] == lottery for p, lottery in direct.items())
    passed = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    assert passed.anonymous
    assert all(passed[p] == lottery for p, lottery in direct.items())


@pytest.mark.parametrize("profile", N5_PROFILES, ids=["all-equal", "two-two-one", "all-distinct"])
def test_rsd_outcomes_equal_rsd_on_every_relabelling_n5(profile):
    """Read before and after the pass, at every agent relabelling."""
    inst = Instance(5, (2, 2, 2))
    relabellings = [_relabelled(profile, agents) for agents in permutations(range(5))]
    before = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    after = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    assert after.anonymous
    for relabelled in relabellings:
        direct = random_serial_dictatorship(inst, relabelled)
        assert before[relabelled] == direct and after[relabelled] == direct


def _count_rsd_evaluations(monkeypatch):
    evaluations = []
    original = rules.random_serial_dictatorship

    def counted(*args):
        evaluations.append(args)
        return original(*args)

    monkeypatch.setattr(rules, "random_serial_dictatorship", counted)
    return evaluations


def test_rsd_harness_runs_the_orders_once_per_sorted_profile(monkeypatch, slack3):
    """slack3 has 216 profiles, 56 of them sorted and 28 of those first in
    their orbits under agent and object relabellings; Thm1 evaluates RSD once
    on each of the 28."""
    evaluations = _count_rsd_evaluations(monkeypatch)
    assert verify_theorem1(slack3, RandomSerialDictatorshipRule()).conclusion_verified
    assert len(evaluations) == 28


def test_rsd_outcomes_run_the_orders_once_per_sorted_profile(monkeypatch):
    """Every relabelling of one n=6 profile reads one sorted profile: one RSD
    evaluation, and RSD called directly makes its own at each profile."""
    inst = Instance(6, (2, 2, 2))
    profile = tuple(permutations(range(3)))  # six agents, six distinct preferences
    evaluations = _count_rsd_evaluations(monkeypatch)
    outcomes = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    base = outcomes[profile]
    for agents in permutations(range(6)):
        lottery = outcomes[_relabelled(profile, agents)]
        assert lottery == Lottery.from_weights(
            {_relabelled(m, agents): w for m, w in base.items()}
        )
    assert len(evaluations) == 1
    assert dict(base.items()) == rsd_oracle(inst, profile)
    swapped = _relabelled(profile, (1, 0, 2, 3, 4, 5))
    assert rules.random_serial_dictatorship(inst, swapped) == outcomes[swapped]
    assert len(evaluations) == 2  # a direct call shares nothing with the table


# unit3 has relabellings that are 3-cycles; on caps (2,2,1,1) two classes move
# at once; null3 keeps its null object fixed.
HEAD_READ_INSTANCES = {
    "unit3": Instance(3, (1, 1, 1)),
    "caps2211-n2": Instance(2, (2, 2, 1, 1)),
    "caps2211-n3": Instance(3, (2, 2, 1, 1)),
    "null3": Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
    "caps222-n4": Instance(4, (2, 2, 2)),
}


def rsd_reads_match_the_oracle(inst, outcomes):
    """Every profile's read from ``outcomes``, RSD's table, is ``rsd_oracle``'s."""
    return all(dict(outcomes[p].items()) == rsd_oracle(inst, p) for p in enumerate_profiles(inst))


@pytest.mark.parametrize("name", HEAD_READ_INSTANCES)
def test_rsd_reads_are_the_order_oracle_before_and_after_the_pass(name):
    """Before the pass every profile reads its sorted profile's lottery; after
    it, its orbit head's, carried through an object relabelling.  The pass
    evaluates RSD at the heads only, and no read after it evaluates RSD."""
    inst = HEAD_READ_INSTANCES[name]
    before = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    assert rsd_reads_match_the_oracle(inst, before)
    assert before.evaluations == orbit_count(inst, agents=True)
    after = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    assert after.anonymous and after.neutral
    assert after.evaluations == orbit_count(inst, agents=True, objects=True)
    assert rsd_reads_match_the_oracle(inst, after)
    assert after.evaluations == orbit_count(inst, agents=True, objects=True)


@pytest.mark.parametrize("endowment", [(1, 2, 0), (0, 1, 2), (2, 1, 0)])
def test_individual_rationality_of_rsd_is_the_plain_scan_before_and_after_the_pass(
    unit3, endowment
):
    """Individual rationality runs no pass, alone or on a table whose pass an
    earlier check of a harness ran, and reads through the heads only then."""
    axiom = Axiom.INDIVIDUAL_RATIONALITY
    plain = plain_report(unit3, RandomSerialDictatorshipRule(), axiom, endowment)
    table = Outcomes(unit3, RandomSerialDictatorshipRule(), True)
    assert check_axiom(unit3, table, axiom, endowment).to_dict() == plain
    assert not table._heads
    table = Outcomes(unit3, RandomSerialDictatorshipRule(), True)
    assert check_axiom(unit3, table, Axiom.EX_POST_PARETO).passed and table._heads
    assert check_axiom(unit3, table, axiom, endowment).to_dict() == plain


class _Unreadable(tuple):
    """A profile whose preferences fail the test when read, as building a layer reads them."""

    def __getitem__(self, agent):
        raise AssertionError("a layer was built")


def test_rsd_checks_the_order_bound_before_any_run(monkeypatch, unit3):
    """The n! bound is checked on every call, before any layer is built."""
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "5")
    with pytest.raises(SizeOverflow, match="6 agent orders exceed the bound of 5"):
        random_serial_dictatorship(unit3, _Unreadable(profile))
    monkeypatch.delenv("AXIOMLAB_MAX_PROFILES")
    with pytest.raises(AssertionError, match="a layer was built"):
        random_serial_dictatorship(unit3, _Unreadable(profile))
    random_serial_dictatorship(unit3, profile)
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "5")
    with pytest.raises(SizeOverflow, match="6 agent orders"):
        random_serial_dictatorship(unit3, _Unreadable(profile))
    original = rules.random_serial_dictatorship
    monkeypatch.setattr(
        rules, "random_serial_dictatorship", lambda inst, p: original(inst, _Unreadable(p))
    )
    with pytest.raises(SizeOverflow, match="6 agent orders"):
        Outcomes(unit3, RandomSerialDictatorshipRule(), True)[profile]


def test_rsd_rejects_a_profile_that_leaves_an_agent_unserved():
    with pytest.raises(PreconditionViolated, match="agent 1 ranks no object with capacity left"):
        random_serial_dictatorship(Instance(2, (1, 1)), ((0,), (0,)))


def test_rsd_support_is_ex_post_pareto_efficient():
    for inst in (Instance(3, (1, 1, 1)), Instance(4, (2, 1, 1))):
        matchings = enumerate_matchings(inst)
        for profile in enumerate_profiles(inst):
            for matching in random_serial_dictatorship(inst, profile).support():
                assert is_pareto_efficient(inst, matching, profile, matchings)


def test_ttc_examples():
    inst = Instance(3, (1, 1, 1))
    endow = (0, 1, 2)
    own_top = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    assert top_trading_cycles(inst, endow, own_top) == endow
    swap = ((1, 0, 2), (0, 1, 2), (2, 0, 1))
    assert top_trading_cycles(inst, endow, swap) == (1, 0, 2)
    rotation = ((1, 0, 2), (2, 1, 0), (0, 1, 2))
    assert top_trading_cycles(inst, endow, rotation) == (1, 2, 0)


def test_ttc_rejects_non_housing_markets():
    with pytest.raises(PreconditionViolated):
        top_trading_cycles(Instance(3, (2, 1, 1)), (0, 1, 2), ((0, 1, 2),) * 3)
    inst = Instance(3, (1, 1, 1))
    with pytest.raises(PreconditionViolated):
        top_trading_cycles(inst, (0, 0, 2), ((0, 1, 2),) * 3)


def test_ttc_efficient_and_individually_rational():
    """Exhaustive n=3: TTC output is pairwise efficient, Pareto efficient, and
    leaves nobody worse than her endowment, for every endowment."""
    inst = Instance(3, (1, 1, 1))
    matchings = enumerate_matchings(inst)
    for endowment in permutations(range(3)):
        for profile in enumerate_profiles(inst):
            outcome = top_trading_cycles(inst, endowment, profile)
            assert matching_verdict(inst, outcome, profile, "pairwise") is None
            assert is_pareto_efficient(inst, outcome, profile, matchings)
            assert all(
                weakly_prefers(profile[i], outcome[i], endowment[i]) for i in range(3)
            )


def test_evaluate_dispatch(unit3):
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    order = (2, 0, 1)
    assert evaluate(unit3, SerialDictatorshipRule(order), profile) == serial_dictatorship(
        unit3, order, profile
    )
    assert evaluate(unit3, RandomSerialDictatorshipRule(), profile) == (
        random_serial_dictatorship(unit3, profile)
    )
    table = {profile: (2, 1, 0)}
    rule = TabulatedDeterministicRule(table)
    assert evaluate(unit3, rule, profile) == (2, 1, 0)
    with pytest.raises(TableMiss):
        evaluate(unit3, rule, ((0, 1, 2),) * 3)
    degenerate = evaluate_lottery(unit3, SerialDictatorshipRule(order), profile)
    assert len(degenerate.support()) == 1
    assert degenerate.weight(serial_dictatorship(unit3, order, profile)) == 1


def test_lottery_validation():
    with pytest.raises(ValueError):
        Lottery.from_weights({(0, 1): Fraction(1, 2)})  # does not sum to 1
    with pytest.raises(ValueError):
        Lottery.from_weights({(0, 1): Fraction(3, 2), (1, 0): Fraction(-1, 2)})
    lottery = Lottery.from_weights({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2), (1, 1): Fraction(0)})
    assert lottery.support() == ((0, 1), (1, 0))  # zero weight dropped, sorted
