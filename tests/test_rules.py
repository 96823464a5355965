"""Serial dictatorship, RSD exactness, top trading cycles, and dispatch."""

import doctest
import math
from fractions import Fraction
from itertools import permutations

import pytest

from axiomlab import (
    NULL_BOTTOM,
    Instance,
    Lottery,
    PreconditionViolated,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    SizeOverflow,
    TabulatedDeterministicRule,
    TableMiss,
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
from axiomlab.model import object_usage
from axiomlab.preferences import weakly_prefers
from helpers import is_pareto_efficient


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
def test_orbit_rsd_matches_the_oracle_on_every_profile(inst):
    for profile in enumerate_profiles(inst):
        assert dict(random_serial_dictatorship(inst, profile).items()) == rsd_oracle(inst, profile)


def _relabelled(profile, agents):
    """The profile in which agent ``i`` reports what agent ``agents[i]`` reported."""
    return tuple(profile[a] for a in agents)


@pytest.mark.parametrize(
    "profile",
    [
        ((0, 1, 2),) * 5,
        ((0, 1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2), (2, 1, 0)),
        ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1)),
    ],
    ids=["all-equal", "two-two-one", "all-distinct"],
)
def test_orbit_rsd_matches_the_oracle_on_every_relabelling_n5(profile):
    """One profile per tie pattern at n=5, caps (2,2,2): every agent relabelling."""
    inst = Instance(5, (2, 2, 2))
    for agents in permutations(range(5)):
        relabelled = _relabelled(profile, agents)
        assert dict(random_serial_dictatorship(inst, relabelled).items()) == rsd_oracle(
            inst, relabelled
        )


def _count_sd_runs(monkeypatch):
    runs = []
    original = rules.serial_dictatorship

    def counted(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(rules, "serial_dictatorship", counted)
    return runs


def test_rsd_enumerates_orders_once_per_orbit(monkeypatch, slack3):
    """slack3 has 216 profiles in 56 orbits; Thm1 runs 3! orders on each orbit."""
    rules._orbit_lottery.cache_clear()
    runs = _count_sd_runs(monkeypatch)
    assert verify_theorem1(slack3, RandomSerialDictatorshipRule()).conclusion_verified
    assert len(runs) == 56 * 6


def test_every_relabelling_of_one_n6_profile_shares_one_enumeration(monkeypatch):
    inst = Instance(6, (2, 2, 2))
    profile = tuple(permutations(range(3)))  # six agents, six distinct preferences
    rules._orbit_lottery.cache_clear()
    runs = _count_sd_runs(monkeypatch)
    base = random_serial_dictatorship(inst, profile)
    for agents in permutations(range(6)):
        lottery = random_serial_dictatorship(inst, _relabelled(profile, agents))
        assert lottery == Lottery.from_weights(
            {_relabelled(m, agents): w for m, w in base.items()}
        )
    assert len(runs) == 720
    assert dict(base.items()) == rsd_oracle(inst, profile)


def test_rsd_checks_the_order_bound_before_any_run(monkeypatch, unit3):
    """The n! bound is checked on every call, also when the orbit is memoised."""
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    random_serial_dictatorship(unit3, profile)
    rules._orbit_lottery.cache_clear()
    runs = _count_sd_runs(monkeypatch)
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "5")
    with pytest.raises(SizeOverflow, match="6 agent orders exceed the bound of 5"):
        random_serial_dictatorship(unit3, profile)
    assert runs == []
    monkeypatch.delenv("AXIOMLAB_MAX_PROFILES")
    random_serial_dictatorship(unit3, profile)
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "5")
    with pytest.raises(SizeOverflow):
        random_serial_dictatorship(unit3, profile)
    assert len(runs) == 6


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
