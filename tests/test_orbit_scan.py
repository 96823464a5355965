"""The orbit scan: anonymous rules are scanned on their sorted profiles only.

Every report is held to the plain scan of every profile, called directly.
"""

import json
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    NULL_BOTTOM,
    Instance,
    Lottery,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TabulatedLotteryRule,
    check_axiom,
    count_profiles,
    enumerate_matchings,
    enumerate_profiles,
    matching_verdict,
    random_serial_dictatorship,
)
from axiomlab.axioms import RELABEL_INVARIANT, Axiom, Outcomes, _scan
from axiomlab.preferences import sorted_profiles
from helpers import rsd_with_one_changed_unsorted_entry, uniform_over

RSD = RandomSerialDictatorshipRule()
FIVE = sorted(RELABEL_INVARIANT, key=lambda a: a.value)

INSTANCES = {
    "unit3": Instance(3, (1, 1, 1)),
    "caps221": Instance(3, (2, 2, 1)),
    "caps211": Instance(3, (2, 1, 1)),
    "null3": Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
    "null4": Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
}


def _plain(inst, rule, axiom):
    """The report dict of the plain scan over every profile."""
    hit = _scan(Outcomes(inst, rule, True), axiom, None, "profiles")
    verdict, witness, checked = (
        ("pass", None, count_profiles(inst)) if hit is None else ("fail", hit[1], hit[0] + 1)
    )
    return {
        "axiom": axiom.value,
        "rule": "",
        "verdict": verdict,
        "witness": witness,
        "profiles_checked": checked,
    }


def _assert_matches_plain(inst, rule, axiom, scan, workers=(1, 2)):
    """At each worker count, the report has the plain scan's bytes and ran ``scan``.

    Returns the plain scan's verdict.
    """
    plain = _plain(inst, rule, axiom)
    for count in workers:
        report = check_axiom(inst, rule, axiom, workers=count)
        assert report.scan == scan, (axiom, count)
        expected = {**plain, "rule": report.rule}
        assert json.dumps(report.to_dict()) == json.dumps(expected), (axiom, count)
    return plain["verdict"]


def _position(profile):
    """Agent -> place in the profile's stable sort by preference, and the sorted profile."""
    order = sorted(range(len(profile)), key=profile.__getitem__)
    position = [0] * len(profile)
    for p, agent in enumerate(order):
        position[agent] = p
    return position, tuple(profile[a] for a in order)


def _relabelled(lottery, position):
    """The lottery with agent ``a`` given, in each matching, what agent ``position[a]`` gets."""
    return Lottery.from_weights({tuple(m[p] for p in position): w for m, w in lottery.items()})


def _orbit_table(inst, lottery_at_sorted):
    """Each profile's lottery: its sorted profile's, relabelled back to its agents."""
    sorted_lotteries = {p: lottery_at_sorted(p) for _, p in sorted_profiles(inst)}
    table = {}
    for profile in enumerate_profiles(inst):
        position, ordered = _position(profile)
        table[profile] = _relabelled(sorted_lotteries[ordered], position)
    return table


class _CountedTable(dict):
    """A table that records each profile read through ``__getitem__``."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = []

    def __getitem__(self, profile):
        self.reads.append(profile)
        return super().__getitem__(profile)


@pytest.mark.parametrize(
    "inst",
    [Instance(2, (1, 1)), Instance(3, (1, 1, 1)), INSTANCES["null4"], Instance(4, (2, 1, 1))],
    ids=["unit2", "unit3", "null4", "caps211-n4"],
)
def test_sorted_profiles_are_the_ascending_ones_with_their_full_index(inst):
    expected = [(i, p) for i, p in enumerate(enumerate_profiles(inst)) if list(p) == sorted(p)]
    assert list(sorted_profiles(inst)) == expected


@pytest.mark.parametrize("name", list(INSTANCES))
@pytest.mark.parametrize("axiom", FIVE, ids=lambda a: a.value)
def test_rsd_reports_match_the_plain_scan(name, axiom):
    _assert_matches_plain(INSTANCES[name], RSD, axiom, "orbits")


ANONYMOUS_FAILING = {
    "all": lambda inst: lambda m, p: True,
    "non-wasteful": lambda inst: lambda m, p: matching_verdict(inst, m, p, "non-wasteful") is None,
    "pairwise": lambda inst: lambda m, p: matching_verdict(inst, m, p, "pairwise") is None,
}


@pytest.mark.parametrize("kind", list(ANONYMOUS_FAILING))
@pytest.mark.parametrize("name", ["unit3", "caps211"])
def test_anonymous_failing_rules_report_the_plain_scans_witness(kind, name):
    inst = INSTANCES[name]
    rule = uniform_over(inst, ANONYMOUS_FAILING[kind](inst))
    verdicts = [_assert_matches_plain(inst, rule, axiom, "orbits") for axiom in FIVE]
    assert "fail" in verdicts


def test_anonymous_failing_rules_include_a_prob_monotonic_fail():
    inst = INSTANCES["unit3"]
    rule = uniform_over(inst, ANONYMOUS_FAILING["pairwise"](inst))
    report = check_axiom(inst, rule, Axiom.PROB_MONOTONIC)
    assert (report.verdict, report.scan) == ("fail", "orbits")
    assert report.profiles_checked > 1


@pytest.mark.parametrize("name", ["unit3", "caps211"])
def test_one_changed_unsorted_entry_gets_the_plain_scan(name):
    inst = INSTANCES[name]
    rule = rsd_with_one_changed_unsorted_entry(inst)
    assert not Outcomes(inst, rule, True).anonymous
    for axiom in FIVE:
        _assert_matches_plain(inst, rule, axiom, "profiles")


UNEVEN_TIES = {
    "unit3": (((0, 1, 2), (0, 1, 2), (1, 0, 2)), ((0, 1, 2), (1, 0, 2), (0, 1, 2))),
    "caps211": (((0, 1, 2), (1, 2, 0), (1, 2, 0)), ((1, 2, 0), (0, 1, 2), (1, 2, 0))),
}


def _uneven_tie_table(name):
    """RSD's table, except on the orbit of the sorted profile ``tied`` of
    ``UNEVEN_TIES``: ``tied`` gets a point lottery that gives two agents who
    report alike different objects, and the rest of the orbit its relabellings."""
    inst, (tied, _) = INSTANCES[name], UNEVEN_TIES[name]

    def lottery_at(profile):
        if profile == tied:
            return Lottery.point((0, 1, 2))
        return random_serial_dictatorship(inst, profile)

    return _orbit_table(inst, lottery_at)


@pytest.mark.parametrize(
    "name, tied, relabelled", [(name, *ties) for name, ties in UNEVEN_TIES.items()]
)
def test_a_sorted_profile_breaking_a_tie_unevenly_gets_the_plain_scan(name, tied, relabelled):
    """Every profile's lottery is its sorted profile's relabelled back, but the
    sorted profile ``tied`` gives two agents who report alike different objects."""
    inst = INSTANCES[name]
    table = _uneven_tie_table(name)
    position, _ = _position(relabelled)
    assert table[relabelled] == Lottery.point(tuple((0, 1, 2)[p] for p in position))
    rule = TabulatedLotteryRule(table)
    assert not Outcomes(inst, rule, True).anonymous
    for axiom in FIVE:
        _assert_matches_plain(inst, rule, axiom, "profiles", workers=(1,))
    if name == "caps211":
        # The first violation is at a profile that is not sorted: on the
        # sorted profiles alone the scan would report a later one.
        witness = _plain(inst, rule, Axiom.PROB_MONOTONIC)["witness"]
        assert list(witness["profile"]) != sorted(witness["profile"])


def test_the_pass_keeps_only_the_sorted_profiles_lotteries():
    inst = INSTANCES["caps211"]
    table = {p: random_serial_dictatorship(inst, p) for p in enumerate_profiles(inst)}
    for rule in (RSD, TabulatedLotteryRule(table)):
        outcomes = Outcomes(inst, rule, True)
        assert outcomes.anonymous
        assert set(outcomes) == {p for _, p in sorted_profiles(inst)}


@pytest.mark.parametrize("name", ["unit3", "caps211", "null3"])
def test_after_a_passed_pass_no_unsorted_profile_is_read_from_the_table(name):
    """Each profile reads its table entry, and only the pass reads the table."""
    inst = INSTANCES[name]
    table = {p: random_serial_dictatorship(inst, p) for p in enumerate_profiles(inst)}
    table = _CountedTable(table)
    outcomes = Outcomes(inst, TabulatedLotteryRule(table), True)
    assert outcomes.anonymous
    assert len(table.reads) == count_profiles(inst)
    table.reads.clear()
    for profile in enumerate_profiles(inst):
        assert outcomes[profile] == dict.__getitem__(table, profile)
    assert table.reads == []


@pytest.mark.parametrize("failure", ["changed", "unit3-tie", "caps211-tie"])
def test_after_a_failed_pass_every_read_is_the_tables_entry(failure):
    """A table that fails the pass is read in place everywhere: each profile
    reads the table's own entry, and is read from the table once."""
    if failure == "changed":
        inst = INSTANCES["caps211"]
        table = _CountedTable(rsd_with_one_changed_unsorted_entry(inst).table)
    else:
        name = failure.removesuffix("-tie")
        inst, table = INSTANCES[name], _CountedTable(_uneven_tie_table(name))
    outcomes = Outcomes(inst, TabulatedLotteryRule(table), True)
    assert not outcomes.anonymous
    kept = set(outcomes)
    table.reads.clear()
    for profile in enumerate_profiles(inst):
        assert outcomes[profile] is dict.__getitem__(table, profile)
    assert sorted(table.reads) == sorted(set(enumerate_profiles(inst)) - kept)


def test_a_rule_that_is_not_anonymous_gets_the_plain_scan():
    inst = INSTANCES["unit3"]
    report = check_axiom(inst, SerialDictatorshipRule((0, 1, 2)), Axiom.EX_POST_PARETO)
    assert (report.scan, report.scan_size, report.verdict) == ("profiles", 216, "pass")
    report = check_axiom(inst, RSD, Axiom.EX_POST_PARETO)
    assert (report.scan, report.scan_size, report.profiles_checked) == ("orbits", 56, 216)


def _stabiliser(profile):
    """Every relabelling that permutes agents with equal preferences among themselves."""
    blocks = {}
    for agent, pref in enumerate(profile):
        blocks.setdefault(pref, []).append(agent)
    for choice in product(*(permutations(b) for b in blocks.values())):
        position = list(range(len(profile)))
        for block, image in zip(blocks.values(), choice):
            for a, b in zip(block, image):
                position[a] = b
        yield position


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["unit3", "caps211", "null3"]), st.integers(0, 2**32 - 1))
def test_random_anonymous_tables_match_the_plain_scan(name, seed):
    inst = INSTANCES[name]
    rng = random.Random(seed)
    universe = enumerate_matchings(inst)

    def lottery_at(profile):
        drawn = {m: rng.randint(1, 3) for m in rng.sample(universe, rng.randint(1, 3))}
        drawn = Lottery(drawn, sum(drawn.values()))
        relabellings = list(_stabiliser(profile))
        weights = {}
        for position in relabellings:
            for m, w in _relabelled(drawn, position).items():
                weights[m] = weights.get(m, 0) + w / len(relabellings)
        return Lottery.from_weights(weights)

    table = _orbit_table(inst, lottery_at)
    assert Outcomes(inst, TabulatedLotteryRule(table), True).anonymous
    rule = TabulatedLotteryRule(table)
    for axiom in FIVE:
        _assert_matches_plain(inst, rule, axiom, "orbits", workers=(1,))
