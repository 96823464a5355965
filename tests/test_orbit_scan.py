"""The orbit scans: an anonymous rule is scanned on its sorted profiles, a
neutral one on the profiles that come first in their object orbits, and a rule
that is both on the profiles that come first under both relabellings.

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
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TopTradingCyclesRule,
    check_axiom,
    count_profiles,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
    matching_verdict,
    random_serial_dictatorship,
)
from axiomlab.axioms import DETERMINISTIC_ONLY, RELABEL_INVARIANT, Axiom, Outcomes
from axiomlab.preferences import nontrivial_relabellings, orbit_count, orbit_profiles
from axiomlab.rules import is_lottery_rule
from helpers import (
    object_relabellings,
    plain_report,
    random_tabulated_rule,
    renamed,
    rsd_with_one_changed_unsorted_entry,
    symmetrised,
    uniform_over,
)

RSD = RandomSerialDictatorshipRule()
FIVE = sorted(RELABEL_INVARIANT, key=lambda a: a.value)

INSTANCES = {
    "unit3": Instance(3, (1, 1, 1)),
    "caps221": Instance(3, (2, 2, 1)),
    "caps211": Instance(3, (2, 1, 1)),
    "null3": Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
    "null4": Instance(4, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
}


def _assert_matches_plain(inst, rule, axiom, scan):
    """The report has the plain scan's bytes and ran ``scan``.

    Returns the plain scan's verdict.
    """
    plain = plain_report(inst, rule, axiom)
    report = check_axiom(inst, rule, axiom)
    assert report.scan == scan, axiom
    assert json.dumps(report.to_dict()) == json.dumps(plain), axiom
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
    sorted_lotteries = {p: lottery_at_sorted(p) for _, p in orbit_profiles(inst, agents=True)}
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


@pytest.mark.parametrize("name", list(INSTANCES))
@pytest.mark.parametrize("axiom", FIVE, ids=lambda a: a.value)
def test_rsd_reports_match_the_plain_scan(name, axiom):
    _assert_matches_plain(INSTANCES[name], RSD, axiom, "agent_object_orbits")


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
    verdicts = [_assert_matches_plain(inst, rule, axiom, "agent_object_orbits") for axiom in FIVE]
    assert "fail" in verdicts


def test_anonymous_failing_rules_include_a_prob_monotonic_fail():
    inst = INSTANCES["unit3"]
    rule = uniform_over(inst, ANONYMOUS_FAILING["pairwise"](inst))
    report = check_axiom(inst, rule, Axiom.PROB_MONOTONIC)
    assert (report.verdict, report.scan) == ("fail", "agent_object_orbits")
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
        _assert_matches_plain(inst, rule, axiom, "profiles")
    if name == "caps211":
        # The first violation is at a profile that is not sorted: on the
        # sorted profiles alone the scan would report a later one.
        witness = plain_report(inst, rule, Axiom.PROB_MONOTONIC)["witness"]
        assert list(witness["profile"]) != sorted(witness["profile"])


def test_the_pass_keeps_only_the_sorted_profiles_lotteries():
    """A table's pass keeps its sorted profiles' lotteries, RSD's the lotteries
    of the profiles that come first under agent and object relabellings."""
    inst = INSTANCES["caps211"]
    table = {p: random_serial_dictatorship(inst, p) for p in enumerate_profiles(inst)}
    for rule, objects in ((RSD, True), (TabulatedLotteryRule(table), False)):
        outcomes = Outcomes(inst, rule, True)
        assert outcomes.anonymous
        assert set(outcomes) == {p for _, p in orbit_profiles(inst, True, objects)}


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
    assert (report.scan, report.scan_size, report.profiles_checked) == (
        "agent_object_orbits", 10, 216
    )


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


def _random_anonymous_table(inst, rng):
    """A random lottery at each sorted profile, averaged over the relabellings
    that fix it, and relabelled onto the rest of its orbit."""
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

    return _orbit_table(inst, lottery_at)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["unit3", "caps211", "null3"]), st.integers(0, 2**32 - 1))
def test_random_anonymous_tables_match_the_plain_scan(name, seed):
    inst = INSTANCES[name]
    table = _random_anonymous_table(inst, random.Random(seed))
    assert Outcomes(inst, TabulatedLotteryRule(table), True).anonymous
    rule = TabulatedLotteryRule(table)
    for axiom in FIVE:
        _assert_matches_plain(inst, rule, axiom, "agent_orbits")


ORBIT_INSTANCES = {
    **INSTANCES,
    "unit2": Instance(2, (1, 1)),
    "caps211-n4": Instance(4, (2, 1, 1)),
    "caps2211-n2": Instance(2, (2, 2, 1, 1)),
    "caps21-n2": Instance(2, (2, 1)),
}


def _first_in_orbit(profile, relabellings, agents):
    """The profile comes first among its relabellings, sorted too if ``agents``."""
    arrange = sorted if agents else list
    return all(tuple(arrange(profile)) <= tuple(arrange(renamed(tau, profile)))
               for tau in relabellings)


@pytest.mark.parametrize(
    "agents, objects",
    [(False, True), (True, True), (True, False), (False, False)],
    ids=["objects", "agents-and-objects", "agents", "profiles"],
)
@pytest.mark.parametrize("name", list(ORBIT_INSTANCES))
def test_orbit_streams_are_the_first_profiles_of_their_orbits_with_their_full_index(
    name, agents, objects
):
    """Against every object relabelling, enumerated directly, or the identity
    alone without ``objects``."""
    inst = ORBIT_INSTANCES[name]
    relabellings = object_relabellings(inst) if objects else [tuple(range(inst.k))]
    expected = [
        (i, p)
        for i, p in enumerate(enumerate_profiles(inst))
        if (not agents or list(p) == sorted(p)) and _first_in_orbit(p, relabellings, agents)
    ]
    assert list(orbit_profiles(inst, agents, objects)) == expected
    assert orbit_count(inst, agents, objects) == len(expected)


@pytest.mark.parametrize(
    "inst, agents, objects, both",
    [
        (Instance(4, (1, 1, 1, 1)), 17_550, 13_824, 762),
        (Instance(5, (2, 2, 2)), 252, 1_296, 42),
        (Instance(4, (2, 1, 1, 1), null_object=0, domain=NULL_BOTTOM), 126, 216, 24),
        (Instance(6, (2, 2, 2)), 462, 46_656 // 6, 83),
        (Instance(7, (3, 2, 2)), 792, 279_936 // 2, 396),
        (Instance(8, (3, 3, 2)), 1_287, 1_679_616 // 2, 651),
    ],
    ids=["unit4", "caps222-n5", "null2111-n4", "caps222-n6", "caps322-n7", "caps332-n8"],
)
def test_orbit_stream_sizes(inst, agents, objects, both):
    """The counts, and the streams' lengths where they are short to walk."""
    assert orbit_count(inst, agents=True) == agents
    assert orbit_count(inst, objects=True) == objects
    assert orbit_count(inst, agents=True, objects=True) == both
    assert sum(1 for _ in orbit_profiles(inst, agents=True)) == agents
    assert sum(1 for _ in orbit_profiles(inst, agents=True, objects=True)) == both
    if inst.n <= 5:
        assert sum(1 for _ in orbit_profiles(inst, objects=True)) == objects


def _anonymised(inst, table):
    """The lottery table averaging, at P, the entries at every relabelling of
    P's agents, each relabelled back."""
    orders = list(permutations(range(inst.n)))
    out = {}
    for profile in enumerate_profiles(inst):
        weights = {}
        for order in orders:
            for m, w in table[tuple(profile[a] for a in order)].items():
                back = [None] * inst.n
                for p, a in enumerate(order):
                    back[a] = m[p]
                weights[tuple(back)] = weights.get(tuple(back), 0) + w / len(orders)
        out[profile] = Lottery.from_weights(weights)
    return out


def _random_lottery_table(inst, rng):
    universe = enumerate_matchings(inst)
    table = {}
    for profile in enumerate_profiles(inst):
        drawn = {m: rng.randint(1, 3) for m in rng.sample(universe, rng.randint(1, 2))}
        table[profile] = Lottery(drawn, sum(drawn.values()))
    return table


def _with_one_entry_changed(inst, table, rng):
    """The table with the entry at one random profile replaced by another
    matching's point lottery, or another matching."""
    table = dict(table)
    profile = rng.choice(list(table))
    kept = table[profile]
    universe = [m for m in enumerate_matchings(inst) if Lottery.point(m) != kept and m != kept]
    other = rng.choice(universe)
    table[profile] = Lottery.point(other) if isinstance(kept, Lottery) else other
    return table


def _expected_scan(rule, axiom, neutral):
    """The scan ``check_axiom`` runs: object orbits on a neutral matchings table,
    and on a lottery table that is anonymous and neutral, both together."""
    if not neutral:
        return "profiles"
    if axiom in DETERMINISTIC_ONLY:
        return "object_orbits"
    return "agent_object_orbits" if is_lottery_rule(rule) else "profiles"


def _assert_every_axiom_matches_plain(inst, rule, neutral):
    """Every applicable axiom but individual rationality."""
    axioms = [a for a in Axiom if a is not Axiom.INDIVIDUAL_RATIONALITY]
    if is_lottery_rule(rule):
        axioms = [a for a in axioms if a not in DETERMINISTIC_ONLY]
    elif inst.n > 3:
        axioms.remove(Axiom.GROUP_STRATEGY_PROOF)
    return [
        _assert_matches_plain(inst, rule, axiom, _expected_scan(rule, axiom, neutral))
        for axiom in axioms
    ]


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["unit3", "caps211", "caps221", "null3"]),
    st.sampled_from(["deterministic", "lottery", "anonymous lottery"]),
    st.integers(0, 2**32 - 1),
)
def test_random_neutral_tables_match_the_plain_scan(name, kind, seed):
    """A random table symmetrised over the object relabellings (and, for the
    anonymous lottery, the agent relabellings too) is scanned on its orbits;
    the same table with one entry changed is not neutral and gets the plain
    scan.  A lottery table that is neutral but not anonymous gets the plain
    scan too: its neutrality is tested only after its anonymity."""
    inst, rng = INSTANCES[name], random.Random(seed)
    if kind == "deterministic":
        table = random_tabulated_rule(inst, seed).table
    else:
        table = _random_lottery_table(inst, rng)
    table = symmetrised(inst, table, object_relabellings(inst))
    if kind == "anonymous lottery":
        table = _anonymised(inst, table)
    make = TabulatedDeterministicRule if kind == "deterministic" else TabulatedLotteryRule
    rule = make(table)
    outcomes = Outcomes(inst, rule, kind != "deterministic")
    assert outcomes.neutral == (kind != "lottery")
    _assert_every_axiom_matches_plain(inst, rule, outcomes.neutral)
    changed = make(_with_one_entry_changed(inst, table, rng))
    assert not Outcomes(inst, changed, kind != "deterministic").neutral
    _assert_every_axiom_matches_plain(inst, changed, False)


def neutral_by_definition(inst, table):
    """f(tau P) = tau f(P) for every object relabelling tau, enumerated
    directly, and every profile P, read from ``table``."""
    for tau in object_relabellings(inst):
        for profile, outcome in table.items():
            if isinstance(outcome, Lottery):
                outcome = Lottery.from_weights({renamed(tau, m): w for m, w in outcome.items()})
            else:
                outcome = renamed(tau, outcome)
            if table[renamed(tau, profile)] != outcome:
                return False
    return True


def _cyclic_subgroups(inst):
    """The group of every object relabelling, then the group each relabelling
    generates, each group once and listed from the identity."""
    identity = tuple(range(inst.k))
    groups = [object_relabellings(inst)]
    for tau in object_relabellings(inst):
        group, power = [identity], tau
        while power != identity:
            group.append(power)
            power = tuple(tau[o] for o in power)
        if sorted(group) not in map(sorted, groups):
            groups.append(group)
    return groups


def _with_one_agent_orbit_changed(inst, table, rng):
    """The anonymous lottery table with each relabelling of one random
    profile's agents drawing the uniform lottery over every matching, which
    each relabelling of the agents keeps: anonymous still."""
    profile = rng.choice(list(table))
    universe = enumerate_matchings(inst)
    uniform = Lottery(dict.fromkeys(universe, 1), len(universe))
    orbit = set(permutations(profile))
    return {p: uniform if p in orbit else lottery for p, lottery in table.items()}


@pytest.mark.parametrize("kind", ["matchings", "lottery"])
@pytest.mark.parametrize("name", ["unit3", "caps211", "caps211-n4", "null3"])
def test_the_neutrality_pass_is_the_definition(name, kind):
    """On a random table symmetrised under each cyclic group of object
    relabellings, and under all of them, and on the same table with one entry
    changed.  A lottery table is anonymous, and its change is one whole orbit
    of the agent relabellings, so that the pass runs past its guard."""
    inst, rng = ORBIT_INSTANCES[name], random.Random(f"{name} {kind}")
    lottery = kind == "lottery"
    make = TabulatedLotteryRule if lottery else TabulatedDeterministicRule
    verdicts = set()
    for group in _cyclic_subgroups(inst):
        if lottery:
            table = symmetrised(inst, _random_anonymous_table(inst, rng), group)
            changed = _with_one_agent_orbit_changed(inst, table, rng)
        else:
            table = random_tabulated_rule(inst, rng.randrange(2**32)).table
            table = symmetrised(inst, table, group)
            changed = _with_one_entry_changed(inst, table, rng)
        for candidate in (table, changed):
            outcomes = Outcomes(inst, make(candidate), lottery)
            assert not lottery or outcomes.anonymous
            verdict = neutral_by_definition(inst, candidate)
            assert outcomes.neutral == verdict, group
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_ttc_with_an_endowment_is_not_neutral_and_gets_the_plain_scan():
    inst = INSTANCES["unit3"]
    rule = TopTradingCyclesRule((0, 1, 2))
    assert not Outcomes(inst, rule, False).neutral
    verdicts = _assert_every_axiom_matches_plain(inst, rule, False)
    assert "fail" in verdicts and "pass" in verdicts


@pytest.mark.parametrize("rule", [RSD, SerialDictatorshipRule((0, 1, 2))], ids=["rsd", "sd"])
def test_individual_rationality_gets_the_plain_scan(rule):
    inst = INSTANCES["unit3"]
    report = check_axiom(inst, rule, Axiom.INDIVIDUAL_RATIONALITY, (1, 2, 0))
    assert (report.scan, report.scan_size, report.verdict) == ("profiles", 216, "fail")
    assert report.to_dict() == plain_report(inst, rule, Axiom.INDIVIDUAL_RATIONALITY, (1, 2, 0))


def test_no_two_objects_of_equal_capacity_means_no_object_orbits():
    inst = Instance(3, (3, 2, 1))
    assert nontrivial_relabellings(inst) == ()
    assert not Outcomes(inst, SerialDictatorshipRule((0, 1, 2)), False).neutral
    report = check_axiom(inst, SerialDictatorshipRule((0, 1, 2)), Axiom.STRATEGY_PROOF)
    assert (report.scan, report.scan_size) == ("profiles", 216)


def test_a_changed_entry_read_by_a_monotonic_step_gets_the_plain_scans_witness():
    """SD with one entry changed, at profile 144, whose object orbit starts at
    profile 79.  Maskin monotonicity fails first at profile 36, whose orbit
    starts at profile 0: its body steps to the changed profile.  A walk that
    checked equivariance orbit by orbit and fell back to the plain scan at the
    first failing orbit would skip profile 36 and report profile 144."""
    inst = INSTANCES["caps211"]
    sd = SerialDictatorshipRule((1, 2, 0))
    table = {p: evaluate(inst, sd, p) for p in enumerate_profiles(inst)}
    changed = ((2, 0, 1), (0, 1, 2), (0, 1, 2))
    assert table[changed] == (2, 0, 0)
    table[changed] = (0, 0, 1)
    rule = TabulatedDeterministicRule(table)
    assert not Outcomes(inst, rule, False).neutral
    _assert_every_axiom_matches_plain(inst, rule, False)
    report = check_axiom(inst, rule, Axiom.MASKIN_MONOTONIC)
    assert (report.profiles_checked, report.witness["transformed"]) == (37, changed)


def test_sd_is_scanned_on_its_object_orbits():
    inst = INSTANCES["caps211"]
    sd = SerialDictatorshipRule((2, 0, 1))
    table = {p: evaluate(inst, sd, p) for p in enumerate_profiles(inst)}
    for rule in (sd, TabulatedDeterministicRule(table)):
        for axiom in (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY, Axiom.MASKIN_MONOTONIC):
            _assert_matches_plain(inst, rule, axiom, "object_orbits")
        assert check_axiom(inst, rule, Axiom.MASKIN_MONOTONIC).scan_size == 108
