"""Recorded mutants of the engine's fast paths, each caught by its oracle.

Every fast path is held to an independent oracle elsewhere in the suite.
Each test here applies one recorded mutant of a fast path, a small edit of
its source, and asserts that the oracle comparison disagrees on a small
fixed instance, so the oracle stays able to tell the mutant apart.  The
unmutated comparison is asserted to agree first.
"""

import inspect
import random
import textwrap

import pytest

from axiomlab import (
    Instance,
    Lottery,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TabulatedDeterministicRule,
    check_axiom,
    enumerate_profiles,
    evaluate,
)
from axiomlab import axioms, rules, theorems
from axiomlab.axioms import EX_POST_KINDS, Axiom, Outcomes
from axiomlab import preferences
from axiomlab.preferences import sort_agents
from helpers import object_relabellings, plain_report, random_tabulated_rule, renamed, uniform_over
from test_axioms import totality_matches_the_walk, with_a_foreign_key_for_a_gap
from test_incentives import FAMILY, oracle_report
from test_orbit_scan import ANONYMOUS_FAILING, FIVE, neutral_by_definition
from test_rules import HEAD_READ_INSTANCES, rsd_oracle, rsd_reads_match_the_oracle
from test_theorems import FIX_UP_INSTANCE, _direct_prescreen, _search_matches_the_oracle


def _mutate(monkeypatch, function, old, new):
    """Run ``function`` as its source with ``old``, which occurs once, replaced by ``new``.

    The mutated code replaces the function's ``__code__``, so every caller
    and every holder of the function runs it, with the module's own globals.
    """
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__qualname__, old)
    compiled = compile(source.replace(old, new), inspect.getsourcefile(function), "exec")
    (code,) = (c for c in compiled.co_consts if getattr(c, "co_name", None) == function.__name__)
    monkeypatch.setattr(function, "__code__", code)


def _untemper(word):
    """The Mersenne Twister state word whose tempered output is ``word``."""
    word ^= word >> 18
    word ^= (word << 15) & 0xEFC60000
    state = word
    for _ in range(5):
        state = word ^ ((state << 7) & 0x9D2C5680)
    word = state
    for _ in range(3):
        state = word ^ (state >> 11)
    return state


class _BoundaryRandom(random.Random):
    """A generator whose stream, once seeded, opens with the word ``3 << 30``.

    That word is the least first word for which ``random()`` is not below
    0.75, so it tells ``<`` from ``<=`` in the search's three-quarters test.
    """

    def seed(self, *args, **kwargs):
        super().seed(*args, **kwargs)
        version, state, gauss = self.getstate()
        self.setstate((version, (*state[:623], _untemper(3 << 30), 623), gauss))


def test_the_boundary_generator_opens_with_the_boundary_word():
    assert _BoundaryRandom(5).getrandbits(32) == 3 << 30
    assert 0.75 <= _BoundaryRandom(5).random() < 0.75 + 2**-27


# On caps (2,1,1) every profile, the first included, has a wasteful matching,
# so the first random candidate's first word is the first profile's test.
# Probabilistic monotonicity rejects the greedy and both random candidates.
DRAW_QUERY = (Instance(3, (2, 1, 1)), [Axiom.PROB_MONOTONIC], Axiom.EX_POST_NON_WASTEFUL, 3, 5)

# Pools of 501, 509 and 510 matchings: two thresholds with nonzero low bits.
FIX_UP_QUERY = (FIX_UP_INSTANCE, [Axiom.PROB_MONOTONIC], Axiom.EX_POST_PARETO, 4, 1)

DRAW_MUTANTS = {
    "shift from n - 1": (theorems._shift, "n.bit_length()", "(n - 1).bit_length()", DRAW_QUERY),
    "three quarters at <=": (
        theorems._Drawer.picks, "< _THREE_QUARTERS", "<= _THREE_QUARTERS", DRAW_QUERY
    ),
    "random() on one word": (
        theorems._Drawer._fragment,
        "{below}.{self._draw_pattern(len(breakers))}|{rest}.{first}",
        "{below}{self._draw_pattern(len(breakers))}|{rest}{first}",
        DRAW_QUERY,
    ),
    "fix-up skipped": (theorems._Drawer.read, "if self._loose:", "if False:", FIX_UP_QUERY),
    "block split off by one": (
        theorems._Drawer.__init__,
        "self._pools[start:start + block]",
        "self._pools[start:start + block + 1]",
        DRAW_QUERY,
    ),
}


@pytest.mark.parametrize("rule_space", ["lottery", "deterministic"])
@pytest.mark.parametrize("mutant", DRAW_MUTANTS)
def test_the_randrange_oracle_catches_a_mutated_drawer(monkeypatch, mutant, rule_space):
    *edit, query = DRAW_MUTANTS[mutant]
    monkeypatch.setattr(random, "Random", _BoundaryRandom)
    assert _search_matches_the_oracle(monkeypatch, *query, rule_space)
    _mutate(monkeypatch, *edit)
    assert not _search_matches_the_oracle(monkeypatch, *query, rule_space)


def _rsd_outcomes_match_the_oracle(inst):
    return rsd_reads_match_the_oracle(inst, Outcomes(inst, RandomSerialDictatorshipRule(), True))


def _orbit_scans_match_the_plain_scans(inst, rule, axioms=FIVE):
    return all(check_axiom(inst, rule, axiom).to_dict() == plain_report(inst, rule, axiom)
               for axiom in axioms)


def _rsd_matches_the_oracle(inst):
    return all(
        dict(rules.random_serial_dictatorship(inst, p).items()) == rsd_oracle(inst, p)
        for p in enumerate_profiles(inst)
    )


@pytest.mark.parametrize("name", ["unit3", "slack3"])
def test_the_order_oracle_catches_a_layer_that_keeps_the_picked_copy(monkeypatch, name, request):
    """RSD's layered count against ``rsd_oracle``, which runs every agent order,
    with the picked object's capacity left undecremented."""
    inst = request.getfixturevalue(name)
    assert _rsd_matches_the_oracle(inst)
    _mutate(monkeypatch, rules.random_serial_dictatorship, "rest[obj] -= 1", "rest[obj] -= 0")
    assert not _rsd_matches_the_oracle(inst)


def test_the_oracles_catch_an_unrelabelled_orbit_read(monkeypatch, unit3):
    """RSD's outcomes against ``rsd_oracle``, and an anonymous table's orbit
    scans against the plain scans, which read every profile's own entry."""
    pairwise = uniform_over(unit3, ANONYMOUS_FAILING["pairwise"](unit3))
    assert _rsd_outcomes_match_the_oracle(unit3)
    assert _orbit_scans_match_the_plain_scans(unit3, pairwise)
    relabelled = "self[head].relabelled(carry)"
    _mutate(monkeypatch, Outcomes.__missing__, relabelled, "self[head]")
    assert not _rsd_outcomes_match_the_oracle(unit3)
    assert not _orbit_scans_match_the_plain_scans(unit3, pairwise)


def _rsd_head_reads_match_the_oracle(inst):
    outcomes = Outcomes(inst, RandomSerialDictatorshipRule(), True)
    assert outcomes.neutral
    return rsd_reads_match_the_oracle(inst, outcomes)


@pytest.mark.parametrize("name, caught", [("unit3", True), ("caps2211-n2", False)])
def test_the_order_oracle_catches_a_head_read_through_tau_not_its_inverse(
    monkeypatch, name, caught
):
    """RSD's reads after its pass against ``rsd_oracle``, with each profile
    that sorts to its head only under a relabelling tau carried by tau in place
    of its inverse.  They differ only for a tau of order 3 or more: unit3's
    3-cycles catch it, while every relabelling of caps (2,2,1,1) is its own
    inverse."""
    inst = HEAD_READ_INSTANCES[name]
    assert _rsd_head_reads_match_the_oracle(inst)
    _mutate(
        monkeypatch,
        preferences.orbit_head,
        "_inverse_relabellings(inst)[first]",
        "nontrivial_relabellings(inst)[first]",
    )
    assert _rsd_head_reads_match_the_oracle(inst) is not caught


# On caps (2,2,1,1), n=2, swapping objects 0 and 1 and objects 2 and 3 at
# once, then the two agents, fixes this head.  RSD gives each agent her top,
# (0, 1); the point lottery on (0, 0) is not fixed by that relabelling, which
# would turn it into (1, 1).
UNSTABLE_HEAD = ((0, 1, 2, 3), (1, 0, 3, 2))


def test_the_plain_scan_catches_a_pass_that_skips_the_relabellings_fixing_a_head(monkeypatch):
    """RSD changed at ``UNSTABLE_HEAD`` only is not neutral.  A pass that checks
    only the tied swaps at each head passes it, and the orbit scans then read
    every profile of the head's object orbit through the changed lottery."""
    inst, honest = Instance(2, (2, 2, 1, 1)), rules.random_serial_dictatorship
    monkeypatch.setattr(
        rules,
        "random_serial_dictatorship",
        lambda inst, p: Lottery.point((0, 0)) if p == UNSTABLE_HEAD else honest(inst, p),
    )
    rsd = RandomSerialDictatorshipRule()
    assert not Outcomes(inst, rsd, True).neutral
    assert _orbit_scans_match_the_plain_scans(inst, rsd)
    _mutate(
        monkeypatch,
        Outcomes._stabilised.func,
        "moves = _moves(self.inst, nontrivial_relabellings(self.inst))",
        "moves = ()",
    )
    assert Outcomes(inst, rsd, True).neutral
    assert not _orbit_scans_match_the_plain_scans(inst, rsd)


def _prescreen_matches_the_direct_filter(inst):
    keep, broken = [EX_POST_KINDS[Axiom.EX_POST_PAIRWISE]], EX_POST_KINDS[Axiom.EX_POST_PARETO]
    screened = theorems._prescreen(inst, list(enumerate_profiles(inst)), keep, broken)
    return screened == _direct_prescreen(inst, keep, broken)


def test_the_direct_filter_catches_a_prescreen_relabelled_by_the_inverse(monkeypatch, unit3):
    assert _prescreen_matches_the_direct_filter(unit3)
    _mutate(monkeypatch, sort_agents, "itemgetter(*position)", "itemgetter(*order)")
    assert not _prescreen_matches_the_direct_filter(unit3)


# Both agents of this rule's first pair manipulation gain strictly, so the
# strict agent reported depends on which of the two is asked first.
STRICT_AGENT_RULE = "unit3-sd012-perturbed"


def test_the_joint_report_oracle_catches_the_strict_agent_taken_from_j(monkeypatch):
    inst, rule = FAMILY[STRICT_AGENT_RULE]
    axiom = Axiom.PAIRWISE_STRATEGY_PROOF
    assert check_axiom(inst, rule, axiom).to_dict() == oracle_report(inst, rule, axiom)
    _mutate(
        monkeypatch,
        axioms._pair_witness,
        "i if prefers(profile[i], got[i], mine[i]) else j",
        "j if prefers(profile[j], got[j], mine[j]) else i",
    )
    assert check_axiom(inst, rule, axiom).to_dict() != oracle_report(inst, rule, axiom)


def test_the_walk_catches_a_totality_test_by_entry_count(monkeypatch, unit3):
    """A table with the domain's entry count, one of them a foreign key in place
    of a profile, against the walk over the enumeration."""
    table = with_a_foreign_key_for_a_gap(random_tabulated_rule(unit3, 11).table)
    assert totality_matches_the_walk(unit3, table)
    _mutate(
        monkeypatch,
        axioms._require_total,
        "table.keys() >= profile_set(inst)",
        "len(table) >= len(profile_set(inst))",
    )
    assert not totality_matches_the_walk(unit3, table)


# Agents 1 and 2 swap what SD(0,1,2) gives them at this unit3 profile, which
# lets agent 1 manipulate there; agent 0 keeps object 2.
CHANGED_PROFILE = ((2, 0, 1), (0, 1, 2), (0, 1, 2))
CHANGED_MATCHING = (2, 1, 0)
INCENTIVES = (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY, Axiom.MASKIN_MONOTONIC)


def _sd_with_one_orbit_changed(inst, relabellings):
    """SD(0,1,2) tabulated, with ``CHANGED_MATCHING`` at ``CHANGED_PROFILE``
    renamed onto its image under each of ``relabellings``, a group: neutral
    under those relabellings only."""
    sd = SerialDictatorshipRule((0, 1, 2))
    table = {p: evaluate(inst, sd, p) for p in enumerate_profiles(inst)}
    for tau in relabellings:
        table[renamed(tau, CHANGED_PROFILE)] = renamed(tau, CHANGED_MATCHING)
    return TabulatedDeterministicRule(table)


def test_the_plain_scan_catches_a_neutrality_pass_of_the_first_relabelling_only(
    monkeypatch, unit3
):
    """A table neutral under the swap of objects 1 and 2 but not under the
    other relabellings.  The first relabelling alone passes it, and its
    object-orbit scan sees only the profiles whose agent 0 reports (0, 1, 2),
    none of which violates: it reports a pass where the plain scan fails."""
    rule = _sd_with_one_orbit_changed(unit3, [(0, 1, 2), (0, 2, 1)])
    assert preferences.nontrivial_relabellings(unit3)[0] == (0, 2, 1)
    assert not Outcomes(unit3, rule, False).neutral
    assert _orbit_scans_match_the_plain_scans(unit3, rule, INCENTIVES)
    _mutate(
        monkeypatch,
        Outcomes.neutral.func,
        "relabellings = nontrivial_relabellings(self.inst)",
        "relabellings = nontrivial_relabellings(self.inst)[:1]",
    )
    assert Outcomes(unit3, rule, False).neutral
    assert not _orbit_scans_match_the_plain_scans(unit3, rule, INCENTIVES)


# SD(0,1,2) gives (2, 0, 1) here.  Agent 0's report is the last relabelling,
# (2, 1, 0), of the first preference, and the profile is not sorted.
UNSORTED_LAST = ((2, 1, 0), (0, 1, 2), (0, 1, 2))


@pytest.mark.parametrize(
    "old, new",
    [
        ("relabellings = nontrivial_relabellings(self.inst)",
         "relabellings = nontrivial_relabellings(self.inst)[:-1]"),
        ("(self.inst, agents=self.lottery, objects=True)",
         "(self.inst, agents=True, objects=True)"),
    ],
    ids=["last relabelling dropped", "joint heads on matchings"],
)
def test_the_definition_catches_a_neutrality_pass_that_skips_a_profile(
    monkeypatch, unit3, old, new
):
    """SD with agents 1 and 2 swapped at ``UNSORTED_LAST`` only.  That profile
    is tau H for the last relabelling tau and a head H of the object orbits,
    and it is tau H for no head of the orbits under agents and objects
    together, so either mutant never reads it and passes the table."""
    table = {p: evaluate(unit3, SerialDictatorshipRule((0, 1, 2)), p)
             for p in enumerate_profiles(unit3)}
    table[UNSORTED_LAST] = (2, 1, 0)
    rule = TabulatedDeterministicRule(table)
    assert not neutral_by_definition(unit3, table)
    assert not Outcomes(unit3, rule, False).neutral
    assert _orbit_scans_match_the_plain_scans(unit3, rule, INCENTIVES)
    _mutate(monkeypatch, Outcomes.neutral.func, old, new)
    assert Outcomes(unit3, rule, False).neutral
    assert not _orbit_scans_match_the_plain_scans(unit3, rule, INCENTIVES)


def test_the_plain_scan_catches_a_stream_of_the_last_profile_of_each_orbit(
    monkeypatch, unit3
):
    """SD with one whole object orbit changed is neutral and fails all three
    checks; the profiles whose agent 0 reports the last preference of its
    object orbit violate later."""
    rule = _sd_with_one_orbit_changed(unit3, object_relabellings(unit3))
    assert Outcomes(unit3, rule, False).neutral
    assert all(plain_report(unit3, rule, a)["verdict"] == "fail" for a in INCENTIVES)
    assert _orbit_scans_match_the_plain_scans(unit3, rule, INCENTIVES)
    _mutate(
        monkeypatch,
        preferences.orbit_profiles,
        "image[digit] > digit",
        "image[digit] < digit",
    )
    assert not _orbit_scans_match_the_plain_scans(unit3, rule, INCENTIVES)
