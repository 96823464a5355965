"""Theorem harnesses, proof replays, and counterexample search."""

import copy
import hashlib
import itertools
import json
import random
from bisect import bisect_right
from dataclasses import replace
from functools import cache

import pytest

from axiomlab import (
    AxiomNotApplicable,
    BoundsError,
    Instance,
    Lottery,
    PreconditionViolated,
    RandomSerialDictatorshipRule,
    SearchResult,
    SerialDictatorshipRule,
    TableMiss,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TopTradingCyclesRule,
    enumerate_profiles,
    evaluate,
    partition_agents,
    random_serial_dictatorship,
    replay_theorem1_proof,
    replay_theorem3_proof,
    search_counterexample,
    serial_dictatorship,
    verify_proposition1,
    verify_theorem1,
)
from axiomlab.axioms import (
    DETERMINISTIC_ONLY,
    EX_POST_KINDS,
    Axiom,
    check_axiom,
)
from axiomlab.jsonio import rule_from_dict, rule_to_dict
from axiomlab.matchings import matching_verdict
from axiomlab.model import NULL_BOTTOM, enumerate_matchings
from axiomlab.preferences import common_rank_rearrange, profile_set, push_to_top
from axiomlab.rules import is_lottery_rule, rule_label
from axiomlab.theorems import RULE_SPACES, _checker, _Drawer
from helpers import (
    bossy_flip_rule,
    random_tabulated_rule,
    rsd_with_one_changed_unsorted_entry,
    uniform_over,
)


def test_verify_theorem1_rsd_tight(unit3):
    verdict = verify_theorem1(unit3, RandomSerialDictatorshipRule())
    assert verdict.theorem == "Thm1b"
    assert all(h["verdict"] == "pass" for h in verdict.hypotheses_verified)
    assert [h["axiom"] for h in verdict.hypotheses_verified] == ["prob_monotonic"]
    assert verdict.conclusion_verified is True
    assert verdict.details["ex_post_pairwise"] and verdict.details["ex_post_pareto"]


def test_verify_theorem1_rsd_slack(slack3):
    verdict = verify_theorem1(slack3, RandomSerialDictatorshipRule())
    assert verdict.theorem == "Thm1a"
    assert [h["axiom"] for h in verdict.hypotheses_verified] == [
        "prob_monotonic",
        "ex_post_non_wasteful",
    ]
    assert verdict.conclusion_verified is True


def test_verify_theorem1_deterministic_labels(unit3):
    for rule in (SerialDictatorshipRule((0, 1, 2)), TopTradingCyclesRule((0, 1, 2))):
        verdict = verify_theorem1(unit3, rule)
        assert verdict.theorem == "Cor2"
        assert verdict.conclusion_verified is True
        assert [h["axiom"] for h in verdict.hypotheses_verified] == ["maskin_monotonic"]
    nb = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    verdict_nb = verify_theorem1(nb, SerialDictatorshipRule((0, 1, 2)))
    assert verdict_nb.theorem == "Thm3"
    assert verdict_nb.conclusion_verified is True


def test_verify_theorem1_gates_on_failed_hypotheses(unit3):
    table = {
        p: Lottery.point(serial_dictatorship(unit3, (0, 1, 2), p))
        for p in enumerate_profiles(unit3)
    }
    bad_profile = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    table[bad_profile] = Lottery.point(serial_dictatorship(unit3, (2, 1, 0), bad_profile))
    verdict = verify_theorem1(unit3, TabulatedLotteryRule(table))
    assert verdict.conclusion_verified is None
    assert verdict.details["status"] == "hypotheses not met"
    assert verdict.witness is not None


def test_verify_theorem1_does_not_refute_constant_rules(unit3):
    """A constant rule is monotonic and neither pairwise nor Pareto efficient.

    Both ex-post checks fail, so the rule agrees with the equivalence claim;
    a constant rule that leaves an agent on the null object while a real
    object has room is wasteful and fails the hypotheses instead.
    """
    nb = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    agreeing = 0
    for inst in (unit3, nb):
        profiles = list(enumerate_profiles(inst))
        for matching in enumerate_matchings(inst):
            rule = TabulatedDeterministicRule({p: matching for p in profiles})
            verdict = verify_theorem1(inst, rule)
            if verdict.conclusion_verified is None:
                assert inst is nb and inst.null_object in matching
                continue
            assert verdict.conclusion_verified is True
            assert verdict.details["ex_post_pairwise"] is False
            assert verdict.details["ex_post_pareto"] is False
            assert verdict.witness is None
            agreeing += 1
    assert agreeing == 6 + 6


def _count_calls(monkeypatch, name):
    import axiomlab.rules as rules

    calls = []
    original = getattr(rules, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rules, name, counted)
    return calls


def test_harnesses_evaluate_the_rule_once(monkeypatch, unit3, slack3):
    sd_runs = _count_calls(monkeypatch, "serial_dictatorship")
    prop1 = verify_proposition1(unit3, SerialDictatorshipRule((0, 1, 2)))
    assert len(sd_runs) == 216
    assert prop1.rule == "sd(0,1,2)"
    assert {h["rule"] for h in prop1.hypotheses_verified} == {"sd(0,1,2)"}

    rsd_runs = _count_calls(monkeypatch, "random_serial_dictatorship")
    thm1 = verify_theorem1(slack3, RandomSerialDictatorshipRule())
    assert len(rsd_runs) == 28  # the orbit heads; every other profile relabels one
    assert thm1.conclusion_verified is True
    assert thm1.rule == "rsd"
    assert {h["rule"] for h in thm1.hypotheses_verified} == {"rsd"}

    sd_runs.clear()
    cor2 = verify_theorem1(slack3, SerialDictatorshipRule((0, 1, 2)))
    assert len(sd_runs) == 216  # the lottery checks read the Maskin check's matchings
    assert cor2.theorem == "Cor2"


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_harnesses_check_the_worker_count_before_evaluating(monkeypatch, capsys, tmp_path, workers):
    """On the command line, a worker count below 1 fails at once, before the
    rule's outcome table is built."""
    from axiomlab.cli import run
    from axiomlab.jsonio import instance_to_dict

    rsd_runs = _count_calls(monkeypatch, "random_serial_dictatorship")
    sd_runs = _count_calls(monkeypatch, "serial_dictatorship")
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(instance_to_dict(Instance(3, (2, 1, 1)))))
    for command, rule in (("verify-thm1", "rsd"), ("verify-prop1", "sd")):
        code = run([command, "--instance", str(inst), "--rule", rule, "--workers", workers])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and error["type"] == "BoundsError" and "worker" in error["message"]
    assert rsd_runs == [] and sd_runs == []


def test_cor2_builds_each_weight_one_lottery_once(monkeypatch, slack3):
    """The three ex-post checks share one lottery view of the deterministic table."""
    rule = SerialDictatorshipRule((0, 1, 2))
    direct = {
        axiom: check_axiom(slack3, rule, axiom)
        for axiom in (
            Axiom.MASKIN_MONOTONIC,
            Axiom.EX_POST_NON_WASTEFUL,
            Axiom.EX_POST_PAIRWISE,
            Axiom.EX_POST_PARETO,
        )
    }
    points = []
    point = Lottery.point.__func__

    def counted(cls, matching):
        points.append(matching)
        return point(cls, matching)

    monkeypatch.setattr(Lottery, "point", classmethod(counted))
    verdict = verify_theorem1(slack3, rule)
    assert len(points) == 216
    assert verdict.theorem == "Cor2"
    assert verdict.hypotheses_verified == [
        direct[Axiom.MASKIN_MONOTONIC].to_dict(),
        direct[Axiom.EX_POST_NON_WASTEFUL].to_dict(),
    ]
    assert verdict.details["ex_post_pairwise"] == direct[Axiom.EX_POST_PAIRWISE].passed
    assert verdict.details["ex_post_pareto"] == direct[Axiom.EX_POST_PARETO].passed


def _parent_checker(inst, rule):
    """The harnesses' checker before they shared one ``Outcomes`` per kind, kept
    verbatim as the oracle: it tabulates the rule eagerly, views a deterministic
    table as weight-1 lotteries, and relabels each report with the rule's label."""
    table = rule
    if not isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
        tabulate = TabulatedLotteryRule if is_lottery_rule(rule) else TabulatedDeterministicRule
        table = tabulate({p: evaluate(inst, rule, p) for p in enumerate_profiles(inst)})
    label = rule_label(rule)

    @cache
    def lottery_view():
        return TabulatedLotteryRule({p: Lottery.point(m) for p, m in table.table.items()})

    def check(axiom):
        as_lottery = axiom not in DETERMINISTIC_ONLY and not is_lottery_rule(table)
        view = lottery_view() if as_lottery else table
        return replace(check_axiom(inst, view, axiom), rule=label)

    return check


HARNESS_INSTANCES = {
    "unit3": Instance(3, (1, 1, 1)),
    "caps221": Instance(3, (2, 2, 1)),
    "null3": Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
}

HARNESS_RULES = {
    "rsd": lambda inst: RandomSerialDictatorshipRule(),
    "sd": lambda inst: SerialDictatorshipRule((0, 1, 2)),
    "ttc": lambda inst: TopTradingCyclesRule((1, 2, 0)),
    # Its group check stops at profile 1, so strategy-proofness reads the few
    # menus that check built and builds the rest.
    "bossy": bossy_flip_rule,
    "random": lambda inst: random_tabulated_rule(inst, 5),
    "rsd-changed": rsd_with_one_changed_unsorted_entry,
    "uniform-pairwise": lambda inst: uniform_over(
        inst, lambda m, p: matching_verdict(inst, m, p, "pairwise") is None
    ),
}


def _harness_run(monkeypatch, checker, harness, inst, rule):
    """The harness's report, stats and every check's report and stats, run on
    ``checker``, with the checks' evaluation counts taken out of the stats and
    returned apart: the eager table is read in place, so it counts none."""
    import axiomlab.theorems as theorems

    reports = []

    def recording(*args):
        check = checker(*args)

        def recorded(axiom):
            reports.append(check(axiom))
            return reports[-1]

        return recorded

    monkeypatch.setattr(theorems, "_checker", recording)
    verdict = harness(inst, rule)
    run = verdict.to_dict(), verdict.stats, [(r.to_dict(), r.stats()) for r in reports]
    stats = [*verdict.stats.values(), *(s for _, s in run[2])]
    return run, [s.pop("evaluations") for s in stats]


@pytest.mark.parametrize(
    "name, rule_name",
    [
        (name, rule_name)
        for name, inst in HARNESS_INSTANCES.items()
        for rule_name in HARNESS_RULES
        if {"ttc": inst.is_housing_market(), "bossy": name == "unit3"}.get(rule_name, True)
    ],
)
def test_harnesses_report_what_the_eager_table_reported(monkeypatch, name, rule_name):
    """Both harnesses give the bytes, stats and check reports they gave when
    every check read one eagerly built table, but for the evaluation counts."""
    inst = HARNESS_INSTANCES[name]
    rule = HARNESS_RULES[rule_name](inst)
    harnesses = [verify_theorem1] + ([] if is_lottery_rule(rule) else [verify_proposition1])
    for harness in harnesses:
        (eager, eager_counts), (shared, _) = (
            _harness_run(monkeypatch, checker, harness, inst, rule)
            for checker in (_parent_checker, _checker)
        )
        assert json.dumps(eager) == json.dumps(shared), harness.__name__
        assert set(eager_counts) == {0}, harness.__name__


def test_a_harness_builds_each_menu_once(monkeypatch):
    """Prop1's checks share one table's menus: on SD, which passes every check,
    the harness builds as many deviated profiles as its group check alone.

    SD is neutral, so the checks scan the 108 profiles whose agent 0 ranks
    objects 1 and 2 in ascending order.  A coalition of c agents builds 6^c
    deviated profiles per block, and has 6^(3 - c) blocks if it holds agent
    0, half as many otherwise: 216 + 2 * 108 for single agents, 2 * 216 + 108
    for pairs and 216 for all three, against 1,512 over every profile."""
    import axiomlab.axioms as axioms

    inst, rule = Instance(3, (2, 1, 1)), SerialDictatorshipRule((0, 1, 2))
    built = []
    deviated = axioms._deviated
    monkeypatch.setattr(axioms, "_deviated", lambda *args: built.append(1) or deviated(*args))
    check_axiom(inst, rule, Axiom.GROUP_STRATEGY_PROOF)
    group, built[:] = len(built), []
    verify_proposition1(inst, rule)
    assert len(built) == group == 1188


def test_a_harness_walks_the_joint_orbit_stream_once_for_its_counts(monkeypatch):
    """Thm1's four checks on RSD scan the orbits under the agent and object
    relabellings together, and each reports that stream's length, which
    ``orbit_count`` learns by walking it: once per instance, not per check."""
    import axiomlab.preferences as preferences

    inst = Instance(4, (2, 2, 1))
    preferences.orbit_count.cache_clear()
    walks = []
    stream = preferences.orbit_profiles
    monkeypatch.setattr(
        preferences, "orbit_profiles", lambda *args: walks.append(args[1:]) or stream(*args)
    )
    verdict = verify_theorem1(inst, RandomSerialDictatorshipRule())
    assert walks == [(True, True)]
    assert [s["scan"] for s in verdict.stats.values()] == ["agent_object_orbits"] * 4
    assert {s["scan_size"] for s in verdict.stats.values()} == {66}


def test_replay_theorem1_on_cycle_toy(unit3, cycle_profile):
    report = replay_theorem1_proof(unit3, cycle_profile, (0, 1, 2), (1, 2, 0))
    assert report["passed"]
    assert report["survivors"] == [(1, 2, 0)]
    assert report["matchings_scanned"] == 6


def test_replay_theorem1_on_showcase(showcase8):
    inst, rearranged, dominated, improved = showcase8
    report = replay_theorem1_proof(inst, rearranged, dominated, improved)
    assert report["passed"]
    assert report["survivors"] == [improved]
    # the rearranged profile is a fixed point of both constructions
    assert report["pushed_profile"] == rearranged
    assert report["rearranged_profile"] == rearranged


def test_replay_theorem1_requires_domination(unit3, cycle_profile):
    with pytest.raises(PreconditionViolated):
        replay_theorem1_proof(unit3, cycle_profile, (0, 1, 2), (0, 1, 2))


def test_replay_theorem1_rejects_null_bottom(null_toy):
    inst, profile, matching, improved = null_toy
    with pytest.raises(PreconditionViolated):
        replay_theorem1_proof(inst, profile, matching, improved)


def test_partition_agents(null_toy):
    inst, _, matching, improved = null_toy
    part = partition_agents(inst, matching, improved)
    assert part.cycle_agents == (0, 2, 1)
    assert part.fixed_real == frozenset()
    assert part.null_agents == frozenset({3})
    assert part.kappa == 3


def test_partition_rejects_null_movers():
    inst = Instance(2, (1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    with pytest.raises(PreconditionViolated):
        partition_agents(inst, (1, 0), (1, 2))  # agent 1 moves off the null object


def test_replay_theorem3_toy(null_toy):
    inst, profile, matching, improved = null_toy
    report = replay_theorem3_proof(inst, profile, matching, improved)
    assert report["passed"] and not report["degenerate"]
    assert report["partition"]["cycle_agents"] == [0, 2, 1]
    assert report["partition"]["null_agents"] == [3]
    assert report["sequence_length"] == 3
    assert report["blocking_swap"]["agents"] == [0, 1]
    assert report["blocking_swap"]["cycle_positions"] == [1, 3]


def test_replay_theorem3_degenerate_delegates():
    inst = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    profile = ((2, 1, 3, 0), (3, 2, 1, 0), (1, 3, 2, 0))
    matching = (1, 2, 3)
    improved = (2, 3, 1)
    report = replay_theorem3_proof(inst, profile, matching, improved)
    assert report["degenerate"]
    assert report["passed"]
    assert report["delegated"]["assertions"]["unique_survivor_is_improved"]


def test_replay_theorem3_rejects_two_cycle():
    inst = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    profile = ((2, 1, 3, 0), (1, 2, 3, 0), (1, 2, 3, 0))
    with pytest.raises(PreconditionViolated):
        replay_theorem3_proof(inst, profile, (1, 2, 0), (2, 1, 0))


def test_replay_theorem3_reduces_multiple_cycles():
    """Two disjoint 3-cycles plus a null-object agent: the replay keeps one
    cycle, re-profiles the other, and still ends at the blocking swap."""
    inst = Instance(7, (1,) * 7, null_object=0, domain=NULL_BOTTOM)
    matching = (1, 2, 3, 4, 5, 6, 0)
    improved = (2, 3, 1, 5, 6, 4, 0)
    base = (1, 2, 3, 4, 5, 6, 0)

    def pref_for(agent):
        if matching[agent] == 0:
            return base
        better = improved[agent]
        rest = [o for o in base if o not in (better, matching[agent])]
        return (better, matching[agent], *rest[:-1], 0)

    profile = tuple(pref_for(i) for i in range(7))
    report = replay_theorem3_proof(inst, profile, matching, improved)
    assert report["passed"]
    assert sorted(report["partition"]["cycle_agents"]) == [0, 1, 2]
    assert report["partition"]["fixed_real"] == [3, 4, 5]  # re-profiled cycle


def test_replay_theorem3_four_cycle_canonical():
    """The unit-capacity canonical layout with a 4-cycle: partition, step
    count, and the first/last cycle agents' blocking swap, all frozen."""
    inst = Instance(7, (2, 1, 1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    matching = (1, 2, 3, 4, 5, 0, 0)
    improved = (4, 1, 2, 3, 5, 0, 0)
    profile = (
        (2, 4, 5, 1, 3, 0),
        (5, 1, 3, 2, 4, 0),
        (2, 5, 4, 3, 1, 0),
        (1, 3, 5, 4, 2, 0),
        (3, 2, 5, 1, 4, 0),
        (2, 3, 1, 5, 4, 0),
        (4, 5, 2, 1, 3, 0),
    )
    report = replay_theorem3_proof(inst, profile, matching, improved)
    assert report["passed"]
    assert report["partition"] == {
        "cycle_agents": [0, 1, 2, 3],
        "fixed_real": [4],
        "null_agents": [5, 6],
        "kappa": 5,
    }
    assert report["sequence_length"] == 4
    assert report["blocking_swap"] == {
        "agents": [0, 3],
        "cycle_positions": [1, 4],
        "objects": [1, 4],
    }


def test_object_counts_after_rearrangement(unit3):
    """At any rearranged profile, every pairwise-efficient non-wasteful
    matching assigns each object exactly as the pushed matching does
    (exhaustive over all profiles and target matchings at n=3)."""
    from axiomlab.model import enumerate_matchings as all_matchings
    from axiomlab.model import object_usage

    matchings = all_matchings(unit3)
    for profile in enumerate_profiles(unit3):
        for target in matchings:
            pushed = push_to_top(unit3, profile, target)
            rearranged = common_rank_rearrange(unit3, pushed, target)
            usage = object_usage(unit3, target)
            for m in matchings:
                if (
                    matching_verdict(unit3, m, rearranged, "pairwise") is None
                    and matching_verdict(unit3, m, rearranged, "non-wasteful") is None
                ):
                    assert object_usage(unit3, m) == usage


def test_lottery_rule_on_null_bottom_reports_open_domain():
    """The equivalence claim for lottery rules is only proven on the general
    domain; on the null-bottom domain the harness still runs but flags the
    domain in its details."""
    inst = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    verdict = verify_theorem1(inst, RandomSerialDictatorshipRule())
    assert verdict.theorem == "Thm1a"  # slack capacity: the null has a spare copy
    assert "note" in verdict.details
    assert verdict.conclusion_verified is True  # RSD behaves here regardless


def test_rsd_puts_full_weight_on_unanimous_top(unit3, cycle_profile):
    """After the rearrangement every agent tops her improved allotment, so
    every dictatorship order delivers it: the lottery is a point mass."""
    improved = (1, 2, 0)
    pushed = push_to_top(unit3, cycle_profile, improved)
    rearranged = common_rank_rearrange(unit3, pushed, improved)
    lottery = random_serial_dictatorship(unit3, rearranged)
    assert lottery == Lottery.point(improved)


def test_verify_proposition1(unit3):
    for rule in (SerialDictatorshipRule((0, 1, 2)), TopTradingCyclesRule((0, 1, 2))):
        verdict = verify_proposition1(unit3, rule)
        assert verdict.conclusion_verified is True
        assert verdict.details["all_hold"] is True
    bossy = verify_proposition1(unit3, bossy_flip_rule(unit3))
    assert bossy.conclusion_verified is True
    assert bossy.details["all_hold"] is False
    assert set(bossy.details["properties"].values()) == {False}
    with pytest.raises(AxiomNotApplicable):
        verify_proposition1(unit3, RandomSerialDictatorshipRule())


def test_verify_proposition1_beyond_three_agents():
    inst = Instance(4, (2, 1, 1))
    sd = verify_proposition1(inst, SerialDictatorshipRule((0, 1, 2, 3)))
    assert sd.conclusion_verified is True and sd.details["all_hold"] is True
    assert [h["profiles_checked"] for h in sd.hypotheses_verified] == [1296] * 5
    table = verify_proposition1(inst, random_tabulated_rule(inst, 11))
    assert table.conclusion_verified is True and table.details["all_hold"] is False
    assert set(table.details["properties"].values()) == {False}


def test_search_finds_pairwise_but_not_pareto_rule(unit3):
    result = search_counterexample(
        unit3,
        required=[Axiom.EX_POST_PAIRWISE, Axiom.EX_POST_NON_WASTEFUL],
        violated=Axiom.EX_POST_PARETO,
        budget=5,
        seed=1,
    )
    assert result.found
    assert check_axiom(unit3, result.rule, Axiom.EX_POST_PAIRWISE).passed
    assert check_axiom(unit3, result.rule, Axiom.EX_POST_NON_WASTEFUL).passed
    assert not check_axiom(unit3, result.rule, Axiom.EX_POST_PARETO).passed
    # consistent with the deterministic equivalence: such a rule cannot be
    # Maskin monotonic
    assert not check_axiom(unit3, result.rule, Axiom.MASKIN_MONOTONIC).passed


def test_search_round_trips_through_serialization(unit3):
    result = search_counterexample(
        unit3,
        required=[Axiom.EX_POST_PAIRWISE, Axiom.EX_POST_NON_WASTEFUL],
        violated=Axiom.EX_POST_PARETO,
        budget=3,
        seed=2,
    )
    assert result.found
    payload = rule_to_dict(unit3, result.rule)
    loaded_inst, _, loaded_rule = rule_from_dict(payload)
    assert loaded_inst == unit3
    assert loaded_rule.table == dict(result.rule.table)
    assert not check_axiom(loaded_inst, loaded_rule, Axiom.EX_POST_PARETO).passed


# sha256 of the sorted-key JSON of ``rule_to_dict`` for the found lottery
# rule, recorded from the Fraction-weight Lottery before it held integer
# counts.  The first query finds the greedy candidate (support choice only);
# the second finds a seeded random one, so it also pins the rng draw order.
# The search reads its draws from the generator's raw 32-bit words
# (``theorems._Drawer``), so these digests rely on CPython's word layout for
# ``random()``, ``getrandbits`` and ``_randbelow_with_getrandbits``.  They
# and the ``randrange`` oracle ``_eager_candidates``, run on every supported
# Python, hold that assumption.
PINNED_LOTTERY_SEARCHES = [
    (Axiom.EX_POST_PAIRWISE, Axiom.EX_POST_PARETO, 1, 1,
     "cdb9a22a18c0b1e85f3056e26512d205495fca190447fe4673b2dd1210060382"),
    (Axiom.EX_POST_PAIRWISE, Axiom.EX_POST_PARETO, 2, 1,
     "cdb9a22a18c0b1e85f3056e26512d205495fca190447fe4673b2dd1210060382"),
    (Axiom.EX_POST_NON_WASTEFUL, Axiom.PROB_MONOTONIC, 1, 2,
     "4d7af158a76b3a4b49f4f38f7738b29021d793e750a3afef7c532521c2649b3b"),
    (Axiom.EX_POST_NON_WASTEFUL, Axiom.PROB_MONOTONIC, 2, 2,
     "ccffd3331226c71956bcbce291b613f79595ccc6a55873f009a22c8ebe172ded"),
]


@pytest.mark.parametrize("required, violated, seed, tried, digest", PINNED_LOTTERY_SEARCHES)
def test_lottery_search_candidate_stream_is_pinned(unit3, required, violated, seed, tried, digest):
    result = search_counterexample(unit3, [required], violated, 20, seed=seed, rule_space="lottery")
    assert result.found and result.candidates_tried == tried
    text = json.dumps(rule_to_dict(unit3, result.rule), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _direct_prescreen(inst, keep_kinds, break_kind, verdict=matching_verdict):
    """The search's pre-screen taken directly: ``matching_verdict`` on every profile."""
    profiles = list(enumerate_profiles(inst))
    allowed = {
        p: [
            m
            for m in enumerate_matchings(inst)
            if all(verdict(inst, m, p, k) is None for k in keep_kinds)
        ]
        for p in profiles
    }
    breakers = {
        p: [m for m in allowed[p] if break_kind and verdict(inst, m, p, break_kind)]
        for p in profiles
    }
    return allowed, breakers


@cache
def _cached_direct_prescreen(inst, keep_kinds, break_kind):
    """``_direct_prescreen`` taken once per query; its readers do not change it."""
    return _direct_prescreen(inst, keep_kinds, break_kind)


def _eager_candidates(inst, required, violated, seed, rule_space="lottery"):
    """The search's candidates, in order, as full tables.

    The reference keeps its own copy of the search's draws, made with
    ``randrange`` on the direct pre-screen, and builds each profile's entry
    (a ``Lottery`` in the lottery space) at once, so the candidates it yields
    do not depend on the search's table.
    """
    rng = random.Random(seed)
    keep = tuple(EX_POST_KINDS[a] for a in required if a in EX_POST_KINDS)
    allowed, breakers = _cached_direct_prescreen(inst, keep, EX_POST_KINDS.get(violated))
    for attempt in itertools.count():
        table = {}
        for p in allowed:
            if attempt == 0:
                first = (breakers[p] or allowed[p])[0]
            else:
                pool = breakers[p] if breakers[p] and rng.random() < 0.75 else allowed[p]
                first = pool[rng.randrange(len(pool))]
            if rule_space == "deterministic":
                table[p] = first
                continue
            extra = allowed[p][rng.randrange(len(allowed[p]))] if attempt else allowed[p][0]
            support = {first, extra}
            table[p] = Lottery({m: 1 for m in support}, len(support))
        yield table


def _searched_candidates(
    monkeypatch, inst, required, violated, budget, seed, rule_space="lottery", unread=True
):
    """Run a search; return each candidate it checked, with an unread copy if ``unread``."""
    import axiomlab.theorems as theorems

    fresh = {}

    def recording(inst, outcomes, axiom, *args, **kwargs):
        rule = outcomes.rule
        fresh.setdefault(id(rule), (rule, copy.deepcopy(rule) if unread else None))
        return check_axiom(inst, outcomes, axiom, *args, **kwargs)

    monkeypatch.setattr(theorems, "check_axiom", recording)
    search_counterexample(inst, required, violated, budget, seed=seed, rule_space=rule_space)
    return list(fresh.values())


def _search_matches_the_oracle(monkeypatch, inst, required, violated, budget, seed, rule_space):
    """Whether the search checks exactly the oracle's first ``budget`` candidates,
    entry for entry and in profile order; the search must find no rule."""
    searched = _searched_candidates(
        monkeypatch, inst, required, violated, budget, seed, rule_space, unread=False
    )
    assert len(searched) == budget
    oracle = _eager_candidates(inst, required, violated, seed, rule_space)
    return all(
        list(rule.table) == list(table) and {p: rule.table[p] for p in rule.table} == table
        for (rule, _), table in zip(searched, oracle)
    )


def test_lottery_search_builds_each_entry_once_and_only_where_read(monkeypatch, unit3):
    """A lottery candidate builds a profile's lottery on the first read only."""
    built = []
    init = Lottery.__init__

    def counted(self, counts, denominator):
        built.append(counts)
        init(self, counts, denominator)

    monkeypatch.setattr(Lottery, "__init__", counted)
    required = [Axiom.PROB_MONOTONIC, Axiom.EX_POST_NON_WASTEFUL, Axiom.EX_POST_PAIRWISE]
    candidates = _searched_candidates(monkeypatch, unit3, required, Axiom.EX_POST_PARETO, 25, 3)
    searched = len(built)
    assert len(candidates) == 25 and 0 < searched < 25 * 216
    # Reading every entry twice after the search builds each entry the
    # search did not read, once; so the search built no entry twice.
    for candidate, _ in candidates:
        assert all(candidate.table[p] is candidate.table[p] for p in candidate.table)
    assert len(built) == 25 * 216


LAZY_TABLE_QUERIES = [
    ([Axiom.EX_POST_NON_WASTEFUL], Axiom.PROB_MONOTONIC, 1),
    ([Axiom.EX_POST_NON_WASTEFUL], Axiom.PROB_MONOTONIC, 2),
    ([Axiom.PROB_MONOTONIC, Axiom.EX_POST_NON_WASTEFUL, Axiom.EX_POST_PAIRWISE],
     Axiom.EX_POST_PARETO, 3),
]


@pytest.mark.parametrize("required, violated, seed", LAZY_TABLE_QUERIES)
def test_lazy_lottery_candidates_check_as_eager_tables(monkeypatch, unit3, required, violated, seed):
    """Reports and files of a lazy candidate are those of its eagerly built table.

    Each query tries the greedy candidate and at least one random one.
    """
    searched = _searched_candidates(monkeypatch, unit3, required, violated, 3, seed)
    candidates = [unread for _, unread in searched]
    eager_tables = _eager_candidates(unit3, required, violated, seed)
    assert len(candidates) >= 2
    lottery_axioms = [a for a in Axiom if a not in DETERMINISTIC_ONLY]
    for candidate, table in zip(candidates, eager_tables):
        eager = TabulatedLotteryRule(table)
        lazy = copy.deepcopy(candidate)
        for axiom in lottery_axioms:
            assert (
                check_axiom(unit3, lazy, axiom, (0, 1, 2)).to_dict()
                == check_axiom(unit3, eager, axiom, (0, 1, 2)).to_dict()
            )
        lazy = copy.deepcopy(candidate)
        assert json.dumps(rule_to_dict(unit3, lazy)) == json.dumps(rule_to_dict(unit3, eager))
        assert {p: lazy.table[p] for p in lazy.table} == table
        with pytest.raises(TableMiss):
            evaluate(unit3, lazy, ((0, 1, 2),) * 4)


def test_search_respects_theorem1(unit3):
    """Probabilistic monotonicity plus the two weak efficiency axioms leave no
    room for an ex-post Pareto violation; the search must come up empty."""
    for inst in (Instance(2, (1, 1)), unit3):
        result = search_counterexample(
            inst,
            required=[
                Axiom.PROB_MONOTONIC,
                Axiom.EX_POST_NON_WASTEFUL,
                Axiom.EX_POST_PAIRWISE,
            ],
            violated=Axiom.EX_POST_PARETO,
            budget=25,
            seed=3,
            rule_space="lottery",
        )
        assert result.status == "budget_exhausted"
        assert result.rule is None


PRESCREEN_INSTANCES = {
    "unit3": Instance(3, (1, 1, 1)),
    "slack3-211": Instance(3, (2, 1, 1)),
    "slack3-112": Instance(3, (1, 1, 2)),
    "tight4-211": Instance(4, (2, 1, 1)),
    "null-bottom3": Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
}


@pytest.mark.parametrize("name", PRESCREEN_INSTANCES)
def test_prescreen_on_sorted_profiles_is_the_direct_filter(monkeypatch, name):
    """Every profile's allowed and breaking lists are the direct filter's, for every
    combination of kept kinds and broken kind, in the same order, and all the
    lists share one tuple per matching."""
    import axiomlab.theorems as theorems

    inst = PRESCREEN_INSTANCES[name]
    kinds = sorted(EX_POST_KINDS.values())
    profiles = list(enumerate_profiles(inst))
    universe = enumerate_matchings(inst)
    verdicts = {
        (p, m, kind): matching_verdict(inst, m, p, kind)
        for p in profiles
        for m in universe
        for kind in kinds
    }
    screened = []

    def recorded(inst, m, p, kind):  # the pre-screen reads sorted profiles only
        screened.append(p)
        return verdicts[p, m, kind]

    monkeypatch.setattr(theorems, "matching_verdict", recorded)
    for size in range(len(kinds) + 1):
        for keep in itertools.combinations(kinds, size):
            for broken in (None, *kinds):
                allowed, breakers = theorems._prescreen(inst, profiles, list(keep), broken)
                direct_allowed, direct_breakers = _direct_prescreen(
                    inst, keep, broken, lambda _, m, p, kind: verdicts[p, m, kind]
                )
                assert allowed == direct_allowed, (keep, broken)
                assert breakers == (direct_breakers if broken else {}), (keep, broken)
                shared = {id(m) for ms in (*allowed.values(), *breakers.values()) for m in ms}
                assert len(shared) <= len(universe), (keep, broken)
    assert all(list(p) == sorted(p) for p in screened)


@pytest.mark.parametrize("rule_space", RULE_SPACES)
@pytest.mark.parametrize("name", ["unit3", "slack3-211", "null-bottom3", "tight4-211"])
def test_search_candidates_are_the_randrange_oracles(monkeypatch, name, rule_space):
    """Thirty candidates per query hold every entry the ``randrange`` oracle draws.

    The search reads four words per profile at a time; at 1,296 profiles a
    candidate here places 2,400 to 6,300 of them, so tight4-211 reads again
    within and between candidates.
    """
    inst = PRESCREEN_INSTANCES[name]
    monotonic = Axiom.PROB_MONOTONIC if rule_space == "lottery" else Axiom.MASKIN_MONOTONIC
    queries = [
        ([monotonic], Axiom.EX_POST_PAIRWISE),
        ([monotonic, Axiom.EX_POST_NON_WASTEFUL, Axiom.EX_POST_PAIRWISE], Axiom.EX_POST_PARETO),
    ]
    for seed, (required, violated) in enumerate(queries):
        assert _search_matches_the_oracle(
            monkeypatch, inst, required, violated, 30, seed, rule_space
        ), (required, violated)


#: 510 matchings at n=9, caps (8,8), every one allowed when only monotonicity
#: is required, and 501 or 509 of them break ex-post Pareto efficiency at
#: each profile.  Those two lengths' thresholds have nonzero low bits, so the
#: drawer fixes up every word that shares their top byte.
FIX_UP_INSTANCE = Instance(9, (8, 8))


@pytest.mark.parametrize("rule_space", RULE_SPACES)
def test_search_candidates_with_fixed_up_symbols_are_the_randrange_oracles(
    monkeypatch, rule_space
):
    monotonic = Axiom.PROB_MONOTONIC if rule_space == "lottery" else Axiom.MASKIN_MONOTONIC
    assert _search_matches_the_oracle(
        monkeypatch, FIX_UP_INSTANCE, [monotonic], Axiom.EX_POST_PARETO, 10, 1, rule_space
    )


@pytest.mark.parametrize("rule_space", RULE_SPACES)
@pytest.mark.parametrize("name", ["unit3", "tight4-211"])
def test_search_candidates_key_the_domain_in_enumeration_order(monkeypatch, name, rule_space):
    """Every candidate's table lists the profiles in enumeration order, its keys
    are the domain set, and the walk finds every profile in it.  The profiles
    are the domain set's own tuples, and a lottery candidate's keys are that
    set itself, so the totality test matches each profile by identity."""
    inst = PRESCREEN_INSTANCES[name]
    monotonic = Axiom.PROB_MONOTONIC if rule_space == "lottery" else Axiom.MASKIN_MONOTONIC
    searched = _searched_candidates(
        monkeypatch, inst, [monotonic], Axiom.EX_POST_PAIRWISE, 10, 0, rule_space, unread=False
    )
    profiles, domain = list(enumerate_profiles(inst)), profile_set(inst)
    assert len(searched) == 10
    for rule, _ in searched:
        assert list(rule.table) == profiles
        assert rule.table.keys() == domain
        assert all(p in rule.table for p in profiles)
        assert all(p is q for p, q in zip(rule.table, sorted(domain)))
        if rule_space == "lottery":
            assert rule.table.keys() is domain


#: Pool lengths for the drawer: every length from 1 to 600, so more than 255
#: distinct thresholds, many with nonzero low bits, and two long pools.
DRAWN_LENGTHS = [*range(1, 601), 65_537, 3_000_000]


def _drawn_pools(lengths):
    """Each length once without breakers and once with breakers, whose lengths
    run through ``lengths`` backwards; breakers are negative, so never allowed."""
    pools = []
    for n, b in zip(lengths, reversed(lengths)):
        pools += [(range(n), range(0)), (range(n), range(-1, -1 - b, -1))]
    return dict(enumerate(pools))


@pytest.mark.parametrize("lengths", [DRAWN_LENGTHS, range(1, 71)], ids=["600", "70"])
@pytest.mark.parametrize("seed", range(12))
def test_draws_are_random_and_choice_on_the_same_generator(seed, lengths):
    """The drawer makes the draws ``rng.random() < 0.75`` and ``rng.choice`` make.

    Five candidates in each space, in blocks of seven profiles, so the last
    block is short; the words they place are the words the oracle read.  The
    600 lengths need two-byte symbols and fix-ups; the 70 lengths fit one
    byte and need none.
    """
    pools = _drawn_pools(lengths)
    for lottery in (False, True):
        drawer = _Drawer(random.Random(seed), frozenset(pools), pools, 7, lottery)
        tables = drawer.tables()
        greedy = next(tables)
        assert all(
            greedy.picks(i) == ((b or a)[0], a[0] if lottery else None)
            for i, (a, b) in pools.items()
        )
        rng = random.Random(seed)
        for table in itertools.islice(tables, 5):
            for i, (allowed, breakers) in pools.items():
                pool = breakers if breakers and rng.random() < 0.75 else allowed
                first = rng.choice(pool)
                assert table.picks(i) == (first, rng.choice(allowed) if lottery else None), i
        skipped = random.Random(seed)
        skipped.getrandbits(32 * drawer.words_drawn)
        assert skipped.getstate() == rng.getstate()


@pytest.mark.parametrize("lengths", [DRAWN_LENGTHS, range(1, 71)], ids=["600", "70"])
def test_symbols_rank_the_generators_32_bit_outputs(lengths):
    """Symbol i is the number of thresholds at or below the i-th ``getrandbits(32)``,
    and the thresholds are three quarters' and one per pool length."""
    pools = _drawn_pools(lengths)
    for seed in range(3):
        drawer = _Drawer(random.Random(seed), frozenset(pools), pools, 7, True)
        for _ in range(3):
            symbols = drawer.read()
        rng = random.Random(seed)
        words = [rng.getrandbits(32) for _ in symbols]
        assert drawer.raw == b"".join(w.to_bytes(4, "little") for w in words)
        assert [ord(s) for s in symbols] == [bisect_right(drawer.thresholds, w) for w in words]
    limits = {3 << 30} | {n << (32 - n.bit_length()) for n in lengths}
    assert drawer.thresholds == sorted(limits)
    assert (len(limits) > 255) == (lengths is DRAWN_LENGTHS)
    assert any(t & 0xFFFFFF for t in limits) == (lengths is DRAWN_LENGTHS)


def test_the_drawer_bounds_its_symbols():
    """Every symbol must be one UTF-16 character: the 65,536 pool lengths of 17
    bits have as many thresholds, one more than the symbols can count."""
    pools = {n: (range(n), range(0)) for n in range(1 << 16, 1 << 17)}
    with pytest.raises(BoundsError, match="65536 distinct draw thresholds exceed the bound of 65535"):
        _Drawer(random.Random(0), frozenset(pools), pools, 6, False)


def _oracle_search(inst, required, violated, budget, seed, rule_space):
    """The search on full tables, checking the violated axiom first, then ``required``."""
    tabulate = TabulatedDeterministicRule if rule_space == "deterministic" else TabulatedLotteryRule
    tables = _eager_candidates(inst, required, violated, seed, rule_space)
    names = [a.value for a in required]
    for tried, table in enumerate(itertools.islice(tables, budget), start=1):
        rule = tabulate(table)
        report = check_axiom(inst, rule, violated)
        if not report.passed and all(check_axiom(inst, rule, a).passed for a in required):
            return SearchResult("found", rule, report.witness, tried, names, violated.value)
    return SearchResult("budget_exhausted", None, None, budget, names, violated.value)


def _random_queries(rule_space, count, seed):
    """``count`` queries of up to three required axioms, drawn from the axioms the space checks."""
    rng = random.Random(seed)
    axioms = [
        a
        for a in Axiom
        if a is not Axiom.INDIVIDUAL_RATIONALITY
        and (rule_space == "deterministic" or a not in DETERMINISTIC_ONLY)
    ]
    return [
        (rng.sample(axioms, rng.randrange(4)), rng.choice(axioms), rng.randrange(5))
        for _ in range(count)
    ]


@pytest.mark.parametrize("rule_space", RULE_SPACES)
def test_search_check_order_changes_no_result(unit3, slack3, rule_space):
    """Checking the unenforced requirements before the violated axiom gives the
    oracle's result and rule, found or not, on random queries at n=3."""
    outcomes = set()
    for inst in (unit3, slack3):
        for required, violated, seed in _random_queries(rule_space, 12, 7):
            query = (inst, required, violated, seed)
            result = search_counterexample(inst, required, violated, 4, seed, rule_space)
            oracle = _oracle_search(inst, required, violated, 4, seed, rule_space)
            assert replace(result, rule=None) == replace(oracle, rule=None), query
            digests = [
                r.rule and json.dumps(rule_to_dict(inst, r.rule), sort_keys=True)
                for r in (result, oracle)
            ]
            assert digests[0] == digests[1], query
            outcomes.add(result.status)
    assert outcomes == {"found", "budget_exhausted"}


def test_thm1b_lottery_search_makes_no_pareto_check(monkeypatch):
    """With probabilistic monotonicity required, the search never reaches the
    ex-post Pareto scan on n=4, caps (2,1,1): monotonicity rejects every candidate."""
    import axiomlab.theorems as theorems

    checked = []

    def recording(inst, rule, axiom, *args, **kwargs):
        checked.append(axiom)
        return check_axiom(inst, rule, axiom, *args, **kwargs)

    monkeypatch.setattr(theorems, "check_axiom", recording)
    required = [Axiom.PROB_MONOTONIC, Axiom.EX_POST_NON_WASTEFUL, Axiom.EX_POST_PAIRWISE]
    result = search_counterexample(
        Instance(4, (2, 1, 1)), required, Axiom.EX_POST_PARETO, 20, seed=1, rule_space="lottery"
    )
    assert result.status == "budget_exhausted" and result.candidates_tried == 20
    assert checked == [Axiom.PROB_MONOTONIC] * 20


def test_search_budget_zero(unit3):
    """A budget below 1 tries no candidate, so it is rejected instead of reported as exhausted."""
    for budget in (0, -3):
        with pytest.raises(BoundsError, match="budget"):
            search_counterexample(unit3, required=[], violated=Axiom.EX_POST_PARETO, budget=budget)


def test_search_rejects_an_unknown_rule_space(monkeypatch, unit3):
    """Only the two rule spaces are searched; any other value is rejected before any work."""
    import axiomlab.theorems as theorems

    enumerations = []
    monkeypatch.setattr(theorems, "profile_set", enumerations.append)
    for space in ("Deterministic", "lotteries", ""):
        with pytest.raises(PreconditionViolated, match="rule space"):
            search_counterexample(unit3, [], Axiom.EX_POST_PARETO, budget=1, rule_space=space)
    assert enumerations == []


@pytest.mark.parametrize(
    "rule_space, required, violated",
    [
        ("lottery", [Axiom.STRATEGY_PROOF], Axiom.EX_POST_PARETO),
        ("lottery", [Axiom.EX_POST_PAIRWISE], Axiom.NON_BOSSY),
        ("deterministic", [Axiom.INDIVIDUAL_RATIONALITY], Axiom.EX_POST_PARETO),
        ("lottery", [], Axiom.INDIVIDUAL_RATIONALITY),
    ],
)
def test_search_rejects_an_inapplicable_axiom_before_any_work(
    monkeypatch, rule_space, required, violated
):
    """An axiom no candidate can be checked against fails before any matching is screened."""
    import axiomlab.theorems as theorems

    verdicts = []
    monkeypatch.setattr(theorems, "matching_verdict", lambda *args: verdicts.append(args))
    with pytest.raises(AxiomNotApplicable):
        search_counterexample(
            Instance(4, (2, 1, 1)), required, violated, budget=5, rule_space=rule_space
        )
    assert verdicts == []
