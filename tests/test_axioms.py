"""Axiom checkers: verdicts, witnesses, determinism, and implications."""

import json
from fractions import Fraction

import pytest

from axiomlab import (
    AxiomNotApplicable,
    BoundsError,
    Instance,
    Lottery,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TableMiss,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TopTradingCyclesRule,
    bossy_flip_rule,
    check_axiom,
    check_individual_rationality,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
    is_monotonic_transformation,
    serial_dictatorship,
)
from axiomlab.axioms import (
    DETERMINISTIC_ONLY,
    EX_POST_KINDS,
    Axiom,
    replay_witness,
)
from axiomlab.matchings import matching_verdict
from axiomlab.preferences import weakly_prefers
from axiomlab.rules import random_tabulated_rule

SD = SerialDictatorshipRule((0, 1, 2))
RSD = RandomSerialDictatorshipRule()
TTC = TopTradingCyclesRule((0, 1, 2))


def test_sd_is_strategy_proof(unit3):
    report = check_axiom(unit3, SD, Axiom.STRATEGY_PROOF)
    assert report.passed
    assert report.profiles_checked == 216


def test_rsd_satisfies_equal_treatment(unit3):
    report = check_axiom(unit3, RSD, Axiom.EQUAL_TREATMENT)
    assert report.passed


def test_equal_treatment_catches_favoritism(unit3):
    """A dictatorship with a fixed order treats identical agents unequally."""
    report = check_axiom(unit3, SD, Axiom.EQUAL_TREATMENT)
    assert not report.passed
    i, j = report.witness["agents"]
    profile = report.witness["profile"]
    assert profile[i] == profile[j]
    assert replay_witness(unit3, SD, Axiom.EQUAL_TREATMENT, report.witness)


def test_bossy_rule_verdicts(unit3):
    bossy = bossy_flip_rule(unit3)
    expected = {
        Axiom.STRATEGY_PROOF: True,
        Axiom.NON_BOSSY: False,
        Axiom.PAIRWISE_STRATEGY_PROOF: False,
        Axiom.GROUP_STRATEGY_PROOF: False,
        Axiom.MASKIN_MONOTONIC: False,
    }
    for axiom, should_pass in expected.items():
        report = check_axiom(unit3, bossy, axiom)
        assert report.passed == should_pass, axiom
        if not should_pass:
            assert replay_witness(unit3, bossy, axiom, report.witness)


def test_bossy_witness_shape(unit3):
    bossy = bossy_flip_rule(unit3)
    report = check_axiom(unit3, bossy, Axiom.NON_BOSSY)
    witness = report.witness
    assert witness["kind"] == "bossiness"
    assert witness["agent"] == 0  # agent 0 flips the others
    assert witness["outcome"][0] == witness["flipped_outcome"][0] == 0
    assert witness["outcome"] != witness["flipped_outcome"]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_implication_lattice_on_random_rules(unit3, seed):
    """Group SP implies pairwise SP implies SP; group SP implies non-bossiness;
    degenerate probabilistic monotonicity implies Maskin monotonicity."""
    rules = [SD, TTC, bossy_flip_rule(unit3), random_tabulated_rule(unit3, seed)]
    for rule in rules:
        verdicts = {
            axiom: check_axiom(unit3, rule, axiom).passed
            for axiom in (
                Axiom.GROUP_STRATEGY_PROOF,
                Axiom.PAIRWISE_STRATEGY_PROOF,
                Axiom.STRATEGY_PROOF,
                Axiom.NON_BOSSY,
                Axiom.MASKIN_MONOTONIC,
                Axiom.PROB_MONOTONIC,
            )
        }
        if verdicts[Axiom.GROUP_STRATEGY_PROOF]:
            assert verdicts[Axiom.PAIRWISE_STRATEGY_PROOF]
            assert verdicts[Axiom.NON_BOSSY]
        if verdicts[Axiom.PAIRWISE_STRATEGY_PROOF]:
            assert verdicts[Axiom.STRATEGY_PROOF]
        if verdicts[Axiom.PROB_MONOTONIC]:
            assert verdicts[Axiom.MASKIN_MONOTONIC]


def test_reports_are_deterministic(unit3):
    bossy = bossy_flip_rule(unit3)
    first = check_axiom(unit3, bossy, Axiom.MASKIN_MONOTONIC)
    second = check_axiom(unit3, bossy, Axiom.MASKIN_MONOTONIC)
    assert first == second  # wall_time excluded from comparison
    assert first.witness == second.witness


def test_worker_count_does_not_change_reports(unit3):
    bossy = bossy_flip_rule(unit3)
    for axiom in (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY, Axiom.EX_POST_PARETO):
        serial = check_axiom(unit3, bossy, axiom, workers=1)
        parallel = check_axiom(unit3, bossy, axiom, workers=2)
        assert serial == parallel


def test_axiom_applicability(unit3):
    with pytest.raises(AxiomNotApplicable):
        check_axiom(unit3, RSD, Axiom.STRATEGY_PROOF)
    with pytest.raises(AxiomNotApplicable):
        check_axiom(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY)  # no endowment
    with pytest.raises(AxiomNotApplicable):
        check_individual_rationality(Instance(3, (2, 1, 1)), SD, (0, 1, 2))


def test_ttc_individually_rational_for_every_endowment(unit3):
    from itertools import permutations

    for endowment in permutations(range(3)):
        rule = TopTradingCyclesRule(endowment)
        report = check_individual_rationality(unit3, rule, endowment)
        assert report.passed


def test_sd_violates_individual_rationality(unit3):
    """The last dictator can lose the house she owns and tops."""
    endowment = (1, 2, 0)  # agent 2 owns object 0
    report = check_individual_rationality(unit3, SD, endowment)
    assert not report.passed
    assert replay_witness(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY, report.witness)


def test_constant_endowment_rule_is_individually_rational(unit3):
    endowment = (2, 0, 1)
    constant = TabulatedDeterministicRule(
        {p: endowment for p in enumerate_profiles(unit3)}
    )
    assert check_individual_rationality(unit3, constant, endowment).passed


@pytest.mark.parametrize("workers", [0, -5])
def test_worker_count_below_one_is_rejected(unit3, workers):
    """A worker count below 1 used to run silently in one process."""
    with pytest.raises(BoundsError):
        check_axiom(
            unit3, SerialDictatorshipRule((0, 1, 2)), Axiom.STRATEGY_PROOF,
            workers=workers,
        )


def test_ex_post_axioms_on_degenerate_rules(unit3):
    always_first = TabulatedDeterministicRule(
        {p: (0, 1, 2) for p in enumerate_profiles(unit3)}
    )
    assert not check_axiom(unit3, always_first, Axiom.EX_POST_PARETO).passed
    assert check_axiom(unit3, always_first, Axiom.EX_POST_NON_WASTEFUL).passed
    report = check_axiom(unit3, always_first, Axiom.EX_POST_PAIRWISE)
    assert not report.passed
    assert report.witness["kind"] == "swap"
    assert replay_witness(unit3, always_first, Axiom.EX_POST_PAIRWISE, report.witness)


def test_prob_monotonic_fail_witness_replays(unit3):
    table = {
        p: Lottery.point(serial_dictatorship(unit3, (0, 1, 2), p))
        for p in enumerate_profiles(unit3)
    }
    bad_profile = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    table[bad_profile] = Lottery.from_weights(
        {
            serial_dictatorship(unit3, (1, 2, 0), bad_profile): Fraction(1, 2),
            serial_dictatorship(unit3, (2, 1, 0), bad_profile): Fraction(1, 2),
        }
    )
    rule = TabulatedLotteryRule(table)
    report = check_axiom(unit3, rule, Axiom.PROB_MONOTONIC)
    assert not report.passed
    assert replay_witness(unit3, rule, Axiom.PROB_MONOTONIC, report.witness)


def _doctored(inst, rule, axiom, witness):
    """The witness with its deviation replaced by one that is no violation.

    Each replacement fails exactly one condition of the axiom's definition:
    a truthful report, a transformation that is not monotonic, a pair of
    agents with different preferences, or a matching the rule does not pick.
    """
    w = dict(witness)
    profile = w["profile"]
    if axiom in (Axiom.STRATEGY_PROOF, Axiom.NON_BOSSY):
        w["misreport"] = profile[w["agent"]]
    elif axiom in (Axiom.PAIRWISE_STRATEGY_PROOF, Axiom.GROUP_STRATEGY_PROOF):
        w["misreports"] = [profile[a] for a in w["agents"]]
    elif axiom in (Axiom.MASKIN_MONOTONIC, Axiom.PROB_MONOTONIC):
        chosen = w["matching"]  # the rule is deterministic
        w["transformed"] = next(
            t
            for t in enumerate_profiles(inst)
            if evaluate(inst, rule, t) != chosen
            and not is_monotonic_transformation(profile, t, chosen)
        )
        if axiom is Axiom.MASKIN_MONOTONIC:
            w["new_outcome"] = evaluate(inst, rule, w["transformed"])
        else:
            w["weight_after"] = "0"
    elif axiom is Axiom.EQUAL_TREATMENT:
        i, j = w["agents"]
        w["profile"] = next(p for p in enumerate_profiles(inst) if p[i] != p[j])
        w["matching"] = evaluate(inst, rule, w["profile"])
        swapped = list(w["matching"])
        swapped[i], swapped[j] = swapped[j], swapped[i]
        w["swapped"] = tuple(swapped)
    elif axiom is Axiom.INDIVIDUAL_RATIONALITY:
        (agent,), (_, endowed) = w["agents"], w["objects"]
        w["matching"] = next(
            m
            for m in enumerate_matchings(inst)
            if m != w["matching"] and not weakly_prefers(profile[agent], m[agent], endowed)
        )
        w["objects"] = [w["matching"][agent], endowed]
    else:
        kind = EX_POST_KINDS[axiom]
        m, verdict = next(
            (m, verdict)
            for m in enumerate_matchings(inst)
            if m != w["matching"]
            and (verdict := matching_verdict(inst, m, profile, kind)) is not None
        )
        w = {**verdict, "profile": profile, "matching": m}
    assert w != witness
    return w


@pytest.mark.parametrize("axiom", list(Axiom), ids=lambda a: a.value)
def test_every_fail_witness_replays_and_a_doctored_one_does_not(axiom):
    """Replay confirms the recorded violation, also in its JSON form, and nothing else."""
    slack = axiom is Axiom.EX_POST_NON_WASTEFUL  # unit capacities are never wasted
    inst = Instance(3, (2, 1, 1)) if slack else Instance(3, (1, 1, 1))
    rule = random_tabulated_rule(inst, 11)
    report = check_axiom(inst, rule, axiom, endowment=(1, 2, 0))
    assert not report.passed
    assert replay_witness(inst, rule, axiom, report.witness)
    assert replay_witness(inst, rule, axiom, json.loads(json.dumps(report.witness)))
    assert not replay_witness(inst, rule, axiom, _doctored(inst, rule, axiom, report.witness))
    assert not replay_witness(inst, rule, axiom, {**report.witness, "kind": "other"})


def _count_evaluations(monkeypatch):
    """Record every ``evaluate``/``evaluate_lottery`` call the checkers make."""
    import axiomlab.axioms as axioms

    calls = []
    for name in ("evaluate", "evaluate_lottery"):

        def counted(*args, original=getattr(axioms, name)):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(axioms, name, counted)
    return calls


@pytest.mark.parametrize("axiom", list(Axiom), ids=lambda a: a.value)
def test_a_table_of_the_axioms_kind_is_read_in_place(monkeypatch, unit3, axiom):
    """Neither the scan nor the replay evaluates a table of the axiom's kind again."""
    base = SD if axiom in DETERMINISTIC_ONLY else RSD
    outcomes = {p: evaluate(unit3, base, p) for p in enumerate_profiles(unit3)}
    table = TabulatedDeterministicRule if axiom in DETERMINISTIC_ONLY else TabulatedLotteryRule
    rule = table(outcomes)
    expected = check_axiom(unit3, base, axiom, endowment=(1, 2, 0)).to_dict()
    calls = _count_evaluations(monkeypatch)
    report = check_axiom(unit3, rule, axiom, endowment=(1, 2, 0))
    assert {**report.to_dict(), "rule": expected["rule"]} == expected
    if not report.passed:
        assert replay_witness(unit3, rule, axiom, report.witness)
    assert calls == []


def test_a_rule_is_evaluated_only_where_the_scan_reads(monkeypatch, unit3):
    calls = _count_evaluations(monkeypatch)
    report = check_axiom(unit3, SD, Axiom.EQUAL_TREATMENT)
    assert not report.passed and report.profiles_checked == 1
    assert calls == [(unit3, SD, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))]


@pytest.mark.parametrize("axiom", [Axiom.STRATEGY_PROOF, Axiom.EX_POST_PARETO])
def test_replaying_on_a_table_with_a_gap_raises(unit3, axiom):
    """The replay reads a table only after checking it is total, like the scan."""
    rule = random_tabulated_rule(unit3, 11)
    witness = check_axiom(unit3, rule, axiom).witness
    table = dict(rule.table)
    del table[max(table)]
    assert max(table) != witness["profile"]
    gapped = TabulatedDeterministicRule(table)
    if axiom is Axiom.EX_POST_PARETO:
        gapped = TabulatedLotteryRule({p: Lottery.point(m) for p, m in table.items()})
    with pytest.raises(TableMiss):
        replay_witness(unit3, gapped, axiom, witness)
