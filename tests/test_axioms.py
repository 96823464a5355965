"""Axiom checkers: verdicts, witnesses, determinism, and implications."""

import json
from collections.abc import Mapping
from fractions import Fraction

import pytest

from axiomlab import (
    AxiomNotApplicable,
    Instance,
    Lottery,
    PreconditionViolated,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TableMiss,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    TopTradingCyclesRule,
    check_axiom,
    count_profiles,
    enumerate_matchings,
    enumerate_profiles,
    evaluate,
    is_monotonic_transformation,
    random_serial_dictatorship,
    serial_dictatorship,
)
from axiomlab.axioms import (
    DETERMINISTIC_ONLY,
    EX_POST_KINDS,
    Axiom,
    Outcomes,
    replay_witness,
)
from axiomlab.matchings import matching_verdict
from axiomlab.preferences import weakly_prefers
from helpers import bossy_flip_rule, random_tabulated_rule

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


def test_axiom_applicability(unit3):
    with pytest.raises(AxiomNotApplicable):
        check_axiom(unit3, RSD, Axiom.STRATEGY_PROOF)
    with pytest.raises(AxiomNotApplicable):
        check_axiom(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY)  # no endowment
    with pytest.raises(AxiomNotApplicable):
        check_axiom(Instance(3, (2, 1, 1)), SD, Axiom.INDIVIDUAL_RATIONALITY, (0, 1, 2))


@pytest.mark.parametrize("endowment", [(0,), (0, 1), (0, 1, 7), (0, 0, 0)])
def test_an_endowment_that_is_not_a_feasible_matching_is_rejected(unit3, endowment):
    """A short endowment would check only the agents it names, passing SD
    where the full ``(0, 1, 2)`` fails at profile 8, and an object id out of
    range would index past the objects."""
    with pytest.raises(PreconditionViolated, match="not a feasible matching"):
        check_axiom(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY, endowment)
    report = check_axiom(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY, (0, 1, 2))
    assert (report.verdict, report.profiles_checked) == ("fail", 8)


def test_a_passed_table_of_another_instance_or_kind_is_rejected(unit3, slack3):
    """A table of another instance used to report over that instance's profiles,
    and a matchings table under a lottery axiom failed with an AttributeError."""
    with pytest.raises(PreconditionViolated, match="another instance or kind"):
        check_axiom(slack3, Outcomes(unit3, SD, True), Axiom.EX_POST_PARETO)
    with pytest.raises(PreconditionViolated, match="another instance or kind"):
        check_axiom(unit3, Outcomes(unit3, SD, False), Axiom.EX_POST_PARETO)
    with pytest.raises(PreconditionViolated, match="another instance or kind"):
        check_axiom(unit3, Outcomes(unit3, SD, True), Axiom.STRATEGY_PROOF)
    report = check_axiom(unit3, Outcomes(unit3, SD, True), Axiom.EX_POST_PARETO)
    assert report == check_axiom(unit3, SD, Axiom.EX_POST_PARETO)


def test_ttc_individually_rational_for_every_endowment(unit3):
    from itertools import permutations

    for endowment in permutations(range(3)):
        rule = TopTradingCyclesRule(endowment)
        report = check_axiom(unit3, rule, Axiom.INDIVIDUAL_RATIONALITY, endowment)
        assert report.passed


def test_sd_violates_individual_rationality(unit3):
    """The last dictator can lose the house she owns and tops."""
    endowment = (1, 2, 0)  # agent 2 owns object 0
    report = check_axiom(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY, endowment)
    assert not report.passed
    assert replay_witness(unit3, SD, Axiom.INDIVIDUAL_RATIONALITY, report.witness)


def test_constant_endowment_rule_is_individually_rational(unit3):
    endowment = (2, 0, 1)
    constant = TabulatedDeterministicRule(
        {p: endowment for p in enumerate_profiles(unit3)}
    )
    assert check_axiom(unit3, constant, Axiom.INDIVIDUAL_RATIONALITY, endowment).passed


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


def _support_violation(inst, axiom, profile, matching, endowment):
    """The witness ``axiom``'s body reports for ``matching`` if it is in the support, else None."""
    if axiom is Axiom.INDIVIDUAL_RATIONALITY:
        agent = next(
            (a for a in inst.agents if not weakly_prefers(profile[a], matching[a], endowment[a])),
            None,
        )
        if agent is None:
            return None
        return {
            "kind": "individual_rationality",
            "profile": profile,
            "matching": matching,
            "agents": [agent],
            "objects": [matching[agent], endowment[agent]],
        }
    verdict = matching_verdict(inst, matching, profile, EX_POST_KINDS[axiom])
    return None if verdict is None else {**verdict, "profile": profile, "matching": matching}


@pytest.mark.parametrize(
    "axiom", [*EX_POST_KINDS, Axiom.INDIVIDUAL_RATIONALITY], ids=lambda a: a.value
)
def test_replay_rejects_a_violating_matching_outside_the_support(axiom):
    """Support membership is read from the lottery's counts: a recorded matching
    that would violate the axiom but has no weight at RSD does not replay, and
    it does once a lottery puts weight on it."""
    slack = axiom is not Axiom.INDIVIDUAL_RATIONALITY  # IR is checked on housing markets
    inst = Instance(3, (2, 1, 1)) if slack else Instance(3, (1, 1, 1))
    endowment = (1, 2, 0)
    table = {p: random_serial_dictatorship(inst, p) for p in enumerate_profiles(inst)}
    profile, matching, witness = next(
        (p, m, w)
        for p, lottery in table.items()
        for m in enumerate_matchings(inst)
        if m not in lottery and (w := _support_violation(inst, axiom, p, m, endowment))
    )
    assert table[profile].weight(matching) == 0
    assert not replay_witness(inst, RSD, axiom, witness)
    assert not replay_witness(inst, TabulatedLotteryRule(table), axiom, witness)
    counts = {m: 1 for m in (*table[profile].support(), matching)}
    table[profile] = Lottery(counts, len(counts))
    assert replay_witness(inst, TabulatedLotteryRule(table), axiom, witness)


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


class _PlainMapping(Mapping):
    """A table that is not a ``dict``, so its ``keys()`` is the generic ``KeysView``."""

    def __init__(self, table):
        self._table = table

    def __getitem__(self, profile):
        return self._table[profile]

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)


def _walked_gap(inst, table):
    """The oracle: the first profile of the enumeration missing from ``table``, or None."""
    return next((p for p in enumerate_profiles(inst) if p not in table), None)


def totality_matches_the_walk(inst, table) -> bool:
    """Whether ``Outcomes`` accepts ``table`` iff the walk finds no gap, and
    otherwise raises the TableMiss that names the walk's first gap."""
    gap = _walked_gap(inst, table)
    try:
        Outcomes(inst, TabulatedDeterministicRule(table), False)
    except TableMiss as exc:
        return gap is not None and str(exc) == f"no table entry for profile {gap}"
    return gap is None


#: A key of no profile of unit3: it has four agents.
FOREIGN = ((0, 1, 2),) * 4


def with_a_foreign_key_for_a_gap(table):
    """``table`` with its 100th and last profiles replaced by foreign keys: the
    entry count stays the domain's, and the 100th profile is the first gap."""
    profiles = sorted(table)
    swapped = {p: m for p, m in table.items() if p not in (profiles[100], profiles[-1])}
    return {**swapped, FOREIGN: table[profiles[100]], FOREIGN[:2]: table[profiles[-1]]}


def _gapped(table):
    profiles = sorted(table)
    return {p: m for p, m in table.items() if p not in (profiles[7], profiles[50])}


TOTALITY_TABLES = {
    "total": lambda table: table,
    "total with a foreign key": lambda table: {**table, FOREIGN: next(iter(table.values()))},
    "gapped": _gapped,
    "a foreign key for a gap": with_a_foreign_key_for_a_gap,
}


@pytest.mark.parametrize("wrap", [dict, _PlainMapping], ids=["dict", "mapping"])
@pytest.mark.parametrize("case", TOTALITY_TABLES)
def test_the_totality_check_is_the_walk(unit3, case, wrap):
    """Gaps raise the TableMiss of the first gap in enumeration order, extra
    keys are ignored, and a table that is not a ``dict`` is checked alike."""
    table = wrap(TOTALITY_TABLES[case](random_tabulated_rule(unit3, 11).table))
    assert totality_matches_the_walk(unit3, table)
    if case == "a foreign key for a gap":
        assert len(table) == count_profiles(unit3)
        assert _walked_gap(unit3, table) == list(enumerate_profiles(unit3))[100]
