"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL summaries.  Every expected value is produced by an independent
oracle inside this module (direct order enumeration, brute-force domination
scans) or frozen from a hand derivation, never read back from the code under
test.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from axiomlab import (
    Instance,
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TopTradingCyclesRule,
    enumerate_matchings,
    enumerate_profiles,
    find_dominating,
    matching_verdict,
    pareto_dominates,
    random_serial_dictatorship,
    replay_theorem1_proof,
    replay_theorem3_proof,
    search_counterexample,
    serial_dictatorship,
    verify_proposition1,
    verify_theorem1,
)
from axiomlab.axioms import Axiom, check_axiom
from axiomlab.cli import run
from axiomlab.jsonio import load_rule_file, rule_to_dict
from axiomlab.model import NULL_BOTTOM
from axiomlab.preferences import all_preferences, prefers
from axiomlab.rules import evaluate_lottery
from helpers import bossy_flip_rule, is_pareto_efficient, random_tabulated_rule

UNIT3 = Instance(3, (1, 1, 1))
SLACK3 = Instance(3, (2, 1, 1))


def report(criterion: str, description: str) -> None:
    print(f"ACCEPTANCE {criterion} {description}: PASS")


def test_c1_rsd_exactness():
    """C1: exact RSD weights on all 216 unit-capacity profiles in under 1s."""
    started = time.perf_counter()
    factorial = math.factorial(3)
    for profile in enumerate_profiles(UNIT3):
        lottery = random_serial_dictatorship(UNIT3, profile)
        counts = {}
        for order in permutations(range(3)):
            left = [1, 1, 1]
            out = [None] * 3
            for agent in order:
                for obj in profile[agent]:
                    if left[obj]:
                        left[obj] -= 1
                        out[agent] = obj
                        break
            counts[tuple(out)] = counts.get(tuple(out), 0) + 1
        oracle = {m: Fraction(c, factorial) for m, c in counts.items()}
        assert dict(lottery.items()) == oracle
        assert sum(w for _, w in lottery.items()) == 1
        assert all(factorial % w.denominator == 0 for _, w in lottery.items())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("C1", "RSD exactness vs direct 6-order oracle")


def _theorem1_criterion(inst, label):
    started = time.perf_counter()
    verdict = verify_theorem1(inst, RandomSerialDictatorshipRule())
    assert verdict.theorem == label
    assert all(h["verdict"] == "pass" for h in verdict.hypotheses_verified)
    assert verdict.conclusion_verified is True
    # explicit zero-discrepancy scan: pairwise-efficient non-wasteful support
    # matchings are Pareto efficient, profile by profile
    matchings = enumerate_matchings(inst)
    discrepancies = 0
    for profile in enumerate_profiles(inst):
        lottery = random_serial_dictatorship(inst, profile)
        for matching in lottery.support():
            if (
                matching_verdict(inst, matching, profile, "pairwise") is None
                and matching_verdict(inst, matching, profile, "non-wasteful") is None
            ):
                if not is_pareto_efficient(inst, matching, profile, matchings):
                    discrepancies += 1
    assert discrepancies == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_c2_theorem1_tight_capacities():
    """C2: probabilistic monotonicity over every single-agent monotonic
    transformation of all 216 profiles (equivalent to all monotonic
    transformations) plus the pairwise/Pareto equivalence, capacity sum
    equal to n."""
    _theorem1_criterion(UNIT3, "Thm1b")
    report("C2", "equivalence harness, tight capacities (Thm1b)")


def test_c3_theorem1_slack_capacities():
    """C3: same with a spare copy, adding ex-post non-wastefulness."""
    started = time.perf_counter()
    verdict = verify_theorem1(SLACK3, RandomSerialDictatorshipRule())
    assert verdict.theorem == "Thm1a"
    assert [h["axiom"] for h in verdict.hypotheses_verified] == [
        "prob_monotonic",
        "ex_post_non_wasteful",
    ]
    assert all(h["verdict"] == "pass" for h in verdict.hypotheses_verified)
    assert verdict.conclusion_verified is True
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report("C3", "equivalence harness, slack capacities (Thm1a)")


def test_c4_matching_level_gap(tmp_path, capsys):
    """C4: a pairwise-efficient, non-wasteful, Pareto-dominated matching is
    exhibited, reported through the CLI failure path, and re-verified."""
    inst_file = tmp_path / "i.json"
    prof_file = tmp_path / "p.json"
    mat_file = tmp_path / "m.json"
    inst_file.write_text(
        json.dumps(
            {
                "n": 3,
                "objects": [
                    {"name": "a", "capacity": 1},
                    {"name": "b", "capacity": 1},
                    {"name": "c", "capacity": 1},
                ],
                "null_object": None,
                "domain": "general",
            }
        )
    )
    prof_file.write_text(json.dumps([["b", "a", "c"], ["c", "b", "a"], ["a", "c", "b"]]))
    mat_file.write_text(json.dumps(["a", "b", "c"]))
    profile = ((1, 0, 2), (2, 1, 0), (0, 2, 1))
    matching = (0, 1, 2)
    assert matching_verdict(UNIT3, matching, profile, "pairwise") is None
    assert matching_verdict(UNIT3, matching, profile, "non-wasteful") is None
    assert not is_pareto_efficient(UNIT3, matching, profile)

    code = run(
        [
            "check-matching",
            "--instance", str(inst_file),
            "--profile", str(prof_file),
            "--matching", str(mat_file),
            "--axiom", "pareto",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    witness = payload["result"]["witness"]
    assert witness == {"kind": "cycle", "agents": [0, 1, 2], "objects": ["a", "b", "c"]}
    # re-verify the witness: each cycle agent strictly prefers the next allotment
    agents = witness["agents"]
    for pos, agent in enumerate(agents):
        nxt = agents[(pos + 1) % len(agents)]
        assert prefers(profile[agent], matching[nxt], matching[agent])
    report("C4", "pairwise-efficient non-Pareto matching exhibited (exit 1)")


def test_c5_sd_equals_pareto():
    """C5: the serial dictatorship outcomes are exactly the Pareto-efficient
    matchings on every profile, zero tolerance."""
    matchings = enumerate_matchings(UNIT3)
    orders = list(permutations(range(3)))
    for profile in enumerate_profiles(UNIT3):
        sd_set = {serial_dictatorship(UNIT3, order, profile) for order in orders}
        pareto_set = {
            m for m in matchings if is_pareto_efficient(UNIT3, m, profile, matchings)
        }
        assert sd_set == pareto_set
    report("C5", "SD outcomes coincide with Pareto-efficient matchings")


def test_c6_proposition1_no_mixed_verdicts():
    """C6: the four incentive properties agree on every shipped and random
    tabulated rule; the shipped bossy rule fails all four."""
    sd = verify_proposition1(UNIT3, SerialDictatorshipRule((0, 1, 2)))
    ttc = verify_proposition1(UNIT3, TopTradingCyclesRule((0, 1, 2)))
    assert sd.conclusion_verified and sd.details["all_hold"]
    assert ttc.conclusion_verified and ttc.details["all_hold"]
    bossy = verify_proposition1(UNIT3, bossy_flip_rule(UNIT3))
    assert bossy.conclusion_verified
    assert set(bossy.details["properties"].values()) == {False}
    for seed in range(100):
        rule = random_tabulated_rule(UNIT3, seed)
        verdict = verify_proposition1(UNIT3, rule)
        assert verdict.conclusion_verified, f"mixed verdict at seed {seed}: {verdict.details}"
    report("C6", "four-way equivalence on shipped + 100 random rules")


def _theorem1_triples(count, seed):
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        n = rng.randint(2, 5)
        k = rng.randint(2, 4)
        caps = [1] * k
        for _ in range(max(0, n - k)):
            caps[rng.randrange(k)] += 1
        if rng.random() < 0.4:
            caps[rng.randrange(k)] += 1
        inst = Instance(n, tuple(caps))
        prefs = all_preferences(inst)
        profile = tuple(prefs[rng.randrange(len(prefs))] for _ in range(n))
        matchings = enumerate_matchings(inst)
        options = []
        for matching in matchings:
            dominating = find_dominating(inst, matching, profile, matchings)
            if dominating is not None:
                options.append((matching, dominating))
        if not options:
            continue
        matching, dominating = options[rng.randrange(len(options))]
        triples.append((inst, profile, matching, dominating))
    return triples


def _theorem3_triples(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.choice((3, 3, 3, 4))
        n_fixed = rng.randint(0, 1)
        n_null = rng.choice((0, 1, 1, 1, 2))
        twin_cycle = ell == 3 and n_fixed == 0 and n_null == 1 and rng.random() < 0.2
        extra = 3 if twin_cycle else 0
        n = ell + n_fixed + n_null + extra
        null_cap = max(n_null + rng.randrange(2), 1)
        caps = [null_cap] + [1] * ell + ([n_fixed] if n_fixed else []) + [1] * extra
        inst = Instance(n, tuple(caps), null_object=0, domain=NULL_BOTTOM)
        matching, improved = [], []
        for j in range(ell):
            matching.append(1 + j)
            improved.append(1 + (j + 1) % ell)
        if n_fixed:
            fixed_obj = 1 + ell
            matching.extend([fixed_obj] * n_fixed)
            improved.extend([fixed_obj] * n_fixed)
        offset = 1 + ell + (1 if n_fixed else 0)
        for j in range(extra):
            matching.append(offset + j)
            improved.append(offset + (j + 1) % extra)
        matching.extend([0] * n_null)
        improved.extend([0] * n_null)
        reals = list(range(1, inst.k))
        profile = []
        for i in range(n):
            perm = reals[:]
            rng.shuffle(perm)
            if matching[i] != 0 and improved[i] != matching[i]:
                a, b = perm.index(improved[i]), perm.index(matching[i])
                if a > b:
                    perm[a], perm[b] = perm[b], perm[a]
            profile.append(tuple(perm) + (0,))
        triple = (inst, tuple(profile), tuple(matching), tuple(improved))
        assert pareto_dominates(triple[3], triple[2], triple[1])
        assert matching_verdict(inst, triple[2], triple[1], "non-wasteful") is None
        out.append(triple)
    return out


def test_c7_proof_replays():
    """C7: the eight-agent showcase replay plus 50 seeded dominated triples
    per proof, all passing every assertion, in under two minutes."""
    started = time.perf_counter()
    showcase = Instance(8, (3, 2, 1, 1, 1))
    improved = (0, 1, 0, 2, 3, 1, 0, 4)
    dominated = (1, 0, 0, 3, 1, 0, 2, 4)
    rearranged = tuple(
        (improved[i],) + tuple(o for o in range(5) if o != improved[i]) for i in range(8)
    )
    outcome = replay_theorem1_proof(showcase, rearranged, dominated, improved)
    assert outcome["passed"] and outcome["survivors"] == [improved]

    for inst, profile, matching, dominating in _theorem1_triples(50, seed=20260808):
        outcome = replay_theorem1_proof(inst, profile, matching, dominating)
        assert outcome["passed"], (inst, profile, matching, dominating)

    null_cases = 0
    for inst, profile, matching, dominating in _theorem3_triples(50, seed=9090):
        outcome = replay_theorem3_proof(inst, profile, matching, dominating)
        assert outcome["passed"], (inst, profile, matching, dominating)
        if not outcome["degenerate"]:
            null_cases += 1
            ell = len(outcome["partition"]["cycle_agents"])
            assert outcome["blocking_swap"]["cycle_positions"] == [1, ell]
            assert outcome["assertions"]["final_profile_has_blocking_swap"]
    assert null_cases >= 30  # plenty of genuinely restricted-domain cases
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    report("C7", f"proof replays (101 runs, {null_cases} with null-object agents)")


@pytest.mark.parametrize(
    "inst", [Instance(3, (1, 1, 1)), Instance(4, (2, 1, 1))], ids=["n3", "n4"]
)
def test_c8_cycle_equivalence(inst):
    """C8: Pareto inefficiency coincides with improvement-cycle existence for
    every non-wasteful matching of every profile, zero exceptions."""
    matchings = enumerate_matchings(inst)
    for profile in enumerate_profiles(inst):
        for matching in matchings:
            if matching_verdict(inst, matching, profile, "non-wasteful") is not None:
                continue
            inefficient = not is_pareto_efficient(inst, matching, profile, matchings)
            cycle = matching_verdict(inst, matching, profile, "pareto")
            assert inefficient == (cycle is not None)
    report("C8", f"cycle existence equals Pareto inefficiency (n={inst.n})")


def test_c9_search_soundness(tmp_path):
    """C9: emitted counterexample rules re-verify from disk; the search for a
    rule contradicting the equivalence claim comes up empty."""
    result = search_counterexample(
        UNIT3,
        required=[Axiom.EX_POST_PAIRWISE, Axiom.EX_POST_NON_WASTEFUL],
        violated=Axiom.EX_POST_PARETO,
        budget=5,
        seed=42,
    )
    assert result.found
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(rule_to_dict(UNIT3, result.rule)))
    loaded_inst, _, loaded = load_rule_file(str(path))
    assert check_axiom(loaded_inst, loaded, Axiom.EX_POST_PAIRWISE).passed
    assert check_axiom(loaded_inst, loaded, Axiom.EX_POST_NON_WASTEFUL).passed
    assert not check_axiom(loaded_inst, loaded, Axiom.EX_POST_PARETO).passed

    for inst in (Instance(2, (1, 1)), UNIT3):
        empty = search_counterexample(
            inst,
            required=[
                Axiom.PROB_MONOTONIC,
                Axiom.EX_POST_NON_WASTEFUL,
                Axiom.EX_POST_PAIRWISE,
            ],
            violated=Axiom.EX_POST_PARETO,
            budget=25,
            seed=7,
            rule_space="lottery",
        )
        assert empty.status == "budget_exhausted"
        assert empty.rule is None
    report("C9", "counterexample search soundness and exhaustion")
