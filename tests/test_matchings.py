"""Efficiency predicates, cycle detection, and the trade-cycle decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    NULL_BOTTOM,
    Instance,
    PreconditionViolated,
    apply_cycle,
    enumerate_matchings,
    enumerate_profiles,
    is_monotonic_transformation,
    matching_verdict,
    pareto_dominates,
    reduce_to_single_cycle,
    trade_cycles,
)
from axiomlab.model import object_usage
from axiomlab.preferences import prefers
from helpers import is_pareto_efficient


def test_pareto_dominates_cycle_example(unit3, cycle_profile):
    assert pareto_dominates((1, 2, 0), (0, 1, 2), cycle_profile)
    assert not pareto_dominates((0, 1, 2), (0, 1, 2), cycle_profile)
    # better for agent 0, worse for agent 1
    assert not pareto_dominates((1, 0, 2), (0, 1, 2), cycle_profile)


def test_pareto_efficiency_cycle_example(unit3, cycle_profile):
    assert not is_pareto_efficient(unit3, (0, 1, 2), cycle_profile)
    assert is_pareto_efficient(unit3, (1, 2, 0), cycle_profile)
    tops = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    assert is_pareto_efficient(unit3, (0, 1, 2), tops)  # everyone holds her top
    solo = Instance(1, (1, 1))
    assert is_pareto_efficient(solo, (0,), ((0, 1),))


def test_pairwise_efficiency(unit3, cycle_profile):
    # only the 3-cycle improves this matching, so no pair blocks it
    assert matching_verdict(unit3, (0, 1, 2), cycle_profile, "pairwise") is None
    two = ((1, 0), (0, 1))  # agent 0: y>x, agent 1: x>y, holding (x, y)
    assert matching_verdict(Instance(2, (1, 1)), (0, 1), two, "pairwise") is not None
    tops = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    assert matching_verdict(unit3, (0, 1, 2), tops, "pairwise") is None


def test_non_wastefulness():
    inst = Instance(3, (2, 1, 1))
    # copies of object 0: q=2, one used; agent 2 on object 2 prefers object 0
    profile = ((0, 1, 2), (1, 0, 2), (0, 2, 1))
    assert matching_verdict(inst, (0, 1, 2), profile, "non-wasteful") is not None
    tops = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    assert matching_verdict(inst, (0, 1, 2), tops, "non-wasteful") is None


def test_tight_capacity_makes_every_feasible_matching_non_wasteful(unit3):
    """With capacity sum equal to n, feasibility leaves no slack anywhere."""
    matchings = enumerate_matchings(unit3)
    for profile in enumerate_profiles(unit3):
        assert all(matching_verdict(unit3, m, profile, "non-wasteful") is None for m in matchings)


def _is_improvement_cycle(witness, matching, profile):
    """Each listed agent holds the listed object and strictly prefers the next agent's."""
    agents, objects = witness["agents"], witness["objects"]
    return all(
        matching[agent] == objects[t]
        and prefers(profile[agent], matching[agents[(t + 1) % len(agents)]], matching[agent])
        for t, agent in enumerate(agents)
    )


def test_pareto_verdict_cycle_examples(unit3, cycle_profile):
    cycle = matching_verdict(unit3, (0, 1, 2), cycle_profile, "pareto")
    assert cycle["agents"] == [0, 1, 2]
    assert cycle["objects"] == [0, 1, 2]
    assert _is_improvement_cycle(cycle, (0, 1, 2), cycle_profile)
    # clearing it lands on the dominating matching
    assert apply_cycle((0, 1, 2), tuple(cycle["agents"])) == (1, 2, 0)
    # a Pareto-efficient matching has no cycle
    assert matching_verdict(unit3, (1, 2, 0), cycle_profile, "pareto") is None
    # two agents wanting to swap form a 2-cycle
    two = Instance(2, (1, 1))
    swap = matching_verdict(two, (0, 1), ((1, 0), (0, 1)), "pareto")
    assert len(swap["agents"]) == 2 and swap["agents"] == [0, 1]


def test_pareto_verdict_rejects_an_infeasible_matching_without_waste():
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    with pytest.raises(PreconditionViolated):
        matching_verdict(Instance(3, (1, 1, 1)), (0, 0, 1), profile, "pareto")


@pytest.mark.parametrize("kind", ["pareto", "pairwise", "non-wasteful"])
@pytest.mark.parametrize(
    "matching", [(0, 0, 1), (0, 0, 5)], ids=["over-capacity", "out-of-range"]
)
def test_every_verdict_rejects_an_infeasible_matching(kind, matching):
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    with pytest.raises(PreconditionViolated, match="infeasible"):
        matching_verdict(Instance(3, (1, 1, 1)), matching, profile, kind)


@pytest.mark.parametrize(
    "inst",
    [Instance(3, (1, 1, 1)), Instance(3, (2, 1, 1)), Instance(4, (2, 1, 1))],
    ids=["n3-unit", "n3-slack", "n4-tight"],
)
def test_cycle_existence_equals_pareto_inefficiency(inst):
    """For non-wasteful matchings, a shortest improvement cycle exists exactly
    when the matching is Pareto dominated (checked exhaustively)."""
    matchings = enumerate_matchings(inst)
    for profile in enumerate_profiles(inst):
        for matching in matchings:
            if matching_verdict(inst, matching, profile, "non-wasteful") is not None:
                continue
            cycle = matching_verdict(inst, matching, profile, "pareto")
            efficient = is_pareto_efficient(inst, matching, profile, matchings)
            assert (cycle is None) == efficient
            if cycle is not None:
                assert cycle["kind"] == "cycle"
                improved = apply_cycle(matching, tuple(cycle["agents"]))
                assert pareto_dominates(improved, matching, profile)


@pytest.mark.parametrize(
    "inst",
    [
        Instance(3, (1, 1, 1)),
        Instance(3, (2, 1, 1)),
        Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM),
        Instance(4, (2, 1, 1)),
    ],
    ids=["n3-unit", "n3-slack", "n3-null-bottom", "n4-tight"],
)
def test_pareto_verdict_agrees_with_brute_force_oracle(inst):
    """``matching_verdict`` decides Pareto efficiency from waste and improvement
    cycles; the scan of every feasible matching must agree on every
    (profile, matching), wasteful ones included, and each witness must hold."""
    matchings = enumerate_matchings(inst)
    for profile in enumerate_profiles(inst):
        for matching in matchings:
            verdict = matching_verdict(inst, matching, profile, "pareto")
            assert (verdict is None) == is_pareto_efficient(inst, matching, profile, matchings)
            if verdict is None:
                continue
            agents, objects = verdict["agents"], verdict["objects"]
            if verdict["kind"] == "waste":
                (agent,), (obj,) = agents, objects
                assert object_usage(inst, matching)[obj] < inst.capacities[obj]
                assert prefers(profile[agent], obj, matching[agent])
            else:
                assert verdict["kind"] == "cycle"
                assert objects == [matching[a] for a in agents]
                improved = apply_cycle(matching, tuple(agents))
                assert pareto_dominates(improved, matching, profile)


def test_pareto_implies_pairwise_and_non_wasteful_not_conversely(unit3):
    matchings = enumerate_matchings(unit3)
    gap_found = False
    for profile in enumerate_profiles(unit3):
        for matching in matchings:
            pairwise = matching_verdict(unit3, matching, profile, "pairwise") is None
            non_wasteful = matching_verdict(unit3, matching, profile, "non-wasteful") is None
            if is_pareto_efficient(unit3, matching, profile, matchings):
                assert pairwise
                assert non_wasteful
            elif pairwise and non_wasteful:
                gap_found = True
    assert gap_found  # the two notions genuinely differ at matching level


def test_trade_cycles_single(null_toy):
    _, _, matching, improved = null_toy
    cycles = trade_cycles(matching, improved)
    assert len(cycles) == 1
    (cycle,) = cycles
    assert apply_cycle(matching, cycle) == improved
    assert len(set(matching[i] for i in cycle)) == len(cycle)


def test_trade_cycles_multiple_and_reduction():
    inst = Instance(6, (1,) * 6)
    matching = (0, 1, 2, 3, 4, 5)
    improved = (1, 2, 0, 4, 5, 3)  # two disjoint 3-cycles
    cycles = trade_cycles(matching, improved)
    assert sorted(sorted(c) for c in cycles) == [[0, 1, 2], [3, 4, 5]]
    profile = tuple(
        (improved[i],) + tuple(o for o in range(6) if o != improved[i]) for i in range(6)
    )
    reduced_profile, reduced_improved, kept = reduce_to_single_cycle(
        inst, profile, matching, improved
    )
    assert sorted(kept) == [0, 1, 2]
    assert reduced_improved == (1, 2, 0, 3, 4, 5)
    assert is_monotonic_transformation(profile, reduced_profile, matching)
    assert trade_cycles(matching, reduced_improved) == [kept]


def test_trade_cycles_with_shared_objects():
    """Capacity 2 lets one object appear in two different cycles."""
    inst = Instance(4, (2, 1, 1))
    matching = (0, 1, 0, 2)
    improved = (1, 0, 2, 0)  # agents 0/1 swap via object 0; agents 2/3 too
    cycles = trade_cycles(matching, improved)
    assert len(cycles) == 2
    for cycle in cycles:
        objects = [matching[i] for i in cycle]
        assert len(set(objects)) == len(objects)
    rebuilt = matching
    for cycle in cycles:
        rebuilt = apply_cycle(rebuilt, cycle)
    assert rebuilt == improved


def test_trade_cycles_peel_an_inner_loop():
    """Agent 0's walk reaches agent 2, who needs object 1 again: the loop
    through agents 1 and 3 is peeled off before agent 0's cycle closes."""
    assert trade_cycles((0, 1, 1, 2), (1, 2, 0, 1)) == [(1, 3), (0, 2)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=9).flatmap(
        lambda held: st.tuples(st.just(tuple(held)), st.permutations(held).map(tuple))
    )
)
def test_trade_cycles_partition_the_movers_into_valid_cycles(pair):
    """A random reallocation of the same copies: every cycle is a trading
    cycle with distinct old allotments, the cycles partition the agents whose
    allotment changes, and clearing them all gives the improved matching."""
    matching, improved = pair
    cycles = trade_cycles(matching, improved)
    movers = [i for i in range(len(matching)) if matching[i] != improved[i]]
    assert sorted(agent for cycle in cycles for agent in cycle) == movers
    rebuilt = matching
    for cycle in cycles:
        objects = [matching[agent] for agent in cycle]
        assert len(set(objects)) == len(objects) >= 2
        for t, agent in enumerate(cycle):
            assert improved[agent] == matching[cycle[(t + 1) % len(cycle)]]
        rebuilt = apply_cycle(rebuilt, cycle)
    assert rebuilt == improved
