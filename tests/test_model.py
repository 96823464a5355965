"""Instance validation and feasible-matching enumeration."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    CapacityShortfall,
    EmptyInstance,
    Instance,
    NullObjectMissing,
    SizeOverflow,
    count_matchings,
    enumerate_matchings,
    is_feasible,
)
from axiomlab.model import MAX_ENUMERATION_ENV, NULL_BOTTOM, object_usage


def brute_force_matchings(inst):
    """Independent oracle: filter the full assignment space by capacity."""
    out = []
    for assignment in product(range(inst.k), repeat=inst.n):
        usage = [0] * inst.k
        for obj in assignment:
            usage[obj] += 1
        if all(usage[o] <= inst.capacities[o] for o in range(inst.k)):
            out.append(assignment)
    return out


def test_validate_accepts_tight_capacities():
    Instance(2, (1, 1))
    Instance(8, (3, 2, 1, 1, 1))  # capacity sum equals n


def test_validate_rejects_capacity_shortfall():
    with pytest.raises(CapacityShortfall):
        Instance(3, (1, 1))


def test_validate_rejects_empty():
    with pytest.raises(EmptyInstance):
        Instance(0, (1,))
    with pytest.raises(EmptyInstance):
        Instance(1, ())


def test_validate_null_bottom_needs_null():
    with pytest.raises(NullObjectMissing):
        Instance(2, (1, 1), null_object=None, domain=NULL_BOTTOM)


def test_enumerate_two_bijections():
    inst = Instance(2, (1, 1))
    assert enumerate_matchings(inst) == [(0, 1), (1, 0)]


def test_enumerate_three_factorial():
    inst = Instance(3, (1, 1, 1))
    matchings = enumerate_matchings(inst)
    assert len(matchings) == 6
    assert matchings == brute_force_matchings(inst)


def test_enumerate_multinomial_count():
    inst = Instance(8, (3, 2, 1, 1, 1))
    expected = math.factorial(8) // (math.factorial(3) * math.factorial(2))
    assert expected == 3360
    assert count_matchings(inst) == expected
    matchings = enumerate_matchings(inst)
    assert len(matchings) == expected
    assert all(is_feasible(inst, m) for m in matchings)


def test_enumeration_is_strictly_lexicographic():
    inst = Instance(4, (2, 1, 2))
    matchings = enumerate_matchings(inst)
    assert all(a < b for a, b in zip(matchings, matchings[1:]))


def test_size_overflow(monkeypatch):
    monkeypatch.setenv(MAX_ENUMERATION_ENV, "1000")
    inst = Instance(8, (3, 2, 1, 1, 1))
    with pytest.raises(SizeOverflow):
        enumerate_matchings(inst)


def test_null_object_counts_like_any_object():
    inst = Instance(3, (2, 1, 1), null_object=0, domain=NULL_BOTTOM)
    matchings = enumerate_matchings(inst)
    assert matchings == brute_force_matchings(inst)
    assert all(object_usage(inst, m)[0] <= 2 for m in matchings)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    caps=st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_enumeration_matches_brute_force(n, caps):
    if sum(caps) < n:
        with pytest.raises(CapacityShortfall):
            Instance(n, tuple(caps))
        return
    inst = Instance(n, tuple(caps))
    matchings = enumerate_matchings(inst)
    assert matchings == brute_force_matchings(inst)
    assert count_matchings(inst) == len(matchings)
