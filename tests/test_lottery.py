"""Integer-count lotteries agree with the Fraction-weight build of the same distribution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import Instance, Lottery, enumerate_matchings, enumerate_profiles
from axiomlab import rules
from axiomlab.jsonio import default_object_names, lottery_from_list, lottery_to_list
from axiomlab.rules import random_serial_dictatorship

INST = Instance(4, (2, 1, 1))
UNIVERSE = enumerate_matchings(INST)

counts_maps = st.dictionaries(
    st.sampled_from(UNIVERSE), st.integers(0, 60), min_size=1, max_size=8
).filter(lambda counts: sum(counts.values()) > 0)


@settings(max_examples=80, deadline=None)
@given(counts_maps)
def test_integer_build_equals_weight_build(counts):
    total = sum(counts.values())
    by_counts = Lottery(counts, total)
    by_weights = Lottery.from_weights({m: Fraction(c, total) for m, c in counts.items()})
    assert by_counts == by_weights
    assert hash(by_counts) == hash(by_weights)
    assert by_counts.support() == by_weights.support()
    assert list(by_counts.items()) == list(by_weights.items())
    assert repr(by_counts) == repr(by_weights)
    for m in UNIVERSE:
        assert by_counts.weight(m) == by_weights.weight(m) == Fraction(counts.get(m, 0), total)
        assert str(by_counts.weight(m)) == str(by_weights.weight(m))
        assert (m in by_counts) == (counts.get(m, 0) > 0) == (by_weights.weight(m) > 0)
    assert by_counts.support() == tuple(sorted(m for m, c in counts.items() if c))
    assert all(type(w) is Fraction for _, w in by_counts.items())


@settings(max_examples=60, deadline=None)
@given(counts_maps, st.integers(2, 50))
def test_scaling_every_count_gives_an_equal_lottery(counts, k):
    total = sum(counts.values())
    lottery = Lottery(counts, total)
    scaled = Lottery({m: c * k for m, c in counts.items()}, total * k)
    assert scaled == lottery and hash(scaled) == hash(lottery)
    assert repr(scaled) == repr(lottery)


@settings(max_examples=40, deadline=None)
@given(counts_maps)
def test_invalid_counts_raise_value_error(counts):
    total = sum(counts.values())
    m, c = next(iter(counts.items()))
    other = next(x for x in UNIVERSE if x != m)
    negative = {**counts, m: -1, other: counts.get(other, 0) + c + 1}  # still sums to total
    with pytest.raises(ValueError, match="non-negative"):
        Lottery(negative, total)
    with pytest.raises(ValueError, match="positive"):
        Lottery(dict.fromkeys(counts, 0), 0)
    with pytest.raises(ValueError, match="sum"):
        Lottery(counts, total + 1)
    for not_int in (float(c), Fraction(c), str(c), c == 1):
        with pytest.raises(ValueError, match="non-negative ints"):
            Lottery({**counts, m: not_int}, total)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(enumerate_profiles(INST))))
def test_rsd_lottery_round_trips_through_json(profile):
    lottery = random_serial_dictatorship(INST, profile)
    names = default_object_names(INST)
    assert lottery_from_list(lottery_to_list(lottery, names), INST, names) == lottery


def test_construction_builds_no_fraction(monkeypatch):
    """Every construction path works on ints: RSD, the search's uniform support, points."""

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(rules, "Fraction", no_fraction)
    profile = ((0, 1, 2), (0, 1, 2), (1, 0, 2), (2, 1, 0))
    random_serial_dictatorship(INST, profile)
    Lottery({UNIVERSE[0]: 1, UNIVERSE[5]: 1}, 2)
    Lottery.point(UNIVERSE[3])
    with pytest.raises(AssertionError):
        Lottery.point(UNIVERSE[3]).weight(UNIVERSE[3])
