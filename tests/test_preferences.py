"""Profile enumeration, contour sets, and the proof-construction surgeries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomlab import (
    DomainViolation,
    Instance,
    PreconditionViolated,
    appendix_transform_sequence,
    common_rank_rearrange,
    count_profiles,
    enumerate_matchings,
    enumerate_profiles,
    is_monotonic_transformation,
    push_to_top,
)
from axiomlab.model import NULL_BOTTOM
from axiomlab.preferences import (
    all_preferences,
    in_domain,
    monotonic_steps,
    push_object_to_top,
)


def test_profile_counts(unit3):
    assert count_profiles(Instance(2, (1, 1))) == 4
    assert count_profiles(unit3) == 216
    nb = Instance(2, (1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    assert count_profiles(nb) == 4  # ((3-1)!)^2


def test_profiles_unique_and_in_domain():
    for inst in (
        Instance(2, (1, 1)),
        Instance(3, (1, 1, 1)),
        Instance(2, (1, 1, 1), null_object=0, domain=NULL_BOTTOM),
    ):
        profiles = list(enumerate_profiles(inst))
        assert len(set(profiles)) == len(profiles) == count_profiles(inst)
        assert all(in_domain(inst, p) for p in profiles)
        assert all(a < b for a, b in zip(profiles, profiles[1:]))


def _lower_contour(pref, obj):
    """All objects ranked weakly below ``obj``, including ``obj`` itself."""
    return frozenset(pref[pref.index(obj):])


def test_lower_contour():
    """The oracle that ``monotonic_steps`` is held to below."""
    pref = (0, 1, 2)  # x > y > z
    assert _lower_contour(pref, 1) == {1, 2}
    assert _lower_contour(pref, 0) == {0, 1, 2}
    assert _lower_contour(pref, 2) == {2}


def test_monotonic_transformation_examples():
    mu = (1,)  # single agent holding y
    assert is_monotonic_transformation(((0, 1, 2),), ((0, 1, 2),), mu)
    # x>y>z -> y>x>z grows the contour at y from {y,z} to {y,x,z}
    assert is_monotonic_transformation(((0, 1, 2),), ((1, 0, 2),), mu)
    # x>y>z -> z>x>y shrinks the contour at x
    assert not is_monotonic_transformation(((0, 1, 2),), ((2, 0, 1),), (0,))


@pytest.mark.parametrize(
    "inst",
    [Instance(3, (1, 1, 1)), Instance(2, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)],
    ids=["general", "null-bottom"],
)
def test_monotonic_steps_are_every_other_monotonic_preference(inst):
    prefs = all_preferences(inst)
    steps = monotonic_steps(inst)
    assert set(steps) == {(pref, obj) for pref in prefs for obj in inst.objects}
    for (pref, obj), alternatives in steps.items():
        assert list(alternatives) == [
            q for q in prefs if q != pref and _lower_contour(pref, obj) <= _lower_contour(q, obj)
        ]


def test_push_to_top_examples(unit3):
    profile = ((0, 1, 2),)
    inst = Instance(1, (1, 1, 1))
    assert push_to_top(inst, profile, (2,)) == (((2, 0, 1),))
    assert push_to_top(inst, profile, (0,)) == profile


def test_push_to_top_rejects_null_push():
    inst = Instance(2, (2, 1, 1), null_object=0, domain=NULL_BOTTOM)
    profile = ((1, 2, 0), (2, 1, 0))
    with pytest.raises(DomainViolation):
        push_to_top(inst, profile, (0, 1))


def test_push_to_top_monotonic_whenever_target_weakly_improves(unit3):
    """Exhaustive n=3, k=3: pushing a weakly-preferred matching on top is a
    monotonic transformation at the original matching."""
    matchings = enumerate_matchings(unit3)
    checked = 0
    for profile in enumerate_profiles(unit3):
        ranks = [dict((o, pref.index(o)) for o in pref) for pref in profile]
        for mu in matchings:
            for nu in matchings:
                if all(ranks[i][nu[i]] <= ranks[i][mu[i]] for i in range(3)):
                    pushed = push_to_top(unit3, profile, nu)
                    assert is_monotonic_transformation(profile, pushed, mu)
                    checked += 1
    assert checked > 6 * 216  # the filter keeps plenty of triples


def test_common_rank_rearrange_showcase_columns(showcase8):
    inst, rearranged, _, improved = showcase8
    # start from a scrambled profile with the improved allotment on top
    scrambled = tuple(
        (improved[i],) + tuple(o for o in (4, 2, 0, 1, 3) if o != improved[i])
        for i in range(8)
    )
    result = common_rank_rearrange(inst, scrambled, improved, (0, 1, 2, 3, 4))
    assert result == rearranged
    assert result[7] == (4, 0, 1, 2, 3)
    assert result[0] == (0, 1, 2, 3, 4)


def test_common_rank_rearrange_top_object_identity(unit3):
    # when the target is the best object of the shared ranking, the result is
    # the shared ranking itself
    profile = ((0, 2, 1), (0, 1, 2), (0, 2, 1))
    with pytest.raises(PreconditionViolated):
        common_rank_rearrange(unit3, profile, (1, 0, 0))
    solo = Instance(1, (1, 1, 1))
    out = common_rank_rearrange(solo, ((0, 2, 1),), (0,), (0, 1, 2))
    assert out == ((0, 1, 2),)


def test_common_rank_rearrange_mutually_monotonic(unit3):
    """Exhaustive: a pushed profile and its rearrangement are monotonic
    transformations of each other at the pushed matching."""
    matchings = enumerate_matchings(unit3)
    for profile in enumerate_profiles(unit3):
        for nu in matchings:
            pushed = push_to_top(unit3, profile, nu)
            rearranged = common_rank_rearrange(unit3, pushed, nu)
            assert is_monotonic_transformation(pushed, rearranged, nu)
            assert is_monotonic_transformation(rearranged, pushed, nu)


def test_appendix_sequence_toy_frozen(null_toy):
    """The 3-cycle toy sequence, frozen from a hand derivation."""
    inst, profile, matching, improved = null_toy
    sequence = appendix_transform_sequence(inst, profile, matching, improved)
    assert sequence == [
        ((2, 1, 3, 0), (3, 2, 1, 0), (1, 3, 2, 0), (1, 2, 3, 0)),
        ((2, 1, 3, 0), (3, 2, 1, 0), (1, 3, 2, 0), (1, 3, 2, 0)),
        ((2, 1, 3, 0), (3, 1, 2, 0), (1, 3, 2, 0), (1, 3, 2, 0)),
    ]
    assert len(sequence) == 3  # first, second, and one step for cycle length 3


def test_appendix_sequence_stays_null_bottom(null_toy):
    inst, profile, matching, improved = null_toy
    for prof in appendix_transform_sequence(inst, profile, matching, improved):
        assert all(pref[-1] == inst.null_object for pref in prof)


def test_appendix_sequence_prescribed_relations(null_toy):
    inst, profile, matching, improved = null_toy
    seq = appendix_transform_sequence(inst, profile, matching, improved)
    assert is_monotonic_transformation(profile, seq[0], matching)
    assert is_monotonic_transformation(seq[0], seq[1], matching)
    # later steps change exactly one agent each
    for before, after in zip(seq[1:], seq[2:]):
        assert sum(b != a for b, a in zip(before, after)) == 1


def test_appendix_sequence_preconditions(null_toy):
    inst, profile, matching, improved = null_toy
    with pytest.raises(PreconditionViolated):
        appendix_transform_sequence(inst, profile, matching, matching)  # no domination
    general = Instance(3, (1, 1, 1))
    with pytest.raises(PreconditionViolated):
        appendix_transform_sequence(
            general, ((1, 0, 2), (2, 1, 0), (0, 2, 1)), (0, 1, 2), (1, 2, 0)
        )


def test_appendix_sequence_four_cycle_canonical_shape():
    """Unit-capacity canonical layout: a 4-cycle on objects 1..4, one agent
    keeping object 5, two null-object agents.  The whole sequence is frozen
    from a hand derivation; the second element is independent of the input
    ranking details, and the step profiles drop old allotments one agent at
    a time into shared-ranking position."""
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
    sequence = appendix_transform_sequence(inst, profile, matching, improved)
    assert len(sequence) == 4  # first, second, and steps 3 and 4
    assert sequence[0] == (
        (4, 1, 2, 5, 3, 0),
        (1, 2, 5, 3, 4, 0),
        (2, 3, 5, 4, 1, 0),
        (3, 4, 1, 5, 2, 0),
        (5, 3, 2, 1, 4, 0),
        (2, 3, 1, 5, 4, 0),
        (4, 5, 2, 1, 3, 0),
    )
    canonical_second = (
        (4, 1, 2, 3, 5, 0),
        (1, 2, 3, 4, 5, 0),
        (2, 3, 1, 4, 5, 0),
        (3, 4, 1, 2, 5, 0),
        (5, 1, 2, 3, 4, 0),
        (1, 2, 3, 4, 5, 0),
        (1, 2, 3, 4, 5, 0),
    )
    assert sequence[1] == canonical_second
    step3 = list(canonical_second)
    step3[2] = (2, 1, 3, 4, 5, 0)
    assert sequence[2] == tuple(step3)
    step4 = list(step3)
    step4[3] = (3, 1, 2, 4, 5, 0)
    assert sequence[3] == tuple(step4)


def test_appendix_sequence_rejects_two_cycle():
    inst = Instance(3, (1, 1, 1, 1), null_object=0, domain=NULL_BOTTOM)
    profile = ((2, 1, 3, 0), (1, 2, 3, 0), (1, 2, 3, 0))
    matching = (1, 2, 0)
    improved = (2, 1, 0)  # agents 0 and 1 swap: a blocking pair already
    with pytest.raises(PreconditionViolated):
        appendix_transform_sequence(inst, profile, matching, improved)


def test_appendix_sequence_rejects_multi_cycle():
    inst = Instance(7, (1,) * 7, null_object=0, domain=NULL_BOTTOM)
    matching = (1, 2, 3, 4, 5, 6, 0)
    improved = (2, 3, 1, 5, 6, 4, 0)  # two disjoint 3-cycles
    base = (1, 2, 3, 4, 5, 6, 0)
    profile = tuple(
        base
        if matching[i] == 0
        else push_object_to_top(push_object_to_top(base, matching[i]), improved[i])
        for i in range(7)
    )
    with pytest.raises(PreconditionViolated):
        appendix_transform_sequence(inst, profile, matching, improved)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_push_to_top_structure(data):
    """Pushing preserves the relative order of all non-target objects."""
    inst = Instance(2, (1, 1, 1))
    prefs = all_preferences(inst)
    profile = (data.draw(st.sampled_from(prefs)), data.draw(st.sampled_from(prefs)))
    target = data.draw(st.sampled_from(enumerate_matchings(inst)))
    pushed = push_to_top(inst, profile, target)
    for i in range(2):
        assert pushed[i][0] == target[i]
        rest = [o for o in profile[i] if o != target[i]]
        assert list(pushed[i][1:]) == rest
