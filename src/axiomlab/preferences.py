"""Strict preferences, profile enumeration, and monotonic-transformation tools.

A preference is a tuple ranking every object id, best first.  A profile is a
tuple of preferences, one per agent.  Rank lookups go through a cached
object-to-rank inverse so the comparison-heavy checker loops stay O(1) per
comparison.

Besides enumeration this module implements the profile surgeries used by the
proof-replay harnesses:

* ``push_to_top``       -- move each agent's target allotment to the front;
* ``common_rank_rearrange`` -- keep the top fixed and re-sort everything
  below it by one shared object ranking;
* ``appendix_transform_sequence`` -- the stepwise restricted-domain variant
  that never moves the null object off the bottom.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .errors import DomainViolation, PreconditionViolated
from .model import (
    NULL_BOTTOM,
    Instance,
    Matching,
    is_feasible,
    require_enumerable,
)

Preference = tuple[int, ...]
Profile = tuple[Preference, ...]
CommonRanking = tuple[int, ...]


@lru_cache(maxsize=None)
def preference_ranks(pref: Preference) -> tuple[int, ...]:
    """Inverse of a ranking: ``ranks[obj]`` is the position of ``obj`` (0 = best)."""
    ranks = [0] * len(pref)
    for position, obj in enumerate(pref):
        ranks[obj] = position
    return tuple(ranks)


def prefers(pref: Preference, a: int, b: int) -> bool:
    """True iff ``a`` is ranked strictly above ``b``."""
    ranks = preference_ranks(pref)
    return ranks[a] < ranks[b]


def weakly_prefers(pref: Preference, a: int, b: int) -> bool:
    ranks = preference_ranks(pref)
    return ranks[a] <= ranks[b]


def validate_preference(inst: Instance, pref: Preference) -> None:
    if sorted(pref) != list(range(inst.k)):
        raise DomainViolation(f"{pref} is not a permutation of 0..{inst.k - 1}")
    if inst.domain == NULL_BOTTOM and pref[-1] != inst.null_object:
        raise DomainViolation(f"{pref} does not rank the null object last")


def validate_profile(inst: Instance, profile: Profile) -> None:
    if len(profile) != inst.n:
        raise DomainViolation(f"profile has {len(profile)} entries for {inst.n} agents")
    for pref in profile:
        validate_preference(inst, pref)


def in_domain(inst: Instance, profile: Profile) -> bool:
    try:
        validate_profile(inst, profile)
    except DomainViolation:
        return False
    return True


def all_preferences(inst: Instance) -> list[Preference]:
    """Every admissible ranking for one agent, in lexicographic order."""
    if inst.domain == NULL_BOTTOM:
        null = inst.null_object
        reals = inst.real_objects()
        return [perm + (null,) for perm in permutations(reals)]
    return list(permutations(range(inst.k)))


def count_profiles(inst: Instance) -> int:
    return len(all_preferences(inst)) ** inst.n


def enumerate_profiles(inst: Instance) -> Iterator[Profile]:
    """Stream all profiles in lexicographic order; never materialized."""
    require_enumerable(count_profiles(inst), "profiles")
    return product(all_preferences(inst), repeat=inst.n)


@lru_cache(maxsize=4)
def profile_set(inst: Instance) -> frozenset[Profile]:
    """Every profile of ``enumerate_profiles``, as one set shared by its callers.

    A tabulated table is total iff its keys contain this set.  Only the last
    few instances' sets are kept, since each holds the whole domain.
    """
    return frozenset(enumerate_profiles(inst))


def sorted_profiles(inst: Instance) -> Iterator[tuple[int, Profile]]:
    """Every profile whose preferences ascend, with its index in ``enumerate_profiles``.

    Such a profile is the lexicographically first of its anonymity orbit (the
    profiles that differ from it by a relabelling of the agents); they stream
    in enumeration order.  The index is the profile's mixed-radix number
    over ``all_preferences``.

    >>> inst = Instance(2, (1, 1))
    >>> list(sorted_profiles(inst))
    [(0, ((0, 1), (0, 1))), (1, ((0, 1), (1, 0))), (3, ((1, 0), (1, 0)))]
    """
    prefs = all_preferences(inst)
    for index, digits in _sorted_digits(len(prefs), inst.n):
        yield index, tuple(prefs[d] for d in digits)


def _sorted_digits(radix: int, n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every ascending digit vector of length ``n``, with its mixed-radix number."""
    for digits in combinations_with_replacement(range(radix), n):
        index = 0
        for digit in digits:
            index = index * radix + digit
        yield index, digits


@lru_cache(maxsize=None)
def object_classes(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """The real objects of equal capacity, each class of two or more ascending.

    An object relabelling permutes the objects within each class and fixes
    the rest, the null object included.  It maps every admissible preference
    and every feasible matching to one again.  A relabelling ``tau`` renames
    object ``o`` to ``tau[o]``: a preference or matching ``x`` becomes
    ``tuple(tau[o] for o in x)``, and a profile each of its preferences.

    >>> object_classes(Instance(4, (2, 1, 1)))
    ((1, 2),)
    """
    classes = {}
    for obj in inst.real_objects():
        classes.setdefault(inst.capacities[obj], []).append(obj)
    return tuple(tuple(c) for c in classes.values() if len(c) > 1)


def object_generators(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Object relabellings that generate them all: each swaps two objects
    adjacent in one class of ``object_classes``.

    >>> object_generators(Instance(3, (1, 1, 1)))
    ((1, 0, 2), (0, 2, 1))
    """
    generators = []
    for objects in object_classes(inst):
        for a, b in zip(objects, objects[1:]):
            tau = list(range(inst.k))
            tau[a], tau[b] = b, a
            generators.append(tuple(tau))
    return tuple(generators)


def object_group_order(inst: Instance) -> int:
    """How many object relabellings there are, the identity included."""
    return math.prod(math.factorial(len(objects)) for objects in object_classes(inst))


def _first_of_object_orbit(inst: Instance, pref: Preference) -> tuple[int, ...] | None:
    """None if ``pref`` comes first in its object orbit, else the relabelling
    that takes it to the first.

    The first preference of an orbit ranks the objects of each class in
    ascending order: the relabelling renames each class's objects, in the
    order ``pref`` ranks them, to that class's objects ascending.
    """
    ranks = preference_ranks(pref)
    tau = list(range(inst.k))
    for objects in object_classes(inst):
        for obj, ranked in zip(objects, sorted(objects, key=ranks.__getitem__)):
            tau[ranked] = obj
    return None if all(tau[o] == o for o in pref) else tuple(tau)


def object_orbit_profiles(inst: Instance) -> Iterator[tuple[int, Profile]]:
    """Every profile that comes first in its object orbit, with its index in
    ``enumerate_profiles``, in enumeration order.

    Profiles compare lexicographically, agent 0 first.  A relabelling other
    than the identity moves every preference, so only the identity fixes
    agent 0's report: the profile comes first iff that report comes first in
    its own orbit, and the other agents report freely.  At unit capacities and
    n=4 agent 0 must report the identity, which leaves 13,824 of the 331,776
    profiles.

    >>> [index for index, _ in object_orbit_profiles(Instance(2, (1, 1)))]
    [0, 1]
    """
    prefs = all_preferences(inst)
    stride = len(prefs) ** (inst.n - 1)
    for digit, first in enumerate(prefs):
        if _first_of_object_orbit(inst, first) is None:
            for offset, rest in enumerate(product(prefs, repeat=inst.n - 1)):
                yield digit * stride + offset, (first, *rest)


def sorted_orbit_profiles(inst: Instance) -> Iterator[tuple[int, Profile]]:
    """Every profile that comes first in its orbit under agent and object
    relabellings together, with its index in ``enumerate_profiles``.

    Such a profile P is sorted, and no object relabelling tau makes the
    sorted tau P come earlier.  So agent 0 reports the first preference of
    its object orbit, and no agent's report has an orbit starting before it:
    else the relabelling that takes that report to its orbit's first gives
    an earlier profile.  Given both, the sorted tau P can come earlier only
    if it starts with agent 0's report, that is, only if tau takes some
    agent's report to it.  One relabelling does that per report, so only
    those are tried, not every relabelling.

    >>> [index for index, _ in sorted_orbit_profiles(Instance(2, (1, 1)))]
    [0, 1]
    """
    prefs = all_preferences(inst)
    digit_of = {pref: d for d, pref in enumerate(prefs)}
    firsts, taus = [], []
    for pref in prefs:
        tau = _first_of_object_orbit(inst, pref)
        taus.append(tau)
        firsts.append(digit_of[pref if tau is None else tuple(tau[o] for o in pref)])
    for index, digits in _sorted_digits(len(prefs), inst.n):
        head = digits[0]
        if firsts[head] != head or any(firsts[d] < head for d in digits):
            continue
        for d in set(digits):
            tau = taus[d]
            if tau is not None and firsts[d] == head:
                moved = sorted(digit_of[tuple(tau[o] for o in prefs[e])] for e in digits)
                if tuple(moved) < digits:
                    break
        else:
            yield index, tuple(prefs[d] for d in digits)


def sort_agents(profile: Profile) -> tuple[Profile, Callable[[Matching], Matching] | None]:
    """The profile with its agents stably sorted by preference, and the way back.

    The sorted profile is the first of the profile's anonymity orbit in
    ``sorted_profiles``.  The relabelling maps a matching of the sorted
    profile to the original agents (each agent gets what her position got),
    and is None when the profile is already sorted.

    >>> sorted_profile, relabel = sort_agents(((1, 0), (0, 1)))
    >>> sorted_profile, relabel((0, 1))
    (((0, 1), (1, 0)), (1, 0))
    """
    agents = range(len(profile))
    order = sorted(agents, key=profile.__getitem__)
    if order == list(agents):
        return profile, None
    position = sorted(agents, key=order.__getitem__)  # the inverse: position[order[p]] == p
    return tuple(profile[agent] for agent in order), itemgetter(*position)


@lru_cache(maxsize=None)
def _pref_is_monotonic_at(pref: Preference, transformed: Preference, obj: int) -> bool:
    """Lower contour of ``pref`` at ``obj`` is contained in that of ``transformed``."""
    ranks = preference_ranks(pref)
    new_ranks = preference_ranks(transformed)
    cutoff = new_ranks[obj]
    for other in pref[ranks[obj]:]:
        if new_ranks[other] < cutoff:
            return False
    return True


@lru_cache(maxsize=None)
def monotonic_steps(inst: Instance) -> Mapping[tuple[Preference, int], tuple[Preference, ...]]:
    """Maps ``(pref, obj)`` to every other admissible preference whose lower
    contour at ``obj`` contains that of ``pref``, in lexicographic order.

    These are the single-agent monotonic transformations at ``obj``.  The
    read-only table is built once per instance and shared by every caller.
    """
    prefs = all_preferences(inst)
    return MappingProxyType({
        (pref, obj): tuple(
            other for other in prefs if other != pref and _pref_is_monotonic_at(pref, other, obj)
        )
        for pref in prefs
        for obj in inst.objects
    })


def is_monotonic_transformation(profile: Profile, transformed: Profile, matching: Matching) -> bool:
    """True iff every agent's lower contour set at her allotment weakly expands."""
    return all(
        _pref_is_monotonic_at(profile[i], transformed[i], matching[i])
        for i in range(len(matching))
    )


def push_object_to_top(pref: Preference, obj: int) -> Preference:
    if pref[0] == obj:
        return pref
    return (obj,) + tuple(o for o in pref if o != obj)


def push_to_top(inst: Instance, profile: Profile, target: Matching) -> Profile:
    """Move each agent's ``target`` allotment to the front of her ranking.

    The relative order of all other objects is preserved.  In the null-bottom
    domain, pushing the null object itself off the bottom is rejected with
    DomainViolation rather than silently clamped.
    """
    if not is_feasible(inst, target):
        raise PreconditionViolated(f"target matching {target} is infeasible")
    pushed = tuple(
        push_object_to_top(profile[i], target[i]) for i in range(inst.n)
    )
    if inst.domain == NULL_BOTTOM:
        for pref in pushed:
            if pref[-1] != inst.null_object:
                raise DomainViolation(
                    "pushing the null object to the top leaves the null-bottom domain"
                )
    return pushed


def common_object_ranking(inst: Instance) -> CommonRanking:
    """Default shared object ranking: ascending object id.

    Excludes the null object in the null-bottom domain, where it is pinned to
    the bottom of every ranking instead.
    """
    if inst.domain == NULL_BOTTOM:
        return inst.real_objects()
    return tuple(range(inst.k))


def validate_common_ranking(inst: Instance, ranking: CommonRanking) -> None:
    expected = sorted(inst.real_objects()) if inst.domain == NULL_BOTTOM else list(range(inst.k))
    if sorted(ranking) != expected:
        raise PreconditionViolated(f"{ranking} is not a ranking of the expected objects")


def _ranked_rest(inst: Instance, ranking: CommonRanking, exclude: tuple[int, ...]) -> tuple[int, ...]:
    """Objects in common-ranking order minus ``exclude``, null appended last."""
    rest = tuple(o for o in ranking if o not in exclude)
    if inst.domain == NULL_BOTTOM:
        return rest + (inst.null_object,)
    return rest


def common_rank_rearrange(
    inst: Instance,
    profile: Profile,
    target: Matching,
    ranking: CommonRanking | None = None,
) -> Profile:
    """Re-sort everything below each agent's top by the shared ranking.

    Requires every agent's ``target`` allotment to already sit on top of her
    ranking (i.e. ``profile`` is a ``push_to_top`` output).  The result keeps
    that top and orders all remaining objects identically across agents.
    """
    if ranking is None:
        ranking = common_object_ranking(inst)
    validate_common_ranking(inst, ranking)
    for i in range(inst.n):
        if profile[i][0] != target[i]:
            raise PreconditionViolated(
                f"agent {i} does not rank her target allotment first"
            )
    return tuple(
        (target[i],) + _ranked_rest(inst, ranking, (target[i],))
        for i in range(inst.n)
    )


def single_trade_cycle(matching: Matching, improved: Matching) -> tuple[int, ...]:
    """The unique trading cycle turning ``matching`` into ``improved``.

    Returned in proof order: the first agent's new allotment is the last
    agent's old one, and every later agent receives her predecessor's old
    allotment.  Raises PreconditionViolated if the reallocation is not a
    single cycle of length at least 3.
    """
    from .matchings import trade_cycles  # matchings depends on this module

    cycles = trade_cycles(matching, improved)
    if len(cycles) != 1:
        raise PreconditionViolated(
            f"reallocation decomposes into {len(cycles)} cycles, expected exactly 1"
        )
    cycle = cycles[0]
    if len(cycle) < 3:
        raise PreconditionViolated(
            "a 2-cycle reallocation is already a blocking swap"
        )
    # trade_cycles orients cycles so each agent receives the *next* agent's
    # old allotment; the stepwise construction wants the predecessor's.
    return (cycle[0],) + tuple(reversed(cycle[1:]))


def appendix_transform_sequence(
    inst: Instance,
    profile: Profile,
    matching: Matching,
    improved: Matching,
) -> list[Profile]:
    """Stepwise profile sequence for the restricted-domain uniqueness argument.

    Input: a null-bottom profile, a non-wasteful ``matching`` and an
    ``improved`` matching that Pareto-dominates it via a single trading cycle
    of length ``ell >= 3``.  Output, with the null object last everywhere:

    1. the profile with each cycle agent's new allotment first and old
       allotment second (kept-allotment agents get theirs first; null-object
       agents are untouched);
    2. the same profile with everything below the old allotment re-sorted by
       the shared ranking, and null-object agents set to the shared ranking;
    3. one profile per cycle position ``s = 3..ell`` where agent ``s`` drops
       her old allotment into shared-ranking position.

    The last element ranks, for every cycle agent, her new allotment first
    and all other real objects in the shared ranking.
    """
    from .matchings import matching_verdict, pareto_dominates  # cycle-free import

    if inst.domain != NULL_BOTTOM:
        raise PreconditionViolated("the stepwise construction lives in the null-bottom domain")
    validate_profile(inst, profile)
    if not pareto_dominates(improved, matching, profile):
        raise PreconditionViolated("improved matching does not Pareto-dominate the original")
    if matching_verdict(inst, matching, profile, "non-wasteful") is not None:
        raise PreconditionViolated("original matching is wasteful")

    cycle = single_trade_cycle(matching, improved)
    ell = len(cycle)
    cycle_objects = tuple(matching[agent] for agent in cycle)
    null = inst.null_object
    kept_real = [
        i for i in range(inst.n) if matching[i] == improved[i] and matching[i] != null
    ]
    null_agents = [i for i in range(inst.n) if matching[i] == null]
    # Shared ranking: cycle objects in proof order, then the remaining real
    # objects by ascending id (any fixed completion works).
    ranking: CommonRanking = cycle_objects + tuple(
        o for o in inst.real_objects() if o not in cycle_objects
    )

    first = list(profile)
    for i in cycle:
        first[i] = push_object_to_top(push_object_to_top(profile[i], matching[i]), improved[i])
    for i in kept_real:
        first[i] = push_object_to_top(profile[i], matching[i])
    sequence = [tuple(first)]

    second = list(first)
    for i in cycle:
        second[i] = (improved[i], matching[i]) + _ranked_rest(
            inst, ranking, (improved[i], matching[i])
        )
    for i in kept_real:
        second[i] = (matching[i],) + _ranked_rest(inst, ranking, (matching[i],))
    shared_pref = _ranked_rest(inst, ranking, ())
    for i in null_agents:
        second[i] = shared_pref
    sequence.append(tuple(second))

    current = list(second)
    for s in range(2, ell):  # proof steps 3..ell, zero-based cycle positions
        agent = cycle[s]
        current[agent] = (improved[agent],) + _ranked_rest(inst, ranking, (improved[agent],))
        sequence.append(tuple(current))

    for prof in sequence:
        validate_profile(inst, prof)
    return sequence
