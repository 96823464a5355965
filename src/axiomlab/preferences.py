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
from functools import lru_cache, partial
from itertools import combinations_with_replacement, count, permutations, product
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


@lru_cache(maxsize=None)
def nontrivial_relabellings(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Every object relabelling but the identity: each class of
    ``object_classes`` permuted among itself, in lexicographic order.

    >>> nontrivial_relabellings(Instance(3, (1, 1, 1)))
    ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    """
    classes = object_classes(inst)
    relabellings = []
    for images in product(*(permutations(objects) for objects in classes)):
        tau = list(range(inst.k))
        for objects, image in zip(classes, images):
            for obj, target in zip(objects, image):
                tau[obj] = target
        relabellings.append(tuple(tau))
    return tuple(relabellings[1:])  # each class's first permutation is the identity


@lru_cache(maxsize=None)
def _digits(inst: Instance) -> tuple[tuple[Preference, ...], Mapping[Preference, int]]:
    """``all_preferences`` as one shared tuple, and each preference's index in it."""
    prefs = tuple(all_preferences(inst))
    return prefs, MappingProxyType({pref: d for d, pref in enumerate(prefs)})


@lru_cache(maxsize=None)
def _relabelled_digits(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Each relabelling of ``nontrivial_relabellings`` as a map over the indices
    of ``all_preferences``: entry d is the index of preference d renamed."""
    prefs, digit_of = _digits(inst)
    return tuple(
        tuple(digit_of[tuple(tau[o] for o in pref)] for pref in prefs)
        for tau in nontrivial_relabellings(inst)
    )


def orbit_profiles(
    inst: Instance, agents: bool = False, objects: bool = False
) -> Iterator[tuple[int, Profile]]:
    """Every profile that comes first in its orbit under the agent
    relabellings if ``agents`` and the object relabellings if ``objects``,
    with its index in ``enumerate_profiles``, in enumeration order.

    Profiles compare lexicographically, agent 0 first, and the index is a
    profile's mixed-radix number over ``all_preferences``.  With ``agents``
    the candidates are the sorted profiles, whose preferences ascend.
    Without it, an object relabelling other than the identity moves every
    preference, so a profile comes first iff agent 0's report comes first in
    its object orbit, and the other agents report freely.  With both, a sorted
    profile P is kept iff no object relabelling tau other than the identity
    gives a sorted tau P that comes before P.  Every stream stands for the
    whole domain, so ``model.require_enumerable`` caps each on the number of
    all profiles, before it yields one.

    >>> inst = Instance(2, (1, 1))
    >>> list(orbit_profiles(inst, agents=True))
    [(0, ((0, 1), (0, 1))), (1, ((0, 1), (1, 0))), (3, ((1, 0), (1, 0)))]
    >>> [index for index, _ in orbit_profiles(inst, objects=True)]
    [0, 1]
    >>> [index for index, _ in orbit_profiles(inst, agents=True, objects=True)]
    [0, 1]
    """
    prefs = all_preferences(inst)
    radix, n = len(prefs), inst.n
    require_enumerable(count_profiles(inst), "profiles")
    maps = _relabelled_digits(inst) if objects else ()
    if agents:
        for index, digits in _sorted_digits(radix, n):
            for image in maps:
                if sorted(map(image.__getitem__, digits)) < list(digits):
                    break
            else:
                yield index, tuple(prefs[d] for d in digits)
        return
    stride = radix ** (n - 1)
    for digit, first in enumerate(prefs):
        if all(image[digit] > digit for image in maps):
            yield from zip(count(digit * stride), product((first,), *[prefs] * (n - 1)))


@lru_cache(maxsize=None)
def orbit_count(inst: Instance, agents: bool = False, objects: bool = False) -> int:
    """How many profiles ``orbit_profiles`` yields for these arguments.

    Kept per instance and arguments, so the stream counted by walking it, the
    orbits under both relabellings, is walked for its count once.
    """
    radix, n = len(all_preferences(inst)), inst.n
    if agents and objects:
        return sum(1 for _ in orbit_profiles(inst, agents, objects))
    if agents:
        return math.comb(radix + n - 1, n)  # one sorted profile per multiset of n preferences
    # each object orbit holds one profile per relabelling, the identity included
    return radix**n // (len(nontrivial_relabellings(inst)) + 1 if objects else 1)


def sort_agents(profile: Profile) -> tuple[Profile, Callable[[Matching], Matching] | None]:
    """The profile with its agents stably sorted by preference, and the way back.

    The sorted profile is the first of the profile's anonymity orbit, in
    ``orbit_profiles(inst, agents=True)``.  The relabelling maps a matching of
    the sorted profile to the original agents (each agent gets what her
    position got), and is None when the profile is already sorted.

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
def _inverse_relabellings(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """The inverse of each relabelling of ``nontrivial_relabellings``."""
    objects = range(inst.k)
    return tuple(
        tuple(sorted(objects, key=tau.__getitem__)) for tau in nontrivial_relabellings(inst)
    )


def _carried(back: tuple[int, ...], relabel: Callable | None, matching: Matching) -> Matching:
    """``matching`` relabelled by ``relabel``, if any, then each object ``o``
    renamed ``back[o]``."""
    if relabel is not None:
        matching = relabel(matching)
    return tuple(map(back.__getitem__, matching))


def orbit_head(
    inst: Instance, profile: Profile
) -> tuple[Profile, Callable[[Matching], Matching] | None]:
    """The head of the profile's orbit under the agent and object relabellings
    together, and the way from the head back to the profile.

    The head H is the profile of the orbit that ``orbit_profiles(inst,
    agents=True, objects=True)`` yields: the least sorted tau P over every
    object relabelling tau, the identity first on a tie.  The map carries a
    matching at H to the matching at P: the relabelling back of the agent
    sort of tau P (``sort_agents``), then the inverse of tau.  So if a rule
    f has f(sigma tau P) = sigma tau f(P) for every agent relabelling sigma
    and object relabelling tau, f(P) is f(H) carried by the map.  The map is
    None when P is its own head; with no object relabelling this is
    ``sort_agents``.

    >>> head, carry = orbit_head(Instance(2, (1, 1)), ((1, 0), (1, 0)))
    >>> head, carry((0, 1))
    (((0, 1), (0, 1)), (1, 0))
    """
    prefs, digit_of = _digits(inst)
    digits = list(map(digit_of.__getitem__, profile))
    least, first = sorted(digits), None
    images = _relabelled_digits(inst)
    for at, image in enumerate(images):
        moved = sorted(map(image.__getitem__, digits))
        if moved < least:
            least, first = moved, at
    if first is None:
        return sort_agents(profile)
    head, relabel = sort_agents(tuple(prefs[images[first][d]] for d in digits))  # tau P
    return head, partial(_carried, _inverse_relabellings(inst)[first], relabel)


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
