"""Allocation instances and feasible-matching enumeration.

Agents and objects are dense zero-based indices; human-readable names live
only in the I/O layer.  When a null object is present it is always index 0,
so restricted-domain code needs a single branch-free comparison.  A matching
is a plain tuple of object ids, one entry per agent.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import (
    BoundsError,
    CapacityShortfall,
    EmptyInstance,
    InvalidInstance,
    NullObjectMissing,
    SizeOverflow,
)

GENERAL = "general"
NULL_BOTTOM = "null_bottom"

#: Overridable cap on any single enumeration (matchings, profiles or agent orders).
DEFAULT_MAX_ENUMERATION = 2_000_000
MAX_ENUMERATION_ENV = "AXIOMLAB_MAX_PROFILES"

Matching = tuple[int, ...]


def require_enumerable(total: int, what: str) -> None:
    """SizeOverflow if ``total`` items of ``what`` exceed the enumeration cap:
    the env var, else the default."""
    raw = os.environ.get(MAX_ENUMERATION_ENV)
    try:
        bound = DEFAULT_MAX_ENUMERATION if raw is None else int(raw)
    except ValueError:
        raise BoundsError(f"{MAX_ENUMERATION_ENV} must be an integer, got {raw!r}")
    if total > bound:
        raise SizeOverflow(f"{total} {what} exceed the bound of {bound}")


@dataclass(frozen=True)
class Instance:
    """A fixed population of agents and capacitated objects.

    ``capacities[o]`` is the number of copies of object ``o``.  ``domain``
    selects which preference rankings are admissible: ``general`` allows every
    strict ranking, ``null_bottom`` forces the null object to be everyone's
    worst.
    """

    n: int
    capacities: tuple[int, ...]
    null_object: int | None = None
    domain: str = GENERAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacities", tuple(self.capacities))
        validate_instance(self)

    @property
    def k(self) -> int:
        return len(self.capacities)

    @property
    def objects(self) -> range:
        return range(self.k)

    @property
    def agents(self) -> range:
        return range(self.n)

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    def real_objects(self) -> tuple[int, ...]:
        """Object ids excluding the null object (all objects if none declared)."""
        if self.null_object is None:
            return tuple(range(self.k))
        return tuple(o for o in range(self.k) if o != self.null_object)

    def is_housing_market(self) -> bool:
        """One agent per object, unit capacities, no null object."""
        return (
            self.null_object is None
            and self.k == self.n
            and all(q == 1 for q in self.capacities)
        )


def validate_instance(inst: Instance) -> None:
    """Raise if ``inst`` breaks a structural invariant.

    Checks agent/object counts, non-negative capacities, total capacity at
    least ``n``, null-object placement at index 0, and domain consistency.
    """
    if inst.n < 1:
        raise EmptyInstance(f"need at least one agent, got n={inst.n}")
    if len(inst.capacities) < 1:
        raise EmptyInstance("need at least one object")
    if any(q < 0 for q in inst.capacities):
        raise InvalidInstance(f"capacities must be non-negative: {inst.capacities}")
    if inst.total_capacity < inst.n:
        raise CapacityShortfall(
            f"total capacity {inst.total_capacity} < {inst.n} agents"
        )
    if inst.null_object is not None and inst.null_object != 0:
        raise InvalidInstance("the null object must be object 0")
    if inst.domain not in (GENERAL, NULL_BOTTOM):
        raise InvalidInstance(f"unknown domain {inst.domain!r}")
    if inst.domain == NULL_BOTTOM and inst.null_object is None:
        raise NullObjectMissing("null_bottom domain requires a null object")


def object_usage(inst: Instance, matching: Matching) -> list[int]:
    """Per-object count of assigned copies."""
    usage = [0] * inst.k
    for obj in matching:
        usage[obj] += 1
    return usage


def is_feasible(inst: Instance, matching: Matching) -> bool:
    """True iff ``matching`` assigns every agent and respects all capacities."""
    return feasible_usage(inst, matching) is not None


def feasible_usage(inst: Instance, matching: Matching) -> list[int] | None:
    """``object_usage`` of a feasible ``matching``; None if it is infeasible."""
    if len(matching) != inst.n:
        return None
    if any(not 0 <= obj < inst.k for obj in matching):
        return None
    usage = object_usage(inst, matching)
    if any(usage[o] > inst.capacities[o] for o in inst.objects):
        return None
    return usage


def count_matchings(inst: Instance) -> int:
    """Number of feasible matchings, computed without enumerating them.

    Distributes the ``n`` agents over the objects subject to capacities:
    ``ways(o, m)`` = assignments of ``m`` agents to objects ``o..k-1``.
    """
    ways = [0] * (inst.n + 1)
    ways[0] = 1
    for cap in reversed(inst.capacities):
        nxt = [0] * (inst.n + 1)
        for m in range(inst.n + 1):
            total = 0
            for j in range(min(cap, m) + 1):
                total += math.comb(m, j) * ways[m - j]
            nxt[m] = total
        ways = nxt
    return ways[inst.n]


def enumerate_matchings(inst: Instance) -> list[Matching]:
    """All feasible matchings in lexicographic order of the assignment tuple.

    Raises SizeOverflow before materializing anything if the count exceeds
    the enumeration bound.
    """
    require_enumerable(count_matchings(inst), "matchings")
    out: list[Matching] = []
    remaining = list(inst.capacities)
    assignment = [0] * inst.n

    def assign(agent: int) -> None:
        if agent == inst.n:
            out.append(tuple(assignment))
            return
        for obj in range(inst.k):
            if remaining[obj] > 0:
                remaining[obj] -= 1
                assignment[agent] = obj
                assign(agent + 1)
                remaining[obj] += 1

    assign(0)
    return out
