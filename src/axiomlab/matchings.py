"""Efficiency predicates on matchings, improvement cycles and trade cycles.

``matching_verdict`` is the one routine that judges a matching against an
efficiency notion (Pareto efficiency, pairwise efficiency, non-wastefulness)
and builds the failure witness; the ex-post axioms, the ``check-matching``
command and the counterexample search all go through it.  It decides Pareto
efficiency by the characterization of Abdulkadiroğlu and Sönmez (1998): a
matching is Pareto efficient iff it is non-wasteful and has no improvement
cycle; its ``cycle`` witness is the only public form of that cycle.  The
tests hold that decision to a scan of every feasible matching.  All
tie-breaking is fixed (lowest agent ids first) so every witness is
reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter

from .errors import PreconditionViolated
from .model import Instance, Matching, enumerate_matchings, feasible_usage
from .preferences import Profile, preference_ranks, prefers, push_object_to_top


def pareto_dominates(candidate: Matching, matching: Matching, profile: Profile) -> bool:
    """True iff ``candidate`` is weakly better for everyone, strictly for someone."""
    strict = False
    for i, pref in enumerate(profile):
        ranks = preference_ranks(pref)
        if ranks[candidate[i]] > ranks[matching[i]]:
            return False
        if ranks[candidate[i]] < ranks[matching[i]]:
            strict = True
    return strict


def find_dominating(
    inst: Instance,
    matching: Matching,
    profile: Profile,
    universe: list[Matching] | None = None,
) -> Matching | None:
    """Lexicographically first matching that Pareto-dominates ``matching``."""
    if universe is None:
        universe = enumerate_matchings(inst)
    for candidate in universe:
        if pareto_dominates(candidate, matching, profile):
            return candidate
    return None


def blocking_pair(matching: Matching, profile: Profile) -> tuple[int, int] | None:
    """Lowest agent pair who would both strictly gain from swapping allotments."""
    n = len(matching)
    for i in range(n):
        for j in range(i + 1, n):
            if prefers(profile[i], matching[j], matching[i]) and prefers(
                profile[j], matching[i], matching[j]
            ):
                return (i, j)
    return None


def waste_witness(
    inst: Instance, matching: Matching, profile: Profile, usage: list[int]
) -> tuple[int, int] | None:
    """Lowest (agent, object) pair where the agent prefers an unfilled object.

    ``usage`` is the matching's ``object_usage``.
    """
    for i, pref in enumerate(profile):
        for obj in pref:
            if obj == matching[i]:
                break
            if usage[obj] < inst.capacities[obj]:
                return (i, obj)
    return None


#: The efficiency notions ``matching_verdict`` judges.
MATCHING_KINDS = ("pareto", "pairwise", "non-wasteful")


def matching_verdict(
    inst: Instance, matching: Matching, profile: Profile, kind: str
) -> dict | None:
    """None if ``matching`` meets the efficiency notion ``kind``, else a witness.

    An infeasible matching, an out-of-range object included, raises
    ``PreconditionViolated`` for every kind.  Witnesses are
    ``{"kind", "agents", "objects"}`` dicts: a ``swap`` for the
    lowest blocking pair, a ``waste`` for the lowest agent preferring an
    unfilled object, or, for a non-wasteful Pareto-dominated matching, the
    shortest improvement ``cycle``.

    >>> inst = Instance(3, (1, 1, 1))
    >>> profile = ((1, 0, 2), (2, 1, 0), (0, 2, 1))
    >>> matching_verdict(inst, (0, 1, 2), profile, "pareto")
    {'kind': 'cycle', 'agents': [0, 1, 2], 'objects': [0, 1, 2]}
    >>> matching_verdict(inst, (1, 2, 0), profile, "pareto") is None
    True
    """
    if kind not in MATCHING_KINDS:
        raise PreconditionViolated(f"unknown efficiency notion {kind!r}")
    usage = feasible_usage(inst, matching)
    if usage is None:
        raise PreconditionViolated(f"matching {matching} is infeasible")
    if kind == "pairwise":
        pair = blocking_pair(matching, profile)
        if pair is None:
            return None
        return {"kind": "swap", "agents": list(pair), "objects": [matching[a] for a in pair]}
    waste = waste_witness(inst, matching, profile, usage)
    if waste is not None:
        return {"kind": "waste", "agents": [waste[0]], "objects": [waste[1]]}
    if kind == "non-wasteful":
        return None
    cycle = _shortest_improvement_cycle(matching, profile)
    if cycle is None:
        return None
    return {"kind": "cycle", "agents": list(cycle), "objects": [matching[a] for a in cycle]}


def _shortest_improvement_cycle(matching: Matching, profile: Profile) -> tuple[int, ...] | None:
    """Agents of the shortest cycle where each wants the next one's allotment, or None.

    Ties go to the lowest starting agent, then the lowest next agent.  The
    caller rules out waste first: slack capacity makes chains, not cycles.
    """
    n = len(matching)
    wants = [
        [j for j in range(n) if j != i and prefers(profile[i], matching[j], matching[i])]
        for i in range(n)
    ]

    def extend(path: list[int], length: int, start: int) -> tuple[int, ...] | None:
        last = path[-1]
        if len(path) == length:
            return tuple(path) if start in wants[last] else None
        for nxt in wants[last]:
            if nxt > start and nxt not in path:
                found = extend(path + [nxt], length, start)
                if found is not None:
                    return found
        return None

    for length in range(2, n + 1):
        for start in range(n):
            found = extend([start], length, start)
            if found is not None:
                return found
    return None


def apply_cycle(matching: Matching, cycle_agents: tuple[int, ...]) -> Matching:
    """Clear a cycle: each listed agent receives the next agent's allotment."""
    result = list(matching)
    ell = len(cycle_agents)
    for t, agent in enumerate(cycle_agents):
        result[agent] = matching[cycle_agents[(t + 1) % ell]]
    return tuple(result)


def trade_cycles(matching: Matching, improved: Matching) -> list[tuple[int, ...]]:
    """Decompose a reallocation into trading cycles with distinct objects.

    Each returned cycle ``(c_1, ..., c_m)`` satisfies: agent ``c_t`` holds at
    ``improved`` the object that ``c_(t+1)`` held at ``matching`` (indices
    cyclic), and the old allotments on one cycle are mutually distinct.
    Cycles are peeled deterministically from the lowest unused agent id,
    always preferring the lowest continuation agent.
    """
    movers = [i for i in range(len(matching)) if matching[i] != improved[i]]
    if Counter(matching[i] for i in movers) != Counter(improved[i] for i in movers):
        raise PreconditionViolated(
            "reallocation changes per-object copy counts; no cycle decomposition"
        )
    unused = set(movers)
    cycles: list[tuple[int, ...]] = []
    while unused:
        start = min(unused)
        walk = [start]
        seen_objects = {matching[start]: 0}
        unused.discard(start)
        while True:
            head = walk[-1]
            needed = improved[head]
            if needed == matching[start]:
                cycles.append(tuple(walk))
                break
            if needed in seen_objects:
                # Peel the inner loop since the first visit of this object.
                cut = seen_objects[needed]
                inner = walk[cut:]
                cycles.append(tuple(inner))
                for agent in inner:
                    del seen_objects[matching[agent]]
                del walk[cut:]
                continue
            nxt = min(i for i in unused if matching[i] == needed)
            unused.discard(nxt)
            seen_objects[matching[nxt]] = len(walk)
            walk.append(nxt)
    return cycles


def reduce_to_single_cycle(
    inst: Instance,
    profile: Profile,
    matching: Matching,
    improved: Matching,
) -> tuple[Profile, Matching, tuple[int, ...]]:
    """Keep one shortest trading cycle of the improvement, neutralize the rest.

    Agents on the other cycles get their current allotment pushed to the top
    of their ranking (a monotonic transformation at ``matching``), and the
    improved matching is replaced by the one that clears only the kept cycle.
    Returns ``(new_profile, new_improved, kept_cycle)``.
    """
    cycles = trade_cycles(matching, improved)
    if not cycles:
        raise PreconditionViolated("the two matchings are identical")
    kept = min(cycles, key=lambda c: (len(c), c))
    new_profile = list(profile)
    for cycle in cycles:
        if cycle is kept:
            continue
        for agent in cycle:
            new_profile[agent] = push_object_to_top(profile[agent], matching[agent])
    return tuple(new_profile), apply_cycle(matching, kept), kept
