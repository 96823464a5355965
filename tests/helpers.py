"""Rules and oracles that only the tests use: the brute-force Pareto oracle,
a bossy showcase rule and seeded random tables."""

import random

from axiomlab import PreconditionViolated, TabulatedDeterministicRule, find_dominating
from axiomlab.model import Instance, Matching, enumerate_matchings
from axiomlab.preferences import Profile, enumerate_profiles, preference_ranks


def is_pareto_efficient(
    inst: Instance,
    matching: Matching,
    profile: Profile,
    universe: list[Matching] | None = None,
) -> bool:
    """Brute-force test oracle: no feasible matching dominates this one."""
    return find_dominating(inst, matching, profile, universe) is None


def bossy_flip_rule(inst: Instance) -> TabulatedDeterministicRule:
    """A strategy-proof but bossy showcase rule on 3 agents, 3 unit objects.

    Agent 0 always receives object 0.  Agents 1 and 2 receive objects 1 and 2
    in an order controlled entirely by agent 0's report: if agent 0 ranks
    object 1 above object 2 they get (1, 2), otherwise (2, 1).  Nobody can
    change her own allotment, yet agent 0 flips the other two.
    """
    if inst.n != 3 or inst.capacities != (1, 1, 1):
        raise PreconditionViolated("the showcase bossy rule needs n=3, unit capacities")
    table: dict[Profile, Matching] = {}
    for profile in enumerate_profiles(inst):
        ranks = preference_ranks(profile[0])
        if ranks[1] < ranks[2]:
            table[profile] = (0, 1, 2)
        else:
            table[profile] = (0, 2, 1)
    return TabulatedDeterministicRule(table)


def random_tabulated_rule(inst: Instance, seed: int) -> TabulatedDeterministicRule:
    """Seeded random profile-to-matching table over all feasible matchings."""
    rng = random.Random(seed)
    matchings = enumerate_matchings(inst)
    table = {
        profile: matchings[rng.randrange(len(matchings))]
        for profile in enumerate_profiles(inst)
    }
    return TabulatedDeterministicRule(table)
