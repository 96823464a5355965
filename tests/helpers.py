"""Rules and oracles that only the tests use: the brute-force Pareto oracle,
the plain scan of every profile, a bossy showcase rule, seeded random tables,
lottery tables that are anonymous or nearly so, and tables that are neutral
under a set of object relabellings."""

import random
from fractions import Fraction
from itertools import permutations, product

from axiomlab import (
    Lottery,
    PreconditionViolated,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    find_dominating,
    random_serial_dictatorship,
)
from axiomlab.axioms import DETERMINISTIC_ONLY, Axiom, Outcomes, _scan
from axiomlab.model import Instance, Matching, enumerate_matchings
from axiomlab.preferences import (
    Profile,
    count_profiles,
    enumerate_profiles,
    object_classes,
    preference_ranks,
)
from axiomlab.rules import rule_label


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


def uniform_over(inst: Instance, keep) -> TabulatedLotteryRule:
    """Per profile, the uniform lottery over the feasible matchings ``keep`` accepts."""
    universe = enumerate_matchings(inst)

    def lottery(profile):
        support = {m: 1 for m in universe if keep(m, profile)}
        return Lottery(support, len(support))

    return TabulatedLotteryRule({p: lottery(p) for p in enumerate_profiles(inst)})


def rsd_with_one_changed_unsorted_entry(inst: Instance) -> TabulatedLotteryRule:
    """RSD's table, except that its last unsorted profile also draws one more matching."""
    table = {p: random_serial_dictatorship(inst, p) for p in enumerate_profiles(inst)}
    profile = next(p for p in reversed(list(table)) if list(p) != sorted(p))
    other = next(m for m in enumerate_matchings(inst) if m not in table[profile])
    table[profile] = Lottery({**dict.fromkeys(table[profile].support(), 1), other: 1},
                             len(table[profile].support()) + 1)
    return TabulatedLotteryRule(table)


def plain_report(inst: Instance, rule, axiom, endowment=None) -> dict:
    """The report dict of the plain scan of every profile, which reads each
    profile's own outcome and uses no relabelling."""
    axiom = Axiom(axiom)
    hit = _scan(Outcomes(inst, rule, axiom not in DETERMINISTIC_ONLY), axiom, endowment)
    verdict, witness, checked = (
        ("pass", None, count_profiles(inst)) if hit is None else ("fail", hit[1], hit[0] + 1)
    )
    return {
        "axiom": axiom.value,
        "rule": rule_label(rule),
        "verdict": verdict,
        "witness": witness,
        "profiles_checked": checked,
    }


def object_relabellings(inst: Instance) -> list[tuple[int, ...]]:
    """Every object relabelling, the identity first, enumerated directly: each
    class of ``object_classes`` permuted among itself."""
    classes = object_classes(inst)
    relabellings = []
    for images in product(*(permutations(c) for c in classes)):
        tau = list(range(inst.k))
        for objects, image in zip(classes, images):
            for obj, target in zip(objects, image):
                tau[obj] = target
        relabellings.append(tuple(tau))
    return relabellings


def renamed(tau, value):
    """A preference, matching or profile with each object ``o`` renamed ``tau[o]``."""
    if value and isinstance(value[0], tuple):
        return tuple(renamed(tau, v) for v in value)
    return tuple(tau[o] for o in value)


def inverse(tau):
    back = [0] * len(tau)
    for obj, image in enumerate(tau):
        back[image] = obj
    return tuple(back)


def symmetrised(inst: Instance, table: dict, relabellings) -> dict:
    """A table f with f(tau P) = tau f(P) for every ``tau`` of ``relabellings``,
    which must be a group of object relabellings.

    A matchings table keeps the entry of each orbit's first profile and
    renames it onto the rest of the orbit.  A lottery table averages, at P,
    the entries at every tau P renamed back by the inverse of tau.
    """
    out = {}
    for profile in enumerate_profiles(inst):
        if isinstance(table[profile], Lottery):
            weights = {}
            for tau in relabellings:
                back = inverse(tau)
                for m, w in table[renamed(tau, profile)].items():
                    m = renamed(back, m)
                    weights[m] = weights.get(m, 0) + w
            out[profile] = Lottery.from_weights(
                {m: Fraction(w, len(relabellings)) for m, w in weights.items()}
            )
        elif profile not in out:
            for tau in relabellings:
                out[renamed(tau, profile)] = renamed(tau, table[profile])
    return out
