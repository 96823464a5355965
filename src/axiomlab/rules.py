"""Allocation rules and the uniform descriptor the checkers consume.

A lottery holds integer counts over one denominator: RSD counts the agent
orders reaching each matching out of all n! orders at the profile it is
given, layer by layer over the partial matchings their prefixes reach
(``random_serial_dictatorship``), and the counterexample search puts one
count on each matching of a candidate's support.  No floating point is used
anywhere.  The checkers compare weights as integer counts and denominators
(``Lottery.share``); weight reads return exact ``fractions.Fraction``
values, which witnesses and file formats print.  A deterministic rule can
always be viewed as the degenerate lottery putting weight 1 on its matching.
Only ``axioms.Outcomes`` uses RSD's anonymity (see the ``axioms`` docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterator, Mapping, Union

from .errors import PreconditionViolated, TableMiss
from .model import Instance, Matching, require_enumerable
from .preferences import Profile


class Lottery:
    """A probability distribution over matchings: integer counts over one denominator.

    Matching ``m`` has probability ``counts[m] / denominator``.  Every count
    must be a non-negative ``int`` and the counts must sum to the
    denominator.  Zero counts are dropped, the rest are reduced by their gcd,
    and the support is kept in lexicographic matching order, so equal
    distributions are equal and hash alike.  ``weight`` and ``items`` return
    exact ``Fraction`` values, built only when read.

    >>> lottery = Lottery({(1, 0): 2, (0, 1): 4}, 6)
    >>> lottery
    Lottery({(0, 1): 2/3, (1, 0): 1/3})
    >>> lottery == Lottery({(0, 1): 2, (1, 0): 1}, 3)
    True
    >>> lottery.weight((0, 1))
    Fraction(2, 3)
    """

    __slots__ = ("_counts", "_denominator")

    def __init__(self, counts: Mapping[Matching, int], denominator: int):
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"a lottery denominator must be a positive int, got {denominator!r}")
        if any(type(c) is not int or c < 0 for c in counts.values()):
            raise ValueError("lottery counts must be non-negative ints")
        if sum(counts.values()) != denominator:
            raise ValueError("lottery counts must sum to the denominator")
        divisor = math.gcd(denominator, *counts.values())
        self._counts = {m: c // divisor for m, c in sorted(counts.items()) if c}
        self._denominator = denominator // divisor

    @classmethod
    def from_weights(cls, weights: Mapping[Matching, Fraction]) -> "Lottery":
        """The lottery with these exact rational weights, which must sum to 1."""
        if not all(isinstance(w, Rational) for w in weights.values()):
            raise ValueError("lottery weights must be exact rationals")
        denominator = math.lcm(*(w.denominator for w in weights.values()))
        return cls(
            {m: w.numerator * (denominator // w.denominator) for m, w in weights.items()},
            denominator,
        )

    @classmethod
    def point(cls, matching: Matching) -> "Lottery":
        return cls({matching: 1}, 1)

    def weight(self, matching: Matching) -> Fraction:
        return Fraction(self._counts.get(matching, 0), self._denominator)

    def share(self, matching: Matching) -> tuple[int, int]:
        """The weight of ``matching`` as ``(count, denominator)``, without a ``Fraction``.

        All shares of one lottery have the same denominator, so comparing two
        of them compares their counts.

        >>> Lottery({(1, 0): 2, (0, 1): 4}, 6).share((1, 0))
        (1, 3)
        """
        return self._counts.get(matching, 0), self._denominator

    def equals_relabelled(self, other: "Lottery", relabel: Callable[[Matching], Matching]) -> bool:
        """True iff this is ``other`` with each matching ``m`` renamed ``relabel(m)``.

        ``relabel`` must be one to one, such as a relabelling of the agents.
        Builds no lottery.

        >>> from operator import itemgetter
        >>> Lottery({(0, 1): 2, (1, 0): 1}, 3).equals_relabelled(
        ...     Lottery({(0, 1): 1, (1, 0): 2}, 3), itemgetter(1, 0))
        True
        """
        if self._denominator != other._denominator or len(self._counts) != len(other._counts):
            return False
        counts = self._counts
        return all(counts.get(relabel(m)) == c for m, c in other._counts.items())

    def relabelled(self, relabel: Callable[[Matching], Matching]) -> "Lottery":
        """This lottery with each matching ``m`` renamed ``relabel(m)``.

        ``relabel`` must be one to one, such as a relabelling of the agents,
        so the counts stay reduced and need no check.

        >>> from operator import itemgetter
        >>> Lottery({(0, 1): 2, (1, 0): 1}, 3).relabelled(itemgetter(1, 0))
        Lottery({(0, 1): 1/3, (1, 0): 2/3})
        """
        lottery = object.__new__(Lottery)
        lottery._counts = dict(sorted((relabel(m), c) for m, c in self._counts.items()))
        lottery._denominator = self._denominator
        return lottery

    def __contains__(self, matching: Matching) -> bool:
        """True iff ``matching`` has positive weight; reads the counts only."""
        return matching in self._counts

    def support(self) -> tuple[Matching, ...]:
        return tuple(self._counts)

    def items(self) -> Iterator[tuple[Matching, Fraction]]:
        return ((m, Fraction(c, self._denominator)) for m, c in self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lottery):
            return NotImplemented
        return self._denominator == other._denominator and self._counts == other._counts

    def __hash__(self) -> int:
        return hash((self._denominator, tuple(self._counts.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {w}" for m, w in self.items())
        return f"Lottery({{{inner}}})"


@dataclass(frozen=True)
class SerialDictatorshipRule:
    """Agents pick their best remaining object in a fixed order."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class RandomSerialDictatorshipRule:
    """Uniform mixture of serial dictatorship over all agent orders."""


@dataclass(frozen=True)
class TopTradingCyclesRule:
    """Endowment exchange on a housing market."""

    endowment: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class TabulatedDeterministicRule:
    """Explicit profile-to-matching table, total over the enumerated domain."""

    table: Mapping[Profile, Matching]


@dataclass(frozen=True, eq=False)
class TabulatedLotteryRule:
    """Explicit profile-to-lottery table, total over the enumerated domain."""

    table: Mapping[Profile, Lottery]


RuleDescriptor = Union[
    SerialDictatorshipRule,
    RandomSerialDictatorshipRule,
    TopTradingCyclesRule,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
]


def is_lottery_rule(rule: RuleDescriptor) -> bool:
    return isinstance(rule, (RandomSerialDictatorshipRule, TabulatedLotteryRule))


def rule_label(rule: RuleDescriptor) -> str:
    """Short human-readable descriptor for reports."""
    if isinstance(rule, SerialDictatorshipRule):
        return "sd(" + ",".join(map(str, rule.order)) + ")"
    if isinstance(rule, RandomSerialDictatorshipRule):
        return "rsd"
    if isinstance(rule, TopTradingCyclesRule):
        return "ttc(" + ",".join(map(str, rule.endowment)) + ")"
    if isinstance(rule, TabulatedDeterministicRule):
        return "tabulated_deterministic"
    if isinstance(rule, TabulatedLotteryRule):
        return "tabulated_lottery"
    raise TypeError(f"unknown rule {rule!r}")


def serial_dictatorship(inst: Instance, order: tuple[int, ...], profile: Profile) -> Matching:
    """Run serial dictatorship for one agent order.

    >>> inst = Instance(n=2, capacities=(1, 1))
    >>> serial_dictatorship(inst, (0, 1), ((0, 1), (0, 1)))
    (0, 1)
    >>> serial_dictatorship(inst, (1, 0), ((0, 1), (0, 1)))
    (1, 0)
    """
    if sorted(order) != list(range(inst.n)):
        raise PreconditionViolated(f"{order} is not an order of all {inst.n} agents")
    remaining = list(inst.capacities)
    result = [-1] * inst.n
    for agent in order:
        for obj in profile[agent]:
            if remaining[obj] > 0:
                remaining[obj] -= 1
                result[agent] = obj
                break
    assert all(obj >= 0 for obj in result), "total capacity below n slipped through"
    return tuple(result)


def random_serial_dictatorship(inst: Instance, profile: Profile) -> Lottery:
    """Exact RSD lottery: weight of a matching = (orders reaching it) / n!.

    Counts the n! agent orders layer by layer, without running each one.
    Layer k maps every partial matching that k agents' picks reach (-1 for
    an agent not yet served) to the capacities it leaves and to the number
    of length-k order prefixes reaching it.  Each unserved agent extends it
    by taking her best object with capacity left.  Prefixes that reach the
    same partial matching have served the same agents with the same objects,
    so they leave the same capacities and every continuation picks alike:
    after n layers, a matching's count is the number of orders whose serial
    dictatorship reaches it.  Layer k holds at most n!/(n-k)! partial
    matchings, so the n! bound, checked before any layer is built, caps the
    work.  There is no sampling mode, because the engine verifies exact
    claims and desk-scale n keeps n! small.

    >>> random_serial_dictatorship(Instance(2, (1, 1)), ((0, 1), (0, 1)))
    Lottery({(0, 1): 1/2, (1, 0): 1/2})
    """
    orders = math.factorial(inst.n)
    require_enumerable(orders, "agent orders")
    layer: dict[Matching, tuple[tuple[int, ...], int]] = {(-1,) * inst.n: (inst.capacities, 1)}
    for _ in range(inst.n):
        following: dict[Matching, tuple[tuple[int, ...], int]] = {}
        for partial, (left, count) in layer.items():
            for agent, served in enumerate(partial):
                if served >= 0:
                    continue
                for obj in profile[agent]:
                    if left[obj]:
                        break
                else:
                    raise PreconditionViolated(f"agent {agent} ranks no object with capacity left")
                picked = list(partial)
                picked[agent] = obj
                picked = tuple(picked)
                reached = following.get(picked)
                if reached is None:
                    rest = list(left)
                    rest[obj] -= 1
                    following[picked] = (tuple(rest), count)
                else:
                    following[picked] = (reached[0], reached[1] + count)
        layer = following
    return Lottery({matching: count for matching, (_, count) in layer.items()}, orders)


def top_trading_cycles(
    inst: Instance, endowment: Matching, profile: Profile
) -> Matching:
    """Top trading cycles on a housing market.

    Every agent points at the owner of her best remaining object; cycles
    trade and leave.  Requires unit capacities, as many objects as agents,
    and a bijective endowment.

    >>> inst = Instance(n=3, capacities=(1, 1, 1))
    >>> top_trading_cycles(inst, (0, 1, 2), ((1, 0, 2), (2, 1, 0), (0, 1, 2)))
    (1, 2, 0)
    """
    if not inst.is_housing_market():
        raise PreconditionViolated("top trading cycles needs a housing market instance")
    if sorted(endowment) != list(range(inst.n)):
        raise PreconditionViolated(f"endowment {endowment} is not a bijection")
    owner = {endowment[i]: i for i in range(inst.n)}
    active = set(range(inst.n))
    result = [-1] * inst.n
    while active:
        best = {}
        points_to = {}
        for agent in sorted(active):
            top = next(obj for obj in profile[agent] if owner.get(obj) in active)
            best[agent] = top
            points_to[agent] = owner[top]
        visited: set[int] = set()
        for agent in sorted(active):
            if agent in visited:
                continue
            path = []
            position = {}
            current = agent
            while current not in visited:
                visited.add(current)
                position[current] = len(path)
                path.append(current)
                current = points_to[current]
            if current in position:  # closed a fresh cycle
                for member in path[position[current]:]:
                    result[member] = best[member]
                    active.discard(member)
                    del owner[endowment[member]]
    return tuple(result)


def evaluate(inst: Instance, rule: RuleDescriptor, profile: Profile):
    """Dispatch a rule descriptor: Matching for deterministic, Lottery otherwise."""
    if isinstance(rule, SerialDictatorshipRule):
        return serial_dictatorship(inst, rule.order, profile)
    if isinstance(rule, RandomSerialDictatorshipRule):
        return random_serial_dictatorship(inst, profile)
    if isinstance(rule, TopTradingCyclesRule):
        return top_trading_cycles(inst, rule.endowment, profile)
    if isinstance(rule, (TabulatedDeterministicRule, TabulatedLotteryRule)):
        try:
            return rule.table[profile]
        except KeyError:
            raise TableMiss(f"no table entry for profile {profile}")
    raise TypeError(f"unknown rule {rule!r}")


def evaluate_lottery(inst: Instance, rule: RuleDescriptor, profile: Profile) -> Lottery:
    """Evaluate any rule as a lottery; deterministic outcomes get weight 1."""
    outcome = evaluate(inst, rule, profile)
    if isinstance(outcome, Lottery):
        return outcome
    return Lottery.point(outcome)
