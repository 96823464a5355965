"""Harnesses that mechanically verify the engine's equivalence claims.

The claims, stated in the engine's own terms:

* **Thm1a / Thm1b** -- a lottery rule satisfying probabilistic monotonicity
  (plus ex-post non-wastefulness when total capacity exceeds the number of
  agents; nothing extra when capacity equals it) is ex-post pairwise
  efficient if and only if it is ex-post Pareto efficient.
* **Cor2 / Thm3** -- the deterministic counterpart with Maskin monotonicity,
  on the general and the null-bottom domain respectively.
* **Prop1** -- group strategy-proofness, pairwise strategy-proofness,
  strategy-proofness plus non-bossiness, and Maskin monotonicity coincide
  for deterministic rules.

Each harness verifies the hypotheses *before* looking at the conclusion and
refuses to claim anything when they fail.  The proof replays re-execute the
constructive arguments behind Thm1 and Thm3 on concrete inputs, asserting
every intermediate claim by brute force.
"""

from __future__ import annotations

import random
import re
import struct
import time
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import partial

from .axioms import (
    DETERMINISTIC_ONLY,
    EX_POST_KINDS,
    Axiom,
    Outcomes,
    check_axiom,
    require_applicable,
)
from .errors import AxiomNotApplicable, BoundsError, PreconditionViolated
from .matchings import matching_verdict, pareto_dominates, reduce_to_single_cycle
from .model import GENERAL, NULL_BOTTOM, Instance, Matching, enumerate_matchings, object_usage
from .preferences import (
    Profile,
    all_preferences,
    appendix_transform_sequence,
    common_rank_rearrange,
    in_domain,
    is_monotonic_transformation,
    orbit_head,
    orbit_profiles,
    prefers,
    profile_set,
    push_to_top,
    single_trade_cycle,
)
from .rules import (
    Lottery,
    RuleDescriptor,
    TabulatedDeterministicRule,
    TabulatedLotteryRule,
    is_lottery_rule,
    rule_label,
)


@dataclass(frozen=True)
class AgentPartition:
    """Split of the agents induced by a dominated matching and its improver.

    ``cycle_agents`` lists the trading cycle in proof order (agent ``s``
    receives the old allotment of agent ``s-1``), ``fixed_real`` keep the
    same real object, ``null_agents`` hold the null object on both sides,
    and ``kappa`` is the count of agents holding real objects.
    """

    cycle_agents: tuple[int, ...]
    fixed_real: frozenset[int]
    null_agents: frozenset[int]
    kappa: int


def partition_agents(inst: Instance, matching: Matching, improved: Matching) -> AgentPartition:
    """Partition agents into cycle / fixed-real / null groups."""
    null = inst.null_object
    movers, fixed_real, null_agents = [], set(), set()
    for i in range(inst.n):
        if matching[i] == improved[i]:
            if matching[i] == null:
                null_agents.add(i)
            else:
                fixed_real.add(i)
        else:
            if matching[i] == null or improved[i] == null:
                raise PreconditionViolated(
                    f"agent {i} moves between the null object and a real object"
                )
            movers.append(i)
    cycle = single_trade_cycle(matching, improved)
    assert sorted(cycle) == movers
    return AgentPartition(
        cycle_agents=cycle,
        fixed_real=frozenset(fixed_real),
        null_agents=frozenset(null_agents),
        kappa=len(cycle) + len(fixed_real),
    )


@dataclass
class TheoremVerdict:
    """Result of one theorem harness run.

    ``conclusion_verified`` is None when the hypotheses failed, in which case
    no claim about the conclusion is made.  ``timings`` holds per-check wall
    times and ``stats`` each check's ``CheckReport.stats``, keyed by axiom;
    neither is part of ``to_dict``, so reports stay byte-comparable.
    """

    theorem: str
    rule: str
    hypotheses_verified: list[dict]
    conclusion_verified: bool | None
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict, compare=False)
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.conclusion_verified is True

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "rule": self.rule,
            "hypotheses_verified": self.hypotheses_verified,
            "conclusion_verified": self.conclusion_verified,
            "witness": self.witness,
            "details": self.details,
        }


def _theorem_label(inst: Instance, rule: RuleDescriptor) -> str:
    if is_lottery_rule(rule):
        return "Thm1a" if inst.total_capacity > inst.n else "Thm1b"
    if inst.domain == NULL_BOTTOM:
        return "Thm3"
    return "Cor2"


def _checker(inst: Instance, rule: RuleDescriptor):
    """``check_axiom`` on one ``Outcomes`` of the rule per kind, shared by every check.

    The rule is evaluated inside the timed checks, and each table's totality
    and anonymity are settled once.  A deterministic rule's lotteries read the
    matchings table, if held first.
    """
    tables = {}

    def check(axiom):
        lottery = axiom not in DETERMINISTIC_ONLY
        if lottery and False in tables and True not in tables:
            tables[True] = tables[False].as_lotteries()
        if lottery not in tables:
            tables[lottery] = Outcomes(inst, rule, lottery)
        return check_axiom(inst, tables[lottery], axiom)

    return check


def verify_theorem1(inst: Instance, rule: RuleDescriptor) -> TheoremVerdict:
    """Check the pairwise/Pareto equivalence claim for one rule.

    Hypotheses first: probabilistic monotonicity (Maskin monotonicity for
    deterministic rules), plus ex-post non-wastefulness when total capacity
    exceeds the number of agents.  Only if they all pass does the harness
    read the conclusion: the rule is ex-post pairwise efficient iff it is
    ex-post Pareto efficient, i.e. the two ex-post checks agree.  When they
    disagree the witness is the failing check's.  The checks share one
    ``Outcomes`` of the rule per kind (``_checker``).
    """
    label = _theorem_label(inst, rule)
    slack = inst.total_capacity > inst.n
    hypothesis_axioms = [
        Axiom.PROB_MONOTONIC if is_lottery_rule(rule) else Axiom.MASKIN_MONOTONIC
    ]
    if slack:
        hypothesis_axioms.append(Axiom.EX_POST_NON_WASTEFUL)
    check = _checker(inst, rule)
    hypothesis_reports = [check(axiom) for axiom in hypothesis_axioms]
    hypotheses = [r.to_dict() for r in hypothesis_reports]
    timings = {f"hypothesis_{r.axiom}": round(r.wall_time, 6) for r in hypothesis_reports}
    details = {
        "capacity_case": "slack" if slack else "tight",
        "domain": inst.domain,
    }
    if inst.domain == NULL_BOTTOM and is_lottery_rule(rule):
        details["note"] = "lottery rules on the null-bottom domain are outside the proven claims"
    stats = {r.axiom: r.stats() for r in hypothesis_reports}
    failed = next((r for r in hypothesis_reports if not r.passed), None)
    if failed is not None:
        details["status"] = "hypotheses not met"
        return TheoremVerdict(
            label, rule_label(rule), hypotheses, None, failed.witness, details, timings, stats
        )

    pairwise, pareto = check(Axiom.EX_POST_PAIRWISE), check(Axiom.EX_POST_PARETO)
    stats.update({r.axiom: r.stats() for r in (pairwise, pareto)})
    details["ex_post_pairwise"] = pairwise.passed
    details["ex_post_pareto"] = pareto.passed
    details["profiles_checked"] = max(pairwise.profiles_checked, pareto.profiles_checked)
    timings["conclusion_scan"] = round(pairwise.wall_time + pareto.wall_time, 6)
    verified = pairwise.passed == pareto.passed
    witness = None if verified else (pareto if pairwise.passed else pairwise).witness
    return TheoremVerdict(
        label, rule_label(rule), hypotheses, verified, witness, details, timings, stats
    )


def _timed(timings: dict[str, float], key: str, thunk):
    """Run ``thunk``, record its wall time under ``key``, return its value."""
    started = time.perf_counter()
    value = thunk()
    timings[key] = round(time.perf_counter() - started, 6)
    return value


def _theorem1_replay_core(
    inst: Instance,
    profile: Profile,
    matching: Matching,
    improved: Matching,
) -> dict:
    if not pareto_dominates(improved, matching, profile):
        raise PreconditionViolated("improved matching does not Pareto-dominate the original")
    timings: dict[str, float] = {}
    timed = partial(_timed, timings)

    pushed = push_to_top(inst, profile, improved)
    rearranged = common_rank_rearrange(inst, pushed, improved)
    push_monotonic = timed(
        "push_is_monotonic_at_original",
        lambda: is_monotonic_transformation(profile, pushed, matching),
    )
    mutual = timed(
        "rearranged_mutually_monotonic_at_improved",
        lambda: is_monotonic_transformation(pushed, rearranged, improved)
        and is_monotonic_transformation(rearranged, pushed, improved),
    )
    universe = enumerate_matchings(inst)
    survivors = timed(
        "survivor_scan",
        lambda: [
            m
            for m in universe
            if matching_verdict(inst, m, rearranged, "pairwise") is None
            and matching_verdict(inst, m, rearranged, "non-wasteful") is None
        ],
    )
    target_usage = object_usage(inst, improved)
    counts_match = all(object_usage(inst, m) == target_usage for m in survivors)
    unique = survivors == [improved]
    assertions = {
        "push_is_monotonic_at_original": push_monotonic,
        "rearranged_mutually_monotonic_at_improved": mutual,
        "survivor_object_counts_match_improved": counts_match,
        "unique_survivor_is_improved": unique,
    }
    return {
        "replay": "Thm1",
        "assertions": assertions,
        "passed": all(assertions.values()),
        "pushed_profile": pushed,
        "rearranged_profile": rearranged,
        "survivors": survivors,
        "matchings_scanned": len(universe),
        "timings": timings,
    }


def replay_theorem1_proof(
    inst: Instance,
    profile: Profile,
    matching: Matching,
    improved: Matching,
) -> dict:
    """Replay the unrestricted-domain uniqueness argument on concrete inputs.

    Builds the push-to-top profile and its common-ranking rearrangement, then
    brute-forces four claims: the push is a monotonic transformation at the
    original matching; push and rearrangement are mutually monotonic at the
    improved matching; every pairwise-efficient non-wasteful matching at the
    rearranged profile assigns each object exactly as the improved matching
    does; and the improved matching is the only such survivor.
    """
    if inst.domain != GENERAL:
        raise PreconditionViolated("the unrestricted replay runs on the general domain")
    return _theorem1_replay_core(inst, profile, matching, improved)


def replay_theorem3_proof(
    inst: Instance, profile: Profile, matching: Matching, improved: Matching
) -> dict:
    """Replay the null-bottom stepwise argument on concrete inputs.

    Reduces the improvement to a single shortest trading cycle (re-profiling
    agents on other cycles by pushing their current allotment on top), runs
    the stepwise profile sequence, and asserts: the reduction and each
    prescribed stage relation hold, every stage profile stays in the
    null-bottom domain, every non-wasteful matching at every stage assigns
    objects exactly as the improved matching does, and the final profile
    makes the first and last cycle agents a blocking swap at the original
    matching.

    When no agent holds the null object the unrestricted argument applies
    unchanged; the report then carries ``degenerate = True`` and embeds the
    unrestricted replay.
    """
    if inst.domain != NULL_BOTTOM:
        raise PreconditionViolated("the stepwise replay runs on the null-bottom domain")
    if not pareto_dominates(improved, matching, profile):
        raise PreconditionViolated("improved matching does not Pareto-dominate the original")
    if matching_verdict(inst, matching, profile, "non-wasteful") is not None:
        raise PreconditionViolated("original matching is wasteful")

    null = inst.null_object
    if not any(matching[i] == null == improved[i] for i in range(inst.n)):
        core = _theorem1_replay_core(inst, profile, matching, improved)
        return {
            "replay": "Thm3",
            "degenerate": True,
            "delegated": core,
            "passed": core["passed"],
        }

    reduced_profile, reduced_improved, _ = reduce_to_single_cycle(
        inst, profile, matching, improved
    )
    cycle = single_trade_cycle(matching, reduced_improved)  # raises on 2-cycles
    partition = partition_agents(inst, matching, reduced_improved)
    sequence = appendix_transform_sequence(inst, reduced_profile, matching, reduced_improved)
    timings: dict[str, float] = {}
    timed = partial(_timed, timings)

    reduction_monotonic = timed(
        "reduction_is_monotonic_at_original",
        lambda: is_monotonic_transformation(profile, reduced_profile, matching),
    )
    stage_domain_ok = timed(
        "stages_stay_in_domain", lambda: all(in_domain(inst, prof) for prof in sequence)
    )

    def check_stage_relations():
        ok = is_monotonic_transformation(
            reduced_profile, sequence[0], matching
        ) and is_monotonic_transformation(sequence[0], sequence[1], matching)
        for step, (before, after) in enumerate(zip(sequence[1:], sequence[2:]), start=2):
            changed = [i for i in range(inst.n) if before[i] != after[i]]
            ok &= changed == [cycle[step]]
        return ok

    stage_relations = timed("stage_relations_hold", check_stage_relations)

    universe = enumerate_matchings(inst)
    target_usage = object_usage(inst, reduced_improved)
    counts_ok = timed(
        "stage_object_counts_match_improved",
        lambda: all(
            object_usage(inst, m) == target_usage
            for prof in sequence
            for m in universe
            if matching_verdict(inst, m, prof, "non-wasteful") is None
        ),
    )

    final = sequence[-1]
    first, last = cycle[0], cycle[-1]
    swap_blocks = prefers(final[first], matching[last], matching[first]) and prefers(
        final[last], matching[first], matching[last]
    )
    assertions = {
        "reduction_is_monotonic_at_original": reduction_monotonic,
        "stage_relations_hold": stage_relations,
        "stages_stay_in_domain": stage_domain_ok,
        "stage_object_counts_match_improved": counts_ok,
        "final_profile_has_blocking_swap": swap_blocks,
    }
    return {
        "replay": "Thm3",
        "degenerate": False,
        "assertions": assertions,
        "passed": all(assertions.values()),
        "partition": {
            "cycle_agents": list(partition.cycle_agents),
            "fixed_real": sorted(partition.fixed_real),
            "null_agents": sorted(partition.null_agents),
            "kappa": partition.kappa,
        },
        "sequence_length": len(sequence),
        "sequence": sequence,
        "blocking_swap": {
            "agents": [first, last],
            "cycle_positions": [1, len(cycle)],
            "objects": [matching[first], matching[last]],
        },
        "timings": timings,
    }


def verify_proposition1(inst: Instance, rule: RuleDescriptor) -> TheoremVerdict:
    """Check that the four incentive properties agree for a deterministic rule.

    Computes group strategy-proofness, pairwise strategy-proofness,
    strategy-proofness with non-bossiness, and Maskin monotonicity, and
    verifies all four booleans coincide.
    """
    if is_lottery_rule(rule):
        raise AxiomNotApplicable("the four-way equivalence is about deterministic rules")
    check = _checker(inst, rule)
    reports = {
        axiom: check(axiom)
        for axiom in (
            Axiom.GROUP_STRATEGY_PROOF,
            Axiom.PAIRWISE_STRATEGY_PROOF,
            Axiom.STRATEGY_PROOF,
            Axiom.NON_BOSSY,
            Axiom.MASKIN_MONOTONIC,
        )
    }
    properties = {
        "group_strategy_proof": reports[Axiom.GROUP_STRATEGY_PROOF].passed,
        "pairwise_strategy_proof": reports[Axiom.PAIRWISE_STRATEGY_PROOF].passed,
        "strategy_proof_and_non_bossy": reports[Axiom.STRATEGY_PROOF].passed
        and reports[Axiom.NON_BOSSY].passed,
        "maskin_monotonic": reports[Axiom.MASKIN_MONOTONIC].passed,
    }
    agreed = len(set(properties.values())) == 1
    witness = None if agreed else {"kind": "mixed_verdict", "properties": properties}
    return TheoremVerdict(
        theorem="Prop1",
        rule=rule_label(rule),
        hypotheses_verified=[r.to_dict() for r in reports.values()],
        conclusion_verified=agreed,
        witness=witness,
        details={"properties": properties, "all_hold": agreed and all(properties.values())},
        timings={r.axiom: round(r.wall_time, 6) for r in reports.values()},
        stats={r.axiom: r.stats() for r in reports.values()},
    )


@dataclass
class SearchResult:
    """Outcome of a counterexample search.

    ``budget_exhausted`` means "none found within budget"; it never claims
    impossibility.  ``timings`` holds the pre-screen's and the candidates'
    wall times, and ``stats`` how much the candidates drew and built; neither
    takes part in comparisons.
    """

    status: str
    rule: RuleDescriptor | None
    witness: dict | None
    candidates_tried: int
    required: list[str]
    violated: str
    timings: dict = field(default_factory=dict, compare=False)
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def found(self) -> bool:
        return self.status == "found"


#: The kinds of tabulated rule ``search_counterexample`` draws candidates from.
RULE_SPACES = ("deterministic", "lottery")


#: ``random() < 0.75`` iff the first of the two words it reads is below this.
_THREE_QUARTERS = 3 << 30

#: ``_word(raw, offset)[0]`` is the little-endian 32-bit word at that byte offset.
_word = struct.Struct("<I").unpack_from


def _shift(n: int) -> int:
    """The right shift that turns a word into ``getrandbits(k)``, k being n's bit length."""
    return 32 - n.bit_length()


def _choice(pool, raw: bytes, at: int) -> tuple:
    """``choice(pool)`` on the words of ``raw`` from word ``at``, and the word after."""
    shift = _shift(len(pool))
    limit = len(pool) << shift
    while (word := _word(raw, 4 * at)[0]) >= limit:
        at += 1
    return pool[word >> shift], at + 1


def _class(first: int, last: int) -> str:
    """The character class of the symbols from ``first`` to ``last``."""
    return f"[{re.escape(chr(first))}-{re.escape(chr(last))}]"


class _Drawer:
    """The search's candidate draws on ``rng``, placed by one regular-expression
    match per block of profiles.

    ``pools`` maps each profile of ``domain``, in profile order, to its
    ``(allowed, breakers)``.  The first candidate is greedy: the first breaker,
    else the first allowed matching, and the first allowed matching as the
    extra.  Every later one draws, profile by profile, what this would draw on
    ``rng``: ``rng.choice(breakers)`` if there are breakers and ``rng.random()
    < 0.75``, else ``rng.choice(allowed)``; then, if ``lottery``,
    ``rng.choice(allowed)`` as the extra.

    Each test these draws make is ``word < t`` on one of ``rng``'s raw 32-bit
    words, by CPython's word layout: ``random()`` is ``((w1 >> 5) * 2**26 +
    (w2 >> 6)) / 2**53``, below 0.75 iff ``w1 < 3 << 30``; ``getrandbits(k)``
    for k <= 32 is one word shifted right by ``32 - k``; and ``choice`` is
    ``_randbelow_with_getrandbits``, which redraws ``getrandbits(k)`` until
    it is below n, that is until the word is below ``n << (32 - k)``, so even
    a pool of one spends a word.  The pinned searches and the ``randrange``
    oracle of the tests hold that layout on every supported Python.

    So each word is read as a symbol, the number of ``thresholds`` at or
    below it, and ``word < t`` is a character class.  A ``choice`` is
    ``[not below t]*[below t]``, the rejection loop itself, since the classes
    are disjoint, and the three-quarters test puts ``[below 3 << 30].`` or
    ``[not below].`` before the first.  One group holds each profile's words.
    One match of a block's pattern places ``block`` consecutive profiles;
    blocks with the same pools share a pattern.  A profile's picks are
    decoded from its words only when its entry is read (``picks``).
    """

    def __init__(
        self, rng: random.Random, domain: frozenset, pools: dict, block: int, lottery: bool
    ):
        self.domain, self.index = domain, {p: i for i, p in enumerate(pools)}
        self._rng, self._block, self._lottery = rng, block, lottery
        self._pools = list(pools.values())
        sizes = {len(pool) for pair in self._pools for pool in pair if pool}
        self.thresholds = sorted({_THREE_QUARTERS, *(n << _shift(n) for n in sizes)})
        if len(self.thresholds) > 0xFFFF:
            raise BoundsError(
                f"{len(self.thresholds)} distinct draw thresholds exceed the bound of {0xFFFF}"
            )
        # A word's top byte decides its symbol, one byte of the symbol per
        # table, unless a threshold with nonzero low bits has that top byte:
        # such a loose byte's words are fixed up from the whole word.
        width = 1 if len(self.thresholds) < 256 else 2
        firm = [bisect_right(self.thresholds, top << 24) for top in range(256)]
        self._tables = [bytes(s >> 8 * plane & 255 for s in firm) for plane in range(width)]
        self._codec = "latin-1" if width == 1 else "utf-16-le"
        loose = b"".join(b"\\x%02x" % (t >> 24) for t in self.thresholds if t & 0xFFFFFF)
        self._loose = re.compile(b"[%s]" % loose) if loose else None
        self._per_read = 4 * len(self._pools)
        self.raw, self.symbols = b"", ""
        texts = [
            "".join(map(self._fragment, self._pools[start:start + block]))
            for start in range(0, len(self._pools), block)
        ]
        compiled = {text: re.compile(text, re.DOTALL) for text in dict.fromkeys(texts)}
        self._patterns = [compiled[text] for text in texts]
        self.patterns_compiled, self.words_drawn, self.entries_built = len(compiled), 0, 0

    def _classes(self, threshold: int) -> tuple[str, str]:
        """The classes of the symbols of words below ``threshold``, and of the rest."""
        rank = self.thresholds.index(threshold)
        return _class(0, rank), _class(rank + 1, len(self.thresholds))

    def _draw_pattern(self, n: int) -> str:
        below, rest = self._classes(n << _shift(n))
        return f"{rest}*{below}"

    def _fragment(self, pools: tuple) -> str:
        """One profile's draws as a pattern, in one group."""
        allowed, breakers = pools
        first = self._draw_pattern(len(allowed))
        if breakers:
            below, rest = self._classes(_THREE_QUARTERS)
            first = f"(?:{below}.{self._draw_pattern(len(breakers))}|{rest}.{first})"
        return f"({first}{self._draw_pattern(len(allowed)) if self._lottery else ''})"

    def read(self) -> str:
        """Read ``4 * len(pools)`` more words from ``rng``; return all unplaced symbols.

        ``getrandbits(32 * m)`` holds the next m words with the first in its
        lowest 32 bits, so its little-endian bytes are the words in order, and
        every fourth byte from the fourth is a word's top byte.  A symbol is
        one Latin-1 character below 256 thresholds, else one UTF-16 one.
        """
        count = self._per_read
        raw = self._rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        tops = raw[3::4]
        width = len(self._tables)
        symbols = bytearray(width * count)
        for plane, table in enumerate(self._tables):
            symbols[plane::width] = tops.translate(table)
        if self._loose:
            for hit in self._loose.finditer(tops):
                at = hit.start()
                symbol = bisect_right(self.thresholds, _word(raw, 4 * at)[0])
                symbols[width * at:width * at + width] = symbol.to_bytes(width, "little")
        self.raw += raw
        self.symbols += symbols.decode(self._codec, "surrogatepass")
        return self.symbols

    def tables(self) -> Iterator[_DrawnTable]:
        """Every candidate's table, in order: the greedy one, then one per placement."""
        yield _DrawnTable(self, None)
        while True:
            symbols, at, matches = self.symbols, 0, []
            for pattern in self._patterns:
                while (match := pattern.match(symbols, at)) is None:
                    symbols = self.read()
                matches.append(match)
                at = match.end()
            placed = matches, self.raw
            self.raw, self.symbols = self.raw[4 * at:], symbols[at:]
            self.words_drawn += at
            yield _DrawnTable(self, placed)

    def picks(self, i: int, placed: tuple | None) -> tuple:
        """Profile ``i``'s first matching and, in a lottery candidate, its extra (else None)."""
        allowed, breakers = self._pools[i]
        if placed is None:
            return (breakers or allowed)[0], allowed[0] if self._lottery else None
        matches, raw = placed
        block, group = divmod(i, self._block)
        at, pool = matches[block].start(group + 1), allowed
        if breakers:
            if _word(raw, 4 * at)[0] < _THREE_QUARTERS:
                pool = breakers
            at += 2
        first, at = _choice(pool, raw, at)
        return first, _choice(allowed, raw, at)[0] if self._lottery else None


class _DrawnTable(Mapping):
    """A candidate's read-only table: each profile's first drawn matching, or in
    the lottery space the uniform lottery over its two drawn matchings.

    ``placed`` holds the candidate's matches and words (``_Drawer.tables``);
    it is None for the greedy candidate.  An entry is decoded and built the
    first time its profile is read, and that same object is returned on every
    later read.  Membership, length and iteration read the drawer's index and
    build nothing.  ``keys()`` is the drawer's domain set itself, so
    ``Outcomes`` settles a candidate's totality with one set comparison; its
    order is not the iteration order, and nothing reads it in order
    (``jsonio.rule_to_dict`` sorts the entries).
    """

    def __init__(self, drawer: _Drawer, placed: tuple | None):
        self._drawer, self._placed = drawer, placed
        self._built: dict = {}

    def picks(self, profile) -> tuple:
        """The first matching drawn at ``profile``; the extra, or None outside the lottery space."""
        return self._drawer.picks(self._drawer.index[profile], self._placed)

    def __getitem__(self, profile):
        entry = self._built.get(profile)
        if entry is None:
            first, extra = self.picks(profile)
            if extra is None:
                entry = first
            else:
                support = dict.fromkeys((first, extra), 1)
                entry = Lottery(support, len(support))
            self._built[profile] = entry
            self._drawer.entries_built += 1
        return entry

    def __contains__(self, profile) -> bool:
        return profile in self._drawer.index

    def __len__(self) -> int:
        return len(self._drawer.index)

    def __iter__(self) -> Iterator:
        return iter(self._drawer.index)

    def keys(self) -> frozenset:
        return self._drawer.domain


def _prescreen(
    inst: Instance, profiles: list[Profile], keep_kinds: list[str], break_kind: str | None
) -> tuple[dict[Profile, list[Matching]], dict[Profile, list[Matching]]]:
    """Per profile, the matchings meeting every kept kind, and those breaking ``break_kind``.

    Both lists are in ``enumerate_matchings`` order, the breakers are a
    subset of the allowed matchings, and without ``break_kind`` there are no
    breakers.  The efficiency notions are equivariant under the agent and the
    object relabellings: m meets one at P iff sigma tau m meets it at sigma
    tau P, since a relabelling of objects of equal capacity that fixes the
    null object keeps rankings and capacities.  So the verdicts are taken on
    the heads of ``orbit_profiles(inst, agents=True, objects=True)`` only,
    and every other profile gets its head's lists carried to it
    (``preferences.orbit_head``) and sorted again.  A relabelling that fixes
    the head fixes its lists, so which one carries them cannot matter.  Each
    carried matching is the ``enumerate_matchings`` tuple itself.
    """
    universe = enumerate_matchings(inst)
    canon = {m: m for m in universe}
    screened = {}
    for _, profile in orbit_profiles(inst, agents=True, objects=True):
        pool = [
            m
            for m in universe
            if all(matching_verdict(inst, m, profile, k) is None for k in keep_kinds)
        ]
        broken = [m for m in pool if break_kind and matching_verdict(inst, m, profile, break_kind)]
        screened[profile] = pool, broken

    def carried(matchings, carry):
        return sorted(canon[carry(m)] for m in matchings)

    allowed: dict[Profile, list[Matching]] = {}
    breakers: dict[Profile, list[Matching]] = {}
    for profile in profiles:
        head, carry = orbit_head(inst, profile)
        pool, broken = screened[head]
        if carry is not None:
            pool, broken = carried(pool, carry), carried(broken, carry)
        allowed[profile] = pool
        if break_kind is not None:
            breakers[profile] = broken
    return allowed, breakers


def search_counterexample(
    inst: Instance,
    required: list[Axiom],
    violated: Axiom,
    budget: int,
    seed: int = 0,
    rule_space: str = "deterministic",
) -> SearchResult:
    """Search tabulated rules satisfying ``required`` but violating ``violated``.

    Candidates are built per profile from the matchings allowed by the
    ex-post requirements, biased toward matchings that break the violated
    axiom; one greedy candidate is tried first, then seeded random ones.  A
    lottery candidate is the uniform lottery over two matchings drawn per
    profile.  Every draw is placed in the generator's words when the
    candidate is made, in profile order, so a seed always yields the same
    candidates; each profile's entry is decoded and built only when a check
    first reads it, since the checks of an early-failing candidate read few
    profiles.  The draws are those of ``rng.random()`` and ``rng.choice`` on
    ``random.Random(seed)``, placed by one regular-expression match per run
    of profiles (``_Drawer``), so the stream relies on CPython's word layout.
    The allowed and breaking matchings are screened on the heads of the
    orbits under agent and object relabellings only and carried onto the
    others (``_prescreen``).  The result's
    ``timings`` and ``stats`` say how long the pre-screen and the candidates
    took, and how many words, patterns and entries the candidates needed.

    Each candidate is checked against the required axioms the draws do not
    enforce (those outside ``EX_POST_KINDS``), in the order given, then the
    violated axiom, then the required ex-post axioms, stopping at the first
    decisive result.  A candidate is accepted iff the violated axiom fails
    and every required axiom passes, and no check draws from the rng, so the
    order decides only how much is checked, never the result.  The required
    axioms no draw enforces are the ones a candidate can fail, and a failing
    scan stops at its first violation, while the violated axiom's scan may
    walk much of the domain before it meets a drawn breaker.
    Every candidate is screened by the full checkers, so a returned rule has
    already been independently re-verified.  ``budget`` bounds the number of
    candidates tried; a budget below 1 is a BoundsError, and a
    ``rule_space`` outside ``RULE_SPACES`` a PreconditionViolated.  An axiom
    that no candidate can be checked against (a deterministic-only axiom in
    the lottery space, or individual rationality, which needs an endowment)
    raises AxiomNotApplicable before any candidate is built.
    """
    if budget < 1:
        raise BoundsError(f"a budget of {budget} tries no candidate")
    if rule_space not in RULE_SPACES:
        raise PreconditionViolated(f"unknown rule space {rule_space!r}, not in {RULE_SPACES}")
    required = [Axiom(a) for a in required]
    violated = Axiom(violated)
    for axiom in (violated, *required):
        require_applicable(inst, axiom, rule_space == "lottery")
    # Sorting the domain gives enumeration order, since the enumeration is
    # lexicographic, and keeps the domain's own tuples: every candidate's keys
    # are then the very set ``Outcomes`` tests its totality against.
    started = time.perf_counter()
    domain = profile_set(inst)
    profiles = sorted(domain)
    allowed, breakers = _prescreen(
        inst,
        profiles,
        [EX_POST_KINDS[a] for a in required if a in EX_POST_KINDS],
        EX_POST_KINDS.get(violated),
    )
    prescreened = time.perf_counter()
    lottery = rule_space == "lottery"
    pools = {p: (allowed[p], breakers.get(p, [])) for p in profiles}
    drawer = _Drawer(random.Random(seed), domain, pools, len(all_preferences(inst)), lottery)
    tabulate = TabulatedLotteryRule if lottery else TabulatedDeterministicRule
    unenforced = [a for a in required if a not in EX_POST_KINDS]
    enforced = [a for a in required if a in EX_POST_KINDS]
    status, rule, witness = "budget_exhausted", None, None
    for tried, table in zip(range(1, budget + 1), drawer.tables()):
        candidate = tabulate(table)
        check = _checker(inst, candidate)
        if not all(check(a).passed for a in unenforced):
            continue
        violated_report = check(violated)
        if violated_report.passed:
            continue
        if all(check(a).passed for a in enforced):
            status, rule, witness = "found", candidate, violated_report.witness
            break
    return SearchResult(
        status=status,
        rule=rule,
        witness=witness,
        candidates_tried=tried,
        required=[a.value for a in required],
        violated=violated.value,
        timings={
            "prescreen_s": round(prescreened - started, 6),
            "candidates_s": round(time.perf_counter() - prescreened, 6),
        },
        stats={
            "candidates_tried": tried,
            "words_drawn": drawer.words_drawn,
            "block_patterns": drawer.patterns_compiled,
            "entries_built": drawer.entries_built,
        },
    )
