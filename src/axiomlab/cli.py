"""Command-line entry point: file I/O, dispatch, and report emission.

Every command prints one JSON document to stdout: the deterministic payload
under ``"result"`` and wall-clock timing under ``"timing"``.  ``check-rule``,
``verify-thm1`` and ``verify-prop1`` also print, under ``"stats"``, which scan
each check ran and how many rule evaluations it made (``CheckReport.stats``).
Only ``"result"`` is reproducible, so golden-file comparisons should read it
alone.  Exit codes: 0 pass, 1 fail with witness (or a found counterexample),
2 usage, format, overflow, or any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback

from . import jsonio
from .axioms import Axiom, check_axiom
from .errors import AxiomLabError, BoundsError, FormatError, PreconditionViolated
from .matchings import MATCHING_KINDS, find_dominating, matching_verdict
from .model import GENERAL, NULL_BOTTOM, Instance
from .preferences import all_preferences
from .rules import (
    RandomSerialDictatorshipRule,
    SerialDictatorshipRule,
    TopTradingCyclesRule,
    evaluate,
)
from .theorems import (
    RULE_SPACES,
    replay_theorem1_proof,
    replay_theorem3_proof,
    search_counterexample,
    verify_proposition1,
    verify_theorem1,
)

AXIOM_NAMES = {axiom.value.replace("_", "-"): axiom for axiom in Axiom}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axiomlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="also write the report JSON to this path")
        return p

    p = add("gen-instance", help="generate a reproducible instance and profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--capacity-style",
        choices=("unit", "sum-equals-n", "slack"),
        default="unit",
    )
    p.add_argument("--domain", choices=("general", "null-bottom"), default="general")

    for name in ("rsd", "sd", "ttc"):
        p = add(name, help=f"evaluate the {name} rule on one profile")
        p.set_defaults(rule=name)
        p.add_argument("--instance", required=True)
        p.add_argument("--profile", required=True)
        if name == "sd":
            p.add_argument("--order", help="comma-separated agent order, default 0,1,...")
        if name == "ttc":
            p.add_argument("--endowment", help="matching JSON file, default identity")

    p = add("check-matching", help="check one matching against one efficiency axiom")
    p.add_argument("--instance", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--axiom", choices=MATCHING_KINDS, required=True)

    harness = "run a theorem harness for one rule"
    for name, about in (
        ("check-rule", "check one rule against one axiom, exhaustively"),
        ("verify-thm1", harness),
        ("verify-prop1", harness),
    ):
        p = add(name, help=about)
        p.add_argument("--instance")
        p.add_argument("--rule", required=True)
        if name == "check-rule":
            p.add_argument("--axiom", choices=sorted(AXIOM_NAMES), required=True)
        p.add_argument("--order")
        p.add_argument("--endowment")
        # Accepted so that existing command lines run; every check scans in process.
        p.add_argument("--workers", type=int, default=1)

    for name in ("replay-proof", "replay-appendix"):
        p = add(name, help="replay a proof construction on a concrete input")
        p.add_argument("--instance", required=True)
        p.add_argument("--profile", required=True)
        p.add_argument("--matching", required=True, help="the dominated matching")
        p.add_argument("--dominating", help="improving matching; default: first dominator")

    p = add("search-cex", help="search tabulated rules for an axiom counterexample")
    p.add_argument("--instance", required=True)
    p.add_argument("--require", action="append", default=[], choices=sorted(AXIOM_NAMES))
    p.add_argument("--violate", required=True, choices=sorted(AXIOM_NAMES))
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule-space", choices=RULE_SPACES, default="deterministic")
    p.add_argument("--rule-out", help="write any found rule table to this path")
    return parser


def _load_rule(args):
    """Resolve --instance and --rule (or the rsd/sd/ttc command) into (instance, names, rule)."""
    inst, names = jsonio.load_instance(args.instance) if args.instance else (None, None)
    selector = args.rule
    if selector in ("rsd", "sd", "ttc") and inst is None:
        raise PreconditionViolated(f"--rule {selector} needs --instance")
    if selector != "sd" and getattr(args, "order", None) is not None:
        raise PreconditionViolated(f"--order applies to --rule sd only, not {selector}")
    if selector == "rsd":
        return inst, names, RandomSerialDictatorshipRule()
    if selector == "sd":
        order = tuple(range(inst.n))
        if getattr(args, "order", None):
            try:
                order = tuple(int(x) for x in args.order.split(","))
            except ValueError:
                raise FormatError(f"--order needs comma-separated agent ids, got {args.order!r}")
        return inst, names, SerialDictatorshipRule(order)
    if selector == "ttc":
        endowment = tuple(range(inst.n))
        if getattr(args, "endowment", None):
            endowment = jsonio.load_matching(args.endowment, inst, names)
        return inst, names, TopTradingCyclesRule(endowment)
    file_inst, file_names, rule = jsonio.load_rule_file(selector)
    if inst is not None and (inst, names) != (file_inst, file_names):
        raise PreconditionViolated("--instance disagrees with the rule file's instance")
    return file_inst, file_names, rule


def _validate_workers(workers: int) -> None:
    """A --workers count below 1 is a BoundsError; any other count changes nothing."""
    if workers < 1:
        raise BoundsError(f"a worker count of {workers} is below 1")


def gen_instance(seed: int, n: int, k: int, capacity_style: str, domain: str = GENERAL):
    """Reproducible pseudo-random instance and profile; same seed, same bytes."""
    if not 1 <= n <= 8 or not 1 <= k <= 6:
        raise BoundsError(f"supported ranges are 1<=n<=8 and 1<=k<=6, got n={n} k={k}")
    rng = random.Random(seed)
    if capacity_style == "unit":
        if k < n:
            raise BoundsError("unit capacities need k >= n")
        capacities = tuple(1 for _ in range(k))
    else:
        extra = 0 if capacity_style == "sum-equals-n" else 1 + rng.randrange(n)
        capacities = [0] * k
        for _ in range(n + extra):
            capacities[rng.randrange(k)] += 1
        capacities = tuple(capacities)
    null_object = 0 if domain == NULL_BOTTOM else None
    if domain == NULL_BOTTOM and capacities[0] == 0:
        capacities = (1,) + capacities[1:]
    inst = Instance(n, capacities, null_object, domain)
    prefs = all_preferences(inst)
    profile = tuple(prefs[rng.randrange(len(prefs))] for _ in range(n))
    return inst, profile


def _cmd_gen_instance(args):
    domain = NULL_BOTTOM if args.domain == "null-bottom" else GENERAL
    inst, profile = gen_instance(args.seed, args.n, args.k, args.capacity_style, domain)
    names = jsonio.default_object_names(inst)
    named = jsonio.with_names({"profile": profile}, names)
    return 0, {"instance": jsonio.instance_to_dict(inst, names), **named}


def _cmd_rule_eval(args):
    inst, names, rule = _load_rule(args)
    outcome = evaluate(inst, rule, jsonio.load_profile(args.profile, inst, names))
    if args.command == "rsd":
        return 0, {"lottery": jsonio.lottery_to_list(outcome, names)}
    if args.command == "sd":
        result = {"order": rule.order, "matching": outcome}
    else:
        result = {"endowment": rule.endowment, "matching": outcome}
    return 0, jsonio.with_names(result, names)


def _cmd_check_matching(args):
    inst, names = jsonio.load_instance(args.instance)
    profile = jsonio.load_profile(args.profile, inst, names)
    matching = jsonio.load_matching(args.matching, inst, names)
    witness = matching_verdict(inst, matching, profile, args.axiom)
    result = {
        "axiom": args.axiom,
        "matching": matching,
        "verdict": "pass" if witness is None else "fail",
        "witness": witness,
    }
    return (0 if witness is None else 1), jsonio.with_names(result, names)


def _cmd_check_rule(args):
    inst, names, rule = _load_rule(args)
    axiom = AXIOM_NAMES[args.axiom]
    endowment = None
    if axiom is Axiom.INDIVIDUAL_RATIONALITY:
        if isinstance(rule, TopTradingCyclesRule):
            endowment = rule.endowment
        if getattr(args, "endowment", None):
            endowment = jsonio.load_matching(args.endowment, inst, names)
    _validate_workers(args.workers)
    report = check_axiom(inst, rule, axiom, endowment)
    timing = {"check_wall_time_s": round(report.wall_time, 6)}
    result = jsonio.with_names(report.to_dict(), names)
    return (0 if report.passed else 1), result, timing, report.stats()


def _cmd_verify(args):
    inst, names, rule = _load_rule(args)
    harness = verify_theorem1 if args.command == "verify-thm1" else verify_proposition1
    _validate_workers(args.workers)
    verdict = harness(inst, rule)
    payload = jsonio.with_names(verdict.to_dict(), names)
    return (0 if verdict.passed else 1), payload, dict(verdict.timings), verdict.stats


def _cmd_replay(args):
    inst, names = jsonio.load_instance(args.instance)
    profile = jsonio.load_profile(args.profile, inst, names)
    matching = jsonio.load_matching(args.matching, inst, names)
    if args.dominating:
        dominating = jsonio.load_matching(args.dominating, inst, names)
    else:
        dominating = find_dominating(inst, matching, profile)
        if dominating is None:
            raise PreconditionViolated("the matching is not Pareto-dominated")
    replay = replay_theorem1_proof if args.command == "replay-proof" else replay_theorem3_proof
    report = replay(inst, profile, matching, dominating)
    timing = report.pop("timings", {})
    if "delegated" in report:
        timing = report["delegated"].pop("timings", {})
    return (0 if report["passed"] else 1), jsonio.with_names(report, names), timing


def _cmd_search_cex(args):
    inst, names = jsonio.load_instance(args.instance)
    result = search_counterexample(
        inst,
        [AXIOM_NAMES[a] for a in args.require],
        AXIOM_NAMES[args.violate],
        budget=args.budget,
        seed=args.seed,
        rule_space=args.rule_space,
    )
    payload = {
        "status": result.status,
        "required": result.required,
        "violated": result.violated,
        "candidates_tried": result.candidates_tried,
        "witness": result.witness,
    }
    if result.found and args.rule_out:
        jsonio.dump_json_file(args.rule_out, jsonio.rule_to_dict(inst, result.rule, names))
        payload["rule_file"] = args.rule_out
    code = 1 if result.found else 0
    return code, jsonio.with_names(payload, names), result.timings, result.stats


#: Each handler returns ``(exit code, result)``, optionally followed by extra
#: ``"timing"`` entries and then the ``"stats"`` section.
_HANDLERS = {
    "gen-instance": _cmd_gen_instance,
    "rsd": _cmd_rule_eval,
    "sd": _cmd_rule_eval,
    "ttc": _cmd_rule_eval,
    "check-matching": _cmd_check_matching,
    "check-rule": _cmd_check_rule,
    "verify-thm1": _cmd_verify,
    "verify-prop1": _cmd_verify,
    "replay-proof": _cmd_replay,
    "replay-appendix": _cmd_replay,
    "search-cex": _cmd_search_cex,
}


def run(argv=None) -> int:
    """Parse arguments, execute one command, print its JSON report.

    Every error, an unexpected one included, becomes a JSON error report and
    exit code 2, so exit code 1 always means a fail with a witness.
    Unexpected errors also print their traceback to stderr.  A stdout closed
    before the report is written also exits 2, without a traceback.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        for target in (args.out, getattr(args, "rule_out", None)):
            if target:  # an unwritable path fails before the work, not after it
                jsonio.require_writable(target)
        code, result, *extras = _HANDLERS[args.command](args)
        report = {"command": args.command, "result": result}
        if len(extras) > 1:
            report["stats"] = extras[1]
        report["timing"] = {
            "wall_time_s": round(time.perf_counter() - started, 6),
            **(extras[0] if extras else {}),
        }
        text = json.dumps(report, indent=2)
        if args.out:
            jsonio.write_text_file(args.out, text + "\n")
    except Exception as exc:
        if not isinstance(exc, AxiomLabError):
            traceback.print_exc()
        report = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        code, text = 2, json.dumps(report, indent=2)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the
        # interpreter's last flush of the unwritten report cannot fail again.
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
