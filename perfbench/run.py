"""axiomlab benchmark: four CLI verdict workloads, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload thm1-rsd-slack --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload is one ``axiomlab`` command started as a fresh process, so every
sample pays the interpreter start, the imports and the cold caches a CLI user
pays.  ``--trace 0`` times a few trivial CLI processes for set-up, then
repeats the command one process at a time for about ``--seconds``, and
reports medians of the end-to-end metrics.  ``--trace 1`` runs the command
once untraced and once under ``tracer.py`` and reports the per-layer
metrics.  Every report is checked against what the theorems require.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: Object names are drawn from this pool by the seed.
NAME_POOL = tuple("abcdefghjkmnpqrstuvwxyz")

#: Fresh-process imports timed per traced run for ``cli.import_s``.
IMPORT_SAMPLES = 5

#: Trivial CLI processes per end-to-end run, so ``setup_s`` has enough samples.
SETUP_PROBES = 8


def _first_miss(checks) -> str | None:
    return next((message for ok, message in checks if not ok), None)


def _option(args, flag: str, default: str | None = None) -> str | None:
    """The value following ``flag`` in a CLI argument list."""
    return args[args.index(flag) + 1] if flag in args else default


def expect_thm1a(code: int, result: dict, domain: int, argv: list[str]) -> str | None:
    """Thm1a on slack capacities: RSD meets both hypotheses and the conclusion."""
    hypotheses = result["hypotheses_verified"]
    return _first_miss([
        (code == 0, f"exit code {code}, expected 0"),
        (result["theorem"] == "Thm1a", f"theorem {result['theorem']}, expected Thm1a"),
        (
            [h["axiom"] for h in hypotheses] == ["prob_monotonic", "ex_post_non_wasteful"],
            "hypotheses are not prob_monotonic and ex_post_non_wasteful",
        ),
        (
            all(h["verdict"] == "pass" and h["profiles_checked"] == domain for h in hypotheses),
            "a hypothesis did not pass over the whole domain",
        ),
        (result["conclusion_verified"] is True, "conclusion not verified"),
        (result["details"]["profiles_checked"] == domain, "conclusion scan missed profiles"),
    ])


def expect_prop1_holds(code: int, result: dict, domain: int, argv: list[str]) -> str | None:
    """Serial dictatorship has all four Prop1 properties."""
    return _first_miss([
        (code == 0, f"exit code {code}, expected 0"),
        (result["conclusion_verified"] is True, "the four properties disagree"),
        (result["details"]["all_hold"] is True, "not all four properties hold"),
        (len(result["hypotheses_verified"]) == 5, "expected five checks"),
        (
            all(h["profiles_checked"] == domain for h in result["hypotheses_verified"]),
            "a check did not scan the whole domain",
        ),
    ])


def expect_pass(code: int, result: dict, domain: int, argv: list[str]) -> str | None:
    """The rule satisfies the axiom: pass after scanning the whole domain."""
    return _first_miss([
        (code == 0, f"exit code {code}, expected 0"),
        (result["verdict"] == "pass", f"verdict {result['verdict']}, expected pass"),
        (
            result["profiles_checked"] == domain,
            f"profiles_checked {result['profiles_checked']}, expected {domain}",
        ),
    ])


def expect_exhausted(code: int, result: dict, domain: int, argv: list[str]) -> str | None:
    """Thm1b: no rule can satisfy the requirements and violate the target."""
    budget = int(_option(argv, "--budget"))
    return _first_miss([
        (code == 0, f"exit code {code}, expected 0"),
        (result["status"] == "budget_exhausted", f"status {result['status']}: contradicts Thm1b"),
        (result["candidates_tried"] == budget, f"tried {result['candidates_tried']} of {budget}"),
    ])


def expect_fail_replays(code: int, result: dict, domain: int, argv: list[str]) -> str | None:
    """A ``check-rule`` fail whose witness replays through ``replay_witness``.

    Any replaying witness is accepted, not a byte-equal one, because a faster
    scan may find another violation first.
    """
    if code != 1 or result["verdict"] != "fail":
        return f"exit code {code} with verdict {result['verdict']}, expected a fail"
    sys.path.insert(0, str(SRC))
    from axiomlab import RandomSerialDictatorshipRule, SerialDictatorshipRule, jsonio
    from axiomlab.axioms import replay_witness
    from axiomlab.cli import AXIOM_NAMES

    inst, names = jsonio.load_instance(_option(argv, "--instance"))
    selector = _option(argv, "--rule")
    if selector == "rsd":
        rule = RandomSerialDictatorshipRule()
    elif selector == "sd":
        order = _option(argv, "--order", ",".join(map(str, range(inst.n))))
        rule = SerialDictatorshipRule(tuple(int(a) for a in order.split(",")))
    else:
        inst, names, rule = jsonio.load_rule_file(selector)

    def ids(value, key=None):
        if isinstance(value, dict):
            return {k: ids(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [ids(v, key) for v in value]
        if isinstance(value, str) and key != "kind" and value in names:
            return names.index(value)
        return value

    axiom = AXIOM_NAMES[_option(argv, "--axiom")]
    if not replay_witness(inst, rule, axiom, ids(result["witness"])):
        return "the fail witness does not replay"
    return None


@dataclass(frozen=True)
class Workload:
    """One CLI command on a base instance; the seed relabels the objects."""

    name: str
    command: tuple[str, ...]
    n: int
    capacities: tuple[int, ...]
    expect: Callable[[int, dict, int, list[str]], str | None]
    #: ``--workers`` for the end-to-end run; None for a command without it.
    workers: int | None = 1

    @property
    def domain(self) -> int:
        """Number of profiles: every agent ranks all objects strictly."""
        return math.factorial(len(self.capacities)) ** self.n

    def argv(self, seed: int, directory: Path, workers: int | None) -> list[str]:
        """Write the seeded instance file and return the CLI arguments.

        The seed permutes the capacity vector and draws the object names, draws
        the agent order of a serial dictatorship, and seeds ``search-cex``.
        Relabeling objects and agents is a bijection on profiles and
        matchings, so every theorem-level verdict is the same for every seed.
        """
        rng = random.Random(seed)
        capacities = list(self.capacities)
        rng.shuffle(capacities)
        names = rng.sample(NAME_POOL, len(capacities))
        instance = {
            "n": self.n,
            "objects": [{"name": a, "capacity": q} for a, q in zip(names, capacities)],
            "null_object": None,
            "domain": "general",
        }
        path = directory / f"{self.name}-instance.json"
        path.write_text(json.dumps(instance))
        argv = [self.command[0], "--instance", str(path), *self.command[1:]]
        if _option(self.command, "--rule") == "sd":
            argv += ["--order", ",".join(map(str, rng.sample(range(self.n), self.n)))]
        if self.command[0] == "search-cex":
            argv += ["--seed", str(seed)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thm1-rsd-slack",
            ("verify-thm1", "--rule", "rsd"),
            4,
            (2, 2, 1),
            expect_thm1a,
        ),
        Workload(
            "prop1-sd",
            ("verify-prop1", "--rule", "sd"),
            4,
            (2, 1, 1),
            expect_prop1_holds,
        ),
        Workload(
            "expost-rsd-pool",
            ("check-rule", "--rule", "rsd", "--axiom", "ex-post-pareto"),
            5,
            (2, 2, 2),
            expect_pass,
            workers=2,
        ),
        Workload(
            "cex-lottery",
            (
                "search-cex", "--rule-space", "lottery",
                "--require", "prob-monotonic",
                "--require", "ex-post-non-wasteful",
                "--require", "ex-post-pairwise",
                "--violate", "ex-post-pareto",
                "--budget", "300",
            ),
            4,
            (2, 1, 1),
            expect_exhausted,
            workers=None,
        ),
    )
}


def child_env() -> dict:
    """The caller's environment with this checkout's sources and no size cap."""
    env = {k: v for k, v in os.environ.items() if k not in ("AXIOMLAB_MAX_PROFILES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Process:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], directory: Path) -> Process:
    """Run ``python3 <args>`` to completion in its own process group.

    CPU time and peak memory come from the child's resource usage, which
    includes the pool workers it reaped (as ``RUSAGE_CHILDREN`` would).
    """
    out_path, err_path = directory / "stdout", directory / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *args],
            child_env(),
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
            setpgroup=0,
        )
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    return Process(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        out_path.read_text(),
        err_path.read_text(),
    )


@dataclass
class Sample:
    process: Process
    report: dict | None
    problem: str | None

    @property
    def inner(self) -> float:
        """The CLI's own ``timing.wall_time_s``; 0 when the report has none."""
        return inner_wall(self.report or {})

    @property
    def setup(self) -> float:
        """Process wall time outside the CLI's own ``timing.wall_time_s``."""
        return self.process.wall - self.inner


def inner_wall(report: dict) -> float:
    return report.get("timing", {}).get("wall_time_s", 0.0)


def check(w: Workload, argv: list[str], code: int, report: dict, stderr: str) -> str | None:
    """Test a CLI report against the workload's expectation."""
    try:
        return w.expect(code, report["result"], w.domain, argv)
    except (KeyError, TypeError) as exc:
        tail = stderr.strip().splitlines()[-1:] or [f"missing {exc}"]
        return f"exit code {code}, unexpected report: {tail[0]}"


def run_cli(w: Workload, argv: list[str], directory: Path) -> Sample:
    process = spawn(["-m", "axiomlab.cli", *argv], directory)
    try:
        report = json.loads(process.stdout)
    except ValueError:
        tail = process.stderr.strip().splitlines()[-1:] or ["no output"]
        return Sample(process, None, f"exit code {process.code}, no report: {tail[0]}")
    return Sample(process, report, check(w, argv, process.code, report, process.stderr))


def setup_probe(directory: Path) -> Sample:
    """A CLI process whose handler is trivial, so nearly all of it is set-up."""
    process = spawn(["-m", "axiomlab.cli", "gen-instance", "--n", "3", "--k", "3"], directory)
    try:
        report = json.loads(process.stdout)
    except ValueError:
        return Sample(process, None, f"set-up probe: exit code {process.code}, no report")
    return Sample(process, report, None if process.code == 0 else f"set-up probe: exit code {process.code}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Workload, seed: int, seconds: float, directory: Path):
    """Set-up probes, then the command repeated one process at a time, for about ``seconds``."""
    argv = w.argv(seed, directory, w.workers)
    start = time.perf_counter()
    probes = [setup_probe(directory) for _ in range(SETUP_PROBES)]
    runs: list[Sample] = []
    while True:
        runs.append(run_cli(w, argv, directory))
        typical = statistics.median(s.process.wall for s in runs)
        if time.perf_counter() - start + typical > seconds:
            break
    processes = probes + runs
    problems = [s.problem for s in processes if s.problem]
    series = {
        "verdict_s": ("s", [s.process.wall for s in runs]),
        "cpu_s": ("s", [s.process.cpu for s in runs]),
        "setup_s": ("s", [s.setup for s in processes]),
        "peak_rss_mb": ("MB", [s.process.rss_mb for s in runs]),
    }
    metrics = {name: metric(statistics.median(values), unit) for name, (unit, values) in series.items()}
    lines = [
        f"{w.name}: {len(runs)} runs and {len(probes)} set-up probes,"
        f" failed_frac {len(problems)}/{len(processes)}"
    ]
    lines += [
        f"  {name:<12} median {statistics.median(values):.4f} {unit}"
        f"  (n={len(values)}, min {min(values):.4f}, max {max(values):.4f})"
        for name, (unit, values) in series.items()
    ]
    return len(processes), problems, metrics, lines


def traced(w: Workload, seed: int, directory: Path):
    """Per-layer metrics: an untraced run, then the same command under the tracer."""
    argv = w.argv(seed, directory, None if w.workers is None else 1)
    problems: list[str] = []
    imports = [spawn(["-c", "import axiomlab.cli"], directory) for _ in range(IMPORT_SAMPLES)]
    problems += [f"import failed: {p.stderr.strip()[-200:]}" for p in imports if p.code != 0]
    base = run_cli(w, argv, directory)
    samples = [base]
    speedup = cpu_ratio = 1.0  # the pool is never started at one worker
    if w.workers is not None and w.workers > 1:
        pooled = run_cli(w, w.argv(seed, directory, w.workers), directory)
        samples.append(pooled)
        if base.inner and pooled.inner:
            speedup = base.inner / pooled.inner
            cpu_ratio = pooled.process.cpu / base.process.cpu
    problems += [s.problem for s in samples if s.problem]

    process = spawn([str(TRACER), *argv], directory)
    try:
        trace = json.loads(process.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        tail = process.stderr.strip().splitlines()[-1:] or ["no output"]
        raise SystemExit(f"{w.name}: the tracer failed: {tail[0]}")
    report = trace["report"]
    problem = check(w, argv, trace["exit"], report, process.stderr)
    traced_problems = [problem] if problem else []
    if base.report and report.get("result") != base.report.get("result"):
        traced_problems.append("the traced report differs from the untraced one")
    self_sum = sum(trace["self_s"].values())
    if not math.isclose(self_sum, trace["wall_s"], rel_tol=1e-9):
        traced_problems.append(f"self times sum to {self_sum} s, traced wall is {trace['wall_s']} s")
    if traced_problems:
        problems.append("traced run: " + "; ".join(traced_problems))

    calls = trace["calls"]

    def count(key: str) -> int:
        return calls.get(key, 0)

    tests = count("preferences.is_monotonic_transformation")
    evaluations = count("rules.evaluate") + count("rules.evaluate_lottery")
    checks = count("axioms.check_axiom")
    self_s = trace["self_s"]
    overhead = inner_wall(report) / base.inner if base.inner else 0.0
    metrics = {
        "preferences.monotonic_tests": metric(tests, "count"),
        "preferences.monotonic_hit_ratio": metric(
            count("preferences.is_monotonic_transformation:true") / tests if tests else 0.0, "ratio"
        ),
        "preferences.self_s": metric(self_s["preferences"], "s"),
        "rules.evaluations": metric(evaluations, "count"),
        "rules.sd_runs": metric(count("rules.serial_dictatorship:all"), "count"),
        "rules.lotteries_built": metric(count("rules.Lottery"), "count"),
        "rules.self_s": metric(self_s["rules"], "s"),
        "matchings.predicate_calls": metric(
            sum(v for k, v in calls.items() if k.startswith("matchings.") and ":" not in k), "count"
        ),
        "matchings.dominance_tests": metric(count("matchings.pareto_dominates:all"), "count"),
        "matchings.self_s": metric(self_s["matchings"], "s"),
        "model.matching_enumerations": metric(count("model.enumerate_matchings"), "count"),
        "model.self_s": metric(self_s["model"], "s"),
        "axioms.checks": metric(checks, "count"),
        "axioms.fail_verdicts": metric(trace["fail_verdicts"], "count"),
        "axioms.scan_depth": metric(
            trace["profiles_checked"] / (checks * w.domain) if checks else 0.0, "ratio"
        ),
        "axioms.self_s": metric(self_s["axioms"], "s"),
        "theorems.table_builds": metric(evaluations / w.domain, "count"),
        "theorems.self_s": metric(self_s["theorems"], "s"),
        "cli.self_s": metric(self_s["cli"], "s"),
        "cli.import_s": metric(statistics.median(p.wall for p in imports), "s"),
        "pool.speedup": metric(speedup, "x"),
        "pool.cpu_ratio": metric(cpu_ratio, "x"),
        "trace.wall_s": metric(trace["wall_s"], "s"),
        "trace.overhead": metric(overhead, "x"),
    }
    lines = [
        f"{w.name}: traced wall {trace['wall_s']:.4f} s = sum of self times {self_sum:.4f} s;"
        f" trace.overhead {metrics['trace.overhead']['value']:.3f}x"
    ]
    lines += [f"  {name:<32} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    attempted = len(samples) + 1 + len(imports)
    return attempted, problems, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "axiomlab" / "cli.py").is_file():
        print(f"no axiomlab sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, problems, metrics = 0, [], {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        for name in names:
            w = WORKLOADS[name]
            if args.trace:
                n, found, values, lines = traced(w, args.seed, Path(tmp))
            else:
                n, found, values, lines = end_to_end(w, args.seed, args.seconds, Path(tmp))
            print("\n".join(lines))
            attempted += n
            problems += [f"{name}: {p}" for p in found]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in values.items()})
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
