"""Checks of the benchmark itself, on tiny n=3 versions of its workloads.

    python3 -m pytest perfbench/test_bench.py -q

The repository's own suite does not collect this file.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def tiny(name: str, **changes) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], n=3, **changes)


def with_budget(command: tuple[str, ...], budget: int) -> tuple[str, ...]:
    at = command.index("--budget") + 1
    return command[:at] + (str(budget),) + command[at + 1 :]


TINY = {
    "thm1-rsd-slack": tiny("thm1-rsd-slack", capacities=(2, 1, 1)),
    "prop1-sd": tiny("prop1-sd", capacities=(1, 1, 1)),
    "expost-rsd-pool": tiny("expost-rsd-pool", capacities=(2, 1, 1)),
    "cex-lottery": tiny(
        "cex-lottery",
        capacities=(1, 1, 1),
        command=with_budget(run.WORKLOADS["cex-lottery"].command, 4),
    ),
}

#: The seed also seeds the counterexample search, so it draws other candidate
#: rules; how far each early-failing scan gets before its first violation then
#: differs, while the number of candidates, checks and tables does not.
SEED_DEPENDENT = {
    "cex-lottery": {
        "preferences.monotonic_tests",
        "preferences.monotonic_hit_ratio",
        "matchings.predicate_calls",
        "matchings.dominance_tests",
        "axioms.scan_depth",
    },
}


def counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")}


def test_tiny_workloads_cover_every_workload():
    assert TINY.keys() == run.WORKLOADS.keys()


@pytest.mark.parametrize("name", list(TINY))
def test_traced_counts_repeat_and_survive_relabeling(name, tmp_path):
    w = TINY[name]
    runs = [run.traced(w, seed, tmp_path) for seed in (1, 1, 2)]
    for _, problems, _, _ in runs:
        assert problems == []
    first, again, other_seed = (counts(metrics) for _, _, metrics, _ in runs)
    assert first == again
    invariant = set(first) - SEED_DEPENDENT.get(name, set())
    assert {k: first[k] for k in invariant} == {k: other_seed[k] for k in invariant}


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_run_is_checked_and_hermetic(name, tmp_path, monkeypatch):
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "1")
    attempted, problems, metrics, _ = run.end_to_end(TINY[name], 3, 0, tmp_path)
    assert attempted == 1 + run.SETUP_PROBES and problems == []
    assert set(metrics) == {"verdict_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_theory_gate_rejects_a_wrong_verdict(tmp_path):
    w = TINY["thm1-rsd-slack"]
    argv = w.argv(1, tmp_path, 1)
    sample = run.run_cli(w, argv, tmp_path)
    assert sample.problem is None
    result = dict(sample.report["result"], conclusion_verified=False)
    assert w.expect(0, result, w.domain, argv) == "conclusion not verified"


def test_error_report_counts_as_failed(tmp_path):
    w = dataclasses.replace(TINY["prop1-sd"], command=("verify-prop1", "--rule", "rsd"))
    _, problems, metrics, _ = run.end_to_end(w, 1, 0, tmp_path)
    assert problems == ["exit code 2, unexpected report: missing 'result'"]
    assert metrics["setup_s"]["value"] > 0


def test_fail_witness_must_replay(tmp_path):
    w = dataclasses.replace(
        TINY["prop1-sd"],
        command=("check-rule", "--rule", "sd", "--axiom", "equal-treatment"),
        expect=run.expect_fail_replays,
    )
    argv = w.argv(5, tmp_path, 1)
    sample = run.run_cli(w, argv, tmp_path)
    assert sample.process.code == 1 and sample.problem is None
    result = sample.report["result"]
    forged = dict(result, witness=dict(result["witness"], swapped=result["witness"]["matching"]))
    assert run.expect_fail_replays(1, forged, w.domain, argv) == "the fail witness does not replay"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "prop1-sd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
