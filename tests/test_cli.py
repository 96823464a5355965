"""End-to-end command-line behavior: formats, exit codes, reproducibility."""

import io
import itertools
import json
import os
import subprocess
import sys

import pytest

from axiomlab.cli import run

INSTANCE_3CYCLE = {
    "n": 3,
    "objects": [
        {"name": "a", "capacity": 1},
        {"name": "b", "capacity": 1},
        {"name": "c", "capacity": 1},
    ],
    "null_object": None,
    "domain": "general",
}
PROFILE_3CYCLE = [["b", "a", "c"], ["c", "b", "a"], ["a", "c", "b"]]
MATCHING_3CYCLE = ["a", "b", "c"]

NULL_TOY_INSTANCE = {
    "n": 4,
    "objects": [
        {"name": "null", "capacity": 1},
        {"name": "x", "capacity": 1},
        {"name": "y", "capacity": 1},
        {"name": "z", "capacity": 1},
    ],
    "null_object": "null",
    "domain": "null_bottom",
}
NULL_TOY_PROFILE = [
    ["y", "x", "z", "null"],
    ["z", "y", "x", "null"],
    ["x", "z", "y", "null"],
    ["x", "y", "z", "null"],
]
NULL_TOY_MATCHING = ["x", "y", "z", "null"]


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def invoke(capsys, *argv):
    code = run(list(argv))
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_gen_instance_is_reproducible(capsys):
    code1, first = invoke(capsys, "gen-instance", "--n", "3", "--k", "3", "--seed", "5")
    code2, second = invoke(capsys, "gen-instance", "--n", "3", "--k", "3", "--seed", "5")
    assert code1 == code2 == 0
    assert first["result"] == second["result"]
    _, third = invoke(capsys, "gen-instance", "--n", "3", "--k", "3", "--seed", "6")
    assert third["result"] != first["result"]


def test_gen_instance_capacity_styles(capsys):
    _, tight = invoke(
        capsys, "gen-instance", "--n", "4", "--k", "3", "--seed", "1",
        "--capacity-style", "sum-equals-n",
    )
    caps = [o["capacity"] for o in tight["result"]["instance"]["objects"]]
    assert sum(caps) == 4
    _, slack = invoke(
        capsys, "gen-instance", "--n", "4", "--k", "3", "--seed", "1",
        "--capacity-style", "slack",
    )
    caps = [o["capacity"] for o in slack["result"]["instance"]["objects"]]
    assert sum(caps) > 4


def test_gen_instance_output_file_loads_as_instance_and_profile(capsys, tmp_path):
    combined = str(tmp_path / "combined.json")
    code, generated = invoke(
        capsys, "gen-instance", "--n", "3", "--k", "3", "--seed", "7", "--out", combined
    )
    assert code == 0
    code, payload = invoke(capsys, "rsd", "--instance", combined, "--profile", combined)
    assert code == 0
    matchings = [entry["matching"] for entry in payload["result"]["lottery"]]
    names = [obj["name"] for obj in generated["result"]["instance"]["objects"]]
    assert matchings and all(set(m) <= set(names) for m in matchings)


def test_rsd_command_exact_weights(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", [["a", "b", "c"], ["a", "b", "c"], ["b", "a", "c"]])
    code, payload = invoke(capsys, "rsd", "--instance", inst, "--profile", prof)
    assert code == 0
    lottery = payload["result"]["lottery"]
    weights = {tuple(e["matching"]): e["weight"] for e in lottery}
    assert weights[("a", "b", "c")] == "1/6"
    assert weights[("a", "c", "b")] == "1/3"
    assert sum(int(w.split("/")[0]) / int(w.split("/")[1]) for w in weights.values()) == 1.0


def test_sd_and_ttc_commands(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", PROFILE_3CYCLE)
    code, payload = invoke(capsys, "sd", "--instance", inst, "--profile", prof, "--order", "2,0,1")
    assert code == 0 and payload["result"]["matching"] == ["b", "c", "a"]
    code, payload = invoke(capsys, "ttc", "--instance", inst, "--profile", prof)
    assert code == 0 and payload["result"]["matching"] == ["b", "c", "a"]


def test_check_matching_pass_and_fail(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", PROFILE_3CYCLE)
    mat = files("m.json", MATCHING_3CYCLE)
    code, payload = invoke(
        capsys, "check-matching", "--instance", inst, "--profile", prof,
        "--matching", mat, "--axiom", "pairwise",
    )
    assert code == 0 and payload["result"]["verdict"] == "pass"
    code, payload = invoke(
        capsys, "check-matching", "--instance", inst, "--profile", prof,
        "--matching", mat, "--axiom", "pareto",
    )
    assert code == 1
    witness = payload["result"]["witness"]
    assert witness["kind"] == "cycle"
    assert witness["agents"] == [0, 1, 2]
    assert witness["objects"] == ["a", "b", "c"]


def test_check_matching_swap_witness(capsys, files):
    """Two agents holding each other's favorite: exit 1 with a swap witness."""
    inst = files(
        "i2.json",
        {
            "n": 2,
            "objects": [{"name": "x", "capacity": 1}, {"name": "y", "capacity": 1}],
            "null_object": None,
            "domain": "general",
        },
    )
    prof = files("p2.json", [["y", "x"], ["x", "y"]])
    mat = files("m2.json", ["x", "y"])
    code, payload = invoke(
        capsys, "check-matching", "--instance", inst, "--profile", prof,
        "--matching", mat, "--axiom", "pairwise",
    )
    assert code == 1
    assert payload["result"]["witness"] == {
        "kind": "swap",
        "agents": [0, 1],
        "objects": ["x", "y"],
    }


def test_check_rule_exit_codes(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    code, payload = invoke(
        capsys, "check-rule", "--instance", inst, "--rule", "sd",
        "--axiom", "strategy-proof", "--workers", "1",
    )
    assert code == 0 and payload["result"]["verdict"] == "pass"
    assert payload["result"]["profiles_checked"] == 216
    code, payload = invoke(
        capsys, "check-rule", "--instance", inst, "--rule", "sd",
        "--axiom", "equal-treatment", "--workers", "1",
    )
    assert code == 1 and payload["result"]["witness"] is not None


def test_check_rule_workers_agree(capsys, files, tmp_path):
    """Every axiom gives the same report on one and on two workers."""
    from axiomlab import Instance
    from axiomlab.cli import AXIOM_NAMES
    from axiomlab.jsonio import rule_to_dict
    from axiomlab.rules import random_tabulated_rule

    inst = Instance(3, (1, 1, 1))
    rule = files("rule.json", rule_to_dict(inst, random_tabulated_rule(inst, 11)))
    endow = files("e.json", ["o2", "o3", "o1"])
    for axiom in sorted(AXIOM_NAMES):
        results = []
        for workers in ("1", "2"):
            code, payload = invoke(
                capsys, "check-rule", "--rule", rule, "--axiom", axiom,
                "--endowment", endow, "--workers", workers,
            )
            results.append((code, payload["result"]))
        assert results[0] == results[1], axiom


def test_maskin_witness_names_the_new_outcome(capsys, files):
    """``new_outcome`` is the rule's matching at ``transformed``, printed by name."""
    from axiomlab import Instance
    from axiomlab.jsonio import rule_to_dict
    from axiomlab.rules import random_tabulated_rule

    inst = Instance(3, (1, 1, 1))
    table = rule_to_dict(inst, random_tabulated_rule(inst, 11))
    rule = files("rule.json", table)
    outcome_at = {json.dumps(e["profile"]): e["matching"] for e in table["entries"]}
    code, payload = invoke(
        capsys, "check-rule", "--rule", rule, "--axiom", "maskin-monotonic", "--workers", "1"
    )
    witness = payload["result"]["witness"]
    assert code == 1 and witness["kind"] == "monotonicity"
    assert witness["matching"] == outcome_at[json.dumps(witness["profile"])]
    assert witness["new_outcome"] == outcome_at[json.dumps(witness["transformed"])]


def test_verify_commands(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    code, payload = invoke(
        capsys, "verify-thm1", "--instance", inst, "--rule", "rsd", "--workers", "1"
    )
    assert code == 0
    assert payload["result"]["theorem"] == "Thm1b"
    assert payload["result"]["conclusion_verified"] is True
    code, payload = invoke(
        capsys, "verify-prop1", "--instance", inst, "--rule", "ttc", "--workers", "1"
    )
    assert code == 0
    assert payload["result"]["details"]["all_hold"] is True


def test_replay_proof_command(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", PROFILE_3CYCLE)
    mat = files("m.json", MATCHING_3CYCLE)
    code, payload = invoke(
        capsys, "replay-proof", "--instance", inst, "--profile", prof, "--matching", mat
    )
    assert code == 0
    assert payload["result"]["passed"] is True
    assert payload["result"]["survivors"] == [["b", "c", "a"]]


def test_replay_appendix_command(capsys, files):
    inst = files("i.json", NULL_TOY_INSTANCE)
    prof = files("p.json", NULL_TOY_PROFILE)
    mat = files("m.json", NULL_TOY_MATCHING)
    code, payload = invoke(
        capsys, "replay-appendix", "--instance", inst, "--profile", prof, "--matching", mat
    )
    assert code == 0
    assert payload["result"]["passed"] is True
    assert payload["result"]["blocking_swap"]["cycle_positions"] == [1, 3]


def test_search_cex_writes_reloadable_rule(capsys, files, tmp_path):
    inst = files("i.json", INSTANCE_3CYCLE)
    rule_out = str(tmp_path / "rule.json")
    code, payload = invoke(
        capsys, "search-cex", "--instance", inst,
        "--require", "ex-post-pairwise", "--require", "ex-post-non-wasteful",
        "--violate", "ex-post-pareto", "--budget", "5", "--rule-out", rule_out,
    )
    # a found counterexample is a fail-with-witness for the violated axiom
    assert code == 1 and payload["result"]["status"] == "found"
    from axiomlab.axioms import Axiom, check_axiom
    from axiomlab.jsonio import load_rule_file

    loaded_inst, _, rule = load_rule_file(rule_out)
    assert not check_axiom(loaded_inst, rule, Axiom.EX_POST_PARETO).passed
    assert check_axiom(loaded_inst, rule, Axiom.EX_POST_PAIRWISE).passed
    # the persisted table also drives check-rule directly
    code, payload = invoke(
        capsys, "check-rule", "--rule", rule_out, "--axiom", "ex-post-pareto",
        "--workers", "1",
    )
    assert code == 1 and payload["result"]["witness"]["kind"] == "cycle"


def test_check_rule_individual_rationality(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    code, payload = invoke(
        capsys, "check-rule", "--instance", inst, "--rule", "ttc",
        "--axiom", "individual-rationality", "--workers", "1",
    )
    assert code == 0 and payload["result"]["verdict"] == "pass"
    endow = files("e.json", ["b", "c", "a"])
    code, payload = invoke(
        capsys, "check-rule", "--instance", inst, "--rule", "sd",
        "--axiom", "individual-rationality", "--endowment", endow, "--workers", "1",
    )
    assert code == 1
    assert payload["result"]["witness"]["kind"] == "individual_rationality"


def test_coalition_cap_is_a_usage_error(capsys, files):
    """Group strategy-proofness always scans every coalition size, so a cap that
    reduced it to strategy-proofness, and passed the bossy rule, is not an option."""
    from axiomlab import Instance, bossy_flip_rule
    from axiomlab.jsonio import rule_to_dict

    inst = Instance(3, (1, 1, 1))
    rule = files("bossy.json", rule_to_dict(inst, bossy_flip_rule(inst)))
    code = run([
        "check-rule", "--rule", rule,
        "--axiom", "group-strategy-proof", "--max-coalition", "1", "--workers", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --max-coalition" in captured.err
    code, payload = invoke(
        capsys, "check-rule", "--rule", rule,
        "--axiom", "group-strategy-proof", "--workers", "1",
    )
    assert code == 1 and payload["result"]["witness"]["kind"] == "group_manipulation"


def test_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3,\n  "objects": [}')
    code = run(["rsd", "--instance", str(bad), "--profile", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "line 2" in payload["error"]["message"]


def test_enumeration_cap_env_var(capsys, files, monkeypatch):
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "10")
    inst = files("i.json", INSTANCE_3CYCLE)
    code, payload = invoke(
        capsys, "check-rule", "--instance", inst, "--rule", "sd",
        "--axiom", "strategy-proof", "--workers", "1",
    )
    assert code == 2
    assert payload["error"]["type"] == "SizeOverflow"


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2


def test_console_entry_point(tmp_path):
    """The installed module runs as a subprocess and emits valid JSON."""
    out = subprocess.run(
        [sys.executable, "-m", "axiomlab.cli", "gen-instance", "--n", "2", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["result"]["instance"]["n"] == 2


def _error(capsys, *argv):
    code, payload = invoke(capsys, *argv)
    assert code == 2 and "result" not in payload
    return payload["error"]


def test_infeasible_matching_is_a_format_error(capsys, files):
    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", PROFILE_3CYCLE)
    mat = files("m.json", ["a", "a", "a"])
    error = _error(
        capsys, "check-matching", "--instance", inst, "--profile", prof,
        "--matching", mat, "--axiom", "pairwise",
    )
    assert error["type"] == "FormatError"


def test_duplicate_rule_table_entry_is_a_format_error(capsys, files):
    from axiomlab import Instance
    from axiomlab.jsonio import rule_to_dict
    from axiomlab.rules import random_tabulated_rule

    inst = Instance(3, (1, 1, 1))
    table = rule_to_dict(inst, random_tabulated_rule(inst, 11))
    duplicate = dict(table["entries"][0], matching=table["entries"][1]["matching"])
    table["entries"].append(duplicate)
    rule = files("rule.json", table)
    error = _error(capsys, "check-rule", "--rule", rule, "--axiom", "strategy-proof")
    assert error["type"] == "FormatError" and "duplicate" in error["message"]


def test_missing_input_file_is_a_format_error(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    error = _error(capsys, "rsd", "--instance", missing, "--profile", missing)
    assert error["type"] == "FormatError"


def test_object_without_capacity_is_a_format_error(capsys, files):
    objects = [{"name": "a"}, {"name": "b", "capacity": 1}]
    inst = files("i.json", dict(INSTANCE_3CYCLE, n=2, objects=objects))
    error = _error(capsys, "rsd", "--instance", inst, "--profile", inst)
    assert error["type"] == "FormatError" and "capacity" in error["message"]


def test_malformed_lottery_table_is_a_format_error(capsys, files):
    entries = [
        {"profile": [["x", "y"], p], "lottery": [{"matching": ["x", "y"], "weight": "1/2"}]}
        for p in (["x", "y"], ["y", "x"])
    ]
    instance = {"n": 2, "objects": [{"name": "x", "capacity": 1}, {"name": "y", "capacity": 1}]}
    rule = files("rule.json", {"kind": "lottery", "instance": instance, "entries": entries})
    error = _error(capsys, "check-rule", "--rule", rule, "--axiom", "equal-treatment")
    assert error["type"] == "FormatError" and "lottery" in error["message"]


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_worker_count_below_one_is_a_bounds_error(capsys, files, workers):
    inst = files("i.json", INSTANCE_3CYCLE)
    error = _error(
        capsys, "check-rule", "--instance", inst, "--rule", "sd",
        "--axiom", "strategy-proof", "--workers", workers,
    )
    assert error["type"] == "BoundsError" and "worker" in error["message"]


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_search_budget_below_one_is_a_bounds_error(capsys, files, budget):
    inst = files("i.json", INSTANCE_3CYCLE)
    error = _error(
        capsys, "search-cex", "--instance", inst, "--violate", "ex-post-pareto",
        "--budget", budget,
    )
    assert error["type"] == "BoundsError" and "budget" in error["message"]


@pytest.mark.parametrize("command", ["sd", "check-rule", "verify-prop1"])
def test_malformed_order_is_a_format_error(capsys, files, command):
    """The order is parsed in one place, and a malformed one is a schema error, not a crash."""
    inst = files("i.json", INSTANCE_3CYCLE)
    if command == "sd":
        argv = ["sd", "--instance", inst, "--profile", files("p.json", PROFILE_3CYCLE)]
    else:
        argv = [command, "--instance", inst, "--rule", "sd", "--workers", "1"]
        if command == "check-rule":
            argv += ["--axiom", "strategy-proof"]
    code = run(argv + ["--order", "a,b"])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "FormatError" and "--order" in error["message"]
    assert captured.err == ""


def test_verify_thm1_passes_a_constant_rule(capsys, files):
    """Neither ex-post property holds for a constant rule, so the two agree."""
    profiles = [
        [list(p) for p in profile]
        for profile in itertools.product(itertools.permutations("abc"), repeat=3)
    ]
    entries = [{"profile": p, "matching": ["a", "b", "c"]} for p in profiles]
    rule = files(
        "const.json", {"kind": "deterministic", "instance": INSTANCE_3CYCLE, "entries": entries}
    )
    code, payload = invoke(capsys, "verify-thm1", "--rule", rule, "--workers", "1")
    assert code == 0
    assert payload["result"]["conclusion_verified"] is True
    assert payload["result"]["witness"] is None


def test_unexpected_error_exits_2_not_1(capsys, monkeypatch):
    """Exit code 1 means a fail with a witness, so even an internal error exits 2."""
    import axiomlab.cli as cli

    def broken(args):
        raise RuntimeError("internal")

    monkeypatch.setitem(cli._HANDLERS, "gen-instance", broken)
    error = _error(capsys, "gen-instance", "--n", "2", "--k", "2")
    assert error == {"type": "RuntimeError", "message": "internal"}


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_without_a_traceback(capsys, files, monkeypatch):
    """Exit code 1 means a witnessed fail, so a fail whose report cannot be
    written exits 2, like any other error."""
    inst = files("i.json", INSTANCE_3CYCLE)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = run([
        "check-rule", "--instance", inst, "--rule", "sd",
        "--axiom", "equal-treatment", "--workers", "1",
    ])
    assert code == 2
    assert capsys.readouterr().err == ""


#: One invocation of every command, each of which writes its report on stdout.
#: ``files`` writes the instance, profile and matching it names.
EVERY_COMMAND = {
    "gen-instance": lambda f: ["gen-instance", "--n", "2", "--k", "2"],
    "rsd": lambda f: ["rsd", "--instance", f("i"), "--profile", f("p")],
    "sd": lambda f: ["sd", "--instance", f("i"), "--profile", f("p")],
    "ttc": lambda f: ["ttc", "--instance", f("i"), "--profile", f("p")],
    "check-matching": lambda f: [
        "check-matching", "--instance", f("i"), "--profile", f("p"),
        "--matching", f("m"), "--axiom", "pareto",
    ],
    "check-rule": lambda f: [
        "check-rule", "--instance", f("i"), "--rule", "sd",
        "--axiom", "group-strategy-proof", "--workers", "1",
    ],
    "verify-thm1": lambda f: ["verify-thm1", "--instance", f("i"), "--rule", "sd", "--workers", "1"],
    "verify-prop1": lambda f: ["verify-prop1", "--instance", f("i"), "--rule", "ttc", "--workers", "1"],
    "replay-proof": lambda f: [
        "replay-proof", "--instance", f("i"), "--profile", f("p"), "--matching", f("m"),
    ],
    "replay-appendix": lambda f: [
        "replay-appendix", "--instance", f("null-i"), "--profile", f("null-p"),
        "--matching", f("null-m"),
    ],
    "search-cex": lambda f: [
        "search-cex", "--instance", f("i"), "--require", "ex-post-pairwise",
        "--violate", "ex-post-pareto", "--budget", "5",
    ],
    "error-report": lambda f: ["check-rule", "--instance", f("missing"), "--rule", "sd",
                               "--axiom", "strategy-proof", "--workers", "1"],
}


@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_every_command_exits_2_on_a_closed_stdout(capsys, files, monkeypatch, tmp_path, command):
    """Every report, error reports included, is written in one guarded place."""
    payloads = {
        "i": INSTANCE_3CYCLE, "p": PROFILE_3CYCLE, "m": MATCHING_3CYCLE,
        "null-i": NULL_TOY_INSTANCE, "null-p": NULL_TOY_PROFILE, "null-m": NULL_TOY_MATCHING,
    }

    def path(name):
        if name in payloads:
            return files(f"{name}.json", payloads[name])
        return str(tmp_path / f"{name}.json")

    argv = EVERY_COMMAND[command](path)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run(argv) == 2
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_2():
    """The process exits 2 too.  With stdout buffered, as it is on a pipe, the
    unwritten report stays in the buffer, and the interpreter's last flush of
    it must not fail again, which would exit 120."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        out = subprocess.run(
            [sys.executable, "-m", "axiomlab.cli", "gen-instance", "--n", "2", "--k", "2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert out.stderr == ""
