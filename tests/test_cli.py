"""End-to-end command-line behavior: formats, exit codes, reproducibility."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

import axiomlab
from axiomlab.cli import AXIOM_NAMES, run

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
    from helpers import random_tabulated_rule

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
    from helpers import random_tabulated_rule

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


def test_stats_name_each_checks_scan_outside_the_result(capsys, files):
    """RSD is scanned on the 10 profiles that come first in their orbits under agent
    and object relabellings, SD's lotteries on all 216 profiles and its matchings
    on the 36 that come first in their object orbits; other commands print no stats.
    RSD is evaluated at those 10 heads only, by the first check that reads
    them, and SD at every profile: by its lottery check, and by the neutrality
    pass of the first Prop1 check.  Only incentive checks build menus, and
    Prop1's group check, which runs first, builds all its checks read: 36
    blocks for agent 0 alone, 6 each for agents 1 and 2, for {0, 1} and for
    {0, 2}, and 1 each for {1, 2} and all three, over 6, 36 or 216 joint
    reports each."""
    inst = files("i.json", INSTANCE_3CYCLE)
    none = {"menus_built": 0, "menu_reports": 0}
    orbits = {"scan": "agent_object_orbits", "scan_size": 10, "evaluations": 10, **none}
    profiles = {"scan": "profiles", "scan_size": 216, "evaluations": 216, **none}
    for rule, stats in (("rsd", orbits), ("sd", profiles)):
        code, payload = invoke(
            capsys, "check-rule", "--instance", inst, "--rule", rule,
            "--axiom", "ex-post-pareto", "--workers", "1",
        )
        assert code == 0 and list(payload) == ["command", "result", "stats", "timing"]
        assert payload["stats"] == stats
    code, payload = invoke(
        capsys, "verify-thm1", "--instance", inst, "--rule", "rsd", "--workers", "2"
    )
    read = {**orbits, "evaluations": 0}
    assert code == 0 and payload["stats"] == {
        "prob_monotonic": orbits, "ex_post_pairwise": read, "ex_post_pareto": read
    }
    code, payload = invoke(
        capsys, "verify-prop1", "--instance", inst, "--rule", "sd", "--workers", "1"
    )
    axioms = [h["axiom"] for h in payload["result"]["hypotheses_verified"]]
    objects = {"scan": "object_orbits", "scan_size": 36, "evaluations": 0, **none}
    group = {**objects, "evaluations": 216, "menus_built": 62, "menu_reports": 972}
    assert code == 0 and axioms[0] == "group_strategy_proof"
    assert payload["stats"] == {**dict.fromkeys(axioms, objects), axioms[0]: group}
    code, payload = invoke(capsys, "gen-instance", "--n", "2", "--k", "2")
    assert code == 0 and list(payload) == ["command", "result", "timing"]


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


#: The Thm1b query on the 3-cycle instance: probabilistic monotonicity rejects
#: the greedy candidate and four drawn ones.
THM1B_SEARCH = [
    "--rule-space", "lottery", "--require", "prob-monotonic", "--require",
    "ex-post-non-wasteful", "--require", "ex-post-pairwise", "--violate", "ex-post-pareto",
]


def test_search_cex_reports_its_work_outside_the_result(capsys, files):
    """The search's counts go under "stats" and its two phases under "timing":
    the 36 runs of six profiles need 21 patterns, and the checks read 30 of
    the 1,080 entries."""
    inst = files("i.json", INSTANCE_3CYCLE)
    code, payload = invoke(capsys, "search-cex", "--instance", inst, *THM1B_SEARCH, "--budget", "5")
    assert code == 0 and list(payload) == ["command", "result", "stats", "timing"]
    assert payload["result"]["candidates_tried"] == 5
    assert payload["stats"] == {
        "candidates_tried": 5, "words_drawn": 3095, "block_patterns": 21, "entries_built": 30,
    }
    assert list(payload["timing"]) == ["wall_time_s", "prescreen_s", "candidates_s"]


@pytest.mark.parametrize("flag", ["--out", "--rule-out"])
def test_an_unwritable_output_path_is_a_format_error(capsys, files, tmp_path, monkeypatch, flag):
    """The report and the rule file alike, in a missing directory or a
    directory itself: exit 2 with an error report and no traceback, before
    the search starts.  The search would try five candidates and find no
    rule, so it would never write the rule file."""
    import axiomlab.cli as cli

    calls, search = [], cli.search_counterexample

    def recorded(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "search_counterexample", recorded)
    inst = files("i.json", INSTANCE_3CYCLE)
    for target in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
        code = run(["search-cex", "--instance", inst, *THM1B_SEARCH, "--budget", "5", flag, target])
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert code == 2 and captured.err == ""
        assert error["type"] == "FormatError"
        assert error["message"].startswith(f"cannot write {target}")
    assert calls == []


def test_an_output_path_is_tried_without_writing_it(capsys, files, tmp_path):
    """An exhausted search writes no rule: a new --rule-out path stays
    absent, and an existing file keeps its bytes."""
    inst = files("i.json", INSTANCE_3CYCLE)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for target in (new, old):
        code, payload = invoke(
            capsys, "search-cex", "--instance", inst, *THM1B_SEARCH, "--budget", "5",
            "--rule-out", str(target),
        )
        assert (code, payload["result"]["status"]) == (0, "budget_exhausted")
    assert not new.exists() and old.read_text() == "kept"


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
    from axiomlab import Instance
    from helpers import bossy_flip_rule
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


@pytest.mark.parametrize(
    "argv",
    [["check-rule", "--axiom", "ex-post-pareto"], ["verify-thm1"]],
    ids=["check-rule", "verify-thm1"],
)
def test_enumeration_cap_holds_on_the_orbit_scans_of_rsd(capsys, files, monkeypatch, argv):
    """RSD is scanned on the sorted profiles that come first in their object
    orbits, 10 of the 216 on this instance, and the cap still counts all 216."""
    monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "10")
    inst = files("i.json", INSTANCE_3CYCLE)
    error = _error(capsys, *argv, "--instance", inst, "--rule", "rsd")
    assert error == {"type": "SizeOverflow", "message": "216 profiles exceed the bound of 10"}


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


def test_importing_the_cli_loads_no_process_pool(files):
    """Neither importing the CLI nor running a check at ``--workers 2`` imports a
    process pool's modules, and each such run reports the ``--workers 1`` bytes."""
    src = os.path.dirname(os.path.dirname(axiomlab.__file__))
    inst = files("i.json", INSTANCE_3CYCLE)
    commands = [
        ["check-rule", "--instance", inst, "--rule", "sd", "--axiom", "strategy-proof"],
        ["verify-thm1", "--instance", inst, "--rule", "rsd"],
    ]
    argvs = [command + ["--workers", workers] for command in commands for workers in "12"]
    code = (
        "import contextlib, io, json, sys, axiomlab.cli\n"
        "def pool():\n"
        "    return sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
        "imported, runs = pool(), []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        exit_code = axiomlab.cli.run(argv)\n"
        "    runs.append([exit_code, json.loads(out.getvalue())['result']])\n"
        "print(json.dumps({'imported': imported, 'runs': runs, 'after': pool()}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["imported"] == report["after"] == []
    runs = report["runs"]
    for one, two in zip(runs[::2], runs[1::2]):
        assert one[0] == 0 and json.dumps(two) == json.dumps(one)


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
    from helpers import random_tabulated_rule

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
    """Sizes are JSON integers: a missing, fractional, boolean or quoted one is a schema error."""
    cases = [({}, 2, "capacity")]
    cases += [({"capacity": bad}, 2, "capacity") for bad in (1.9, 1.0, True, "1")]
    cases += [({"capacity": 1}, bad, "'n'") for bad in (2.0, True, "2")]
    for first, n, key in cases:
        objects = [{"name": "a", **first}, {"name": "b", "capacity": 1}]
        inst = files("i.json", dict(INSTANCE_3CYCLE, n=n, objects=objects))
        error = _error(capsys, "rsd", "--instance", inst, "--profile", inst)
        assert error["type"] == "FormatError" and key in error["message"], (first, n)


def test_object_names_and_references_are_json_strings(capsys, files):
    """A name, or a reference in a profile, matching or rule file, that is not a string is
    rejected, not read as its ``str`` (a null name as an object called "None"); so is a
    ranking given as a string, not read as one name per character."""
    for bad in (None, {"k": 1}, 1, ["a"]):
        objects = [{"name": bad, "capacity": 1}, *INSTANCE_3CYCLE["objects"][1:]]
        inst = files("i.json", dict(INSTANCE_3CYCLE, objects=objects))
        error = _error(capsys, "rsd", "--instance", inst, "--profile", inst)
        assert error["type"] == "FormatError" and "object name" in error["message"], bad

    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", PROFILE_3CYCLE)
    for bad in (None, 0, ["a"]):
        profile = files("bad-p.json", [[bad, "a", "c"], *PROFILE_3CYCLE[1:]])
        error = _error(capsys, "rsd", "--instance", inst, "--profile", profile)
        assert error["type"] == "FormatError" and "object reference" in error["message"], bad
        matching = files("bad-m.json", [bad, "b", "c"])
        error = _error(
            capsys, "check-matching", "--instance", inst, "--profile", prof,
            "--matching", matching, "--axiom", "pairwise",
        )
        assert error["type"] == "FormatError" and "object reference" in error["message"], bad
    profile = files("bad-p.json", ["bac", *PROFILE_3CYCLE[1:]])
    error = _error(capsys, "rsd", "--instance", inst, "--profile", profile)
    assert error["type"] == "FormatError" and "ranking" in error["message"]

    from axiomlab import Instance
    from axiomlab.jsonio import rule_to_dict
    from helpers import random_tabulated_rule

    unit = Instance(3, (1, 1, 1))
    table = rule_to_dict(unit, random_tabulated_rule(unit, 11))
    first = table["entries"][0]
    for key, value in (("matching", [0, 1, 2]), ("profile", [[0, 1, 2]] * 3)):
        entries = [dict(first, **{key: value}), *table["entries"][1:]]
        rule = files("rule.json", dict(table, entries=entries))
        error = _error(capsys, "check-rule", "--rule", rule, "--axiom", "strategy-proof")
        assert error["type"] == "FormatError" and "object reference" in error["message"], key


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



PAIR_INSTANCE = {"n": 2, "objects": [{"name": "x", "capacity": 1}, {"name": "y", "capacity": 1}]}


def _pair_table(outcome, drop=0):
    """A rule table on ``PAIR_INSTANCE`` with ``outcome`` at every profile,
    less its last ``drop`` entries."""
    profiles = list(itertools.product(itertools.permutations("xy"), repeat=2))
    entries = [{"profile": [list(p) for p in profile], **outcome} for profile in profiles]
    kind = "lottery" if "lottery" in outcome else "deterministic"
    return {"kind": kind, "instance": PAIR_INSTANCE, "entries": entries[: len(entries) - drop]}


def _check_sd(instance):
    return lambda f: ["check-rule", "--instance", f("i.json", instance), "--rule", "sd",
                      "--axiom", "strategy-proof"]


def _sd_on(profile, *extra):
    return lambda f: ["sd", "--instance", f("i.json", INSTANCE_3CYCLE),
                      "--profile", f("p.json", profile), *extra]


def _check_table(table, axiom="strategy-proof"):
    return lambda f: ["check-rule", "--rule", f("rule.json", table), "--axiom", axiom]


def _weights(*weights):
    return {"lottery": [{"matching": ["x", "y"], "weight": w} for w in weights]}


#: Input checks, each with the command line (its files written by the
#: ``files`` fixture), the error type it must report and a fragment of the
#: message.
INPUT_CHECKS = {
    "duplicate object names": (
        _check_sd({"n": 2, "objects": [{"name": "a", "capacity": 1}] * 2}),
        "FormatError", "duplicate object names",
    ),
    "unlisted null object": (
        _check_sd(dict(INSTANCE_3CYCLE, null_object="z")), "FormatError", "not a listed object",
    ),
    "null object listed second": (
        _check_sd(dict(INSTANCE_3CYCLE, null_object="b")), "FormatError", "listed first",
    ),
    "unknown domain": (
        _check_sd(dict(INSTANCE_3CYCLE, domain="weird")), "FormatError", "unknown domain",
    ),
    "missing n": (
        _check_sd({"objects": INSTANCE_3CYCLE["objects"]}),
        "FormatError", "needs 'n' and 'objects'",
    ),
    "missing objects": (_check_sd({"n": 3}), "FormatError", "needs 'n' and 'objects'"),
    "negative capacity": (
        _check_sd({"n": 2, "objects": [{"name": "a", "capacity": -1}, {"name": "b", "capacity": 3}]}),
        "InvalidInstance", "non-negative",
    ),
    "non-integer enumeration cap": (
        _check_sd(INSTANCE_3CYCLE), "BoundsError", "AXIOMLAB_MAX_PROFILES must be an integer",
    ),
    "short profile": (_sd_on(PROFILE_3CYCLE[:1]), "FormatError", "rankings for all 3 agents"),
    "short matching": (
        lambda f: ["check-matching", "--instance", f("i.json", INSTANCE_3CYCLE),
                   "--profile", f("p.json", PROFILE_3CYCLE), "--matching", f("m.json", ["a"]),
                   "--axiom", "pareto"],
        "FormatError", "assign all 3 agents",
    ),
    "unknown object name": (
        _sd_on([["a", "b", "z"]] * 3), "FormatError", "unknown object name 'z'",
    ),
    "non-permutation ranking": (
        _sd_on([["a", "a", "c"]] * 3), "DomainViolation", "not a permutation",
    ),
    "sd without an instance": (
        lambda f: ["check-rule", "--rule", "sd", "--axiom", "strategy-proof"],
        "PreconditionViolated", "--rule sd needs --instance",
    ),
    "an order for a rule other than sd": (
        lambda f: ["check-rule", "--instance", f("i.json", INSTANCE_3CYCLE), "--rule", "rsd",
                   "--axiom", "ex-post-pareto", "--order", "9,9,9"],
        "PreconditionViolated", "--order applies to --rule sd only",
    ),
    "an order repeating an agent": (
        _sd_on(PROFILE_3CYCLE, "--order", "0,0"), "PreconditionViolated", "not an order",
    ),
    "gen-instance n above 8": (
        lambda f: ["gen-instance", "--n", "9", "--k", "3"], "BoundsError", "supported ranges",
    ),
    "gen-instance unit k below n": (
        lambda f: ["gen-instance", "--n", "4", "--k", "3"], "BoundsError", "k >= n",
    ),
    "unknown rule kind": (
        _check_table(dict(_pair_table({"matching": ["x", "y"]}), kind="weird")),
        "FormatError", "unknown rule kind",
    ),
    "partial table": (
        _check_table(_pair_table({"matching": ["x", "y"]}, drop=1)),
        "FormatError", "table covers 3 profiles but the domain has 4",
    ),
    "weight 1/0": (
        _check_table(_pair_table(_weights("1/0")), "equal-treatment"),
        "FormatError", "bad rational",
    ),
    "weights short of 1": (
        _check_table(_pair_table(_weights("1/3", "1/3")), "equal-treatment"),
        "FormatError", "sum to the denominator",
    ),
    "instance disagreeing with the rule file": (
        lambda f: [*_check_table(_pair_table({"matching": ["x", "y"]}))(f),
                   "--instance", f("i.json", INSTANCE_3CYCLE)],
        "PreconditionViolated", "disagrees with the rule file",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_an_input_check_exits_2_with_its_error_type(capsys, files, monkeypatch, case):
    argv, error_type, fragment = INPUT_CHECKS[case]
    if case == "non-integer enumeration cap":
        monkeypatch.setenv("AXIOMLAB_MAX_PROFILES", "ten")
    code = run(argv(files))
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (code, error["type"], captured.err) == (2, error_type, "")
    assert fragment in error["message"]


def test_a_lottery_rule_table_round_trips_through_its_file(capsys, tmp_path):
    from axiomlab import Instance, TabulatedLotteryRule, random_serial_dictatorship
    from axiomlab.jsonio import dump_json_file, load_rule_file, rule_to_dict

    inst = Instance(3, (2, 1, 1))
    table = {p: random_serial_dictatorship(inst, p) for p in axiomlab.enumerate_profiles(inst)}
    path = str(tmp_path / "rsd.json")
    dump_json_file(path, rule_to_dict(inst, TabulatedLotteryRule(table)))
    loaded_inst, _, rule = load_rule_file(path)
    assert loaded_inst == inst and isinstance(rule, TabulatedLotteryRule)
    assert rule.table == table
    code, payload = invoke(capsys, "check-rule", "--rule", path, "--axiom", "ex-post-pareto")
    assert (code, payload["stats"]["scan"]) == (0, "agent_object_orbits")


def test_ttc_trades_from_the_endowment_file(capsys, files):
    """Everyone ranks a over b over c, so each agent keeps her endowment."""
    inst = files("i.json", INSTANCE_3CYCLE)
    prof = files("p.json", [["a", "b", "c"]] * 3)
    code, payload = invoke(capsys, "ttc", "--instance", inst, "--profile", prof)
    assert code == 0 and payload["result"]["matching"] == ["a", "b", "c"]
    endowment = files("e.json", ["c", "a", "b"])
    code, payload = invoke(
        capsys, "ttc", "--instance", inst, "--profile", prof, "--endowment", endowment
    )
    assert code == 0
    assert payload["result"] == {"endowment": ["c", "a", "b"], "matching": ["c", "a", "b"]}

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


def _random_table(capacities, seed):
    from axiomlab import Instance
    from axiomlab.jsonio import rule_to_dict
    from helpers import random_tabulated_rule

    inst = Instance(len(capacities), capacities)
    return rule_to_dict(inst, random_tabulated_rule(inst, seed))


def _objects(**capacities):
    return [{"name": name, "capacity": c} for name, c in capacities.items()]


#: The input files the command tables read, by name; a callable builds its payload.
INPUTS = {
    "i": INSTANCE_3CYCLE, "p": PROFILE_3CYCLE, "m": MATCHING_3CYCLE,
    "null-i": NULL_TOY_INSTANCE, "null-p": NULL_TOY_PROFILE, "null-m": NULL_TOY_MATCHING,
    "unit-rule": lambda: _random_table((1, 1, 1), 11),
    "slack-rule": lambda: _random_table((2, 1, 1), 0),
    "endowment": ["o2", "o3", "o1"],
    "pair-i": {"n": 2, "objects": _objects(x=1, y=1)},
    "pair-p": [["y", "x"], ["x", "y"]],
    "pair-m": ["x", "y"],
    "slack-i": {"n": 3, "objects": _objects(a=2, b=1, c=1)},
    "slack-p": [["a", "b", "c"], ["b", "a", "c"], ["a", "c", "b"]],
    "slack-m": ["a", "b", "c"],
    # no agent holds the null object, so the Thm3 replay delegates to Thm1's
    "null3-i": dict(NULL_TOY_INSTANCE, n=3),
    "null3-p": [["y", "x", "z", "null"], ["x", "y", "z", "null"], ["z", "x", "y", "null"]],
    "null3-m": ["x", "y", "z"],
}


@pytest.fixture
def path(files, tmp_path):
    """Write the input of that name and return its path; an unknown name is a missing file."""

    def write(name):
        if name not in INPUTS:
            return str(tmp_path / f"{name}.json")
        payload = INPUTS[name]
        return files(f"{name}.json", payload() if callable(payload) else payload)

    return write


@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_every_command_exits_2_on_a_closed_stdout(capsys, path, monkeypatch, command):
    """Every report, error reports included, is written in one guarded place."""
    argv = EVERY_COMMAND[command](path)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run(argv) == 2
    assert capsys.readouterr().err == ""


def _check_rule_fail(axiom):
    if axiom == "individual-rationality":
        return lambda f: ["check-rule", "--rule", f("unit-rule"), "--axiom", axiom,
                          "--endowment", f("endowment"), "--workers", "1"]
    return lambda f: ["check-rule", "--rule", f("slack-rule"), "--axiom", axiom, "--workers", "1"]


def _check_matching(name, axiom):
    return lambda f: ["check-matching", "--instance", f(f"{name}-i"), "--profile", f(f"{name}-p"),
                      "--matching", f(f"{name}-m"), "--axiom", axiom]


#: Every command of ``EVERY_COMMAND`` that prints a result, a fail of each
#: axiom and of each matching witness kind, and both kinds of Thm3 replay.
DIGESTED = {
    **{name: argv for name, argv in EVERY_COMMAND.items() if name != "error-report"},
    **{f"check-rule {axiom}": _check_rule_fail(axiom) for axiom in sorted(AXIOM_NAMES)},
    "check-matching cycle": _check_matching("null", "pareto"),
    "check-matching swap": _check_matching("pair", "pairwise"),
    "check-matching waste": _check_matching("slack", "non-wasteful"),
    "replay-appendix degenerate": lambda f: [
        "replay-appendix", "--instance", f("null3-i"), "--profile", f("null3-p"),
        "--matching", f("null3-m"),
    ],
}

#: Exit code and sha256 of the ``result`` JSON of each ``DIGESTED`` run,
#: recorded before object ids were named through one key table.
RESULT_DIGESTS = {
    "gen-instance":
        (0, "8f618941d98666fe39ce1217c23788985c9aec72654070b726488a6fb509fb98"),
    "rsd":
        (0, "9cc627777eab7c8c2f875948920d996c076364ed82a6bfe87075f939bfe2f8e1"),
    "sd":
        (0, "8817ff5f01dbd3b48240a1767925a3abf9bfe8db8cbf0e2d2575cbae0ee9ce5d"),
    "ttc":
        (0, "89577e7fe98655a073d57eb614e66c8432a432306d95f804599f9e3124271f88"),
    "check-matching":
        (1, "438178739e27844f8e42cf6813d143dd9e7019bf747abbdd6a87757ebf1b5711"),
    "check-rule":
        (0, "5ebdeb5ea835a462161b2ded7b39ed21ecfd430cc88b4bd69ae00199950836e7"),
    "verify-thm1":
        (0, "2d270f801b21c53f8141912dba867ec6ff898194e1cb2e5e1fbdb3c8286435cb"),
    "verify-prop1":
        (0, "3d4d8a2184b8273f8d05946d8c6c31bd3b898d76cfbdd3a3e877caf56be214d9"),
    "replay-proof":
        (0, "1554f54877f633749b69d3011082b70c429bf93e0ee22aca5ae8780edca7aa65"),
    "replay-appendix":
        (0, "f023ebf39612a9057da876e1325c4793f8fd42c98456c9d6824aa5abd9b563ec"),
    "search-cex":
        (1, "87195c268b9660d9d636a1242066aa335b16a6a96516deb56a217643d87a696e"),
    "check-rule equal-treatment":
        (1, "edf6cb3294eee7dda7ab2c7c48a00a9aa2df16eb29fc2afdb1042bd819aed6a5"),
    "check-rule ex-post-non-wasteful":
        (1, "5c9e68fd81d4339a01747f08df34f18a7a6fb172d8dd7fcd035c3c92d15a7a09"),
    "check-rule ex-post-pairwise":
        (1, "f9e2c21d0c9993b79e9477eaf2944456874af0780fc5d3ae46ed23be1eca5126"),
    "check-rule ex-post-pareto":
        (1, "87c6e53fa734db82a0bfa2df5de709360fdcf075ea57c6e188df07b3d0d78c97"),
    "check-rule group-strategy-proof":
        (1, "ff41689f8f6d22dd5fe3420bd54e288ceded41af303e460d715ed31071ffc1b0"),
    "check-rule individual-rationality":
        (1, "636d9f632746b03f9c1e2a746e08d2db6e4f1579dbafdc01dc23c1c7c1237baf"),
    "check-rule maskin-monotonic":
        (1, "a8b83e45b001c1b9dd664b6edd92fcebe0e068149f3f45536b75b02f91dc36e6"),
    "check-rule non-bossy":
        (1, "a2153245a842c490649f6d14f564ef13628621fbc4a0d3ef5bd621ab38b634e4"),
    "check-rule pairwise-strategy-proof":
        (1, "5f6741afc0acbe190f823a7e814d8a02ee35180864537d1fcb515b6a15c01cd9"),
    "check-rule prob-monotonic":
        (1, "d863924660147374475a4e0df5541d8abce051c0af7a071cabb40acea52a36d2"),
    "check-rule strategy-proof":
        (1, "9ae2dc79cfdf084c8c13143bb947c87edae648d0219ac5df8bafcf44f6b7ff87"),
    "check-matching cycle":
        (1, "debfb77f989e56bbcd958f05d1ade9e84a542d2ea7e24662fe525aa516b756fc"),
    "check-matching swap":
        (1, "5d58956ab2d3aa3c796d36c8da493893b6dcc5fa5a66feabb1dcf6acc1491df4"),
    "check-matching waste":
        (1, "875de42c4edec4015b05897c63a3626d10d4806c38e33f5c173719c6db4b6b23"),
    "replay-appendix degenerate":
        (0, "a01da6ab8e5b432a1d2348824a1c5ac24b03fead82c0daa0b062301c68d3dc03"),
}


@pytest.mark.parametrize("name", list(DIGESTED))
def test_result_payloads_are_pinned(capsys, path, name):
    """Whole results, not only the keys other tests assert, stay byte-identical."""
    code, payload = invoke(capsys, *DIGESTED[name](path))
    digest = hashlib.sha256(json.dumps(payload["result"]).encode()).hexdigest()
    assert (code, digest) == RESULT_DIGESTS[name]


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
