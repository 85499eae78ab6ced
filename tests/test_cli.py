"""CLI surface: subcommands, exit codes, output documents."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interax import GenParams, cli, gen_random_system
from interax.cli import run_cli
from interax.fixtures import client_server, even_a, pipeline
from interax.formats import parse_system, serialize_dtm, serialize_system

from test_model import count_rule_checks
from test_semantics import ring

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture
def files(tmp_path):
    paths = {
        "cs1": tmp_path / "cs1.json",
        "cs3": tmp_path / "cs3.json",
        "pl3": tmp_path / "pl3.json",
        "even_a": tmp_path / "even_a.json",
    }
    paths["cs1"].write_text(serialize_system(client_server(1)))
    paths["cs3"].write_text(serialize_system(client_server(3)))
    paths["pl3"].write_text(serialize_system(pipeline(3)))
    paths["even_a"].write_text(serialize_dtm(even_a()))
    return paths


def run(capsys, *argv):
    code = run_cli([str(a) for a in argv])
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def run_child(*argv, **env):
    """Run the CLI in a child process, so a hang fails after 30 s instead of
    stalling the suite; `env` adds to the child's environment."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "interax", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)},
    )
    return proc.returncode, json.loads(proc.stdout) if proc.stdout.strip() else None


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def utf8_word(text):
    """The argv word whose bytes are text's UTF-8, whatever this process's
    locale: a child under `ASCII_LOCALE` gets the bytes a UTF-8 shell
    passes."""
    return os.fsdecode(text.encode("utf-8"))


def cafe_system(tmp_path):
    """A two-stage pipeline whose first component is named `café`."""
    system = tmp_path / "cafe.json"
    system.write_text(
        serialize_system(pipeline(2)).replace("s1", "café"), encoding="utf-8"
    )
    return system


def reading(path):
    """The argv of each subcommand that reads an input file, reading `path`."""
    return [
        ("validate", path),
        ("classify", path),
        ("reach", path, "--target", "s1=waiting"),
        ("tm-run", path, "--input", ""),
        ("tm-compile", path, "--input", ""),
        ("starify", path),
        ("check-thm1", path, "--input", ""),
        ("check-thm2", path),
    ]


def duplicated_documents(tmp_path):
    """Each fixture system with its first component, or its first
    interaction, listed twice; yields (path, the rule that reports it)."""
    for fixture in sorted(FIXTURES.glob("*.json")):
        text = fixture.read_text()
        if "components" not in json.loads(text):
            continue
        for section, rule in (
            ("components", "duplicate-component"),
            ("interactions", "duplicate-interaction"),
        ):
            twice = json.loads(text)
            twice[section].append(twice[section][0])
            path = tmp_path / f"{fixture.stem}-{section}.json"
            path.write_text(json.dumps(twice))
            yield path, rule


class TestClassify:
    def test_client_server_star_like(self, files, capsys):
        code, doc, err = run(capsys, "classify", files["cs3"])
        assert code == 0
        assert doc["star_like"] is True
        assert doc["linear"] is False
        assert "star_like=True" in err

    def test_dot_output(self, files, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        code, doc, _ = run(capsys, "classify", files["pl3"], "--dot", dot)
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph interaction {")
        assert text.count("--") == doc["edges"] == 2

    def test_dot_output_is_utf8_under_an_ascii_locale(self, tmp_path):
        system = cafe_system(tmp_path)
        dot = tmp_path / "graph.dot"
        code, doc = run_child("classify", system, "--dot", dot, **ASCII_LOCALE)
        assert code == 0 and doc["nodes"] == 2
        assert '"café";' in dot.read_bytes().decode("utf-8")


class TestValidate:
    def test_clean_system(self, files, capsys):
        code, doc, err = run(capsys, "validate", files["cs1"])
        assert code == 0
        assert doc["findings"] == []
        assert err.strip() == "ok"

    def test_findings_are_data_not_failure(self, files, tmp_path, capsys):
        doc = json.loads(files["cs1"].read_text())
        doc["components"][0]["ports"].append("orphan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", bad)
        assert code == 0
        assert any(f["rule"] == "uncovered-port" for f in out["findings"])
        assert "finding" in err
        for path, rule in duplicated_documents(tmp_path):
            code, out, err = run(capsys, "validate", path)
            assert code == 0, path
            assert rule in [f["rule"] for f in out["findings"]], path
            assert "finding" in err

    def test_dotted_component_name_is_a_finding(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "components": [
                {"name": "a.b", "ports": [], "states": ["q0"], "initial": "q0",
                 "transitions": []}
            ],
            "interactions": [],
        }
        path = tmp_path / "dotted.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", path)
        assert code == 0
        assert [f["rule"] for f in out["findings"]] == ["dotted-component-name"]
        assert "1 finding(s)" in err

    def test_doubled_port_is_one_finding(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "components": [
                {"name": "k", "ports": ["a", "a"], "states": ["q0"], "initial": "q0",
                 "transitions": [{"from": "q0", "port": "a", "to": "q0"}]}
            ],
            "interactions": [{"name": "i", "ports": ["k.a"]}],
        }
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", path)
        assert code == 0
        assert [f["rule"] for f in out["findings"]] == ["duplicate-port"]
        assert "1 finding(s)" in err

    def test_schema_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        for argv in reading(bad):
            code, doc, err = run(capsys, *argv)
            assert (code, doc) == (2, None), argv
            assert err.startswith("error: "), argv

    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, doc, err = run(capsys, "validate", deep)
        assert (code, doc) == (2, None)
        assert err == "error: document nested too deeply\n"

    def test_non_utf8_file_exits_two(self, files, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        for argv in (*reading(bad), ("reach", files["pl3"], "--target", bad)):
            code, doc, err = run(capsys, *argv)
            assert (code, doc) == (2, None), argv
            assert err == f"error: {bad}: not UTF-8 (invalid start byte at byte 0)\n"


class TestReach:
    def test_inline_target_with_trace(self, files, capsys):
        code, doc, err = run(
            capsys,
            "reach",
            files["cs1"],
            "--target",
            "S=busy,c1=connected",
            "--trace",
        )
        assert code == 0
        assert doc["reachable"] is True
        assert doc["trace"] == ["connect_S_c1"]
        assert doc["complete"] is True
        assert "connect_S_c1" in err

    def test_constraint_free_inline_target(self, capsys):
        # "s1=*" constrains nothing, so the initial state is a witness
        code = run_cli(["reach", str(FIXTURES / "pipeline_n3.json"), "--target", "s1=*"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == {
            "complete": True,
            "kind": "reach",
            "reachable": True,
            "states_explored": 1,
            "trace": [],
            "transitions_explored": 0,
            "version": 1,
        }

    def test_wildcard_inline(self, files, capsys):
        code, doc, _ = run(capsys, "reach", files["cs3"], "--target", "S=busy,c2=*")
        assert code == 0
        assert doc["reachable"] is True

    def test_state_named_star_is_refused(self, tmp_path, capsys):
        # "*" in a target means any state, so no target can name this one
        path = tmp_path / "star.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "components": [
                        {
                            "name": "c",
                            "ports": ["p"],
                            "states": ["*", "q"],
                            "initial": "q",
                            "transitions": [{"from": "q", "port": "p", "to": "q"}],
                        }
                    ],
                    "interactions": [{"ports": ["c.p"]}],
                }
            )
        )
        code, doc, err = run(capsys, "reach", path, "--target", "c=*")
        assert (code, doc) == (2, None)
        assert "wildcard-state" in err

    def test_unreachable_answer_is_exit_zero(self, files, capsys):
        code, doc, err = run(
            capsys, "reach", files["cs1"], "--target", "S=free,c1=connected"
        )
        assert code == 0
        assert doc["reachable"] is False
        assert doc["trace"] is None
        assert "unreachable" in err

    def test_truncation_reported_in_document(self, files, capsys):
        code, doc, err = run(
            capsys,
            "reach",
            files["pl3"],
            "--target",
            "s3=replying",
            "--max-states",
            "1",
        )
        assert code == 0
        assert doc["reachable"] is False
        assert doc["complete"] is False
        # the summary names the bound, as check-thm1's verdict does
        assert err == "unreachable (search stopped at 1 states)\n"

    def test_predicate_file_target(self, files, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(
            json.dumps({"version": 1, "predicates": [{"s1": "waiting"}]})
        )
        code, doc, _ = run(capsys, "reach", files["pl3"], "--target", target)
        assert code == 0
        assert doc["reachable"] is True

    def test_missing_file_exits_two(self, tmp_path, capsys):
        for argv in reading(tmp_path / "nowhere.json"):
            code, doc, err = run(capsys, *argv)
            assert (code, doc) == (2, None), argv
            assert err.startswith("error: "), argv

    def test_an_empty_path_is_refused_by_name(self, files, capsys):
        # refused by its own name, not as the directory "." that Path("") names
        for argv in (
            *reading(""),
            ("reach", files["pl3"], "--target", ""),
            ("validate", files["pl3"], "-o", ""),
            ("check-thm1", files["even_a"], "--input", "a", "-o", ""),
            ("classify", files["pl3"], "--dot", ""),
        ):
            code, doc, err = run(capsys, *argv)
            assert (code, doc) == (2, None), argv
            assert err == "error: [Errno 2] No such file or directory: ''\n", argv

    def test_unknown_component_exits_two(self, files, capsys):
        code, _, _ = run(capsys, "reach", files["cs1"], "--target", "ghost=here")
        assert code == 2
        # a component constrained twice is refused, as in a predicate document
        code, doc, err = run(
            capsys, "reach", files["cs1"], "--target", "c1=idle,c1=connected"
        )
        assert (code, doc) == (2, None)
        assert err == "error: target names component 'c1' twice\n"
        for target in ("S=busy,c1", "S=busy,=free", "S="):
            code, doc, err = run(capsys, "reach", files["cs1"], "--target", target)
            assert code == 2
            assert doc is None
            assert "expected comp=state" in err

    def test_wildcard_on_unknown_component_exits_two(self, files, tmp_path, capsys):
        # "*" constrains no state, but its component must still exist
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"version": 1, "predicates": [{"nope": "*"}]}))
        for argv in (("--target", "nope=*"), ("--target", "S=busy,nope=*"), ("--target", target)):
            code, doc, err = run(capsys, "reach", files["cs1"], *argv)
            assert (code, doc) == (2, None), argv
            assert err == "error: predicate names unknown component 'nope'\n", argv

    def test_empty_predicate_document_exits_two(self, files, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"version": 1, "predicates": []}))
        code, doc, err = run(capsys, "reach", files["pl3"], "--target", target)
        assert (code, doc) == (2, None)
        assert err == "error: empty target disjunction\n"

    def test_max_states_below_one_exits_two(self, files, capsys):
        for bound in ("0", "-1"):
            code, doc, err = run(
                capsys, "reach", files["pl3"], "--target", "s3=replying",
                "--max-states", bound,
            )
            assert code == 2
            assert doc is None
            assert "max_states must be at least 1" in err


class TestTmCommands:
    def test_tm_run(self, files, capsys):
        code, doc, _ = run(capsys, "tm-run", files["even_a"], "--input", "aaa")
        assert code == 0
        assert doc == {"kind": "tm-run", "outcome": "reject", "steps": 4, "version": 1}

    def test_tm_run_max_steps(self, files, capsys):
        code, doc, _ = run(
            capsys, "tm-run", files["even_a"], "--input", "aaaa", "--max-steps", 2
        )
        assert code == 0
        assert (doc["outcome"], doc["steps"]) == ("step_limit", 2)
        for bound in (0, -5):
            code, doc, err = run(
                capsys, "tm-run", files["even_a"], "--input", "aa", "--max-steps", bound
            )
            assert (code, doc) == (2, None)
            assert f"max_steps must be at least 1, got {bound}" in err

    def test_tm_run_stops_at_its_stated_default(self, monkeypatch, capsys):
        # the counter takes 1,022 steps on 0^8 and 4·2^30 − 2 on 0^30: with
        # no --max-steps the run stops at the default, patched low here
        monkeypatch.setattr(cli, "DEFAULT_MAX_STATES", 100)
        code, doc, err = run(capsys, "tm-run", FIXTURES / "counter.json", "--input", "0" * 8)
        assert (code, doc["outcome"], doc["steps"]) == (0, "step_limit", 100)
        assert err == "step_limit after 100 step(s)\n"
        monkeypatch.undo()
        sub = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        (steps,) = [a for a in sub.choices["tm-run"]._actions if "--max-steps" in a.option_strings]
        assert (steps.default, steps.help) == (
            1_000_000, "stop after this many steps (default 1,000,000; at least 1)"
        )

    def test_tm_run_reports_loop(self):
        code, doc = run_child("tm-run", FIXTURES / "ping_pong.json", "--input", "a" * 30)
        assert code == 0
        assert (doc["outcome"], doc["steps"]) == ("loop", 3)

    def test_check_thm1_agrees_on_looping_machine(self):
        for word in ("a", "a" * 30):
            code, doc = run_child(
                "check-thm1", FIXTURES / "ping_pong.json", "--input", word
            )
            assert code == 0
            assert doc == {
                "kind": "verdict",
                "version": 1,
                "agree": True,
                "complete": True,
                "details": "tm=loop in 3 steps; reachable=False; lockstep held for 3 steps",
            }

    def test_check_thm1_bound_is_checked_and_its_default_stated(self, files, capsys):
        for bound in (0, -5):
            code, doc, err = run(
                capsys, "check-thm1", files["even_a"], "--input", "aa", "--max-states", bound
            )
            assert (code, doc) == (2, None)
            assert err == f"error: max_states must be at least 1, got {bound}\n"
        sub = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        (states,) = [
            a for a in sub.choices["check-thm1"]._actions if "--max-states" in a.option_strings
        ]
        assert (states.default, states.help) == (
            None,
            "stop the run after this many steps and the search after this many "
            "states (default 1,000,000; at least 1)",
        )

    def test_tm_run_bad_symbol_exits_two(self, files, capsys):
        code, _, _ = run(capsys, "tm-run", files["even_a"], "--input", "xyz")
        assert code == 2

    def test_tm_compile_then_reach(self, files, tmp_path, capsys):
        sys_file = tmp_path / "compiled.json"
        target_file = tmp_path / "target.json"
        code, _, _ = run(
            capsys,
            "tm-compile",
            files["even_a"],
            "--input",
            "aa",
            "-o",
            sys_file,
            "--target-out",
            target_file,
        )
        assert code == 0
        code, doc, _ = run(capsys, "reach", sys_file, "--target", target_file)
        assert code == 0
        assert doc["reachable"] is True

    def test_tm_compile_halt_extension_target(self, files, tmp_path, capsys):
        sys_file = tmp_path / "ext.json"
        target_file = tmp_path / "done.json"
        code, _, _ = run(
            capsys,
            "tm-compile",
            files["even_a"],
            "--input",
            "a",
            "--halt-extension",
            "-o",
            sys_file,
            "--target-out",
            target_file,
        )
        assert code == 0
        target = json.loads(target_file.read_text())
        assert set(target["predicates"][0].values()) == {"halt:done"}
        code, doc, _ = run(capsys, "reach", sys_file, "--target", target_file)
        assert code == 0
        assert doc["reachable"] is False  # odd word, rejected

    def test_tm_compile_stdout_parses(self, files, capsys):
        code = run_cli(["tm-compile", str(files["even_a"]), "--input", "a"])
        out = capsys.readouterr().out
        assert code == 0
        system = parse_system(out)
        assert len(system.model.components) == 3


class TestTransformsAndCheckers:
    def test_starify_output_classifies_star(self, files, tmp_path, capsys):
        out = tmp_path / "star.json"
        code, _, _ = run(capsys, "starify", files["pl3"], "-o", out)
        assert code == 0
        code, doc, _ = run(capsys, "classify", out)
        assert code == 0
        assert doc["star_like"] is True

    def test_check_thm1_agrees(self, files, capsys):
        code, doc, err = run(capsys, "check-thm1", files["even_a"], "--input", "aa")
        assert code == 0
        assert (doc["agree"], doc["complete"]) == (True, True)
        assert err.startswith("agree")

    def test_check_thm2_agrees(self, files, capsys):
        # the brute-force guard refuses rather than stops, so a thm2
        # verdict is always complete
        code, doc, _ = run(capsys, "check-thm2", files["cs1"])
        assert code == 0
        assert doc == {
            "kind": "verdict",
            "version": 1,
            "agree": True,
            "complete": True,
            "details": "|reach|=2 |reach'|=12 |projected|=2",
        }

    def test_gen_random_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["gen-random", "--seed", "7", "-o", str(a)]) == 0
        assert run_cli(["gen-random", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()
        # GenParams states the defaults the command uses
        assert a.read_text() == serialize_system(gen_random_system(GenParams(seed=7)))
        code, doc, _ = run(capsys, "validate", a)
        assert code == 0 and doc["findings"] == []


def adversarial_inputs(tmp_path):
    """The files `BOUNDS` reads, by name."""
    # s1 already has a port that starify would name "ok:send_m_1"
    collision = json.loads(serialize_system(pipeline(2)))
    collision["components"][0]["ports"].append("ok:send_m_1")
    collision["interactions"].append({"name": "extra", "ports": ["s1.ok:send_m_1"]})
    texts = {
        "long_int": '{"version": ' + "1" * 5000 + "}",
        "deep": "[" * 100000 + "]" * 100000,
        "pl3": serialize_system(pipeline(3)),
        "even_a": serialize_dtm(even_a()),
        "collision": json.dumps(collision),
        # the nondeterministic ring(6) has 729 states; its starification
        # has 3^6 * 37 = 26,973 product states
        "ring6": serialize_system(ring(6, nondet=True)),
        "counter": (FIXTURES / "counter.json").read_text(),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    return {name: tmp_path / f"{name}.json" for name in texts}


# one row per subcommand: argv (with `{name}` for a file of
# `adversarial_inputs`), the exit code, the fields the output document has
# (None: no document) and stderr, which names the bound or the refusal
BOUNDS = {
    "validate": (
        ["validate", "{long_int}"], 2, None,
        "error: integer literal too long: 5000 characters\n",
    ),
    "classify": (["classify", "{deep}"], 2, None, "error: document nested too deeply\n"),
    "reach": (
        ["reach", "{pl3}", "--target", "s3=replying", "--max-states", "1"], 0,
        {"reachable": False, "trace": None, "states_explored": 1, "complete": False},
        "unreachable (search stopped at 1 states)\n",
    ),
    "tm-run": (
        ["tm-run", "{even_a}", "--input", "aaaa", "--max-steps", "1"], 0,
        {"outcome": "step_limit", "steps": 1}, "step_limit after 1 step(s)\n",
    ),
    "tm-compile": (
        ["tm-compile", "{even_a}", "--input", "ax"], 2, None,
        "error: input symbol 'x' outside the input alphabet\n",
    ),
    "starify": (
        ["starify", "{collision}"], 2, None,
        "error: port name collision: s1.ok:send_m_1 already exists\n",
    ),
    "check-thm1": (
        # the counter takes 1,022 steps on 0^8
        ["check-thm1", "{counter}", "--input", "00000000", "--max-states", "1000"], 0,
        {"agree": False, "complete": False},
        "UNDECIDED: tm=step_limit in 1000 steps; reachable=False "
        "(search stopped at 1000 states); lockstep held for 1000 steps\n",
    ),
    "check-thm2": (
        ["check-thm2", "{ring6}"], 2, None,
        "error: product too large for brute force: 26973 > 10000\n",
    ),
    "gen-random": (
        ["gen-random", "--seed", "1", "--max-components", "33"], 2, None,
        "error: max_components must be at most 32\n",
    ),
}


def test_every_command_has_a_bounds_row():
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(BOUNDS) == sorted(sub.choices)


@pytest.mark.parametrize("command", BOUNDS)
def test_each_command_names_its_bound_or_refusal(command, tmp_path, capsys):
    argv, expected_code, fields, expected_err = BOUNDS[command]
    paths = adversarial_inputs(tmp_path)
    code, doc, err = run(capsys, *(word.format(**paths) for word in argv))
    assert (code, err) == (expected_code, expected_err)
    if fields is None:
        assert doc is None
    else:
        assert {key: doc[key] for key in fields} == fields


class TestOneValidation:
    COMMANDS = [
        ("reach", "--target", "s3=replying"),
        ("starify",),
        ("check-thm2",),
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_system_is_validated_once(self, command, monkeypatch, capsys):
        # every later validation of the parsed system is remembered, so the
        # rule checks run once
        calls = count_rule_checks(monkeypatch)
        name, *rest = command
        code, _, _ = run(capsys, name, FIXTURES / "pipeline_n3.json", *rest)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command", [*COMMANDS, ("classify",)], ids=lambda c: c[0]
    )
    def test_invalid_system_exits_two(self, command, tmp_path, capsys):
        doc = json.loads((FIXTURES / "pipeline_n3.json").read_text())
        doc["components"][0]["initial"] = "nowhere"
        bad = tmp_path / "dangling.json"
        bad.write_text(json.dumps(doc))
        name, *rest = command
        code, out, err = run(capsys, name, bad, *rest)
        assert (code, out) == (2, None)
        assert err.startswith("error: invalid system: missing-initial: component s1")
        for path, _ in duplicated_documents(tmp_path):
            code, out, err = run(capsys, name, path, *rest)
            assert (code, out) == (2, None), path
            assert err.startswith("error: invalid system: "), path


# commands whose output comes from sets and dicts of names, on the fixtures
HASH_SEED_COMMANDS = {
    "starify": ("starify", FIXTURES / "clientserver_r3.json"),
    "check-thm2": ("check-thm2", FIXTURES / "clientserver_r2.json"),
    "classify --dot": ("classify", FIXTURES / "clientserver_r3.json", "--dot", "graph.dot"),
    "tm-compile": ("tm-compile", FIXTURES / "even_a.json", "--input", "aa"),
    "tm-compile --halt-extension": (
        "tm-compile", FIXTURES / "even_a.json", "--input", "aa", "--halt-extension",
    ),
    "check-thm1": ("check-thm1", FIXTURES / "first_last.json", "--input", "0110"),
    "gen-random": ("gen-random", "--seed", "7"),
    "reach --trace": (
        "reach", FIXTURES / "pipeline_n3.json", "--target", "s3=replying", "--trace",
    ),
}


@pytest.mark.parametrize("command", HASH_SEED_COMMANDS)
def test_output_bytes_do_not_depend_on_the_hash_seed(command, tmp_path):
    # each run is a child process with its own hash seed, in its own
    # directory, so a written DOT file is compared too
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    outputs = []
    for seed in ("0", "1"):
        where = tmp_path / seed
        where.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "interax", *map(str, HASH_SEED_COMMANDS[command])],
            capture_output=True,
            timeout=30,
            cwd=where,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in where.iterdir()}
        outputs.append((proc.stdout, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0]
    if command == "classify --dot":
        assert outputs[0][1]["graph.dot"]


class TestArgumentHandling:
    def test_no_subcommand_exits_two(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_flag_exits_two(self, files, capsys):
        assert run_cli(["classify", str(files["cs1"]), "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run_cli(["transmogrify"]) == 2

    def test_internal_error_exits_one(self, files, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("handler broke")

        monkeypatch.setattr(cli, "_cmd_classify", broken)
        code, out, err = run(capsys, "classify", files["cs1"])
        assert (code, out) == (1, None)
        assert err.splitlines()[-1] == "internal error: RuntimeError: handler broke"
        assert err.startswith("Traceback (most recent call last):\n")
        assert ", in broken\n" in err

    def test_names_on_the_command_line_are_utf8_under_an_ascii_locale(self, tmp_path):
        system = cafe_system(tmp_path)
        dtm = tmp_path / "even_e.json"
        dtm.write_text(serialize_dtm(even_a()).replace('"a"', '"é"'), encoding="utf-8")
        for env in ({}, ASCII_LOCALE):
            code, doc = run_child("reach", system, "--target", utf8_word("café=waiting"), **env)
            assert code == 0 and doc["trace"] == ["send_message_1"], env
            code, doc = run_child("tm-run", dtm, "--input", utf8_word("éé"), **env)
            assert code == 0 and doc["outcome"] == "accept", env

    def test_a_callers_own_names_stay_text_under_an_ascii_locale(self, tmp_path):
        # run_cli's argv may hold text that never was argv bytes, which the
        # locale's encoding cannot encode
        system = cafe_system(tmp_path)
        argv = ["reach", str(system), "--target", "café=waiting"]
        program = f"from interax.cli import run_cli; raise SystemExit(run_cli({argv!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", program.encode("ascii", "backslashreplace").decode()],
            capture_output=True,
            timeout=30,
            env={**os.environ, **ASCII_LOCALE, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["trace"] == ["send_message_1"]

    def test_names_that_are_not_utf8_exit_two(self, tmp_path):
        # "\udcff" passes the byte 0xff, which starts no UTF-8 character
        system = tmp_path / "pl2.json"
        system.write_text(serialize_system(pipeline(2)))
        dtm = FIXTURES / "even_a.json"
        for env in ({}, ASCII_LOCALE):
            code, doc = run_child("reach", system, "--target", "s\udcff=waiting", **env)
            assert (code, doc) == (2, None), env
            for command in ("tm-run", "tm-compile", "check-thm1"):
                code, doc = run_child(command, dtm, "--input", "a\udcff", **env)
                assert (code, doc) == (2, None), (command, env)

    def test_main_exits_with_the_code(self, files, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["interax", "classify", str(files["cs1"])])
        with pytest.raises(SystemExit) as raised:
            cli.main()
        assert raised.value.code == 0
        assert json.loads(capsys.readouterr().out)["star_like"] is True
        monkeypatch.setattr(sys, "argv", ["interax", "transmogrify"])
        with pytest.raises(SystemExit) as raised:
            cli.main()
        assert raised.value.code == 2

    def test_module_entry_point_exits_with_the_code(self, files):
        code, doc = run_child("classify", files["pl3"])
        assert code == 0 and doc["linear"] is True
        assert run_child("transmogrify") == (2, None)
