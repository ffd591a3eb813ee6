"""Command-line interface: exit codes, determinism, output formats."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ccss.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def example_file(tmp_path, capsys):
    path = tmp_path / "ex2.ccss"
    assert main(["gen", "--model", "example2", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_gen_output_is_byte_identical_across_runs(capsys):
    assert main(["gen", "--model", "peterson2", "--flavor", "ccss"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--model", "peterson2", "--flavor", "ccss"]) == 0
    assert capsys.readouterr().out == first


def test_parse_pretty_prints_a_valid_file(example_file, capsys):
    assert main(["parse", example_file]) == 0
    out = capsys.readouterr().out
    assert "system =" in out


def test_parse_reports_usage_error_for_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.ccss"
    bad.write_text("system = a..0\n")
    assert main(["parse", str(bad)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert main(["parse", "/nonexistent/x.ccss"]) == 2


def test_lts_json_is_valid_and_deterministic(example_file, capsys):
    assert main(["lts", example_file]) == 0
    first = capsys.readouterr().out
    blob = json.loads(first)
    assert blob["truncated"] is False
    assert main(["lts", example_file]) == 0
    assert capsys.readouterr().out == first


def test_lts_dot_output(example_file, capsys):
    assert main(["lts", example_file, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_bisim_exit_codes(tmp_path, example_file, capsys):
    other = tmp_path / "other.ccss"
    assert main(["gen", "--model", "example1", "-o", str(other)]) == 0
    capsys.readouterr()
    assert main(["bisim", example_file, str(other)]) == 0
    assert "bisimilar" in capsys.readouterr().out
    different = tmp_path / "different.ccss"
    different.write_text("system = a.0\n")
    assert main(["bisim", example_file, str(different)]) == 1
    assert "not bisimilar" in capsys.readouterr().out


def test_bisim_on_a_truncated_exploration_is_unknown(tmp_path, capsys):
    one = tmp_path / "one.ccss"
    one.write_text("A = a.A\nsystem = A\n")
    two = tmp_path / "two.ccss"
    two.write_text("A = a.B\nB = a.A\nsystem = A\n")
    assert main(["bisim", str(one), str(two)]) == 0
    capsys.readouterr()
    assert main(["bisim", str(one), str(two), "--max-states", "1"]) == 3
    out, err = capsys.readouterr()
    assert out.strip() == "unknown"
    assert f"warning: exploration of {two} truncated" in err
    assert str(one) not in err


def test_just_verdict_on_the_reader_loop(example_file, capsys):
    assert main(["lts", example_file]) == 0
    blob = json.loads(capsys.readouterr().out)
    (loop,) = [i for i, t in enumerate(blob["transitions"])
               if t["src"] == t["tgt"] == blob["initial"]]
    assert main(["just", example_file, "--lasso", f";{loop}"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["just"] is False
    assert verdict["complete"] is False


def test_verify_exit_codes_follow_the_verdict(capsys):
    assert main(["verify", "--safety", "--model", "peterson2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--liveness", "--model", "peterson2",
                 "--flavor", "ccs"]) == 1
    capsys.readouterr()
    assert main(["verify", "--liveness", "--model", "peterson2",
                 "--flavor", "ccss"]) == 0
    capsys.readouterr()


def test_verify_reports_unknown_when_truncated(capsys, monkeypatch):
    monkeypatch.setenv("CCSS_MAX_STATES", "10")
    assert main(["verify", "--liveness", "--model", "peterson2"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "unknown"


def test_verify_on_a_plain_file_infers_roles(tmp_path, capsys):
    path = tmp_path / "pet.ccss"
    assert main(["gen", "--model", "peterson2", "--flavor", "ccs",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--liveness", str(path)]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "violated"


def test_usage_errors_return_two(capsys):
    assert main(["verify", "--model", "peterson2"]) == 2  # missing property
    assert main(["frobnicate"]) == 2


def test_step_session_scripted(example_file, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0\nsignals\nundo\nquit\n"))
    assert main(["step", example_file]) == 0
    out = capsys.readouterr().out
    assert "state:" in out and "signals:" in out and "[0]" in out


# A and B enter their critical sections unguarded; C only makes the state
# space larger, so that a small budget truncates it.
UNGUARDED = (
    "blocking { noncritA, noncritB }\n"
    "A = noncritA.enterA.critA.exitA.A\n"
    "B = noncritB.enterB.critB.exitB.B\n"
    "C = " + "tick." * 40 + "0\n"
    "system = A | B | C\n")


def test_truncated_safety_reports_a_violation_inside_the_explored_part(
        tmp_path, capsys):
    path = tmp_path / "unguarded.ccss"
    path.write_text(UNGUARDED)
    assert main(["verify", "--safety", "--max-states", "100",
                 str(path)]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["holds"] is False
    assert sorted(blob["roles"]) == ["A", "B"]
    assert blob["witness"] and blob["exhaustive"] is False


def test_truncated_safety_without_a_bad_state_is_unknown(capsys):
    assert main(["verify", "--safety", "--model", "peterson2",
                 "--max-states", "10"]) == 3
    blob = json.loads(capsys.readouterr().out)
    assert blob["holds"] is None and blob["exhaustive"] is False


# A reaches its critical section only through its overflow state, which
# safety sets aside; C only makes the state space larger.
OVERFLOW_ONLY = (
    "A = noncritA.overflow.critA.exitA.A\n"
    "B = noncritB.critB.exitB.B\n"
    "C = c.c.c.c.0\n"
    "system = A | B | C\n")


@pytest.mark.parametrize("cap, code, holds", [
    (None, 0, True),
    (31, 3, None),  # the one bad state explored is behind an excluded one
])
def test_safety_ignores_bad_states_reachable_only_through_excluded_ones(
        tmp_path, capsys, cap, code, holds):
    path = tmp_path / "overflow.ccss"
    path.write_text(OVERFLOW_ONLY)
    extra = [] if cap is None else ["--max-states", str(cap)]
    assert main(["verify", "--safety", str(path)] + extra) == code
    blob = json.loads(capsys.readouterr().out)
    assert blob["holds"] is holds and blob["witness"] is None
    assert blob["excludedStates"] > 0
    assert blob.get("exhaustive", True) is (cap is None)


@pytest.mark.parametrize("command, text", [
    ("parse", "system = " + "(" * 3000 + "0" + ")" * 3000 + "\n"),
    ("parse", "system = " + "a." * 5000 + "0\n"),
    ("lts", "system = " + " | ".join(["a.0"] * 3000) + "\n"),
])
def test_too_deeply_nested_input_is_a_usage_error(tmp_path, capsys,
                                                  command, text):
    path = tmp_path / "deep.ccss"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "X = X\nsystem = X\n",
    "X = Y + a.X\nY = (X | b.0) \\ {b}\nsystem = c.X\n",
])
def test_unguarded_recursion_is_a_usage_error_for_parse_as_for_lts(
        tmp_path, capsys, text):
    path = tmp_path / "unguarded.ccss"
    path.write_text(text)
    for command in ("parse", "lts"):
        assert main([command, str(path)]) == 2
        assert "UnguardedRecursion" in capsys.readouterr().err


def test_every_bundled_model_parses(capsys):
    for path in sorted((ROOT / "models").glob("*.ccss")):
        assert main(["parse", str(path)]) == 0, path.name


EMISSION_ABOVE_ROLES = """\
signals { s }
blocking { noncritA, noncritB }
A = noncritA.critA.A
B = noncritB.critB.B
system = (A | B) ^ s
"""


@pytest.mark.parametrize("flag", ["--safety", "--liveness"])
def test_a_role_whose_address_vanishes_is_a_usage_error(tmp_path, capsys,
                                                        flag):
    """The emission above both roles drops on the first move, and with it
    the roles' addresses e/L and e/R."""
    path = tmp_path / "emit.ccss"
    path.write_text(EMISSION_ABOVE_ROLES)
    assert main(["verify", flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DynamicParallelism: role A")


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    with subprocess.Popen(
            [sys.executable, "-m", "ccss.cli", "lts",
             str(ROOT / "models" / "bakery2-ccss.ccss")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}) as proc:
        assert proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("argv, make", [
    (["parse", "{dir}"], None),
    (["parse", "{path}"], b"system = a.0 \xff\n"),
    (["gen", "--model", "peterson2", "-o", "{dir}"], None),
], ids=["directory", "not-utf-8", "gen-into-a-directory"])
def test_unreadable_input_or_output_is_a_usage_error(tmp_path, capsys, argv,
                                                     make):
    path = tmp_path / "bad.ccss"
    if make is not None:
        path.write_bytes(make)
    argv = [a.format(dir=tmp_path, path=path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["lts", "{file}"], ["bisim", "{file}", "{file}"],
    ["just", "{file}", "--lasso", ";"], ["verify", "--safety", "{file}"],
], ids=["lts", "bisim", "just", "verify"])
@pytest.mark.parametrize("cap", ["0", "-1", "abc", "2.5"])
def test_max_states_must_be_a_positive_integer(example_file, capsys,
                                               command, cap):
    argv = [a.format(file=example_file) for a in command]
    assert main(argv + ["--max-states", cap]) == 2
    assert "--max-states: not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3", "abc", ""])
def test_a_bad_state_cap_in_the_environment_is_a_usage_error(
        example_file, capsys, monkeypatch, cap):
    monkeypatch.setenv("CCSS_MAX_STATES", cap)
    assert main(["lts", example_file]) == 2
    assert capsys.readouterr().err.startswith(
        "error: CcssError: CCSS_MAX_STATES: not a positive integer")
    # the option overrides the environment
    assert main(["lts", example_file, "--max-states", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["truncated"] is True


@pytest.mark.parametrize("spec", ["-1", "0,-1;", "1;", ";5"])
def test_a_lasso_index_outside_the_transitions_is_a_bad_lasso(
        tmp_path, capsys, spec):
    path = tmp_path / "one.ccss"
    path.write_text("system = a.0\n")
    assert main(["just", str(path), f"--lasso={spec}"]) == 2
    assert "bad lasso spec" in capsys.readouterr().err
