"""Command-line interface: exit codes, determinism, output formats."""

import json

import pytest

from ccss.cli import main


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
