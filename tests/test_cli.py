"""Command-line interface: exit codes, determinism, output formats."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ccss.cli import main
from ccss.syntax import parse
from ccss.terms import NIL, act

ROOT = pathlib.Path(__file__).resolve().parents[1]
# every command that reads a model FILE
FILE_COMMANDS = pytest.mark.parametrize("command", [
    ["parse", "{file}"], ["lts", "{file}"], ["bisim", "{file}", "{file}"],
    ["just", "{file}", "--lasso", ";"], ["verify", "--safety", "{file}"],
    ["step", "{file}"],
], ids=["parse", "lts", "bisim", "just", "verify", "step"])


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


def _reader_loop(example_file, capsys) -> int:
    """The index of the initial state's self-loop in `ccss lts`."""
    assert main(["lts", example_file]) == 0
    blob = json.loads(capsys.readouterr().out)
    (loop,) = [i for i, t in enumerate(blob["transitions"])
               if t["src"] == t["tgt"] == blob["initial"]]
    return loop


def test_just_verdict_on_the_reader_loop(example_file, capsys):
    loop = _reader_loop(example_file, capsys)
    assert main(["just", example_file, "--lasso", f";{loop}"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["just"] is False
    assert verdict["complete"] is False


def test_just_decides_justness_once_for_a_cycle(example_file, capsys,
                                                monkeypatch):
    import ccss.cli
    import ccss.justness
    calls = []
    is_just = ccss.justness.is_just

    def counted(*args, **kwargs):
        calls.append(args)
        return is_just(*args, **kwargs)

    monkeypatch.setattr(ccss.justness, "is_just", counted)
    monkeypatch.setattr(ccss.cli, "is_just", counted)
    loop = _reader_loop(example_file, capsys)
    assert main(["just", example_file, "--lasso", f";{loop}"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify --safety", "verify --liveness",
                                     "gen"])
@pytest.mark.parametrize("model", ["example1", "example2", "peterson2"])
def test_n_other_than_two_is_refused_for_a_two_process_model(capsys, command,
                                                             model):
    for n in ("5", "1", "0"):
        assert main([*command.split(), "--model", model, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and f"--n {n}" in line
    assert main([*command.split(), "--model", model, "--n", "2"]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "verify --safety --model peterson2 --ticket-bound 9",
    "verify --liveness --model filter --ticket-bound 4",
    "gen --model example1 --ticket-bound 4",
    "gen --model example1 --flavor ccss",
    "gen --model example1 --flavor ccs",
    "verify --safety --model example2 --flavor ccss",
    "verify --safety models/example1.ccss --flavor ccs",
    "verify --liveness models/example1.ccss --n 2",
    "verify --liveness models/example1.ccss --ticket-bound 4",
    "verify --safety --model peterson2 models/example1.ccss",
])
def test_an_option_the_model_does_not_take_is_refused(capsys, argv):
    argv = argv.replace("models/", f"{ROOT / 'models'}/")
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    words = argv.split()
    option = next((f"{word} {value}" for word, value in zip(words, words[1:])
                   if word in ("--flavor", "--n", "--ticket-bound")),
                  "FILE or --model")
    assert line.startswith("error:") and option in line


@pytest.mark.parametrize("model,explicit", [
    ("peterson2", "--flavor ccss"),
    ("filter", "--flavor ccss --n 2"),
    ("bakery", "--flavor ccss --n 2 --ticket-bound 4"),
    ("example1", ""),
    ("example2", ""),
])
def test_model_options_default_to_ccss_two_processes_and_bound_four(
        capsys, model, explicit):
    assert main(["gen", "--model", model, *explicit.split()]) == 0
    want = capsys.readouterr().out
    assert main(["gen", "--model", model]) == 0
    assert capsys.readouterr().out == want
    assert main(["verify", "--safety", "--model", model]) == 0
    capsys.readouterr()


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


def test_just_warns_when_exploration_was_truncated(tmp_path, capsys):
    path = tmp_path / "loop.ccss"
    path.write_text("A = a.A + b.B\nB = b.B\nsystem = A\n")
    assert main(["just", str(path), "--lasso", ";0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # the cap drops the step into B; the loop keeps index 0
    assert main(["just", str(path), "--lasso", ";0",
                 "--max-states", "1"]) == 0
    capped, err = capsys.readouterr()
    assert err == "warning: exploration truncated at the state limit\n"
    assert capped == out


@pytest.mark.parametrize("property", ["--safety", "--liveness"])
def test_verify_warns_when_the_model_has_no_role(tmp_path, capsys, property):
    """A model without a `noncrit*`/`crit*` pair has no process to check:
    the verdict is printed as before, with one warning on stderr."""
    path = tmp_path / "plain.ccss"
    path.write_text("A = a.A\nsystem = A | b.0\n")
    warning = ("warning: no component has a noncrit*/crit* action pair, "
               "so the verdict covers no process\n")
    key, holds = (("holds", True) if property == "--safety"
                  else ("status", "holds"))
    for target in (["--model", "example1"], [str(path)]):
        assert main(["verify", property, *target]) == 0
        out, err = capsys.readouterr()
        assert err == warning
        assert json.loads(out)[key] == holds
    assert main(["verify", property, "--model", "peterson2"]) == 0
    assert capsys.readouterr().err == ""


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
    ("lts", "system = " + " | ".join(["a.0"] * 3000) + "\n"),
])
def test_too_deeply_nested_input_is_a_usage_error(tmp_path, capsys,
                                                  command, text):
    path = tmp_path / "deep.ccss"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_a_long_prefix_chain_parses_and_prints(tmp_path, capsys):
    """Parsing, validating and printing a prefix chain recurse on none of
    its prefixes; the printed chain reads back as the same term, compared
    prefix by prefix (`==` on it would recurse)."""
    path = tmp_path / "long.ccss"
    path.write_text("system = " + "a." * 5000 + "0\n")
    assert main(["parse", str(path)]) == 0
    term = parse(capsys.readouterr().out).root
    for _ in range(5000):
        assert term.action == act("a")
        term = term.body
    assert term == NIL


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


@pytest.mark.parametrize("body", ["a.0 + A[i+1]", "(a.0 | A[i+1]) \\ {b}"])
def test_unguarded_recursion_through_a_parameterised_equation_is_a_usage_error(
        tmp_path, capsys, body):
    """Each call `A[i]` unfolds to a new call `A[i+1]`, so no identifier
    recurs; the engine stops the chain and names its first call."""
    path = tmp_path / "unguarded.ccss"
    path.write_text(f"A[i] = {body}\nsystem = A[0]\n")
    assert main(["lts", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: UnguardedRecursion: A[0] unfolds to A[50]")


@FILE_COMMANDS
def test_a_name_relabelled_to_two_names_is_a_usage_error(tmp_path, capsys,
                                                         command):
    path = tmp_path / "twice.ccss"
    path.write_text("system = (b.0)[a/b, c/b]\n")
    assert main([a.format(file=path) for a in command]) == 2
    assert capsys.readouterr().err == (
        "error: ParseError: 1:21: b is relabelled to both a and c\n")


@FILE_COMMANDS
def test_every_command_that_reads_a_file_validates_it(tmp_path, capsys,
                                                      command):
    path = tmp_path / "blocking.ccss"
    path.write_text("blocking {x}\nsystem = (a.0)[x/a]\n")
    assert main([a.format(file=path) for a in command]) == 2
    assert capsys.readouterr().err == (
        "error: InvalidModel: RelabelIntoBlocking: a -> x in system\n")


@FILE_COMMANDS
def test_a_call_no_equation_matches_is_a_usage_error(tmp_path, capsys,
                                                     command):
    path = tmp_path / "unmatched.ccss"
    path.write_text("Y[2] = a.0\nsystem = Y[1]\n")
    assert main([a.format(file=path) for a in command]) == 2
    assert capsys.readouterr().err == (
        "error: InvalidModel: UnknownAgent: "
        "Y[1]: no equation matches these parameters\n")


def test_a_relabelling_pair_listed_twice_prints_once(tmp_path, capsys):
    path = tmp_path / "twice.ccss"
    path.write_text("system = (b.0)[a/b, a/b]\n")
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr().out == "system = (b.0)[a/b]\n"


def test_indexed_names_print_as_written(tmp_path, capsys):
    """States, emissions, labels, evidence and errors spell a name with
    tail parameters as the parser reads it."""
    emit, two, three, missing = (tmp_path / f"{n}.ccss" for n in
                                 ("emit", "two", "three", "missing"))
    emit.write_text("signals { s }\nsystem = (a[1]_2.0) ^ s[1]_1\n")
    two.write_text("system = a[1]_2.0\n")
    three.write_text("system = a[1]_3.0\n")
    missing.write_text("system = Y[1]_2\n")
    assert main(["lts", "--dot", str(emit)]) == 0
    dot = capsys.readouterr().out
    assert '"(a[1]_2.0) ^ s[1]_1\\n^s[1]_1"' in dot
    assert '[label="a[1]_2"]' in dot
    assert main(["bisim", str(two), str(three)]) == 1
    assert capsys.readouterr().out == (
        "not bisimilar: after a[1]_2: one side offers a[1]_2 into a class "
        "the other cannot reach\n")
    assert main(["lts", str(missing)]) == 2
    assert capsys.readouterr().err == (
        "error: InvalidModel: UnknownAgent: Y[1]_2 in system\n")


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
