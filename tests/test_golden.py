"""Recorded verdicts: safety and liveness on every bundled model file,
and `ccss bisim` on every ordered pair of them.

`golden/verdicts.json` holds the `to_json()` output of `check_safety`
and `check_liveness` for each `models/*.ccss`, roles inferred by
`protocols.roles_from_file`.  Any change to a verdict, to a
counterexample's transition indices or to its minimal Y shows up here.
`golden/bisim.json` holds the exit code and output of `ccss bisim A B`,
keyed by the two file names.  `golden/cli.json` holds, per model file,
the exit code and the SHA-256 of the standard output of `ccss lts`,
`ccss lts --dot` and `ccss step` fed the fixed input `STEP_SCRIPT`.
After a deliberate change, rewrite all three files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from ccss import protocols
from ccss.cli import main
from ccss.syntax import parse
from ccss.verify import check_liveness, check_safety

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "verdicts.json"
GOLDEN_BISIM = ROOT / "tests" / "golden" / "bisim.json"
GOLDEN_CLI = ROOT / "tests" / "golden" / "cli.json"
MODELS = sorted((ROOT / "models").glob("*.ccss"))
# moves, an emission query, undo, an index out of range, then quit
STEP_SCRIPT = "0\n1\nsignals\n2\nundo\n0\n9\nquit\n"


def verdicts() -> dict:
    out = {}
    for path in MODELS:
        model = protocols.roles_from_file(parse(path.read_bytes()))
        out[path.name] = {"safety": check_safety(model).to_json(),
                          "liveness": check_liveness(model).to_json()}
    return out


def bisim_outputs() -> dict:
    out = {}
    for a in MODELS:
        for b in MODELS:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main(["bisim", str(a), str(b)])
            out[f"{a.name} {b.name}"] = {"exit": code, "out": text.getvalue()}
    return out


def _run(argv, stdin="") -> dict:
    text = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(text):
            code = main(argv)
    finally:
        sys.stdin = saved
    digest = hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


def cli_outputs() -> dict:
    out = {}
    for path in MODELS:
        out[path.name] = {
            "lts": _run(["lts", str(path)]),
            "lts --dot": _run(["lts", "--dot", str(path)]),
            "step": _run(["step", str(path)], STEP_SCRIPT)}
    return out


def test_verdicts_on_bundled_models_match_the_recorded_ones():
    assert verdicts() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_bisim_on_every_pair_of_bundled_models_matches_the_recorded_output():
    assert bisim_outputs() == json.loads(
        GOLDEN_BISIM.read_text(encoding="utf-8"))


def test_lts_and_step_output_on_bundled_models_matches_the_recorded_hashes():
    assert cli_outputs() == json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(verdicts(), indent=1) + "\n",
                      encoding="utf-8")
    GOLDEN_BISIM.write_text(
        json.dumps(bisim_outputs(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    GOLDEN_CLI.write_text(
        json.dumps(cli_outputs(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    sys.exit(0)
