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
`golden/parse.json` holds, per model file and generated catalog source,
the SHA-256 of a structural dump of `parse(source)` and the number of
distinct `Name`, `Action` and `Ident` objects in it, which shows that
the parser shares them.  `golden/catalog_verdicts.json` holds the
safety and liveness `to_json()` of the generated catalog models in
`CATALOG`, whose handshake counterexamples no model file pins.
`golden/roles.json` holds, per generated configuration, bundled model
file and test source with roles, each role in order: its name, noncrit
and crit actions, leaf address, and the SHA-256 of the sorted printed
terms of each of its pending, critical and overflow sets.
`golden/just.json` holds, per model file and seeded lasso (`just_lassos`),
the exit code and the SHA-256 of the standard output of `ccss just`.
After a deliberate change, rewrite all seven files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import random
import sys

from ccss import protocols
from ccss.cli import main
from ccss.lts import explore
from ccss.syntax import parse, spec_str, term_str
from ccss.terms import Action, Ident, Name
from ccss.verify import check_liveness, check_safety

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "verdicts.json"
GOLDEN_BISIM = ROOT / "tests" / "golden" / "bisim.json"
GOLDEN_CLI = ROOT / "tests" / "golden" / "cli.json"
GOLDEN_PARSE = ROOT / "tests" / "golden" / "parse.json"
GOLDEN_CATALOG = ROOT / "tests" / "golden" / "catalog_verdicts.json"
GOLDEN_ROLES = ROOT / "tests" / "golden" / "roles.json"
GOLDEN_JUST = ROOT / "tests" / "golden" / "just.json"
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


# generated models by key: (generator, its arguments)
CATALOG = {
    **{f"{name} {flavor}": (make, args + (flavor,))
       for flavor in protocols.FLAVORS
       for name, make, args in (
           ("peterson2", protocols.peterson2, ()),
           ("filter_lock 2", protocols.filter_lock, (2,)),
           ("filter_lock 3", protocols.filter_lock, (3,)),
           ("bakery 2 4", protocols.bakery, (2, 4)))},
    "bakery 3 3 ccs": (protocols.bakery, (3, 3, "ccs")),
}


def catalog_verdicts() -> dict:
    out = {}
    for key, (make, args) in CATALOG.items():
        model = make(*args)
        out[key] = {"safety": check_safety(model).to_json(),
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


JUST_LASSOS = 10  # seeded lassos per model file


def just_lassos(path) -> list:
    """`ccss just --lasso` specs for the model file: random walks from the
    initial state, seeded by the file name.  Even walks avoid steps into a
    deadlock and stop at the first repeated state (a cycle), odd ones
    after a random number of steps; either stops where no step is left
    (a finite path).  The first half takes no step
    of one chosen component, which rests throughout, so that just and
    unjust verdicts mix."""
    spec = parse(path.read_bytes())
    lts = explore(spec.env, spec.root)
    out = [[] for _ in range(lts.num_states)]
    for i, t in enumerate(lts.transitions):
        out[t.src].append(i)
    components = sorted({p for t in lts.transitions for p in t.participants})
    rng = random.Random(path.name)
    specs = []
    for k in range(JUST_LASSOS):
        rests = rng.choice(components) if k < JUST_LASSOS // 2 else None
        length = rng.randrange(8) if k % 2 else None
        state, seen, steps, cut = lts.initial, {lts.initial: 0}, [], None
        while length is None or len(steps) < length:
            choices = [i for i in out[state]
                       if rests not in lts.transitions[i].participants]
            if not choices:
                break
            if length is None:  # steer a cycle clear of deadlocks
                choices = [i for i in choices
                           if out[lts.transitions[i].tgt]] or choices
            i = rng.choice(choices)
            steps.append(i)
            state = lts.transitions[i].tgt
            if length is None and state in seen:
                cut = seen[state]
                break
            seen[state] = len(steps)
        stem, cycle = (steps, []) if cut is None else (steps[:cut],
                                                        steps[cut:])
        specs.append(",".join(map(str, stem)) + ";"
                     + ",".join(map(str, cycle)))
    return specs


def just_outputs() -> dict:
    return {path.name: {lasso: _run(["just", str(path), "--lasso", lasso])
                        for lasso in just_lassos(path)}
            for path in MODELS}


def parse_sources() -> dict:
    """Every bundled model file and generated catalog source, by name."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODELS}
    sources["example1"] = protocols.example1().source
    sources["example2"] = protocols.example2().source
    for flavor in protocols.FLAVORS:
        sources[f"peterson2 {flavor}"] = protocols.peterson2(flavor).source
        for n in (2, 3, 4):
            sources[f"filter_lock {n} {flavor}"] = protocols.filter_lock(
                n, flavor).source
        for n, bound in ((2, 2), (2, 4), (3, 3)):
            sources[f"bakery {n} {bound} {flavor}"] = protocols.bakery(
                n, bound, flavor).source
    return sources


def _dump(item, seen):
    """A parsed item as nested lists of plain values: a dataclass as its
    class name and compared fields, a set sorted, so that the dump does
    not depend on PYTHONHASHSEED.  Every dataclass met goes into
    `seen`, by id."""
    if dataclasses.is_dataclass(item):
        seen[id(item)] = item
        return [type(item).__name__] + [
            _dump(getattr(item, f.name), seen)
            for f in dataclasses.fields(item) if f.compare]
    if isinstance(item, (set, frozenset)):
        return sorted((_dump(x, seen) for x in item), key=json.dumps)
    if isinstance(item, (tuple, list)):
        return [_dump(x, seen) for x in item]
    return item


def parse_outputs() -> dict:
    out = {}
    for key, source in parse_sources().items():
        spec = parse(source)
        seen = {}
        dump = [_dump(spec.env.order, seen), _dump(spec.root, seen),
                _dump(spec.env.declared_signals, seen),
                _dump(spec.env.blocking, seen),
                _dump(sorted(spec.ranges.items()), seen)]
        text = json.dumps(dump, separators=(",", ":"))
        out[key] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            **{kind.__name__: sum(type(x) is kind for x in seen.values())
               for kind in (Name, Action, Ident)}}
    return out


def role_models() -> dict:
    """Every model whose roles `golden/roles.json` pins, by key: the
    generators over a range of sizes, the model files, and the test
    sources whose roles spawn or break mutual exclusion."""
    from test_protocols import SPAWNING_ROLE
    from test_verify import BRANCHES, BROKEN, SPAWNING
    models = {"example1": protocols.example1(),
              "example2": protocols.example2()}
    for flavor in protocols.FLAVORS:
        models[f"peterson2 {flavor}"] = protocols.peterson2(flavor)
        for n in (2, 3, 4):
            models[f"filter_lock {n} {flavor}"] = protocols.filter_lock(
                n, flavor)
        for n, bound in ((2, 2), (2, 4), (2, 6), (3, 3), (3, 4)):
            models[f"bakery {n} {bound} {flavor}"] = protocols.bakery(
                n, bound, flavor)
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODELS}
    sources.update(SPAWNING_ROLE=SPAWNING_ROLE, SPAWNING=SPAWNING,
                   BRANCHES=BRANCHES, BROKEN=BROKEN)
    for key, source in sources.items():
        models[key] = protocols.roles_from_file(parse(source))
    return models


def _terms_digest(terms) -> str:
    text = "\n".join(sorted(map(term_str, terms)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def role_outputs() -> dict:
    return {key: [{"name": r.name, "noncrit": str(r.noncrit),
                   "crit": str(r.crit), "leaf": "/".join(r.leaf),
                   "pending": _terms_digest(r.pending_terms),
                   "critical": _terms_digest(r.critical_terms),
                   "overflow": _terms_digest(r.overflow_terms)}
                  for r in model.roles]
            for key, model in role_models().items()}


def test_verdicts_on_bundled_models_match_the_recorded_ones():
    assert verdicts() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_verdicts_on_catalog_models_match_the_recorded_ones():
    assert catalog_verdicts() == json.loads(
        GOLDEN_CATALOG.read_text(encoding="utf-8"))


def test_bisim_on_every_pair_of_bundled_models_matches_the_recorded_output():
    assert bisim_outputs() == json.loads(
        GOLDEN_BISIM.read_text(encoding="utf-8"))


def test_lts_and_step_output_on_bundled_models_matches_the_recorded_hashes():
    assert cli_outputs() == json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))


def test_parse_of_models_and_catalog_sources_matches_the_recorded_dump():
    assert parse_outputs() == json.loads(
        GOLDEN_PARSE.read_text(encoding="utf-8"))


def test_roles_of_generated_models_files_and_test_sources_match_the_recorded_ones():
    assert role_outputs() == json.loads(
        GOLDEN_ROLES.read_text(encoding="utf-8"))


def test_just_output_on_seeded_lassos_matches_the_recorded_hashes():
    assert just_outputs() == json.loads(
        GOLDEN_JUST.read_text(encoding="utf-8"))


def test_printing_a_parsed_source_round_trips():
    for source in parse_sources().values():
        printed = spec_str(parse(source))
        assert spec_str(parse(printed)) == printed


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
    GOLDEN_PARSE.write_text(
        json.dumps(parse_outputs(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    GOLDEN_CATALOG.write_text(json.dumps(catalog_verdicts(), indent=1) + "\n",
                              encoding="utf-8")
    GOLDEN_ROLES.write_text(
        json.dumps(role_outputs(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    GOLDEN_JUST.write_text(
        json.dumps(just_outputs(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    sys.exit(0)
