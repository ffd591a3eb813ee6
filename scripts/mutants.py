#!/usr/bin/env python3
"""Mutation check: each planted fault must fail the tests named for it.

Each mutant in `MUTANTS` replaces one exact piece of source text.  The
script first runs every named test on an unchanged copy of `src` and
`tests` (with `pyproject.toml`), where they must pass; then, for each
mutant, it copies them again to a temporary directory, applies the
mutant and runs its tests there.  A mutant is killed when one of its
tests fails.  Exits 1 when a mutant survives, when its source text is
gone or found more than once (a change that rewrites mutated code must
update the mutant here), or when a named test does not pass unchanged;
exits 0 when every mutant is killed.  Takes 50 to 60 s (CPython 3.11.7,
2-vCPU x86_64 VM).

    python scripts/mutants.py [NAME ...]

With names, only those mutants run.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str  # exact source text, found once in the file
    new: str
    tests: tuple  # pytest ids, of which at least one must fail


# `_Skeleton.derivations` at a Par: handshakes, then signal reads
_HANDSHAKES = """\
                if left_hits:
                    by_id = {}
                    for m in rhs:
                        if m[0] in left_hits:
                            by_id.setdefault(m[0], []).append(m)
                    for m in lhs:
                        for p in by_id.get(m[1], ()):
                            out.append((TAU, m[3] + p[3],
                                        split.intern(m[4] | p[4]), None,
                                        m[5] or p[5],
                                        split.intern(m[6] | p[6])))
"""
_READS = """\
                for readers, emitters, hits in (
                        (lrd, remit, left_hits), (rrd, lemit, rwant & loffer)):
                    if not hits:
                        continue
                    for m in readers:
                        if m[1] in hits:
                            for e in emitters:
                                if e[0] == m[1]:
                                    out.append((TAU, m[3], m[4], e[2], m[5],
                                                m[6]))
"""

MUTANTS = [
    Mutant("lasso movers read from the first cycle step only",
           "src/ccss/justness.py",
           "for i in lasso.cycle))\n",
           "for i in lasso.cycle[:1]))\n",
           ("tests/test_justness.py::"
            "test_long_cycles_alternating_two_derivations_are_just",
            "tests/test_justness.py::"
            "test_a_lasso_moves_the_components_its_transitions_name")),
    Mutant("validate skips the source check", "src/ccss/justness.py",
           "            if sources[i] != at:\n"
           "                raise ValueError(f\"stem breaks",
           "            if False:\n"
           "                raise ValueError(f\"stem breaks",
           ("tests/test_justness.py::"
            "test_lasso_validate_reports_where_the_path_breaks",)),
    Mutant("_path ignores its mask", "src/ccss/verify.py",
           "            if tgt in parent or not mask[i]:\n",
           "            if tgt in parent:\n",
           ("tests/test_verify.py::"
            "test_path_is_a_shortest_allowed_path_to_a_goal",)),
    Mutant("_path searches LIFO", "src/ccss/verify.py",
           "        s = queue.popleft()\n",
           "        s = queue.pop()\n",
           ("tests/test_verify.py::"
            "test_path_is_a_shortest_allowed_path_to_a_goal",)),
    Mutant("pending anchor dropped", "src/ccss/verify.py",
           "            elif waiting:\n"
           "                anchor = min(waiting)\n",
           "",
           ("tests/test_verify.py::"
            "test_a_witness_cycle_starts_at_a_pending_state_of_its_scc",)),
    Mutant("noncrit edge not required", "src/ccss/verify.py",
           "            if noncrit_edges and not waiting:\n",
           "            if False:\n",
           ("tests/test_verify.py::"
            "test_a_noncrit_edge_of_another_component_starts_the_witness_"
            "cycle",)),
    Mutant("unconfirmed witness ignored", "src/ccss/verify.py",
           "                unconfirmed = unconfirmed or role.name\n",
           "",
           ("tests/test_verify.py::"
            "test_unconfirmed_witness_gives_unknown_not_holds",)),
    Mutant("dead ends before cycles", "src/ccss/verify.py",
           "        comp_of = [-1] * lts.num_states\n",
           "        for s in stuck:\n"
           "            stem = ws.stem({s}) if pending[s] else None\n"
           "            if stem is not None:\n"
           "                lasso = Lasso(tuple(stem), ())\n"
           "                return LivenessVerdict(\"violated\", True, "
           "role.name, (\n"
           "                    lasso, is_just(lts, env, lasso, "
           "engine=ws.engine)),\n"
           "                    excluded)\n"
           "        comp_of = [-1] * lts.num_states\n",
           ("tests/test_verify.py::"
            "test_configurations_under_different_parallel_structure_"
            "stay_apart",)),
    Mutant("justness signal clauses swapped", "src/ccss/justness.py",
           "            (\"X ∩ Z′ ≠ ∅\", [Action(SIGNAL, n) for n in rl & sr]),\n"
           "            (\"X′ ∩ Z ≠ ∅\", [Action(SIGNAL, n) for n in rr & sl])",
           "            (\"X′ ∩ Z ≠ ∅\", [Action(SIGNAL, n) for n in rr & sl]),\n"
           "            (\"X ∩ Z′ ≠ ∅\", [Action(SIGNAL, n) for n in rl & sr])",
           ("tests/test_justness.py::"
            "test_configuration_verdicts_match_the_reference_above_a_par",)),
    Mutant("no recompute after Restrict", "src/ccss/justness.py",
           "        s = s.difference(hidden)\n"
           "        c, r = _wants(x)\n",
           "        s = s.difference(hidden)\n",
           ("tests/test_justness.py::"
            "test_configuration_verdicts_match_the_reference_above_a_par",)),
    Mutant("no recompute after Relabel", "src/ccss/justness.py",
           "        s = frozenset([f.apply_name(n, True) for n in s])\n"
           "        c, r = _wants(x)\n",
           "        s = frozenset([f.apply_name(n, True) for n in s])\n",
           ("tests/test_justness.py::"
            "test_configuration_verdicts_match_the_reference_above_a_par",)),
    Mutant("Tarjan low-link not passed to the parent", "src/ccss/verify.py",
           "                if work and low[v] < low[work[-1][0]]:\n"
           "                    low[work[-1][0]] = low[v]\n",
           "",
           ("tests/test_verify.py::"
            "test_sccs_match_the_dict_based_tarjan_on_random_digraphs",
            "tests/test_verify.py::"
            "test_sccs_match_the_dict_based_tarjan_on_every_catalog_role_graph"
            )),
    Mutant("no dedup at the topmost Par", "src/ccss/lts.py",
           "        out = list(dict.fromkeys(out))\n",
           "        out = list(out)\n",
           ("tests/test_lts.py::"
            "test_explore_matches_the_term_explorer_on_edge_cases",)),
    Mutant("signal reads composed before handshakes", "src/ccss/lts.py",
           _HANDSHAKES + _READS, _READS + _HANDSHAKES,
           ("tests/test_lts.py::"
            "test_explore_matches_the_term_explorer_on_random_terms",)),
    Mutant("a signal read also moves the emitter's slot", "src/ccss/lts.py",
           "                                    out.append((TAU, m[3], m[4], "
           "e[2], m[5],\n"
           "                                                m[6]))\n",
           "                                    out.append((TAU, m[3], m[4], "
           "e[2], m[5],\n"
           "                                                split.intern("
           "m[6] | {\n"
           "                                    i for i, a in enumerate("
           "self.shape.addresses)\n"
           "                                    if e[2][:len(a)] == a})))\n",
           ("tests/test_lts.py::"
            "test_explore_matches_the_term_explorer_on_random_terms",)),
    Mutant("touched blocks taken from the moved states", "src/ccss/bisim.py",
           "        touched = {p for s in left for p in preds[s]}\n",
           "        touched = set(left)\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("no early stop", "src/ccss/bisim.py",
           "        if blocks[qa] != blocks[qb]:\n"
           "            break\n"
           "    else:\n"
           "        return BisimResult(True)\n",
           "        pass\n"
           "    if blocks[qa] == blocks[qb]:\n"
           "        return BisimResult(True)\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("dropped split group", "src/ccss/bisim.py",
           "                groups.append([s for s in block "
           "if s not in touched])\n",
           "                pass\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("Par witness kept without its node", "src/ccss/justness.py",
           "                key = (node, left, right)\n",
           "                key = (node[0], left, right)\n",
           ("tests/test_justness.py::"
            "test_equal_clashing_pars_each_name_their_own_address",)),
    Mutant("root verdict read across blocking sets", "src/ccss/justness.py",
           "    key = (env.blocking, x)\n",
           "    key = x\n",
           ("tests/test_justness.py::"
            "test_a_root_verdict_is_not_read_across_blocking_sets",)),
]


def _copy(where: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, where / name, ignore=ignore)
        else:
            shutil.copy2(source, where / name)


def _pytest(where: pathlib.Path, tests) -> int:
    """pytest's exit code for these tests in the copy at `where`: 0 when
    all pass, 1 when one fails, anything else when they did not run."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        where = pathlib.Path(tmp)
        _copy(where)
        tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
        code = _pytest(where, tests)
        if code != 0:
            print(f"the named tests do not pass unchanged (pytest exit "
                  f"{code})")
            return 1
    failed = 0
    for mutant in mutants:
        text = (ROOT / mutant.file).read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            print(f"GONE      {mutant.name}: its source text is in "
                  f"{mutant.file} {found} times, not once")
            failed += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            where = pathlib.Path(tmp)
            _copy(where)
            (where / mutant.file).write_text(
                text.replace(mutant.old, mutant.new), encoding="utf-8")
            code = _pytest(where, mutant.tests)
        if code == 1:
            print(f"killed    {mutant.name}")
        else:
            print(f"SURVIVED  {mutant.name} (pytest exit {code})")
            failed += 1
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
