#!/usr/bin/env python3
"""Mutation check: each planted fault must fail the tests named for it.

Each mutant in `MUTANTS` replaces one exact piece of source text.  The
script first runs every named test on an unchanged copy of `src` and
`tests` (with `models`, `perfbench` and `pyproject.toml`, which the
tests read), where they must pass; then, for each mutant, it copies them
again to a temporary directory, applies the mutant and runs its tests
there.  A mutant is killed when one of its tests fails.  Exits 1 when a
mutant survives, when its source text is gone or found more than once (a
change that rewrites mutated code must update the mutant here), or when
a named test does not pass unchanged; exits 0 when every mutant is
killed.  The 34 mutants take 85 to 110 s (CPython 3.11.7, 2-vCPU x86_64
VM).

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
COPIED = ("src", "tests", "models", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str  # exact source text, found once in the file
    new: str
    tests: tuple  # pytest ids, of which at least one must fail


# `_Skeleton.derivations` at a Par: handshakes, then signal reads
_HANDSHAKES = """\
                if lhs and rhs:
                    by_id = rhs_ids or _index(rhs)
                    for m in lhs:
                        if m[1] in by_id:
                            for p in by_id[m[1]]:
                                out.append((TAU, m[3] + p[3],
                                            split.intern(m[4] | p[4]), None,
                                            m[5] or p[5],
                                            split.intern(m[6] | p[6])))
"""
_READS = """\
                for readers, emitters, by_id in ((lrd, remit, remit_ids),
                                                 (rrd, lemit, lemit_ids)):
                    if readers and emitters:
                        by_id = by_id or _index(emitters)
                        for m in readers:
                            if m[1] in by_id:
                                for e in by_id[m[1]]:
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
           "            anchor = min(waiting)\n",
           "            anchor = min(comp)\n",
           ("tests/test_verify.py::"
            "test_a_witness_cycle_starts_at_a_pending_state_of_its_scc",)),
    Mutant("another component's crit edge counts as the role's",
           "src/ccss/verify.py",
           "            if _moves(lts, i, role.leaf):\n"
           "                mask[i] = 0\n",
           "            mask[i] = 0\n",
           ("tests/test_verify.py::"
            "test_a_crit_edge_of_another_component_is_not_the_roles",)),
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
    Mutant("signal reads matched against their own side's emitters",
           "src/ccss/lts.py",
           "((lrd, remit, remit_ids),\n" + " " * 49
           + "(rrd, lemit, lemit_ids))",
           "((lrd, lemit, lemit_ids),\n" + " " * 49
           + "(rrd, remit, remit_ids))",
           ("tests/test_lts.py::"
            "test_explore_matches_the_term_explorer_on_bundled_models",)),
    Mutant("a move's target id is written one slot over", "src/ccss/lts.py",
           "tids = tids[:slot] + (i,) + tids[slot + 1:]\n",
           "tids = tids[:slot + 1] + (i,) + tids[slot + 2:]\n",
           ("tests/test_lts.py::"
            "test_explore_matches_the_term_explorer_on_random_terms",)),
    Mutant("the per-leaf handshake index is keyed by pair id",
           "src/ccss/lts.py",
           "_index(handshakes)",
           "_index([m[1:2] + m[1:] for m in handshakes])",
           ("tests/test_lts.py::"
            "test_explore_matches_the_term_explorer_on_bundled_models",)),
    Mutant("touched blocks taken from the moved states", "src/ccss/bisim.py",
           "        yield blocks, left\n"
           "        touched = {p for s in left for p in preds[s]}\n",
           "        yield blocks, left\n"
           "        touched = set(left)\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("no early stop", "src/ccss/bisim.py",
           "        if blocks[a] != blocks[n + b]:\n"
           "            break\n"
           "    else:\n"
           "        return BisimResult(True)\n",
           "        pass\n"
           "    if blocks[a] == blocks[n + b]:\n"
           "        return BisimResult(True)\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("dropped split group", "src/ccss/bisim.py",
           "                groups.append(rest)\n",
           "                pass\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("record without its last round, which signs but splits nothing",
           "src/ccss/bisim.py",
           "    rounds[-1].close(blocks, {})\n",
           "    rounds.pop()\n",
           ("tests/test_bisim.py::"
            "test_an_isomorphic_copy_replays_in_the_rounds_of_the_record",)),
    Mutant("A's moves in the record not applied in the replay",
           "src/ccss/bisim.py",
           "        for s, bid in zip(record.moved, record.new):\n"
           "            left[s] = blocks[s]\n"
           "            blocks[s] = bid\n",
           "",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_model_copies",)),
    Mutant("untouched states of B stay when the record's rest moves",
           "src/ccss/bisim.py",
           "        return self.rests[i] if self.rests[i] >= 0 else None\n",
           "        return bid if self.rests[i] >= 0 else None\n",
           ("tests/test_bisim.py::"
            "test_an_isomorphic_copy_replays_in_the_rounds_of_the_record",)),
    Mutant("the smallest group keeps the block id", "src/ccss/bisim.py",
           "            groups.sort(key=len, reverse=True)\n",
           "            groups.sort(key=len)\n",
           ("tests/test_bisim.py::"
            "test_a_split_block_keeps_its_id_for_its_largest_group",
            "tests/test_bisim.py::"
            "test_an_isomorphic_copy_replays_in_the_rounds_of_the_record")),
    Mutant("the replay's emission map read from B's states",
           "src/ccss/bisim.py",
           "        emitted[lts_a.state_signals[first]] = bid\n",
           "        emitted[lts_b.state_signals[min(first, lts_b.num_states - 1)]]"
           " = bid\n",
           ("tests/test_bisim.py::"
            "test_refinement_rounds_match_the_reference_on_random_terms",
            "tests/test_bisim.py::"
            "test_refinement_agrees_with_naive_fixedpoint")),
    Mutant("a truncated end state read from the system",
           "src/ccss/justness.py",
           "    if not lasso.terminal or lts.truncated:\n",
           "    if not lasso.terminal:\n",
           ("tests/test_justness.py::"
            "test_finite_path_completeness_matches_the_whole_term_derivations",
            )),
    Mutant("a relabelling after an identifier read as its parameters",
           "src/ccss/syntax.py",
           "and tokens[i + 3] in (\"/\", \"[\")):\n",
           "and tokens[i + 3] in (\"[\",)):\n",
           ("tests/test_syntax.py::"
            "test_a_bracket_after_an_identifier_is_told_apart_by_lookahead",
            "tests/test_syntax.py::"
            "test_identifier_with_parameters_vs_relabelling")),
    Mutant("a whole-name token drops its _int parameters",
           "src/ccss/syntax.py",
           "params = rest.replace(\"]\", \"\").split(\"_\")\n",
           "params = rest.replace(\"]\", \"\").split(\"_\")[:1]\n",
           ("tests/test_syntax.py::"
            "test_whole_name_tokens_read_what_plain_tokens_read",
            "tests/test_syntax.py::"
            "test_a_name_split_by_whitespace_parses_as_the_joined_name")),
    Mutant("a failed parse is not retried with plain tokens",
           "src/ccss/syntax.py",
           "    except (ParseError, ScopeError):\n        pass\n",
           "    except ():\n        pass\n",
           ("tests/test_syntax.py::"
            "test_whole_name_tokens_read_what_plain_tokens_read",
            "tests/test_syntax.py::"
            "test_a_name_split_by_whitespace_parses_as_the_joined_name")),
    Mutant("unfolding chains without a bound", "src/ccss/sos.py",
           "            if term in stack or len(stack) >= MAX_UNFOLD:\n",
           "            if term in stack:\n",
           ("tests/test_cli.py::"
            "test_unguarded_recursion_through_a_parameterised_equation_is_a_"
            "usage_error",)),
    Mutant("concrete equation indexed after a pattern of its family",
           "src/ccss/terms.py",
           "        elif key not in self.patterned:\n",
           "        else:\n",
           ("tests/test_terms.py::"
            "test_a_pattern_declared_before_a_concrete_equation_wins_its_calls",
            )),
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
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".records",
                                    ".smoke-*")
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
