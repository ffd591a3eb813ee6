"""Justness analysis: verdicts and their invariants."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ccss.justness import Lasso, analyze_configuration, is_complete, is_just
from ccss.lts import explore
from ccss.sos import SosEngine
from ccss.syntax import parse, parse_term
from ccss.terms import Environment, Ident, Name, leaf_paths, subterm_at
from ccss import protocols

from _lassos import enumerate_lassos
from _oracle import (
    UniverseTooLarge, oracle_is_just, reference_analyze_configuration,
)
from _randterms import SIGNALS, random_system, random_term


def _reader_lasso(model):
    lts = explore(model.env, model.root)
    (loop,) = [i for i, t in enumerate(lts.transitions)
               if t.src == t.tgt == lts.initial]
    return lts, Lasso((), (loop,))


def test_reader_loop_is_just_with_handshake_variable():
    model = protocols.example1()
    lts, rho = _reader_lasso(model)
    verdict = is_just(lts, model.env, rho)
    assert verdict.just
    assert verdict.minimal_y == frozenset()


def test_reader_loop_is_unjust_with_signal_variable():
    model = protocols.example2()
    lts, rho = _reader_lasso(model)
    verdict = is_just(lts, model.env, rho)
    assert not verdict.just
    assert verdict.witness.clause == "X ∩ Z̄_H ≠ ∅"
    assert "assign_x_false" in verdict.witness.offending


def test_decompose_splits_by_component():
    model = protocols.example2()
    lts, rho = _reader_lasso(model)
    shape, leaves = lts.states[lts.initial]
    (loop,) = rho.cycle
    moving = lts.transitions[loop].components
    assert len(moving) == 1  # only the reader moves
    (reader,) = moving
    assert subterm_at(model.root, shape.addresses[reader]) == Ident(Name("R"))
    resting = [leaves[slot] for slot in range(len(leaves))
               if slot not in moving]
    assert len(resting) == 2  # variable and writer rest
    engine = SosEngine(model.env)
    emitted = {str(n) for term in resting for n in engine.signals(term)}
    assert emitted == {"noti_x_true"}  # the variable keeps emitting its value


def test_terminal_lasso_justness_matches_enabled_actions():
    env = Environment(blocking=("a",))
    lts = explore(env, parse_term("a.0 | b.0", signals=()))
    # ending before doing anything: b (non-blocking) is still enabled
    verdict = is_just(lts, env, Lasso((), ()))
    assert not verdict.just
    assert "non-blocking" in verdict.witness.clause
    # after b has happened only blocking a remains: a just (and complete) end
    (b_step,) = [i for i, t in enumerate(lts.transitions)
                 if str(t.label) == "b" and t.src == lts.initial]
    done = Lasso((b_step,), ())
    assert is_just(lts, env, done).just
    assert is_complete(lts, env, done)
    assert not is_complete(lts, env, Lasso((), ()))


def test_verdict_minimal_y_contains_only_blocking_actions():
    model = protocols.example1()
    lts, rho = _reader_lasso(model)
    verdict = is_just(lts, model.env, rho)
    assert all(model.env.is_blocking(a) for a in verdict.minimal_y)


def test_minimal_y_reports_forced_bound_members():
    env = Environment(blocking=("a", "b"))
    lts = explore(env, parse_term("a.0 | b.b.0", signals=()))
    loops = [i for i, t in enumerate(lts.transitions)]
    # cycle: none - take the run that ends after both b steps, a still enabled
    path = []
    state = lts.initial
    for _ in range(2):
        (i,) = [j for j, t in enumerate(lts.transitions)
                if t.src == state and str(t.label) == "b"]
        path.append(i)
        state = lts.transitions[i].tgt
    verdict = is_just(lts, env, Lasso(tuple(path), ()))
    assert verdict.just
    assert {str(a) for a in verdict.minimal_y} == {"a"}


def test_dynamic_parallelism_is_reported():
    env = Environment()
    env.define(parse_term("Spawn", signals=()).name,
               parse_term("fork.(Spawn | W)", signals=()))
    env.define(parse_term("W", signals=()).name,
               parse_term("work.W", signals=()))
    lts = explore(env, parse_term("Spawn", signals=()), max_states=40)
    (fork,) = [i for i, t in enumerate(lts.transitions)
               if str(t.label) == "fork" and t.src == lts.initial]
    (work,) = [i for i, t in enumerate(lts.transitions)
               if str(t.label) == "work" and t.src == t.tgt
               and t.src == lts.transitions[fork].tgt]
    # the stem crosses a fork, so the full run has no constant component
    # tree, but the justness verdict only needs the tail and still works
    assert not is_just(lts, env, Lasso((fork,), (work,))).just


def _twin_copies():
    """`A = a.A`, `system = A | A`: one state, and its two self-loops are
    the left copy doing a (transition 0) and the right one (1)."""
    env = Environment()
    env.define(parse_term("A", signals=()).name, parse_term("a.A", signals=()))
    lts = explore(env, parse_term("A | A", signals=()))
    assert lts.num_states == 1 and len(lts.transitions) == 2
    assert [t.components for t in lts.transitions] == [
        frozenset({0}), frozenset({1})]
    return env, lts


@pytest.mark.parametrize("cycle,just", [
    ((0,), False), ((1,), False), ((0, 0), False), ((1, 1), False),
    ((0, 1), True), ((1, 0), True)])
def test_a_lasso_moves_the_components_its_transitions_name(cycle, just):
    """Both steps of `A | A` are (0, a, 0); each index names which copy
    moves, so a cycle that never takes the other copy's step leaves that
    copy resting with a enabled."""
    env, lts = _twin_copies()
    verdict = is_just(lts, env, Lasso((), cycle))
    assert verdict.just == just
    if not just:
        assert verdict.witness.clause == (
            "finite path enables a non-blocking action")
        assert verdict.witness.offending == ("a",)
    assert oracle_is_just(lts, env, Lasso((), cycle)) == just


@pytest.mark.parametrize("copies", [12, 13])
def test_long_cycles_alternating_two_derivations_are_just(copies):
    """A cycle that alternates the left and the right copy's step moves
    both, whatever its length; one that repeats one copy's step leaves
    the other resting."""
    env, lts = _twin_copies()
    verdict = is_just(lts, env, Lasso((), (0, 1) * (copies // 2)
                                      + (0,) * (copies % 2)))
    assert verdict.just
    assert verdict.minimal_y == frozenset()
    for step in (0, 1):
        assert not is_just(lts, env, Lasso((), (step,) * copies)).just


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_suffix_closure_justness_is_stable_under_advance(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(20):  # draw until a system has a cycle within reach
        env, root = random_system(rng)
        lts = explore(env, root, max_states=2000)
        lassos = [l for l in enumerate_lassos(lts, max_stem=2, max_cycle=2)
                  if l.cycle]
        by_suffix = {}
        for lasso in lassos[:60]:
            before = is_just(lts, env, lasso).just
            # sliding the cycle's first transition onto the stem presents
            # the same infinite run one step later; the verdict may not
            # change
            slid = Lasso(lasso.stem + lasso.cycle[:1],
                         Lasso((), lasso.cycle).advance().cycle)
            assert is_just(lts, env, slid).just == before
            # the verdict is a function of the run's tail, not of the stem
            key = (lasso.anchor(lts), frozenset(lasso.cycle))
            assert by_suffix.setdefault(key, before) == before
            checked += 1
        if checked:
            break
    assert checked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
# a resting leaf reads a signal that no subterm emits
@example(20039929)
def test_a_run_gets_one_verdict_however_its_cycle_is_written(seed):
    """A lasso, the lasso with its cycle written twice, and each rotation
    of its cycle (its first steps moved onto the stem) present one run,
    so `is_just` gives them one verdict; where the brute-force oracle
    fits its universe, it gives that verdict too."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(20):  # draw until a system has a cycle within reach
        env, root = random_system(rng)
        engine = SosEngine(env)
        lts = explore(env, root, max_states=2000, engine=engine)
        lassos = [l for l in enumerate_lassos(lts, max_stem=1, max_cycle=3)
                  if l.cycle]
        for lasso in rng.sample(lassos, min(len(lassos), 20)):
            stem, cycle = lasso.stem, lasso.cycle
            want = is_just(lts, env, lasso, engine=engine).just
            for other in [Lasso(stem, cycle * 2)] + [
                    Lasso(stem + cycle[:r], cycle[r:] + cycle[:r])
                    for r in range(1, len(cycle))]:
                assert is_just(lts, env, other, engine=engine).just == want, (
                    lasso, other)
            try:
                assert oracle_is_just(lts, env, lasso, engine=engine) == want
            except UniverseTooLarge:
                pass
            checked += 1
        if checked:
            break
    assert checked


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_configuration_justness_is_monotone_in_the_mover_set(seed):
    """Letting one more component move only removes constraints; the
    exhaustive liveness search relies on this."""
    rng = random.Random(seed)
    from _randterms import ENV
    term = random_term(rng, depth=4, alphabet=("a", "b", "c"))
    engine = SosEngine(ENV)
    shape, leaves = explore(ENV, term, max_states=1, engine=engine).states[0]
    if len(leaves) < 2:
        return
    slots = range(len(leaves))
    chosen = frozenset(rng.sample(slots, rng.randint(0, len(leaves) - 1)))
    bigger = chosen | {rng.choice([s for s in slots if s not in chosen])}
    small = analyze_configuration(engine, ENV, shape, leaves, chosen)
    big = analyze_configuration(engine, ENV, shape, leaves, bigger)
    if small.just:
        assert big.just
        assert big.minimal_y <= small.minimal_y


def assert_configurations_match_the_reference(term, mover_sets):
    """Set summaries and intersections give the reference's verdict, its
    minimal Y and its witness (node, clause, offending actions) on every
    explored state (up to a small cap), for each of `mover_sets(slots)`.
    The summaries are kept once per resting leaf in the one shared
    engine, so a second pass asks the engine for no derivations."""
    from _randterms import ENV
    engine = SosEngine(ENV)
    lts = explore(ENV, term, max_states=25, engine=engine)
    cases = []
    for shape, leaves in lts.states:
        for movers in mover_sets(range(len(leaves))):
            want = reference_analyze_configuration(engine, ENV, shape,
                                                   leaves, movers)
            got = analyze_configuration(engine, ENV, shape, leaves, movers)
            assert got == want, (shape.nodes, leaves, movers)
            cases.append((shape, leaves, movers, got))
    resting = {leaves[s] for _, leaves, movers, _ in cases
               for s in range(len(leaves)) if s not in movers}
    assert set(engine.summaries) <= resting

    def no_derivations(term):
        raise AssertionError(f"summary of {term} not kept")

    engine.transitions = no_derivations
    for shape, leaves, movers, verdict in cases:
        assert analyze_configuration(engine, ENV, shape, leaves,
                                     movers) == verdict
    return cases


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
# seeds whose witnesses are each of the three Par clauses, at a Par
# below a Relabel or a SignalEmit
@example(1)
@example(251)
@example(668)
def test_configuration_verdicts_match_the_reference(seed):
    rng = random.Random(seed)
    term = random_term(rng, depth=rng.choice((3, 4)))

    def mover_sets(slots):
        # no slot, every slot and three random subsets
        return sorted({frozenset(), frozenset(slots)} | {
            frozenset(s for s in slots if rng.random() < 0.5)
            for _ in range(3)}, key=sorted)

    assert_configurations_match_the_reference(term, mover_sets)


@pytest.mark.parametrize("text,clause", [
    # both signal clauses hold: the one on the left's reads comes first
    ("(s.0) ^ t | (t.0) ^ s", "X ∩ Z′ ≠ ∅"),
    # a Restrict or Relabel above a Par changes what it synchronizes with
    ("(a.0 | b.0) \\ {a} | 'a.0", None),
    ("(a.0 | b.0) \\ {a} | 'b.0", "X ∩ Z̄_H ≠ ∅"),
    ("(a.0 | b.0)[c/a] | 'a.0", None),
    ("(a.0 | b.0)[c/a] | 'c.0", "X ∩ Z̄_H ≠ ∅"),
    ("(s.0 | b.0) \\ {s} | (0) ^ s", None),
    ("(s.0 | b.0)[t/s] | (0) ^ t", "X ∩ Z′ ≠ ∅"),
])
def test_configuration_verdicts_match_the_reference_above_a_par(text, clause):
    def every_subset(slots):
        return [frozenset(s for s in slots if k >> s & 1)
                for k in range(2 ** len(slots))]

    term = parse_term(text, signals=("s", "t"))
    cases = assert_configurations_match_the_reference(term, every_subset)
    shape, leaves, movers, verdict = cases[0]  # initial, none moves
    assert (verdict.witness.clause if verdict.witness else None) == clause


def test_spot_check_against_brute_force_oracle():
    from _randterms import make_env
    env = make_env()
    engine = SosEngine(env)
    for text in (
        "(a.0 | 'a.0) \\ {a}",
        "((b.0) ^ s | s.s.0) \\ {s}",
        "(a.b.0 | 'b.0) | 'a.0",
    ):
        term = parse_term(text, signals=("s", "t"))
        lts = explore(env, term, engine=engine)
        for lasso in enumerate_lassos(lts, max_stem=2, max_cycle=3):
            impl = is_just(lts, env, lasso, engine=engine).just
            orac = oracle_is_just(lts, env, lasso, engine=engine)
            assert impl == orac, (text, lasso)


def test_finite_path_completeness_matches_the_whole_term_derivations():
    """is_complete on a finite path reads the end state's enabled actions
    from the system, or on a truncated system (cap 3) from the justness
    pass over the end state's leaves; both ways agree with the
    derivations of the whole state term."""
    from _randterms import ENV, sample_terms
    engine = SosEngine(ENV)
    for term in sample_terms(80):
        for cap in (1_000, 3):
            lts = explore(ENV, term, max_states=cap)
            stems = {lts.initial: ()}
            for i, t in enumerate(lts.transitions):
                if t.src in stems and t.tgt not in stems:
                    stems[t.tgt] = stems[t.src] + (i,)
            for state, stem in stems.items():
                want = all(ENV.is_blocking(d.label)
                           for d in engine.transitions(lts.term(state)))
                assert is_complete(lts, ENV, Lasso(stem, ())) == want


def reference_is_just(lts, env, lasso, engine):
    """The verdict of `is_just`, from the anchor reached by following the
    stem's targets and the moving slots read off the cycle transitions'
    participant addresses (each resolved to the leaf slot above it),
    judged by `reference_analyze_configuration`."""
    anchor = lts.initial
    for i in lasso.stem:
        anchor = lts.transitions[i].tgt
    shape, leaves = lts.states[anchor]
    paths = leaf_paths(lts.term(anchor))
    movers = frozenset(
        next(slot for slot, leaf in enumerate(paths)
             if address[:len(leaf)] == leaf)
        for i in lasso.cycle for address in lts.transitions[i].participants)
    return reference_analyze_configuration(engine, env, shape, leaves, movers)


def assert_lassos_match_the_reference(lts, env, lassos):
    """`is_just` and then `is_complete` give the verdicts of
    `reference_is_just` on each lasso and on every rotation of its cycle;
    returns the cycle steps asked about."""
    engine = SosEngine(env)
    steps = set()
    for lasso in lassos:
        rotations = [Lasso(lasso.stem + lasso.cycle[:r],
                           lasso.cycle[r:] + lasso.cycle[:r])
                     for r in range(max(1, len(lasso.cycle)))]
        for rotated in rotations:
            want = reference_is_just(lts, env, rotated, engine)
            assert is_just(lts, env, rotated, engine=engine) == want, rotated
            if rotated.cycle:
                complete = want.just
            else:
                anchor = rotated.anchor(lts)
                complete = all(env.is_blocking(d.label) for d in
                               engine.transitions(lts.term(anchor)))
            assert is_complete(lts, env, rotated, engine=engine) == complete
            steps.update(rotated.cycle)
    return steps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
# systems where some cycle step has alternative derivations
@example(1)
@example(4)
def test_lasso_verdicts_match_the_reference(seed):
    rng = random.Random(seed)
    env, root = random_system(rng)
    lts = explore(env, root, max_states=300)
    lassos = list(enumerate_lassos(lts, max_stem=2, max_cycle=3))
    assert_lassos_match_the_reference(
        lts, env, rng.sample(lassos, min(len(lassos), 20)))


@pytest.mark.parametrize("equations,text", [
    # either copy of A does each a
    ("A = a.A", "A | A"),
    # the relabelling merges A's a and B's b into one label
    ("A = a.A\nB = b.B", "(A | B)[a/b]"),
], ids=["twin-copies", "merging-relabel"])
def test_steps_with_alternative_derivations_match_the_reference(equations,
                                                                text):
    spec = parse(f"{equations}\nsystem = {text}\n")
    lts = explore(spec.env, spec.root)
    lassos = list(enumerate_lassos(lts, max_stem=1, max_cycle=3))
    steps = assert_lassos_match_the_reference(lts, spec.env, lassos)
    triples = [(t.src, t.label, t.tgt) for t in lts.transitions]
    # some cycle step shares its triple with another derivation
    assert any(triples.count(triples[i]) > 1 for i in steps)


def test_lasso_validate_reports_where_the_path_breaks():
    env = Environment()
    lts = explore(env, parse_term("a.b.0 + c.0", signals=()))
    a, b, c = (next(i for i, t in enumerate(lts.transitions)
                    if str(t.label) == name) for name in "abc")
    assert Lasso((a, b), ()).validate(lts) == lts.transitions[b].tgt
    for lasso, message in (
            (Lasso((b,), ()), f"stem breaks at transition {b}: expected "
                              f"source 0, got {lts.transitions[a].tgt}"),
            (Lasso((a,), (c,)), f"cycle breaks at transition {c}"),
            (Lasso((), (a,)), "cycle does not return to its start state"),
            (Lasso((a, 7), ()), "no transition 7")):
        with pytest.raises(ValueError) as error:
            lasso.validate(lts)
        assert str(error.value) == message


def test_advance_presents_the_suffix_from_the_second_state():
    spec = parse("A = a.b.A\nsystem = A\n")
    lts = explore(spec.env, spec.root)
    a, b = (next(i for i, t in enumerate(lts.transitions)
                 if str(t.label) == name) for name in "ab")
    # the stem loses its first transition
    assert Lasso((a, b), (a, b)).advance() == Lasso((b,), (a, b))
    # with no stem, the cycle is rotated by one
    rotated = Lasso((), (a, b)).advance()
    assert rotated == Lasso((), (b, a))
    # read from the path's second state, not from the initial one
    with pytest.raises(ValueError, match=f"cycle breaks at transition {b}"):
        rotated.validate(lts)
    assert Lasso((a,), rotated.cycle).validate(lts) == lts.transitions[a].tgt
    # a finite path with no stem has no suffix to present
    assert Lasso((), ()).advance() == Lasso((), ())


# -- the engine's memo of compositions ---------------------------------------

def _configurations(lts):
    """Every (shape, leaves, movers) of the system: each state with each
    set of its slots moving."""
    return [(shape, leaves,
             frozenset(s for s in range(len(leaves)) if k >> s & 1))
            for shape, leaves in lts.states
            for k in range(2 ** len(leaves))]


@pytest.mark.parametrize("signals", [SIGNALS, ()],
                         ids=["signals", "handshakes"])
def test_a_shared_engine_gives_the_verdicts_of_a_fresh_engine_per_call(
        signals):
    """Verdict, minimal Y and witness do not depend on what the engine
    was asked before: on every state and mover set of seeded random
    systems, asked forwards and backwards of one engine each."""
    seen = set()
    for seed in range(20):
        env, root = random_system(random.Random(seed), agents=4, depth=4,
                                  signals=signals)
        lts = explore(env, root, max_states=30)
        cases = _configurations(lts)
        want = [analyze_configuration(SosEngine(env), env, *case)
                for case in cases]
        for order in (cases, cases[::-1]):
            engine = SosEngine(env)
            got = {case: analyze_configuration(engine, env, *case)
                   for case in order}
            assert [got[case] for case in cases] == want, seed
        seen.update(v.witness.node if v.witness else v.just for v in want)
    # just and unjust verdicts, at a Par and at the root
    assert {True, "(root)"} < seen


def test_equal_clashing_pars_each_name_their_own_address():
    """Two Pars whose children have equal summaries clash alike, but each
    witness names the Par it was found at, in either call order."""
    env = Environment()  # nothing blocks
    term = parse_term("(a.0 | 'a.0) | (a.0 | 'a.0)", signals=())
    shape, leaves = explore(env, term, max_states=1).states[0]
    cases = ((frozenset({2, 3}), "L"), (frozenset({0, 1}), "R"))
    for order in (cases, cases[::-1]):
        engine = SosEngine(env)
        for movers, node in order:
            verdict = analyze_configuration(engine, env, shape, leaves,
                                            movers)
            assert verdict.witness.node == node
            assert verdict == analyze_configuration(
                SosEngine(env), env, shape, leaves, movers)
        assert len(engine.summaries) == 2  # a.0 and 'a.0 on both sides


def test_a_root_verdict_is_not_read_across_blocking_sets():
    """One engine asked under two environments that block differently
    gives each the verdict a fresh engine gives it."""
    term = parse_term("a.0 | b.0", signals=())
    blocking, free = Environment(blocking=("a", "b")), Environment()
    shape, leaves = explore(free, term, max_states=1).states[0]
    engine = SosEngine(free)
    for env, just in ((blocking, True), (free, False), (blocking, True)):
        verdict = analyze_configuration(engine, env, shape, leaves,
                                        frozenset())
        assert verdict.just is just
        assert verdict == analyze_configuration(
            SosEngine(env), env, shape, leaves, frozenset())


def test_an_engine_asked_again_adds_no_entry():
    """Configurations and lassos already analysed are answered from the
    memo: asking again, in another order, adds no summary or
    composition."""
    for seed in range(6):
        env, root = random_system(random.Random(seed), agents=4, depth=4)
        lts = explore(env, root, max_states=30)
        engine = SosEngine(env)
        cases = _configurations(lts)
        lassos = list(enumerate_lassos(lts, max_stem=2, max_cycle=3))
        first = [analyze_configuration(engine, env, *case) for case in cases]
        first += [is_just(lts, env, lasso, engine=engine)
                  for lasso in lassos]
        sizes = len(engine.summaries), len(engine.compositions)
        again = [is_just(lts, env, lasso, engine=engine)
                 for lasso in lassos[::-1]]
        again += [analyze_configuration(engine, env, *case)
                  for case in cases[::-1]]
        assert again[::-1] == first
        assert (len(engine.summaries), len(engine.compositions)) == sizes
