"""Justness analysis: decomposition, verdicts, and their invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ccss.errors import DynamicParallelism
from ccss.justness import (
    Lasso, analyze_configuration, decompose, is_complete, is_just,
    minimal_signalling_set,
)
from ccss.lts import explore
from ccss.sos import SosEngine
from ccss.syntax import parse_term
from ccss.terms import Environment
from ccss import protocols

from _lassos import enumerate_lassos
from _oracle import oracle_is_just
from _randterms import random_term


def _reader_lasso(model):
    lts = explore(model.env, model.root)
    (loop,) = [i for i, t in enumerate(lts.transitions)
               if t.src == t.tgt == lts.initial]
    return lts, Lasso((), (loop,))


def test_reader_loop_is_just_with_handshake_variable():
    model = protocols.example1()
    lts, rho = _reader_lasso(model)
    verdict = is_just(lts, model.env, rho, mode=model.mode)
    assert verdict.just
    assert verdict.minimal_y == frozenset()


def test_reader_loop_is_unjust_with_signal_variable():
    model = protocols.example2()
    lts, rho = _reader_lasso(model)
    verdict = is_just(lts, model.env, rho, mode=model.mode)
    assert not verdict.just
    assert verdict.witness.clause == "X ∩ Z̄_H ≠ ∅"
    assert "assign_x_false" in verdict.witness.offending


def test_decompose_splits_by_component():
    model = protocols.example2()
    lts, rho = _reader_lasso(model)
    projections = decompose(lts, rho)
    finite = {p.leaf: p for p in projections if p.finite}
    moving = [p for p in projections if not p.finite]
    assert len(moving) == 1  # only the reader moves
    assert len(finite) == 2  # variable and writer rest
    engine = SosEngine(model.env)
    emitted = {str(n) for p in finite.values()
               for n in minimal_signalling_set(p, engine)}
    assert emitted == {"noti_x_true"}  # the variable keeps emitting its value


def test_moving_components_have_empty_signalling_set():
    model = protocols.example2()
    lts, rho = _reader_lasso(model)
    engine = SosEngine(model.env)
    for p in decompose(lts, rho):
        if not p.finite:
            assert minimal_signalling_set(p, engine) == frozenset()


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
    verdict = is_just(lts, model.env, rho, mode=model.mode)
    assert all(model.env.is_blocking(a) for a in verdict.minimal_y)


def test_a_enabled_reports_forced_bound_members():
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
    assert {str(a) for a in verdict.a_enabled} == {"a"}


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
    # the stem crosses a fork: the full run has no constant component tree,
    # so a per-component decomposition is refused ...
    with pytest.raises(DynamicParallelism):
        decompose(lts, Lasso((fork,), (work,)))
    # ... but the justness verdict only needs the tail and still works
    assert not is_just(lts, env, Lasso((fork,), (work,))).just


def test_justness_refuses_a_system_without_shapes():
    """An imported system keeps no parallel structure to decompose."""
    from ccss.lts import export_json, import_json
    model = protocols.example2()
    lts, rho = _reader_lasso(model)
    with pytest.raises(ValueError, match="no state shapes"):
        is_just(import_json(export_json(lts)), model.env, rho)


@pytest.mark.parametrize("copies", [12, 13])
def test_long_cycles_with_two_derivations_per_step_are_just(copies):
    """Each step of `A | A` is the left or the right A doing a; choosing
    both over the cycle moves both, whatever the cycle's length."""
    env = Environment()
    env.define(parse_term("A", signals=()).name, parse_term("a.A", signals=()))
    lts = explore(env, parse_term("A | A", signals=()))
    assert lts.num_states == 1 and len(lts.transitions) == 2
    verdict = is_just(lts, env, Lasso((), (0,) * copies))
    assert verdict.just
    assert verdict.minimal_y == frozenset()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_suffix_closure_justness_is_stable_under_advance(seed):
    rng = random.Random(seed)
    from _randterms import ENV
    term = random_term(rng, depth=3, alphabet=("a", "b", "c"))
    lts = explore(ENV, term, max_states=2000)
    lassos = [l for l in enumerate_lassos(lts, max_stem=2, max_cycle=2)
              if l.cycle]
    by_suffix = {}
    for lasso in lassos[:60]:
        before = is_just(lts, ENV, lasso).just
        # sliding the cycle's first transition onto the stem presents the
        # same infinite run one step later; the verdict may not change
        slid = Lasso(lasso.stem + lasso.cycle[:1],
                     lasso.cycle[1:] + lasso.cycle[:1])
        assert is_just(lts, ENV, slid).just == before
        # the verdict is a function of the run's tail, not of the stem
        key = (lasso.anchor(lts), frozenset(lasso.cycle))
        assert by_suffix.setdefault(key, before) == before


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_configuration_justness_is_monotone_in_the_mover_set(seed):
    """Letting one more component move only removes constraints; the
    exhaustive liveness search relies on this."""
    rng = random.Random(seed)
    from _randterms import ENV
    term = random_term(rng, depth=4, alphabet=("a", "b", "c"))
    engine = SosEngine(ENV)
    shape, leaves = explore(ENV, term, max_states=1, engine=engine).shapes[0]
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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_handshake_mode_and_signal_mode_agree_without_signals(seed):
    rng = random.Random(seed)
    env = Environment(blocking=("a", "b", "c"))
    term = random_term(rng, depth=3, alphabet=("a", "b", "c"), signals=())
    lts = explore(env, term, max_states=2000)
    for lasso in list(enumerate_lassos(lts, max_stem=1, max_cycle=3))[:30]:
        assert (is_just(lts, env, lasso, mode="ccs").just
                == is_just(lts, env, lasso, mode="ccss").just)


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
    from the system unless exploration was truncated; both ways agree
    with the derivations of the whole state term."""
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
                           for d in engine.transitions(lts.states[state]))
                assert is_complete(lts, ENV, Lasso(stem, ())) == want
