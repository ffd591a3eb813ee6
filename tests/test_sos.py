"""Operational semantics: transitions, synchronization, signal emission."""

import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ccss.errors import UnguardedRecursion
from ccss.lts import explore
from ccss.sos import SosEngine
from ccss.terms import (
    Environment, Ident, NIL, Name, Par, Prefix, Relabel, Relabelling,
    Restrict, SignalEmit, Sum, TAU, act, coact, contains_par, sig,
)
from ccss.syntax import parse, parse_term

import _randterms

MODELS = sorted((pathlib.Path(__file__).resolve().parents[1] / "models")
                .glob("*.ccss"))

ENV = Environment(signals=("s", "t"))


def labels(term, env=ENV):
    return sorted(str(d.label) for d in SosEngine(env).transitions(term))


def test_prefix_and_choice():
    term = Sum((Prefix(act("a"), NIL), Prefix(coact("b"), NIL)))
    assert labels(term) == ["'b", "a"]


def test_parallel_interleaving_and_handshake():
    term = Par(Prefix(act("a"), NIL), Prefix(coact("a"), NIL))
    assert labels(term) == ["'a", "a", "tau"]


def test_restriction_blocks_both_polarities_but_not_tau():
    term = Restrict(Par(Prefix(act("a"), NIL), Prefix(coact("a"), NIL)),
                    frozenset([Name("a", ())]))
    assert labels(term) == ["tau"]


def test_relabelling_applies_to_labels():
    f = Relabelling.make(handshake=[(Name("a", ()), Name("b", ()))])
    term = Relabel(Prefix(act("a"), NIL), f)
    assert labels(term) == ["b"]


def test_emission_is_a_predicate_not_a_transition():
    engine = SosEngine(ENV)
    term = SignalEmit(Prefix(act("a"), NIL), Name("s", ()))
    assert engine.signals(term) == frozenset([Name("s", ())])
    assert labels(term) == ["a"]  # no transition labelled by the emission


def test_taking_an_action_drops_the_emission():
    engine = SosEngine(ENV)
    term = SignalEmit(Prefix(act("a"), NIL), Name("s", ()))
    (d,) = engine.transitions(term)
    assert engine.signals(d.target) == frozenset()


def test_signal_read_synchronizes_to_tau_with_emitter_unchanged():
    emitter = SignalEmit(Prefix(act("a"), NIL), Name("s", ()))
    reader = Prefix(sig("s"), NIL)
    engine = SosEngine(ENV)
    taus = [d for d in engine.transitions(Par(emitter, reader))
            if d.label.is_tau]
    assert len(taus) == 1
    assert taus[0].target == Par(emitter, NIL)  # emitter did not move
    # the emitter is not a participant; it is recorded as the signal source
    assert taus[0].participants == frozenset([("R",)])
    assert taus[0].signal_partner == ("L",)


def test_lone_reader_keeps_its_read_transition_visible():
    term = Par(Prefix(sig("s"), NIL), NIL)
    assert labels(term) == ["s"]


def test_emission_passes_sum_restriction_and_relabelling():
    engine = SosEngine(ENV)
    emitting = SignalEmit(NIL, Name("s", ()))
    assert engine.signals(Sum((emitting, NIL))) == frozenset([Name("s", ())])
    assert engine.signals(
        Restrict(emitting, frozenset([Name("s", ())]))) == frozenset()
    f = Relabelling.make(signal=[(Name("s", ()), Name("t", ()))])
    assert engine.signals(Relabel(emitting, f)) == frozenset([Name("t", ())])


def test_nested_emissions_accumulate():
    engine = SosEngine(ENV)
    term = SignalEmit(SignalEmit(NIL, Name("s", ())), Name("t", ()))
    assert engine.signals(term) == frozenset([Name("s", ()), Name("t", ())])


def test_emitters_reports_component_addresses():
    engine = SosEngine(ENV)
    term = Par(SignalEmit(NIL, Name("s", ())), NIL)
    ((name, address),) = engine.emitters(term)
    assert name == Name("s", ())
    assert address[0] == "L"


def test_identifier_unfolds_through_equations():
    env = Environment(signals=())
    env.define(Name("A", ()), Prefix(act("a"), Ident(Name("A", ()))))
    engine = SosEngine(env)
    (d,) = engine.transitions(Ident(Name("A", ())))
    assert str(d.label) == "a"
    assert d.target == Ident(Name("A", ()))


def test_one_walk_answers_transitions_emitters_and_signals(monkeypatch):
    spec = parse("signals { s }\nA = (a.0) ^ s\nsystem = A\n")
    resolved = []
    resolve = Environment.resolve
    monkeypatch.setattr(Environment, "resolve",
                        lambda env, name: resolved.append(name)
                        or resolve(env, name))
    engine = SosEngine(spec.env)
    term = Ident(Name("A", ()))
    (d,) = engine.transitions(term)
    ((name, address),) = engine.emitters(term)
    signals = engine.signals(term)
    assert (str(d.label), name, address) == ("a", Name("s", ()), ())
    assert signals == frozenset([Name("s", ())])
    assert resolved == [Name("A", ())]
    assert engine.signals(term) is signals


def test_unguarded_recursion_is_detected():
    env = Environment()
    env.define(Name("A", ()), Par(Ident(Name("A", ())), NIL))
    with pytest.raises(UnguardedRecursion):
        SosEngine(env).transitions(Ident(Name("A", ())))


def test_parsed_term_agrees_with_constructed_term():
    parsed = parse_term("(a.0 | 'a.0) \\ {a}", signals=())
    built = Restrict(Par(Prefix(act("a"), NIL), Prefix(coact("a"), NIL)),
                     frozenset([Name("a", ())]))
    assert parsed == built
    assert labels(parsed) == labels(built) == ["tau"]


def assert_memo_holds_leaves_only(env, root, samples=60):
    """Explore, then derive whole state terms on the same engine: the
    memo keeps no term with a Par, and a warm engine answers exactly as
    a cold one."""
    engine = SosEngine(env)
    lts = explore(env, root, engine=engine)
    step = max(1, lts.num_states // samples)
    for i in range(0, lts.num_states, step):
        whole = lts.term(i)
        warm = engine.transitions(whole), engine.emitters(whole)
        cold = SosEngine(env)
        assert warm == (cold.transitions(whole), cold.emitters(whole))
    assert not any(contains_par(t) for t in engine._memo)


@pytest.mark.parametrize("path", MODELS, ids=[p.name for p in MODELS])
def test_the_memo_keeps_leaves_only_on_the_bundled_models(path):
    spec = parse(path.read_bytes())
    assert_memo_holds_leaves_only(spec.env, spec.root)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_memo_keeps_leaves_only_on_random_terms(seed):
    root = _randterms.random_term(random.Random(seed), depth=4)
    assert_memo_holds_leaves_only(_randterms.ENV, root)
