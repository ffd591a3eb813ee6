"""State-space exploration, serialization, and the signal encoding."""

import dataclasses
import json
import pathlib

import pytest

from ccss.lts import (
    Lts, encode_signals_as_transitions, explore, export_dot, export_json,
)
from ccss.bisim import bisimilar
from ccss.terms import (
    Environment, NIL, Name, Par, Prefix, SignalEmit, act, coact, leaf_paths,
    sig, subterm_at,
)
from ccss.syntax import parse, parse_term, term_str
from ccss.verify import _sccs
from ccss import protocols

import _oracle
from _oracle import term_explore
from _randterms import ENV as RAND_ENV, GUARDED_MODELS, sample_terms

ENV = Environment(signals=("s",))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_explore_visits_all_reachable_states():
    term = parse_term("a.b.0 + b.0", signals=())
    lts = explore(Environment(), term)
    assert lts.num_states == 3
    assert len(lts.transitions) == 3
    assert not lts.truncated


def test_explore_respects_state_budget():
    env = Environment()
    env.define(Name("A", (0,)), Prefix(act("step"), NIL))
    # unbounded counter: A[k] = tick.A[k+1]
    from ccss.terms import Ident, Var
    env.define(Name("A", (Var("k", 0),)),
               Prefix(act("tick"), Ident(Name("A", (Var("k", 1),)))))
    lts = explore(env, Ident(Name("A", (1,))), max_states=10)
    assert lts.truncated
    assert lts.num_states == 10


def test_the_adjacency_is_derived_not_passed_in():
    assert [f.name for f in dataclasses.fields(Lts)] == [
        "states", "initial", "transitions", "state_signals", "truncated"]
    with pytest.raises(TypeError):
        Lts([], 0, [], [], False, [])
    lts = explore(Environment(), parse_term("a.b.0 + b.0", signals=()))
    assert [lts.outgoing(s) for s in range(lts.num_states)] == [
        [i for i, t in enumerate(lts.transitions) if t.src == s]
        for s in range(lts.num_states)]


def test_the_source_column_lists_each_transitions_source():
    env = Environment()
    env.define(Name("A", ()), parse_term("a.A + b.A", signals=()))
    twins = explore(env, parse_term("A | A", signals=()))
    systems = [twins] + [explore(RAND_ENV, term, max_states=200)
                         for term in sample_terms(40)]
    for lts in systems:
        assert lts.sources == [t.src for t in lts.transitions]
    # each state has both copies do a and both do b: every (source,
    # label, target) triple is two entries, one per moving copy
    triples = [(t.src, t.label, t.tgt) for t in twins.transitions]
    assert len(set(triples)) * 2 == len(triples)
    assert len({t.components for t in twins.transitions}) == 2
    # a system built from another's lists keeps its own columns
    model = protocols.example2()
    lts = explore(model.env, model.root)
    doubled = Lts(lts.states, lts.initial, lts.transitions * 2,
                  lts.state_signals)
    assert doubled.sources == lts.sources * 2
    assert len(lts.sources) == len(lts.transitions)


def test_state_signals_recorded_per_state():
    term = SignalEmit(Prefix(act("a"), NIL), Name("s", ()))
    lts = explore(ENV, term)
    assert lts.state_signals[lts.initial] == frozenset([Name("s", ())])
    tgt = lts.transitions[0].tgt
    assert lts.state_signals[tgt] == frozenset()


def test_json_round_trip_preserves_structure():
    model = protocols.example2()
    lts = explore(model.env, model.root)
    data = json.loads(export_json(lts))
    assert [s["term"] for s in data["states"]] == \
           [term_str(lts.term(i)) for i in range(lts.num_states)]
    assert data["initial"] == lts.initial
    assert [(t["src"], t["tgt"]) for t in data["transitions"]] == \
           [(t.src, t.tgt) for t in lts.transitions]
    assert [len(s["signals"]) for s in data["states"]] == \
           [len(emitted) for emitted in lts.state_signals]


def test_json_export_is_deterministic():
    model = protocols.example2()
    a = export_json(explore(model.env, model.root))
    b = export_json(explore(model.env, model.root))
    assert a == b
    json.loads(a)  # well-formed


def test_dot_export_mentions_every_transition():
    term = parse_term("a.0 | 'a.0", signals=())
    lts = explore(Environment(), term)
    dot = export_dot(lts)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(lts.transitions)


def test_encoding_turns_emissions_into_self_loops():
    term = SignalEmit(Prefix(act("a"), NIL), Name("s", ()))
    enc = encode_signals_as_transitions(explore(ENV, term))
    loops = [t for t in enc.transitions if t.src == t.tgt]
    assert len(loops) == 1
    assert loops[0].src == enc.initial
    assert all(s == frozenset() for s in enc.state_signals)


def test_encoded_signal_variable_matches_handshake_variable():
    """The signal-based shared variable and the handshake-based one are
    indistinguishable once emissions become co-name self-loops."""
    ex1 = protocols.example1()
    ex2 = protocols.example2()
    var1 = explore(ex1.env, ex1.root.body.left.left)
    var2 = explore(ex2.env, ex2.root.body.left.left)
    enc = encode_signals_as_transitions(var2)
    assert bisimilar(enc, enc.initial, var1, var1.initial).equivalent
    # without the encoding they differ: one emits, the other does not
    raw = bisimilar(var2, var2.initial, var1, var1.initial)
    assert not raw.equivalent
    assert "emi" in raw.evidence.reason or "signal" in raw.evidence.reason


def test_reader_self_loop_example_sizes():
    for model in (protocols.example1(), protocols.example2()):
        lts = explore(model.env, model.root)
        assert lts.num_states == 2
        assert len(lts.transitions) == 2


# -- the skeleton explorer against the whole-term reference ----------------

def assert_identical(env, root, max_states=1_000_000):
    """Same states, transitions (participants, signal partners and
    components included) and emissions, in the same order, truncated
    alike; and each state's shape holds its leaves and their addresses."""
    got = explore(env, root, max_states=max_states)
    want = term_explore(env, root, max_states=max_states)
    assert got.initial == want.initial
    assert got.truncated == want.truncated
    terms = [got.term(i) for i in range(got.num_states)]
    assert terms == want.states
    assert got.state_signals == want.state_signals
    assert got.transitions == want.transitions
    for term, (shape, leaves) in zip(terms, got.states, strict=True):
        assert shape.addresses == leaf_paths(term)
        assert leaves == tuple(subterm_at(term, p) for p in shape.addresses)


def benchmark_catalog(monkeypatch):
    """The models of the benchmark's verify catalog."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # importing the benchmark narrows the oracle's universe; keep ours
    monkeypatch.setattr(_oracle, "MAX_UNIVERSE", _oracle.MAX_UNIVERSE)
    import workloads
    return [workloads.build(generator, args, flavor)
            for _, generator, args, flavor in workloads.CATALOG]


def test_explore_matches_the_term_explorer_on_bundled_models(monkeypatch):
    sources = {path.read_text() for path in (ROOT / "models").glob("*.ccss")}
    sources |= {model.source for model in benchmark_catalog(monkeypatch)}
    for source in sorted(sources):
        spec = parse(source)
        for cap in (1_000_000, 1, 10, 100):
            assert_identical(spec.env, spec.root, cap)


def test_explore_matches_the_term_explorer_on_random_terms():
    # spawning under a prefix, emissions above a Par, relabelling and
    # restriction all occur among these terms; the narrow alphabet makes
    # handshakes and signal reads meet at one Par
    terms = sample_terms(200, depth=6) + sample_terms(200, alphabet=("a", "b"))
    for term in terms:
        for cap in (1_000_000, 1, 3, 10):
            assert_identical(RAND_ENV, term, cap)


def test_explore_matches_the_term_explorer_on_a_spawning_model():
    env = Environment()
    env.define(parse_term("Spawn", signals=()).name,
               parse_term("fork.(Spawn | W)", signals=()))
    env.define(parse_term("W", signals=()).name,
               parse_term("work.W", signals=()))
    for cap in (40, 1, 7, 39):
        assert_identical(env, parse_term("Spawn", signals=()), cap)


@pytest.mark.parametrize("source", [
    # two derivations of one leaf become equal under a relabelling: the
    # Par above removes the copy, a relabelling at the root keeps it
    "system = (a.0 + b.0)[b/a] | 'b.0\n",
    "system = ((a.0 + b.0) | c.0)[b/a]\n",
    "system = (((a.0 + b.0) | c.0)[b/a]) | 'b.0\n",
    # a root without a Par keeps both derivations too
    "system = (a.0 + b.0)[b/a]\n",
    # an identifier that unfolds to a Par, and emissions above a Par
    "A = a.0 | b.0\nsystem = A | 'a.0\n",
    "signals { s, t }\n"
    "system = (((a.0 ^ t | b.0) ^ s)[t/s] \\ {a}) | s.0 | t.'a.0 | a.0\n",
])
def test_explore_matches_the_term_explorer_on_edge_cases(source):
    spec = parse(source)
    for cap in (1_000, 1, 2, 3):
        assert_identical(spec.env, spec.root, cap)


@pytest.mark.parametrize("source", [
    # the counter ticks with a partner: both slots move
    "C[i] = sum k in 0..0 when i < 300 . tick.C[i+1]\nT = 'tick.T\n"
    "system = (C[0] | T) \\ {tick}\n",
    # the counter reads the other slot's signal: only the reader moves
    "signals { s }\nC[i] = sum k in 0..0 when i < 300 . s.C[i+1]\n"
    "E = (b.E) ^ s\nsystem = C[0] | E\n",
])
def test_explore_matches_the_term_explorer_past_256_leaves_in_a_slot(source):
    # a slot's 257th leaf term widens its skeleton's state keys
    spec = parse(source)
    lts = explore(spec.env, spec.root)
    assert len({leaves[0] for _, leaves in lts.states}) == 301
    for cap in (1_000, 256, 257, 258, 300):
        assert_identical(spec.env, spec.root, cap)


@pytest.mark.parametrize("source, states, transitions", GUARDED_MODELS)
def test_explore_matches_the_term_explorer_on_guarded_parameterised_sums(
        source, states, transitions):
    spec = parse(source)
    lts = explore(spec.env, spec.root)
    assert (lts.num_states, len(lts.transitions)) == (states, transitions)
    for cap in (1_000, 1, 2, 5):
        assert_identical(spec.env, spec.root, cap)


# -- no cycle changes a state's shape ---------------------------------------

def sccs_with_one_shape(lts):
    """The strongly connected components of the system, after checking
    that each one's states share one `Shape` (justness reads a cycle's
    shape and resting leaves from one of its states)."""
    every_edge = bytearray(b"\1" * len(lts.transitions))
    comps = list(_sccs(lts, every_edge, range(lts.num_states)))
    for comp in comps:
        assert len({lts.states[s].shape for s in comp}) == 1, comp
    return comps


def test_every_cycle_keeps_its_shape_on_bundled_models(monkeypatch):
    sources = {path.read_text() for path in (ROOT / "models").glob("*.ccss")}
    sources |= {model.source for model in benchmark_catalog(monkeypatch)}
    for source in sorted(sources):
        spec = parse(source)
        sccs_with_one_shape(explore(spec.env, spec.root))


@pytest.mark.parametrize("source, cap, shapes", [
    # the emission above the A's drops when one moves; S reads it meanwhile
    ("signals { s }\nA = a.A2\nA2 = b.A\nS = s.S2\nS2 = c.S\n"
     "system = ((A | A) ^ s) | S\n", 1_000, 2),
    # every fork spawns a Par (capped: the system grows without bound)
    ("P = fork.(P | W)\nW = work.W2\nW2 = rest.W\nsystem = P\n", 60, 9),
    # a restriction and a relabelling above a Par, and one beside it
    ("A = a.A2\nA2 = b.A\nsystem = ((A | 'a.A) \\ {a})[c/b] | A\n",
     1_000, 1),
])
def test_every_cycle_keeps_its_shape_on_hand_written_systems(source, cap,
                                                            shapes):
    spec = parse(source)
    lts = explore(spec.env, spec.root, max_states=cap)
    comps = sccs_with_one_shape(lts)
    assert any(len(comp) > 1 for comp in comps)
    assert len({state.shape for state in lts.states}) == shapes
