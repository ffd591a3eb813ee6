"""Acceptance suite: one test (and one PASS/FAIL line) per criterion.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines.  Each criterion carries the runtime budget it must stay within.
"""

import random
import time

import pytest

from ccss.bisim import bisimilar
from ccss.justness import Lasso, is_complete, is_just
from ccss.lts import encode_signals_as_transitions, explore
from ccss.sos import SosEngine
from ccss.syntax import parse_term
from ccss.terms import (
    Name, NIL, Par, Prefix, Relabel, Relabelling, Restrict, SignalEmit, Sum,
    act, canonical, leaf_paths,
)
from ccss.verify import check_liveness, check_safety
from ccss import protocols

from _lassos import enumerate_lassos
from _oracle import UniverseTooLarge, oracle_is_just
from _randterms import ENV as RAND_ENV, random_term, sample_terms


_RESULTS = {}


def _verdicts(key):
    """Shared, lazily computed model-checking runs (reused by criterion 9)."""
    if key not in _RESULTS:
        if key == "peterson-ccs-live":
            _RESULTS[key] = (protocols.peterson2("ccs"),
                             check_liveness(protocols.peterson2("ccs")))
        elif key == "peterson-ccss-live":
            _RESULTS[key] = (protocols.peterson2("ccss"),
                             check_liveness(protocols.peterson2("ccss")))
        elif key == "filter3-safe":
            m = protocols.filter_lock(3, "ccss")
            _RESULTS[key] = (m, check_safety(m))
        elif key == "filter3-live":
            m = protocols.filter_lock(3, "ccss")
            _RESULTS[key] = (m, check_liveness(m))
        elif key == "bakery-safe":
            m = protocols.bakery(2, ticket_bound=4, flavor="ccss")
            _RESULTS[key] = (m, check_safety(m))
        elif key == "bakery-live":
            m = protocols.bakery(2, ticket_bound=4, flavor="ccss")
            _RESULTS[key] = (m, check_liveness(m))
    return _RESULTS[key]


def _report(number, title, budget, started):
    elapsed = time.monotonic() - started
    print(f"\nPASS criterion {number}: {title} ({elapsed:.1f}s, "
          f"budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its budget"


def _reader_lasso(model):
    lts = explore(model.env, model.root)
    (loop,) = [i for i, t in enumerate(lts.transitions)
               if t.src == t.tgt == lts.initial]
    return lts, Lasso((), (loop,))


def test_criterion_1_handshake_example_exactness():
    started = time.monotonic()
    model = protocols.example1()
    lts = explore(model.env, model.root)
    assert lts.num_states == 2
    assert len(lts.transitions) == 2
    loops = [t for t in lts.transitions if t.src == t.tgt]
    others = [t for t in lts.transitions if t.src != t.tgt]
    assert len(loops) == 1 and loops[0].label.is_tau
    assert len(others) == 1 and others[0].label.is_tau
    assert not list(lts.outgoing(others[0].tgt))  # terminal state
    _report(1, "handshake shared-variable system has exactly two "
               "tau transitions", 1.0, started)


def test_criterion_2_signal_example_equivalence_and_justness_flip():
    started = time.monotonic()
    m1, m2 = protocols.example1(), protocols.example2()
    lts1, rho1 = _reader_lasso(m1)
    lts2, rho2 = _reader_lasso(m2)
    # identical transition structure
    shape = lambda lts: sorted((t.src, str(t.label), t.tgt)
                               for t in lts.transitions)
    assert shape(lts1) == shape(lts2)
    # the all-reads run flips from just to unjust
    v1 = is_just(lts1, m1.env, rho1)
    v2 = is_just(lts2, m2.env, rho2)
    assert v1.just
    assert not v2.just
    assert v2.witness.clause == "X ∩ Z̄_H ≠ ∅"
    _report(2, "signal variable keeps the transition system but makes the "
               "all-reads run unjust", 1.0, started)


def test_criterion_3_mutual_exclusion_safety_both_flavors():
    started = time.monotonic()
    for flavor in protocols.FLAVORS:
        verdict = check_safety(protocols.peterson2(flavor))
        assert verdict.holds, f"double occupancy in flavor {flavor}"
    _report(3, "two-process tie-breaker protocol never doubly occupies "
               "the critical section", 10.0, started)


def test_criterion_4_liveness_dichotomy_between_flavors():
    started = time.monotonic()
    model, ccs = _verdicts("peterson-ccs-live")
    assert ccs.status == "violated"
    lasso, justness = ccs.counterexample
    assert justness.just and justness.minimal_y == frozenset()
    lts = explore(model.env, model.root)
    assert is_complete(lts, model.env, lasso)
    _, ccss = _verdicts("peterson-ccss-live")
    assert ccss.status == "holds"
    assert ccss.exhaustive
    _report(4, "handshake flavor starves a process on an empty-bound just "
               "run; signal flavor is live, exhaustively", 60.0, started)


def test_criterion_5_three_process_filter_lock():
    started = time.monotonic()
    model, safety = _verdicts("filter3-safe")
    assert safety.holds
    _, liveness = _verdicts("filter3-live")
    assert liveness.status == "violated"
    assert "exhaustive" in liveness.to_json()  # bounded/exhaustive is stated
    lasso, justness = liveness.counterexample
    assert justness.just
    lts = explore(model.env, model.root)
    starved = next(r for r in model.roles if r.name == liveness.role)
    others = [r for r in model.roles if r.name != liveness.role]
    cycle_participants = {p for i in lasso.cycle
                          for p in lts.transitions[i].participants}
    # the starved process takes no transition anywhere in the cycle
    assert all(p[:len(starved.leaf)] != starved.leaf
               for p in cycle_participants)
    # while both other processes keep passing through their critical section
    cycle_labels = [str(lts.transitions[i].label) for i in lasso.cycle]
    for other in others:
        assert str(other.crit) in cycle_labels
    _report(5, "filter lock with three processes: exclusion holds, two "
               "processes alternate while the third starves on a just run",
            600.0, started)


def test_criterion_6_bounded_ticket_protocol():
    started = time.monotonic()
    _, safety = _verdicts("bakery-safe")
    assert safety.holds
    assert safety.excluded_states > 0  # ticket overflow states are set aside
    _, liveness = _verdicts("bakery-live")
    assert liveness.status == "holds"
    assert liveness.exhaustive
    _report(6, "ticket protocol with two processes and bound four: safe and "
               "live outside overflow, exhaustively", 600.0, started)


def _swap_rewrite(term):
    """A structurally different term known bisimilar to the input (first
    choice or parallel node found has its operands swapped)."""
    if isinstance(term, Par):
        return Par(term.right, term.left)
    if isinstance(term, Sum) and len(term.branches) >= 2:
        b = term.branches
        return Sum((b[-1],) + b[1:-1] + (b[0],))
    if isinstance(term, Prefix):
        return Prefix(term.action, _swap_rewrite(term.body))
    if isinstance(term, Restrict):
        return Restrict(_swap_rewrite(term.body), term.names)
    if isinstance(term, Relabel):
        return Relabel(_swap_rewrite(term.body), term.relabelling)
    if isinstance(term, SignalEmit):
        return SignalEmit(_swap_rewrite(term.body), term.signal)
    return term


def _lts(term, cap=30_000):
    out = explore(RAND_ENV, term, max_states=cap)
    assert not out.truncated
    return out


def _bisim(p, q):
    a, b = _lts(p), _lts(q)
    return bisimilar(a, a.initial, b, b.initial).equivalent


def test_criterion_7_algebraic_laws_on_random_terms():
    started = time.monotonic()
    terms = sample_terms(320)                      # depth <= 5
    small = sample_terms(180, seed=7, depth=3)     # for three-way products
    deep_pairs = list(zip(terms[0::2], terms[1::2]))
    assert len(terms) + len(small) >= 500
    checked = 0

    for p, q in deep_pairs[:90]:
        assert _bisim(Par(p, q), Par(q, p)), "| must be commutative"
        checked += 1
    for p, q, r in zip(small[0::3], small[1::3], small[2::3]):
        assert _bisim(Par(Par(p, q), r), Par(p, Par(q, r))), \
            "| must be associative"
        checked += 1
    s, t = Name("s", ()), Name("t", ())
    for p in terms[:90] + terms[280:]:
        lhs = SignalEmit(SignalEmit(p, s), t)
        rhs = SignalEmit(SignalEmit(p, t), s)
        assert _bisim(lhs, rhs), "signalling must be pseudo-commutative"
        checked += 1

    hole_contexts = [
        lambda h: Prefix(act("a"), h),
        lambda h: Sum((h, parse_term("'b.0", signals=()))),
        lambda h: Par(h, parse_term("a.0 + 'b.0", signals=())),
        lambda h: Restrict(h, frozenset([Name("a", ())])),
        lambda h: Relabel(h, Relabelling.make(
            handshake=[(Name("a", ()), Name("d", ()))])),
        lambda h: SignalEmit(h, Name("t", ())),
    ]
    congruent = 0
    for p in terms[90:150]:
        q = _swap_rewrite(p)
        if q == p:
            continue
        assert _bisim(p, q)
        for context in hole_contexts:
            assert _bisim(context(p), context(q)), \
                "bisimilarity must be a congruence"
            congruent += 1
        checked += 1
    assert congruent >= 100

    def encoded(term):
        return encode_signals_as_transitions(_lts(term))

    for p, q in deep_pairs[90:140]:
        for pair in ((p, q), (p, _swap_rewrite(p))):
            a, b = _lts(pair[0]), _lts(pair[1])
            plain = bisimilar(a, a.initial, b, b.initial).equivalent
            ea, eb = encoded(pair[0]), encoded(pair[1])
            after = bisimilar(ea, ea.initial, eb, eb.initial).equivalent
            assert plain == after, "encoding must preserve and reflect " \
                                   "bisimilarity"
            checked += 1
    assert checked >= 330
    _report(7, f"algebraic laws hold on {len(terms) + len(small)} random "
               f"terms ({checked} law instances, zero failures)", 300.0,
            started)


_ORACLE_SOURCES = [
    "a.0 | 'a.0",
    "(a.0 | 'a.0) \\ {a}",
    "(a.b.0 | 'b.0) | 'a.0",
    "(A | 'a.0) \\ {a}",
    "A | B",
    "(A | B) \\ {a}",
    "(A | B | C) \\ {a, b}",
    "((b.0) ^ s | s.s.0) \\ {s}",
    "((0) ^ s | s.0) \\ {s}",
    "(A ^ s | S) \\ {s}",
    "(A ^ s | S | B) \\ {s, a}",
    "((A | S) \\ {s})[c/b]",
    "(A[c/a] | 'c.C) \\ {c}",
    "(S | S | 'a.A) \\ {b}",
    "((a.0 | 'a.A) ^ s | s.S) \\ {a}",
]


def _oracle_env():
    from ccss.terms import Environment, Ident
    env = Environment(signals=("s",), blocking=("a", "b", "c", "s"))
    env.define(Name("A", ()), parse_term("a.A + b.0", signals=("s",)))
    env.define(Name("B", ()), parse_term("'a.B", signals=("s",)))
    env.define(Name("C", ()), parse_term("c.b.C", signals=("s",)))
    env.define(Name("S", ()), parse_term("s.S + c.0", signals=("s",)))
    return env


def test_criterion_8_bottom_up_verdicts_match_the_brute_force_oracle():
    started = time.monotonic()
    env = _oracle_env()
    engine = SosEngine(env)
    systems = [parse_term(src, signals=("s",)) for src in _ORACLE_SOURCES]
    rng = random.Random(20260826)
    while len(systems) < 40:
        term = random_term(rng, depth=4, alphabet=("a", "b", "c"),
                           signals=("s",))
        if 2 <= len(leaf_paths(canonical(env, term))) <= 3:
            systems.append(term)
    cache = {}
    compared = 0
    for system in systems:
        lts = explore(env, system, max_states=400, engine=engine)
        if lts.truncated:
            continue
        for lasso in enumerate_lassos(lts, max_stem=3, max_cycle=4):
            impl = is_just(lts, env, lasso, engine=engine).just
            try:
                oracle = oracle_is_just(lts, env, lasso, engine=engine,
                                        cache=cache)
            except UniverseTooLarge:
                continue
            assert impl == oracle, (system, lasso)
            compared += 1
    assert compared >= 10_000
    _report(8, f"bottom-up justness equals exhaustive set-assignment "
               f"enumeration on {compared} lassos across {len(systems)} "
               f"systems", 300.0, started)


def test_criterion_9_every_emitted_witness_replays():
    started = time.monotonic()
    import test_verify
    witnesses = []

    broken = test_verify.broken_model()
    safety = check_safety(broken)
    assert not safety.holds
    witnesses.append((broken, safety.witness))

    for key in ("peterson-ccs-live", "filter3-live"):
        model, verdict = _verdicts(key)
        assert verdict.status == "violated"
        witnesses.append((model, verdict.counterexample[0]))

    replayed = 0
    for model, lasso in witnesses:
        lts = explore(model.env, model.root)
        engine = SosEngine(model.env)
        lasso.validate(lts)
        for idx in lasso.stem + lasso.cycle:
            t = lts.transitions[idx]
            assert any(d.label == t.label and d.target == lts.term(t.tgt)
                       for d in engine.transitions(lts.term(t.src))), \
                f"transition {idx} does not replay from the rules"
        replayed += 1
    assert replayed == len(witnesses) == 3
    _report(9, f"{replayed}/{replayed} emitted witnesses replay through "
               "the operational rules", 60.0, started)
