"""Strong bisimilarity: partition refinement, evidence, naive oracle."""

import random

from hypothesis import given, settings, strategies as st

from ccss.bisim import bisimilar, equivalence_classes
from ccss.lts import explore
from ccss.syntax import parse_term
from ccss.terms import Par, Sum

from _oracle import naive_bisimilar
from _randterms import ENV, SIGNALS, random_term


def _bisim(p, q):
    a = explore(ENV, p, max_states=5000)
    b = explore(ENV, q, max_states=5000)
    return bisimilar(a, a.initial, b, b.initial), a, b


def terms(text):
    return parse_term(text, signals=SIGNALS)


def test_choice_order_is_irrelevant():
    result, _, _ = _bisim(terms("a.0 + b.0"), terms("b.0 + a.0"))
    assert result.equivalent


def test_nondeterminism_is_observable():
    result, _, _ = _bisim(terms("a.(b.0 + c.0)"), terms("a.b.0 + a.c.0"))
    assert not result.equivalent


def test_distinction_evidence_names_the_unmatched_move():
    result, a, b = _bisim(terms("a.b.0"), terms("a.c.0"))
    assert not result.equivalent
    assert [str(x) for x in result.evidence.trace] == ["a"]
    assert "b" in result.evidence.reason or "c" in result.evidence.reason


def test_signal_sets_distinguish_states():
    result, _, _ = _bisim(terms("(a.0) ^ s"), terms("a.0"))
    assert not result.equivalent


def test_evidence_trace_is_replayable():
    result, a, b = _bisim(terms("a.(b.0 | c.0)"), terms("a.(b.c.0 + c.0)"))
    assert not result.equivalent
    state = a.initial
    for action in result.evidence.trace:
        succ = [a.transitions[i].tgt for i in a.outgoing(state)
                if a.transitions[i].label == action]
        assert succ, "trace must follow transitions present in the system"
        state = succ[0]


def test_equivalence_classes_partition_the_states():
    lts = explore(ENV, terms("a.b.0 + b.a.0"))
    classes = equivalence_classes(lts)
    assert sorted(s for c in classes for s in c) == list(range(lts.num_states))
    # the two b.0-after-a and the plain terminated states collapse per label
    assert len(classes) <= lts.num_states


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refinement_agrees_with_naive_fixedpoint(seed):
    rng = random.Random(seed)
    p = random_term(rng, depth=3)
    q = random_term(rng, depth=3)
    a = explore(ENV, p, max_states=5000)
    b = explore(ENV, q, max_states=5000)
    fast = bisimilar(a, a.initial, b, b.initial).equivalent
    slow = naive_bisimilar(a, a.initial, b, b.initial)
    assert fast == slow


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bisimilarity_is_reflexive_and_respects_par_swap(seed):
    rng = random.Random(seed)
    p = random_term(rng, depth=3)
    q = random_term(rng, depth=3)
    same, _, _ = _bisim(p, p)
    assert same.equivalent
    swapped, _, _ = _bisim(Par(p, q), Par(q, p))
    assert swapped.equivalent
