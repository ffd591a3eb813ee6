"""Strong bisimilarity: partition refinement, evidence, naive oracle."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ccss import bisim, protocols
from ccss.bisim import (
    BisimResult, _replay, _Round, _rounds, bisimilar, equivalence_classes,
)
from ccss.lts import Lts, Transition, explore
from ccss.syntax import parse_term
from ccss.terms import HANDSHAKE, Action, Name, Par, Sum

from _oracle import (
    _disjoint_union, naive_bisimilar, oracle_explain, oracle_refine,
    union_refinement_input,
)
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


# -- the refinement against the reference that signs every state --------

def _renamed(blocks):
    """Block ids renumbered in order of first appearance."""
    names = {}
    return [names.setdefault(b, len(names)) for b in blocks]


def _oracle_result(lts_a, a, lts_b, b):
    out, signals, shift = _disjoint_union(lts_a, lts_b)
    final, history = oracle_refine(out, signals)
    if final[a] == final[b + shift]:
        return BisimResult(True)
    return BisimResult(False, oracle_explain(out, signals, a, b + shift,
                                             history))


def _oracle_classes(lts):
    out = [[] for _ in range(lts.num_states)]
    for t in lts.transitions:
        out[t.src].append((t.label, t.tgt))
    final, _ = oracle_refine(out, list(lts.state_signals))
    groups = {}
    for s, bid in enumerate(final):
        groups.setdefault(bid, []).append(s)
    return list(groups.values())


def assert_encodes_the_union(lts_a, lts_b):
    """The reference int input of the two full systems, which the quotient
    path is held to, is their union: per state the same moves in the same
    order, with one code (a multiple of the state count) per label, which
    the label list decodes, and one predecessor entry per transition into
    the state."""
    out, signals, _ = _disjoint_union(lts_a, lts_b)
    moves, preds, own_signals, labels = union_refinement_input(lts_a,
                                                               lts_b)
    n = len(out)
    assert own_signals == signals
    assert len(moves) == len(preds) == n
    code_of = {}
    for s in range(n):
        assert [t for _, t in moves[s]] == [t for _, t in out[s]]
        for (label, _), (code, _) in zip(out[s], moves[s]):
            assert code % n == 0
            assert code_of.setdefault(label, code) == code
            assert labels[code // n] == label
    assert len(set(code_of.values())) == len(code_of) == len(labels)
    want_preds = [[] for _ in range(n)]
    for s in range(n):
        for _, t in out[s]:
            want_preds[t].append(s)
    assert [sorted(p) for p in preds] == want_preds
    return moves, preds, own_signals


def _snapshots(steps):
    """Each round's blocks, copied, after checking that its `left` names
    exactly the states that changed block in it, each with its block of
    the round before."""
    got = []
    for blocks, left in steps:
        before = got[-1] if got else blocks
        assert left == {s: old for s, old in enumerate(before)
                        if old != blocks[s]}
        got.append(list(blocks))
    return got


def assert_replays_the_union(lts_a, lts_b):
    """Every round that `bisimilar` replays is the round of refining A
    together with B as one system, up to renaming; its `left` names
    exactly the states that changed block; and the rounds end
    together."""
    moves, preds, signals, _ = union_refinement_input(lts_a, lts_b)
    want = _snapshots(_rounds(moves, preds, signals))
    got = _snapshots(_replay(lts_a, lts_b, dict(lts_a.label_ids[1])))
    assert len(got) == len(want)
    assert [_renamed(r) for r in got] == [_renamed(r) for r in want]


def assert_refines_like_the_oracle(lts_a, lts_b, pairs):
    """Every round of the full refinement is the reference's round up to
    renaming, and its `left` names exactly the states that changed block
    in it, each with its block of the round before; the replayed rounds
    are those of the two systems as one; a query gives the reference's
    result and evidence."""
    out, signals, _ = _disjoint_union(lts_a, lts_b)
    _, want = oracle_refine(out, signals)
    got = _snapshots(_rounds(*assert_encodes_the_union(lts_a, lts_b)))
    assert len(got) == len(want)
    assert [_renamed(r) for r in got] == [_renamed(r) for r in want]
    assert_replays_the_union(lts_a, lts_b)
    for a, b in pairs:
        assert bisimilar(lts_a, a, lts_b, b) == _oracle_result(
            lts_a, a, lts_b, b)
    assert equivalence_classes(lts_a) == _oracle_classes(lts_a)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refinement_rounds_match_the_reference_on_random_terms(seed):
    rng = random.Random(seed)
    depth = rng.choice((3, 4))
    a = explore(ENV, random_term(rng, depth=depth), max_states=5000)
    b = explore(ENV, random_term(rng, depth=depth), max_states=5000)
    pairs = [(a.initial, b.initial)] + [
        (rng.randrange(a.num_states), rng.randrange(b.num_states))
        for _ in range(3)]
    assert_refines_like_the_oracle(a, b, pairs)


def _copy(rng, lts, kind):
    """The system with states and transitions shuffled; `fresh` also
    relabels one transition to an action used nowhere, `relabelled` to
    another label the system uses."""
    perm = list(range(lts.num_states))
    rng.shuffle(perm)
    states, signals = [None] * len(perm), [None] * len(perm)
    for old, new in enumerate(perm):
        states[new] = lts.states[old]
        signals[new] = lts.state_signals[old]
    trans = [Transition(perm[t.src], t.label, perm[t.tgt], t.participants,
                        t.signal_partner) for t in lts.transitions]
    rng.shuffle(trans)
    if kind != "shuffled":
        k = rng.randrange(len(trans))
        t = trans[k]
        others = sorted({u.label for u in trans} - {t.label}, key=str)
        label = (Action(HANDSHAKE, Name("fresh", ())) if kind == "fresh"
                 else rng.choice(others))
        trans[k] = Transition(t.src, label, t.tgt, t.participants,
                              t.signal_partner)
    return Lts(states, perm[lts.initial], trans, signals, lts.truncated)


@pytest.mark.parametrize("kind", ["shuffled", "fresh", "relabelled"])
@pytest.mark.parametrize("maker", [
    lambda: protocols.filter_lock(2, "ccss"),
    lambda: protocols.filter_lock(2, "ccs"),
    lambda: protocols.peterson2("ccss"),
    lambda: protocols.peterson2("ccs"),
], ids=["filter2-ccss", "filter2-ccs", "peterson2-ccss", "peterson2-ccs"])
def test_refinement_rounds_match_the_reference_on_model_copies(maker, kind):
    model = maker()
    lts = explore(model.env, model.root)
    for seed in range(3):
        rng = random.Random(seed)
        copy = _copy(rng, lts, kind)
        pairs = [(lts.initial, copy.initial)] + [
            (rng.randrange(lts.num_states), rng.randrange(copy.num_states))
            for _ in range(5)]
        assert_refines_like_the_oracle(lts, copy, pairs)


@pytest.mark.parametrize("flavor", ["ccss", "ccs"])
def test_an_isomorphic_copy_replays_in_the_rounds_of_the_record(flavor):
    """peterson2's record ends with a round that signs and splits
    nothing, and in some round the members a block did not sign move to a
    new block, so a replay needs both; against a shuffled copy it takes
    round 0 and the record's splitting rounds, the rounds of the system
    together with the copy."""
    model = protocols.peterson2(flavor)
    lts = explore(model.env, model.root)
    rec = lts.quotient
    for seed in range(3):
        copy = _copy(random.Random(seed), lts, "shuffled")
        replayed = _replay(lts, copy, dict(lts.label_ids[1]))
        assert len(_snapshots(replayed)) == len(rec.rounds)
        assert_replays_the_union(lts, copy)
    assert not rec.rounds[-1].moved and len(rec.rounds[-1].blocks)
    assert any(rest not in (bid, -1) for r in rec.rounds
               for bid, rest in zip(r.signed, r.rests))


def test_a_split_block_keeps_its_id_for_its_largest_group():
    """Hopcroft's rule: round 1 splits the one block of six states into
    groups of 1, 3 and 2 states, met in that order; the group of 3 keeps
    id 0, and the others take new ids, the larger group first.  Round 2
    signs the predecessors of the moved states and splits nothing."""
    a, b = 10, 20  # label codes; a move's code is label code + block
    moves = [[], [(a, 0)], [(a, 0)], [(a, 0)], [(b, 0)], [(b, 0)]]
    preds = [[1, 2, 3, 4, 5], [], [], [], [], []]
    rounds = [(list(blocks), dict(left))
              for blocks, left in _rounds(moves, preds, [frozenset()] * 6)]
    assert rounds == [([0] * 6, {}),
                      ([2, 0, 0, 0, 1, 1], {0: 0, 4: 0, 5: 0})]


@pytest.mark.parametrize("top", [3, 255, 256, 2**16, 2**32 - 1, 2**32,
                                 2**64 - 1, 2**64, 2**200])
def test_a_recorded_round_finds_exactly_its_signatures(top):
    """Codes are kept at the narrowest machine width that holds `top`, or
    as ints when none does, so a signature is found only in its own block
    and only when every code is equal."""
    sigs = {frozenset({top}): [0], frozenset(): [1],
            frozenset({1, top}): [2]}
    record = _Round(top)
    record.sign(3, sigs, None)
    record.sign(1, {frozenset({top}): [3]}, [4])
    record.close([7, 8, 9, 10, 11], {})
    assert [record.group(3, sig) for sig in sigs] == [7, 8, 9]
    assert record.group(1, frozenset({top})) == 10
    assert record.rest(1) == 11 and record.rest(3) is None
    assert record.rest(2) == 2
    for wrong in ({1}, {top - 1}, {top - 1, top}, {1, top - 1}):
        assert record.group(3, frozenset(wrong)) is None
    assert record.group(2, frozenset({top})) is None


def test_groups_whose_keys_collide_are_each_found(monkeypatch):
    """Every signature hashes alike here, so the groups of one block share
    a key and are told apart by their codes."""
    monkeypatch.setattr(bisim, "hash", lambda sig: 5, raising=False)
    sigs = {frozenset({1, 2}): [0], frozenset({1}): [1], frozenset(): [2]}
    record = _Round(2)
    record.sign(0, sigs, None)
    record.close([4, 5, 6], {})
    assert [record.group(0, sig) for sig in sigs] == [4, 5, 6]
    assert record.group(0, frozenset({2})) is None


def test_the_record_of_filter3_keeps_at_most_400_bytes_per_class():
    """The largest system the queries workload asks about: the bytes its
    quotient keeps, classes and record, traced around building it, per
    class.  A full collection before reading empties the interpreter's
    free lists, which would otherwise count up to 2,000 freed move tuples
    as kept."""
    model = protocols.filter_lock(3, "ccss")
    lts = explore(model.env, model.root)
    lts.label_ids, lts.targets, lts.outgoing(lts.initial)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        q = lts.quotient
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    classes = len(set(q.class_of))
    assert classes == 621
    assert kept <= 400 * classes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_states_of_one_system_give_the_reference_result(seed):
    rng = random.Random(seed)
    lts = explore(ENV, random_term(rng, depth=4), max_states=5000)
    class_of = {s: k for k, block in enumerate(equivalence_classes(lts))
                for s in block}
    for _ in range(5):
        p, q = rng.randrange(lts.num_states), rng.randrange(lts.num_states)
        result = bisimilar(lts, p, lts, q)
        assert result == _oracle_result(lts, p, lts, q)
        assert result.equivalent == (class_of[p] == class_of[q])


def test_a_state_outside_its_system_is_refused():
    """A negative state would index the other system's side of the
    union, and one past the end would fail deep in the replay."""
    _, a, b = _bisim(terms("a.b.0"), terms("a.c.0"))
    assert a.num_states == b.num_states == 3
    for p, q, message in ((-1, 0, "no state -1 in the first system"),
                          (3, 0, "no state 3 in the first system"),
                          (0, -3, "no state -3 in the second system"),
                          (0, 3, "no state 3 in the second system")):
        with pytest.raises(ValueError, match=message):
            bisimilar(a, p, b, q)


# -- the quotient each system keeps --------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_cached_quotient_is_the_reference_partition(seed):
    """Classes are numbered by their first states and are the reference's
    blocks."""
    rng = random.Random(seed)
    lts = explore(ENV, random_term(rng, depth=rng.choice((3, 4))),
                  max_states=5000)
    q = lts.quotient
    assert lts.quotient is q
    classes = _oracle_classes(lts)
    assert equivalence_classes(lts) == classes
    assert all(q.class_of[s] == c for c, block in enumerate(classes)
               for s in block)


@pytest.mark.parametrize("maker", [
    lambda: protocols.filter_lock(2, "ccss"),
    lambda: protocols.peterson2("ccs"),
], ids=["filter2-ccss", "peterson2-ccs"])
def test_many_queries_against_one_cached_system_give_the_reference_results(
        maker):
    model = maker()
    lts = explore(model.env, model.root)
    rng = random.Random(11)
    cached = lts.quotient
    for kind in ("shuffled", "fresh", "relabelled") * 3:
        copy = _copy(rng, lts, kind)
        pairs = [(lts.initial, copy.initial)] + [
            (rng.randrange(lts.num_states), rng.randrange(copy.num_states))
            for _ in range(6)]
        for a, b in pairs:
            assert bisimilar(lts, a, copy, b) == _oracle_result(lts, a,
                                                                copy, b)
        assert lts.quotient is cached
        assert "quotient" not in vars(copy)


def test_a_system_queried_second_then_first_gives_the_reference_results():
    model = protocols.peterson2("ccss")
    lts = explore(model.env, model.root)
    rng = random.Random(5)
    for kind in ("shuffled", "relabelled"):
        other = _copy(rng, lts, kind)
        pairs = [(lts.initial, other.initial)] + [
            (rng.randrange(lts.num_states), rng.randrange(other.num_states))
            for _ in range(8)]
        for a, b in pairs:
            assert bisimilar(other, b, lts, a) == _oracle_result(other, b,
                                                                 lts, a)
        for a, b in pairs:
            assert bisimilar(lts, a, other, b) == _oracle_result(lts, a,
                                                                 other, b)
        assert equivalence_classes(other) == _oracle_classes(other)


def test_an_lts_built_from_another_ones_lists_keeps_its_own_quotient():
    """A system shares the other's state and signal lists but not its
    cache: one relabelled transition gives it its own classes."""
    model = protocols.filter_lock(2, "ccs")
    lts = explore(model.env, model.root)
    assert equivalence_classes(lts) == _oracle_classes(lts)
    twin = Lts(lts.states, lts.initial, lts.transitions, lts.state_signals)
    assert "quotient" not in vars(twin)
    assert twin.quotient is not lts.quotient
    assert equivalence_classes(twin) == equivalence_classes(lts)
    trans = list(lts.transitions)
    t = trans[0]
    trans[0] = Transition(t.src, Action(HANDSHAKE, Name("fresh", ())),
                          t.tgt, t.participants, t.signal_partner)
    changed = Lts(lts.states, lts.initial, trans, lts.state_signals)
    assert equivalence_classes(changed) == _oracle_classes(changed)
    assert equivalence_classes(changed) != equivalence_classes(lts)
    assert bisimilar(changed, t.src, lts, t.src) == _oracle_result(
        changed, t.src, lts, t.src)
    assert not bisimilar(changed, t.src, lts, t.src)
