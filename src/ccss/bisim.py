"""Strong bisimilarity on labelled transition systems.

States of a system with signals carry an emission set; the equivalence
refines by those sets first, so bisimilar states always emit exactly the
same signals.  The checker is round-based partition refinement by
transition signatures (Kanellakis-Smolka) over moves coded as ints.
Each round signs again only the predecessors of the states that changed
block in the round before (every other state keeps the signature its
block shared).  `_rounds` yields the rounds one at a time and keeps no
history: each round gives the block ids, updated in place, and the
block each state that moved in it left, which is all the evidence
needs of the round before.  A query about two states stops at the
round that separates them.

Each system is refined on its own at most once: `Lts.quotient` keeps its
partition as flat ints, the class of each state and the quotient's
deduplicated (label, class) moves and predecessors, and
`equivalence_classes` reads it.  `bisimilar(A, a, B, b)` refines A's
quotient together with B ("reduce, then compare").  A state is
bisimilar to its class, so it is k-step bisimilar to it for every k, and
the query separates its two states in the round that refining the two
full systems together would.  Two states of one system take the same
path, with the system as B.  The evidence is read from the separating
round and the two states' own moves in transition order, a's mapped
through the class map, so it is the evidence of the two full systems.
The tests compare every round with the reference that signs every state
of the two full systems every round, and the verdict with a naive
fixpoint oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import NamedTuple, Optional

from .lts import Lts


@dataclass(frozen=True)
class Distinction:
    """Evidence that two states differ: either their emission sets differ
    (`trace` is empty), or one side takes the label in `trace` into a
    class the other side cannot reach with that label."""

    trace: tuple  # () or (label,)
    reason: str


@dataclass
class BisimResult:
    equivalent: bool
    evidence: Optional[Distinction] = None

    def __bool__(self):
        return self.equivalent


def _rounds(moves, preds, signals):
    """Round-based partition refinement, one round at a time.  After each
    round yields the block id per state, as one list updated in place,
    and a dict `left` that maps each state that changed block in that
    round to the block it left, so a state's id in the round before is
    `left.get(s, blocks[s])`.

    Round 0 groups the states by emission set; its `left` is empty.  In
    each later round a state's signature is the set of its moves, each
    coded as label id * n + target block, read from the previous round's
    ids; a block splits into its groups of equal signatures.  Round 1
    signs every state.  A split keeps the old id for its largest group
    (Hopcroft's rule), so a state's id changes exactly when it leaves its
    block, into a new block, and as few states as possible do.  So after
    round 1 only a predecessor of a state that moved in the previous
    round has a new signature, one with a move into a new block; only
    those are signed again.  The other members of their block keep the
    signature the whole block shared, and stay together, apart from the
    signed ones.  The rounds are those of signing every state every
    round, up to the names of the blocks, and they end with the last
    round that splits a block.

    A signature is a frozenset of ints, which hashes and compares in C;
    it lives only while its block is signed."""
    ids = {}
    blocks = [ids.setdefault(key, len(ids)) for key in signals]
    members = [[] for _ in ids]
    for s, bid in enumerate(blocks):
        members[bid].append(s)
    yield blocks, {}
    touched = set()  # the states signed again; empty in round 1
    signed = dict(enumerate(members))
    while True:
        splits = []
        for bid, subset in signed.items():
            block = members[bid]
            if len(block) == 1:
                continue
            groups = {}
            for s in subset:
                sig = frozenset(
                    {code + blocks[tgt] for code, tgt in moves[s]})
                groups.setdefault(sig, []).append(s)
            groups = list(groups.values())
            if len(subset) < len(block):
                # the members not signed again keep the signature they
                # shared, which has no move into a new block
                groups.append([s for s in block if s not in touched])
            elif len(groups) == 1:
                continue
            splits.append((bid, groups))
        if not splits:
            return
        left = {}
        for bid, groups in splits:
            groups.sort(key=len, reverse=True)
            members[bid] = groups[0]
            for group in groups[1:]:
                new = len(members)
                members.append(group)
                for s in group:
                    blocks[s] = new
                    left[s] = bid
        yield blocks, left
        touched = {p for s in left for p in preds[s]}
        signed = {}
        for p in touched:
            signed.setdefault(blocks[p], []).append(p)


class Quotient(NamedTuple):
    """A system's bisimulation quotient, as flat int arrays.  Classes are
    numbered in order of their first state.  Class c's moves are entries
    move_start[c] to move_start[c + 1] of `move_label` (ids of
    `Lts.label_ids`) and `move_class`, one per distinct (label, target
    class) pair; its predecessors are entries pred_start[c] to
    pred_start[c + 1] of `preds`, one per move into it."""

    class_of: array  # state -> class
    first: array  # class -> its first state, which gives its emission set
    move_start: array
    move_label: array
    move_class: array
    pred_start: array
    preds: array


def quotient(lts: Lts) -> Quotient:
    """Refine the system alone and read its quotient; `Lts.quotient`
    keeps the result."""
    n = lts.num_states
    label_of = lts.label_ids[0]
    targets = lts.targets
    moves = [[(label_of[i] * n, targets[i]) for i in lts.outgoing(s)]
             for s in range(n)]
    preds = [[] for _ in range(n)]
    for s, out in enumerate(moves):
        for _, t in out:
            preds[t].append(s)
    for final, _ in _rounds(moves, preds, lts.state_signals):
        pass
    names = {}
    class_of = array("i", [names.setdefault(b, len(names)) for b in final])
    first = array("i")
    for s, c in enumerate(class_of):
        if c == len(first):
            first.append(s)
    move_start = array("i", [0])
    move_label, move_class = array("i"), array("i")
    into = [[] for _ in first]
    for c, s in enumerate(first):
        for label, d in sorted({(label_of[i], class_of[targets[i]])
                                for i in lts.outgoing(s)}):
            move_label.append(label)
            move_class.append(d)
            into[d].append(c)
        move_start.append(len(move_label))
    pred_start, flat = array("i", [0]), array("i")
    for ps in into:
        flat.extend(ps)
        pred_start.append(len(flat))
    return Quotient(class_of, first, move_start, move_label, move_class,
                    pred_start, flat)


def _quotient_input(lts: Lts, stride: int):
    """The refinement input of the system's quotient: per class its moves
    as (label id * stride, class) pairs, its predecessors and its emission
    set."""
    q = lts.quotient
    pairs = list(zip(map(mul, q.move_label, repeat(stride)), q.move_class))
    preds = q.preds.tolist()
    ends = zip(q.move_start, q.move_start[1:], q.pred_start, q.pred_start[1:])
    moves, into = [], []
    for lo, hi, plo, phi in ends:
        moves.append(pairs[lo:hi])
        into.append(preds[plo:phi])
    return moves, into, list(map(lts.state_signals.__getitem__, q.first))


def _own_moves(lts: Lts, state: int, stride: int) -> list:
    """The state's moves in transition order, as (label id * stride,
    target class) pairs."""
    label_of, targets = lts.label_ids[0], lts.targets
    class_of = lts.quotient.class_of
    return [(label_of[i] * stride, class_of[targets[i]])
            for i in lts.outgoing(state)]


def _explain(blocks, left, a: int, b: int, moves_a, moves_b, emitted,
             labels, stride: int) -> Distinction:
    """Why states a and b of a refinement are not bisimilar, read from the
    first round that separates them (its `blocks` and `left`, as
    `_rounds` yields them) and the two states' moves (label id * stride,
    target) in transition order.  In that round either their emission
    sets differ (round 0, whose `left` is empty; `emitted` is their
    symmetric difference), or one of them has a move with a label into a
    block of the round before that the other cannot match with a move of
    that label into the same block.  The evidence names that signal, or
    that one label: its trace is empty or holds the label alone."""
    if not left:
        name = sorted(map(str, emitted))[0]
        return Distinction((), f"emission of {name} differs")
    moves_a = [(code, left.get(t, blocks[t])) for code, t in moves_a]
    moves_b = [(code, left.get(t, blocks[t])) for code, t in moves_b]
    code = _unmatched(moves_a, moves_b)
    if code is None:
        code = _unmatched(moves_b, moves_a)
    label = labels[code // stride]
    return Distinction((label,), f"one side offers {label} into a class "
                                 f"the other cannot reach")


def _unmatched(moves, answers):
    """The label code of the first move no answer matches in label and
    block."""
    answers = set(answers)
    return next((code for code, block in moves
                 if (code, block) not in answers), None)


def bisimilar(lts_a: Lts, a: int, lts_b: Lts, b: int) -> BisimResult:
    """Decide strong bisimilarity of state a in lts_a and b in lts_b."""
    k = len(lts_a.quotient.first)
    qa, qb = lts_a.quotient.class_of[a], k + b
    stride = k + lts_b.num_states
    codes = dict(lts_a.label_ids[1])
    moves, preds, signals = _quotient_input(lts_a, stride)
    moves += [[] for _ in range(lts_b.num_states)]
    preds += [[] for _ in range(lts_b.num_states)]
    signals += lts_b.state_signals
    for t in lts_b.transitions:
        code = codes.setdefault(t.label, len(codes))
        moves[t.src + k].append((code * stride, t.tgt + k))
        preds[t.tgt + k].append(t.src + k)
    for blocks, left in _rounds(moves, preds, signals):
        if blocks[qa] != blocks[qb]:
            break
    else:
        return BisimResult(True)
    emitted = lts_a.state_signals[a] ^ lts_b.state_signals[b]
    return BisimResult(False, _explain(
        blocks, left, qa, qb, _own_moves(lts_a, a, stride), moves[qb],
        emitted, list(codes), stride))


def equivalence_classes(lts: Lts):
    """Blocks of bisimilar states of a single system, each in state order,
    in order of their first states."""
    groups = [[] for _ in lts.quotient.first]
    for s, c in enumerate(lts.quotient.class_of):
        groups[c].append(s)
    return groups
