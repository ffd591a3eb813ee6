"""Strong bisimilarity on labelled transition systems.

States of a system with signals carry an emission set; the equivalence
refines by those sets first, so bisimilar states always emit exactly the
same signals.  The checker is round-based partition refinement by
transition signatures (Kanellakis-Smolka) over the systems' moves coded
as ints, read in one pass over their transitions.  Each round signs again
only the predecessors of the states that changed block in the round
before (every other state keeps the signature its block shared), and a
query about two states stops at the round that separates them.  The
rounds are kept, and the evidence for a distinction is read from the
last two of them and the two states' own int moves.  The tests compare
the refinement with the reference that signs every state every round,
and the verdict with a naive fixpoint oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def _refinement_input(*systems: Lts):
    """The systems as one state list, each system's ids shifted past the
    ones before it: per state its moves, as (label id * n, target) pairs
    of ints, its predecessors (one per transition into it), its emission
    set, and the labels by id.  The moves hold no label objects, so the
    garbage collector stops tracking them at its first young collection
    instead of moving them into the oldest generation."""
    n = sum(lts.num_states for lts in systems)
    moves = [[] for _ in range(n)]
    preds = [[] for _ in range(n)]
    label_ids = {}
    shift = 0
    for lts in systems:
        for t in lts.transitions:
            src, tgt = t.src + shift, t.tgt + shift
            code = label_ids.get(t.label)
            if code is None:
                code = label_ids[t.label] = len(label_ids) * n
            moves[src].append((code, tgt))
            preds[tgt].append(src)
        shift += lts.num_states
    signals = [e for lts in systems for e in lts.state_signals]
    return moves, preds, signals, list(label_ids)


def _refine(moves, preds, signals, a=None, b=None):
    """Round-based partition refinement.  Returns the final block id per
    state and one snapshot of the block ids per round (for evidence).

    Round 0 groups the states by emission set.  In each later round a
    state's signature is the set of its moves, each coded as label id * n
    + target block, read from the previous round's ids; a block splits
    into its groups of equal signatures.  Round 1 signs every state.  A
    split keeps the old id for its largest group (Hopcroft's rule), so a
    state's id changes exactly when it leaves its block, into a new
    block, and as few states as possible do.  So after round 1 only a
    predecessor of a state that moved in the previous round has a new
    signature, one with a move into a new block; only those are signed
    again.  The other members of their block keep the signature the
    whole block shared, and stay together, apart from the signed ones.
    The rounds are those of signing every state every round, up to the
    names of the blocks.  Given `a` and `b`, the refinement stops at the
    round that separates them.

    A signature is a frozenset of ints, which hashes and compares in C;
    it lives only while its block is signed."""
    ids = {}
    block_of = [ids.setdefault(key, len(ids)) for key in signals]
    members = [[] for _ in ids]
    for s, bid in enumerate(block_of):
        members[bid].append(s)
    history = [list(block_of)]
    touched = set()  # the states signed again; empty in round 1
    signed = dict(enumerate(members))
    while a is None or block_of[a] == block_of[b]:
        splits = []
        for bid, subset in signed.items():
            block = members[bid]
            if len(block) == 1:
                continue
            groups = {}
            for s in subset:
                sig = frozenset(
                    {code + block_of[tgt] for code, tgt in moves[s]})
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
            break
        moved = []
        for bid, groups in splits:
            groups.sort(key=len, reverse=True)
            members[bid] = groups[0]
            for group in groups[1:]:
                new = len(members)
                members.append(group)
                for s in group:
                    block_of[s] = new
                moved.extend(group)
        history.append(list(block_of))
        touched = {p for s in moved for p in preds[s]}
        signed = {}
        for p in touched:
            signed.setdefault(block_of[p], []).append(p)
    return block_of, history


def _explain(moves, labels, signals, a: int, b: int, history):
    """Why states a and b of the refinement input are not bisimilar, read
    from its rounds.  In the first round that separates the two states
    either their emission sets differ (round 0), or one of them has a
    move with a label into a block of the round before that the other
    cannot match with a move of that label into the same block.  The
    evidence names that signal, or that one label: its trace is empty
    or holds the label alone."""
    first = next(k for k, blocks in enumerate(history)
                 if blocks[a] != blocks[b])
    if first == 0:
        name = sorted(map(str, signals[a] ^ signals[b]))[0]
        return Distinction((), f"emission of {name} differs")
    prev = history[first - 1]
    moves_a = [(code, prev[t]) for code, t in moves[a]]
    moves_b = [(code, prev[t]) for code, t in moves[b]]
    code = _unmatched(moves_a, moves_b)
    if code is None:
        code = _unmatched(moves_b, moves_a)
    label = labels[code // len(moves)]
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
    shifted = b + lts_a.num_states
    moves, preds, signals, labels = _refinement_input(lts_a, lts_b)
    final, history = _refine(moves, preds, signals, a, shifted)
    if final[a] == final[shifted]:
        return BisimResult(True)
    return BisimResult(False, _explain(moves, labels, signals, a, shifted,
                                       history))


def equivalence_classes(lts: Lts):
    """Blocks of bisimilar states of a single system."""
    final, _ = _refine(*_refinement_input(lts)[:3])
    groups = {}
    for s, bid in enumerate(final):
        groups.setdefault(bid, []).append(s)
    return list(groups.values())
