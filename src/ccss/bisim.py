"""Strong bisimilarity on labelled transition systems.

States of a system with signals carry an emission set; the equivalence
refines by those sets first, so bisimilar states always emit exactly the
same signals.  The checker is round-based partition refinement by
transition signatures (Kanellakis-Smolka): each round signs again only
the blocks holding a predecessor of a state that changed block in the
round before, and a query about two states stops at the round that
separates them.  The rounds are kept, and the evidence for a distinction
is read from them.  The tests compare the refinement with the reference
that signs every state every round, and the verdict with a naive
fixpoint oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lts import Lts


@dataclass(frozen=True)
class Distinction:
    """Evidence that two states differ: after matching `trace`, one side
    can take `action` (or emits `signal`) and the other cannot answer."""

    trace: tuple  # of labels leading to the mismatching pair
    reason: str


@dataclass
class BisimResult:
    equivalent: bool
    evidence: Optional[Distinction] = None

    def __bool__(self):
        return self.equivalent


def _disjoint_union(lts_a: Lts, lts_b: Lts):
    """Merge two systems into one state list; b's ids are shifted."""
    shift = lts_a.num_states
    out = [[] for _ in range(shift + lts_b.num_states)]
    for t in lts_a.transitions:
        out[t.src].append((t.label, t.tgt))
    for t in lts_b.transitions:
        out[t.src + shift].append((t.label, t.tgt + shift))
    signals = list(lts_a.state_signals) + list(lts_b.state_signals)
    return out, signals, shift


def _refine(out, signals, a=None, b=None):
    """Round-based partition refinement.  Returns the final block id per
    state and one snapshot of the block ids per round (for evidence).

    Round 0 groups the states by emission set.  In each later round a
    state's signature is the set of its moves, each coded as label id * n
    + target block, read from the previous round's ids; a block splits
    into its groups of equal signatures.  Only blocks holding a
    predecessor of a state whose block id changed in the previous round
    can split, so only those are signed again (round 1 signs all).  A
    split keeps the old id for its first group, so a state's id changes
    exactly when it leaves its block.  The rounds are those of signing
    every state every round, up to the names of the blocks.  Given `a`
    and `b`, the refinement stops at the round that separates them.

    A signature is a tuple of ints, which hashes in C and which the
    garbage collector stops tracking, so refinement does not make it
    collect the whole heap over and over."""
    n = len(out)
    ids = {}
    block_of = [ids.setdefault(key, len(ids)) for key in signals]
    members = [[] for _ in ids]
    for s, bid in enumerate(block_of):
        members[bid].append(s)
    history = [list(block_of)]
    label_ids = {}
    moves = [[(label_ids.setdefault(label, len(label_ids)) * n, tgt)
              for label, tgt in out[s]] for s in range(n)]
    preds = [[] for _ in range(n)]
    for s in range(n):
        for _, tgt in out[s]:
            preds[tgt].append(s)
    touched = range(len(members))
    while a is None or block_of[a] == block_of[b]:
        splits = []
        for bid in touched:
            if len(members[bid]) == 1:
                continue
            groups = {}
            for s in members[bid]:
                sig = tuple(sorted(
                    {code + block_of[tgt] for code, tgt in moves[s]}))
                groups.setdefault(sig, []).append(s)
            if len(groups) > 1:
                splits.append((bid, list(groups.values())))
        if not splits:
            break
        moved = []
        for bid, (first, *rest) in splits:
            members[bid] = first
            for group in rest:
                new = len(members)
                members.append(group)
                for s in group:
                    block_of[s] = new
                moved.extend(group)
        history.append(list(block_of))
        touched = {block_of[p] for s in moved for p in preds[s]}
    return block_of, history


def _explain(out, signals, a, b, block_history):
    """A shortest reason why a and b were split, replayed through the
    refinement rounds from the round where they first diverge."""
    # find the first round in which a and b differ
    round_no = next(i for i, blocks in enumerate(block_history)
                    if blocks[a] != blocks[b])
    trace = []
    while round_no > 0:
        prev = block_history[round_no - 1]
        # some move from a cannot be matched into the same prev-block,
        # or vice versa; follow one such move and recurse a round down
        step = _unmatched_move(out, prev, a, b)
        if step is None:
            step = _unmatched_move(out, prev, b, a)
            a, b = b, a
        if step is None:  # split caused deeper; follow any matched pair
            for label, ta in out[a]:
                for lb, tb in out[b]:
                    if lb == label and prev[ta] == prev[tb] \
                            and block_history[round_no][ta] != block_history[round_no][tb]:
                        trace.append(label)
                        a, b = ta, tb
                        break
                else:
                    continue
                break
            else:
                break
            continue
        label, target = step
        trace.append(label)
        return Distinction(tuple(trace),
                           f"one side offers {label} into a class "
                           f"the other cannot reach")
    if signals[a] != signals[b]:
        only = signals[a] ^ signals[b]
        name = sorted(map(str, only))[0]
        return Distinction(tuple(trace), f"emission of {name} differs")
    return Distinction(tuple(trace), "no matching move")


def _unmatched_move(out, prev_blocks, a, b):
    for label, ta in out[a]:
        if not any(lb == label and prev_blocks[tb] == prev_blocks[ta]
                   for lb, tb in out[b]):
            return label, ta
    return None


def bisimilar(lts_a: Lts, a: int, lts_b: Lts, b: int) -> BisimResult:
    """Decide strong bisimilarity of state a in lts_a and b in lts_b."""
    out, signals, shift = _disjoint_union(lts_a, lts_b)
    b += shift
    final, history = _refine(out, signals, a, b)
    if final[a] == final[b]:
        return BisimResult(True)
    return BisimResult(False, _explain(out, signals, a, b, history))


def equivalence_classes(lts: Lts):
    """Blocks of bisimilar states of a single system."""
    out = [[] for _ in range(lts.num_states)]
    for t in lts.transitions:
        out[t.src].append((t.label, t.tgt))
    final, _ = _refine(out, list(lts.state_signals))
    groups = {}
    for s, bid in enumerate(final):
        groups.setdefault(bid, []).append(s)
    return list(groups.values())
