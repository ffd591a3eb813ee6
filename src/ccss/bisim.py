"""Strong bisimilarity on labelled transition systems.

States of a system with signals carry an emission set; the equivalence
refines by those sets first, so bisimilar states always emit exactly the
same signals.  The checker is partition refinement by transition
signatures; the tests compare it with a naive fixpoint oracle.
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


def _refine(out, signals):
    """Signature-based partition refinement.  Returns the final block id
    per state and the per-round history (for evidence extraction).

    A state's signature is its block followed by the sorted set of its
    moves, each coded as label id * n + target block: a tuple of ints,
    which hashes in C and which the garbage collector stops tracking, so
    refinement does not make it collect the whole heap over and over."""
    n = len(out)
    blocks = {}
    block_of = []
    for s in range(n):
        key = signals[s]
        bid = blocks.setdefault(key, len(blocks))
        block_of.append(bid)
    label_ids = {}
    moves = [[(label_ids.setdefault(label, len(label_ids)) * n, tgt)
              for label, tgt in out[s]] for s in range(n)]
    history = [list(block_of)]
    while True:
        sig_ids = {}
        new = [0] * n
        for s in range(n):
            sig = (block_of[s], *sorted(
                {code + block_of[tgt] for code, tgt in moves[s]}))
            new[s] = sig_ids.setdefault(sig, len(sig_ids))
        if new == block_of:
            return block_of, history
        block_of = new
        history.append(list(block_of))


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
    final, history = _refine(out, signals)
    b += shift
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
