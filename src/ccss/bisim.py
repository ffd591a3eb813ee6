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

Each system is refined on its own at most once: `Lts.quotient` records
the rounds of refining it, with the signature of every group each round
signs, and reads the class of each state from the last round;
`equivalence_classes` reads the classes.  `bisimilar(A, a, B, b)`
refines A together with B.  The rounds of A's states in that refinement
never depend on B, so a query signs only B's states against A's record
(`_replay`): a signed state of B in a block of A's states joins the
group with its signature or starts a block of B's states.  Two states
of one system take the same path, with the system as B.  The evidence
is read from the separating round and the two states' own moves in
transition order.  The tests compare every round with the reference
that signs every state of the two systems every round, every replayed
round with `_rounds` on the two systems as one, and the verdict with a
naive fixpoint oracle.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
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


def _rounds(moves, preds, signals, sign=None):
    """Round-based partition refinement, one round at a time.  After each
    round yields the block id per state, as one list updated in place,
    and a dict `left` that maps each state that changed block in that
    round to the block it left, so a state's id in the round before is
    `left.get(s, blocks[s])`.

    Round 0 groups the states by emission set; its `left` is empty.  In
    each later round a state's signature is the set of its moves, each
    coded as label code + target block, read from the previous round's
    ids (the callers space the label codes so that the sums differ); a
    block splits into its groups of equal signatures.  Round 1
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

    A round signs its blocks of one state too.  With a function `sign`,
    before it splits it calls sign(block id, its signed members by
    signature, its members not signed or None) per block it signs; after
    it the groups' ids are those of their members.  The round after the
    last yielded one still signs, and splits nothing.

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
            groups = _signed(subset, moves, blocks)
            # the members not signed again keep the signature they
            # shared, which has no move into a new block
            rest = ([s for s in block if s not in touched]
                    if len(subset) < len(block) else None)
            if sign is not None:
                sign(bid, groups, rest)
            groups = list(groups.values())
            if rest:
                groups.append(rest)
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


def _signed(subset, moves, blocks) -> dict:
    """The states of `subset` grouped by signature: the frozenset of their
    moves' codes, each label code + target block."""
    groups = {}
    for s in subset:
        sig = frozenset({code + blocks[tgt] for code, tgt in moves[s]})
        groups.setdefault(sig, []).append(s)
    return groups


class Quotient(NamedTuple):
    """A system's bisimulation quotient and the rounds of refining the
    system on its own, recorded for `bisimilar`.  Classes are numbered in
    order of their first state.  With n states, a move with label id l
    into block d is coded l * n + 1 + d, and a signature is the set of its
    codes.  Round 0 puts state s in block start[s].  rounds[r - 1]
    records round r; the last one signs and splits nothing."""

    class_of: array  # state -> class
    start: array
    rounds: list  # of _Round


class _Round:
    """One recorded round: the states that change block in it (`moved`)
    and the blocks they move to (`new`); the blocks it signs, in
    increasing order (`signed`), and per such block the block its members
    not signed move to, or -1 when it signs every member (`rests`); and
    per signed block and signature of some of its members the block those
    members move to or stay in (`group`).  Group i has block blocks[i]
    and signature codes[starts[i]:starts[i + 1]], packed as machine ints
    of one width, the narrowest that holds every code, or as ints in a
    list when none does; `index` maps hash(signature) ^ block to the last
    group with that key, and chain[i] to the one before it, or -1.

    It is filled while `_rounds` signs the round (`sign`), with a member
    in place of each block id, and `close` reads the ids after it."""

    __slots__ = ("moved", "new", "signed", "rests", "index", "blocks",
                 "starts", "codes", "chain")

    def __init__(self, top: int):
        """An empty round whose codes are at most top."""
        self.signed, self.rests = array("i"), array("i")
        self.index, self.blocks, self.chain = {}, array("i"), array("i")
        self.starts = array("i", [0])
        self.codes = next((array(typecode) for typecode in "BHILQ"
                           if top < 1 << 8 * array(typecode).itemsize), [])

    def sign(self, bid: int, by_signature: dict, rest) -> None:
        """Record a block the round signs, as `_rounds` reports it."""
        self.signed.append(bid)
        self.rests.append(rest[0] if rest else -1)
        for sig, group in by_signature.items():
            key = hash(sig) ^ bid
            self.chain.append(self.index.get(key, -1))
            self.index[key] = len(self.blocks)
            self.blocks.append(group[0])
            self.codes.extend(sig)
            self.starts.append(len(self.codes))

    def close(self, blocks, left) -> "_Round":
        """Read the round's block ids from the blocks after it and the
        states that moved in it."""
        self.moved = array("i", left)
        self.new = array("i", map(blocks.__getitem__, self.moved))
        self.blocks = array("i", map(blocks.__getitem__, self.blocks))
        order = sorted(range(len(self.signed)), key=self.signed.__getitem__)
        self.signed = array("i", map(self.signed.__getitem__, order))
        self.rests = array("i", [-1 if self.rests[i] < 0
                                 else blocks[self.rests[i]] for i in order])
        return self

    def group(self, bid: int, sig: frozenset):
        """The block the round puts block bid's members with signature
        sig in, or None when the round signs none of them."""
        i = self.index.get(hash(sig) ^ bid, -1)
        while i >= 0:
            lo, hi = self.starts[i], self.starts[i + 1]
            if hi - lo == len(sig) and sig.issuperset(self.codes[lo:hi]):
                return self.blocks[i]  # sig has the hash, so bid is i's
            i = self.chain[i]
        return None

    def rest(self, bid: int):
        """The block the round puts block bid's members it did not sign
        in, or None for a new block when it signed every member."""
        i = bisect_left(self.signed, bid)
        if i == len(self.signed) or self.signed[i] != bid:
            return bid
        return self.rests[i] if self.rests[i] >= 0 else None


_PAST = _Round(0).close([], {})  # a round after the record's last one


def quotient(lts: Lts) -> Quotient:
    """Refine the system on its own, record its rounds and read its
    classes from the last one; `Lts.quotient` keeps the result."""
    n = lts.num_states
    label_of, labels = lts.label_ids
    targets = lts.targets
    # one int object per label code, shared by every move
    code_of = [label * n + 1 for label in range(len(labels))]
    moves = [[(code_of[label_of[i]], targets[i]) for i in lts.outgoing(s)]
             for s in range(n)]
    preds = [[] for _ in range(n)]
    for s, out in enumerate(moves):
        for _, t in out:
            preds[t].append(s)
    signals = lts.state_signals
    rounds = [_Round(len(labels) * n)]
    steps = _rounds(moves, preds, signals,
                    lambda *signed: rounds[-1].sign(*signed))
    blocks, _ = next(steps)
    start = array("i", blocks)
    for blocks, left in steps:
        rounds[-1].close(blocks, left)
        rounds.append(_Round(len(labels) * n))
    rounds[-1].close(blocks, {})
    names = {}
    class_of = array("i", [names.setdefault(b, len(names)) for b in blocks])
    return Quotient(class_of, start, rounds)


def _replay(lts_a: Lts, lts_b: Lts, codes: dict):
    """The rounds of refining A together with B, yielded as `_rounds`
    yields them, over A's n states followed by B's (B's state s is
    n + s): they are `_rounds`' rounds on that union up to the names of
    the blocks.  Only B's states are signed.  A's states take the blocks
    of the record in `Lts.quotient`, whose rounds are those of the union
    restricted to A, and a block holding states of A keeps their block
    id.  B's labels are coded by their ids in `codes`, A's label ids
    extended with B's other labels, so that a signature of B's moves into
    blocks holding states of A is coded as the record codes it.

    In a block holding states of A, a signed state of B joins A's group
    with its signature, or else a new block of B's states with that
    signature; its members that were not signed keep the signature they
    shared, so they go where the record's members not signed go, or to a
    new block when the record signed every member.  A block of B's states
    alone splits as in `_rounds`.  Its id is a positive multiple of
    (number of labels + 1) * n, so a code into it is greater than every
    code into a block holding states of A and the codes stay distinct."""
    rec = lts_a.quotient
    n = len(rec.start)
    moves = [()] * n + [[] for _ in range(lts_b.num_states)]
    preds = [()] * n + [[] for _ in range(lts_b.num_states)]
    code_of = {}
    for t in lts_b.transitions:  # B's caches would outlive the query
        code = code_of.get(t.label)
        if code is None:
            code = code_of[t.label] = (
                codes.setdefault(t.label, len(codes)) * n + 1)
        moves[n + t.src].append((code, n + t.tgt))
        preds[n + t.tgt].append(n + t.src)
    width = (len(codes) + 1) * n
    fresh = count(width, width)
    # one entry per round-0 block, read at its first state: round 0
    # numbers the blocks in order of their first states, and round 1
    # signs every block
    emitted, first = {}, -1
    for bid in range(len(rec.rounds[0].signed)):
        first = rec.start.index(bid, first + 1)
        emitted[lts_a.state_signals[first]] = bid
    blocks = rec.start.tolist()
    members = {}  # block id -> its states of B
    for e in lts_b.state_signals:
        bid = emitted.get(e)
        if bid is None:
            bid = emitted[e] = next(fresh)
        members.setdefault(bid, []).append(len(blocks))
        blocks.append(bid)
    yield blocks, {}
    touched = set()
    signed = dict(members)
    for number in count():
        record = (rec.rounds[number] if number < len(rec.rounds)
                  else _PAST)
        splits = []  # (block, [(block to move to or None, states)])
        for bid, subset in signed.items():
            block = members[bid]
            if bid < n:
                out = []
                for sig, group in _signed(subset, moves, blocks).items():
                    target = record.group(bid, sig)
                    if target != bid:
                        out.append((target, group))
                if len(subset) < len(block):
                    rest = record.rest(bid)
                    if rest != bid:
                        out.append((rest, [s for s in block
                                           if s not in touched]))
                if out:
                    splits.append((bid, out))
            elif len(block) > 1:
                out = list(_signed(subset, moves, blocks).values())
                if len(subset) < len(block):
                    out.append([s for s in block if s not in touched])
                elif len(out) == 1:
                    continue
                out.sort(key=len, reverse=True)
                members[bid] = out[0]
                splits.append((bid, [(None, group) for group in out[1:]]))
        for bid in record.signed:
            if bid in members and bid not in signed:
                rest = record.rest(bid)
                if rest != bid:
                    splits.append((bid, [(rest, members[bid])]))
        left = {}
        for bid, out in splits:
            for target, group in out:
                if target is None:
                    target = next(fresh)
                members[target] = group
                for s in group:
                    blocks[s] = target
                    left[s] = bid
            if bid < n:
                stay = [s for s in members[bid] if blocks[s] == bid]
                if stay:
                    members[bid] = stay
                else:
                    del members[bid]
        touched = {p for s in left for p in preds[s]}
        for s, bid in zip(record.moved, record.new):
            left[s] = blocks[s]
            blocks[s] = bid
        if not left:
            return
        yield blocks, left
        signed = {}
        for p in touched:
            signed.setdefault(blocks[p], []).append(p)


def _explain(blocks, left, a: int, b: int, moves_a, moves_b, emitted,
             labels) -> Distinction:
    """Why states a and b of a refinement are not bisimilar, read from the
    first round that separates them (its `blocks` and `left`, as
    `_rounds` yields them) and the two states' moves (label id, target)
    in transition order.  In that round either their emission sets differ
    (round 0, whose `left` is empty; `emitted` is their symmetric
    difference), or one of them has a move with a label into a block of
    the round before that the other cannot match with a move of that
    label into the same block.  The evidence names that signal, or that
    one label: its trace is empty or holds the label alone."""
    if not left:
        name = sorted(map(str, emitted))[0]
        return Distinction((), f"emission of {name} differs")
    moves_a = [(label, left.get(t, blocks[t])) for label, t in moves_a]
    moves_b = [(label, left.get(t, blocks[t])) for label, t in moves_b]
    label = _unmatched(moves_a, moves_b)
    if label is None:
        label = _unmatched(moves_b, moves_a)
    label = labels[label]
    return Distinction((label,), f"one side offers {label} into a class "
                                 f"the other cannot reach")


def _unmatched(moves, answers):
    """The label id of the first move no answer matches in label and
    block."""
    answers = set(answers)
    return next((label for label, block in moves
                 if (label, block) not in answers), None)


def bisimilar(lts_a: Lts, a: int, lts_b: Lts, b: int) -> BisimResult:
    """Decide strong bisimilarity of state a in lts_a and b in lts_b."""
    for side, lts, s in (("first", lts_a, a), ("second", lts_b, b)):
        if not 0 <= s < lts.num_states:
            raise ValueError(f"no state {s} in the {side} system")
    n = lts_a.num_states
    codes = dict(lts_a.label_ids[1])
    for blocks, left in _replay(lts_a, lts_b, codes):
        if blocks[a] != blocks[n + b]:
            break
    else:
        return BisimResult(True)
    label_of, targets = lts_a.label_ids[0], lts_a.targets
    own_a = [(label_of[i], targets[i]) for i in lts_a.outgoing(a)]
    own_b = [(codes[t.label], n + t.tgt) for t in lts_b.transitions
             if t.src == b]
    emitted = lts_a.state_signals[a] ^ lts_b.state_signals[b]
    return BisimResult(False, _explain(blocks, left, a, n + b, own_a, own_b,
                                       emitted, list(codes)))


def equivalence_classes(lts: Lts):
    """Blocks of bisimilar states of a single system, each in state order,
    in order of their first states."""
    groups = {}
    for s, c in enumerate(lts.quotient.class_of):
        groups.setdefault(c, []).append(s)
    return list(groups.values())
