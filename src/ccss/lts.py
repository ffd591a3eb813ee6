"""Labelled transition systems: exploration, encoding and export.

An explored state is its parallel shape and its leaf terms (`State`);
its canonical term is built on demand (`Lts.term`).  Every derivation
found by the semantics becomes its own transition entry, so a single
(source, label, target) triple can occur several times with different
provenance; each records the leaf slots it moves, so a transition index
names one derivation and justness reads the moving components from it.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .terms import (
    Action, COHANDSHAKE, Environment, HANDSHAKE, INTERNAL, Name, SIGNAL,
    TAU, Term, Par, Relabel, Restrict, SignalEmit, canonical, contains_par,
    STEP_LEFT, STEP_RIGHT, STEP_RESTRICT, STEP_RELABEL, STEP_EMIT,
)
from .sos import SosEngine
from .syntax import term_str

MAX_STATES = 1_000_000  # the default cap on explored states


@dataclass(slots=True)
class Transition:
    src: int
    label: Action
    tgt: int
    participants: frozenset = frozenset()
    signal_partner: Optional[tuple] = None
    # slots, in the source state's shape, of the components that move: a
    # signal read moves only the reader
    components: frozenset = frozenset()


@dataclass(frozen=True, eq=False)
class Shape:
    """A state's parallel skeleton: its post-order nodes (see below) and
    its leaf slots by address, both ways.  Explored states with the same
    skeleton share one object, so shapes compare by identity."""

    nodes: tuple
    addresses: tuple
    slots: dict

    def term(self, leaves, changes=()) -> Term:
        """The term with these leaves; with `changes` ((slot, term)
        pairs) applied, and every SignalEmit above a changed leaf dropped,
        as taking any action under an emission forgets it."""
        if changes:
            leaves = list(leaves)
            for slot, term in changes:
                leaves[slot] = term
        stack = []
        for node in self.nodes:
            kind = node[0]
            if kind == LEAF:
                stack.append(leaves[node[1]])
            elif kind == PAR:
                right = stack.pop()
                stack[-1] = Par(stack[-1], right)
            elif kind == RESTRICT:
                stack[-1] = Restrict(stack[-1], node[1])
            elif kind == RELABEL:
                stack[-1] = Relabel(stack[-1], node[1])
            elif not any(node[3] <= slot < node[4] for slot, _ in changes):
                stack[-1] = SignalEmit(stack[-1], node[1])
        return stack[0]


class State(NamedTuple):
    """An explored state: its shape and the terms at its leaf slots."""

    shape: Shape
    leaves: tuple


@dataclass
class Lts:
    states: list  # index -> State
    initial: int
    transitions: list  # of Transition
    state_signals: list  # index -> frozenset of Name
    truncated: bool = False

    def outgoing(self, state: int) -> list:
        """Indices into `transitions` of the state's outgoing transitions,
        in index order.  This is the one adjacency structure every graph
        walk over the system uses; it is built on first use."""
        return self._out[state]

    @cached_property
    def _out(self) -> list:
        out = [[] for _ in self.states]
        for i, t in enumerate(self.transitions):
            out[t.src].append(i)
        return out

    @cached_property
    def sources(self) -> list:
        """Each transition's source state, by index."""
        return [t.src for t in self.transitions]

    @cached_property
    def targets(self) -> list:
        """Each transition's target state, by index."""
        return [t.tgt for t in self.transitions]

    @cached_property
    def label_ids(self) -> tuple:
        """(each transition's label id, each label's id): equal labels
        share one id, numbered in order of first occurrence."""
        ids = {}
        return [ids.setdefault(t.label, len(ids))
                for t in self.transitions], ids

    @cached_property
    def quotient(self):
        """The system's bisimulation classes and the recorded rounds of
        refining it on its own (`bisim.Quotient`), built on first use by
        a bisimulation query or `equivalence_classes`."""
        from .bisim import quotient  # bisim imports this module
        return quotient(self)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def term(self, state: int) -> Term:
        """The state's whole term, built from its shape and leaves."""
        shape, leaves = self.states[state]
        return shape.term(leaves)


def explore(env: Environment, root: Term, max_states: int = MAX_STATES,
            engine: Optional[SosEngine] = None) -> Lts:
    """Breadth-first state-space construction from the root term.

    Each state is held as its parallel skeleton and the tuple of its
    leaves; the skeleton numbers each leaf term once per slot and finds
    its explored states by their leaf ids (`_Skeleton.key`).  A state's
    derivations are exactly those of `SosEngine.transitions` on the whole
    state term, in the same order.  A move's target is looked up by ids;
    its leaf tuple is built only when it is a new state, and a term only
    for a move that reshapes the skeleton."""
    engine = engine or SosEngine(env)
    split = _Splitter(engine)
    skel, leaves = split(canonical(env, root))
    ids = skel.ids(leaves)
    skel.index[skel.key(ids)] = 0
    states = [State(skel.shape, leaves)]
    signals = []  # filled as states are expanded, which is in id order
    transitions = []
    truncated = False
    queue = deque([(0, skel, ids)])
    while queue:
        sid, skel, ids = queue.popleft()
        emitted, derivations = skel.derivations(ids)
        signals.append(emitted)
        terms = skel.terms
        for label, changes, parts, partner, reshapes, comps in derivations:
            if reshapes:
                tskel, tleaves = split(skel.shape.term(
                    states[sid].leaves,
                    [(slot, terms[slot][i]) for slot, i in changes]))
                tids = tskel.ids(tleaves)
            else:
                tskel, tleaves, tids = skel, None, ids
                for slot, i in changes:
                    tids = tids[:slot] + (i,) + tids[slot + 1:]
            key = tskel.key(tids)
            tid = tskel.index.get(key)
            if tid is None:
                if len(states) >= max_states:
                    truncated = True
                    continue
                if tleaves is None:
                    tleaves = tuple([t[i] for t, i in zip(terms, tids)])
                tid = len(states)
                tskel.index[key] = tid
                states.append(State(tskel.shape, tleaves))
                queue.append((tid, tskel, tids))
            transitions.append(Transition(sid, label, tid, parts, partner,
                                          comps))
    return Lts(states, 0, transitions, signals, truncated)


# -- parallel skeletons -----------------------------------------------------
#
# A skeleton is the part of a state term above its leaves (the maximal
# parallel-free subterms at `leaf_paths`): the Par nodes and the
# Restrict, Relabel and SignalEmit nodes above a Par.  It is kept as a
# post-order list of nodes, which is both the program that rebuilds the
# term from its leaves and, up to the topmost Par, the walk that composes
# the state's derivations from its leaves' derivations.  The nodes are
# (LEAF, slot), (PAR, address), (RESTRICT, names), (RELABEL, relabelling)
# and (EMIT, signal, address, first slot below, slot after the last).

LEAF, PAR, RESTRICT, RELABEL, EMIT = range(5)


def _lift(label: Action, ops) -> Optional[Action]:
    """The label as seen above the Restrict/Relabel nodes `ops`
    (innermost first), or None when one of them restricts it."""
    for kind, arg in ops:
        if kind == RESTRICT:
            if not label.is_tau and label.name in arg:
                return None
        else:
            label = arg.apply(label)
    return label


class _Splitter:
    """Splits terms into (skeleton, leaves); one skeleton object per
    distinct skeleton, so that its caches and state index are shared by
    every state with that structure during one exploration."""

    def __init__(self, engine: SosEngine):
        self.engine = engine
        self.skeletons = {}
        self.ids = {}  # label or signal name -> small int, for matching
        self.label_ids = {}  # label -> (its id, the id it pairs with)
        self.sets = {}  # see `intern`

    def __call__(self, term: Term):
        nodes, leaves, slots, emitted = [], [], [], set()
        outer = None  # length of the chain above the topmost Par
        # (term, address, Restrict/Relabel chain root first, under a
        # SignalEmit), or a node to emit once its subtree is done
        stack = [(term, (), (), False)]
        while stack:
            item = stack.pop()
            if isinstance(item[0], int):
                nodes.append(item + (len(leaves),) if item[0] == EMIT
                             else item)
                continue
            term, path, chain, under_emit = item
            if isinstance(term, Par):
                if outer is None:
                    outer = len(chain)
                stack.append((PAR, path))
                stack.append((term.right, path + (STEP_RIGHT,), chain,
                              under_emit))
                stack.append((term.left, path + (STEP_LEFT,), chain,
                              under_emit))
            elif (isinstance(term, (Restrict, Relabel, SignalEmit))
                  and contains_par(term.body)):
                if isinstance(term, Restrict):
                    op, step = (RESTRICT, term.names), STEP_RESTRICT
                    inner = chain + (op,)
                elif isinstance(term, Relabel):
                    op, step = (RELABEL, term.relabelling), STEP_RELABEL
                    inner = chain + (op,)
                else:
                    op = (EMIT, term.signal, path, len(leaves))
                    step, inner, under_emit = STEP_EMIT, chain, True
                    top = _lift(Action(SIGNAL, term.signal), chain[::-1])
                    if top is not None:
                        emitted.add(top.name)
                stack.append(op)
                stack.append((term.body, path + (step,), inner, under_emit))
            else:
                nodes.append((LEAF, len(leaves)))
                leaves.append(term)
                top = outer or 0  # a leaf without a Par above is the root
                slots.append((path, chain[top:][::-1], chain[:top][::-1],
                              under_emit))
        key = tuple(nodes)
        skel = self.skeletons.get(key)
        if skel is None:
            skel = self.skeletons[key] = _Skeleton(
                key, tuple(slots), frozenset(emitted), self)
        return skel, tuple(leaves)

    def move(self, label, changes, parts, reshapes, comps) -> tuple:
        """A non-tau move as the walk holds it: (label id, id of what it
        synchronizes with, label, changes, participants, reshapes,
        components).  A handshake pairs with its complement, a signal
        read with an emission of its name."""
        pair = self.label_ids.get(label)
        if pair is None:
            want = label.complement() if label.kind != SIGNAL else label.name
            pair = self.label_ids[label] = (self._id(label), self._id(want))
        return pair + (label, changes, parts, reshapes, comps)

    def intern(self, items: frozenset) -> frozenset:
        """One object per distinct participant or component set."""
        return self.sets.setdefault(items, items)

    def emitter(self, name, address) -> tuple:
        return (self._id(name), name, address)

    def _id(self, item) -> int:
        return self.ids.setdefault(item, len(self.ids))


class _Skeleton:
    """One parallel skeleton: its leaf terms numbered per slot, a cache of
    what the walk needs of each (its derivations, moves and emitters,
    with absolute addresses), and the index of the explored states that
    have this skeleton, by the key of their leaf ids.

    A key is one byte per slot while every slot has at most 256 leaves,
    and four after that: the first id that does not fit a byte re-keys
    the whole index, so that every key in it has one width and no two
    leaf tuples share a key."""

    def __init__(self, nodes, slots, emitted, splitter: _Splitter):
        addresses = tuple(slot[0] for slot in slots)
        self.shape = Shape(nodes, addresses,
                           {a: i for i, a in enumerate(addresses)})
        pars = [i for i, node in enumerate(nodes) if node[0] == PAR]
        self.walk = nodes[:pars[-1] + 1] if pars else nodes
        self.has_par = bool(pars)
        # per slot: (address, Restrict/Relabel nodes between the leaf and
        # the topmost Par, those above the topmost Par, under a SignalEmit)
        self.slots = slots
        self.outer_relabels = tuple(op for op in slots[0][2]
                                    if op[0] == RELABEL)
        self.emitted = emitted  # root names of the skeleton's own emissions
        self.splitter = splitter
        self.leaf_ids = [{} for _ in slots]  # per slot: term -> id
        self.terms = [[] for _ in slots]  # per slot: id -> term
        self.leaf_cache = [[] for _ in slots]  # per slot: id -> `_leaf`
        self.index = {}  # key of the leaf ids -> state id
        self.key = bytes  # leaf ids -> key, until an id passes 255

    def ids(self, leaves) -> tuple:
        """The ids of these leaves, numbering the new ones."""
        return tuple([self._id(slot, term)
                      for slot, term in enumerate(leaves)])

    def _id(self, slot, term) -> int:
        i = self.leaf_ids[slot].get(term)
        if i is None:
            i = self.leaf_ids[slot][term] = len(self.terms[slot])
            self.terms[slot].append(term)
            self.leaf_cache[slot].append(None)
            if i == 256 and self.key is bytes:
                # a byte holds ids up to 255: re-key at four bytes a slot
                self.key = _wide_key
                self.index = {_wide_key(tuple(k)): sid
                              for k, sid in self.index.items()}
        return i

    def _leaf(self, slot, i) -> tuple:
        """What the walk needs of one leaf, by its id: (records of its
        derivations seen at the root, signal names seen at the root, its
        entry on the walk's stack: handshake moves, signal-read moves,
        emitters, handshake moves by label id and emitters by name id).

        A record is (label at the topmost Par, changes, participants,
        signal partner, reshapes, components), where changes are (slot,
        target id) pairs, `reshapes` marks a target whose skeleton differs
        and components is the set of slots that move."""
        cached = self.leaf_cache[slot][i]
        if cached is not None:
            return cached
        split, engine = self.splitter, self.splitter.engine
        term = self.terms[slot][i]
        path, inner, outer, under_emit = self.slots[slot]
        comps = split.intern(frozenset((slot,)))
        records, handshakes, reads = [], [], []
        for d in engine.transitions(term):
            parts = split.intern(frozenset(path + p for p in d.participants)
                                 if path else d.participants)
            partner = (None if d.signal_partner is None
                       else path + d.signal_partner)
            changes = ((slot, self._id(slot, d.target)),)
            reshapes = under_emit or contains_par(d.target)
            # without a Par the walk reads only the records
            if self.has_par and not d.label.is_tau:
                (reads if d.label.kind == SIGNAL else handshakes).append(
                    split.move(d.label, changes, parts, reshapes, comps))
            top = _lift(d.label, inner)
            if top is not None and _lift(top, outer) is not None:
                records.append((top, changes, parts, partner, reshapes,
                                comps))
        pairs = engine.emitters(term)
        lifted = [_lift(Action(SIGNAL, name), inner + outer)
                  for name, _ in pairs]
        names = frozenset(a.name for a in lifted if a is not None)
        emitters = [split.emitter(name, path + address)
                    for name, address in pairs]
        cached = self.leaf_cache[slot][i] = (records, names, (
            handshakes, reads, emitters, _index(handshakes),
            _index(emitters)))
        return cached

    def derivations(self, ids) -> tuple:
        """The signal names the state with these leaf ids emits, and its
        derivations as records, in the order and with the duplicates
        `SosEngine.transitions` gives for the whole state term; one walk
        reads each leaf once for both.

        The walk is `SosEngine._par` at each Par: left's derivations,
        right's, then handshakes, left reading right's signals and right
        reading left's, each matched by id.  A side that is one leaf
        brings its cached indexes of handshake moves and emitters by id;
        a wider side's are built at the Par.  Duplicates are removed once,
        at the topmost Par: removing them at inner Pars as well changes
        neither which derivations are kept nor their order."""
        if not self.has_par:
            leaf = self._leaf(0, ids[0])  # the whole term: keep duplicates
            return leaf[1], leaf[0]
        emitted = self.emitted
        out = []
        # per subtree: (handshake moves, signal-read moves, emitters,
        # handshake moves by label id, emitters by name id), labels and
        # names as seen at its root; the indexes of one leaf come from its
        # cache, a wider subtree has None and builds them when asked
        stack = []
        split, cache = self.splitter, self.leaf_cache
        for node in self.walk:
            kind = node[0]
            if kind == LEAF:
                slot = node[1]
                leaf = cache[slot][ids[slot]] or self._leaf(slot, ids[slot])
                if leaf[1]:
                    emitted = emitted | leaf[1]
                out.extend(leaf[0])
                stack.append(leaf[2])
            elif kind == PAR:
                rhs, rrd, remit, rhs_ids, remit_ids = stack.pop()
                lhs, lrd, lemit, _, lemit_ids = stack.pop()
                if lhs and rhs:
                    by_id = rhs_ids or _index(rhs)
                    for m in lhs:
                        if m[1] in by_id:
                            for p in by_id[m[1]]:
                                out.append((TAU, m[3] + p[3],
                                            split.intern(m[4] | p[4]), None,
                                            m[5] or p[5],
                                            split.intern(m[6] | p[6])))
                for readers, emitters, by_id in ((lrd, remit, remit_ids),
                                                 (rrd, lemit, lemit_ids)):
                    if readers and emitters:
                        by_id = by_id or _index(emitters)
                        for m in readers:
                            if m[1] in by_id:
                                for e in by_id[m[1]]:
                                    out.append((TAU, m[3], m[4], e[2], m[5],
                                                m[6]))
                stack.append((lhs + rhs, lrd + rrd, lemit + remit, None,
                              None))
            elif kind == EMIT:
                hs, rd, emitters, _, _ = stack.pop()
                stack.append((hs, rd, [split.emitter(*node[1:3])] + emitters,
                              None, None))
            else:
                hs, rd, emitters, _, _ = stack.pop()
                if kind == RESTRICT:
                    hidden = node[1]
                    hs = [m for m in hs if m[2].name not in hidden]
                    rd = [m for m in rd if m[2].name not in hidden]
                    emitters = [e for e in emitters if e[1] not in hidden]
                else:
                    f = node[1]
                    hs = [split.move(f.apply(m[2]), *m[3:]) for m in hs]
                    rd = [split.move(f.apply(m[2]), *m[3:]) for m in rd]
                    emitters = [split.emitter(f.apply_name(e[1], True), e[2])
                                for e in emitters]
                stack.append((hs, rd, emitters, None, None))
        out = list(dict.fromkeys(out))
        if self.outer_relabels:
            out = [(_lift(r[0], self.outer_relabels),) + r[1:] for r in out]
        return emitted, out


def _wide_key(ids) -> bytes:
    """A state key of four bytes per slot (`_Skeleton`)."""
    return array("I", ids).tobytes()


def _index(moves) -> dict:
    """Moves or emitters by their first field, their id."""
    by_id = {}
    for m in moves:
        by_id.setdefault(m[0], []).append(m)
    return by_id


def encode_signals_as_transitions(lts: Lts) -> Lts:
    """Replace signal emission by self-loops: every state that emits s
    gains a transition labelled with the output action 's at that state,
    and the emission sets become empty.  Signal-read labels stay as they
    are; in the encoded system they synchronize with the new loops by the
    ordinary handshake rule."""
    new_transitions = []
    for t in lts.transitions:
        label = t.label
        if label.kind == SIGNAL:
            label = Action(HANDSHAKE, label.name)
        new_transitions.append(Transition(t.src, label, t.tgt,
                                          t.participants, t.signal_partner,
                                          t.components))
    for sid, emitted in enumerate(lts.state_signals):
        for name in sorted(emitted, key=str):
            new_transitions.append(Transition(sid, Action(COHANDSHAKE, name), sid))
    return Lts(list(lts.states), lts.initial, new_transitions,
               [frozenset() for _ in lts.states], lts.truncated)


# -- serialization ----------------------------------------------------------

def _name_json(name: Name) -> dict:
    return {"base": name.base, "params": list(name.params)}


def _label_json(action: Action) -> dict:
    if action.is_tau:
        return {"kind": INTERNAL}
    return {"kind": action.kind, **_name_json(action.name)}


def export_json(lts: Lts) -> str:
    data = {
        "initial": lts.initial,
        "truncated": lts.truncated,
        "states": [
            {"id": i,
             "term": term_str(lts.term(i)),
             "signals": [_name_json(n) for n in sorted(lts.state_signals[i], key=str)]}
            for i in range(lts.num_states)
        ],
        "transitions": [
            {"src": t.src, "label": _label_json(t.label), "tgt": t.tgt,
             "participants": sorted("/".join(p) for p in t.participants),
             **({"signalPartner": "/".join(t.signal_partner)}
                if t.signal_partner is not None else {})}
            for t in lts.transitions
        ],
    }
    return json.dumps(data, indent=2)


def export_dot(lts: Lts) -> str:
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=circle];']
    for i in range(lts.num_states):
        emitted = lts.state_signals[i]
        extra = ("\\n^" + ",".join(str(n) for n in sorted(emitted, key=str))
                 if emitted else "")
        shape = ' peripheries=2' if i == lts.initial else ""
        lines.append(f'  s{i} [label="{_dot_escape(term_str(lts.term(i)))}{extra}"{shape}];')
    for t in lts.transitions:
        lines.append(f'  s{t.src} -> s{t.tgt} [label="{_dot_escape(str(t.label))}"];')
    lines.append("}")
    return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
