"""Labelled transition systems: exploration, encoding, export and import.

An explored state is its parallel shape and its leaf terms (`State`);
its canonical term is built on demand (`Lts.term`).  Every derivation
found by the semantics becomes its own transition entry, so a single
(source, label, target) triple can occur several times with different
provenance; each records the leaf slots it moves, for justness.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .terms import (
    Action, COHANDSHAKE, Environment, HANDSHAKE, INTERNAL, Name, SIGNAL,
    TAU, Term, Par, Relabel, Restrict, SignalEmit, canonical, contains_par,
    STEP_LEFT, STEP_RIGHT, STEP_RESTRICT, STEP_RELABEL, STEP_EMIT,
)
from .sos import SosEngine


@dataclass(frozen=True)
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
    states: list  # index -> State (or opaque key for imported systems)
    initial: int
    transitions: list  # of Transition
    state_signals: list  # index -> frozenset of Name
    truncated: bool = False
    _out: Optional[list] = None

    def outgoing(self, state: int) -> list:
        """Indices into `transitions` of the state's outgoing transitions,
        in index order.  This is the one adjacency structure every graph
        walk over the system uses; it is built on first use."""
        if self._out is None:
            out = [[] for _ in self.states]
            for i, t in enumerate(self.transitions):
                out[t.src].append(i)
            self._out = out
        return self._out[state]

    @property
    def num_states(self) -> int:
        return len(self.states)

    def term(self, state: int):
        """The state's term, or the key an imported system stored."""
        s = self.states[state]
        return s.shape.term(s.leaves) if isinstance(s, State) else s


def explore(env: Environment, root: Term, max_states: int = 1_000_000,
            engine: Optional[SosEngine] = None) -> Lts:
    """Breadth-first state-space construction from the root term.

    Each state is held as its parallel skeleton and the tuple of its
    leaves; its derivations are exactly those of
    `SosEngine.transitions` on the whole state term, in the same order.
    A term is built only for a move that reshapes the skeleton."""
    engine = engine or SosEngine(env)
    split = _Splitter(engine)
    skel, leaves = split(canonical(env, root))
    skel.index[leaves] = 0
    states = [State(skel.shape, leaves)]
    signals = []  # filled as states are expanded, which is in id order
    transitions = []
    truncated = False
    queue = deque([(0, skel)])
    while queue:
        sid, skel = queue.popleft()
        leaves = states[sid].leaves
        emitted, derivations = skel.derivations(leaves)
        signals.append(emitted)
        for label, changes, parts, partner, reshapes, comps in derivations:
            if reshapes:
                tskel, tleaves = split(skel.shape.term(leaves, changes))
            else:
                tskel, tleaves = skel, leaves
                for slot, term in changes:
                    tleaves = tleaves[:slot] + (term,) + tleaves[slot + 1:]
            tid = tskel.index.get(tleaves)
            if tid is None:
                if len(states) >= max_states:
                    truncated = True
                    continue
                tid = len(states)
                tskel.index[tleaves] = tid
                states.append(State(tskel.shape, tleaves))
                queue.append((tid, tskel))
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


def _lift_name(name: Name, ops) -> Optional[Name]:
    """The emitted signal name as seen above `ops`, or None."""
    for kind, arg in ops:
        if kind == RESTRICT:
            if name in arg:
                return None
        else:
            name = arg.apply_name(name, True)
    return name


class _Splitter:
    """Splits terms into (skeleton, leaves); one skeleton object per
    distinct skeleton, so that its caches and state index are shared by
    every state with that structure during one exploration."""

    def __init__(self, engine: SosEngine):
        self.engine = engine
        self.skeletons = {}
        self.ids = {}  # label or signal name -> small int, for set tests
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
                    name = _lift_name(term.signal, chain[::-1])
                    if name is not None:
                        emitted.add(name)
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


def _keys(handshakes, reads, emitters):
    """(what a subtree offers, what it wants) as sets of ids: its
    handshake labels and emitted names, and the complements of its
    handshakes and the names its signal reads need."""
    return (frozenset([m[0] for m in handshakes] + [e[0] for e in emitters]),
            frozenset([m[1] for m in handshakes] + [m[1] for m in reads]))


class _Skeleton:
    """One parallel skeleton, with a per-leaf cache of derivations and
    emitters whose addresses are absolute, and the index of the explored
    states that have this skeleton (leaf tuple -> state id)."""

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
        self.leaf_cache = [{} for _ in slots]
        self.index = {}

    def _leaf(self, slot, term) -> tuple:
        """What the walk needs of one leaf: (records of its derivations
        seen at the root, handshake moves, signal-read moves, emitters,
        offered ids, wanted ids, signal names seen at the root).

        A record is (label at the topmost Par, changes, participants,
        signal partner, reshapes, components), where changes are (slot,
        target) pairs, `reshapes` marks a target whose skeleton differs
        and components is the set of slots that move."""
        cached = self.leaf_cache[slot].get(term)
        if cached is not None:
            return cached
        split, engine = self.splitter, self.splitter.engine
        path, inner, outer, under_emit = self.slots[slot]
        comps = split.intern(frozenset((slot,)))
        records, handshakes, reads = [], [], []
        for d in engine.transitions(term):
            parts = split.intern(frozenset(path + p for p in d.participants)
                                 if path else d.participants)
            partner = (None if d.signal_partner is None
                       else path + d.signal_partner)
            changes = ((slot, d.target),)
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
        names = frozenset(_lift_name(name, inner + outer)
                          for name, _ in pairs) - {None}
        emitters = [split.emitter(name, path + address)
                    for name, address in pairs]
        cached = self.leaf_cache[slot][term] = (
            records, handshakes, reads, emitters,
            *_keys(handshakes, reads, emitters), names)
        return cached

    def derivations(self, leaves) -> tuple:
        """The signal names the state with these leaves emits, and its
        derivations as records, in the order and with the duplicates
        `SosEngine.transitions` gives for the whole state term; one walk
        reads each leaf once for both.

        The walk follows `SosEngine._par`: at each Par, the left side's
        derivations, the right side's, handshakes, then left reading
        right's signals and right reading left's.  Duplicates are removed
        once, at the topmost Par: removing them at inner Pars as well
        changes neither which derivations are kept nor their order."""
        if not self.has_par:
            leaf = self._leaf(0, leaves[0])  # the whole term: keep duplicates
            return leaf[6], leaf[0]
        emitted = self.emitted
        out = []
        # per subtree: (handshake moves, signal-read moves, emitters,
        # offered ids, wanted ids), labels and names as seen at its root
        stack = []
        split = self.splitter
        for node in self.walk:
            kind = node[0]
            if kind == LEAF:
                slot = node[1]
                leaf = self._leaf(slot, leaves[slot])
                if leaf[6]:
                    emitted = emitted | leaf[6]
                out.extend(leaf[0])
                stack.append(leaf[1:6])
            elif kind == PAR:
                rhs, rrd, remit, roffer, rwant = stack.pop()
                lhs, lrd, lemit, loffer, lwant = stack.pop()
                left_hits = lwant & roffer
                if left_hits:
                    by_id = {}
                    for m in rhs:
                        if m[0] in left_hits:
                            by_id.setdefault(m[0], []).append(m)
                    for m in lhs:
                        for p in by_id.get(m[1], ()):
                            out.append((TAU, m[3] + p[3],
                                        split.intern(m[4] | p[4]), None,
                                        m[5] or p[5],
                                        split.intern(m[6] | p[6])))
                for readers, emitters, hits in (
                        (lrd, remit, left_hits), (rrd, lemit, rwant & loffer)):
                    if not hits:
                        continue
                    for m in readers:
                        if m[1] in hits:
                            for e in emitters:
                                if e[0] == m[1]:
                                    out.append((TAU, m[3], m[4], e[2], m[5],
                                                m[6]))
                stack.append((lhs + rhs, lrd + rrd, lemit + remit,
                              loffer | roffer, lwant | rwant))
            elif kind == EMIT:
                hs, rd, emitters, offer, want = stack.pop()
                e = split.emitter(node[1], node[2])
                stack.append((hs, rd, [e] + emitters, offer | {e[0]}, want))
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
                stack.append((hs, rd, emitters, *_keys(hs, rd, emitters)))
        out = list(dict.fromkeys(out))
        if self.outer_relabels:
            out = [(_lift(r[0], self.outer_relabels),) + r[1:] for r in out]
        return emitted, out


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


def _name_from_json(obj: dict) -> Name:
    return Name(obj["base"], tuple(obj["params"]))


def _label_json(action: Action) -> dict:
    if action.is_tau:
        return {"kind": INTERNAL}
    return {"kind": action.kind, **_name_json(action.name)}


def _label_from_json(obj: dict) -> Action:
    if obj["kind"] == INTERNAL:
        return TAU
    return Action(obj["kind"], Name(obj["base"], tuple(obj["params"])))


def export_json(lts: Lts, state_str=str) -> str:
    data = {
        "initial": lts.initial,
        "truncated": lts.truncated,
        "states": [
            {"id": i,
             "term": state_str(lts.term(i)),
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


def import_json(text: str) -> Lts:
    """Rebuild an LTS from its JSON export.  States become opaque string
    keys; the result supports comparison and justness-free queries but not
    re-exploration."""
    data = json.loads(text)
    states = []
    signals = []
    for s in sorted(data["states"], key=lambda s: s["id"]):
        states.append(s["term"])
        signals.append(frozenset(_name_from_json(n) for n in s.get("signals", ())))
    transitions = [
        Transition(t["src"], _label_from_json(t["label"]), t["tgt"],
                   frozenset(tuple(p.split("/")) if p else ()
                             for p in t.get("participants", ())),
                   tuple(t["signalPartner"].split("/"))
                   if t.get("signalPartner") is not None else None)
        for t in data["transitions"]
    ]
    return Lts(states, data.get("initial", 0), transitions, signals,
               data.get("truncated", False))


def export_dot(lts: Lts, state_str=str) -> str:
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=circle];']
    for i in range(lts.num_states):
        emitted = lts.state_signals[i]
        extra = ("\\n^" + ",".join(str(n) for n in sorted(emitted, key=str))
                 if emitted else "")
        shape = ' peripheries=2' if i == lts.initial else ""
        lines.append(f'  s{i} [label="{_dot_escape(state_str(lts.term(i)))}{extra}"{shape}];')
    for t in lts.transitions:
        lines.append(f'  s{t.src} -> s{t.tgt} [label="{_dot_escape(str(t.label))}"];')
    lines.append("}")
    return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
