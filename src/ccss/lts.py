"""Labelled transition systems: exploration, encoding, export and import.

States are canonical terms; every derivation found by the semantics
becomes its own transition entry, so a single (source, label, target)
triple can occur several times with different provenance.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .terms import (
    Action, COHANDSHAKE, Environment, HANDSHAKE, INTERNAL, Name, SIGNAL,
    TAU, Term, canonical,
)
from .sos import Derivation, SosEngine


@dataclass(frozen=True)
class Transition:
    src: int
    label: Action
    tgt: int
    participants: frozenset = frozenset()
    signal_partner: Optional[tuple] = None


@dataclass
class Lts:
    states: list  # index -> Term (or opaque key for imported systems)
    initial: int
    transitions: list  # of Transition
    state_signals: list  # index -> frozenset of Name
    truncated: bool = False
    index: dict = field(default_factory=dict)  # Term -> state id
    _out: Optional[list] = None

    def state_of(self, term) -> int:
        return self.index[term]

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


def explore(env: Environment, root: Term, max_states: int = 1_000_000,
            engine: Optional[SosEngine] = None) -> Lts:
    """Breadth-first state-space construction from the root term."""
    engine = engine or SosEngine(env)
    start = canonical(env, root)
    states = [start]
    index = {start: 0}
    signals = [engine.signals(start)]
    transitions = []
    truncated = False
    queue = deque([0])
    while queue:
        sid = queue.popleft()
        for d in engine.transitions(states[sid]):
            tgt = d.target
            tid = index.get(tgt)
            if tid is None:
                if len(states) >= max_states:
                    truncated = True
                    continue
                tid = len(states)
                index[tgt] = tid
                states.append(tgt)
                signals.append(engine.signals(tgt))
                queue.append(tid)
            transitions.append(Transition(sid, d.label, tid,
                                          d.participants, d.signal_partner))
    return Lts(states, 0, transitions, signals, truncated, index)


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
                                          t.participants, t.signal_partner))
    for sid, emitted in enumerate(lts.state_signals):
        for name in sorted(emitted, key=str):
            new_transitions.append(Transition(sid, Action(COHANDSHAKE, name), sid))
    return Lts(list(lts.states), lts.initial, new_transitions,
               [frozenset() for _ in lts.states], lts.truncated, dict(lts.index))


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
             "term": state_str(s),
             "signals": [_name_json(n) for n in sorted(lts.state_signals[i], key=str)]}
            for i, s in enumerate(lts.states)
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
    index = {s: i for i, s in enumerate(states)}
    return Lts(states, data.get("initial", 0), transitions, signals,
               data.get("truncated", False), index)


def export_dot(lts: Lts, state_str=str) -> str:
    lines = ["digraph lts {", "  rankdir=LR;", '  node [shape=circle];']
    for i, s in enumerate(lts.states):
        emitted = lts.state_signals[i]
        extra = ("\\n^" + ",".join(str(n) for n in sorted(emitted, key=str))
                 if emitted else "")
        shape = ' peripheries=2' if i == lts.initial else ""
        lines.append(f'  s{i} [label="{_dot_escape(state_str(s))}{extra}"{shape}];')
    for t in lts.transitions:
        lines.append(f'  s{t.src} -> s{t.tgt} [label="{_dot_escape(str(t.label))}"];')
    lines.append("}")
    return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
