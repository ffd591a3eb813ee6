"""Justness of lasso-shaped paths.

A lasso (stem + cycle of transition indices) finitely presents an
ultimately periodic path; an empty cycle presents a finite maximal path.
Justness is decided by decomposing the path over the static parallel
structure of its cycle, the shape the explorer recorded for its states: each
leaf slot either moves in some cycle transition (its projection is
infinite) or rests at a fixed subterm (its projection is finite).  A
bottom-up pass over the shape's nodes computes, per node, the minimal set
of actions that must be externally blocked for the node's projection to
be acceptable, plus the minimal set of signals the projection keeps
emitting, and checks the parallel-composition side-conditions on those
minimal sets.  All side-conditions are monotone in the sets involved, so
minimal sets decide the existential question.

The emitting side of a signal-read synchronization contributes an empty
projection step: reading a signal involves only the reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .terms import Environment, SIGNAL
from .sos import SosEngine
from .lts import LEAF, PAR, RELABEL, RESTRICT, Lts, Shape
from .syntax import action_str


@dataclass(frozen=True)
class Lasso:
    """stem: transition indices from the initial state; cycle: transition
    indices closing a loop at the stem's end, or empty for a finite
    maximal path."""

    stem: tuple
    cycle: tuple

    @property
    def terminal(self) -> bool:
        return not self.cycle

    def validate(self, lts: Lts) -> int:
        """Check that the lasso is a path of the system; return its anchor."""
        at = lts.initial
        for i in self.stem + self.cycle:
            if not 0 <= i < len(lts.transitions):
                raise ValueError(f"no transition {i}")
        for i in self.stem:
            t = lts.transitions[i]
            if t.src != at:
                raise ValueError(f"stem breaks at transition {i}: "
                                 f"expected source {at}, got {t.src}")
            at = t.tgt
        anchor = at
        for i in self.cycle:
            t = lts.transitions[i]
            if t.src != at:
                raise ValueError(f"cycle breaks at transition {i}")
            at = t.tgt
        if self.cycle and at != anchor:
            raise ValueError("cycle does not return to its start state")
        return anchor

    def anchor(self, lts: Lts) -> int:
        """The state where the cycle starts (or the path ends)."""
        return (lts.transitions[self.stem[-1]].tgt if self.stem
                else lts.initial)

    def advance(self) -> "Lasso":
        """The lasso presenting the suffix after one transition."""
        if self.stem:
            return Lasso(self.stem[1:], self.cycle)
        if self.cycle:
            return Lasso((), self.cycle[1:] + self.cycle[:1])
        return self


@dataclass(frozen=True)
class Witness:
    node: str  # component-tree address of the violating node
    clause: str
    offending: tuple  # printable offending actions / signals

    def to_json(self):
        return {"node": self.node, "clause": self.clause,
                "offendingActions": list(self.offending)}


@dataclass(frozen=True)
class JustnessVerdict:
    just: bool
    minimal_y: Optional[frozenset] = None  # of Action, when just
    witness: Optional[Witness] = None

    def to_json(self):
        return {
            "just": self.just,
            "minimalY": (sorted(action_str(a) for a in self.minimal_y)
                         if self.minimal_y is not None else None),
            "witness": self.witness.to_json() if self.witness else None,
        }


# --------------------------------------------------------------------------
# bottom-up minimal-set analysis

def analyze_configuration(engine: SosEngine, env: Environment, shape: Shape,
                          leaves: tuple, movers: frozenset,
                          mode: str = "ccss") -> JustnessVerdict:
    """Justness verdict for an ultimately periodic path whose cycle visits
    a state with this shape and these leaves, and moves exactly the slots
    in `movers` (every other leaf rests at its term).

    One pass over the shape's post-order nodes keeps, per subtree, X_min
    (the actions it must see blocked) and X'_min (the signals it keeps
    emitting); the first Par whose side-condition fails is the witness."""
    stack = []
    for node in shape.nodes:
        kind = node[0]
        if kind == LEAF:
            term = leaves[node[1]]
            if node[1] in movers:
                stack.append((frozenset(), frozenset()))
            else:
                stack.append((
                    frozenset(d.label for d in engine.transitions(term)),
                    engine.signals(term) if mode == "ccss" else frozenset()))
        elif kind == PAR:
            xr, sr = stack.pop()
            xl, sl = stack.pop()
            clauses = [("X ∩ Z̄_H ≠ ∅", {a for a in xl if a.is_handshake
                                         and a.complement() in xr})]
            if mode == "ccss":
                clauses += [
                    ("X ∩ Z′ ≠ ∅",
                     {a for a in xl if a.kind == SIGNAL and a.name in sr}),
                    ("X′ ∩ Z ≠ ∅",
                     {a for a in xr if a.kind == SIGNAL and a.name in sl})]
            for clause, offending in clauses:
                if offending:
                    return JustnessVerdict(False, witness=Witness(
                        "/".join(node[1]) or "(root)", clause,
                        tuple(sorted(action_str(a) for a in offending))))
            stack.append((xl | xr, sl | sr))
        else:
            x, s = stack.pop()
            if kind == RESTRICT:
                x = frozenset(a for a in x if a.is_tau or a.name not in node[1])
                s = frozenset(n for n in s if n not in node[1])
            elif kind == RELABEL:
                x = frozenset(node[1].apply(a) for a in x)
                s = frozenset(node[1].apply_name(n, True) for n in s)
            else:
                s = s | {node[1]}
            stack.append((x, s))
    x = stack[0][0]
    bad = sorted((a for a in x if not env.is_blocking(a)), key=action_str)
    if bad:
        clause = ("finite path enables τ" if bad[0].is_tau else
                  "finite path enables a non-blocking action")
        return JustnessVerdict(False, witness=Witness(
            "(root)", clause, tuple(action_str(a) for a in bad)))
    return JustnessVerdict(True, minimal_y=x)


# --------------------------------------------------------------------------
# full lasso verdicts

def _alternatives(lts: Lts, idx: int):
    """All transition entries with the same source, label and target (a
    path fixes those; the derivation behind them is existential)."""
    t = lts.transitions[idx]
    trans = lts.transitions
    return [trans[i] for i in lts.outgoing(t.src)
            if trans[i].label == t.label and trans[i].tgt == t.tgt]


def is_just(lts: Lts, env: Environment, lasso: Lasso, mode: str = "ccss",
            engine: Optional[SosEngine] = None) -> JustnessVerdict:
    """Decide justness of the path presented by the lasso from one state,
    the anchor where its cycle starts.  Every cycle state has the anchor's
    shape (a Par never disappears, and a node above a Par appears only
    with a new Par, so a cycle neither adds nor drops a node), and a slot
    that no cycle transition moves keeps its leaf.  When a cycle
    transition admits several derivations, the path is just if some
    choice of derivations is: every distinct set of moving slots is
    tried, in the order an enumeration of the choices first meets it."""
    engine = engine or SosEngine(env)
    shape, leaves = lts.states[lasso.validate(lts)]
    mover_sets = [frozenset()]
    for i in lasso.cycle:
        mover_sets = list(dict.fromkeys(
            m | t.components for m in mover_sets
            for t in _alternatives(lts, i)))
    for movers in mover_sets:
        verdict = analyze_configuration(engine, env, shape, leaves, movers,
                                        mode)
        if verdict.just:
            break
    return verdict


def is_complete(lts: Lts, env: Environment, lasso: Lasso,
                mode: str = "ccss",
                engine: Optional[SosEngine] = None) -> bool:
    """Whether the lasso presents an entire run: finite maximal paths must
    end where only blocking actions are enabled (progress), infinite
    paths must be just.  Unless exploration was truncated, every
    derivation of an explored state is one of its transitions, so the
    enabled actions are read from the system itself."""
    anchor = lasso.validate(lts)
    if lasso.terminal:
        if not lts.truncated:
            return all(env.is_blocking(lts.transitions[i].label)
                       for i in lts.outgoing(anchor))
        engine = engine or SosEngine(env)
        return all(env.is_blocking(d.label)
                   for d in engine.transitions(lts.term(anchor)))
    return is_just(lts, env, lasso, mode, engine).just
