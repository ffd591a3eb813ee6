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

A resting leaf's part in the pass is four sets: its enabled labels, the
complements of its handshake labels, the names its signal reads need
and the signals it emits.  They are computed once per leaf term and
kept in the `SosEngine`, beside the derivations they summarize, so
the side-conditions at each parallel composition are set intersections
and the sets are unions; offending actions are built only for a
witness.  A model that declares no signals reads and emits none, so only
the handshake clause, the justness of CCS, can fail there.

A lasso's transition indices name derivations, not (source, label,
target) triples: where two derivations share a triple, the index says
which components move, so a run presented by its transitions gets one
verdict however its cycle is written (rotated or repeated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .terms import Action, Environment, SIGNAL
from .sos import SosEngine
from .lts import LEAF, PAR, RELABEL, RESTRICT, Lts, Shape


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
        steps, count = self.stem + self.cycle, len(lts.transitions)
        if steps and not (0 <= min(steps) and max(steps) < count):
            bad = next(i for i in steps if not 0 <= i < count)
            raise ValueError(f"no transition {bad}")
        sources, targets = lts.sources, lts.targets
        for i in self.stem:
            if sources[i] != at:
                raise ValueError(f"stem breaks at transition {i}: "
                                 f"expected source {at}, got {sources[i]}")
            at = targets[i]
        anchor = at
        for i in self.cycle:
            if sources[i] != at:
                raise ValueError(f"cycle breaks at transition {i}")
            at = targets[i]
        if self.cycle and at != anchor:
            raise ValueError("cycle does not return to its start state")
        return anchor

    def anchor(self, lts: Lts) -> int:
        """The state where the cycle starts (or the path ends)."""
        return lts.targets[self.stem[-1]] if self.stem else lts.initial

    def advance(self) -> "Lasso":
        """The suffix after one transition, read from the path's second
        state (`validate` reads from the initial one): the stem shortened
        or, with no stem, the cycle rotated; a bare finite path unchanged."""
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
            "minimalY": (sorted(map(str, self.minimal_y))
                         if self.minimal_y is not None else None),
            "witness": self.witness.to_json() if self.witness else None,
        }


# --------------------------------------------------------------------------
# bottom-up minimal-set analysis

def _wants(labels: frozenset) -> tuple:
    """(the complements of the handshake labels, the names the signal
    reads need): what a subtree with these enabled labels synchronizes
    with."""
    return (frozenset([a.complement() for a in labels if a.is_handshake]),
            frozenset([a.name for a in labels if a.kind == SIGNAL]))


def _summary(engine: SosEngine, term) -> tuple:
    """A resting leaf's (enabled labels, complements of its handshakes,
    names its signal reads need, signals it emits), kept in the engine
    once per leaf term."""
    summary = engine.summaries.get(term)
    if summary is None:
        labels = frozenset([d.label for d in engine.transitions(term)])
        summary = engine.summaries[term] = (
            labels, *_wants(labels), engine.signals(term))
    return summary


_MOVING = (frozenset(),) * 4  # a leaf whose projection is infinite


def analyze_configuration(engine: SosEngine, env: Environment, shape: Shape,
                          leaves: tuple, movers: frozenset) -> JustnessVerdict:
    """Justness verdict for an ultimately periodic path whose cycle visits
    a state with this shape and these leaves, and moves exactly the slots
    in `movers` (every other leaf rests at its term).

    One pass over the shape's post-order nodes keeps, per subtree, X_min
    (the actions it must see blocked), the complements of its handshakes
    and the names its signal reads need (both derived from X_min), and
    X'_min (the signals it keeps emitting).  At a Par the three clauses
    are set intersections; the first Par where one is non-empty is the
    witness."""
    stack = []
    for node in shape.nodes:
        kind = node[0]
        if kind == LEAF:
            stack.append(_MOVING if node[1] in movers
                         else _summary(engine, leaves[node[1]]))
        elif kind == PAR:
            right = stack.pop()
            left = stack[-1]
            if right is _MOVING:
                continue
            xl, cl, rl, sl = left
            xr, cr, rr, sr = right
            if not (cl.isdisjoint(xr) and rl.isdisjoint(sr)
                    and rr.isdisjoint(sl)):
                return _par_witness(node[1], left, right)
            if left is not _MOVING:
                right = (xl | xr, cl | cr, rl | rr, sl | sr)
            stack[-1] = right
        else:
            x, c, r, s = stack.pop()
            if kind == RESTRICT:
                hidden = node[1]
                x = frozenset([a for a in x
                               if a.is_tau or a.name not in hidden])
                s = s.difference(hidden)
                c, r = _wants(x)
            elif kind == RELABEL:
                f = node[1]
                x = frozenset([f.apply(a) for a in x])
                s = frozenset([f.apply_name(n, True) for n in s])
                c, r = _wants(x)
            else:
                s = s | {node[1]}
            stack.append((x, c, r, s))
    x = stack[0][0]
    bad = sorted((a for a in x if not env.is_blocking(a)), key=str)
    if bad:
        clause = ("finite path enables τ" if bad[0].is_tau else
                  "finite path enables a non-blocking action")
        return JustnessVerdict(False, witness=Witness(
            "(root)", clause, tuple(map(str, bad))))
    return JustnessVerdict(True, minimal_y=x)


def _par_witness(address: tuple, left: tuple, right: tuple):
    """The verdict at a Par whose side-condition fails: the first clause
    that holds, with its offending actions of X (or X') printed in sorted
    order."""
    xl, cl, rl, sl = left
    xr, cr, rr, sr = right
    for clause, offending in (
            ("X ∩ Z̄_H ≠ ∅", [a.complement() for a in cl & xr]),
            ("X ∩ Z′ ≠ ∅", [Action(SIGNAL, n) for n in rl & sr]),
            ("X′ ∩ Z ≠ ∅", [Action(SIGNAL, n) for n in rr & sl])):
        if offending:
            return JustnessVerdict(False, witness=Witness(
                "/".join(address) or "(root)", clause,
                tuple(sorted(map(str, offending)))))
    raise AssertionError("no clause holds")


# --------------------------------------------------------------------------
# full lasso verdicts

def is_just(lts: Lts, env: Environment, lasso: Lasso, mode=None,
            engine: Optional[SosEngine] = None) -> JustnessVerdict:
    """Decide justness of the path presented by the lasso from one state,
    the anchor where its cycle starts.  Every cycle state has the anchor's
    shape (a Par never disappears, and a node above a Par appears only
    with a new Par, so a cycle neither adds nor drops a node), and a slot
    that no cycle transition moves keeps its leaf.  Each transition index
    names one derivation, so the moving slots are the components of the
    cycle's own transitions.  `mode` is unused; perfbench passes it."""
    engine = engine or SosEngine(env)
    shape, leaves = lts.states[lasso.validate(lts)]
    trans = lts.transitions
    movers = frozenset().union(*(trans[i].components for i in lasso.cycle))
    return analyze_configuration(engine, env, shape, leaves, movers)


def is_complete(lts: Lts, env: Environment, lasso: Lasso, mode=None,
                engine: Optional[SosEngine] = None) -> bool:
    """Whether the lasso presents an entire run: finite maximal paths must
    end where only blocking actions are enabled (progress), infinite
    paths must be just.  Unless exploration was truncated, every
    derivation of an explored state is one of its transitions, so the
    enabled actions are read from the system itself.  `mode` is unused."""
    if not lasso.terminal:
        return is_just(lts, env, lasso, engine=engine).just
    anchor = lasso.validate(lts)
    if not lts.truncated:
        return all(env.is_blocking(lts.transitions[i].label)
                   for i in lts.outgoing(anchor))
    engine = engine or SosEngine(env)
    return all(env.is_blocking(d.label)
               for d in engine.transitions(lts.term(anchor)))
