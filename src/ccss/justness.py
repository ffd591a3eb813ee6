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

The steps above the leaves are kept in the engine too, in
`compositions` (hash-consing): a Par's pair of child summaries maps to
their union or to a clash, a Restrict, Relabel or SignalEmit node with
its child's summary to the node's summary, and the root's X with the
blocking set to the verdict; an unjust Par's verdict is kept per Par
node, so its witness names its own address.  Each value is built once
and is the one object every later call with its key gets, so keys hash
the frozensets' cached hashes and match by identity, and a configuration
met again is one dictionary hit per node.  The memo holds one entry per
distinct key met, so it is bounded by the distinct resting-leaf
combinations the caller asks about: on the benchmark's models it stops
growing below 200 entries per system.

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
_CLASH = object()  # a Par whose side-condition fails


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
    witness.  Each step is read from, or written to, the engine's
    `compositions` (its keys are listed above `_compose`), so a
    configuration met again is a walk of dictionary hits."""
    memo = engine.compositions
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
            if left is _MOVING:
                stack[-1] = right
                continue
            key = (left, right)
            union = memo.get(key)
            if union is None:
                union = memo[key] = _compose(left, right)
            if union is _CLASH:
                key = (node, left, right)
                verdict = memo.get(key)
                if verdict is None:
                    verdict = memo[key] = _par_witness(node[1], left, right)
                return verdict
            stack[-1] = union
        else:
            key = (node, stack[-1])
            lifted = memo.get(key)
            if lifted is None:
                lifted = memo[key] = _lifted(node, stack[-1])
            stack[-1] = lifted
    x = stack[0][0]
    key = (env.blocking, x)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _root_verdict(env, x)
    return verdict


# Keys of `SosEngine.compositions`, which never collide: a summary is a
# 4-tuple of frozensets, a node a tuple that starts with its kind.
#   (left summary, right summary) -> their union, or _CLASH
#   (Par node, left summary, right summary) -> that Par's unjust verdict
#   (Restrict/Relabel/Emit node, child summary) -> the node's summary
#   (blocking names, X of the root) -> the root's verdict

def _compose(left: tuple, right: tuple):
    """The summary of a Par of two resting subtrees, or _CLASH when one
    of its three side-conditions fails."""
    xl, cl, rl, sl = left
    xr, cr, rr, sr = right
    if not (cl.isdisjoint(xr) and rl.isdisjoint(sr) and rr.isdisjoint(sl)):
        return _CLASH
    return (xl | xr, cl | cr, rl | rr, sl | sr)


def _lifted(node: tuple, summary: tuple) -> tuple:
    """The summary seen above a Restrict, Relabel or SignalEmit node."""
    x, c, r, s = summary
    kind = node[0]
    if kind == RESTRICT:
        hidden = node[1]
        x = frozenset([a for a in x if a.is_tau or a.name not in hidden])
        s = s.difference(hidden)
        c, r = _wants(x)
    elif kind == RELABEL:
        f = node[1]
        x = frozenset([f.apply(a) for a in x])
        s = frozenset([f.apply_name(n, True) for n in s])
        c, r = _wants(x)
    else:
        s = s | {node[1]}
    return (x, c, r, s)


def _root_verdict(env: Environment, x: frozenset) -> JustnessVerdict:
    """Just iff every action the whole term must see blocked blocks."""
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
    enabled actions of an end state are read from the system itself; on
    a truncated system they are read by the justness pass, which derives
    each leaf's moves itself.  `mode` is unused."""
    if not lasso.terminal or lts.truncated:
        return is_just(lts, env, lasso, engine=engine).just
    anchor = lasso.validate(lts)
    return all(env.is_blocking(lts.transitions[i].label)
               for i in lts.outgoing(anchor))
