"""Justness of lasso-shaped paths.

A lasso (stem + cycle of transition indices) finitely presents an
ultimately periodic path; an empty cycle presents a finite maximal path.
Justness is decided by decomposing the path over the static parallel
structure of the state terms: each parallel leaf either takes part in
some cycle transition (its projection is infinite) or rests at a fixed
subterm (its projection is finite).  A bottom-up pass computes, per tree
node, the minimal set of actions that must be externally blocked for the
node's projection to be acceptable, plus the minimal set of signals the
projection keeps emitting, and checks the parallel-composition
side-conditions on those minimal sets.  All side-conditions are monotone
in the sets involved, so minimal sets decide the existential question.

The emitting side of a signal-read synchronization contributes an empty
projection step: reading a signal involves only the reader.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import DynamicParallelism
from .terms import (
    Action, Environment, Name, Term, SIGNAL, COHANDSHAKE, HANDSHAKE,
    Par, Restrict, Relabel, SignalEmit, contains_par, leaf_paths, skeleton,
    subterm_at,
)
from .sos import SosEngine
from .lts import Lts
from .syntax import action_str, name_str, term_str

# how many derivation assignments to try before giving up on alternatives
MAX_ASSIGNMENTS = 4096


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

    def validate(self, lts: Lts, start: Optional[int] = None):
        at = lts.initial if start is None else start
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

    def states(self, lts: Lts):
        """All states visited, stem then cycle, starting at the initial."""
        out = [lts.initial]
        for i in self.stem + self.cycle:
            out.append(lts.transitions[i].tgt)
        return out


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

    @property
    def a_enabled(self) -> frozenset:
        """Actions contained in every Y for which the path is Y-just."""
        return self.minimal_y if self.just else frozenset()


@dataclass(frozen=True)
class LeafProjection:
    leaf: tuple  # component address
    finite: bool
    steps: tuple  # positions (within stem+cycle) where this leaf moves
    resting_term: Optional[Term] = None  # final subterm, when finite


# --------------------------------------------------------------------------
# decomposition

def components(leaves, transitions) -> frozenset:
    """The parallel components, among `leaves` (the leaf addresses of a
    state on the path), that take part in any of the transitions: the
    leaf above each participant's address."""
    out = set()
    for t in transitions:
        for address in t.participants:
            for leaf in leaves:
                if address[:len(leaf)] == leaf:
                    out.add(leaf)
                    break
            else:
                raise DynamicParallelism(
                    f"participant {'/'.join(address)} resolves to no "
                    "static component")
    return frozenset(out)


def _check_static(engine_terms):
    first = skeleton(engine_terms[0])
    for t in engine_terms[1:]:
        if skeleton(t) != first:
            raise DynamicParallelism(
                "parallel structure changes along the path")


def decompose(lts: Lts, lasso: Lasso):
    """Per-leaf projections of the lasso.  Leaves that take part in no
    cycle transition have finite projections and carry their resting
    subterm (the cycle transitions they appear in as signal-read partner
    contribute empty steps)."""
    anchor = lasso.validate(lts)
    path = lasso.stem + lasso.cycle
    terms = [lts.states[s] for s in lasso.states(lts)]
    _check_static(terms)
    leaves = leaf_paths(terms[0])
    steps = {leaf: [] for leaf in leaves}
    for pos, idx in enumerate(path):
        for leaf in components(leaves, [lts.transitions[idx]]):
            steps[leaf].append(pos)
    cycle_start = len(lasso.stem)
    out = []
    anchor_term = lts.states[anchor]
    for leaf in leaves:
        moved = [pos for pos in steps[leaf] if pos >= cycle_start]
        finite = not moved
        out.append(LeafProjection(
            leaf, finite, tuple(steps[leaf]),
            subterm_at(anchor_term, leaf) if finite else None))
    return out


def minimal_signalling_set(projection: LeafProjection,
                           engine: SosEngine) -> frozenset:
    """Least upper bound on the signals the projection keeps emitting:
    the emission set of the resting term for finite projections, empty
    for infinite ones (no clause constrains a moving component)."""
    if projection.finite:
        return engine.signals(projection.resting_term)
    return frozenset()


# --------------------------------------------------------------------------
# bottom-up minimal-set analysis

def _restrict_labels(actions, names):
    out = set()
    for a in actions:
        if not a.is_tau and a.name in names:
            continue
        out.add(a)
    return frozenset(out)


def _analyze(term: Term, path: tuple, movers, engine: SosEngine,
             mode: str):
    """Returns (witness-or-None, X_min: frozenset[Action],
    X'_min: frozenset[Name]) for the subtree rooted at `term`."""
    if isinstance(term, Par):
        wl, xl, sl = _analyze(term.left, path + ("L",), movers, engine, mode)
        if wl is not None:
            return wl, xl, sl
        wr, xr, sr = _analyze(term.right, path + ("R",), movers, engine, mode)
        if wr is not None:
            return wr, xr, sr
        node = "/".join(path) or "(root)"
        clash = {a for a in xl if a.is_handshake and a.complement() in xr}
        if clash:
            return (Witness(node, "X ∩ Z̄_H ≠ ∅",
                            tuple(sorted(action_str(a) for a in clash))),
                    frozenset(), frozenset())
        if mode == "ccss":
            reads_l = {a for a in xl if a.kind == SIGNAL and a.name in sr}
            if reads_l:
                return (Witness(node, "X ∩ Z′ ≠ ∅",
                                tuple(sorted(action_str(a) for a in reads_l))),
                        frozenset(), frozenset())
            reads_r = {a for a in xr if a.kind == SIGNAL and a.name in sl}
            if reads_r:
                return (Witness(node, "X′ ∩ Z ≠ ∅",
                                tuple(sorted(action_str(a) for a in reads_r))),
                        frozenset(), frozenset())
        return None, xl | xr, sl | sr
    if isinstance(term, Restrict) and contains_par(term.body):
        w, x, s = _analyze(term.body, path + ("r",), movers, engine, mode)
        if w is not None:
            return w, x, s
        return (None, _restrict_labels(x, term.names),
                frozenset(n for n in s if n not in term.names))
    if isinstance(term, Relabel) and contains_par(term.body):
        w, x, s = _analyze(term.body, path + ("f",), movers, engine, mode)
        if w is not None:
            return w, x, s
        f = term.relabelling
        return (None, frozenset(f.apply(a) for a in x),
                frozenset(f.apply_name(n, True) for n in s))
    if isinstance(term, SignalEmit) and contains_par(term.body):
        w, x, s = _analyze(term.body, path + ("e",), movers, engine, mode)
        if w is not None:
            return w, x, s
        return None, x, s | {term.signal}
    # sequential leaf
    if path in movers:
        return None, frozenset(), frozenset()
    enabled = frozenset(d.label for d in engine.transitions(term))
    emitted = engine.signals(term) if mode == "ccss" else frozenset()
    return None, enabled, emitted


def analyze_configuration(engine: SosEngine, env: Environment,
                          state_term: Term, movers: frozenset,
                          mode: str = "ccss") -> JustnessVerdict:
    """Justness verdict for an ultimately periodic path whose cycle visits
    `state_term` and moves exactly the leaves in `movers` (all other
    leaves rest at their subterm of `state_term`)."""
    witness, x, _ = _analyze(state_term, (), movers, engine, mode)
    if witness is not None:
        return JustnessVerdict(False, witness=witness)
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
            engine: Optional[SosEngine] = None,
            max_assignments: int = MAX_ASSIGNMENTS) -> JustnessVerdict:
    """Decide justness of the path presented by the lasso.  When a cycle
    transition admits several derivations, assignments of derivations are
    enumerated and the path is just if some assignment is."""
    engine = engine or SosEngine(env)
    anchor = lasso.validate(lts)
    anchor_term = lts.states[anchor]
    if lasso.terminal:
        return analyze_configuration(engine, env, anchor_term, frozenset(),
                                     mode)
    terms = [lts.states[s] for s in lasso.states(lts)]
    _check_static(terms[len(lasso.stem):])
    leaves = leaf_paths(anchor_term)
    options = [_alternatives(lts, i) for i in lasso.cycle]
    total = 1
    for o in options:
        total *= len(o)
    if total > max_assignments:
        options = [[lts.transitions[i]] for i in lasso.cycle]
    verdict = None
    seen = set()
    for choice in itertools.product(*options):
        movers = components(leaves, choice)
        if movers in seen:
            continue
        seen.add(movers)
        verdict = analyze_configuration(engine, env, anchor_term, movers,
                                        mode)
        if verdict.just:
            return verdict
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
                   for d in engine.transitions(lts.states[anchor]))
    return is_just(lts, env, lasso, mode, engine).just
