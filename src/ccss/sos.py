"""Structural operational semantics: transitions and signal emission.

The engine computes, for a term, the set of outgoing transition
*derivations*.  A derivation carries the label, the target term and
provenance: the addresses of the parallel components that take part in
the step, plus (for a signal-reading synchronization) the address of the
component whose emission is read.  Reading a signal leaves the emitter
unchanged, so the emitter is not a participant of the step.

Component addresses are tuples of step tags ("L"/"R" for the two sides
of a parallel composition, "r"/"f"/"e" for restriction, relabelling and
signal emission).  Choice and identifier unfolding add no step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnguardedRecursion
from . import terms as T
from .terms import (
    Action, Environment, Term, TAU, MAX_UNFOLD,
    Nil, Prefix, Sum, IndexedSum, Par, Restrict, Relabel, Ident, SignalEmit,
    STEP_LEFT, STEP_RIGHT, STEP_RESTRICT, STEP_RELABEL, STEP_EMIT,
)


@dataclass(frozen=True)
class Derivation:
    label: Action
    target: Term
    participants: frozenset  # of address tuples
    signal_partner: Optional[tuple] = None  # emitter address, if a signal read


def _prefix_paths(paths, step):
    return frozenset((step,) + p for p in paths)


def _prefix_derivation(d: Derivation, step: str, target: Term, label=None) -> Derivation:
    return Derivation(
        label if label is not None else d.label,
        target,
        _prefix_paths(d.participants, step),
        None if d.signal_partner is None else (step,) + d.signal_partner,
    )


class SosEngine:
    """Transition derivations, emitters and emitted signal names under a
    fixed environment, all three from one recursive walk over the term.
    The walk's results are memoized per term without parallel structure
    (`contains_par` false): the leaves the explorer composes.  A term
    with a visible `Par` is derived from its memoized parts each time it
    is asked for, and nothing of it is kept.  `ccss.justness` keeps its
    per-leaf set summaries in `summaries` and its memo of the steps above
    the leaves in `compositions`, so they live as long as the engine
    whose derivations they summarize; each holds one entry per distinct
    leaf or summary combination asked about."""

    def __init__(self, env: Environment):
        self.env = env
        self._memo = {}  # term -> (derivations, emitters, signal names)
        self.summaries = {}  # leaf term -> justness summary
        self.compositions = {}  # justness steps above the leaves

    def transitions(self, term: Term) -> tuple:
        return self._entry(term, ())[0]

    def emitters(self, term: Term) -> tuple:
        """(signal name, emitter address) pairs, one per emission site."""
        return self._entry(term, ())[1]

    def signals(self, term: Term) -> frozenset:
        """The set of signal names the term currently emits."""
        return self._entry(term, ())[2]

    def _entry(self, term: Term, stack: tuple) -> tuple:
        entry = self._memo.get(term)
        if entry is None:
            derivations, emitters = self._derive(term, stack)
            entry = (derivations, emitters,
                     frozenset(n for n, _ in emitters))
            if not T.contains_par(term):
                self._memo[term] = entry
        return entry

    def _derive(self, term: Term, stack: tuple) -> tuple:
        """(derivations, emitters) of the term; `stack` holds the
        identifiers unfolded on the way down, to catch unguarded
        recursion."""
        if isinstance(term, Nil):
            return (), ()
        if isinstance(term, Prefix):
            return (Derivation(term.action, T.canonical(self.env, term.body),
                               frozenset({()})),), ()
        if isinstance(term, (Sum, IndexedSum)):
            branches = (term.branches if isinstance(term, Sum)
                        else T.indexed_branches(term))
            derivations, emitters = [], []
            for b in branches:
                ds, es, _ = self._entry(b, stack)
                derivations.extend(ds)
                emitters.extend(es)
            return tuple(dict.fromkeys(derivations)), tuple(emitters)
        if isinstance(term, Par):
            return self._par(term, stack)
        if isinstance(term, Ident):
            if term in stack or len(stack) >= MAX_UNFOLD:
                raise UnguardedRecursion(
                    f"{stack[0].name} unfolds to {term.name} with no "
                    f"prefix in between, at depth {len(stack)}")
            return self._entry(self.env.resolve(term.name),
                               stack + (term,))[:2]
        if isinstance(term, Restrict):
            derivations, emitters, _ = self._entry(term.body, stack)
            return (tuple(_prefix_derivation(d, STEP_RESTRICT,
                                             Restrict(d.target, term.names))
                          for d in derivations
                          if d.label.is_tau or d.label.name not in term.names),
                    tuple((n, (STEP_RESTRICT,) + p) for n, p in emitters
                          if n not in term.names))
        if isinstance(term, Relabel):
            f = term.relabelling
            derivations, emitters, _ = self._entry(term.body, stack)
            return (tuple(_prefix_derivation(d, STEP_RELABEL,
                                             Relabel(d.target, f),
                                             label=f.apply(d.label))
                          for d in derivations),
                    tuple((f.apply_name(n, True), (STEP_RELABEL,) + p)
                          for n, p in emitters))
        if isinstance(term, SignalEmit):
            derivations, emitters, _ = self._entry(term.body, stack)
            # taking any action forgets the emission
            return (tuple(_prefix_derivation(d, STEP_EMIT, d.target)
                          for d in derivations),
                    ((term.signal, ()),) + tuple((n, (STEP_EMIT,) + p)
                                                 for n, p in emitters))
        raise TypeError(f"not a term: {term!r}")

    def _par(self, term: Par, stack: tuple) -> tuple:
        left, left_emit, _ = self._entry(term.left, stack)
        right, right_emit, _ = self._entry(term.right, stack)
        out = []
        # interleaving
        for d in left:
            out.append(_prefix_derivation(d, STEP_LEFT, Par(d.target, term.right)))
        for d in right:
            out.append(_prefix_derivation(d, STEP_RIGHT, Par(term.left, d.target)))
        # handshake synchronization
        by_name = {}
        for d in right:
            if d.label.is_handshake:
                by_name.setdefault((d.label.kind, d.label.name), []).append(d)
        for dl in left:
            if not dl.label.is_handshake:
                continue
            comp = dl.label.complement()
            for dr in by_name.get((comp.kind, comp.name), ()):
                out.append(Derivation(
                    TAU, Par(dl.target, dr.target),
                    _prefix_paths(dl.participants, STEP_LEFT)
                    | _prefix_paths(dr.participants, STEP_RIGHT)))
        # signal reading: reader moves, emitter stays put
        for dl in left:
            if dl.label.is_signal:
                for name, addr in right_emit:
                    if name == dl.label.name:
                        out.append(Derivation(
                            TAU, Par(dl.target, term.right),
                            _prefix_paths(dl.participants, STEP_LEFT),
                            signal_partner=(STEP_RIGHT,) + addr))
        for dr in right:
            if dr.label.is_signal:
                for name, addr in left_emit:
                    if name == dr.label.name:
                        out.append(Derivation(
                            TAU, Par(term.left, dr.target),
                            _prefix_paths(dr.participants, STEP_RIGHT),
                            signal_partner=(STEP_LEFT,) + addr))
        return tuple(dict.fromkeys(out)), (
            tuple((n, (STEP_LEFT,) + p) for n, p in left_emit)
            + tuple((n, (STEP_RIGHT,) + p) for n, p in right_emit))
