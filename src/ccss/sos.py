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
    Action, Environment, Name, Term, TAU, MAX_UNFOLD,
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
    """Transition derivations, emitted signals and emitter addresses
    under a fixed environment, memoized per term without parallel
    structure (`contains_par` false): the leaves the explorer composes.
    A term with a visible `Par` is derived from its memoized parts each
    time it is asked for, and nothing of it is kept."""

    def __init__(self, env: Environment):
        self.env = env
        self._trans = {}
        self._emitters = {}

    # -- emitted signals ---------------------------------------------------

    def signals(self, term: Term) -> frozenset:
        """The set of signal names the term currently emits."""
        return frozenset(n for n, _ in self.emitters(term))

    def emitters(self, term: Term) -> tuple:
        """(signal name, emitter address) pairs, one per emission site."""
        cached = self._emitters.get(term)
        if cached is None:
            cached = self._compute_emitters(term, ())
            if not T.contains_par(term):
                self._emitters[term] = cached
        return cached

    def _compute_emitters(self, term: Term, stack: tuple) -> tuple:
        if isinstance(term, SignalEmit):
            inner = tuple((n, (STEP_EMIT,) + p)
                          for n, p in self._compute_emitters(term.body, stack))
            return ((term.signal, ()),) + inner
        if isinstance(term, Sum):
            out = []
            for b in term.branches:
                out.extend(self._compute_emitters(b, stack))
            return tuple(out)
        if isinstance(term, IndexedSum):
            out = []
            for b in T.indexed_branches(term):
                out.extend(self._compute_emitters(b, stack))
            return tuple(out)
        if isinstance(term, Par):
            return (tuple((n, (STEP_LEFT,) + p)
                          for n, p in self._compute_emitters(term.left, stack))
                    + tuple((n, (STEP_RIGHT,) + p)
                            for n, p in self._compute_emitters(term.right, stack)))
        if isinstance(term, Restrict):
            return tuple((n, (STEP_RESTRICT,) + p)
                         for n, p in self._compute_emitters(term.body, stack)
                         if n not in term.names)
        if isinstance(term, Relabel):
            f = term.relabelling
            return tuple((f.apply_name(n, True), (STEP_RELABEL,) + p)
                         for n, p in self._compute_emitters(term.body, stack))
        if isinstance(term, Ident):
            if term in stack:
                raise UnguardedRecursion(str(term.name))
            if len(stack) >= MAX_UNFOLD:
                raise UnguardedRecursion(str(term.name))
            return self._compute_emitters(self.env.resolve(term.name), stack + (term,))
        return ()  # Nil, Prefix

    # -- transitions -------------------------------------------------------

    def transitions(self, term: Term) -> tuple:
        return self._compute_memo(term, ())

    def _compute(self, term: Term, stack: tuple) -> tuple:
        env = self.env
        if isinstance(term, Nil):
            return ()
        if isinstance(term, Prefix):
            return (Derivation(term.action, T.canonical(env, term.body),
                               frozenset({()})),)
        if isinstance(term, Sum):
            out = []
            for b in term.branches:
                out.extend(self._compute_memo(b, stack))
            return _dedup(out)
        if isinstance(term, IndexedSum):
            out = []
            for b in T.indexed_branches(term):
                out.extend(self._compute_memo(b, stack))
            return _dedup(out)
        if isinstance(term, Par):
            return self._par(term, stack)
        if isinstance(term, Restrict):
            out = []
            for d in self._compute_memo(term.body, stack):
                if not d.label.is_tau and d.label.name in term.names:
                    continue
                out.append(_prefix_derivation(
                    d, STEP_RESTRICT, Restrict(d.target, term.names)))
            return tuple(out)
        if isinstance(term, Relabel):
            f = term.relabelling
            return tuple(
                _prefix_derivation(d, STEP_RELABEL, Relabel(d.target, f),
                                   label=f.apply(d.label))
                for d in self._compute_memo(term.body, stack))
        if isinstance(term, Ident):
            if term in stack:
                raise UnguardedRecursion(str(term.name))
            if len(stack) >= MAX_UNFOLD:
                raise UnguardedRecursion(str(term.name))
            return self._compute_memo(env.resolve(term.name), stack + (term,))
        if isinstance(term, SignalEmit):
            # taking any action forgets the emission
            return tuple(_prefix_derivation(d, STEP_EMIT, d.target)
                         for d in self._compute_memo(term.body, stack))
        raise TypeError(f"not a term: {term!r}")

    def _compute_memo(self, term: Term, stack: tuple) -> tuple:
        cached = self._trans.get(term)
        if cached is None:
            cached = self._compute(term, stack)
            if not T.contains_par(term):
                self._trans[term] = cached
        return cached

    def _par(self, term: Par, stack: tuple) -> tuple:
        left = self._compute_memo(term.left, stack)
        right = self._compute_memo(term.right, stack)
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
        left_emit = self.emitters(term.left)
        right_emit = self.emitters(term.right)
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
        return _dedup(out)


def _dedup(derivations) -> tuple:
    seen = set()
    out = []
    for d in derivations:
        if d not in seen:
            seen.add(d)
            out.append(d)
    return tuple(out)
