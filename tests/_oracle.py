"""Brute-force justness and bisimilarity oracles.

Independently re-decides whether a lasso-shaped run is just by enumerating
*all* candidate bound-set assignments over the finite relevant alphabet:
for every node of the parallel-composition tree it computes the complete
family of sets Y for which the projected run is Y-just (and the family for
which it is Y-signalling), directly from the coinductive clauses:

  * a finite run is Y-just iff its final state admits actions from Y only
    (and Y-signalling iff that state emits signals from Y only);
  * a run of P | Q is Y-just iff it decomposes into an X-just and
    X'-signalling run of P and a Z-just and Z'-signalling run of Q with
    Y >= X u Z, X n comp(Z) = 0, X n Z' = 0 and X' n Z = 0 (the two signal
    conditions are dropped in plain-handshake mode); it is Y-signalling
    iff it decomposes with Y >= X' u Z';
  * a run of P \\ L is Y-just iff the inner run is (Y u L u comp(L))-just,
    and Y-signalling iff the inner run is (Y u L_sig)-signalling;
  * a run of P[f] is Y-just (Y-signalling) iff the inner run is
    f^-1(Y)-just (f^-1(Y)-signalling);
  * an infinite run of a sequential component is constrained by no clause,
    so every Y qualifies.

The run is just iff some member of the root family contains blocking
actions only.  Families are sets of bitmasks over the union of all actions
enabled at (or signals emitted by) any subterm of the anchor state, so
every quantifier really is an exhaustive enumeration.  This is exponential
and only meant for systems with a handful of actions.

`naive_bisimilar` re-decides strong bisimilarity as a greatest fixpoint
over the full relation, the reference for partition refinement.
`term_explore` explores whole state terms, one SOS call per state, the
reference for the skeleton explorer `ccss.lts.explore`.  It resolves each
transition's components by address prefix: the leaf above each
participant.
"""

from __future__ import annotations

from itertools import product

from ccss.bisim import _disjoint_union
from ccss.terms import (
    Par, Relabel, Restrict, SignalEmit, contains_par,
    STEP_LEFT, STEP_RIGHT, STEP_RESTRICT, STEP_RELABEL, STEP_EMIT,
)

MAX_UNIVERSE = 14


class UniverseTooLarge(Exception):
    pass


def _subterm_nodes(term):
    yield term
    if isinstance(term, Par):
        yield from _subterm_nodes(term.left)
        yield from _subterm_nodes(term.right)
    elif isinstance(term, (Restrict, Relabel, SignalEmit)):
        yield from _subterm_nodes(term.body)


class _Index:
    """Bitmask encoding of action/signal sets over a fixed universe."""

    def __init__(self, items):
        self.items = tuple(items)
        if len(self.items) > MAX_UNIVERSE:
            raise UniverseTooLarge(f"{len(self.items)} elements")
        self.pos = {item: i for i, item in enumerate(self.items)}
        self.full = (1 << len(self.items)) - 1
        self.all_sets = tuple(range(self.full + 1))

    def mask(self, items) -> int:
        out = 0
        for item in items:
            bit = self.pos.get(item)
            if bit is None:
                return -1  # contains something outside the universe
            out |= 1 << bit
        return out

    def decode(self, mask: int):
        return frozenset(item for item, i in self.pos.items()
                         if mask >> i & 1)


def _universes(engine, term):
    actions, signals = set(), set()
    for node in _subterm_nodes(term):
        for d in engine.transitions(node):
            if not d.label.is_tau:
                actions.add(d.label)
        signals.update(engine.signals(node))
        if isinstance(node, Restrict):
            signals.update(n for n in node.names
                           if engine.env.is_signal_base(n.base))
    for a in tuple(actions):
        if a.is_handshake:
            actions.add(a.complement())
    return _Index(sorted(actions, key=str)), _Index(sorted(signals, key=str))


def oracle_config(engine, env, state_term, movers, mode="ccss"):
    """(just?, root family of Y masks, action index).

    `movers` is the set of component addresses whose projection of the run
    is infinite; every other component rests at its subterm of
    `state_term` forever.
    """
    acts, sigs = _universes(engine, state_term)

    def upward(bases, index):
        """All supersets (within the universe) of any base set."""
        return frozenset(y for y in index.all_sets
                         if any(y & b == b for b in bases))

    def families(term, path):
        """(just family, signalling family) of Y masks for this node."""
        subtree_moves = any(m[:len(path)] == path for m in movers)
        if not contains_par(term) or not subtree_moves:
            # A sequential component (or an untouched parallel subtree,
            # whose projection is a finite run ending here).
            if subtree_moves:
                return frozenset(acts.all_sets), frozenset(sigs.all_sets)
            enabled = acts.mask(d.label for d in engine.transitions(term)
                                if not d.label.is_tau)
            if any(d.label.is_tau for d in engine.transitions(term)):
                enabled = -1  # an internal step can never be in Y
            just = frozenset() if enabled < 0 else upward([enabled], acts)
            emitted = sigs.mask(engine.signals(term))
            return just, upward([emitted], sigs)
        if isinstance(term, Par):
            lj, ls = families(term.left, path + (STEP_LEFT,))
            rj, rs = families(term.right, path + (STEP_RIGHT,))
            just_bases, sig_bases = set(), set()
            sig_pairs = (tuple(product(ls, rs)) if mode == "ccss"
                         else ((0, 0),))
            for x, z in product(lj, rj):
                zbar = acts.mask(a.complement()
                                 for a in acts.decode(z) if a.is_handshake)
                if x & zbar:
                    continue
                for xp, zp in sig_pairs:
                    if mode == "ccss":
                        xreads = sigs.mask(a.name for a in acts.decode(x)
                                           if a.is_signal)
                        zreads = sigs.mask(a.name for a in acts.decode(z)
                                           if a.is_signal)
                        if xreads & zp or xp & zreads:
                            continue
                    just_bases.add(x | z)
            for xp, zp in product(ls, rs):
                sig_bases.add(xp | zp)
            return upward(just_bases, acts), upward(sig_bases, sigs)
        if isinstance(term, Restrict):
            cj, cs = families(term.body, path + (STEP_RESTRICT,))
            l_acts = 0
            for a in acts.items:
                if a.name in term.names:
                    l_acts |= 1 << acts.pos[a]
            l_sigs = sigs.mask(n for n in term.names
                               if n in sigs.pos)
            just = frozenset(y for y in acts.all_sets if (y | l_acts) in cj)
            sig = frozenset(y for y in sigs.all_sets if (y | l_sigs) in cs)
            return just, sig
        if isinstance(term, Relabel):
            cj, cs = families(term.body, path + (STEP_RELABEL,))
            f = term.relabelling

            def preimage(y, index, image):
                out = 0
                for item, i in index.pos.items():
                    bit = index.pos.get(image(item))
                    if bit is not None and y >> bit & 1:
                        out |= 1 << i
                return out

            just = frozenset(y for y in acts.all_sets
                             if preimage(y, acts, f.apply) in cj)
            sig = frozenset(
                y for y in sigs.all_sets
                if preimage(y, sigs, lambda n: f.apply_name(n, True)) in cs)
            return just, sig
        if isinstance(term, SignalEmit):
            cj, cs = families(term.body, path + (STEP_EMIT,))
            bit = sigs.mask([term.signal])
            sig = frozenset(y for y in cs if bit >= 0 and y & bit == bit
                            ) if mode == "ccss" else cs
            return cj, sig
        raise AssertionError(f"unexpected node {type(term).__name__}")

    root_just, _ = families(state_term, ())
    just = any(all(env.is_blocking(a) for a in acts.decode(y))
               for y in root_just)
    return just, root_just, acts


def _alternatives(lts, t):
    """All transitions with the same (source, label, target) triple."""
    siblings = (lts.transitions[i] for i in lts.outgoing(t.src))
    return [u for u in siblings if u.label == t.label and u.tgt == t.tgt]


def oracle_is_just(lts, env, lasso, mode="ccss", engine=None,
                   max_assignments=4096, cache=None):
    """Exhaustive justness verdict for an ultimately periodic run.

    Mirrors the run-level quantifier structure: the run is just iff *some*
    choice of derivation for each cycle step yields a configuration that
    some fully enumerated Y certifies.
    """
    from ccss.sos import SosEngine
    engine = engine or SosEngine(env)
    anchor = lasso.validate(lts)
    anchor_term = lts.states[anchor]

    def config(movers):
        if cache is not None:
            key = (anchor_term, movers, mode)
            if key not in cache:
                cache[key] = oracle_config(engine, env, anchor_term,
                                           movers, mode)[0]
            return cache[key]
        return oracle_config(engine, env, anchor_term, movers, mode)[0]

    if not lasso.cycle:
        return config(frozenset())
    options = [_alternatives(lts, lts.transitions[i]) for i in lasso.cycle]
    seen = set()
    count = 0
    for choice in product(*options):
        count += 1
        if count > max_assignments:
            raise AssertionError("assignment budget exhausted")
        movers = frozenset(p for t in choice for p in t.participants)
        if movers in seen:
            continue
        seen.add(movers)
        if config(movers):
            return True
    return False


def naive_bisimilar(lts_a, a, lts_b, b):
    """Greatest-fixpoint computation over the full relation; quadratic in
    states, only suitable for small systems."""
    out, signals, shift = _disjoint_union(lts_a, lts_b)
    n = len(out)
    related = [[signals[p] == signals[q] for q in range(n)] for p in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if not related[p][q]:
                    continue
                ok = (all(any(lq == lp and related[tp][tq] for lq, tq in out[q])
                          for lp, tp in out[p])
                      and all(any(lp == lq and related[tq][tp]
                                  for lp, tp in out[p])
                              for lq, tq in out[q]))
                if not ok:
                    related[p][q] = False
                    changed = True
    return related[a][b + shift]


def term_explore(env, root, max_states=1_000_000, engine=None):
    """Breadth-first exploration over whole state terms, one
    `SosEngine.transitions` call per state: the reference for
    `ccss.lts.explore`, which must return an identical system."""
    from collections import deque

    from ccss.lts import Lts, Transition
    from ccss.sos import SosEngine
    from ccss.terms import canonical, leaf_paths

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
        leaves = leaf_paths(states[sid])
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
            components = frozenset(
                next(slot for slot, leaf in enumerate(leaves)
                     if address[:len(leaf)] == leaf)
                for address in d.participants)
            transitions.append(Transition(sid, d.label, tid,
                                          d.participants, d.signal_partner,
                                          components))
    return Lts(states, 0, transitions, signals, truncated)
