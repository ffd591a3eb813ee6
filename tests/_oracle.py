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
    Y >= X u Z, X n comp(Z) = 0, X n Z' = 0 and X' n Z = 0; it is
    Y-signalling iff it decomposes with Y >= X' u Z';
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
`oracle_refine` signs every state in every round, the reference for the
rounds of `ccss.bisim._rounds`, which signs again only the predecessors
of states that changed block.  Both work on `_disjoint_union`, two
systems merged into one state list of (label, target) moves.
`union_refinement_input` codes that union as the int input of
`ccss.bisim._rounds`; on two systems it is the reference for the rounds
`ccss.bisim._replay` replays from the first system's record.
`term_explore` explores whole state terms, one SOS call per state, the
reference for the skeleton explorer `ccss.lts.explore`.  `oracle_sccs`
is Tarjan's algorithm over dicts and a successor function, the
reference for `ccss.verify._sccs`, which runs on int arrays and an edge
mask.  `oracle_liveness` judges every strongly connected set of a role's
edges, the reference for the per-SCC search of
`ccss.verify.check_liveness`.  `term_explore` resolves each
transition's components by address prefix: the leaf above each
participant.  `reference_analyze_configuration` rebuilds every resting
leaf's label and emission sets and tests each Par's clauses element by
element, the reference for `ccss.justness.analyze_configuration`, which
reads per-leaf set summaries and tests them by set intersection.
`oracle_explain` reads bisimulation evidence from label objects, the
reference for `ccss.bisim._explain`, which reads int moves.
`oracle_is_just` takes a lasso's moving components from the
participant addresses of its cycle's transitions and judges them on the
anchor's whole term, the reference for `ccss.justness.is_just`, which
reads leaf slots (`Transition.components`) and the anchor's shape.
"""

from __future__ import annotations

from itertools import product

from ccss.justness import JustnessVerdict, Witness
from ccss.lts import LEAF, PAR, RELABEL, RESTRICT
from ccss.terms import (
    SIGNAL, Par, Relabel, Restrict, SignalEmit, contains_par,
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
                           if n.base in engine.env.declared_signals)
    for a in tuple(actions):
        if a.is_handshake:
            actions.add(a.complement())
    return _Index(sorted(actions, key=str)), _Index(sorted(signals, key=str))


def oracle_config(engine, env, state_term, movers):
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
            just_bases = set()
            sig_pairs = tuple(product(ls, rs))
            # per set: the complements of its handshakes, the signals it
            # reads (a name that no subterm emits is in no Z' or X')
            zbar = {z: acts.mask(a.complement() for a in acts.decode(z)
                                 if a.is_handshake) for z in rj}
            reads = {y: sigs.mask(a.name for a in acts.decode(y)
                                  if a.is_signal and a.name in sigs.pos)
                     for y in lj | rj}
            for x, z in product(lj, rj):
                if x & zbar[z]:
                    continue
                for xp, zp in sig_pairs:
                    if not (reads[x] & zp or xp & reads[z]):
                        just_bases.add(x | z)
            sig_bases = {xp | zp for xp, zp in sig_pairs}
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
            sig = frozenset(y for y in cs if bit >= 0 and y & bit == bit)
            return cj, sig
        raise AssertionError(f"unexpected node {type(term).__name__}")

    root_just, _ = families(state_term, ())
    just = any(all(env.is_blocking(a) for a in acts.decode(y))
               for y in root_just)
    return just, root_just, acts


def reference_analyze_configuration(engine, env, shape, leaves, movers):
    """The justness verdict of `ccss.justness.analyze_configuration`,
    from one pass over the shape's post-order nodes that keeps, per
    subtree, X_min (the actions it must see blocked) and X'_min (the
    signals it keeps emitting); the first Par whose side-condition fails
    is the witness."""
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
                    engine.signals(term)))
        elif kind == PAR:
            xr, sr = stack.pop()
            xl, sl = stack.pop()
            for clause, offending in (
                    ("X ∩ Z̄_H ≠ ∅", {a for a in xl if a.is_handshake
                                      and a.complement() in xr}),
                    ("X ∩ Z′ ≠ ∅",
                     {a for a in xl if a.kind == SIGNAL and a.name in sr}),
                    ("X′ ∩ Z ≠ ∅",
                     {a for a in xr if a.kind == SIGNAL and a.name in sl})):
                if offending:
                    return JustnessVerdict(False, witness=Witness(
                        "/".join(node[1]) or "(root)", clause,
                        tuple(sorted(map(str, offending)))))
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
    bad = sorted((a for a in x if not env.is_blocking(a)), key=str)
    if bad:
        clause = ("finite path enables τ" if bad[0].is_tau else
                  "finite path enables a non-blocking action")
        return JustnessVerdict(False, witness=Witness(
            "(root)", clause, tuple(map(str, bad))))
    return JustnessVerdict(True, minimal_y=x)


def oracle_is_just(lts, env, lasso, mode=None, engine=None, cache=None):
    """Exhaustive justness verdict for an ultimately periodic run: the
    components whose projection is infinite are the participants of the
    cycle's own transitions (each transition index names one derivation),
    and the run is just iff some fully enumerated Y certifies that
    configuration at the anchor's whole term.  `cache` keeps verdicts by
    (anchor term, movers) across calls.  `mode` is unused; it stays while
    the benchmark harness (perfbench/workloads.py) passes it
    positionally."""
    from ccss.sos import SosEngine
    engine = engine or SosEngine(env)
    anchor_term = lts.term(lasso.validate(lts))
    movers = frozenset(p for i in lasso.cycle
                       for p in lts.transitions[i].participants)
    if cache is None:
        return oracle_config(engine, env, anchor_term, movers)[0]
    key = (anchor_term, movers)
    if key not in cache:
        cache[key] = oracle_config(engine, env, anchor_term, movers)[0]
    return cache[key]


MAX_EDGES = 16


class SearchTooLarge(Exception):
    pass


def _strongly_connected(chosen, ends):
    """Whether the edges in `chosen` (a bitmask over `ends`, each edge a
    (source bit, target bit) pair) form one strongly connected graph over
    the states they touch."""
    edges = [ends[k] for k in range(len(ends)) if chosen >> k & 1]
    nodes = 0
    for src, tgt in edges:
        nodes |= src | tgt
    for flip in (False, True):
        reached = nodes & -nodes  # the lowest state
        grown = True
        while grown:
            grown = False
            for src, tgt in edges:
                a, b = (tgt, src) if flip else (src, tgt)
                if reached & a and not reached & b:
                    reached |= b
                    grown = True
        if reached != nodes:
            return False
    return True


def oracle_liveness(model):
    """Per role, in order: (name, just cycles, dead ends), by brute force,
    the reference for `ccss.verify.check_liveness`, which searches the
    strongly connected components of each role's graph.  A role's own
    crit and noncrit edges are the transitions with that label in which a
    component at or below `role.leaf` takes part.  A role's edges are the
    transitions other than its own crit edges into states that are not
    excluded, from states reached from the initial one without entering
    an excluded state.  Its just cycles are the subsets of those edges
    that form one strongly connected graph, have an own noncrit edge or
    a pending state, and are just when the components their edges move
    keep moving and every other component rests (`oracle_config`,
    judged at the subset's lowest state).  Its dead ends are the
    reached, pending states whose actions all block.  A subset is a
    closed walk, not a simple cycle: a run that takes two loops in turn
    may be just when neither loop alone is.

    Such a subset only holds edges whose source and target reach each
    other, between states of one class of mutually reachable states, so
    the subsets of each class's edges are enumerated; `SearchTooLarge` is
    raised when a class has more than `MAX_EDGES` edges."""
    from ccss.lts import explore
    from ccss.sos import SosEngine
    env = model.env
    engine = SosEngine(env)
    lts = explore(env, model.root, engine=engine)
    trans = lts.transitions
    ok = model.in_model(lts.states)

    def reach(source, edges):
        """The states reachable from source over these edges."""
        found, frontier = {source}, [source]
        while frontier:
            s = frontier.pop()
            for t in edges:
                if t.src == s and t.tgt not in found:
                    found.add(t.tgt)
                    frontier.append(t.tgt)
        return found

    reached = reach(lts.initial, [t for t in trans if ok[t.tgt]])
    stuck = [s for s in sorted(reached)
             if all(env.is_blocking(t.label) for t in trans if t.src == s)]
    verdicts = {}
    out = []
    for role in model.roles:
        pending = model.flags(lts.states, role, role.pending_terms)

        def own(t, label, depth=len(role.leaf)):
            return t.label == label and any(p[:depth] == role.leaf
                                            for p in t.participants)

        edges = [t for t in trans if t.src in reached and ok[t.tgt]
                 and not own(t, role.crit)]
        ahead = {s: reach(s, edges) for s in reached}
        classes = {}
        for t in edges:
            if t.src in ahead[t.tgt]:
                cls = frozenset(s for s in ahead[t.src] if t.src in ahead[s])
                classes.setdefault(cls, []).append(t)
        cycles = 0
        for group in classes.values():
            if len(group) > MAX_EDGES:
                raise SearchTooLarge(
                    f"role {role.name}: {len(group)} edges in one class")
            ends = [(1 << t.src, 1 << t.tgt) for t in group]
            for chosen in range(1, 1 << len(group)):
                if not _strongly_connected(chosen, ends):
                    continue
                walk = [t for k, t in enumerate(group) if chosen >> k & 1]
                states = {t.src for t in walk}
                if not (any(own(t, role.noncrit) for t in walk)
                        or any(pending[s] for s in states)):
                    continue
                key = (min(states),
                       frozenset(p for t in walk for p in t.participants))
                if key not in verdicts:
                    verdicts[key] = oracle_config(
                        engine, env, lts.term(key[0]), key[1])[0]
                cycles += verdicts[key]
        out.append((role.name, cycles, sum(pending[s] for s in stuck)))
    return out

def _disjoint_union(lts_a, lts_b):
    """Merge two systems into one state list; b's ids are shifted.  Per
    state the list of its (label, target) moves, and its emission set."""
    shift = lts_a.num_states
    out = [[] for _ in range(shift + lts_b.num_states)]
    for t in lts_a.transitions:
        out[t.src].append((t.label, t.tgt))
    for t in lts_b.transitions:
        out[t.src + shift].append((t.label, t.tgt + shift))
    signals = list(lts_a.state_signals) + list(lts_b.state_signals)
    return out, signals, shift


def union_refinement_input(*systems):
    """The systems as one state list, each system's ids shifted past the
    ones before it, coded as the input of `ccss.bisim._rounds`: per state
    its moves, as (label id * n, target) pairs of ints, its predecessors
    (one per transition into it), its emission set, and the labels by
    id."""
    n = sum(lts.num_states for lts in systems)
    moves = [[] for _ in range(n)]
    preds = [[] for _ in range(n)]
    label_ids = {}
    shift = 0
    for lts in systems:
        for t in lts.transitions:
            src, tgt = t.src + shift, t.tgt + shift
            code = label_ids.get(t.label)
            if code is None:
                code = label_ids[t.label] = len(label_ids) * n
            moves[src].append((code, tgt))
            preds[tgt].append(src)
        shift += lts.num_states
    signals = [e for lts in systems for e in lts.state_signals]
    return moves, preds, signals, list(label_ids)


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


def oracle_explain(out, signals, a, b, history):
    """Evidence that states a and b of a disjoint union differ, read from
    refinement rounds and the two states' (label, target) moves: in the
    first round that separates them, the first signal by name that only
    one emits (round 0), or else the label of the first move of a, then
    of b, that the other state cannot match with a move of that label
    into the same block of the round before."""
    from ccss.bisim import Distinction

    first = next(k for k, blocks in enumerate(history)
                 if blocks[a] != blocks[b])
    if first == 0:
        name = sorted(map(str, signals[a] ^ signals[b]))[0]
        return Distinction((), f"emission of {name} differs")
    prev = history[first - 1]
    moves_a = [(label, prev[t]) for label, t in out[a]]
    moves_b = [(label, prev[t]) for label, t in out[b]]
    label = next((m[0] for m in moves_a if m not in moves_b), None)
    if label is None:
        label = next(m[0] for m in moves_b if m not in moves_a)
    return Distinction((label,), f"one side offers {label} into a class "
                                 f"the other cannot reach")


def oracle_refine(out, signals):
    """Signature-based partition refinement that signs every state every
    round.  Returns the final block id per state and the per-round
    history, with blocks numbered in order of first appearance.

    A state's signature is its block followed by the sorted set of its
    moves, each coded as label id * n + target block."""
    n = len(out)
    blocks = {}
    block_of = []
    for s in range(n):
        key = signals[s]
        bid = blocks.setdefault(key, len(blocks))
        block_of.append(bid)
    label_ids = {}
    moves = [[(label_ids.setdefault(label, len(label_ids)) * n, tgt)
              for label, tgt in out[s]] for s in range(n)]
    history = [list(block_of)]
    while True:
        sig_ids = {}
        new = [0] * n
        for s in range(n):
            sig = (block_of[s], *sorted(
                {code + block_of[tgt] for code, tgt in moves[s]}))
            new[s] = sig_ids.setdefault(sig, len(sig_ids))
        if new == block_of:
            return block_of, history
        block_of = new
        history.append(list(block_of))


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


def oracle_sccs(successors, roots):
    """Tarjan over the subgraph reachable from roots (iterative);
    `successors(state)` gives the target states of its edges."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = [0]
    for root in roots:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out
