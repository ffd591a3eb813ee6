"""Safety and liveness verdicts for mutual-exclusion models.

Safety is exhaustive reachability: no state reachable without entering
an excluded state may have two roles inside the critical section at
once.  When exploration is truncated, a bad state inside the explored
part is still a violation; finding none leaves the verdict unknown.

Liveness ("every noncrit is eventually followed by crit") is checked per
role by searching for a complete, just counterexample lasso whose cycle
avoids the role's crit action.  The search works on strongly connected
components of the transition graph with the role's crit edges (and
excluded states) removed, and rests on a monotonicity property of the
justness analysis: turning a resting component into a moving one only
removes constraints.  Hence if any cycle inside an SCC is just, the
cycle that moves every component touched by the SCC is just too, and the
per-SCC configuration (touched components moving, all others resting at
their — necessarily constant — subterms) decides the existence question
exactly.  Components are the leaf slots of the SCC's own shape (every
state of an SCC has one), so components spawned before the cycle count.
Terminal violations (a maximal state with only blocking actions enabled
while a role is stuck mid-protocol) are checked separately.  The search
is exhaustive whenever exploration was not truncated.  Every witness
cycle is confirmed by the full lasso justness check; when some witness
fails it and no other is confirmed, the verdict is "unknown", never
"holds".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .lts import Lts, explore
# is_complete is not called here; perfbench/spans.py traces verify.is_complete
from .justness import Lasso, analyze_configuration, is_complete, is_just
from .protocols import ProtocolModel
from .sos import SosEngine


@dataclass
class SafetyVerdict:
    holds: Optional[bool]  # None: unknown, no bad state in a truncated space
    witness: Optional[Lasso] = None  # stem to the violating state
    roles: tuple = ()  # role names occupying the critical section
    excluded_states: int = 0
    exhaustive: bool = True  # False when exploration was truncated

    def to_json(self):
        out = {"holds": self.holds,
               "witness": list(self.witness.stem) if self.witness else None,
               "roles": list(self.roles),
               "excludedStates": self.excluded_states}
        if not self.exhaustive:
            out["exhaustive"] = False
        return out


@dataclass
class LivenessVerdict:
    status: str  # "holds" | "violated" | "unknown"
    exhaustive: bool
    role: Optional[str] = None
    counterexample: Optional[tuple] = None  # (Lasso, JustnessVerdict)
    excluded_states: int = 0

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json(self):
        lasso, verdict = self.counterexample or (None, None)
        return {
            "status": self.status,
            "exhaustive": self.exhaustive,
            "role": self.role,
            "counterexample": (
                {"stem": list(lasso.stem), "cycle": list(lasso.cycle),
                 "justness": verdict.to_json()}
                if lasso is not None else None),
            "excludedStates": self.excluded_states,
        }


# --------------------------------------------------------------------------

@dataclass
class _Workspace:
    model: ProtocolModel
    engine: SosEngine
    lts: Lts
    ok_states: list  # state ids that are not excluded
    excluded: set

    def stem(self, goals) -> Optional[list]:
        """Shortest path from the initial state to a goal that enters no
        excluded state."""
        return _path(self.lts, self.lts.initial, goals,
                     lambda i: self.lts.transitions[i].tgt not in self.excluded)


def _prepare(model: ProtocolModel, max_states: int) -> _Workspace:
    engine = SosEngine(model.env)
    lts = explore(model.env, model.root, max_states=max_states,
                  engine=engine)
    excluded = {i for i, s in enumerate(lts.states) if model.excluded(s)}
    ok = [i for i in range(lts.num_states) if i not in excluded]
    return _Workspace(model, engine, lts, ok, excluded)


def _path(lts: Lts, source: int, goals, allowed) -> Optional[list]:
    """Shortest path (transition indices) from source to a state in goals
    that takes only transitions whose index satisfies `allowed`; [] when
    the source is a goal, None when no goal is reachable."""
    if source in goals:
        return []
    parent = {source: None}  # state -> index of the transition entering it
    queue = deque([source])
    while queue:
        s = queue.popleft()
        for i in lts.outgoing(s):
            tgt = lts.transitions[i].tgt
            if tgt in parent or not allowed(i):
                continue
            parent[tgt] = i
            if tgt in goals:
                path = []
                while tgt != source:
                    path.append(parent[tgt])
                    tgt = lts.transitions[path[-1]].src
                return path[::-1]
            queue.append(tgt)
    return None


def check_safety(model: ProtocolModel,
                 max_states: int = 1_000_000) -> SafetyVerdict:
    """A bad state reachable without entering an excluded state is a real
    violation even when exploration was truncated; otherwise a truncated
    search gives an unknown verdict (`holds` None)."""
    ws = _prepare(model, max_states)
    exhaustive = not ws.lts.truncated
    bad = set()
    bad_roles = {}
    for sid in ws.ok_states:
        state = ws.lts.states[sid]
        inside = [r.name for r in model.roles if model.in_critical(state, r)]
        if len(inside) >= 2:
            bad.add(sid)
            bad_roles[sid] = tuple(inside)
    stem = ws.stem(bad) if bad else None
    if stem is None:
        return SafetyVerdict(True if exhaustive else None,
                             excluded_states=len(ws.excluded),
                             exhaustive=exhaustive)
    target = (ws.lts.transitions[stem[-1]].tgt if stem else ws.lts.initial)
    return SafetyVerdict(False, Lasso(tuple(stem), ()), bad_roles[target],
                         len(ws.excluded), exhaustive)


# --------------------------------------------------------------------------
# liveness

def _sccs(successors, roots):
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


def _cycle_through(lts: Lts, inside, anchor: int, required: list) -> list:
    """A closed walk (transition indices) from anchor through every
    required transition, taking only transitions that satisfy `inside`
    (the edges of one strongly connected component)."""
    walk = []
    at = anchor
    for i in required:
        walk += _path(lts, at, {lts.transitions[i].src}, inside)
        walk.append(i)
        at = lts.transitions[i].tgt
    return walk + _path(lts, at, {anchor}, inside)


def check_liveness(model: ProtocolModel,
                   max_states: int = 1_000_000) -> LivenessVerdict:
    ws = _prepare(model, max_states)
    if ws.lts.truncated:
        return LivenessVerdict("unknown", exhaustive=False,
                               excluded_states=len(ws.excluded))
    mode = model.mode
    env = model.env
    lts = ws.lts
    trans = lts.transitions
    config_cache = {}
    unconfirmed = None  # role of the first witness that is_just rejected

    def config_just(shape, leaves, movers):
        resting = tuple(term for slot, term in enumerate(leaves)
                        if slot not in movers)
        key = (shape, movers, resting)
        if key not in config_cache:
            config_cache[key] = analyze_configuration(
                ws.engine, env, shape, leaves, movers, mode)
        return config_cache[key]

    for role in model.roles:
        candidates = []  # (score, kind, payload); cycles preferred

        def allowed(i):
            t = trans[i]
            return t.tgt not in ws.excluded and t.label != role.crit

        comps = _sccs(lambda s: [trans[i].tgt for i in lts.outgoing(s)
                                 if allowed(i)], ws.ok_states)
        for comp in comps:
            comp_set = set(comp)
            edges = [i for s in comp for i in lts.outgoing(s)
                     if allowed(i) and trans[i].tgt in comp_set]
            if not edges:
                continue
            anchor = min(comp_set)
            # the role must be stuck mid-protocol on this cycle
            noncrit_edges = [i for i in edges
                             if trans[i].label == role.noncrit]
            pending_states = {s for s in comp_set
                              if model.pending(lts.states[s], role)}
            if not noncrit_edges and not pending_states:
                continue
            # every state of the SCC has the anchor's shape: a Par never
            # disappears, so none can appear on a cycle either
            shape, leaves = lts.states[anchor]
            touched = frozenset().union(*(trans[i].components
                                          for i in edges))
            verdict = config_just(shape, leaves, touched)
            if not verdict.just:
                continue
            # prefer informative witnesses: cycles over dead ends, then
            # SCCs showing the most other roles completing their rounds,
            # then ones where this role performs no transition at all
            other_crits = len({trans[i].label for i in edges
                               if any(trans[i].label == r.crit
                                      for r in model.roles if r is not role)})
            role_rests = role.leaf not in {shape.addresses[slot]
                                           for slot in touched}
            score = (1, other_crits, role_rests)
            candidates.append((score, "cycle",
                               (comp_set, edges, anchor, noncrit_edges,
                                pending_states)))
        # terminal violations: a maximal, only-blocking state reached
        # while the role is still mid-protocol
        for sid in ws.ok_states:
            if not model.pending(lts.states[sid], role):
                continue
            if any(not env.is_blocking(trans[i].label)
                   for i in lts.outgoing(sid)):
                continue
            candidates.append(((0, 0, True), "terminal", sid))
        for score, kind, payload in sorted(candidates,
                                           key=lambda c: c[0], reverse=True):
            if kind == "terminal":
                stem = ws.stem({payload})
                if stem is None:
                    continue  # only reachable through excluded states
                lasso = Lasso(tuple(stem), ())
                verdict = is_just(lts, env, lasso, mode, ws.engine)
                return LivenessVerdict(
                    "violated", exhaustive=True, role=role.name,
                    counterexample=(lasso, verdict),
                    excluded_states=len(ws.excluded))
            comp_set, edges, anchor, noncrit_edges, pending = payload
            # build a witness cycle covering every touched component
            required = []
            covered = frozenset()
            if noncrit_edges and not pending:
                required.append(noncrit_edges[0])
                covered = trans[noncrit_edges[0]].components
            elif pending:
                anchor = min(pending)
            for i in edges:
                if trans[i].components - covered:
                    required.append(i)
                    covered |= trans[i].components
            walk = _cycle_through(
                lts, lambda i: allowed(i) and trans[i].tgt in comp_set,
                anchor, required)
            stem = ws.stem({anchor})
            if stem is None:
                continue
            lasso = Lasso(tuple(stem), tuple(walk))
            full = is_just(lts, env, lasso, mode, ws.engine)
            if not full.just:
                unconfirmed = unconfirmed or role.name
                continue
            return LivenessVerdict(
                "violated", exhaustive=True, role=role.name,
                counterexample=(lasso, full),
                excluded_states=len(ws.excluded))
    if unconfirmed is not None:
        return LivenessVerdict("unknown", exhaustive=True, role=unconfirmed,
                               excluded_states=len(ws.excluded))
    return LivenessVerdict("holds", exhaustive=True,
                           excluded_states=len(ws.excluded))
