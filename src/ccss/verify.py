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
A role's crit and noncrit edges are those with its label that move its
own component (a slot at or below `Role.leaf`); another component's
action with the same label is an edge like any other.  The role is
stuck on an SCC with a pending state, where it waits mid-protocol.  An
SCC with one of the role's noncrit edges has one too, that edge's
target, so this is the brute-force reference's condition "a pending
state or a noncrit edge".  Per role, cycles come first, in the order
Tarjan's algorithm finds the SCCs; the first witness cycle that the
full lasso justness check confirms is reported.  Only then are dead
ends tried (a maximal state with only blocking actions enabled while
the role is stuck mid-protocol).  The search is exhaustive whenever exploration was not
truncated.  When some witness cycle fails the check and no other
witness is confirmed, the verdict is "unknown", never "holds".

The per-state and per-edge loops read int columns, not `Transition`s:
transition sources, targets and label ids (`Lts.sources`, `Lts.targets`,
`Lts.label_ids`), per role an edge mask (target not excluded, not one of
the role's crit edges) and per-state role flags (`ProtocolModel.flags`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import eq
from typing import Optional

from .lts import MAX_STATES, Lts, explore
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
    engine: SosEngine
    lts: Lts
    ok: bytearray  # per state: 1 when it is not excluded
    ok_states: list  # state ids that are not excluded

    @cached_property
    def ok_edges(self) -> bytearray:
        """Per transition: 1 when its target is not excluded."""
        return bytearray(map(self.ok.__getitem__, self.lts.targets))

    def stem(self, goals) -> Optional[list]:
        """Shortest path from the initial state to a goal that enters no
        excluded state."""
        return _path(self.lts, self.lts.initial, goals, self.ok_edges)


def _prepare(model: ProtocolModel, max_states: int) -> _Workspace:
    engine = SosEngine(model.env)
    lts = explore(model.env, model.root, max_states=max_states,
                  engine=engine)
    ok = model.in_model(lts.states)
    return _Workspace(engine, lts, ok, list(compress(count(), ok)))


def _path(lts: Lts, source: int, goals, mask) -> Optional[list]:
    """Shortest path (transition indices) from source to a state in goals
    that takes only transitions i with `mask[i]` set; [] when the source
    is a goal, None when no goal is reachable."""
    if source in goals:
        return []
    targets = lts.targets
    parent = {source: None}  # state -> index of the transition entering it
    queue = deque([source])
    while queue:
        s = queue.popleft()
        for i in lts.outgoing(s):
            tgt = targets[i]
            if tgt in parent or not mask[i]:
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
                 max_states: int = MAX_STATES) -> SafetyVerdict:
    """A bad state reachable without entering an excluded state is a real
    violation even when exploration was truncated; otherwise a truncated
    search gives an unknown verdict (`holds` None)."""
    ws = _prepare(model, max_states)
    exhaustive = not ws.lts.truncated
    inside = [model.flags(ws.lts.states, r, r.critical_terms)
              for r in model.roles]
    bad = {s for s, n in enumerate(map(sum, zip(*inside)))
           if n >= 2 and ws.ok[s]}
    stem = ws.stem(bad) if bad else None
    if stem is None:
        return SafetyVerdict(True if exhaustive else None,
                             excluded_states=ws.ok.count(0),
                             exhaustive=exhaustive)
    target = (ws.lts.transitions[stem[-1]].tgt if stem else ws.lts.initial)
    return SafetyVerdict(False, Lasso(tuple(stem), ()), tuple(
        r.name for r, flags in zip(model.roles, inside) if flags[target]),
        ws.ok.count(0), exhaustive)


# --------------------------------------------------------------------------
# liveness

def _sccs(lts: Lts, mask, roots):
    """Strongly connected components (Tarjan, iterative) of the states
    reachable from roots over the transitions i with `mask[i]` set, each
    yielded as a list once found."""
    n = lts.num_states
    targets = lts.targets
    index = [-1] * n  # a state's index is n once its component is out
    low = [0] * n
    stack = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        work = [(root, iter(lts.outgoing(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            v, it = work[-1]
            for i in it:
                if not mask[i]:
                    continue
                w = targets[i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(lts.outgoing(w))))
                    break
                if index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        index[comp[-1]] = n
                    yield comp


def _cycle_through(lts: Lts, inside, anchor: int, required: list) -> list:
    """A closed walk (transition indices) from anchor through every
    required transition, taking only transitions i with `inside[i]` set
    (the edges of one strongly connected component)."""
    walk = []
    at = anchor
    sources, targets = lts.sources, lts.targets
    for i in required:
        walk += _path(lts, at, {sources[i]}, inside)
        walk.append(i)
        at = targets[i]
    return walk + _path(lts, at, {anchor}, inside)


def _moves(lts: Lts, i: int, leaf: tuple) -> bool:
    """Whether transition i moves the component at `leaf`: among its
    components is a slot at or below it, in the source state's shape."""
    addresses = lts.states[lts.sources[i]].shape.addresses
    return any(addresses[k][:len(leaf)] == leaf
               for k in lts.transitions[i].components)


def check_liveness(model: ProtocolModel,
                   max_states: int = MAX_STATES) -> LivenessVerdict:
    ws = _prepare(model, max_states)
    excluded = ws.ok.count(0)
    if ws.lts.truncated:
        return LivenessVerdict("unknown", exhaustive=False,
                               excluded_states=excluded)
    env = model.env
    lts = ws.lts
    trans = lts.transitions
    targets = lts.targets
    label_of, label_id = lts.label_ids
    sources = lts.sources
    # states with a self-loop, and states with only blocking moves
    looped = set(compress(sources, map(eq, sources, targets)))
    moving = [not env.is_blocking(a) for a in label_id]
    active = set(compress(sources, map(moving.__getitem__, label_of)))
    stuck = [s for s in ws.ok_states if s not in active]
    unconfirmed = None  # role of the first witness that is_just rejected

    for role in model.roles:
        crit = label_id.get(role.crit, -1)
        # the role's edges: none of its own crit edges, no excluded target
        mask = bytearray(ws.ok_edges)
        for i in compress(count(), map(crit.__eq__, label_of)):
            if _moves(lts, i, role.leaf):
                mask[i] = 0
        pending = model.flags(lts.states, role, role.pending_terms)
        comp_of = [-1] * lts.num_states
        for c, comp in enumerate(_sccs(lts, mask, ws.ok_states)):
            if len(comp) == 1 and comp[0] not in looped:
                continue  # a state on no cycle
            for s in comp:
                comp_of[s] = c
            edges = [i for s in comp for i in lts.outgoing(s)
                     if mask[i] and comp_of[targets[i]] == c]
            # the role must be stuck mid-protocol on this cycle
            waiting = [s for s in comp if pending[s]]
            if not edges or not waiting:
                continue
            # every state of the SCC has one shape: a Par never
            # disappears, so none can appear on a cycle either
            shape, leaves = lts.states[min(comp)]
            touched = frozenset().union(*(trans[i].components
                                          for i in edges))
            if not analyze_configuration(ws.engine, env, shape, leaves,
                                         touched).just:
                continue
            # build a witness cycle from a pending state, covering every
            # touched component
            anchor = min(waiting)
            required = []
            covered = frozenset()
            inside = bytearray(len(trans))
            for i in edges:
                inside[i] = 1
                if trans[i].components - covered:
                    required.append(i)
                    covered |= trans[i].components
            walk = _cycle_through(lts, inside, anchor, required)
            stem = ws.stem({anchor})
            if stem is None:
                continue  # only reachable through excluded states
            lasso = Lasso(tuple(stem), tuple(walk))
            verdict = is_just(lts, env, lasso, engine=ws.engine)
            if not verdict.just:
                unconfirmed = unconfirmed or role.name
                continue
            return LivenessVerdict("violated", True, role.name,
                                   (lasso, verdict), excluded)
        # dead ends: a maximal, only-blocking state reached while the
        # role is still mid-protocol
        for s in stuck:
            stem = ws.stem({s}) if pending[s] else None
            if stem is not None:
                lasso = Lasso(tuple(stem), ())
                return LivenessVerdict("violated", True, role.name, (
                    lasso, is_just(lts, env, lasso, engine=ws.engine)),
                    excluded)
    if unconfirmed is not None:
        return LivenessVerdict("unknown", exhaustive=True, role=unconfirmed,
                               excluded_states=excluded)
    return LivenessVerdict("holds", exhaustive=True,
                           excluded_states=excluded)
