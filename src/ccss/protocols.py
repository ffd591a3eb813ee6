"""Generators for the bundled mutual-exclusion models, and role tagging.

Each generator writes the model as `.ccss` source text and builds from
it a parsed `ProtocolModel` whose roles `roles_from_file` infers, as for
any model file; building does not validate the model, and
`tests/test_protocols.py::test_model_sources_parse_and_validate`
validates every generated source.  The roles say which action marks a
process leaving its noncritical section, which one marks entry into the
critical section, and which leaf subterms count as "pending"
(noncritical section left, critical section not yet reached) or as
occupying the critical section.
Shared variables come in two flavors: `ccs` variables answer reads by
handshake, `ccss` variables emit their value as a signal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import getitem, itemgetter, not_

from .errors import ComponentTooLarge, DynamicParallelism, ParameterOutOfRange
from .terms import (
    Action, Environment, Ident, Prefix, Relabel, Term, canonical,
    leaf_paths, reachable, subterm_at,
)
from .syntax import SpecFile, parse, term_str
# explore is not called here; perfbench/spans.py traces protocols.explore
from .lts import State, explore
from .sos import SosEngine

FLAVORS = ("ccs", "ccss")
# most local states of one component walked on its own for role tagging
_AGENT_MAX_STATES = 200_000


@dataclass(frozen=True)
class Role:
    name: str
    noncrit: Action
    crit: Action
    leaf: tuple  # component address in the system term
    pending_terms: frozenset  # leaf subterms between noncrit and crit
    critical_terms: frozenset  # leaf subterms inside the critical section
    overflow_terms: frozenset = frozenset()  # leaf subterms to exclude


@dataclass
class ProtocolModel:
    env: Environment
    root: Term
    roles: tuple
    source: str = ""

    @property
    def mode(self) -> str:
        """`ccss` when the model declares signals; only perfbench reads it."""
        return "ccss" if self.env.declared_signals else "ccs"

    def in_model(self, states: list) -> bytearray:
        """Per state: 1 when no role's component is an overflow term."""
        over = [self.flags(states, r, r.overflow_terms)
                for r in self.roles if r.overflow_terms]
        return bytearray(map(not_, map(any, zip(*over))) if over
                         else b"\1" * len(states))

    def flags(self, states: list, role: Role, terms) -> bytearray:
        """Per state: 1 when the role's component (see `_component`) is
        one of `terms`; read by slot when every shape has the role's."""
        slots = {shape: shape.slots.get(role.leaf)
                 for shape in set(map(itemgetter(0), states))}
        found = ([_component(state, role) for state in states]
                 if None in slots.values() else
                 map(getitem, map(itemgetter(1), states),
                     map(slots.__getitem__, map(itemgetter(0), states))))
        return bytearray(map(terms.__contains__, found))


def _component(state: State, role: Role) -> Term:
    """The leaf at the role's address; once the role's component has
    spawned, the subterm there."""
    shape, leaves = state
    if role.leaf in shape.slots:
        return leaves[shape.slots[role.leaf]]
    depth = len(role.leaf)
    if not any(a[:depth] == role.leaf for a in shape.addresses):
        raise DynamicParallelism(f"role {role.name}: no component at "
                                 f"{'/'.join(role.leaf)} once the emission "
                                 "above it is dropped")
    return subterm_at(shape.term(leaves), role.leaf)


# --------------------------------------------------------------------------
# role tagging

def _may_name_noncrit(env: Environment, agent: Term) -> bool:
    """Whether an action base starting with `noncrit` occurs in the
    component's term, in an equation its identifiers reach (every
    equation of each name and arity) or as a relabelling target.  This
    over-approximates the component's actions, so a component for which
    it is false holds no role."""
    for term, _ in reachable(env, agent):
        if isinstance(term, Prefix):
            if (not term.action.is_tau
                    and term.action.name.base.startswith("noncrit")):
                return True
        elif isinstance(term, Relabel):
            f = term.relabelling
            if any(new.base.startswith("noncrit")
                   for _, new in f.handshake_map + f.signal_map):
                return True
    return False


def _local_graph(engine: SosEngine, agent: Term, leaf: tuple) -> tuple:
    """The component's own states, as whole terms numbered breadth-first
    from its canonical form, and per state its (label, target) moves in
    derivation order: the states and transitions `explore` would give,
    in its order."""
    states = [canonical(engine.env, agent)]
    index = {states[0]: 0}
    moves = []
    for term in states:  # grows as states are found: the FIFO queue
        out = []
        for d in engine.transitions(term):
            tgt = index.get(d.target)
            if tgt is None:
                if len(states) >= _AGENT_MAX_STATES:
                    raise ComponentTooLarge(
                        f"component {term_str(agent)} at "
                        f"{'/'.join(leaf) or 'the root'} has more than "
                        f"{_AGENT_MAX_STATES} states; its roles cannot "
                        "be tagged")
                tgt = index[d.target] = len(states)
                states.append(d.target)
            out.append((d.label, tgt))
        moves.append(out)
    return states, moves


def _tag_role(name: str, graph: tuple, noncrit: Action, crit: Action,
              leaf: tuple) -> Role:
    """Classify the local states of the component's own graph."""
    states, moves = graph
    stack, critical, overflow = [], set(), set()
    for s, out in enumerate(moves):
        for label, t in out:
            if label == noncrit:
                stack.append(t)
            elif label == crit:
                critical.add(t)
            elif not label.is_tau and label.name.base == "overflow":
                overflow.update((s, t))
    pending = set()
    while stack:
        s = stack.pop()
        if s not in pending:
            pending.add(s)
            stack.extend(t for label, t in moves[s] if label != crit)
    return Role(
        name, noncrit, crit, leaf,
        frozenset(states[s] for s in pending),
        frozenset(states[s] for s in critical),
        frozenset(states[s] for s in overflow))


def roles_from_file(spec: SpecFile) -> ProtocolModel:
    """Build role metadata for a specification: any component whose own
    behavior contains a pair of actions whose names start with `noncrit`
    and `crit` (same suffix and parameters) is treated as one process of
    a mutual-exclusion protocol.  The generators build their models with
    it too.  A component whose term and reachable equations name no
    `noncrit*` action is not walked.  `reachable` reads every equation of
    a call's base and arity, whatever its parameters, so a component
    that is a call is pre-scanned once per base and arity."""
    engine = SosEngine(spec.env)
    roles = []
    scanned = {}  # a call's (base, arity), or another term -> pre-scan
    for leaf in leaf_paths(spec.root):
        agent = subterm_at(spec.root, leaf)
        key = ((agent.name.base, len(agent.name.params))
               if isinstance(agent, Ident) else agent)
        if key not in scanned:
            scanned[key] = _may_name_noncrit(spec.env, agent)
        if not scanned[key]:
            continue
        graph = _local_graph(engine, agent, leaf)
        noncrit = {}
        crits = {}
        for out in graph[1]:
            for label, _ in out:
                if label.is_tau or label.kind != "name":
                    continue
                base, params = label.name.base, label.name.params
                if base.startswith("noncrit"):
                    noncrit[(base[len("noncrit"):], params)] = label
                elif base.startswith("crit"):
                    crits[(base[len("crit"):], params)] = label
        for key, nc in noncrit.items():
            if key in crits:
                name = ("P" + "_".join(str(p) for p in key[1])
                        if key[1] else (key[0] or "P"))
                roles.append(_tag_role(name, graph, nc, crits[key], leaf))
    return ProtocolModel(spec.env, spec.root, tuple(roles))


def _model(source: str) -> ProtocolModel:
    """A generated model: `source` parsed, its roles inferred."""
    return replace(roles_from_file(parse(source)), source=source)


# --------------------------------------------------------------------------
# the one-variable examples

_EX1 = """\
# One shared boolean variable x (initially true), a reader that polls for
# x = true, and a writer that writes false once.  Reads and writes are
# handshakes; the read loop can starve the writer without violating
# justness.
blocking { assign_x_true, assign_x_false, noti_x_true, noti_x_false }

X_true = assign_x_true.X_true + assign_x_false.X_false + 'noti_x_true.X_true
X_false = assign_x_false.X_false + assign_x_true.X_true + 'noti_x_false.X_false
R = noti_x_true.R
W = 'assign_x_false.0

system = (X_true | R | W) \\ {assign_x_true, assign_x_false, noti_x_true, noti_x_false}
"""

_EX2 = """\
# The same system with the variable's value emitted as a signal: reading
# no longer involves the variable, so the read loop leaves the variable
# resting with the write forever enabled, and pure read loops are unjust.
signals { noti_x_true, noti_x_false }
blocking { assign_x_true, assign_x_false, noti_x_true, noti_x_false }

X_true = (assign_x_true.X_true + assign_x_false.X_false) ^ noti_x_true
X_false = (assign_x_false.X_false + assign_x_true.X_true) ^ noti_x_false
R = noti_x_true.R
W = 'assign_x_false.0

system = (X_true | R | W) \\ {assign_x_true, assign_x_false, noti_x_true, noti_x_false}
"""


def example1() -> ProtocolModel:
    return _model(_EX1)


def example2() -> ProtocolModel:
    return _model(_EX2)


# --------------------------------------------------------------------------
# two-process mutual exclusion with a turn variable

def _variable(agent: str, name: str, values, flavor: str) -> list:
    """Equations of a shared variable: agent `{agent}_{v}` holds value v,
    accepts any write `assign_{name}_{w}` and offers its value for reading,
    by handshake `'noti_{name}_{v}` (ccs) or as the signal `noti_{name}_{v}`
    (ccss)."""
    writes = " + ".join(f"assign_{name}_{w}.{agent}_{w}" for w in values)
    if flavor == "ccss":
        return [f"{agent}_{v} = ({writes}) ^ noti_{name}_{v}" for v in values]
    return [f"{agent}_{v} = {writes} + 'noti_{name}_{v}.{agent}_{v}"
            for v in values]


def peterson2(flavor: str = "ccss") -> ProtocolModel:
    if flavor not in FLAVORS:
        raise ParameterOutOfRange(f"unknown flavor {flavor!r}")
    internal = []
    for base, values in (("readyA", ("true", "false")),
                         ("readyB", ("true", "false")),
                         ("turn", ("A", "B"))):
        for v in values:
            internal += [f"assign_{base}_{v}", f"noti_{base}_{v}"]
    lines = []
    if flavor == "ccss":
        signals = [n for n in internal if n.startswith("noti_")]
        lines.append("signals { " + ", ".join(signals) + " }")
    lines.append("blocking { noncritA, noncritB }")
    for me, other, turn_me, turn_other in (("A", "B", "A", "B"),
                                           ("B", "A", "B", "A")):
        exit_cs = f"crit{me}.'assign_ready{me}_false.{me}"
        lines.append(
            f"{me} = noncrit{me}.'assign_ready{me}_true.'assign_turn_{turn_other}"
            f".(noti_ready{other}_false.{exit_cs}"
            f" + noti_turn_{turn_me}.{exit_cs})")
    for agent, name, values in (("ReadyA", "readyA", ("true", "false")),
                                ("ReadyB", "readyB", ("true", "false")),
                                ("Turn", "turn", ("A", "B"))):
        lines += _variable(agent, name, values, flavor)
    lines.append(
        "system = (A | B | ReadyA_false | ReadyB_false | Turn_A) \\ {"
        + ", ".join(internal) + "}")
    return _model("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# N-process filter lock

def filter_lock(n: int, flavor: str = "ccss", max_n: int = 4) -> ProtocolModel:
    """N processes pass through N-1 waiting rooms; room[i] is the room
    process i currently requests, last[j] the latest arrival in room j."""
    if flavor not in FLAVORS:
        raise ParameterOutOfRange(f"unknown flavor {flavor!r}")
    if not 2 <= n <= max_n:
        raise ParameterOutOfRange(f"filter lock supports 2..{max_n} "
                                  f"processes, got {n}")
    procs = range(1, n + 1)
    rooms = range(0, n)  # values of room[i]
    internal = []
    for i in procs:
        internal += [f"assign_room[{i}]_{v}" for v in rooms]
        internal += [f"noti_room[{i}]_{v}" for v in rooms]
    for j in range(1, n):
        internal += [f"assign_last[{j}]_{i}" for i in procs]
        internal += [f"noti_last[{j}]_{i}" for i in procs]
    lines = []
    if flavor == "ccss":
        lines.append("signals { noti_room, noti_last }")
    lines.append("blocking { noncrit }")
    for i in procs:
        lines.append(f"P[{i}] = noncrit[{i}].W[{i}]_1")
        for j in range(1, n):
            nxt = f"W[{i}]_{j + 1}" if j < n - 1 else f"C[{i}]"
            lines.append(f"W[{i}]_{j} = 'assign_room[{i}]_{j}"
                         f".'assign_last[{j}]_{i}.A[{i}]_{j}")
            others = [k for k in procs if k != i]
            branches = [f"noti_last[{j}]_{o}.{nxt}" for o in others]
            # scan the other processes' rooms in index order
            chain_ids = [f"K[{i}]_{j}_{k}" for k in others]
            branches.append(chain_ids[0])
            lines.append(f"A[{i}]_{j} = " + " + ".join(branches))
            for pos, k in enumerate(others):
                after = chain_ids[pos + 1] if pos + 1 < len(others) else nxt
                reads = [f"noti_room[{k}]_{v}.{after}" for v in range(j)]
                lines.append(f"K[{i}]_{j}_{k} = " + " + ".join(reads))
        lines.append(f"C[{i}] = crit[{i}].'assign_room[{i}]_0.P[{i}]")
    for i in procs:
        lines += _variable(f"Room[{i}]", f"room[{i}]", rooms, flavor)
    for j in range(1, n):
        lines += _variable(f"Last[{j}]", f"last[{j}]", procs, flavor)
    components = ([f"P[{i}]" for i in procs]
                  + [f"Room[{i}]_0" for i in procs]
                  + [f"Last[{j}]_1" for j in range(1, n)])
    lines.append("system = (" + " | ".join(components) + ") \\ {"
                 + ", ".join(internal) + "}")
    return _model("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# bakery algorithm with bounded tickets

def bakery(n: int = 2, ticket_bound: int = 4,
           flavor: str = "ccss") -> ProtocolModel:
    """Lamport's bakery algorithm: each process draws a ticket one above
    the maximum it saw, then enters in lexicographic (ticket, index)
    order.  Tickets live in 0..ticket_bound; drawing a larger one moves
    the process to a distinguished overflow dead end, which verdicts
    exclude and flag."""
    if flavor not in FLAVORS:
        raise ParameterOutOfRange(f"unknown flavor {flavor!r}")
    if n < 2:
        raise ParameterOutOfRange("bakery needs at least 2 processes")
    k_max = ticket_bound
    if k_max < n:
        raise ParameterOutOfRange("ticket bound must be at least N")
    procs = range(1, n + 1)
    tickets = range(0, k_max + 1)
    internal = []
    for i in procs:
        internal += [f"assign_choosing[{i}]_{v}" for v in (0, 1)]
        internal += [f"noti_choosing[{i}]_{v}" for v in (0, 1)]
        internal += [f"assign_number[{i}]_{v}" for v in tickets]
        internal += [f"noti_number[{i}]_{v}" for v in tickets]
    lines = []
    if flavor == "ccss":
        lines.append("signals { noti_choosing, noti_number }")
    lines.append("blocking { noncrit, overflow }")
    for i in procs:
        lines.append(f"P[{i}] = noncrit[{i}]"
                     f".'assign_choosing[{i}]_1.D[{i}]_0_1")
        # doorway: scan all tickets, remembering the maximum m seen
        for m in tickets:
            for j in procs:
                reads = [f"noti_number[{j}]_{k}.D[{i}]_{max(m, k)}_{j + 1}"
                         for k in tickets]
                lines.append(f"D[{i}]_{m}_{j} = " + " + ".join(reads))
            if m + 1 <= k_max:
                lines.append(
                    f"D[{i}]_{m}_{n + 1} = 'assign_number[{i}]_{m + 1}"
                    f".'assign_choosing[{i}]_0.B[{i}]_{m + 1}_1")
            else:
                lines.append(f"D[{i}]_{m}_{n + 1} = "
                             f"overflow[{i}].OV[{i}]")
        # bakery: wait until nobody with a smaller (ticket, index) competes
        for m in range(1, k_max + 1):
            for j in procs:
                allowed = [k for k in range(1, k_max + 1)
                           if k > m or (k == m and j >= i)]
                reads = [f"noti_number[{j}]_0.B[{i}]_{m}_{j + 1}"]
                reads += [f"noti_number[{j}]_{k}.B[{i}]_{m}_{j + 1}"
                          for k in allowed]
                lines.append(f"B[{i}]_{m}_{j} = noti_choosing[{j}]_0.("
                             + " + ".join(reads) + ")")
            lines.append(f"B[{i}]_{m}_{n + 1} = crit[{i}]"
                         f".'assign_number[{i}]_0.P[{i}]")
        lines.append(f"OV[{i}] = 0")
    for i in procs:
        lines += _variable(f"Ch[{i}]", f"choosing[{i}]", (0, 1), flavor)
        lines += _variable(f"Num[{i}]", f"number[{i}]", tickets, flavor)
    components = ([f"P[{i}]" for i in procs]
                  + [f"Ch[{i}]_0" for i in procs]
                  + [f"Num[{i}]_0" for i in procs])
    lines.append("system = (" + " | ".join(components) + ") \\ {"
                 + ", ".join(internal) + "}")
    return _model("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# idempotent-write variable (Dekker-style)

_DEKKER = """\
# Variable flavor where only value-changing writes are actions; writing
# the value already held is realized by reading the variable's signal,
# so redundant writes never change or involve the variable.
signals { noti_x_true, noti_x_false }
blocking { assign_x_true, assign_x_false, noti_x_true, noti_x_false }

XD_true = (assign_x_false.XD_false) ^ noti_x_true
XD_false = (assign_x_true.XD_true) ^ noti_x_false
WriteTrue = 'assign_x_true.0 + noti_x_true.0

system = (XD_true | WriteTrue) \\ {assign_x_true, assign_x_false, noti_x_true, noti_x_false}
"""


def dekker_variable() -> SpecFile:
    """The idempotent-write variable pair plus a sample writer."""
    return parse(_DEKKER)
