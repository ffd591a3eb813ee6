"""Abstract syntax for the process calculus with signal emission.

Terms, names and actions are immutable; structural equality doubles as
state identity during exploration, so every node caches its hash once.
Index variables (from indexed sums and parameterized defining equations)
may appear inside name parameters and guards until substituted away.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Union

from .errors import ArityMismatch, UnguardedRecursion, UnknownAgent


def _node(cls):
    """Declare `cls` a frozen, slotted dataclass whose hash is computed
    once, when an instance is built, from its type and its fields, and
    kept in the extra field `_h`: hash((type, value)) for a class with
    one field, hash((type, fields)) otherwise.  The `__init__` generated
    here stores the fields and `_h` in one call, through their slots."""
    annotations = cls.__dict__.get("__annotations__", {})
    cls.__annotations__ = {**annotations, "_h": "int"}
    cls._h = field(init=False, repr=False, compare=False)
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = list(annotations)
    scope = {f"_set_{name}": getattr(cls, name).__set__
             for name in names + ["_h"]}
    value = (names[0] if len(names) == 1
             else "(" + "".join(f"{name}, " for name in names) + ")")
    exec("".join([f"def __init__(self, {', '.join(names)}):\n"]
                 + [f"    _set_{name}(self, {name})\n" for name in names]
                 + [f"    _set__h(self, hash((type(self), {value})))\n"]),
         scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__defaults__ = tuple(f.default for f in fields(cls)
                                      if f.default is not MISSING)
    cls.__hash__ = lambda self: self._h
    return cls


# --------------------------------------------------------------------------
# names and actions

Atom = Union[int, str]  # integer indices or enum symbols like "true", "A"


@_node
class Var:
    """An index variable reference inside a name parameter, plus offset."""

    var: str
    offset: int = 0

    def __str__(self):
        if self.offset > 0:
            return f"{self.var}+{self.offset}"
        if self.offset < 0:
            return f"{self.var}{self.offset}"
        return self.var


Param = Union[Atom, Var]


@_node
class Name:
    """A (possibly indexed) name: base identifier plus atomic parameters."""

    base: str
    params: tuple = ()

    @property
    def concrete(self) -> bool:
        return not any(isinstance(p, Var) for p in self.params)

    def __str__(self):
        """Concrete syntax: the first parameter in brackets, the rest after
        underscores, in parentheses unless a plain variable or int >= 0."""
        out = self.base
        for i, p in enumerate(self.params):
            if not i:
                out += f"[{p}]"
            elif (isinstance(p, Var) and not p.offset
                  or isinstance(p, int) and p >= 0):
                out += f"_{p}"
            else:
                out += f"_({p})"
        return out


# action kinds
HANDSHAKE = "name"
COHANDSHAKE = "coname"
SIGNAL = "sig"
INTERNAL = "tau"


@_node
class Action:
    kind: str
    name: Optional[Name] = None

    @property
    def is_tau(self) -> bool:
        return self.kind == INTERNAL

    @property
    def is_handshake(self) -> bool:
        return self.kind in (HANDSHAKE, COHANDSHAKE)

    @property
    def is_signal(self) -> bool:
        return self.kind == SIGNAL

    def complement(self) -> "Action":
        """ā for handshake actions; signals and tau have no complement."""
        if self.kind == HANDSHAKE:
            return Action(COHANDSHAKE, self.name)
        if self.kind == COHANDSHAKE:
            return Action(HANDSHAKE, self.name)
        raise ValueError(f"no complement for {self}")

    def __str__(self):
        if self.is_tau:
            return "tau"
        prefix = "'" if self.kind == COHANDSHAKE else ""
        return prefix + str(self.name)


TAU = Action(INTERNAL)


def act(base: str, *params: Param) -> Action:
    return Action(HANDSHAKE, Name(base, tuple(params)))


def coact(base: str, *params: Param) -> Action:
    return Action(COHANDSHAKE, Name(base, tuple(params)))


def sig(base: str, *params: Param) -> Action:
    return Action(SIGNAL, Name(base, tuple(params)))


# --------------------------------------------------------------------------
# guards on indexed-sum variables

@_node
class Cmp:
    op: str  # one of = != < <= > >=
    lhs: Param
    rhs: Param

    def __str__(self):
        return f"{self.lhs} {self.op} {self.rhs}"


@_node
class BoolOp:
    op: str  # "and" | "or"
    left: "Guard"
    right: "Guard"

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


Guard = Union[Cmp, BoolOp]

_CMP_FN = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_guard(guard: Guard, binding: dict) -> bool:
    if isinstance(guard, BoolOp):
        if guard.op == "and":
            return eval_guard(guard.left, binding) and eval_guard(guard.right, binding)
        return eval_guard(guard.left, binding) or eval_guard(guard.right, binding)
    lhs = _subst_param(guard.lhs, binding)
    rhs = _subst_param(guard.rhs, binding)
    if isinstance(lhs, Var) or isinstance(rhs, Var):
        raise ValueError(f"guard {guard} has free variables under {binding}")
    return _CMP_FN[guard.op](lhs, rhs)


# --------------------------------------------------------------------------
# process terms

class Term:
    """Common base class; concrete forms are the dataclasses below."""

    __slots__ = ()


@_node
class Nil(Term):
    """The inactive process 0."""


NIL = Nil()


@_node
class Prefix(Term):
    action: Action
    body: Term


@_node
class Sum(Term):
    branches: tuple  # of Term, length >= 2 when built via mk_sum


@_node
class IndexedSum(Term):
    """A finite guarded choice: sum var in lo..hi [when guard] . body."""

    var: str
    lo: int
    hi: int
    guard: Optional[Guard]
    body: Term


@_node
class Par(Term):
    left: Term
    right: Term


@_node
class Restrict(Term):
    body: Term
    names: frozenset  # of Name (handshake names and signals)


@_node
class Relabelling:
    """Finite relabelling; handshake and signal maps with disjoint domains."""

    handshake_map: tuple  # sorted tuple of (Name, Name) pairs, old -> new
    signal_map: tuple

    @staticmethod
    def make(handshake=(), signal=()) -> "Relabelling":
        key = lambda p: (str(p[0]), str(p[1]))
        return Relabelling(tuple(sorted(handshake, key=key)),
                           tuple(sorted(signal, key=key)))

    def apply_name(self, name: Name, is_signal: bool) -> Name:
        table = self.signal_map if is_signal else self.handshake_map
        for old, new in table:
            if old == name:
                return new
        return name

    def apply(self, action: Action) -> Action:
        if action.is_tau:
            return action
        if action.is_signal:
            return Action(SIGNAL, self.apply_name(action.name, True))
        return Action(action.kind, self.apply_name(action.name, False))


@_node
class Relabel(Term):
    body: Term
    relabelling: Relabelling


@_node
class Ident(Term):
    name: Name


@_node
class SignalEmit(Term):
    body: Term
    signal: Name


# constructors that keep a few easy invariants -----------------------------

def mk_sum(branches) -> Term:
    branches = tuple(branches)
    if not branches:
        return NIL
    if len(branches) == 1:
        return branches[0]
    return Sum(branches)


# --------------------------------------------------------------------------
# substitution of index variables

def _subst_param(p: Param, binding: dict) -> Param:
    if isinstance(p, Var):
        if p.var in binding:
            value = binding[p.var]
            if p.offset:
                if not isinstance(value, int):
                    raise ValueError(f"offset on non-integer value {value!r}")
                return value + p.offset
            return value
        return p
    return p


def _subst_name(n: Name, binding: dict) -> Name:
    if n.concrete:
        return n
    return Name(n.base, tuple(_subst_param(p, binding) for p in n.params))


def _subst_action(a: Action, binding: dict) -> Action:
    if a.is_tau or a.name.concrete:
        return a
    return Action(a.kind, _subst_name(a.name, binding))


def _subst_guard(g: Guard, binding: dict) -> Guard:
    if isinstance(g, BoolOp):
        return BoolOp(g.op, _subst_guard(g.left, binding), _subst_guard(g.right, binding))
    return Cmp(g.op, _subst_param(g.lhs, binding), _subst_param(g.rhs, binding))


def substitute(term: Term, binding: dict) -> Term:
    """Replace index variables by atomic values; inner sums shadow their var."""
    if not binding:
        return term
    if isinstance(term, Nil):
        return term
    if isinstance(term, Prefix):
        return Prefix(_subst_action(term.action, binding), substitute(term.body, binding))
    if isinstance(term, Sum):
        return Sum(tuple(substitute(b, binding) for b in term.branches))
    if isinstance(term, IndexedSum):
        inner = {k: v for k, v in binding.items() if k != term.var}
        guard = _subst_guard(term.guard, inner) if term.guard is not None else None
        return IndexedSum(term.var, term.lo, term.hi, guard, substitute(term.body, inner))
    if isinstance(term, Par):
        return Par(substitute(term.left, binding), substitute(term.right, binding))
    if isinstance(term, Restrict):
        return Restrict(substitute(term.body, binding),
                        frozenset(_subst_name(n, binding) for n in term.names))
    if isinstance(term, Relabel):
        return Relabel(substitute(term.body, binding), term.relabelling)
    if isinstance(term, Ident):
        return Ident(_subst_name(term.name, binding))
    if isinstance(term, SignalEmit):
        return SignalEmit(substitute(term.body, binding),
                          _subst_name(term.signal, binding))
    raise TypeError(f"not a term: {term!r}")


def indexed_branches(term: IndexedSum) -> tuple:
    """The finite list of instantiated branches of an indexed sum."""
    out = []
    for v in range(term.lo, term.hi + 1):
        if term.guard is None or eval_guard(term.guard, {term.var: v}):
            out.append(substitute(term.body, {term.var: v}))
    return tuple(out)


# --------------------------------------------------------------------------
# environments of defining equations

# longest chain of identifier unfoldings before recursion counts as
# unguarded; the SOS engine recurses a few frames per unfolding, so the
# chain must end well before Python's recursion limit does
MAX_UNFOLD = 50


class Environment:
    """Defining equations plus the signal and blocking classifications.

    Each equation is one (Name, body) pair, listed in `equations` under
    its (base, arity) and in `order` in declaration order; parameters in
    a left-hand side may be pattern variables, bound by matching at
    resolve time.  A call resolves to its first matching equation in
    declaration order, so a left-hand side without variables that no
    pattern of its base and arity comes before is also kept in `exact`,
    the first such equation per name.  Blocking is classified per base
    name (both polarities of a handshake name block or neither does);
    tau is always non-blocking.
    """

    def __init__(self, equations=(), signals=(), blocking=()):
        self.equations = {}
        self.exact = {}  # concrete left-hand side -> body
        self.patterned = set()  # (base, arity) of each pattern equation
        self.order = []  # for printing
        self.declared_signals = frozenset(signals)
        self.blocking = frozenset(blocking)
        for name, body in equations:
            self.define(name, body)

    def define(self, name: Name, body: Term):
        equation = (name, body)
        key = (name.base, len(name.params))
        if not name.concrete:
            self.patterned.add(key)
        elif key not in self.patterned:
            self.exact.setdefault(name, body)
        self.equations.setdefault(key, []).append(equation)
        self.order.append(equation)

    def is_blocking(self, action: Action) -> bool:
        if action.is_tau:
            return False
        return action.name.base in self.blocking

    def resolve(self, name: Name) -> Term:
        """Body of the first matching equation, parameters substituted
        in: the one `exact` keeps for `name`, else the first by scan."""
        body = self.exact.get(name)
        if body is not None:
            return body
        candidates = self.equations.get((name.base, len(name.params)))
        if candidates is None:
            if any(base == name.base for base, _ in self.equations):
                raise ArityMismatch(f"{name}: no equation with {len(name.params)} parameters")
            raise UnknownAgent(str(name))
        for lhs, body in candidates:
            binding = _match_params(lhs.params, name.params)
            if binding is not None:
                return substitute(body, binding)
        raise UnknownAgent(f"{name}: no equation matches these parameters")


def _match_params(pattern: tuple, params: tuple):
    binding = {}
    for pat, val in zip(pattern, params):
        if isinstance(pat, Var):
            if pat.offset:
                return None  # offsets are not patterns
            if pat.var in binding and binding[pat.var] != val:
                return None
            binding[pat.var] = val
        elif pat != val:
            return None
    return binding


# --------------------------------------------------------------------------
# structural helpers

def contains_par(term: Term) -> bool:
    """True if the term has parallel structure not hidden behind a prefix,
    choice or identifier (i.e. structure visible to path decomposition)."""
    if isinstance(term, Par):
        return True
    if isinstance(term, (Restrict, Relabel, SignalEmit)):
        return contains_par(term.body)
    return False


# component-path step tags
STEP_LEFT = "L"
STEP_RIGHT = "R"
STEP_RESTRICT = "r"
STEP_RELABEL = "f"
STEP_EMIT = "e"


def leaf_paths(term: Term, prefix=()) -> tuple:
    """Addresses of the maximal parallel-free subtrees, left to right."""
    if isinstance(term, Par):
        return (leaf_paths(term.left, prefix + (STEP_LEFT,))
                + leaf_paths(term.right, prefix + (STEP_RIGHT,)))
    if isinstance(term, Restrict) and contains_par(term.body):
        return leaf_paths(term.body, prefix + (STEP_RESTRICT,))
    if isinstance(term, Relabel) and contains_par(term.body):
        return leaf_paths(term.body, prefix + (STEP_RELABEL,))
    if isinstance(term, SignalEmit) and contains_par(term.body):
        return leaf_paths(term.body, prefix + (STEP_EMIT,))
    return (prefix,)


def subterm_at(term: Term, path: tuple) -> Term:
    for step in path:
        if step == STEP_LEFT:
            term = term.left
        elif step == STEP_RIGHT:
            term = term.right
        elif step in (STEP_RESTRICT, STEP_RELABEL, STEP_EMIT):
            term = term.body
        else:
            raise ValueError(f"cannot replay step {step!r} structurally")
    return term


def canonical(env: Environment, term: Term) -> Term:
    """Normal form used for state identity: indexed sums expanded and
    identifier aliases (equations whose body is again an identifier)
    followed to their end."""
    if isinstance(term, (Nil, Prefix)):
        # prefix bodies are left alone: they are normalized when reached
        return term
    if isinstance(term, Sum):
        return mk_sum(canonical(env, b) for b in term.branches)
    if isinstance(term, IndexedSum):
        return mk_sum(canonical(env, b) for b in indexed_branches(term))
    if isinstance(term, Par):
        return Par(canonical(env, term.left), canonical(env, term.right))
    if isinstance(term, Restrict):
        return Restrict(canonical(env, term.body), term.names)
    if isinstance(term, Relabel):
        return Relabel(canonical(env, term.body), term.relabelling)
    if isinstance(term, SignalEmit):
        return SignalEmit(canonical(env, term.body), term.signal)
    if isinstance(term, Ident):
        seen = {term.name}
        current = term
        for _ in range(MAX_UNFOLD):
            if not current.name.concrete:
                return current
            body = env.resolve(current.name)
            if not isinstance(body, Ident):
                return current
            if body.name in seen:
                raise UnguardedRecursion(f"alias cycle through {current.name}")
            seen.add(body.name)
            current = body
        raise UnguardedRecursion(str(term.name))
    raise TypeError(f"not a term: {term!r}")


# --------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def reachable(env: Environment, root: Term):
    """Every subterm of `root` and of every equation its identifiers reach
    (each equation once per base and arity), depth first and left to
    right, as (subterm, where) pairs; `where` is "system" or
    "equation <base>".  Raises `TypeError` on a node that is no term."""
    stack, seen = [(root, "system")], set()
    while stack:
        term, where = stack.pop()
        yield term, where
        if isinstance(term, (Prefix, IndexedSum, Restrict, Relabel,
                             SignalEmit)):
            stack.append((term.body, where))
        elif isinstance(term, Sum):
            stack.extend((b, where) for b in reversed(term.branches))
        elif isinstance(term, Par):
            stack += ((term.right, where), (term.left, where))
        elif isinstance(term, Ident):
            key = (term.name.base, len(term.name.params))
            if key not in seen:
                seen.add(key)
                where = f"equation {term.name.base}"
                stack.extend((body, where) for _, body
                             in reversed(env.equations.get(key, ())))
        elif not isinstance(term, Nil):
            raise TypeError(f"not a term: {term!r}")


def validate(env: Environment, root: Term) -> ValidationReport:
    """Well-formedness checks: resolvable identifiers (a call without
    index variables must match some equation's parameters), the blocking
    rules for restriction and relabelling, declared signals, disjointness
    of the signal and handshake alphabets, and guarded recursion among the
    parameterless equations the root reaches.  A parameterised equation
    may be guarded for some arguments and not for others, so unguarded
    recursion through one is left to the SOS engine, which raises
    `UnguardedRecursion` when it meets it."""
    out, reached, called = [], set(), set()
    signals = env.declared_signals
    for term, where in reachable(env, root):
        if isinstance(term, Prefix) and not term.action.is_tau:
            action = term.action
            if action.is_signal and action.name.base not in signals:
                out.append(Violation("UndeclaredSignal",
                                     f"{action.name} read in {where}"))
            if action.is_handshake and action.name.base in signals:
                out.append(Violation("SignalAsHandshake",
                                     f"{action.name} in {where}"))
        elif isinstance(term, Relabel):
            f = term.relabelling
            for old, new in f.handshake_map + f.signal_map:
                if new.base in env.blocking and old.base not in env.blocking:
                    out.append(Violation(
                        "RelabelIntoBlocking", f"{old} -> {new} in {where}"))
            for old, new in f.signal_map:
                for n in (old, new):
                    if n.base not in signals:
                        out.append(Violation("UndeclaredSignal",
                                             f"{n} relabelled in {where}"))
        elif isinstance(term, SignalEmit):
            if term.signal.base not in signals:
                out.append(Violation(
                    "UndeclaredSignal", f"emission of {term.signal} in {where}"))
        elif isinstance(term, Ident):
            name = term.name
            key = (name.base, len(name.params))
            if key not in reached:
                reached.add(key)
                if key not in env.equations:
                    out.append(Violation("UnknownAgent", f"{name} in {where}"))
            # a call with index variables is resolved, and checked, by
            # the SOS engine once they are bound; a call `exact` keeps
            # always resolves
            if (key in env.equations and name.concrete
                    and name not in env.exact and name not in called):
                called.add(name)
                if all(_match_params(lhs.params, name.params) is None
                       for lhs, _ in env.equations[key]):
                    out.append(Violation(
                        "UnknownAgent",
                        f"{name}: no equation matches these parameters"))
    cycle = _unguarded_cycle(env, sorted(
        base for base, arity in reached
        if arity == 0 and (base, 0) in env.equations))
    if cycle:
        out.append(Violation("UnguardedRecursion", " -> ".join(cycle)))
    return ValidationReport(out)


def _unguarded_calls(body: Term) -> list:
    """Bases of the parameterless identifiers that occur in `body` outside
    every prefix, left to right."""
    calls, stack = [], [body]
    while stack:
        term = stack.pop()
        if isinstance(term, Ident):
            if not term.name.params:
                calls.append(term.name.base)
        elif isinstance(term, Sum):
            stack.extend(reversed(term.branches))
        elif isinstance(term, IndexedSum):
            stack.extend(reversed(indexed_branches(term)))
        elif isinstance(term, Par):
            stack += (term.right, term.left)
        elif isinstance(term, (Restrict, Relabel, SignalEmit)):
            stack.append(term.body)
    return calls


def _unguarded_cycle(env: Environment, bases) -> list:
    """The first cycle of unguarded calls among the parameterless
    equations of `bases`, as the bases along it with the first repeated
    at the end, or an empty list.  Each base is read through the
    equation `Environment.resolve` picks for it: its first."""
    calls = {base: [c for c in _unguarded_calls(env.equations[(base, 0)][0][1])
                    if (c, 0) in env.equations]
             for base in bases}
    done = set()
    for start in bases:
        if start in done:
            continue
        path, pending = [start], [iter(calls[start])]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                done.add(path.pop())
                pending.pop()
            elif nxt in path:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in done:
                path.append(nxt)
                pending.append(iter(calls[nxt]))
    return []
