"""Abstract syntax for the process calculus with signal emission.

Terms, names and actions are immutable; structural equality doubles as
state identity during exploration, so every node caches its hash once.
Index variables (from indexed sums and parameterized defining equations)
may appear inside name parameters and guards until substituted away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ArityMismatch, UnguardedRecursion, UnknownAgent


def _cached_hash(cls):
    cls.__hash__ = lambda self: self._h
    return cls


# --------------------------------------------------------------------------
# names and actions

Atom = Union[int, str]  # integer indices or enum symbols like "true", "A"


@_cached_hash
@dataclass(frozen=True)
class Var:
    """An index variable reference inside a name parameter, plus offset."""

    var: str
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Var, self.var, self.offset)))

    def __str__(self):
        if self.offset > 0:
            return f"{self.var}+{self.offset}"
        if self.offset < 0:
            return f"{self.var}{self.offset}"
        return self.var


Param = Union[Atom, Var]


@_cached_hash
@dataclass(frozen=True)
class Name:
    """A (possibly indexed) name: base identifier plus atomic parameters."""

    base: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Name, self.base, self.params)))

    @property
    def concrete(self) -> bool:
        return not any(isinstance(p, Var) for p in self.params)

    def __str__(self):
        return self.base + "".join(f"[{p}]" for p in self.params)


# action kinds
HANDSHAKE = "name"
COHANDSHAKE = "coname"
SIGNAL = "sig"
INTERNAL = "tau"


@_cached_hash
@dataclass(frozen=True)
class Action:
    kind: str
    name: Optional[Name] = None

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Action, self.kind, self.name)))

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

@_cached_hash
@dataclass(frozen=True)
class Cmp:
    op: str  # one of = != < <= > >=
    lhs: Param
    rhs: Param

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Cmp, self.op, self.lhs, self.rhs)))

    def __str__(self):
        return f"{self.lhs} {self.op} {self.rhs}"


@_cached_hash
@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    left: "Guard"
    right: "Guard"

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((BoolOp, self.op, self.left, self.right)))

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


@_cached_hash
@dataclass(frozen=True)
class Nil(Term):
    def __post_init__(self):
        object.__setattr__(self, "_h", hash(Nil))


NIL = Nil()


@_cached_hash
@dataclass(frozen=True)
class Prefix(Term):
    action: Action
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Prefix, self.action, self.body)))


@_cached_hash
@dataclass(frozen=True)
class Sum(Term):
    branches: tuple  # of Term, length >= 2 when built via mk_sum

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Sum,) + self.branches))


@_cached_hash
@dataclass(frozen=True)
class IndexedSum(Term):
    """A finite guarded choice: sum var in lo..hi [when guard] . body."""

    var: str
    lo: int
    hi: int
    guard: Optional[Guard]
    body: Term

    def __post_init__(self):
        object.__setattr__(
            self, "_h",
            hash((IndexedSum, self.var, self.lo, self.hi, self.guard, self.body)),
        )


@_cached_hash
@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Par, self.left, self.right)))


@_cached_hash
@dataclass(frozen=True)
class Restrict(Term):
    body: Term
    names: frozenset  # of Name (handshake names and signals)

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Restrict, self.body, self.names)))


@_cached_hash
@dataclass(frozen=True)
class Relabelling:
    """Finite relabelling; handshake and signal maps with disjoint domains."""

    handshake_map: tuple  # sorted tuple of (Name, Name) pairs, old -> new
    signal_map: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "_h", hash((Relabelling, self.handshake_map, self.signal_map))
        )

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


@_cached_hash
@dataclass(frozen=True)
class Relabel(Term):
    body: Term
    relabelling: Relabelling

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Relabel, self.body, self.relabelling)))


@_cached_hash
@dataclass(frozen=True)
class Ident(Term):
    name: Name

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((Ident, self.name)))


@_cached_hash
@dataclass(frozen=True)
class SignalEmit(Term):
    body: Term
    signal: Name

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((SignalEmit, self.body, self.signal)))


# constructors that keep a few easy invariants -----------------------------

def mk_sum(branches) -> Term:
    branches = tuple(branches)
    if not branches:
        return NIL
    if len(branches) == 1:
        return branches[0]
    return Sum(branches)


def mk_seq(actions, tail: Term) -> Term:
    """Prefix chain a1.a2....tail."""
    term = tail
    for a in reversed(list(actions)):
        term = Prefix(a, term)
    return term


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

class Environment:
    """Defining equations plus the signal and blocking classifications.

    Equations are stored per (base, arity); parameters in a left-hand side
    may be pattern variables, bound by matching at resolve time.  Blocking
    is classified per base name (both polarities of a handshake name block
    or neither does); tau is always non-blocking.
    """

    def __init__(self, equations=(), signals=(), blocking=(), max_unfold=10_000):
        self.equations = {}
        self.order = []  # (Name, Term) in declaration order, for printing
        self.declared_signals = frozenset(signals)
        self.blocking = frozenset(blocking)
        self.max_unfold = max_unfold
        for name, body in equations:
            self.define(name, body)

    def define(self, name: Name, body: Term):
        self.equations.setdefault((name.base, len(name.params)), []).append(
            (name.params, body))
        self.order.append((name, body))

    def is_signal_base(self, base: str) -> bool:
        return base in self.declared_signals

    def is_blocking(self, action: Action) -> bool:
        if action.is_tau:
            return False
        return action.name.base in self.blocking

    def resolve(self, name: Name) -> Term:
        """Body of the matching equation, parameters substituted in."""
        candidates = self.equations.get((name.base, len(name.params)))
        if candidates is None:
            if any(base == name.base for base, _ in self.equations):
                raise ArityMismatch(f"{name}: no equation with {len(name.params)} parameters")
            raise UnknownAgent(str(name))
        for pattern, body in candidates:
            binding = _match_params(pattern, name.params)
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
        for _ in range(env.max_unfold):
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


def validate(env: Environment, root: Term) -> ValidationReport:
    """Well-formedness checks: resolvable identifiers, the blocking rules
    for restriction and relabelling, declared signals, and disjointness of
    the signal and handshake alphabets."""
    out = []
    seen = set()

    def check_name_use(action: Action, where: str):
        if action.is_tau:
            return
        base = action.name.base
        if action.is_signal and base not in env.declared_signals:
            out.append(Violation("UndeclaredSignal", f"{action.name} read in {where}"))
        if action.is_handshake and base in env.declared_signals:
            out.append(Violation("SignalAsHandshake", f"{action.name} in {where}"))

    def walk(term: Term, where: str):
        if isinstance(term, Prefix):
            check_name_use(term.action, where)
            walk(term.body, where)
        elif isinstance(term, Sum):
            for b in term.branches:
                walk(b, where)
        elif isinstance(term, IndexedSum):
            walk(term.body, where)
        elif isinstance(term, Par):
            walk(term.left, where)
            walk(term.right, where)
        elif isinstance(term, Restrict):
            walk(term.body, where)
        elif isinstance(term, Relabel):
            f = term.relabelling
            for old, new in f.handshake_map + f.signal_map:
                if new.base in env.blocking and old.base not in env.blocking:
                    out.append(Violation(
                        "RelabelIntoBlocking", f"{old} -> {new} in {where}"))
            for old, new in f.signal_map:
                for n in (old, new):
                    if n.base not in env.declared_signals:
                        out.append(Violation("UndeclaredSignal", f"{n} relabelled in {where}"))
            walk(term.body, where)
        elif isinstance(term, SignalEmit):
            if term.signal.base not in env.declared_signals:
                out.append(Violation(
                    "UndeclaredSignal", f"emission of {term.signal} in {where}"))
            walk(term.body, where)
        elif isinstance(term, Ident):
            key = (term.name.base, len(term.name.params))
            if key in seen:
                return
            seen.add(key)
            if key not in env.equations:
                out.append(Violation("UnknownAgent", f"{term.name} in {where}"))
                return
            for _, body in env.equations[key]:
                walk(body, f"equation {term.name.base}")

    walk(root, "system")
    return ValidationReport(out)
