"""Term model: actions, guards, substitution, environments, validation."""

import dataclasses
import pathlib

import pytest

from ccss import terms
from ccss.errors import ArityMismatch, UnknownAgent
from ccss.terms import (
    Action, BoolOp, Cmp, Environment, Ident, IndexedSum, NIL, Name, Nil, Par,
    Prefix, Relabel, Relabelling, Restrict, SignalEmit, Sum, TAU, Var,
    act, coact, sig, canonical, contains_par, eval_guard, indexed_branches,
    leaf_paths, reachable, subterm_at, substitute, validate,
)

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


def test_complement_is_an_involution():
    a = act("a", 1)
    assert a.complement() == coact("a", 1)
    assert a.complement().complement() == a


def test_tau_and_signals_have_no_complement():
    with pytest.raises(ValueError):
        TAU.complement()
    with pytest.raises(ValueError):
        sig("s").complement()


def test_structural_equality_and_hashing():
    lhs = Par(Prefix(act("a"), NIL), Restrict(NIL, frozenset([Name("b", ())])))
    rhs = Par(Prefix(act("a"), NIL), Restrict(NIL, frozenset([Name("b", ())])))
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
    assert len({lhs, rhs}) == 1


# one way to build an instance of each node class, afresh on every call
NODES = {
    Var: lambda: Var("k", 1),
    Name: lambda: Name("a", (1, Var("k", 0))),
    Action: lambda: coact("a", 1),
    Cmp: lambda: Cmp("<", Var("k", 0), 2),
    BoolOp: lambda: BoolOp("or", Cmp("=", 1, Var("k", 0)), Cmp(">", 2, 1)),
    Nil: lambda: Nil(),
    Prefix: lambda: Prefix(act("a"), Nil()),
    Sum: lambda: Sum((Prefix(act("a"), Nil()), Prefix(sig("s"), Nil()))),
    IndexedSum: lambda: IndexedSum("k", 1, 3, Cmp("!=", Var("k", 0), 2),
                                   Prefix(act("a", Var("k", 0)), Nil())),
    Par: lambda: Par(Prefix(act("a"), Nil()), Ident(Name("A", (1,)))),
    Restrict: lambda: Restrict(Prefix(act("a"), Nil()),
                               frozenset({Name("a"), Name("s")})),
    Relabelling: lambda: Relabelling.make([(Name("a"), Name("b"))],
                                          [(Name("s"), Name("t"))]),
    Relabel: lambda: Relabel(Prefix(act("a"), Nil()),
                             Relabelling.make([(Name("a"), Name("b"))])),
    Ident: lambda: Ident(Name("A", (1,))),
    SignalEmit: lambda: SignalEmit(Prefix(act("a"), Nil()), Name("s")),
}


def test_every_node_class_is_in_the_contract_table():
    assert set(NODES) == {
        cls for cls in vars(terms).values()
        if isinstance(cls, type) and "_h" in getattr(cls, "__slots__", ())}


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    """A node is a frozen, slotted dataclass whose hash is computed when
    it is built and is no part of its repr or equality."""
    a, b = NODES[cls](), NODES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert "_h" not in repr(a)
    object.__setattr__(b, "_h", hash(a) + 1)
    assert a == b
    for f in dataclasses.fields(a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, f.name, getattr(a, f.name))
    assert not hasattr(a, "__dict__")
    assert hash(dataclasses.replace(a)) == hash(NODES[cls]())


def test_substitute_resolves_variable_offsets():
    body = Prefix(act("get", Var("k", 1)), Ident(Name("A", (Var("k", 0),))))
    out = substitute(body, {"k": 3})
    assert out == Prefix(act("get", 4), Ident(Name("A", (3,))))


def test_indexed_sum_expands_to_guard_satisfying_branches():
    guard = Cmp("!=", Var("i", 0), 2)
    term = IndexedSum("i", 1, 3, guard, Prefix(act("pick", Var("i", 0)), NIL))
    branches = indexed_branches(term)
    assert branches == (Prefix(act("pick", 1), NIL), Prefix(act("pick", 3), NIL))


def test_guard_evaluation_handles_conjunction_and_disjunction():
    g = BoolOp("or", Cmp(">", Var("k", 0), 2),
                BoolOp("and", Cmp("=", Var("k", 0), 1),
                       Cmp("<=", Var("j", 0), 5)))
    assert eval_guard(g, {"k": 3, "j": 9})
    assert eval_guard(g, {"k": 1, "j": 5})
    assert not eval_guard(g, {"k": 2, "j": 9})


def test_environment_resolves_by_parameter_pattern():
    env = Environment()
    env.define(Name("A", (1,)), Prefix(act("one"), NIL))
    env.define(Name("A", (Var("n", 0),)), Prefix(act("many", Var("n", 0)), NIL))
    assert env.resolve(Name("A", (1,))) == Prefix(act("one"), NIL)
    assert env.resolve(Name("A", (7,))) == Prefix(act("many", 7), NIL)


def test_a_pattern_declared_before_a_concrete_equation_wins_its_calls():
    env = Environment()
    env.define(Name("A", (Var("n"), 2)), Prefix(act("pattern", Var("n")), NIL))
    env.define(Name("A", (1, 2)), Prefix(act("one"), NIL))
    env.define(Name("A", (1, 3)), Prefix(act("three"), NIL))
    env.define(Name("B", (1,)), Prefix(act("b"), NIL))
    assert env.resolve(Name("A", (1, 2))) == Prefix(act("pattern", 1), NIL)
    assert env.resolve(Name("A", (1, 3))) == Prefix(act("three"), NIL)
    assert env.resolve(Name("B", (1,))) == Prefix(act("b"), NIL)


def test_a_left_hand_side_declared_twice_resolves_to_its_first_equation():
    first, second = Prefix(act("first"), NIL), Prefix(act("second"), NIL)
    env = Environment([(Name("A", (1,)), first), (Name("A", (1,)), second),
                       (Name("B", ()), second), (Name("B", ()), first)])
    assert env.resolve(Name("A", (1,))) is first
    assert env.resolve(Name("B", ())) is second


def _scan(env: Environment, name: Name):
    """The reference resolution: the first equation in declaration order
    whose left-hand side matches the call, its variables bound."""
    for lhs, body in env.order:
        if (lhs.base, len(lhs.params)) != (name.base, len(name.params)):
            continue
        binding = {}
        for pat, val in zip(lhs.params, name.params):
            if isinstance(pat, Var):
                if pat.offset or binding.setdefault(pat.var, val) != val:
                    break
            elif pat != val:
                break
        else:
            return substitute(body, binding)
    return None


def _catalog_specs():
    from ccss import protocols
    from ccss.syntax import parse
    models = [protocols.example1(), protocols.example2()]
    for flavor in protocols.FLAVORS:
        models.append(protocols.peterson2(flavor))
        models += [protocols.filter_lock(n, flavor) for n in (2, 3, 4)]
        models += [protocols.bakery(n, k, flavor)
                   for n, k in ((2, 2), (2, 4), (3, 4))]
    specs = [(m.env, m.root) for m in models]
    for path in sorted(MODELS.glob("*.ccss")):
        spec = parse(path.read_text(encoding="utf-8"))
        specs.append((spec.env, spec.root))
    return specs


def test_every_concrete_call_of_the_catalog_resolves_as_the_scan_does():
    """Each call without variables in a catalog model or model file, and
    each left-hand side, resolves to the equation the declaration-order
    scan picks."""
    checked = 0
    for env, root in _catalog_specs():
        calls = {lhs for lhs, _ in env.order}
        for term in [root] + [body for _, body in env.order]:
            # with no equations, `reachable` stays inside the term
            calls.update(t.name for t, _ in reachable(Environment(), term)
                         if isinstance(t, Ident) and t.name.concrete)
        for name in calls:
            assert env.resolve(name) == _scan(env, name), name
            checked += 1
    assert checked > 500  # 1,000 distinct names


def test_environment_arity_and_unknown_agent_errors():
    env = Environment()
    env.define(Name("A", ()), NIL)
    with pytest.raises(ArityMismatch):
        env.resolve(Name("A", (1,)))
    with pytest.raises(UnknownAgent):
        env.resolve(Name("B", ()))


def test_environment_lists_each_equation_once_in_both_tables():
    env = Environment([(Name("A", ()), NIL), (Name("B", (1,)), NIL),
                       (Name("B", (Var("n", 0),)), Ident(Name("A", ())))])
    assert [eq for eqs in env.equations.values() for eq in eqs] == env.order
    keyed = {id(eq) for eqs in env.equations.values() for eq in eqs}
    assert keyed == {id(eq) for eq in env.order}


def test_blocking_classification_ignores_polarity_and_tau():
    env = Environment(blocking=("a",))
    assert env.is_blocking(act("a"))
    assert env.is_blocking(coact("a"))
    assert not env.is_blocking(act("b"))
    assert not env.is_blocking(TAU)


def test_leaf_paths_and_subterm_at():
    left = Prefix(act("a"), NIL)
    right = SignalEmit(NIL, Name("s", ()))
    term = Restrict(Par(left, right), frozenset([Name("a", ())]))
    paths = leaf_paths(term)
    assert len(paths) == 2
    assert {subterm_at(term, p) for p in paths} == {left, right}


def test_contains_par_sees_through_unary_operators():
    inner = Par(NIL, NIL)
    assert contains_par(SignalEmit(Restrict(inner, frozenset()), Name("s", ())))
    assert not contains_par(Prefix(act("a"), inner))  # guarded, not a component


def test_canonical_collapses_identifier_aliases():
    env = Environment()
    env.define(Name("A", ()), Ident(Name("B", ())))
    env.define(Name("B", ()), Par(Prefix(act("a"), NIL), NIL))
    out = canonical(env, Ident(Name("A", ())))
    assert out == Ident(Name("B", ()))


def test_reachable_walks_each_equation_once_depth_first():
    x, y = Ident(Name("X", ())), Ident(Name("Y", (1,)))
    ax, by = Prefix(act("a"), x), Prefix(act("b"), y)
    env = Environment()
    env.define(Name("X", ()), Sum((ax, by)))
    env.define(Name("Y", (Var("i"),)), NIL)
    env.define(Name("Y", (2,)), x)
    root = Par(x, y)
    assert list(reachable(env, root)) == [
        (root, "system"), (x, "system"), (Sum((ax, by)), "equation X"),
        (ax, "equation X"), (x, "equation X"), (by, "equation X"),
        (y, "equation X"), (NIL, "equation Y"), (x, "equation Y"),
        (y, "system")]


def test_validate_flags_undeclared_signal():
    env = Environment()
    report = validate(env, SignalEmit(NIL, Name("s", ())))
    assert not report.ok
    assert any(v.kind == "UndeclaredSignal" for v in report.violations)


def test_validate_flags_signal_used_as_handshake():
    env = Environment(signals=("s",))
    report = validate(env, Prefix(coact("s"), NIL))
    assert any(v.kind == "SignalAsHandshake" for v in report.violations)


def test_validate_flags_relabelling_into_blocking():
    env = Environment(blocking=("b",))
    f = Relabelling.make(handshake=[(Name("a", ()), Name("b", ()))])
    report = validate(env, Relabel(Prefix(act("a"), NIL), f))
    assert any(v.kind == "RelabelIntoBlocking" for v in report.violations)


def test_validate_flags_unguarded_recursion():
    x, y = Ident(Name("X", ())), Ident(Name("Y", ()))
    env = Environment()
    env.define(Name("X", ()), Sum((y, Prefix(act("a"), x))))
    env.define(Name("Y", ()), Restrict(Par(x, NIL), frozenset()))
    report = validate(env, Prefix(act("c"), x))
    assert [str(v) for v in report.violations] == [
        "UnguardedRecursion: X -> Y -> X"]


def test_validate_leaves_guarded_and_parameterised_recursion_alone():
    n = Var("n", 0)
    env = Environment()
    env.define(Name("G", ()), Prefix(act("a"), Ident(Name("G", ()))))
    env.define(Name("P", (n,)), Ident(Name("P", (n,))))  # the SOS decides
    env.define(Name("U", ()), Ident(Name("U", ())))  # never reached
    assert validate(env, Par(Ident(Name("G", ())),
                             Ident(Name("P", (1,))))).ok


def test_validate_flags_a_call_no_equation_matches():
    n = Var("n", 0)
    env = Environment()
    env.define(Name("Y", (2,)), Prefix(act("a"), NIL))
    env.define(Name("P", (n, 0)), Prefix(act("a"), Ident(Name("Y", (n,)))))
    # Y[n] is checked once P's call binds n, by the SOS engine
    assert validate(env, Ident(Name("P", (2, 0)))).ok
    report = validate(env, Par(Ident(Name("P", (2, 1))),
                               Par(Ident(Name("Y", (1,))),
                                   Ident(Name("Y", (1,))))))
    assert [str(v) for v in report.violations] == [
        "UnknownAgent: P[2]_1: no equation matches these parameters",
        "UnknownAgent: Y[1]: no equation matches these parameters"]


def test_validate_accepts_a_well_formed_system():
    env = Environment(signals=("s",), blocking=("a",))
    term = Restrict(
        Par(Prefix(act("a"), NIL), SignalEmit(Prefix(sig("s"), NIL), Name("s", ()))),
        frozenset([Name("a", ())]))
    assert validate(env, term).ok


def test_sum_is_not_a_parallel_composition():
    term = Sum((Prefix(act("a"), NIL), Prefix(act("b"), NIL)))
    assert leaf_paths(term) == ((),)
