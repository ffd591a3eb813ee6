"""Deterministic random closed-term generation for property tests.

Terms are recursion-free (no agent identifiers), at most DEPTH levels deep,
over a small handshake alphabet and signal alphabet, so that every
generated system has a finite state space that explores in milliseconds.
Such a system has no cycle; `random_system` gives recursive ones, whose
runs loop.
"""

from __future__ import annotations

import random

from ccss.terms import (
    Action, Environment, Ident, Name, Nil, NIL, Par, Prefix, Relabel,
    Relabelling, Restrict, SignalEmit, Sum, TAU, act, coact, sig,
)

HANDSHAKES = ("a", "b", "c", "d")
SIGNALS = ("s", "t")
DEPTH = 5


# Hand-written models for the language features no random term reaches:
# guarded indexed sums with `and`, `or` and parentheses, a range name as
# sum bounds, and parameterised bodies with `+`, `|`, `\`, relabelling
# and `^`, which unfolding instantiates with `substitute`.  Each is
# (source, states, transitions).
GUARDED_MODELS = [
    ("""\
signals { s }
range N = 1..3
P[i] = (sum j in N when j != i and (j < 3 or i = 1) . a[j].P[j]) + tau.Q[i]
Q[i] = (sum k in 0..1 . 'a[k].Q[i]) ^ s
system = (P[1] | Q[2]) \\ {a}
""", 6, 28),
    ("""\
signals { t }
range M = 0..2
R[i] = ((a[i].0 | b[i].0 ^ t) \\ {d[i]})[c/b[i]] + (sum k in M when k > i or (k = 0) . e[k].R[k])
system = R[1] | 'c.0
""", 24, 48),
]


def make_env(blocking=HANDSHAKES + SIGNALS) -> Environment:
    return Environment((), signals=SIGNALS, blocking=blocking)


ENV = make_env()


def random_action(rng: random.Random, alphabet, signals) -> Action:
    roll = rng.random()
    if roll < 0.35:
        return act(rng.choice(alphabet))
    if roll < 0.65:
        return coact(rng.choice(alphabet))
    if signals and roll < 0.85:
        return sig(rng.choice(signals))
    return TAU


def random_term(rng: random.Random, depth: int = DEPTH,
                alphabet=HANDSHAKES, signals=SIGNALS):
    """A closed term; `depth` bounds the operator nesting."""
    if depth == 0:
        return NIL if rng.random() < 0.5 else Prefix(
            random_action(rng, alphabet, signals), NIL)
    op = rng.choices(
        ("nil", "prefix", "sum", "par", "restrict", "relabel", "emit"),
        weights=(1, 5, 3, 3, 2, 2, 2))[0]
    if op == "nil":
        return NIL
    if op == "prefix":
        return Prefix(random_action(rng, alphabet, signals),
                      random_term(rng, depth - 1, alphabet, signals))
    if op == "sum":
        return Sum((random_term(rng, depth - 1, alphabet, signals),
                    random_term(rng, depth - 1, alphabet, signals)))
    if op == "par":
        return Par(random_term(rng, depth - 1, alphabet, signals),
                   random_term(rng, depth - 1, alphabet, signals))
    if op == "restrict":
        chosen = rng.sample(alphabet, rng.randint(1, min(2, len(alphabet))))
        return Restrict(random_term(rng, depth - 1, alphabet, signals),
                        frozenset(Name(n, ()) for n in chosen))
    if op == "relabel":
        image = rng.sample(alphabet, len(alphabet))
        handshake = tuple((Name(old, ()), Name(new, ()))
                          for old, new in zip(alphabet, image) if old != new)
        sig_image = rng.sample(signals, len(signals)) if signals else ()
        signal = tuple((Name(old, ()), Name(new, ()))
                       for old, new in zip(signals, sig_image) if old != new)
        return Relabel(random_term(rng, depth - 1, alphabet, signals),
                       Relabelling.make(handshake, signal))
    if signals:
        return SignalEmit(random_term(rng, depth - 1, alphabet, signals),
                          Name(rng.choice(signals), ()))
    return random_term(rng, depth - 1, alphabet, signals)


def sample_terms(count: int, seed: int = 20260826, **kwargs):
    rng = random.Random(seed)
    return [random_term(rng, **kwargs) for _ in range(count)]


def random_system(rng: random.Random, agents: int = 3, depth: int = 3,
                  alphabet=("a", "b"), signals=SIGNALS):
    """(environment, root) of a recursive system with a static parallel
    structure: `agents` Par-free agents A0, A1, ..., each calling agents
    only under a prefix, and a root that composes calls to them with
    Par, Restrict, Relabel (which may merge two labels) and SignalEmit.
    A random part of the alphabet blocks."""
    names = [Name(f"A{k}", ()) for k in range(agents)]
    everything = alphabet + signals
    env = make_env(rng.sample(everything, rng.randint(0, len(everything))))
    for name in names:
        env.define(name, _agent(rng, depth, alphabet, signals, names))
    return env, _composition(rng, depth - 1, alphabet, signals, names)


def _agent(rng, depth, alphabet, signals, names):
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        action = random_action(rng, alphabet, signals)
        body = (Ident(rng.choice(names)) if depth <= 1 or rng.random() < 0.4
                else _agent(rng, depth - 1, alphabet, signals, names))
        return Prefix(action, body)
    if roll < 0.8:
        return Sum((_agent(rng, depth - 1, alphabet, signals, names),
                    _agent(rng, depth - 1, alphabet, signals, names)))
    if roll < 0.9 and signals:
        return SignalEmit(_agent(rng, depth - 1, alphabet, signals, names),
                          Name(rng.choice(signals), ()))
    return NIL


def _composition(rng, depth, alphabet, signals, names):
    op = rng.choices(("call", "par", "restrict", "relabel", "emit"),
                     weights=(2, 4, 1, 1, 1))[0] if depth > 0 else "call"
    if op == "call":
        return Ident(rng.choice(names))
    body = _composition(rng, depth - 1, alphabet, signals, names)
    if op == "par":
        return Par(body, _composition(rng, depth - 1, alphabet, signals,
                                      names))
    if op == "restrict":
        return Restrict(body, frozenset([Name(rng.choice(alphabet), ())]))
    if op == "relabel":
        old = rng.sample(alphabet, rng.randint(1, len(alphabet)))
        return Relabel(body, Relabelling.make(
            [(Name(n, ()), Name(rng.choice(alphabet), ())) for n in old]))
    if signals:
        return SignalEmit(body, Name(rng.choice(signals), ()))
    return body


def random_role_source(rng: random.Random) -> str:
    """The source of a small mutual-exclusion system: one or two roles,
    each `X = noncritX.WX` with a waiting agent `WX` that busy-waits,
    enters `critX` or gets stuck, beside plain agents over `a`, `b`
    and the signal `s`, three components at most.  Sometimes a gate
    component `'critA.G` and a restriction of `critA` turn A's crit
    action into tau, so that A's pending and non-pending states share
    cycles; random names are restricted and some actions block."""
    steps = ["a", "'a", "b", "'b", "s", "tau"]
    roles = ["A", "B"][:rng.randint(1, 2)]
    lines = ["signals { s }",
             "blocking { " + ", ".join(
                 [f"noncrit{x}" for x in roles]
                 + rng.sample(["a", "b", "s"], rng.randint(0, 3))) + " }"]
    for x in roles:
        branches = []
        for _ in range(rng.randint(1, 2)):
            step = rng.choice(steps)
            branches.append(rng.choice([
                f"{step}.W{x}", f"{step}.crit{x}.{x}", f"crit{x}.{x}",
                f"{step}.0"]))
        lines += [f"{x} = noncrit{x}.W{x}", f"W{x} = " + " + ".join(branches)]
    parts = list(roles)
    for k in range(rng.randint(0, 2 - len(roles) // 2)):
        body = " + ".join(f"{rng.choice(steps)}.V{k}"
                          for _ in range(rng.randint(1, 2)))
        lines.append(f"V{k} = ({body}) ^ s" if rng.random() < 0.4
                     else f"V{k} = {body}")
        parts.append(f"V{k}")
    hidden = rng.sample(["a", "b"], rng.randint(0, 2))
    if len(parts) < 3 and rng.random() < 0.25:
        lines.append("G = 'critA.G")
        parts.append("G")
        hidden.append("critA")
    system = " | ".join(parts)
    if hidden:
        system = f"({system}) \\ {{{', '.join(hidden)}}}"
    lines.append(f"system = {system}")
    return "\n".join(lines) + "\n"
