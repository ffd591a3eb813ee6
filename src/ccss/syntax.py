"""Concrete syntax: `.ccss` specification files and the pretty-printer.

A file contains declarations, in any order:

    signals { noti_x_true, noti_x_false }
    blocking { assign_x_true, noti_x_true }
    range Ticket = 0..4
    Agent[i] = act[i].Agent[i]
    system = (Agent[0] | Agent[1]) \\ {act[0]}

Binding strength, strongest first: restriction / relabelling / signalling,
prefixing, parallel composition, choice.  Output actions are written with
a leading apostrophe ('a); whether a plain name is a handshake or a signal
read is decided by the `signals` declaration.  `#` starts a line comment.

The tokenizer is one regex `findall`: each token is a plain string, and
the end of input is "".  A literal indexed name, such as `D[1]_0_2`
with no letter, digit or `_` after it, is one token, which the parser
maps once to its name; every other name is read from its identifier,
brackets and parameters.  Where that reading fails, the parser reads the
text again from plain tokens, which cut each name into those parts, so
a result or an error is always the plain reading's.  Line and column
are worked out from the token's index only when an error leaves the
parser.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from .errors import ParseError, ScopeError
from .terms import (
    Action, BoolOp, Cmp, Environment, Name, Relabelling, Term, TAU, Var,
    Ident, IndexedSum, NIL, Par, Prefix, Restrict, Relabel, SignalEmit, Sum,
    mk_sum, SIGNAL, HANDSHAKE, COHANDSHAKE,
)

KEYWORDS = {"sum", "in", "when", "tau", "signals", "blocking", "range",
            "system", "and", "or"}

_OPS = frozenset({"..", "!=", "<=", ">=", *"-.'+|\\{}[]()^/,=<>_"})
# whitespace and comments match outside the group, so `findall` gives ""
# for them; the last alternative takes any other character, an error
_SKIP = r"[ \t\r\n]+|\#[^\n]*|("
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_PLAIN = (r"\d+|" + _IDENT + "|"
          + "|".join(map(re.escape,
                         sorted(_OPS, key=lambda op: (-len(op), op))))
          + "|.)")
_PLAIN_TOKEN_RE = re.compile(_SKIP + _PLAIN)
# a literal indexed name, tried first, spans exactly the plain tokens of
# its parts
_TOKEN_RE = re.compile(
    _SKIP + _IDENT + r"\[\d+\](?:_\d+)*(?![A-Za-z0-9_])|" + _PLAIN)
_LETTERS = frozenset(string.ascii_letters)


class _Failure(Exception):
    """(message, token index, is a ScopeError): `_Parser.run` positions it."""


@dataclass
class SpecFile:
    env: Environment
    root: Term
    ranges: dict = field(default_factory=dict)  # name -> (lo, hi)


class _Parser:
    def __init__(self, text: str, token_re=_TOKEN_RE):
        self.text = text
        self.token_re = token_re
        self.tokens = list(filter(None, token_re.findall(text)))
        self.offsets = None  # each token's start, found on the first error
        # a token is an int if it starts with a digit, a word if with a
        # letter, else an operator
        distinct = set(self.tokens)
        words = {tok for tok in distinct if tok[0] in _LETTERS}
        bad = [tok for tok in distinct - words - _OPS
               if not tok[0].isdecimal()]
        if bad:
            i = min(map(self.tokens.index, bad))
            raise ParseError(f"unexpected character {self.tokens[i]!r}",
                             *self.position(i))
        self.tokens.append("")  # the end of input
        self.i = 0
        self.signals = set()
        self.blocking = set()
        self.ranges = {}
        self.equations = []
        self.root = None
        # one object per distinct name, action, identifier, prefix and
        # choice of the file, keyed by its class and fields: models keep
        # their parsed equations, where most names and many prefixes recur
        self.shared = {}
        # a word is a keyword, an identifier or a literal name such as
        # `D[1]_0_2`; `literals` maps each whose base is no keyword to its
        # name
        self.idents = {tok for tok in words if "[" not in tok} - KEYWORDS
        self.literals = {}
        for tok in words - self.idents:
            base, bracket, rest = tok.partition("[")
            if bracket and base not in KEYWORDS:
                params = rest.replace("]", "").split("_")
                self.literals[tok] = self._shared(
                    Name, base, tuple(map(int, params)))

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.i]

    def at(self, text: str) -> bool:
        return self.tokens[self.i] == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str):
        tok = self.tokens[self.i]
        if tok != text:
            self.error(f"expected {text!r}, found {tok!r}")
        self.i += 1

    def expect_ident(self) -> str:
        tok = self.tokens[self.i]
        if tok not in self.idents:
            self.error(f"expected identifier, found {tok!r}")
        self.i += 1
        return tok

    def _shared(self, cls, *fields):
        """The file's one `cls(*fields)`, built when first asked for."""
        key = (cls, *fields)
        item = self.shared.get(key)
        if item is None:
            item = self.shared[key] = cls(*fields)
        return item

    def position(self, index: int):
        """(line, column) of the token at `index`, or of the end of input
        after the last token."""
        if self.offsets is None:
            self.offsets = [m.start()
                            for m in self.token_re.finditer(self.text)
                            if m.lastindex]
        pos = (self.offsets[index] if index < len(self.offsets)
               else len(self.text))
        return (self.text.count("\n", 0, pos) + 1,
                pos - self.text.rfind("\n", 0, pos))

    def error(self, message: str, index=None, scope=False):
        raise _Failure(message, self.i if index is None else index, scope)

    def run(self, method, *args):
        """`method(*args)`, with any error given its position."""
        try:
            return method(*args)
        except RecursionError:
            # the parser descends once per nesting level
            raise ParseError("input nested too deeply to parse",
                             *self.position(self.i)) from None
        except _Failure as exc:
            message, index, scope = exc.args
            line, column = self.position(index)
            if scope:
                raise ScopeError(f"{message} at line {line}") from None
            raise ParseError(message, line, column) from None

    # -- file structure ------------------------------------------------------

    def parse_file(self) -> SpecFile:
        while self.peek():
            self.declaration()
        if self.root is None:
            self.error("missing `system = <process>` declaration")
        env = Environment(self.equations, self.signals, self.blocking)
        return SpecFile(env, self.root, dict(self.ranges))

    def declaration(self):
        if self.accept("signals"):
            self.signals.update(self.braced(self.expect_ident))
        elif self.accept("blocking"):
            self.blocking.update(self.braced(self.expect_ident))
        elif self.accept("range"):
            name = self.expect_ident()
            self.expect("=")
            self.ranges[name] = self.bounds()
        elif self.accept("system"):
            if self.root is not None:
                self.error("duplicate `system` declaration")
            self.expect("=")
            self.root = self.proc(frozenset())
        else:
            tok = self.peek()
            if (tok not in self.idents and tok not in KEYWORDS
                    and tok not in self.literals):
                self.error("expected a declaration")
            name, scope = self.equation_lhs()
            self.expect("=")
            body = self.proc(scope)
            self.equations.append((name, body))

    def braced(self, item, *args) -> list:
        """`{x, y, ...}`, each element read by `item(*args)`."""
        self.expect("{")
        items = []
        if not self.at("}"):
            items.append(item(*args))
            while self.accept(","):
                items.append(item(*args))
        self.expect("}")
        return items

    def int_literal(self) -> int:
        neg = self.accept("-")
        tok = self.peek()
        if not tok.isdecimal():
            self.error("expected an integer")
        self.i += 1
        return -int(tok) if neg else int(tok)

    def equation_lhs(self):
        literal = self.literals.get(self.peek())
        if literal is not None:
            self.i += 1
            # a name of its own, as the parameter rules build it
            return Name(literal.base, literal.params), frozenset()
        base = self.expect_ident()
        scope = set()
        params = self.params(frozenset(), binding_ok=scope)
        return Name(base, params), frozenset(scope)

    # -- processes -----------------------------------------------------------

    def proc(self, scope) -> Term:
        if self.accept("sum"):
            var = self.expect_ident()
            self.expect("in")
            lo, hi = self.range_expr()
            guard = None
            inner = scope | {var}
            if self.accept("when"):
                guard = self.guard(inner)
            self.expect(".")
            body = self.par(inner)
            return IndexedSum(var, lo, hi, guard, body)
        term = self.par(scope)
        if self.at("+"):
            branches = [term]
            while self.accept("+"):
                branches.append(self.par(scope))
            return self._shared(Sum, tuple(branches))
        return term

    def range_expr(self):
        """A sum's range: a declared range's name, or `lo..hi`."""
        tok = self.peek()
        if tok in self.idents:
            self.i += 1
            if tok not in self.ranges:
                self.error(f"unknown range {tok!r}", self.i - 1, True)
            return self.ranges[tok]
        return self.bounds()

    def bounds(self):
        lo = self.int_literal()
        self.expect("..")
        return lo, self.int_literal()

    def par(self, scope) -> Term:
        term = self.prefixed(scope)
        while self.accept("|"):
            term = Par(term, self.prefixed(scope))
        return term

    def prefixed(self, scope) -> Term:
        """Actions, each followed by '.', then a postfixed atom.  A
        name is parsed once, as an action or as the atom.  After `A[`, a
        `]`, a literal name or an identifier followed by `/` or `[`
        starts a relabelling of A, as in `A[]`, `A[b/a]` and
        `A[b[1]/a[1]]`; anything else starts A's parameters, as in
        `A[i]` and `A[i+1]`."""
        actions = []
        tokens = self.tokens
        while True:
            i = self.i
            tok = tokens[i]
            if tok == "tau" and tokens[i + 1] == ".":
                self.i += 2
                actions.append(TAU)
            elif self.accept("'"):
                name = self.name(scope)
                self.expect(".")
                if name.base in self.signals:
                    self.error(f"signal {name.base} has no output action")
                actions.append(self._shared(Action, COHANDSHAKE, name))
            elif tok in self.idents and tokens[i + 1] == "[" and (
                    tokens[i + 2] == "]" or tokens[i + 2] in self.literals
                    or tokens[i + 2] in self.idents
                    and tokens[i + 3] in ("/", "[")):
                self.i += 1
                term = self._shared(Ident, self._shared(Name, tok, ()))
                break
            elif tok in self.idents or tok in self.literals:
                name = self.name(scope)
                if self.accept("."):
                    kind = SIGNAL if name.base in self.signals else HANDSHAKE
                    actions.append(self._shared(Action, kind, name))
                    continue
                term = self._shared(Ident, name)
                break
            else:
                term = self.atom(scope)
                break
        term = self.postfixed(term, scope)
        for a in reversed(actions):
            term = self._shared(Prefix, a, term)
        return term

    def postfixed(self, term, scope) -> Term:
        while True:
            if self.accept("\\"):
                term = Restrict(term, frozenset(self.braced(self.name, scope)))
            elif self.accept("["):
                term = Relabel(term, self.rename_list(scope))
            elif self.accept("^"):
                term = SignalEmit(term, self.name(scope))
            else:
                return term

    def atom(self, scope) -> Term:
        """NIL or a parenthesised process; `prefixed` reads identifiers."""
        if self.accept("0"):
            return NIL
        if self.accept("("):
            term = self.proc(scope)
            self.expect(")")
            return term
        self.error("expected a process")

    def rename_list(self, scope) -> Relabelling:
        """The pairs up to `]`, each listed once; a pair given twice is
        one pair."""
        if self.accept("]"):
            return Relabelling.make()  # identity relabelling
        renamed = {}  # old -> new
        while True:
            start = self.i
            new = self.name(scope)
            self.expect("/")
            old = self.name(scope)
            if renamed.setdefault(old, new) != new:
                self.error(f"{old} is relabelled to both {renamed[old]} "
                           f"and {new}", start)
            if not self.accept(","):
                break
        self.expect("]")
        signal = {old: new for old, new in renamed.items()
                  if old.base in self.signals or new.base in self.signals}
        return Relabelling.make(renamed.items() - signal.items(),
                                signal.items())

    # -- names, parameters and guards -----------------------------------------

    def name(self, scope) -> Name:
        literal = self.literals.get(self.tokens[self.i])
        if literal is not None:
            self.i += 1
            return literal
        base = self.expect_ident()
        return self._shared(Name, base, self.params(scope))

    def params(self, scope, binding_ok=None) -> tuple:
        """A name's parameters, from the `[` at the next token, or ()."""
        if not self.accept("["):
            return ()
        params = [self.intexpr(scope, binding_ok)]
        self.expect("]")
        while self.accept("_"):
            params.append(self.param_tail(scope, binding_ok))
        return tuple(params)

    def param_tail(self, scope, binding_ok=None):
        """Parameter after '_': an integer, a variable, or (expr)."""
        if self.accept("("):
            value = self.intexpr(scope, binding_ok)
            self.expect(")")
            return value
        tok = self.peek()
        if tok.isdecimal():
            self.i += 1
            return int(tok)
        if tok in self.idents:
            return self.variable(scope, binding_ok)
        self.error("expected a parameter")

    def intexpr(self, scope, binding_ok=None):
        tok = self.peek()
        if tok.isdecimal() or tok == "-":
            return self.int_literal()
        if tok in self.idents:
            var = self.variable(scope, binding_ok)
            if self.accept("+"):
                return Var(var.var, self.int_literal())
            if self.accept("-"):
                return Var(var.var, -self.int_literal())
            return var
        self.error("expected an index expression")

    def variable(self, scope, binding_ok) -> Var:
        """The index variable at the next token."""
        tok = self.peek()
        self.i += 1
        if binding_ok is not None:
            binding_ok.add(tok)
        elif tok not in scope:
            self.error(f"unbound index variable {tok!r}", self.i - 1, True)
        return Var(tok)

    def guard(self, scope):
        left = self.guard_conj(scope)
        while self.accept("or"):
            left = BoolOp("or", left, self.guard_conj(scope))
        return left

    def guard_conj(self, scope):
        left = self.guard_atom(scope)
        while self.accept("and"):
            left = BoolOp("and", left, self.guard_atom(scope))
        return left

    def guard_atom(self, scope):
        if self.accept("("):
            g = self.guard(scope)
            self.expect(")")
            return g
        lhs = self.intexpr(scope)
        for op in ("!=", "<=", ">=", "=", "<", ">"):
            if self.accept(op):
                return Cmp(op, lhs, self.intexpr(scope))
        self.error("expected a comparison operator")


def _read(text, read):
    """read(parser of text), from whole-name tokens; where that fails,
    from plain tokens, which give the same result wherever both succeed,
    and raise the error to report where neither does."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    try:
        return read(_Parser(text))
    except (ParseError, ScopeError):
        pass
    return read(_Parser(text, _PLAIN_TOKEN_RE))


def parse(text) -> SpecFile:
    """Parse a full specification file (str or UTF-8 bytes)."""
    return _read(text, lambda p: p.run(p.parse_file))


def parse_term(text, signals=(), ranges=None, scope=frozenset()) -> Term:
    """Parse a bare process expression."""
    def read(p):
        p.signals = set(signals)
        p.ranges = dict(ranges or {})
        term = p.run(p.proc, frozenset(scope))
        if p.peek():
            p.run(p.error, f"trailing input {p.peek()!r}")
        return term
    return _read(text, read)


# --------------------------------------------------------------------------
# pretty-printer

_PREC_SUM, _PREC_PAR, _PREC_PREFIX, _PREC_POST = 0, 1, 2, 3


def term_str(term: Term, prec: int = _PREC_SUM) -> str:
    if isinstance(term, type(NIL)):
        return "0"
    if isinstance(term, Ident):
        return str(term.name)
    if isinstance(term, Prefix):
        parts = []
        while isinstance(term, Prefix):
            parts.append(str(term.action))
            term = term.body
        text = ".".join(parts) + "." + term_str(term, _PREC_POST)
        return _wrap(text, _PREC_PREFIX, prec)
    if isinstance(term, Sum):
        text = " + ".join(term_str(b, _PREC_PAR) for b in term.branches)
        return _wrap(text, _PREC_SUM, prec)
    if isinstance(term, IndexedSum):
        guard = f" when {term.guard}" if term.guard is not None else ""
        text = (f"sum {term.var} in {term.lo}..{term.hi}{guard} . "
                + term_str(term.body, _PREC_PAR))
        return _wrap(text, _PREC_SUM, prec)
    if isinstance(term, Par):
        text = (term_str(term.left, _PREC_PAR) + " | "
                + term_str(term.right, _PREC_PREFIX))
        return _wrap(text, _PREC_PAR, prec)
    if isinstance(term, Restrict):
        names = ", ".join(sorted(map(str, term.names)))
        return term_str(term.body, _PREC_POST) + " \\ {" + names + "}"
    if isinstance(term, Relabel):
        f = term.relabelling
        pairs = [f"{new}/{old}" for old, new in f.handshake_map + f.signal_map]
        body = term_str(term.body, _PREC_POST)
        if isinstance(term.body, SignalEmit):
            # '^ s[...]' would read the bracket as a parameter of s
            body = f"({body})"
        return body + "[" + ", ".join(pairs) + "]"
    if isinstance(term, SignalEmit):
        return f"{term_str(term.body, _PREC_POST)} ^ {term.signal}"
    raise TypeError(f"not a term: {term!r}")


def _wrap(text: str, level: int, required: int) -> str:
    return f"({text})" if level < required else text


def spec_str(spec: SpecFile) -> str:
    env = spec.env
    lines = []
    if env.declared_signals:
        lines.append("signals { " + ", ".join(sorted(env.declared_signals)) + " }")
    if env.blocking:
        lines.append("blocking { " + ", ".join(sorted(env.blocking)) + " }")
    for rname, (lo, hi) in sorted(spec.ranges.items()):
        lines.append(f"range {rname} = {lo}..{hi}")
    for name, body in env.order:
        lines.append(f"{name} = {term_str(body)}")
    lines.append(f"system = {term_str(spec.root)}")
    return "\n".join(lines) + "\n"
