"""Concrete syntax: parser, pretty-printer, and their round trip."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ccss.errors import ParseError, ScopeError
from ccss.terms import (
    NIL, Action, Environment, Name, Par, Prefix, Relabelling, Restrict, Sum,
    SignalEmit, Relabel, Ident, IndexedSum, Var, act, canonical, coact, mk_sum,
    sig, TAU,
)
from ccss import syntax
from ccss.syntax import parse, parse_term, spec_str, term_str

from _randterms import GUARDED_MODELS, HANDSHAKES, SIGNALS, random_term
import random


def rt(text, signals=SIGNALS):
    return parse_term(text, signals=signals)


def test_action_prefix_and_nil():
    assert rt("a.0") == Prefix(act("a"), NIL)
    assert rt("'a.0") == Prefix(coact("a"), NIL)
    assert rt("tau.0") == Prefix(TAU, NIL)
    assert rt("s.0") == Prefix(sig("s"), NIL)


def test_precedence_prefix_binds_tighter_than_par_than_sum():
    term = rt("a.0 | b.0 + c.0")
    assert isinstance(term, Sum)
    assert isinstance(term.branches[0], Par)


def test_postfix_operators_bind_tightest():
    # postfix applies to the nearest subterm: a.0 ^ s is a.(0 ^ s)
    term = rt("a.0 ^ s")
    assert isinstance(term, Prefix)
    assert isinstance(term.body, SignalEmit)
    outer = rt("(a.0) ^ s")
    assert isinstance(outer, SignalEmit)
    inner = rt("(a.0) \\ {b} [c/b]")
    assert isinstance(inner, Relabel)
    assert isinstance(inner.body, Restrict)


def test_indexed_sum_with_guard():
    term = rt("sum k in 1..3 when k != 2 . pick_k.0")
    assert isinstance(term, IndexedSum)
    assert (term.var, term.lo, term.hi) == ("k", 1, 3)


def test_parameter_syntax_bracketed_head_and_underscore_tail():
    term = rt("get[1]_2.0")
    assert term == Prefix(act("get", 1, 2), NIL)


@pytest.mark.parametrize("params, text", [
    ((1,), "a[1]"), ((1, 2), "a[1]_2"), ((1, 2, 3), "a[1]_2_3"),
    ((-1,), "a[-1]"), ((1, -1), "a[1]_(-1)"), ((-1, -2, 0), "a[-1]_(-2)_0"),
    ((Var("i"),), "a[i]"), ((Var("i", 1),), "a[i+1]"),
    ((1, Var("i")), "a[1]_i"), ((1, Var("i", -2)), "a[1]_(i-2)"),
    ((Var("i", 1), 2, Var("i", 3)), "a[i+1]_2_(i+3)"),
])
def test_names_print_as_the_parser_reads_them(params, text):
    name = Name("a", params)
    assert str(name) == text
    assert parse_term(str(name), scope={"i"}) == Ident(name)
    for action in (act("a", *params), coact("a", *params)):
        assert parse_term(f"{action}.0", scope={"i"}) == Prefix(action, NIL)


def test_a_relabelling_pair_listed_twice_is_one_pair():
    assert rt("(b.0)[a/b, a/b]") == rt("(b.0)[a/b]")
    assert rt("(s.0)[t/s, a/b, t/s]") == rt("(s.0)[a/b, t/s]")


def test_identifier_with_parameters_vs_relabelling():
    spec = parse("""
A[1] = a.0
system = A[1] | (a.0)[b/a] | A[b/a] | A[1]_2[b[1]/a[1]]
""")
    b_for_a = Relabelling.make([(Name("a"), Name("b"))])
    assert spec.root == Par(Par(Par(
        Ident(Name("A", (1,))), Relabel(Prefix(act("a"), NIL), b_for_a)),
        Relabel(Ident(Name("A")), b_for_a)),
        Relabel(Ident(Name("A", (1, 2))),
                Relabelling.make([(Name("a", (1,)), Name("b", (1,)))])))


@pytest.mark.parametrize("text, term", [
    ("A[]", Relabel(Ident(Name("A")), Relabelling.make())),
    ("A[b/a]", Relabel(Ident(Name("A")),
                       Relabelling.make([(Name("a"), Name("b"))]))),
    ("A[b[1]/a[1]]", Relabel(Ident(Name("A")), Relabelling.make(
        [(Name("a", (1,)), Name("b", (1,)))]))),
    ("A[1][b/a]", Relabel(Ident(Name("A", (1,))),
                          Relabelling.make([(Name("a"), Name("b"))]))),
    ("(a.0)[b/a]", Relabel(Prefix(act("a"), NIL),
                           Relabelling.make([(Name("a"), Name("b"))]))),
    ("A[i]", Ident(Name("A", (Var("i"),)))),
    ("A[i+1]_j", Ident(Name("A", (Var("i", 1), Var("j"))))),
])
def test_a_bracket_after_an_identifier_is_told_apart_by_lookahead(text,
                                                                   term):
    """After `A[`, a `]` or an identifier followed by `/` or `[` starts a
    relabelling of A; anything else starts A's parameters."""
    assert parse_term(text, signals=(), scope={"i", "j"}) == term
    spec = parse(f"A = a.0\nA[k] = a.0\nA[k]_l = a.0\nB[i]_j = {text}\n"
                 "system = B[0]_1\n")
    printed = spec_str(spec)
    assert spec_str(parse(printed)) == printed
    assert parse(printed).root == spec.root


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("system = a..0\n")
    assert exc.value.line == 1
    assert exc.value.column > 0


# one case per raise site of the parser, each past line 1 and column 1;
# the message is "LINE:COL: message" (a ScopeError names the line alone)
ERRORS = {
    "unexpected character": (
        "A = a.0\nsystem = A |  b.0 $ c\n",
        ParseError, "2:19: unexpected character '$'"),
    "unexpected character after a tab": (
        "A = a.0\n\tsystem = A\t@\n",
        ParseError, "2:13: unexpected character '@'"),
    "first of two unexpected characters": (
        "A = a.0\nsystem = A\n  | b.0 ? $ % c.0\n",
        ParseError, "3:9: unexpected character '?'"),
    "unexpected character after a syntax error": (
        "A = a.0\nsystem = )\n  A | b.0 ? \n",
        ParseError, "3:11: unexpected character '?'"),
    "expected X, found Y": (
        "A = a.0\nsystem = (A |\n   b.0 ]\n",
        ParseError, "3:8: expected ')', found ']'"),
    "expected X at the end of input": (
        "A = a.0\nsystem = (A | b.0",
        ParseError, "2:18: expected ')', found ''"),
    "expected identifier": (
        "signals { s,\n  , t }\nsystem = 0\n",
        ParseError, "2:3: expected identifier, found ','"),
    "expected identifier, found a keyword": (
        "A = a.0\n  in = 0\n",
        ParseError, "2:3: expected identifier, found 'in'"),
    "expected a declaration": (
        "A = a.0\n  ( B = 0\n",
        ParseError, "2:3: expected a declaration"),
    "expected an integer": (
        "A = a.0\nrange R = 1..x\nsystem = 0\n",
        ParseError, "2:14: expected an integer"),
    "expected a process": (
        "A = a.0\nsystem = a. | 0\n",
        ParseError, "2:13: expected a process"),
    "tau without a dot is no process": (
        "A = a.0\nsystem = b.tau\n",
        ParseError, "2:12: expected a process"),
    "expected a parameter": (
        "A = a.0\nsystem = 'a[1]_.0\n",
        ParseError, "2:16: expected a parameter"),
    "expected an index expression": (
        "A = a.0\nsystem = 'a[(].0\n",
        ParseError, "2:13: expected an index expression"),
    "expected a comparison operator": (
        "A = a.0\nsystem = sum k in 0..1 when k . a.0\n",
        ParseError, "2:31: expected a comparison operator"),
    "duplicate system": (
        "A = a.0\nsystem = A\n  system = A\n",
        ParseError, "3:10: duplicate `system` declaration"),
    "missing system": (
        "A = a.0\n  B = b.0",
        ParseError, "2:10: missing `system = <process>` declaration"),
    "missing system after a newline": (
        "A = a.0\nB = b.0\n",
        ParseError, "3:1: missing `system = <process>` declaration"),
    "signal with an output action": (
        "signals { s }\nsystem = a.'s.  0\n",
        ParseError, "2:17: signal s has no output action"),
    "unknown range": (
        "A = a.0\nsystem = sum k in N . a_k.0\n",
        ScopeError, "unknown range 'N' at line 2"),
    "unbound index variable": (
        "A = a.0\nsystem = 'b[k].0\n",
        ScopeError, "unbound index variable 'k' at line 2"),
    # `b[k` is a name with parameters, not a relabelling of b: only a
    # `]`, or an identifier followed by `/` or `[`, starts one
    "unbound index variable read as a relabelling": (
        "A = a.0\n\nsystem = a.b[k].0\n",
        ScopeError, "unbound index variable 'k' at line 3"),
    "A[i] with i unbound": (
        "A[k] = a.0\nsystem = A[i]\n",
        ScopeError, "unbound index variable 'i' at line 2"),
    "relabelled action": (
        "A = a.0\nsystem = A[b/a] | a[c/a].0\n",
        ParseError, "2:25: expected a declaration"),
    "one name relabelled to two": (
        "A = b.0\nsystem = (b.0)[a/b, c/b]\n",
        ParseError, "2:21: b is relabelled to both a and c"),
    "one name relabelled to two, in the other order": (
        "A = b.0\nsystem = (b.0)[c/b, a/b]\n",
        ParseError, "2:21: b is relabelled to both c and a"),
    "one signal relabelled to two": (
        "signals { s, t, u }\nsystem = ((s.0) ^ t)[t/s,\n  u/s]\n",
        ParseError, "3:3: s is relabelled to both t and u"),
    "one indexed name relabelled to two": (
        "A = a.0\nsystem = A[b/a[1], a[2]/a[2], c/a[1]]\n",
        ParseError, "2:31: a[1] is relabelled to both b and c"),
    # names whose parameters start as integer literals but are not all
    # literals: `D[1]_0_2` is one token, anything else is read by the
    # parameter rules, which raise these
    "A[1]_ as a process": (
        "A = a.0\nsystem = A[1]_\n",
        ParseError, "3:1: expected a parameter"),
    "A[1]_( as a process": (
        "A = a.0\nsystem = A[1]_(\n",
        ParseError, "3:1: expected an index expression"),
    "A[1]_ as a left-hand side": (
        "A = a.0\nA[1]_ = 0\nsystem = 0\n",
        ParseError, "2:7: expected a parameter"),
    "A[1]_( as a left-hand side": (
        "A = a.0\nA[1]_( = 0\nsystem = 0\n",
        ParseError, "2:8: expected an index expression"),
    "'a[1]_2_ as an output": (
        "A = a.0\nsystem = 'a[1]_2_.0\n",
        ParseError, "2:18: expected a parameter"),
    "'a[1]_x with x unbound": (
        "A = a.0\nsystem = 'a[1]_x.0\n",
        ScopeError, "unbound index variable 'x' at line 2"),
    # a literal name where only a bare identifier may stand: the error is
    # the one read from plain tokens, at the name's bracket
    "a literal name in a signals list": (
        "signals { a[1] }\nsystem = 0\n",
        ParseError, "1:12: expected '}', found '['"),
    "a literal name as a range's name": (
        "signals { s }\nrange R[1] = 0..2\nsystem = 0\n",
        ParseError, "2:8: expected '=', found '['"),
    "a literal name as a sum's variable": (
        "A = a.0\nsystem = sum k[1] in 0..1 . 0\n",
        ParseError, "2:15: expected 'in', found '['"),
    "a literal name as a sum's range": (
        "A = a.0\nsystem = sum k in R[1] . 0\n",
        ScopeError, "unknown range 'R' at line 2"),
    "a keyword with a literal index": (
        "A = a.0\nsystem = tau[1].0\n",
        ParseError, "2:10: expected a process"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_parse_errors_name_the_offending_position(case):
    source, error, message = ERRORS[case]
    with pytest.raises(error) as exc:
        parse(source)
    assert type(exc.value) is error
    assert str(exc.value) == message
    if error is ParseError:
        line, column = message.split(":")[:2]
        assert (exc.value.line, exc.value.column) == (int(line), int(column))


@pytest.mark.parametrize("source", ["bakery 2 4 ccs", "filter 3 ccss",
                                    "guarded"])
def test_each_recurring_name_action_and_identifier_is_one_object(source):
    """In the processes of a file, the equation bodies and the system,
    each distinct name, action, identifier, prefix and choice is one
    object, however often it occurs; a left-hand side is a name of its
    own."""
    from ccss import protocols
    text = {"bakery 2 4 ccs": lambda: protocols.bakery(2, 4, "ccs").source,
            "filter 3 ccss": lambda: protocols.filter_lock(3).source,
            "guarded": lambda: GUARDED_MODELS[0][0]}[source]()
    spec = parse(text)
    objects, occurrences = {}, 0

    def walk(item):
        nonlocal occurrences
        if isinstance(item, (Name, Action, Ident, Prefix, Sum)):
            objects.setdefault(item, set()).add(id(item))
            occurrences += 1
        if dataclasses.is_dataclass(item):
            for f in dataclasses.fields(item):
                if f.compare:
                    walk(getattr(item, f.name))
        elif isinstance(item, (tuple, frozenset)):
            for x in item:
                walk(x)

    for _, body in spec.env.order:
        walk(body)
    walk(spec.root)
    assert occurrences > len(objects)  # some recur
    assert all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize("split", ["D[1]_0 _2", "D[1] _0_2", "D [1]_0_2",
                                   "D[ 1 ]_0_2", "D[1]_ 0_2", "D[1]_0_\n2"])
def test_a_name_split_by_whitespace_parses_as_the_joined_name(split):
    joined = Name("D", (1, 0, 2))
    assert rt(split) == Ident(joined)
    assert rt(f"'d{split[1:]}.0") == Prefix(coact("d", 1, 0, 2), NIL)
    assert rt(f"A[b/{split}]") == Relabel(Ident(Name("A")), Relabelling.make(
        [(joined, Name("b"))]))
    spec = parse(f"{split} = a.0\nsystem = D[1]_0_2 | {split}\n")
    assert spec.env.order == [(joined, Prefix(act("a"), NIL))]
    assert spec.root == Par(Ident(joined), Ident(joined))


def _outcome(read, text):
    """What read(text) gives: the spec's declarations, equations and
    system, or the term, or else the error's type, message and
    position."""
    try:
        out = read(text)
    except (ParseError, ScopeError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    if isinstance(out, syntax.SpecFile):
        return ("spec", out.env.order, out.root, out.env.declared_signals,
                out.env.blocking, out.ranges)
    return "term", out


def _plain_parse(text):
    p = syntax._Parser(text, syntax._PLAIN_TOKEN_RE)
    return p.run(p.parse_file)


def _plain_parse_term(text):
    p = syntax._Parser(text, syntax._PLAIN_TOKEN_RE)
    p.signals = set(SIGNALS)
    term = p.run(p.proc, frozenset())
    if p.peek():
        p.run(p.error, f"trailing input {p.peek()!r}")
    return term


def _mutated_sources(rng, count):
    """`count` small sources cut from the model files and the catalog:
    a source's declarations, a run of its equations and its system line
    with the first three restricted names, with one to three characters
    inserted, deleted or replaced, mostly the characters of an indexed
    name and whitespace."""
    from pathlib import Path
    from ccss import protocols
    root = Path(__file__).resolve().parents[1] / "models"
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(root.glob("*.ccss"))]
    for flavor in protocols.FLAVORS:
        sources += [protocols.peterson2(flavor).source,
                    protocols.filter_lock(3, flavor).source,
                    protocols.bakery(2, 4, flavor).source]
    cut = []
    for source in sources:
        lines = source.splitlines()
        heads = [line for line in lines
                 if line.startswith(("signals", "blocking", "range"))]
        system = [line for line in lines if line.startswith("system")]
        body = [line for line in lines if line not in heads + system
                and line.strip() and not line.startswith("#")]
        system = [line if "{" not in line else
                  line[:line.index("{") + 1]
                  + ", ".join(line[line.index("{") + 1:-1].split(", ")[:3])
                  + "}" for line in system]
        cut.append((heads, body, system))
    chars = "[]_0123456789 \n_[]_ab/.'|(+^"
    for _ in range(count):
        heads, body, system = rng.choice(cut)
        start = rng.randrange(len(body))
        text = "\n".join(heads + body[start:start + rng.randint(1, 3)]
                         + system) + "\n"
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            edit = rng.randrange(3)
            text = (text[:i] + rng.choice(chars) * (edit != 1)
                    + text[i + (edit != 0):])
        yield text


def test_whole_name_tokens_read_what_plain_tokens_read():
    """Mutated model and catalog sources give the same spec, or the same
    error at the same position, from `parse` as from plain tokens alone;
    so does the system line of every third one, read by `parse_term`."""
    rng = random.Random(20171002)
    parsed = differ = 0
    for number, text in enumerate(_mutated_sources(rng, 6000)):
        outcome = _outcome(parse, text)
        parsed += outcome[0] == "spec"
        differ += outcome != _outcome(_plain_parse, text)
        if number % 3 == 0:
            line = text.rstrip("\n").rpartition("\n")[2].partition("=")[2]
            differ += (_outcome(lambda t: parse_term(t, signals=SIGNALS), line)
                       != _outcome(_plain_parse_term, line))
    assert differ == 0
    assert 1000 < parsed < 5000  # both outcomes are well represented


def test_relabellings_work_out_no_position(monkeypatch):
    # a position is worked out only for an error: reading `A[b/a]` must
    # not scan the text for one, or a source with r relabellings would
    # cost r scans
    def no_position(self, index):
        raise AssertionError("a position was worked out without an error")

    monkeypatch.setattr(syntax._Parser, "position", no_position)
    body = " | ".join(f"A[b{i}/a]" if i % 2 else f"A[b{i}[1]/a[1]]"
                      for i in range(400))
    spec = parse(f"A = a.0\nsystem = {body}\n")
    assert term_str(spec.root) == body
    assert term_str(parse_term(body)) == body


def test_trailing_input_after_a_term_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_term("a.0 |\n  b.0 )")
    assert str(exc.value) == "2:7: trailing input ')'"
    assert (exc.value.line, exc.value.column) == (2, 7)


@pytest.mark.parametrize("read, text", [
    (parse, "system = " + "(" * 3000 + "0" + ")" * 3000 + "\n"),
    (parse_term, "(" * 3000 + "0" + ")" * 3000),
    (parse_term, "a." * 1000 + "(" * 3000 + "0" + ")" * 3000),
], ids=["file", "term", "term-under-prefixes"])
def test_too_deeply_nested_input_is_a_parse_error(read, text):
    """A library caller gets a `ParseError` with a position, not a bare
    `RecursionError`; parsing afterwards works as before."""
    with pytest.raises(ParseError, match="nested too deeply") as exc:
        read(text)
    assert exc.value.line == 1 and exc.value.column > 1
    assert parse_term("(" * 50 + "a.0" + ")" * 50) == rt("a.0")


def test_unknown_range_identifier_is_a_scope_error():
    with pytest.raises((ScopeError, ParseError)):
        parse_term("sum k in N . a_k.0", signals=())


def test_full_file_round_trip_is_stable():
    source = """\
signals { s }
blocking { a }
range N = 1..2
A[k] = a[k].A[k+1] + s.0
system = (A[1] | 'a[1].0 ^ s) \\ {a}
"""
    spec = parse(source)
    printed = spec_str(spec)
    assert spec_str(parse(printed)) == printed


@pytest.mark.parametrize("source", [m[0] for m in GUARDED_MODELS])
def test_guarded_sums_and_parameterised_bodies_round_trip(source):
    spec = parse(source)
    printed = spec_str(spec)
    again = parse(printed)
    assert spec_str(again) == printed
    assert again.env.order == spec.env.order
    assert again.root == spec.root
    assert again.ranges == spec.ranges


def test_an_indexed_sum_prints_reparses_and_expands():
    text = "sum k in 0..3 when k != 1 and (k < 3 or k = 3) . a[k].0"
    term = parse_term(text, signals=())
    assert isinstance(term, IndexedSum)
    printed = term_str(term)
    assert printed == ("sum k in 0..3 when (k != 1 and (k < 3 or k = 3)) "
                       ". a[k].0")
    assert parse_term(printed, signals=()) == term
    assert term_str(Par(term, NIL)) == f"({printed}) | 0"
    assert canonical(Environment(), term) == mk_sum(
        parse_term(f"a[{k}].0", signals=()) for k in (0, 2, 3))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_term_round_trip(seed):
    term = random_term(random.Random(seed))
    text = term_str(term)
    assert parse_term(text, signals=SIGNALS) == term


def test_printer_inserts_parentheses_only_where_needed():
    term = Par(Sum((Prefix(act("a"), NIL), Prefix(act("b"), NIL))),
               Prefix(act("c"), NIL))
    text = term_str(term)
    assert parse_term(text, signals=()) == term
    assert text.count("(") == 1
