"""Concrete syntax: parser, pretty-printer, and their round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from ccss.errors import ParseError, ScopeError
from ccss.terms import (
    NIL, Name, Par, Prefix, Restrict, Sum, SignalEmit, Relabel, Ident,
    IndexedSum, Var, act, coact, sig, TAU,
)
from ccss import syntax
from ccss.syntax import parse, parse_term, spec_str, term_str

from _randterms import HANDSHAKES, SIGNALS, random_term
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
system = A[1] | (a.0)[b/a]
""")
    par = spec.root
    assert isinstance(par.left, Ident)
    assert isinstance(par.right, Relabel)


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
    # an identifier whose parameters do not parse backs off to a
    # relabelling, so these errors come from reading one
    "unbound index variable read as a relabelling": (
        "A = a.0\n\nsystem = a.b[k].0\n",
        ParseError, "3:15: expected '/', found ']'"),
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


def test_relabelling_back_offs_work_out_no_position(monkeypatch):
    # `A[b/a]` first reads [b/a] as parameters of A and backs off; the
    # back-off must not scan the text for a position, or a source with r
    # relabellings would cost r scans
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
