"""Command-line interface.

Subcommands: parse, lts, bisim, just, verify, gen, step.  Exit codes:
0 success / property holds, 1 property violated (or systems inequivalent),
2 usage or input error, 3 verdict unknown.  --max-states, or else the
CCSS_MAX_STATES environment variable, caps state-space exploration
(default 1000000); either must be a positive integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CcssError
from .terms import validate
from .syntax import parse, spec_str, term_str, action_str
from .sos import SosEngine
from .lts import explore, export_dot, export_json
from .bisim import bisimilar
from .justness import Lasso, is_just, is_complete
from . import protocols
from .verify import check_safety, check_liveness

EXIT_OK, EXIT_VIOLATED, EXIT_USAGE, EXIT_UNKNOWN = 0, 1, 2, 3


def _state_cap(text: str) -> int:
    """A state cap, from --max-states or CCSS_MAX_STATES."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"not a positive integer: {text!r}")
    return value


def _max_states(args) -> int:
    if args.max_states is not None:
        return args.max_states
    try:
        return _state_cap(os.environ.get("CCSS_MAX_STATES", "1000000"))
    except argparse.ArgumentTypeError as exc:
        raise CcssError(f"CCSS_MAX_STATES: {exc}") from None


def _load(path: str):
    with open(path, "rb") as handle:
        return parse(handle.read())


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# --------------------------------------------------------------------------

def cmd_parse(args) -> int:
    spec = _load(args.file)
    report = validate(spec.env, spec.root)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(spec_str(spec))
    return EXIT_OK


def cmd_lts(args) -> int:
    spec = _load(args.file)
    lts = explore(spec.env, spec.root, max_states=_max_states(args))
    if lts.truncated:
        print("warning: exploration truncated at the state limit",
              file=sys.stderr)
    if args.dot:
        print(export_dot(lts, state_str=term_str))
    else:
        print(export_json(lts, state_str=term_str))
    return EXIT_OK


def cmd_bisim(args) -> int:
    lhs, rhs = _load(args.file1), _load(args.file2)
    lts1 = explore(lhs.env, lhs.root, max_states=_max_states(args))
    lts2 = explore(rhs.env, rhs.root, max_states=_max_states(args))
    truncated = [f for f, lts in ((args.file1, lts1), (args.file2, lts2))
                 if lts.truncated]
    if truncated:
        # a missing state can make or break any match: no verdict
        for path in truncated:
            print(f"warning: exploration of {path} truncated at the state "
                  f"limit", file=sys.stderr)
        print("unknown")
        return EXIT_UNKNOWN
    result = bisimilar(lts1, lts1.initial, lts2, lts2.initial)
    if result.equivalent:
        print("bisimilar")
        return EXIT_OK
    ev = result.evidence
    trace = " ".join(action_str(a) for a in ev.trace) or "(initial state)"
    print(f"not bisimilar: after {trace}: {ev.reason}")
    return EXIT_VIOLATED


def cmd_just(args) -> int:
    spec = _load(args.file)
    engine = SosEngine(spec.env)
    lts = explore(spec.env, spec.root, max_states=_max_states(args),
                  engine=engine)
    try:
        stem_part, _, cycle_part = args.lasso.partition(";")
        stem = tuple(int(x) for x in stem_part.split(",") if x.strip())
        cycle = tuple(int(x) for x in cycle_part.split(",") if x.strip())
        lasso = Lasso(stem, cycle)
        lasso.validate(lts)
    except (ValueError, IndexError) as exc:
        return _fail(f"bad lasso spec: {exc}")
    verdict = is_just(lts, spec.env, lasso, engine=engine)
    complete = is_complete(lts, spec.env, lasso, engine=engine)
    print(json.dumps({**verdict.to_json(), "complete": complete}, indent=2))
    return EXIT_OK


# --------------------------------------------------------------------------
# verification

_MAKERS = {
    "example1": lambda args: protocols.example1(),
    "example2": lambda args: protocols.example2(),
    "peterson2": lambda args: protocols.peterson2(args.flavor),
    "filter": lambda args: protocols.filter_lock(args.n, args.flavor),
    "bakery": lambda args: protocols.bakery(args.n, args.ticket_bound,
                                            args.flavor),
}


def _get_model(args):
    if args.model:
        if args.model not in _MAKERS:
            raise CcssError(f"unknown model {args.model!r}")
        return _MAKERS[args.model](args)
    if not args.file:
        raise CcssError("need a FILE or --model")
    return protocols.roles_from_file(_load(args.file))


def cmd_verify(args) -> int:
    model = _get_model(args)
    if args.safety:
        verdict = check_safety(model, max_states=_max_states(args))
        print(json.dumps(verdict.to_json(), indent=2))
        if verdict.holds is None:
            return EXIT_UNKNOWN
        return EXIT_OK if verdict.holds else EXIT_VIOLATED
    verdict = check_liveness(model, max_states=_max_states(args))
    print(json.dumps(verdict.to_json(), indent=2))
    if verdict.status == "holds":
        return EXIT_OK
    if verdict.status == "violated":
        return EXIT_VIOLATED
    return EXIT_UNKNOWN


def cmd_gen(args) -> int:
    model = _get_model(args)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(model.source)
    else:
        sys.stdout.write(model.source)
    return EXIT_OK


# --------------------------------------------------------------------------
# interactive stepping

def cmd_step(args) -> int:
    spec = _load(args.file)
    engine = SosEngine(spec.env)
    from .terms import canonical
    history = [canonical(spec.env, spec.root)]
    out = sys.stdout
    while True:
        state = history[-1]
        emitted = sorted(str(n) for n in engine.signals(state))
        derivations = engine.transitions(state)
        out.write(f"\nstate: {term_str(state)}\n")
        out.write(f"signals: {{{', '.join(emitted)}}}\n")
        for i, d in enumerate(derivations):
            parts = ", ".join(sorted("/".join(p) for p in d.participants))
            extra = (f" (reads emission at {'/'.join(d.signal_partner)})"
                     if d.signal_partner else "")
            out.write(f"  [{i}] {action_str(d.label)} -> "
                      f"{term_str(d.target)}  participants: {parts}{extra}\n")
        if not derivations:
            out.write("  (no transitions)\n")
        out.write("> ")
        out.flush()
        line = sys.stdin.readline()
        if not line:
            return EXIT_OK
        cmd = line.strip().lower()
        if cmd in ("quit", "q", "exit"):
            return EXIT_OK
        if cmd == "undo":
            if len(history) > 1:
                history.pop()
            else:
                out.write("nothing to undo\n")
            continue
        if cmd == "signals":
            out.write(f"signals: {{{', '.join(emitted)}}}\n")
            continue
        if cmd.isdigit() and int(cmd) < len(derivations):
            history.append(derivations[int(cmd)].target)
            continue
        out.write("enter a transition index, 'undo', 'signals' or 'quit'\n")


# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ccss",
        description="Process-calculus toolkit with signal emission: "
                    "explore, compare and verify .ccss models.")
    sub = top.add_subparsers(dest="command", required=True)
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--max-states", type=_state_cap,
                        help="cap on explored states (default: "
                             "CCSS_MAX_STATES, else 1000000)")

    p = sub.add_parser("parse", help="validate and pretty-print a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("lts", parents=[capped],
                       help="explore the state space")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("bisim", parents=[capped],
                       help="compare two systems")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("just", parents=[capped],
                       help="justness verdict for a lasso")
    p.add_argument("file")
    p.add_argument("--lasso", required=True,
                   metavar="STEM;CYCLE",
                   help="comma-separated transition indices, e.g. '0,2;5,6'")
    p.set_defaults(func=cmd_just)

    p = sub.add_parser("verify", parents=[capped],
                       help="safety / liveness verdict")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--safety", action="store_true")
    what.add_argument("--liveness", action="store_true")
    p.add_argument("file", nargs="?")
    p.add_argument("--model", choices=sorted(_MAKERS))
    p.add_argument("--flavor", choices=protocols.FLAVORS, default="ccss")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--ticket-bound", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a bundled model as .ccss text")
    p.add_argument("--model", choices=sorted(_MAKERS), required=True)
    p.add_argument("--flavor", choices=protocols.FLAVORS, default="ccss")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--ticket-bound", type=int, default=4)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen, file=None)

    p = sub.add_parser("step", help="interactive stepping")
    p.add_argument("file")
    p.set_defaults(func=cmd_step)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CcssError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except RecursionError:
        return _fail("input nested too deeply to process")
    except UnicodeDecodeError as exc:
        return _fail(f"input is not UTF-8: {exc}")
    except BrokenPipeError:
        # the reader stopped early (`ccss lts FILE | head`); point stdout
        # at the null device so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
