"""Span tracing around the public functions of each ccss layer.

Tracing works from outside the library: `Tracer.install` replaces each
traced function on every module that holds a reference to it (including
names another module imported with `from ... import`), and `restore`
puts the originals back.  Each call records a span (name, start, end,
parent, extra) in memory; a layer's self time is its span minus the
spans of its direct children.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

from ccss import bisim, justness, lts, protocols, syntax, verify
from ccss.sos import SosEngine

GENERATORS = ("example1", "example2", "peterson2", "filter_lock", "bakery")


def _explore_extra(args, kwargs, result):
    root = args[1] if len(args) > 1 else kwargs["root"]
    return (root, result.num_states, len(result.transitions))


def _union_extra(args, kwargs, result):
    return args[0].num_states + args[2].num_states


def _targets():
    """(span name, [(owner, attribute)], extra) for every traced function.
    Every owner listed for one span name holds the same function."""
    return [
        ("syntax.parse", [(syntax, "parse"), (protocols, "parse")], None),
        *(("protocols.build", [(protocols, g)], None) for g in GENERATORS),
        ("lts.explore", [(lts, "explore"), (verify, "explore"),
                         (protocols, "explore")], _explore_extra),
        ("sos.transitions", [(SosEngine, "transitions")],
         lambda args, kwargs, result: len(result)),
        ("sos.signals", [(SosEngine, "signals")], None),
        ("verify.check_safety", [(verify, "check_safety")], None),
        ("verify.check_liveness", [(verify, "check_liveness")], None),
        ("justness.is_just", [(justness, "is_just"), (verify, "is_just")],
         None),
        ("justness.analyze_configuration",
         [(justness, "analyze_configuration"),
          (verify, "analyze_configuration")], None),
        ("justness.is_complete", [(justness, "is_complete"),
                                  (verify, "is_complete")], None),
        ("bisim.bisimilar", [(bisim, "bisimilar")], _union_extra),
    ]


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, extra)
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, None)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[idx] = (name, start, end, parent,
                          extra(args, kwargs, result) if extra else None)
            return result
        return traced

    def install(self):
        for name, owners, extra in _targets():
            original = owners[0][0].__dict__[owners[0][1]]
            wrapped = self._wrap(name, original, extra)
            for owner, attr in owners:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                       f"function traced as {name}")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, to slice the spans of one unit of work."""
        return len(self.spans)


# --------------------------------------------------------------------------
# per-layer figures

VERDICTS = ("verify.check_safety", "verify.check_liveness")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def unit_layers(spans, own, lo, hi, entries=()):
    """Per-layer counts and self times of the spans in [lo, hi); `own`
    holds the self time of every span.  `entries` holds (model root, lo,
    hi) span ranges, one per catalog entry, for the re-exploration ratio."""
    verdict_of = {}
    t = {}
    n = {}
    explore_total = states = transitions = derivations = union = 0
    share_num = share_den = 0.0
    for i in range(lo, hi):
        name, start, end, parent, extra = spans[i]
        t[name] = t.get(name, 0.0) + own[i]
        n[name] = n.get(name, 0) + 1
        top = verdict_of.get(parent, -1)
        if name in VERDICTS and top < 0:
            top = i
            share_den += end - start
        verdict_of[i] = top
        if top >= 0 and (name.startswith("lts.") or name.startswith("sos.")):
            share_num += own[i]
        if name == "lts.explore":
            explore_total += end - start
            if extra:
                states += extra[1]
                transitions += extra[2]
        elif name == "sos.transitions" and extra is not None:
            derivations += extra
        elif name == "bisim.bisimilar" and extra is not None:
            union += extra
    explored = modelled = 0
    for root, a, b in entries:
        found = [spans[i][4] for i in range(a, b)
                 if spans[i][0] == "lts.explore" and spans[i][4]]
        explored += sum(size for _, size, _ in found)
        modelled += next((size for r, size, _ in found if r == root), 0)
    bisim_s = t.get("bisim.bisimilar", 0.0)
    return {
        "syntax.parse_s": t.get("syntax.parse", 0.0),
        "syntax.parse_calls": n.get("syntax.parse", 0),
        "protocols.build_s": t.get("protocols.build", 0.0),
        "protocols.build_calls": n.get("protocols.build", 0),
        "lts.explore_s": t.get("lts.explore", 0.0),
        "lts.explore_calls": n.get("lts.explore", 0),
        "lts.states": states,
        "lts.transitions": transitions,
        "lts.states_per_s": states / explore_total if explore_total else 0.0,
        "lts.reexplore_ratio": explored / modelled if modelled else 0.0,
        "sos.transitions_s": t.get("sos.transitions", 0.0),
        "sos.transitions_calls": n.get("sos.transitions", 0),
        "sos.signals_s": t.get("sos.signals", 0.0),
        "sos.signals_calls": n.get("sos.signals", 0),
        "sos.derivations": derivations,
        "verify.safety_self_s": t.get("verify.check_safety", 0.0),
        "verify.liveness_self_s": t.get("verify.check_liveness", 0.0),
        "verify.explore_share": share_num / share_den if share_den else 0.0,
        "justness.is_just_s": t.get("justness.is_just", 0.0),
        "justness.is_just_calls": n.get("justness.is_just", 0),
        "justness.analyze_configuration_s":
            t.get("justness.analyze_configuration", 0.0),
        "justness.analyze_configuration_calls":
            n.get("justness.analyze_configuration", 0),
        "justness.is_complete_s": t.get("justness.is_complete", 0.0),
        "bisim.bisimilar_s": bisim_s,
        "bisim.bisimilar_calls": n.get("bisim.bisimilar", 0),
        "bisim.union_states": union,
        "bisim.states_per_s": union / bisim_s if bisim_s else 0.0,
    }


def median_layers(units):
    """Median of every per-layer figure over the traced units of work;
    counts stay whole numbers."""
    return {key: (statistics.median_low if isinstance(units[0][key], int)
                  else statistics.median)([u[key] for u in units])
            for key in units[0]}


def model_sizes(spans, lo, hi, roots):
    """(states, transitions) of every exploration of each given model
    root among the spans in [lo, hi): {label: [(states, transitions)]}."""
    out = {}
    for i in range(lo, hi):
        name, _, _, _, extra = spans[i]
        if name == "lts.explore" and extra:
            for label, root in roots:
                if extra[0] == root:
                    out.setdefault(label, []).append(extra[1:])
    return out
