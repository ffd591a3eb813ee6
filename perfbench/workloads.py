"""The two benchmark workloads and the correctness checks on their answers.

verify: passes over the protocol catalog of `scripts/verify_protocols.py`,
first with signal variables (`ccss` flavor), then with handshake variables
(`ccs` flavor).  Each catalog entry is built with its `ccss.protocols`
generator and checked with `check_safety` then `check_liveness`, exactly
as a `ccss verify` user pays for it.  The catalog has no randomness;
every pass is the same.

queries: filter N=3 and bakery N=2 K=4 in both flavors, and the paper's
two one-variable examples, are explored once during set-up; then a
seeded stream of rounds asks lasso questions (`is_just` then
`is_complete` on random-walk lassos) and bisimulation questions
(`bisimilar` against an isomorphic copy, known equivalent, or a copy
with one transition relabelled to a fresh action, known different).

Every answer is checked outside the timed section against a reference
that does not come from the code under test: a hand-written verdict
table, the brute-force justness oracle in `tests/_oracle.py` and its
clause for finite runs, the rotation invariance of justness, and the
known answer of each generated bisimulation query.

Every call into ccss is timed as one operation and rescaled to the
reference speed of the host probe in `speed.py`.
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from ccss import bisim, justness, lts as lts_mod, protocols, verify
from ccss.bisim import Distinction
from ccss.justness import Lasso
from ccss.lts import Lts, Transition
from ccss.sos import SosEngine
from ccss.terms import HANDSHAKE, Action, Name

import _oracle
from _oracle import UniverseTooLarge, oracle_is_just

import spans as tracing
from speed import Speed

# The oracle enumerates every pair of bound sets at each parallel node,
# 4**k pairs for a universe of k actions.  peterson2 and filter N=2 have
# 12 to 16 actions, and one peterson2 lasso did not finish in 4 minutes,
# so universes past 8 actions fall back to the rotation check.
_oracle.MAX_UNIVERSE = 8

# --------------------------------------------------------------------------
# verdict catalog

# (key, generator, positional arguments before the flavor, flavor)
CATALOG = tuple(
    (key, generator, args, flavor)
    for flavor in ("ccss", "ccs")
    for key, generator, args in (("peterson2", "peterson2", ()),
                                 ("filter2", "filter_lock", (2,)),
                                 ("filter3", "filter_lock", (3,)),
                                 ("bakery2k4", "bakery", (2, 4))))

# Expected verdicts, written by hand from README / PAPER (not computed by
# the code under test): (safety holds, liveness status, overflow states
# excluded).  Only bakery has ticket overflow states to set aside.
EXPECTED = {
    ("peterson2", "ccss"): (True, "holds", False),
    ("filter2", "ccss"): (True, "holds", False),
    # filter N=3 is safe but not live even with signal variables
    ("filter3", "ccss"): (True, "violated", False),
    ("bakery2k4", "ccss"): (True, "holds", True),
    # with handshake variables, readers keep a variable busy, so a waiting
    # process may starve in a just run
    ("peterson2", "ccs"): (True, "violated", False),
    ("filter2", "ccs"): (True, "violated", False),
    ("filter3", "ccs"): (True, "violated", False),
    # the paper's Example 1 argument: the doorway's reader loop on a
    # handshake ticket variable starves the writer, so bakery is not live
    ("bakery2k4", "ccs"): (True, "violated", True),
}

def build(generator, args, flavor):
    return getattr(protocols, generator)(*args, flavor)


@dataclass
class Outcome:
    """What one run measured and checked."""

    speed: Speed = field(default_factory=Speed)
    ops: list = field(default_factory=list)  # (unit, part, group, t0, t1)
    traced_ops: list = field(default_factory=list)
    setup_ops: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # seconds per set-up sample
    passes: list = field(default_factory=list)  # seconds per unit of work
    traced_passes: list = field(default_factory=list)
    parts: dict = field(default_factory=dict)  # part -> [seconds per unit]
    raw_parts: dict = field(default_factory=dict)  # the same, not rescaled
    latencies: dict = field(default_factory=dict)  # kind -> [seconds]
    attempted: int = 0
    unchecked: int = 0  # answered without failing, but not checkable
    failures: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per traced unit
    flavor_layers: dict = field(default_factory=dict)  # flavor -> per unit
    sizes: dict = field(default_factory=dict)  # model -> (states, trans.)
    setup_layers: dict = field(default_factory=dict)

    def fail(self, message):
        """A failed operation: it raised or its answer is wrong."""
        self.failures.append(message)

    def mismatch(self, message):
        """A count or size that did not repeat exactly."""
        self.mismatches.append(message)

    def timed(self, ops, unit, part, group, call, *args):
        """Call `call(*args)`, recording its interval as one operation;
        probe the host's speed first when it is due."""
        self.speed.maybe_probe()
        t0 = perf_counter()
        try:
            result = call(*args)
        except Exception as exc:  # counted as a failed operation
            result = exc
        ops.append((unit, part, group, t0, perf_counter()))
        return result

    def summarise(self):
        """Rescale every operation to the reference speed and sum it per
        unit of work: `parts` per part and per group, `passes` over all."""
        self.speed.probe()  # closes the last interval
        scale = self.speed.normalise
        self.setup = list(_per_unit(self.setup_ops, scale)
                          .get("wall_s", []))
        self.parts = _per_unit(self.ops, scale)
        self.raw_parts = _per_unit(self.ops, lambda t0, t1: t1 - t0)
        self.passes = self.parts.pop("wall_s")
        if self.traced_ops:
            self.traced_passes = _per_unit(self.traced_ops, scale)["wall_s"]


def _per_unit(ops, scale):
    """{name: [seconds per unit]} for `wall_s`, each part, and each
    `group.part`, from (unit, part, group, t0, t1) operations."""
    sums = {}
    for unit, part, group, t0, t1 in ops:
        seconds = scale(t0, t1)
        for name in ("wall_s", part, group and f"{group}.{part}"):
            if name:
                row = sums.setdefault(name, {})
                row[unit] = row.get(unit, 0.0) + seconds
    return {name: list(row.values()) for name, row in sums.items()}


def _timed_units(seconds, run_unit):
    """Run units of work until `seconds` have passed (at least one)."""
    started = perf_counter()
    count = 0
    while count == 0 or perf_counter() - started < seconds:
        gc.collect()
        run_unit(count)
        count += 1


# --------------------------------------------------------------------------
# verify workload

def _verify_pass(out, ops, unit, entries, answers, tracer=None):
    """Build, check safety and check liveness for every catalog entry,
    each timed as one operation; returns the span range of each entry
    when traced."""
    marks = []
    for key, generator, args, flavor in entries:
        lo = tracer.mark() if tracer else 0
        model = out.timed(ops, unit, "build_s", flavor, build, generator,
                          args, flavor)
        safety = out.timed(ops, unit, "safety_s", flavor,
                           verify.check_safety, model)
        liveness = out.timed(ops, unit, "liveness_s", flavor,
                             verify.check_liveness, model)
        answers.append((key, flavor, model, safety, liveness))
        if tracer:
            marks.append((flavor, model.root, lo, tracer.mark()))
    return marks


def check_verdict(key, flavor, model, safety, liveness, expected, out):
    """Compare one entry's two verdicts with the expected table; each
    verdict is one attempted operation."""
    want_safe, want_live, want_excluded = expected[(key, flavor)]
    out.attempted += 2
    label = f"{key}/{flavor}"
    if isinstance(safety, Exception):
        out.fail(f"{label}: check_safety raised {safety!r}")
    elif (safety.holds != want_safe
          or (safety.excluded_states > 0) != want_excluded):
        out.fail(f"{label}: safety holds={safety.holds} excluded="
                 f"{safety.excluded_states}, expected holds={want_safe}, "
                 f"excluded>0={want_excluded}")
    if isinstance(liveness, Exception):
        out.fail(f"{label}: check_liveness raised {liveness!r}")
        return
    problem = None
    if liveness.status != want_live or not liveness.exhaustive:
        problem = (f"status {liveness.status} (exhaustive="
                   f"{liveness.exhaustive}), expected {want_live}")
    elif (liveness.excluded_states > 0) != want_excluded:
        problem = f"excluded {liveness.excluded_states}"
    elif liveness.status == "violated":
        lasso, verdict = liveness.counterexample
        if liveness.role not in {r.name for r in model.roles}:
            problem = f"unknown starving role {liveness.role}"
        elif not verdict.just:
            problem = "counterexample is not just"
    if problem:
        out.fail(f"{label}: liveness {problem}")


def run_verify(seconds, trace, expected=EXPECTED, entries=CATALOG):
    """Passes over the catalog for `seconds`; the smoke test narrows
    `entries` and plants a wrong verdict in `expected`.  Set-up is
    building the catalog's models, so it is timed within every pass."""
    out = Outcome()
    answers = []

    def plain(number):
        _verify_pass(out, out.ops, number, entries, answers)

    _timed_units(seconds / 2 if trace else seconds, plain)
    if trace:
        tracer = tracing.Tracer()
        units = []

        def traced(number):
            lo = tracer.mark()
            marks = _verify_pass(out, out.traced_ops, number, entries,
                                 answers, tracer)
            units.append((lo, tracer.mark(), marks))

        tracer.install()
        try:
            _timed_units(seconds / 2, traced)
        finally:
            tracer.restore()
        own = tracing.self_times(tracer.spans)
        for lo, hi, marks in units:
            out.layers.append(tracing.unit_layers(
                tracer.spans, own, lo, hi,
                [(root, a, b) for _, root, a, b in marks]))
            # each flavor's entries are one contiguous range of spans
            for flavor in dict.fromkeys(f for f, _, _, _ in marks):
                mine = [(root, a, b) for f, root, a, b in marks
                        if f == flavor]
                out.flavor_layers.setdefault(flavor, []).append(
                    tracing.unit_layers(tracer.spans, own, mine[0][1],
                                        mine[-1][2], mine))
            sizes = tracing.model_sizes(
                tracer.spans, lo, hi,
                [(f"{key}/{flavor}", root) for (key, _, _, flavor), (
                    _, root, _, _) in zip(entries, marks)])
            for label, found in sizes.items():
                _record_size(out, label, found)
    out.summarise()
    out.setup = out.parts["build_s"]
    for key, flavor, model, safety, liveness in answers:
        try:
            check_verdict(key, flavor, model, safety, liveness, expected, out)
        except Exception as exc:  # a malformed verdict
            out.fail(f"{key}/{flavor}: verdict failed its check: {exc!r}")
    return out


def _record_size(out, label, found):
    """Every exploration of one model must give the same size."""
    for size in found:
        known = out.sizes.setdefault(label, size)
        if size != known:
            out.mismatch(f"{label}: explored {size} states/transitions, "
                         f"earlier {known}")


# --------------------------------------------------------------------------
# queries workload

# (label, generator, arguments, large).  Large models get bisimulation
# queries and most lassos; their lassos are checked by rotation
# invariance.  The two one-variable examples have action universes small
# enough for the brute-force oracle.
QUERY_MODELS = (
    ("filter3/ccss", "filter_lock", (3, "ccss"), True),
    ("filter3/ccs", "filter_lock", (3, "ccs"), True),
    ("bakery2k4/ccss", "bakery", (2, 4, "ccss"), True),
    ("bakery2k4/ccs", "bakery", (2, 4, "ccs"), True),
    ("example1", "example1", (), False),
    ("example2", "example2", (), False),
)
QUERIES_SETUP_REPEATS = 3  # set-up is reported as the median
LASSOS_LARGE = 20  # per large model and round
LASSOS_SMALL = 5  # per small model and round
FRESH = Action(HANDSHAKE, Name("bench_fresh"))


@dataclass
class Explored:
    label: str
    model: object
    engine: SosEngine
    lts: Lts
    large: bool
    out: list = None  # state -> outgoing transition indices
    components: list = None  # addresses of the parallel components

    def index(self):
        """The benchmark's own adjacency lists, built outside set-up."""
        self.out = [[] for _ in range(self.lts.num_states)]
        for i, t in enumerate(self.lts.transitions):
            self.out[t.src].append(i)
        self.components = sorted({p for t in self.lts.transitions
                                  for p in t.participants})


def _explore(label, generator, args, large):
    model = getattr(protocols, generator)(*args)
    engine = SosEngine(model.env)
    lts = lts_mod.explore(model.env, model.root, engine=engine)
    return Explored(label, model, engine, lts, large)


def explore_models(out, unit):
    """One set-up of the queries workload: build and explore every model
    with one SOS engine per model, each timed as one operation."""
    models = []
    for entry in QUERY_MODELS:
        m = out.timed(out.setup_ops, unit, "setup_s", None, _explore, *entry)
        if isinstance(m, Exception):
            raise m
        models.append(m)
    return models


def random_lasso(rng, lts, out, rests=None):
    """Walk from the initial state until a state repeats (a lasso) or no
    transition is left (a finite path).  With `rests`, the walk takes no
    transition that component takes part in, so it rests throughout and
    the verdicts mix just and unjust runs."""
    state = lts.initial
    seen = {state: 0}
    path = []
    while True:
        choices = [i for i in out[state]
                   if rests not in lts.transitions[i].participants]
        if not choices:
            return Lasso(tuple(path), ())
        i = rng.choice(choices)
        path.append(i)
        state = lts.transitions[i].tgt
        if state in seen:
            k = seen[state]
            return Lasso(tuple(path[:k]), tuple(path[k:]))
        seen[state] = len(path)


def shuffled_copy(rng, lts, mutate):
    """An isomorphic copy with states and transitions permuted; with
    `mutate`, one transition is relabelled to an action used nowhere
    else, which makes the copy not bisimilar to the original."""
    perm = list(range(lts.num_states))
    rng.shuffle(perm)
    states = [None] * lts.num_states
    signals = [None] * lts.num_states
    for old, new in enumerate(perm):
        states[new] = lts.states[old]
        signals[new] = lts.state_signals[old]
    trans = [Transition(perm[t.src], t.label, perm[t.tgt], t.participants,
                        t.signal_partner) for t in lts.transitions]
    rng.shuffle(trans)
    if mutate:
        k = rng.randrange(len(trans))
        t = trans[k]
        trans[k] = Transition(t.src, FRESH, t.tgt, t.participants,
                              t.signal_partner)
    return Lts(states, perm[lts.initial], trans, signals, lts.truncated)


def make_round(seed, number, models):
    """The queries of one round, from the seed and the round number only:
    per large model LASSOS_LARGE lassos, one equivalent and one different
    bisimulation query; per small model LASSOS_SMALL lassos."""
    rng = random.Random(f"{seed}/{number}")
    queries = []
    for m in models:
        for _ in range(LASSOS_LARGE if m.large else LASSOS_SMALL):
            rests = rng.choice(m.components) if rng.random() < 0.5 else None
            queries.append(("lasso", m, random_lasso(rng, m.lts, m.out,
                                                     rests)))
        if m.large:
            for mutate in (False, True):
                queries.append(("bisim", m, (shuffled_copy(rng, m.lts, mutate),
                                             mutate)))
    rng.shuffle(queries)
    return queries


def _ask(kind, m, query):
    if kind == "lasso":
        mode = m.model.mode
        just = justness.is_just(m.lts, m.model.env, query, mode, m.engine)
        complete = justness.is_complete(m.lts, m.model.env, query, mode,
                                        m.engine)
        return just, complete
    copy, _ = query
    return bisim.bisimilar(m.lts, m.lts.initial, copy, copy.initial)


UNCHECKED = "unchecked"  # an answer no reference can judge


def _check_lasso(m, lasso, answer, rng, oracle_cache):
    just, complete = answer
    env, mode = m.model.env, m.model.mode
    if lasso.terminal:
        # the oracle's clause for finite runs: just, and complete, iff the
        # end state admits only blocking actions
        anchor = lasso.anchor(m.lts)
        want = all(env.is_blocking(m.lts.transitions[i].label)
                   for i in m.out[anchor])
        for name, got in (("is_complete", complete), ("is_just", just.just)):
            if got != want:
                return f"{name} {got} on a finite path, expected {want}"
    elif complete != just.just:
        return f"is_complete {complete}, but is_just {just.just} on a cycle"
    try:
        want = oracle_is_just(m.lts, env, lasso, mode, m.engine,
                              cache=oracle_cache)
        if just.just != want:
            return f"is_just {just.just}, oracle says {want}"
        return None
    except UniverseTooLarge:
        pass
    if lasso.terminal:
        return None
    if len(lasso.cycle) == 1:
        return UNCHECKED  # every rotation is the lasso itself
    # rotation invariance: the same infinite path, entered r steps later
    r = rng.randrange(1, len(lasso.cycle))
    turned = Lasso((), lasso.cycle)
    for _ in range(r):
        turned = turned.advance()
    rotated = Lasso(lasso.stem + lasso.cycle[:r], turned.cycle)
    again = justness.is_just(m.lts, env, rotated, mode, m.engine).just
    if again != just.just:
        return f"is_just {just.just}, but {again} after rotating by {r}"
    return None


def _check_bisim(m, query, result):
    copy, mutate = query
    if not mutate:
        return None if result.equivalent else "isomorphic copy not bisimilar"
    if result.equivalent:
        return "copy with a fresh label found bisimilar"
    evidence = result.evidence
    if not isinstance(evidence, Distinction) or not evidence.trace:
        return f"no distinction evidence: {evidence!r}"
    offered = ({t.label for t in m.lts.transitions if t.src == m.lts.initial}
               | {t.label for t in copy.transitions if t.src == copy.initial})
    if evidence.trace[0] not in offered:
        return (f"evidence starts with {evidence.trace[0]}, "
                "not offered at the initial state")
    return None


def run_queries(seed, seconds, trace):
    out = Outcome()
    tracer = tracing.Tracer() if trace else None
    models = None
    for repeat in range(QUERIES_SETUP_REPEATS):
        models = None  # free the previous repeat's models first
        gc.collect()
        last = repeat == QUERIES_SETUP_REPEATS - 1
        if tracer and last:
            tracer.install()
        try:
            models = explore_models(out, repeat)
        finally:
            if tracer and last:
                tracer.restore()
        for m in models:
            _record_size(out, m.label, [(m.lts.num_states,
                                         len(m.lts.transitions))])
    if tracer:
        own = tracing.self_times(tracer.spans)
        out.setup_layers = tracing.unit_layers(tracer.spans, own, 0,
                                               len(tracer.spans))
    for m in models:
        m.index()
    rng = random.Random(f"{seed}/checks")
    oracle_cache = {}

    def check(asked):
        for kind, m, query, answer in asked:
            out.attempted += 1
            try:
                if isinstance(answer, Exception):
                    problem = f"raised {answer!r}"
                elif kind == "lasso":
                    problem = _check_lasso(m, query, answer, rng,
                                           oracle_cache)
                else:
                    problem = _check_bisim(m, query, answer)
            except Exception as exc:  # a malformed answer
                problem = f"answer failed its check: {exc!r}"
            if problem == UNCHECKED:
                out.unchecked += 1
            elif problem:
                out.fail(f"{m.label} {kind}: {problem}")

    def one_round(number, ops):
        asked = []
        for kind, m, query in make_round(seed, number, models):
            answer = out.timed(ops, number, f"{kind}_s", None, _ask, kind, m,
                               query)
            asked.append((kind, m, query, answer))
        return asked

    def plain(number):
        check(one_round(number, out.ops))

    _timed_units(seconds / 2 if trace else seconds, plain)
    if trace:
        tracer = tracing.Tracer()
        units = []
        traced_asked = []

        def traced(number):
            lo = tracer.mark()
            traced_asked.extend(one_round(number, out.traced_ops))
            units.append((lo, tracer.mark()))

        tracer.install()
        try:
            _timed_units(seconds / 2, traced)
        finally:
            tracer.restore()
        own = tracing.self_times(tracer.spans)
        out.layers = [tracing.unit_layers(tracer.spans, own, lo, hi)
                      for lo, hi in units]
        check(traced_asked)
    out.summarise()
    for _, part, _, t0, t1 in out.ops:
        out.latencies.setdefault(part[:-2], []).append(
            out.speed.normalise(t0, t1))
    return out


def tail_percentile(samples):
    """(q, q-th percentile) for the highest q of 99, 95, 90 and 75 with at
    least ten samples beyond it, or None."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None
