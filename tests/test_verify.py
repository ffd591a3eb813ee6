"""Safety/liveness verification and counterexample quality."""

import dataclasses
import json
import pathlib
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ccss.cli import main
from ccss.justness import JustnessVerdict, Lasso, is_complete, is_just
from ccss.lts import Lts, Transition, explore
from ccss.sos import SosEngine
from ccss.terms import TAU, Action
from ccss.verify import _path, _prepare, _sccs, check_liveness, check_safety
from ccss import protocols, verify
from ccss.errors import CcssError
from ccss.syntax import parse

from _oracle import (
    SearchTooLarge, oracle_is_just, oracle_liveness, oracle_sccs,
)
from _randterms import ENV as RAND_ENV, random_role_source, sample_terms


def replay(model, lts, lasso):
    """Re-derive every transition of the lasso from the operational rules."""
    engine = SosEngine(model.env)
    for idx in lasso.stem + lasso.cycle:
        t = lts.transitions[idx]
        source = lts.term(t.src)
        matches = [d for d in engine.transitions(source)
                   if d.label == t.label and d.target == lts.term(t.tgt)]
        assert matches, f"transition {idx} does not replay"


BROKEN = """\
blocking { noncritA, noncritB }
A = noncritA.enterA.critA.exitA.A
B = noncritB.enterB.critB.exitB.B
system = A | B
"""


def broken_model():
    return protocols.roles_from_file(parse(BROKEN))


def test_unguarded_critical_sections_violate_safety():
    model = broken_model()
    verdict = check_safety(model)
    assert not verdict.holds
    assert sorted(verdict.roles) == ["A", "B"]
    lts = explore(model.env, model.root)
    lasso = verdict.witness
    assert lasso.cycle == ()
    replay(model, lts, lasso)
    final = lts.states[lasso.anchor(lts)]
    assert all(model.flags([final], r, r.critical_terms)[0]
               for r in model.roles)


def test_a_component_over_the_role_tagging_cap_is_an_error(
        monkeypatch, tmp_path, capsys):
    """Tagging a truncated component graph would miss both critical
    sections of BROKEN and call its safety held."""
    monkeypatch.setattr(protocols, "_AGENT_MAX_STATES", 2)
    with pytest.raises(CcssError,
                       match="component A at L has more than 2 states"):
        broken_model()
    path = tmp_path / "broken.ccss"
    path.write_text(BROKEN, encoding="utf-8")
    assert main(["verify", "--safety", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(
        "error: ComponentTooLarge: ")


def test_peterson_safety_holds_for_both_flavors():
    for flavor in protocols.FLAVORS:
        verdict = check_safety(protocols.peterson2(flavor))
        assert verdict.holds
        assert verdict.witness is None


def test_peterson_handshake_liveness_counterexample_is_meaningful():
    model = protocols.peterson2("ccs")
    verdict = check_liveness(model)
    assert verdict.status == "violated"
    lasso, justness = verdict.counterexample
    assert justness.just
    lts = explore(model.env, model.root)
    replay(model, lts, lasso)
    # the starved role makes no move anywhere in the cycle
    starved = next(r for r in model.roles if r.name == verdict.role)
    for idx in lasso.cycle:
        for p in lts.transitions[idx].participants:
            assert p[:len(starved.leaf)] != starved.leaf
    # independent re-verification of the emitted lasso
    assert is_just(lts, model.env, lasso).just
    assert is_complete(lts, model.env, lasso)


def test_peterson_signal_liveness_holds_exhaustively():
    verdict = check_liveness(protocols.peterson2("ccss"))
    assert verdict.status == "holds"
    assert verdict.exhaustive


def test_bakery_safety_skips_overflow_states():
    model = protocols.bakery(2, ticket_bound=2, flavor="ccss")
    verdict = check_safety(model)
    assert verdict.holds
    assert verdict.excluded_states > 0


def test_liveness_counterexample_is_a_complete_just_run_starving_its_role():
    model = protocols.peterson2("ccs")
    lts = explore(model.env, model.root)
    verdict = check_liveness(model)
    lasso, _ = verdict.counterexample
    justness = is_just(lts, model.env, lasso)
    assert justness.just
    assert is_complete(lts, model.env, lasso)
    assert justness.minimal_y == frozenset()
    # a role is starved when it has left its noncritical section (in the
    # cycle or at its start) but the cycle never enters its critical one
    anchor = lts.states[lasso.anchor(lts)]
    labels = {lts.transitions[i].label for i in lasso.cycle}
    starved = [r.name for r in model.roles
               if (r.noncrit in labels
                   or model.flags([anchor], r, r.pending_terms)[0])
               and r.crit not in labels]
    assert verdict.role in starved


def test_liveness_verdicts_serialize_to_json():
    verdict = check_liveness(protocols.peterson2("ccs"))
    blob = json.loads(json.dumps(verdict.to_json()))
    assert blob["status"] == "violated"
    assert blob["counterexample"]["justness"]["just"] is True
    safety = json.loads(json.dumps(check_safety(broken_model()).to_json()))
    assert safety["holds"] is False


def test_truncated_exploration_yields_unknown():
    model = protocols.peterson2("ccss")
    verdict = check_liveness(model, max_states=10)
    assert verdict.status == "unknown"


# A spawns two components before its tau cycle: only the leaves of the
# cycle's own states show that the cycle moves S's children and rests A.
SPAWNING = """\
blocking { noncritA, req }
A = noncritA.req.critA.A
S = go.(T | T)
T = tau.T
system = A | S
"""


def test_components_spawned_before_the_cycle_are_resolved_per_scc():
    model = protocols.roles_from_file(parse(SPAWNING))
    assert not model.env.declared_signals
    verdict = check_liveness(model)
    assert verdict.status == "violated"
    assert verdict.role == "A"
    lasso, justness = verdict.counterexample
    assert justness.just and lasso.cycle
    lts = explore(model.env, model.root)
    replay(model, lts, lasso)
    assert is_just(lts, model.env, lasso).just
    assert is_complete(lts, model.env, lasso)


# Both branches spawn leaves at the same addresses with the same resting
# subterms; only the restriction above them differs.  Under \{s} the
# resting P may fire d, so its SCC is unjust; under \{d, s} it is just.
# Sharing one configuration verdict between the two (the og branch's SCC
# is analysed first) loses the cycle and leaves only a terminal witness.
BRANCHES = """\
signals { s }
blocking { noncritA, req }
A = noncritA.req.critA.A
S = og.((T | P) \\ {s}) + go.((T | P) \\ {d, s})
T = s.T
P = (d.0) ^ s
system = A | S
"""


def test_configurations_under_different_parallel_structure_stay_apart():
    model = protocols.roles_from_file(parse(BRANCHES))
    assert model.env.declared_signals
    verdict = check_liveness(model)
    assert verdict.status == "violated"
    lasso, justness = verdict.counterexample
    assert lasso.cycle and justness.just


# Hiding critA masks no edge of A's graph, so its one SCC holds both the
# state before noncritA and the pending state after it.
MIXED = """\
blocking { noncritA }
A = noncritA.critA.A
C = 'critA.C
system = (A | C) \\ {critA}
"""


def test_a_witness_cycle_starts_at_a_pending_state_of_its_scc():
    model = protocols.roles_from_file(parse(MIXED))
    (role,) = model.roles
    verdict = check_liveness(model)
    assert verdict.status == "violated" and verdict.role == "A"
    lasso, justness = verdict.counterexample
    assert justness.just and lasso.cycle
    lts = explore(model.env, model.root)
    replay(model, lts, lasso)
    anchor = lts.states[lasso.anchor(lts)]
    assert model.flags([anchor], role, role.pending_terms)[0]
    assert model.flags([lts.states[lts.initial]], role,
                       role.pending_terms)[0] == 0


def assert_liveness_matches_the_oracle(model):
    """`check_liveness` starves the first role that the brute-force
    search starves, or none; its witness is a cycle when that role has a
    just one, replays, and the oracle finds it just and `is_complete`
    complete.  The oracle's outcome: "holds", "cycle" or "dead end"."""
    per_role = oracle_liveness(model)
    starved = [(name, "cycle" if cycles else "dead end")
               for name, cycles, dead_ends in per_role
               if cycles or dead_ends]
    verdict = check_liveness(model)
    if not starved:
        assert (verdict.status, verdict.role) == ("holds", None)
        return "holds"
    (role, kind), *_ = starved
    assert (verdict.status, verdict.role) == ("violated", role)
    lasso, justness = verdict.counterexample
    assert bool(lasso.cycle) == (kind == "cycle")  # cycles come first
    lts = explore(model.env, model.root)
    replay(model, lts, lasso)
    assert justness.just
    assert oracle_is_just(lts, model.env, lasso)
    assert is_complete(lts, model.env, lasso)
    return kind


# Once A waits, each of B's and C's loops alone leaves the other copy
# resting with its action enabled; only a walk taking both is just.
TWO_LOOPS = """\
blocking { noncritA, req }
A = noncritA.req.critA.A
B = b.B
C = c.C
system = A | B | C
"""


@pytest.mark.parametrize("source", [
    BROKEN, SPAWNING, BRANCHES, MIXED, TWO_LOOPS,
    protocols.example1().source, protocols.example2().source,
], ids=["broken", "spawning", "branches", "mixed", "two-loops", "example1",
        "example2"])
def test_liveness_matches_the_brute_force_search(source):
    model = protocols.roles_from_file(parse(source))
    assert assert_liveness_matches_the_oracle(model) in ("holds", "cycle")


# B's noncritA loop is not an edge of role A: A never leaves its
# noncritical section while B loops, and once A has, its critA is
# enabled on every loop of B.
FOREIGN_NONCRIT = """\
blocking { noncritA }
A = noncritA.critA.A
B = tau.B + noncritA.B
system = A | B
"""


def test_a_noncrit_edge_of_another_component_is_not_the_roles():
    model = protocols.roles_from_file(parse(FOREIGN_NONCRIT))
    assert oracle_liveness(model) == [("A", 0, 0)]
    assert assert_liveness_matches_the_oracle(model) == "holds"
    lts = explore(model.env, model.root)
    (role,) = model.roles
    assert [t.label for t in lts.transitions if t.src == t.tgt].count(
        role.noncrit) == 2  # B's loop, before and after A's noncritA


# B's critA loop is not A's crit edge: once A has taken noncritA it
# waits at the restricted w forever while B repeats critA.
FOREIGN_CRIT = """\
blocking { noncritA }
A = noncritA.w.critA.A
B = critA.B
system = (A | B) \\ {w}
"""


def test_a_crit_edge_of_another_component_is_not_the_roles(tmp_path,
                                                              capsys):
    model = protocols.roles_from_file(parse(FOREIGN_CRIT))
    assert oracle_liveness(model) == [("A", 1, 0)]
    assert assert_liveness_matches_the_oracle(model) == "cycle"
    lasso, _ = check_liveness(model).counterexample
    lts = explore(model.env, model.root)
    (step,) = lasso.cycle
    assert lts.transitions[step].label == model.roles[0].crit
    path = tmp_path / "foreign-crit.ccss"
    path.write_text(FOREIGN_CRIT)
    assert main(["verify", "--liveness", str(path)]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert (blob["status"], blob["role"]) == ("violated", "A")


# The SCC of D's tau loop is pending and just, but it is reached only
# through the excluded states overflow.C and C, so it gives no witness.
BEHIND_EXCLUDED = """\
blocking { noncritA, critA, overflow }
A = noncritA.overflow.C
C = tau.D
D = tau.D + critA.A
system = A
"""


def test_an_scc_reached_only_through_excluded_states_is_skipped():
    model = protocols.roles_from_file(parse(BEHIND_EXCLUDED))
    assert oracle_liveness(model) == [("A", 0, 0)]
    assert assert_liveness_matches_the_oracle(model) == "holds"
    verdict = check_liveness(model)
    assert verdict.excluded_states == 2
    ws = _prepare(model, 1_000_000)
    (loop,) = [i for i, t in enumerate(ws.lts.transitions)
               if t.src == t.tgt]
    assert ws.stem({ws.lts.transitions[loop].src}) is None


def test_liveness_matches_the_brute_force_search_on_random_systems():
    outcomes = []
    for seed in range(200):
        model = protocols.roles_from_file(parse(random_role_source(
            random.Random(seed))))
        try:
            outcomes.append(assert_liveness_matches_the_oracle(model))
        except SearchTooLarge:
            continue  # more than the oracle's edge budget
    assert len(outcomes) >= 50
    assert {"holds", "cycle", "dead end"} <= set(outcomes)


def test_unconfirmed_witness_gives_unknown_not_holds(monkeypatch, capsys):
    monkeypatch.setattr(verify, "is_just",
                        lambda *args, **kwargs: JustnessVerdict(False))
    verdict = check_liveness(protocols.peterson2("ccs"))
    assert verdict.status == "unknown"
    assert verdict.exhaustive
    code = main(["verify", "--liveness", "--model", "peterson2",
                 "--flavor", "ccs"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "unknown"


def bfs_distances(lts, source, mask):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        s = queue.popleft()
        for i in lts.outgoing(s):
            tgt = lts.transitions[i].tgt
            if mask[i] and tgt not in dist:
                dist[tgt] = dist[s] + 1
                queue.append(tgt)
    return dist


def test_path_is_a_shortest_allowed_path_to_a_goal():
    rng = random.Random(7)
    found = missing = 0
    for term in sample_terms(200):
        lts = explore(RAND_ENV, term, max_states=2000)
        for _ in range(10):
            banned = {i for i in range(len(lts.transitions))
                      if rng.random() < 0.2}
            mask = bytearray(i not in banned
                             for i in range(len(lts.transitions)))
            source = rng.randrange(lts.num_states)
            goals = set(rng.sample(range(lts.num_states),
                                   min(2, lts.num_states)))
            path = _path(lts, source, goals, mask)
            dist = bfs_distances(lts, source, mask)
            reachable = [dist[g] for g in goals if g in dist]
            if not reachable:
                assert path is None
                missing += 1
                continue
            found += 1
            assert len(path) == min(reachable)
            at = source
            for i in path:
                t = lts.transitions[i]
                assert t.src == at and mask[i]
                at = t.tgt
            assert at in goals
    assert found and missing  # both outcomes are exercised


def test_every_traced_function_exists_on_each_owner(monkeypatch):
    """The benchmark's tracer replaces each traced function on every module
    that holds it; a name one of them no longer holds would fail the
    benchmark, so it fails here first."""
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import spans
    for name, owners, _ in spans._targets():
        first_owner, first_attr = owners[0]
        original = vars(first_owner).get(first_attr)
        assert callable(original), f"{name}: no {first_attr}"
        for owner, attr in owners:
            assert vars(owner).get(attr) is original, (
                f"{name}: {owner.__name__}.{attr} is not "
                f"{first_owner.__name__}.{first_attr}")


def oracle_components(lts, mask, roots):
    return oracle_sccs(lambda s: [lts.transitions[i].tgt
                                  for i in lts.outgoing(s) if mask[i]],
                       roots)


@st.composite
def masked_digraphs(draw):
    """A digraph as an Lts (self-loops and parallel edges included), an
    edge mask, and a shuffled subset of its states as roots, so that some
    states are reachable from none."""
    n = draw(st.integers(1, 14))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, state), max_size=45))
    loops = draw(st.lists(state, max_size=4))
    edges += [(s, s) for s in loops]
    mask = bytearray(draw(st.lists(st.booleans(), min_size=len(edges),
                                   max_size=len(edges))))
    roots = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    lts = Lts([None] * n, 0, [Transition(a, TAU, b) for a, b in edges],
              [frozenset()] * n)
    return lts, mask, roots


@settings(max_examples=300, deadline=None)
@given(masked_digraphs())
def test_sccs_match_the_dict_based_tarjan_on_random_digraphs(graph):
    lts, mask, roots = graph
    assert list(_sccs(lts, mask, roots)) == oracle_components(lts, mask,
                                                              roots)


def test_sccs_match_the_dict_based_tarjan_on_every_catalog_role_graph():
    """The benchmark's verify catalog, every role in both flavors."""
    for model in [make(flavor) for flavor in protocols.FLAVORS
                  for make in (protocols.peterson2,
                               lambda f: protocols.filter_lock(2, f),
                               lambda f: protocols.filter_lock(3, f),
                               lambda f: protocols.bakery(2, 4, f))]:
        ws = _prepare(model, 1_000_000)
        for role in model.roles:
            mask = bytearray(ws.ok_edges[i] and t.label != role.crit
                             for i, t in enumerate(ws.lts.transitions))
            comps = list(_sccs(ws.lts, mask, ws.ok_states))
            assert comps == oracle_components(ws.lts, mask, ws.ok_states)
            assert any(len(c) > 1 for c in comps)


def test_verdicts_do_not_depend_on_label_identity(monkeypatch):
    """Labels equal but not identical to one another get one label id."""
    def copied(env, root, **kwargs):
        lts = explore(env, root, **kwargs)
        lts.transitions = [
            dataclasses.replace(t, label=Action(t.label.kind, t.label.name))
            for t in lts.transitions]
        return lts

    models = [protocols.peterson2("ccs"), protocols.peterson2("ccss"),
              protocols.filter_lock(2, "ccs"),
              protocols.bakery(2, 2, "ccss"), broken_model()]
    want = [(check_safety(m).to_json(), check_liveness(m).to_json())
            for m in models]
    monkeypatch.setattr(verify, "explore", copied)
    got = [(check_safety(m).to_json(), check_liveness(m).to_json())
           for m in models]
    assert got == want


def test_verdicts_build_only_the_columns_they_read(monkeypatch):
    """Safety that finds no bad state builds no column; liveness builds
    the adjacency and the source, target and label columns, and
    confirming a witness cycle builds no further one."""
    explored = []

    def keep(env, root, **kwargs):
        explored.append(explore(env, root, **kwargs))
        return explored[-1]

    def built():
        fields = {f.name for f in dataclasses.fields(Lts)}
        return vars(explored.pop()).keys() - fields

    monkeypatch.setattr(verify, "explore", keep)
    assert check_safety(protocols.peterson2("ccs")).holds
    assert built() == set()
    assert check_liveness(protocols.peterson2("ccss")).holds
    columns = {"_out", "sources", "targets", "label_ids"}
    assert built() == columns
    assert check_liveness(protocols.peterson2("ccs")).status == "violated"
    assert built() == columns
