"""Bundled protocol models: structure, role tagging, round trips."""

import pathlib

import pytest

from ccss.lts import explore
from ccss.syntax import parse
from ccss.terms import Nil, Term, subterm_at, validate
from ccss import protocols
from ccss.errors import ComponentTooLarge

from test_lts import benchmark_catalog

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


ALL_MODELS = [
    ("example1", lambda: protocols.example1()),
    ("example2", lambda: protocols.example2()),
    ("peterson2-ccs", lambda: protocols.peterson2("ccs")),
    ("peterson2-ccss", lambda: protocols.peterson2("ccss")),
    ("filter2-ccss", lambda: protocols.filter_lock(2, "ccss")),
    ("filter2-ccs", lambda: protocols.filter_lock(2, "ccs")),
    ("bakery2-ccss", lambda: protocols.bakery(2, 4, "ccss")),
]


@pytest.mark.parametrize("name,maker", ALL_MODELS, ids=[n for n, _ in ALL_MODELS])
def test_model_sources_parse_and_validate(name, maker):
    model = maker()
    spec = parse(model.source)
    assert spec.root == model.root
    report = validate(spec.env, spec.root)
    assert report.ok, str(report)


def test_example_models_have_the_documented_shape():
    for model in (protocols.example1(), protocols.example2()):
        lts = explore(model.env, model.root)
        assert lts.num_states == 2
        labels = sorted(str(t.label) for t in lts.transitions)
        assert labels == ["tau", "tau"]
        loops = [t for t in lts.transitions if t.src == t.tgt]
        assert len(loops) == 1


def test_signal_variable_read_leaves_the_emitter_out():
    model = protocols.example2()
    lts = explore(model.env, model.root)
    (loop,) = [t for t in lts.transitions if t.src == t.tgt]
    # only the reader participates; the variable is the emission source
    assert len(loop.participants) == 1
    assert loop.signal_partner is not None


def test_handshake_variable_read_is_a_two_party_event():
    model = protocols.example1()
    lts = explore(model.env, model.root)
    (loop,) = [t for t in lts.transitions if t.src == t.tgt]
    assert len(loop.participants) == 2
    assert loop.signal_partner is None


def test_peterson_initially_offers_exactly_the_noncritical_actions():
    for flavor in protocols.FLAVORS:
        model = protocols.peterson2(flavor)
        lts = explore(model.env, model.root)
        enabled = {str(lts.transitions[i].label)
                   for i in lts.outgoing(lts.initial)}
        assert enabled == {"noncritA", "noncritB"}


def test_peterson_roles_are_tagged_with_disjoint_phases():
    model = protocols.peterson2("ccss")
    assert [r.name for r in model.roles] == ["A", "B"]
    for role in model.roles:
        assert role.pending_terms
        assert role.critical_terms
        assert not role.critical_terms & role.pending_terms


def test_peterson_flavors_have_identical_state_counts():
    sizes = set()
    for flavor in protocols.FLAVORS:
        model = protocols.peterson2(flavor)
        lts = explore(model.env, model.root)
        sizes.add((lts.num_states, len(lts.transitions)))
    assert len(sizes) == 1


def test_filter_lock_scales_with_the_room_count():
    small = explore(*(lambda m: (m.env, m.root))(protocols.filter_lock(2, "ccss")))
    big = explore(*(lambda m: (m.env, m.root))(protocols.filter_lock(3, "ccss")))
    assert small.num_states < big.num_states
    assert not small.truncated and not big.truncated


def test_filter_lock_rejects_bad_parameters():
    from ccss.errors import ParameterOutOfRange
    with pytest.raises(ParameterOutOfRange):
        protocols.filter_lock(1, "ccss")
    with pytest.raises(ParameterOutOfRange):
        protocols.filter_lock(2, "broken")


def test_bakery_overflow_states_are_recognized():
    model = protocols.bakery(2, ticket_bound=2, flavor="ccss")
    lts = explore(model.env, model.root)
    excluded = [s for s, ok in enumerate(model.in_model(lts.states))
                if not ok]
    assert excluded  # a small ticket bound forces some overflow
    assert len(excluded) < lts.num_states


def test_bundled_model_files_match_their_generators():
    import pathlib
    models = pathlib.Path(__file__).resolve().parents[1] / "models"
    from ccss.syntax import spec_str
    catalog = {
        "example1.ccss": protocols.example1().source,
        "example2.ccss": protocols.example2().source,
        "peterson2-ccs.ccss": protocols.peterson2("ccs").source,
        "peterson2-ccss.ccss": protocols.peterson2("ccss").source,
        "filter2-ccss.ccss": protocols.filter_lock(2, "ccss").source,
        "filter3-ccss.ccss": protocols.filter_lock(3, "ccss").source,
        "bakery2-ccss.ccss": protocols.bakery(2, 4, "ccss").source,
        "dekker-variable.ccss": spec_str(protocols.dekker_variable()),
    }
    for filename, source in catalog.items():
        on_disk = (models / filename).read_text(encoding="utf-8")
        assert on_disk == source, \
            f"{filename} is stale; run scripts/generate_models.py"


def test_variable_flavor_selects_the_justness_mode():
    assert protocols.peterson2("ccss").mode == "ccss"
    assert protocols.peterson2("ccs").mode == "ccs"


def test_role_phase_tracking_follows_transitions():
    model = protocols.peterson2("ccss")
    lts = explore(model.env, model.root)
    role_a = model.roles[0]
    crit_states = [t.tgt for t in lts.transitions if t.label == role_a.crit]
    assert crit_states
    flags = model.flags(lts.states, role_a, role_a.critical_terms)
    assert all(flags[s] for s in crit_states)
    assert not flags[lts.initial]


SPAWNING_ROLE = """\
blocking { noncritA, noncritB }
A = noncritA.(critA.exitA.0 | tau.0)
B = noncritB.critB.exitB.B
system = A | B
"""


def test_role_predicates_agree_with_the_subterm_of_the_whole_state(
        monkeypatch):
    """`flags` and `in_model` read the role's leaf slot, or, once the
    role's component has spawned, the subterm at its address; on every
    state, alone and in the whole state list, both must give what the
    whole state term holds there."""
    models = [protocols.roles_from_file(parse(path.read_bytes()))
              for path in sorted(MODELS.glob("*.ccss"))]
    models += benchmark_catalog(monkeypatch)
    models.append(protocols.roles_from_file(parse(SPAWNING_ROLE)))
    spawned = 0
    for model in models:
        lts = explore(model.env, model.root)
        columns = {r: [] for r in model.roles}
        in_model = []
        for i, state in enumerate(lts.states):
            at = {r: subterm_at(lts.term(i), r.leaf) for r in model.roles}
            in_model.append(not any(at[r] in r.overflow_terms
                                    for r in model.roles))
            assert model.in_model([state])[0] == in_model[-1]
            for r in model.roles:
                for terms in (r.pending_terms, r.critical_terms,
                              r.overflow_terms):
                    assert model.flags([state], r, terms)[0] == (at[r] in
                                                                 terms)
                spawned += r.leaf not in state.shape.slots
                columns[r].append(at[r])
        # the same over the whole state list, whose shapes may differ
        assert list(model.in_model(lts.states)) == in_model
        for r, column in columns.items():
            for terms in (r.pending_terms, r.critical_terms):
                assert list(model.flags(lts.states, r, terms)) == [
                    term in terms for term in column]
    assert spawned


def test_a_component_that_names_no_noncrit_action_is_not_walked(
        monkeypatch):
    """Role tagging skips the three-state counter C, which names no
    `noncrit*` action, so the cap of two local states is never met; a
    relabelling into a `noncrit*` name still gets its component walked."""
    monkeypatch.setattr(protocols, "_AGENT_MAX_STATES", 2)
    model = protocols.roles_from_file(parse(
        "P = noncritP.critP.P\nC = a.b.c.C\nsystem = P | C\n"))
    assert [(r.name, r.leaf) for r in model.roles] == [("P", ("L",))]
    with pytest.raises(ComponentTooLarge):
        protocols.roles_from_file(parse(
            "P = noncritP.critP.P\nC = a.b.c.C\n"
            "system = P | C[noncritC/a, critC/b]\n"))


def test_a_term_constructor_the_noncrit_scan_does_not_know_is_walked():
    """The scan raises on a constructor it does not know, so a later
    constructor cannot hide a role from role tagging."""
    class Unlisted(Term):
        pass

    env = parse("system = 0\n").env
    assert not protocols._may_name_noncrit(env, Nil())
    with pytest.raises(TypeError, match="not a term"):
        protocols._may_name_noncrit(env, Unlisted())
