"""Belief progression, executability, window retraction, defined-fluent
closure, and consistency-restoring initial completion.

The completion tests include a brute-force oracle: every subset of ground
default instances is enumerated and the minimal consistent retraction is
computed independently, then compared with the engine's answer.  The
delta-driven ``progress`` and ``close_defined`` are checked against the
from-scratch versions in ``reference_beliefs.py`` on random closed,
consistent beliefs, and every compiled join against the interpreted
``match_atom``/``solve`` kept there.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from reference_beliefs import (
    match_atom,
    reference_close_defined,
    reference_progress,
    solve,
)

from fortdefense.env import GridConfig, reset
from fortdefense.kr.beliefs import (
    Belief,
    HardInconsistencyError,
    InconsistencyError,
    check_executable,
    close_defined,
    complete_initial,
    observe_world,
    progress,
    validate,
)
from fortdefense.kr.ground import (
    GroundedDomain,
    GroundingError,
    Static,
    compile_join,
    ground,
)
from fortdefense.kr.lang import Atom, Literal, Variable, parse_domain, parse_literal


def shipped_domain():
    from importlib import resources

    return parse_domain(
        resources.files("fortdefense").joinpath("data/fort_attack.dom").read_text()
    )


def fort_gdom(config=None) -> GroundedDomain:
    return ground(shipped_domain(), config or GridConfig())


def guard_belief(gdom, entries) -> Belief:
    """entries: list of (symbol, x, y, facing, alive)."""
    atoms = []
    for sym, x, y, d, alive in entries:
        atoms.append(Atom("in", (sym, x, y)))
        atoms.append(Atom("face", (sym, d)))
        if not alive:
            atoms.append(Atom("shot", (sym,)))
    return Belief(close_defined(atoms, gdom))


# ---------------------------------------------------------------------------
# progression
# ---------------------------------------------------------------------------


def test_move_updates_position_and_retracts_the_old_cell():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 3, 13, "e", True), ("attacker1", 10, 14, "n", True)],
    )
    b2 = progress(b, (Atom("move", ("guard0", 3, 14)),), gdom)
    assert Atom("in", ("guard0", 3, 14)) in b2.atoms
    assert Atom("in", ("guard0", 3, 13)) not in b2.atoms
    # facing and the other agent are untouched by inertia
    assert Atom("face", ("guard0", "e")) in b2.atoms
    assert Atom("in", ("attacker1", 10, 14)) in b2.atoms
    # defined region membership tracks the new cell
    assert Atom("agent_in", ("guard0", "r15")) in b2.atoms
    assert Atom("agent_in", ("guard0", "r15")) != Atom("agent_in", ("guard0", "r0"))
    validate(b2, gdom)


def test_rotate_replaces_facing():
    gdom = fort_gdom()
    b = guard_belief(gdom, [("guard0", 5, 5, "n", True)])
    b2 = progress(b, (Atom("rotate", ("guard0", "e")),), gdom)
    assert Atom("face", ("guard0", "e")) in b2.atoms
    assert Atom("face", ("guard0", "n")) not in b2.atoms
    assert Atom("agent_face", ("guard0", "e")) in b2.atoms


def test_shoot_marks_target_and_corpse_keeps_blocking():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 5, 9, "s", True)],
    )
    b2 = progress(b, (Atom("shoot", ("guard0", "attacker1")),), gdom)
    assert Atom("shot", ("attacker1",)) in b2.atoms
    assert Atom("agent_shot", ("attacker1",)) in b2.atoms
    # the corpse still occupies its cell
    assert Atom("in", ("attacker1", 5, 9)) in b2.atoms
    # moving onto the corpse is now impossible
    ok, blocker = check_executable(
        Belief(close_defined([*b2.atoms, Atom("in", ("guard1", 5, 8))], gdom)),
        Atom("move", ("guard1", 5, 9)),
        gdom,
    )
    assert not ok and blocker[0].axiom_id == "exec:2"


def test_empty_action_set_is_the_inertial_fixpoint():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "n", False)],
    )
    assert progress(b, (), gdom) == b
    assert progress(b, (Atom("noop", ("guard0",)),), gdom) == b


def test_simultaneous_own_and_exogenous_actions():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "w", True)],
    )
    b2 = progress(
        b,
        (
            Atom("move", ("guard0", 3, 14)),
            Atom("agent_move", ("attacker1", 9, 14)),
        ),
        gdom,
    )
    assert Atom("in", ("guard0", 3, 14)) in b2.atoms
    assert Atom("in", ("attacker1", 9, 14)) in b2.atoms
    assert Atom("in", ("guard0", 2, 14)) not in b2.atoms
    assert Atom("in", ("attacker1", 10, 14)) not in b2.atoms


def test_exogenous_shot_needs_line_of_sight_condition():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 5, 9, "s", True)],
    )
    # attacker fires facing south at the guard 4 cells below: in sight
    b2 = progress(b, (Atom("agent_shoot", ("attacker1", "guard0")),), gdom)
    assert Atom("shot", ("guard0",)) in b2.atoms
    # same shot attempted while facing away has no effect (conditional law)
    b_away = guard_belief(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 5, 9, "n", True)],
    )
    b3 = progress(b_away, (Atom("agent_shoot", ("attacker1", "guard0")),), gdom)
    assert Atom("shot", ("guard0",)) not in b3.atoms


# ---------------------------------------------------------------------------
# executability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "action, axiom",
    [
        (Atom("move", ("guard0", 7, 7)), "exec:1"),  # not adjacent
        (Atom("move", ("guard0", 5, 6)), "exec:2"),  # occupied by attacker1
        (Atom("rotate", ("guard0", "n")), "exec:4"),  # already facing n
        (Atom("rotate", ("guard0", "s")), "exec:5"),  # opposite of n
        (Atom("shoot", ("guard0", "attacker2")), "exec:7"),  # target down
        (Atom("shoot", ("guard0", "attacker3")), "exec:9"),  # out of range
    ],
)
def test_blocked_actions_cite_their_rule(action, axiom):
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [
            ("guard0", 5, 5, "n", True),
            ("attacker1", 5, 6, "s", True),
            ("attacker2", 6, 6, "s", False),
            ("attacker3", 18, 18, "s", True),
        ],
    )
    ok, blocker = check_executable(b, action, gdom)
    assert not ok
    assert blocker[0].axiom_id == axiom
    assert progress(b, (action,), gdom) == b  # a blocked action does not occur


def test_dead_agents_cannot_act():
    gdom = fort_gdom()
    b = guard_belief(gdom, [("guard0", 5, 5, "n", False)])
    for action in (
        Atom("move", ("guard0", 5, 6)),
        Atom("rotate", ("guard0", "e")),
    ):
        ok, blocker = check_executable(b, action, gdom)
        assert not ok
        assert blocker[0].axiom_id in ("exec:3", "exec:6")


def test_blocked_exogenous_actions_can_be_dropped():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 5, 6, "s", True)],
    )
    # predicted attacker move onto the guard's cell is illegal: dropped
    b2 = progress(b, (Atom("agent_move", ("attacker1", 5, 5)),), gdom)
    assert Atom("in", ("attacker1", 5, 6)) in b2.atoms
    assert b2 == b


# ---------------------------------------------------------------------------
# effect conflicts and window interactions
# ---------------------------------------------------------------------------

CONFLICT = """
sort s.
fluent inertial f(s).
fluent inertial g(s).
action a(s).
action b(s).
a(X) causes f(X).
b(X) causes g(X).
-f(X) if g(X).
"""


def test_window_retracting_a_direct_effect_is_an_inconsistency():
    desc = parse_domain(CONFLICT)
    gdom = ground(desc, sorts={"s": ("o",)})
    b = Belief(close_defined([], gdom))
    with pytest.raises(InconsistencyError) as err:
        progress(b, (Atom("a", ("o",)), Atom("b", ("o",))), gdom)
    assert err.value.axiom_id == "constraint:1"


def test_window_silently_retracts_inherited_atoms():
    desc = parse_domain(CONFLICT)
    gdom = ground(desc, sorts={"s": ("o",)})
    b = Belief([Atom("f", ("o",))])
    b2 = progress(b, (Atom("b", ("o",)),), gdom)
    assert Atom("g", ("o",)) in b2.atoms
    assert Atom("f", ("o",)) not in b2.atoms  # inertia yields to the window


def test_direct_effect_conflict_raises():
    desc = parse_domain(
        "sort s. fluent inertial f(s). action a(s). action b(s). "
        "a(X) causes f(X). b(X) causes -f(X)."
    )
    gdom = ground(desc, sorts={"s": ("o",)})
    b = Belief([])
    with pytest.raises(InconsistencyError):
        progress(b, (Atom("a", ("o",)), Atom("b", ("o",))), gdom)


def test_positive_window_derives_support():
    desc = parse_domain(
        "sort s. fluent inertial f(s). fluent inertial g(s). action a(s). "
        "a(X) causes f(X). g(X) if f(X)."
    )
    gdom = ground(desc, sorts={"s": ("o",)})
    b2 = progress(Belief([]), (Atom("a", ("o",)),), gdom)
    assert Atom("g", ("o",)) in b2.atoms


def test_progress_is_deterministic_under_input_order():
    gdom = fort_gdom()
    entries = [
        ("guard0", 2, 14, "e", True),
        ("guard1", 9, 18, "s", True),
        ("attacker1", 10, 14, "w", True),
        ("attacker2", 4, 2, "n", True),
    ]
    acts = (
        Atom("move", ("guard0", 3, 14)),
        Atom("agent_move", ("attacker1", 9, 14)),
        Atom("agent_rotate", ("attacker2", "e")),
    )
    results = set()
    for perm in itertools.permutations(entries):
        b = guard_belief(gdom, list(perm))
        for act_perm in itertools.permutations(acts):
            results.add(progress(b, act_perm, gdom))
    assert len(results) == 1


# ---------------------------------------------------------------------------
# observation bridge
# ---------------------------------------------------------------------------


def observed_belief(state, gdom) -> Belief:
    """The closed belief holding exactly what is observed of ``state``."""
    positives = [lit.atom for lit in observe_world(state, gdom) if lit.positive]
    return Belief(close_defined(positives, gdom))


def test_observe_world_covers_every_agent():
    config = GridConfig()
    gdom = fort_gdom(config)
    state = reset(config, seed=7)
    obs = observe_world(state, gdom)
    n_agents = config.n_guards + config.n_attackers
    assert len(obs) == 3 * n_agents
    assert sum(1 for lit in obs if not lit.positive) == n_agents  # -shot(...)
    b = observed_belief(state, gdom)
    validate(b, gdom)
    for agent in state.agents:
        assert Atom("in", (f"guard{agent.id}" if agent.id < config.n_guards else
                           f"attacker{agent.id - config.n_guards + 1}",
                           agent.x, agent.y)) in b.atoms


def test_an_observed_belief_marks_dead_agents():
    config = GridConfig()
    gdom = fort_gdom(config)
    state = reset(config, seed=7)
    stale = state.copy()
    stale.agents[4].alive = False
    b = observed_belief(stale, gdom)
    assert Atom("shot", ("attacker2",)) in b.atoms
    assert Atom("agent_shot", ("attacker2",)) in b.atoms
    # corpse pose still recorded
    assert Atom("in", ("attacker2", stale.agents[4].x, stale.agents[4].y)) in b.atoms


# ---------------------------------------------------------------------------
# initial completion with consistency-restoring defaults
# ---------------------------------------------------------------------------


def test_completion_applies_all_defaults_when_consistent():
    config = GridConfig()
    gdom = fort_gdom(config)
    state = reset(config, seed=3)
    obs = observe_world(state, gdom)
    result = complete_initial(obs, gdom)
    assert result.retracted == ()
    applied = {inst.conclusion for inst in result.applied}
    assert applied == {
        Atom("spread_attack", ("attacker1",)),
        Atom("spread_attack", ("attacker2",)),
        Atom("spread_attack", ("attacker3",)),
    }
    for atom in applied:
        assert atom in result.belief.atoms


def test_completion_respects_negative_observations():
    config = GridConfig()
    gdom = fort_gdom(config)
    state = reset(config, seed=3)
    obs = observe_world(state, gdom)
    obs.append(Literal(Atom("spread_attack", ("attacker2",)), False))
    result = complete_initial(obs, gdom)
    retracted = {inst.conclusion for inst in result.retracted}
    assert retracted == {Atom("spread_attack", ("attacker2",))}
    assert Atom("spread_attack", ("attacker2",)) not in result.belief.atoms
    assert Atom("spread_attack", ("attacker1",)) in result.belief.atoms


PAIRED = """
sort item.
fluent inertial on(item).
fluent inertial bad(item).
initial default on(I) if item(I).
-on(i1) if on(i2).
-on(i3) if on(i4), on(i5).
"""


def brute_force_completion(observed_neg, forbidden):
    """Minimal retraction by exhaustive subset search over six instances.

    ``forbidden`` is a list of (victim, support_set): victim must be off
    whenever all supports are on.  Returns the lexicographically first
    minimal drop set as a tuple of item names.
    """
    items = [f"i{k}" for k in range(1, 7)]
    n = len(items)
    for size in range(n + 1):
        for drop in itertools.combinations(range(n), size):
            kept = {items[i] for i in range(n) if i not in drop}
            kept -= set()
            if kept & observed_neg:
                continue
            ok = all(
                not (set(support) <= kept and victim in kept)
                for victim, support in forbidden
            )
            if ok:
                return tuple(items[i] for i in drop)
    return None


def test_completion_matches_brute_force_on_the_paired_fixture():
    desc = parse_domain(PAIRED)
    gdom = ground(desc, sorts={"item": tuple(f"i{k}" for k in range(1, 7))})
    forbidden = [("i1", {"i2"}), ("i3", {"i4", "i5"})]
    for neg in [set(), {"i2"}, {"i4"}, {"i1", "i3"}, {"i6"}]:
        obs = [Literal(Atom("on", (i,)), False) for i in sorted(neg)]
        result = complete_initial(obs, gdom)
        dropped = tuple(inst.conclusion.args[0] for inst in result.retracted)
        # defaults whose conclusion is directly denied are retracted too
        oracle = brute_force_completion(neg, forbidden)
        assert dropped == oracle, (neg, dropped, oracle)
        validate(result.belief, gdom)


def test_completion_minimality_prefers_fewest_retractions():
    desc = parse_domain(PAIRED)
    gdom = ground(desc, sorts={"item": tuple(f"i{k}" for k in range(1, 7))})
    result = complete_initial([], gdom)
    # dropping i1 alone satisfies both windows (i3 stays: needs i4 AND i5...
    # which both hold, so the second window needs a drop among {i3,i4,i5})
    assert len(result.retracted) == 2
    dropped = {inst.conclusion.args[0] for inst in result.retracted}
    assert dropped == {"i1", "i3"}  # lexicographically least minimal pair


def test_hard_inconsistency_when_observations_conflict():
    desc = parse_domain(
        "sort item. fluent inertial on(item). -on(i1) if on(i2)."
    )
    gdom = ground(desc, sorts={"item": ("i1", "i2")})
    obs = [
        Literal(Atom("on", ("i1",)), True),
        Literal(Atom("on", ("i2",)), True),
    ]
    with pytest.raises(HardInconsistencyError):
        complete_initial(obs, gdom)


# ---------------------------------------------------------------------------
# delta-driven progression equals the from-scratch reference
# ---------------------------------------------------------------------------


def _outcome(fn, belief, actions, gdom, checked):
    """(atoms or exception type, provenance list, resulting belief or
    None) of one progression."""
    trace: list = []
    try:
        result = fn(belief, actions, gdom, checked=checked, trace=trace)
    except InconsistencyError as err:
        return type(err), trace, None
    return result.atoms, trace, result


def assert_progress_matches_reference(belief, steps, gdom, keeps_consistency=True):
    """Progress ``belief`` through each (actions, checked) step with both
    versions; atoms, exception types and provenance lists (order included)
    must agree; neither records an inherited atom.  Both continue from the
    optimised result, so later steps also cover a parent whose inertial
    atoms ``progress`` cached; equal beliefs built apart may iterate their
    atoms in different orders, which retractions can follow, so both get
    one object.  Without ``keeps_consistency`` (a domain whose progression
    may break a constraint), the run stops at the first inconsistent
    result, which is outside ``progress``'s precondition."""
    for actions, checked in steps:
        fast_atoms, fast_trace, fast = _outcome(progress, belief, actions, gdom, checked)
        slow_atoms, slow_trace, _ = _outcome(
            reference_progress, belief, actions, gdom, checked
        )
        assert fast_atoms == slow_atoms
        assert fast_trace == slow_trace
        if fast is None:
            return
        try:
            validate(fast, gdom)
        except InconsistencyError:
            if keeps_consistency:
                raise
            return
        belief = fast


@pytest.fixture(scope="module")
def w0_gdom():
    return fort_gdom()


_W0_AGENTS = ("guard0", "guard1", "guard2", "attacker1", "attacker2", "attacker3")
_EXT_AGENTS = _W0_AGENTS[1:]
# agents crowd one corner so moves collide, shots land and the grid edge
# bounds the moves
_COORD = st.integers(0, 5)
_DIR = st.sampled_from("nesw")


@st.composite
def w0_beliefs(draw):
    """Random inertial atoms of constraint-consistent beliefs of the shipped
    domain: each agent has at most one cell and one facing, may be shot,
    and each attacker may be on a spread attack."""
    atoms = []
    for sym in _W0_AGENTS:
        if draw(st.integers(0, 9)):  # an agent may lack a pose atom
            atoms.append(Atom("in", (sym, draw(_COORD), draw(_COORD))))
        if draw(st.integers(0, 9)):
            atoms.append(Atom("face", (sym, draw(_DIR))))
        if draw(st.integers(0, 3)) == 0:
            atoms.append(Atom("shot", (sym,)))
        if sym.startswith("attacker") and draw(st.booleans()):
            atoms.append(Atom("spread_attack", (sym,)))
    return atoms


_OWN_ACTIONS = st.one_of(
    st.builds(lambda x, y: Atom("move", ("guard0", x, y)), _COORD, _COORD),
    st.builds(lambda d: Atom("rotate", ("guard0", d)), _DIR),
    st.builds(lambda a: Atom("shoot", ("guard0", a)), st.sampled_from(_W0_AGENTS[3:])),
    st.just(Atom("noop", ("guard0",))),
)
_EXO_ACTIONS = st.one_of(
    st.builds(
        lambda e, x, y: Atom("agent_move", (e, x, y)),
        st.sampled_from(_EXT_AGENTS),
        _COORD,
        _COORD,
    ),
    st.builds(
        lambda e, d: Atom("agent_rotate", (e, d)), st.sampled_from(_EXT_AGENTS), _DIR
    ),
    st.builds(
        lambda e, a: Atom("agent_shoot", (e, a)),
        st.sampled_from(_EXT_AGENTS),
        st.sampled_from(_W0_AGENTS),
    ),
)


@st.composite
def w0_steps(draw):
    """One tick: an optional own action (checked or not, as the planner and
    the observation step pass it) and up to four exogenous actions."""
    own = draw(st.lists(_OWN_ACTIONS, max_size=1))
    actions = tuple(own + draw(st.lists(_EXO_ACTIONS, max_size=4)))
    checked = frozenset(own) if own and draw(st.booleans()) else frozenset()
    return actions, checked


@settings(max_examples=400, deadline=None, derandomize=True)
@given(atoms=w0_beliefs(), steps=st.lists(w0_steps(), min_size=1, max_size=2))
def test_progress_matches_the_reference_on_the_shipped_domain(w0_gdom, atoms, steps):
    belief = Belief(reference_close_defined(atoms, w0_gdom))
    validate(belief, w0_gdom)
    assert_progress_matches_reference(belief, steps, w0_gdom)


POSITIVE_WINDOW = (
    "sort s. fluent inertial f(s). fluent inertial g(s). action a(s). "
    "a(X) causes f(X). g(X) if f(X)."
)
_S = ("o1", "o2", "o3", "o4")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f=st.frozensets(st.sampled_from(_S)),
    g=st.frozensets(st.sampled_from(_S)),
    acts=st.lists(st.sampled_from(_S), max_size=3),
)
def test_progress_matches_the_reference_on_a_positive_window(f, g, acts):
    gdom = ground(parse_domain(POSITIVE_WINDOW), sorts={"s": _S})
    # consistent: g holds wherever f does
    atoms = [Atom("f", (o,)) for o in f] + [Atom("g", (o,)) for o in f | g]
    actions = tuple(Atom("a", (o,)) for o in acts)
    belief = Belief(reference_close_defined(atoms, gdom))
    validate(belief, gdom)
    assert_progress_matches_reference(belief, [(actions, frozenset())], gdom)


# Every rule shape the delta code tells apart: a positive window (h from f),
# a negative window whose body holds an atom a positive window derives (h),
# one with a negated body literal (which a removed n opens), and one with
# positive, underivable body literals (the only shape inherited atoms no
# longer trigger); definitions with a negated literal, with two fluent
# literals, and with heads derived many ways.  Progressing a(o1) and q(o1)
# from g(o1), k(o1), n(o1) makes the second and third windows race for
# k(o1) and g(o1); the reference's outcome needs inherited g(o1) to trigger
# the second one.
MIXED = """
sort s.
fluent inertial f(s).
fluent inertial g(s).
fluent inertial h(s).
fluent inertial k(s).
fluent inertial n(s).
fluent defined d(s).
fluent defined e(s, s).
fluent defined m(s).
action a(s).
action b(s).
action c(s).
action p(s).
action q(s).
a(X) causes f(X).
b(X) causes g(X).
c(X) causes -h(X).
p(X) causes k(X).
q(X) causes -n(X).
h(X) if f(X).
-k(X) if g(X), h(X).
-g(X) if k(X), -n(X).
-k(Y) if k(X), g(X), Y != X.
d(X) if f(X), -g(X).
e(X, Y) if k(X), h(Y).
m(X) if h(X), k(Y).
m(X) if f(X).
"""
_MIXED_INERTIAL = tuple(Atom(p, (o,)) for p in "fghkn" for o in _S[:3])


@pytest.fixture(scope="module")
def mixed_gdom():
    return ground(parse_domain(MIXED), sorts={"s": _S[:3]})


@st.composite
def mixed_inertial_atoms(draw):
    """Random inertial atoms of MIXED that satisfy its windows: h covers f,
    no k where g and h hold, no g where k holds without n, and k is a
    single atom wherever it meets g."""
    objs = st.frozensets(st.sampled_from(_S[:3]))
    f, g, h, k, n = (draw(objs) for _ in range(5))
    h |= f
    k -= g & h
    g -= k - n
    if k & g:
        k = {min(k & g)}
    return [Atom(p, (o,)) for p, os in zip("fghkn", (f, g, h, k, n)) for o in os]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    atoms=mixed_inertial_atoms(),
    ticks=st.lists(
        st.lists(
            st.builds(
                lambda p, o: Atom(p, (o,)), st.sampled_from("abcpq"), st.sampled_from(_S[:3])
            ),
            max_size=3,
        ),
        min_size=1,
        max_size=2,
    ),
)
def test_progress_matches_the_reference_on_every_rule_shape(mixed_gdom, atoms, ticks):
    belief = Belief(reference_close_defined(atoms, mixed_gdom))
    validate(belief, mixed_gdom)
    steps = [(tuple(actions), frozenset()) for actions in ticks]
    assert_progress_matches_reference(belief, steps, mixed_gdom, keeps_consistency=False)


@pytest.mark.xfail(
    strict=True,
    raises=InconsistencyError,
    reason="progress keeps a direct victim of a non-symmetric window whose body "
    "rests on inherited atoms (the FOUND line on kr.beliefs.progress in CHANGES.md)",
)
def test_progress_respects_a_non_symmetric_window(mixed_gdom):
    """p(o2) causes k(o2), which -k(X) if g(X), h(X) forbids while the
    inherited g(o2) and h(o2) hold; no symmetric instance retracts them."""
    belief = Belief(close_defined([Atom(p, ("o2",)) for p in "ghnf"], mixed_gdom))
    validate(belief, mixed_gdom)
    validate(progress(belief, (Atom("p", ("o2",)),), mixed_gdom), mixed_gdom)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    parent=st.frozensets(st.sampled_from(_MIXED_INERTIAL)),
    child=st.frozensets(st.sampled_from(_MIXED_INERTIAL)),
)
def test_close_defined_from_a_parent_matches_the_reference(mixed_gdom, parent, child):
    closed_parent = Belief(reference_close_defined(parent, mixed_gdom))
    expected = reference_close_defined(child, mixed_gdom)
    assert close_defined(child, mixed_gdom, closed_parent) == expected
    assert close_defined(child, mixed_gdom) == expected


# ---------------------------------------------------------------------------
# compiled joins equal the interpreted engine
# ---------------------------------------------------------------------------


def compiled_entries(gdom):
    """(rule, join, entry pattern or None, the body the reference solves
    after matching the pattern) for every compiled entry of every rule."""
    rules = [r for rs in gdom.causal_by_action.values() for r in rs]
    rules += [r for rs in gdom.exec_by_action.values() for r in rs]
    rules += gdom.windows + gdom.definitions + gdom.defaults
    out = []
    for rule in rules:
        if rule.on_action is not None:
            out.append((rule, rule.on_action, rule.action, rule.body))
        for i, join in enumerate(rule.on_body):
            if join is not None:
                rest = rule.body[:i] + rule.body[i + 1 :]
                out.append((rule, join, rule.body[i].atom, rest))
        if rule.on_head is not None:
            out.append((rule, rule.on_head, rule.head.atom, rule.body))
        if rule.unbound is not None:
            out.append((rule, rule.unbound, None, rule.body))
    return out


def _solutions(fn):
    """The list ``fn`` returns, or the GroundingError it raises."""
    try:
        return fn()
    except GroundingError as err:
        return ("GroundingError", str(err))


def _entry_atom(data, gdom, pattern, index):
    """A ground atom, mostly of the pattern's predicate: one of the index,
    or one drawn from (small) values of its argument sorts."""
    pred = pattern.pred
    if data.draw(st.integers(0, 4)) == 0:
        pred = data.draw(st.sampled_from(sorted(gdom.fluent_decls)))
    existing = sorted(index.get(pred, ()), key=str)
    if existing and data.draw(st.booleans()):
        return data.draw(st.sampled_from(existing))
    small = {"x_val": range(6), "y_val": range(6), "region": ("r0", "r1", "r5")}
    args = tuple(
        data.draw(st.sampled_from(tuple(small.get(sort) or gdom.sorts[sort])))
        for sort in gdom.signature(pred)
    )
    return Atom(pred, args)


def assert_joins_match_the_reference(gdom, belief, data):
    """Every compiled entry, entered by a random atom of its pattern, yields
    the bindings (in order) of the reference ``solve`` after
    ``match_atom``, builds the same head and scanned atoms, and its victim
    continuation agrees with matching the substituted head; on the
    belief's tuple index and on a set index."""
    sets: dict = {}
    for a in belief.atoms:
        sets.setdefault(a.pred, set()).add(a)
    for index in (belief.index, sets):
        for rule, join, pattern, body in compiled_entries(gdom):
            if pattern is None:
                atom = None
                got = _solutions(lambda: list(join.run(index, ())))
                binding = {}
            else:
                atom = _entry_atom(data, gdom, pattern, index)
                got = _solutions(lambda: list(join.solve(index, atom)))
                binding = match_atom(pattern, atom, {})
            want = [] if binding is None else _solutions(
                lambda: list(solve(gdom, index, body, binding))
            )
            assert [join.binding(env) for env in got] == want, (rule.text, atom)
            if atom is not None:
                assert join.first(index, atom) == (got[0] if got else None)
            for env, b in zip(got, want):
                if join.head is not None:
                    assert join.head(env) == rule.head.atom.substitute(b)
                assert [scan(env) for scan in join.scanned] == [
                    lit.atom.substitute(b)
                    for lit in body
                    if lit.positive and lit.atom.pred in gdom.fluent_decls
                ]
                if join.then is None:
                    continue
                head = rule.head.atom.substitute(b)
                for victim in [*index.get(head.pred, ()), _entry_atom(data, gdom, head, {})]:
                    b3 = match_atom(head, victim, b)
                    expected = [] if b3 is None else list(
                        solve(gdom, index, rule.residual, b3)
                    )
                    found = list(join.then.solve(index, victim, env))
                    assert [join.then.binding(e) for e in found] == expected
                    assert join.then.first(index, victim, env) == (found[0] if found else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atoms=w0_beliefs(), data=st.data())
def test_compiled_joins_match_the_reference_engine_on_the_shipped_domain(
    w0_gdom, atoms, data
):
    belief = Belief(reference_close_defined(atoms, w0_gdom))
    assert_joins_match_the_reference(w0_gdom, belief, data)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(atoms=mixed_inertial_atoms(), data=st.data())
def test_compiled_joins_match_the_reference_engine_on_every_rule_shape(
    mixed_gdom, atoms, data
):
    belief = Belief(reference_close_defined(atoms, mixed_gdom))
    validate(belief, mixed_gdom)
    assert_joins_match_the_reference(mixed_gdom, belief, data)


UNEVALUABLE = """
sort s.
static q(s).
static t(s, s).
fluent inertial f(s).
fluent inertial g(s, s).
"""


@pytest.mark.parametrize(
    "body",
    [
        ("-f(Y)",),  # negated fluent, unbound
        ("-s(Y)",),  # negated sort atom, unbound
        ("q(Y)",),  # computed static, free argument
        ("-t(X, Y)",),  # negated static, unbound
        ("r(X)",),  # no relation
        ("g(X, Y)", "-f(Z)"),  # reached only where g holds
        ("s(Y)", "t(X, Y)", "-q(Y)", "f(Y)"),  # every literal kind, no error
        ("g(Y, Y)", "g(Z, X)", "t(Z, c)"),  # a repeated new variable, a constant
    ],
    ids=", ".join,
)
def test_compiled_joins_raise_the_reference_errors(body):
    """Literals that cannot be evaluated raise the reference's
    GroundingError when they are reached, and only then."""
    gdom = ground(
        parse_domain(UNEVALUABLE),
        sorts={"s": ("a", "b", "c")},
        statics={
            "q": Static("q", 1, func=lambda v: v != "b"),
            "t": Static("t", 2, table=[("a", "b"), ("b", "c"), ("a", "c")]),
        },
    )
    lits = tuple(parse_literal(text) for text in body)
    entry = Atom("f", (Variable("X"),))
    join = compile_join(gdom, lits, entry)
    for atoms in ([], [Atom("g", ("a", "a")), Atom("g", ("b", "a")), Atom("f", ("b",))]):
        index = Belief(atoms).index
        for value in ("a", "b"):
            atom = Atom("f", (value,))
            got = _solutions(lambda: [join.binding(e) for e in join.solve(index, atom)])
            want = _solutions(
                lambda: list(solve(gdom, index, lits, match_atom(entry, atom, {})))
            )
            assert got == want
