"""Belief progression, executability, window retraction, defined-fluent
closure, and the observation of a world state.

The delta-driven ``progress`` and ``close_defined`` are checked against the
from-scratch versions in ``reference_beliefs.py`` on random closed,
consistent beliefs, and every compiled join against the interpreted
``match_atom``/``solve`` kept there.
"""

import io
import itertools
import linecache
import re
import tokenize
import traceback
import types
import zlib

import pytest
from hypothesis import event, given, settings, strategies as st
from reference_beliefs import (
    match_atom,
    reference_close_defined,
    reference_progress,
    solve,
)

from fortdefense.env import GridConfig, reset
from fortdefense.kr.beliefs import (
    Belief,
    InconsistencyError,
    check_executable,
    close_defined,
    observe_world,
    progress,
    validate,
)
from fortdefense.kr.goals import pose_of
from fortdefense.kr.ground import (
    GroundedDomain,
    GroundingError,
    Static,
    compile_join,
    ground,
)
from fortdefense.kr.lang import Atom, Variable, parse_domain, parse_literal


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
            Atom("move", ("attacker1", 9, 14)),
        ),
        gdom,
    )
    assert Atom("in", ("guard0", 3, 14)) in b2.atoms
    assert Atom("in", ("attacker1", 9, 14)) in b2.atoms
    assert Atom("in", ("guard0", 2, 14)) not in b2.atoms
    assert Atom("in", ("attacker1", 10, 14)) not in b2.atoms


def test_an_out_of_sight_shot_is_refused_by_check_executable():
    gdom = fort_gdom()
    b = guard_belief(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 5, 9, "s", True)],
    )
    # attacker fires facing south at the guard 4 cells below: in sight
    shot = Atom("shoot", ("attacker1", "guard0"))
    assert check_executable(b, shot, gdom) == (True, None)
    b2 = progress(b, (shot,), gdom)
    assert Atom("shot", ("guard0",)) in b2.atoms
    # the same shot while facing away is refused by the sight condition,
    # the guard's own shots obey, and so does not occur
    b_away = guard_belief(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 5, 9, "n", True)],
    )
    ok, blocker = check_executable(b_away, shot, gdom)
    assert not ok and blocker[0].axiom_id == "exec:9"
    b3 = progress(b_away, (shot,), gdom)
    assert Atom("shot", ("guard0",)) not in b3.atoms
    assert b3 == b_away


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
        (Atom("shoot", ("guard0", "guard1")), "exec:10"),  # a teammate
        (Atom("shoot", ("attacker1", "attacker2")), "exec:7"),  # another agent's
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
    b2 = progress(b, (Atom("move", ("attacker1", 5, 5)),), gdom)
    assert Atom("in", ("attacker1", 5, 6)) in b2.atoms
    assert b2 == b


# ---------------------------------------------------------------------------
# effect conflicts and window interactions
# ---------------------------------------------------------------------------

# f is a functional fluent: a(X) and b(X) give X two values at once.
CONFLICT = """
sort s.
sort v.
fluent inertial f(s, v).
action a(s).
action b(s).
a(X) causes f(X, one).
b(X) causes f(X, two).
-f(X, V1) if f(X, V2), V1 != V2.
"""


def conflict_gdom():
    return ground(parse_domain(CONFLICT), sorts={"s": ("o",), "v": ("one", "two")})


def test_window_retracting_a_direct_effect_is_an_inconsistency():
    gdom = conflict_gdom()
    b = Belief(close_defined([], gdom))
    with pytest.raises(InconsistencyError) as err:
        progress(b, (Atom("a", ("o",)), Atom("b", ("o",))), gdom)
    assert err.value.axiom_id == "constraint:1"


def test_window_silently_retracts_inherited_atoms():
    gdom = conflict_gdom()
    b = Belief([Atom("f", ("o", "one"))])
    b2 = progress(b, (Atom("b", ("o",)),), gdom)
    assert Atom("f", ("o", "two")) in b2.atoms
    assert Atom("f", ("o", "one")) not in b2.atoms  # inertia yields to the window


def test_direct_effect_conflict_raises():
    desc = parse_domain(
        "sort s. fluent inertial f(s). action a(s). action b(s). "
        "a(X) causes f(X). b(X) causes -f(X)."
    )
    gdom = ground(desc, sorts={"s": ("o",)})
    b = Belief([])
    with pytest.raises(InconsistencyError):
        progress(b, (Atom("a", ("o",)), Atom("b", ("o",))), gdom)


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
        Atom("move", ("attacker1", 9, 14)),
        Atom("rotate", ("attacker2", "e")),
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


def test_every_inertial_fluent_is_observed():
    """The control loop rebuilds a belief from its observation alone, so
    an inertial fluent the observation did not report would be dropped by
    every rebuild."""
    config = GridConfig()
    gdom = fort_gdom(config)
    obs = observe_world(reset(config, seed=7), gdom)
    assert {lit.atom.pred for lit in obs} == gdom.inertial_preds


# ---------------------------------------------------------------------------
# delta-driven progression equals the from-scratch reference
# ---------------------------------------------------------------------------


def _outcome(fn, belief, actions, gdom, checked, traced=True):
    """(atoms or exception type, provenance list, resulting belief or
    None) of one progression; untraced, it passes ``trace=None`` and the
    list stays empty."""
    trace: list = []
    try:
        result = fn(belief, actions, gdom, checked=checked, trace=trace if traced else None)
    except InconsistencyError as err:
        return type(err), trace, None
    return result.atoms, trace, result


def assert_progress_matches_reference(belief, steps, gdom):
    """Progress ``belief`` through each (actions, checked) step with both
    versions; atoms, exception types and provenance lists (order included)
    must agree; neither records an inherited atom.  ``progress`` without a
    trace, as the control loop calls it, must give the atoms or exception
    type it gives with one, as the explainer replays it.  Every result
    satisfies the windows.  Both continue from the optimised result, so
    later steps also cover a parent whose inertial atoms ``progress``
    cached; equal beliefs built apart may iterate their atoms in different
    orders, which retractions can follow, so both get one object."""
    for actions, checked in steps:
        fast_atoms, fast_trace, fast = _outcome(progress, belief, actions, gdom, checked)
        untraced_atoms, _, _ = _outcome(progress, belief, actions, gdom, checked, traced=False)
        assert untraced_atoms == fast_atoms
        slow_atoms, slow_trace, _ = _outcome(
            reference_progress, belief, actions, gdom, checked
        )
        assert fast_atoms == slow_atoms
        assert fast_trace == slow_trace
        if fast is None:
            return
        validate(fast, gdom)
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
    domain: each agent has at most one cell and one facing, and may be
    shot."""
    atoms = []
    for sym in _W0_AGENTS:
        if draw(st.integers(0, 9)):  # an agent may lack a pose atom
            atoms.append(Atom("in", (sym, draw(_COORD), draw(_COORD))))
        if draw(st.integers(0, 9)):
            atoms.append(Atom("face", (sym, draw(_DIR))))
        if draw(st.integers(0, 3)) == 0:
            atoms.append(Atom("shot", (sym,)))
    return atoms


_OWN_ACTIONS = st.one_of(
    st.builds(lambda x, y: Atom("move", ("guard0", x, y)), _COORD, _COORD),
    st.builds(lambda d: Atom("rotate", ("guard0", d)), _DIR),
    st.builds(lambda a: Atom("shoot", ("guard0", a)), st.sampled_from(_W0_AGENTS[3:])),
    st.just(Atom("noop", ("guard0",))),
)
_EXO_ACTIONS = st.one_of(
    st.builds(
        lambda e, x, y: Atom("move", (e, x, y)),
        st.sampled_from(_EXT_AGENTS),
        _COORD,
        _COORD,
    ),
    st.builds(
        lambda e, d: Atom("rotate", (e, d)), st.sampled_from(_EXT_AGENTS), _DIR
    ),
    st.builds(
        lambda e, a: Atom("shoot", (e, a)),
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


def scanned_pose(belief, sym):
    """(x, y, facing) of ``sym`` by scanning the belief's ``in`` and
    ``face`` atoms, the last match of each in index order; None where
    either is missing."""
    x = y = d = None
    for atom in belief.index.get("in", ()):
        if atom.args[0] == sym:
            x, y = atom.args[1], atom.args[2]
    for atom in belief.index.get("face", ()):
        if atom.args[0] == sym:
            d = atom.args[1]
    return None if x is None or d is None else (x, y, d)


_POSE_ATOMS = st.one_of(
    st.builds(lambda s, x, y: Atom("in", (s, x, y)), st.sampled_from(_W0_AGENTS), _COORD, _COORD),
    st.builds(lambda s, d: Atom("face", (s, d)), st.sampled_from(_W0_AGENTS), _DIR),
    st.builds(lambda s: Atom("shot", (s,)), st.sampled_from(_W0_AGENTS)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    loose=st.lists(_POSE_ATOMS, max_size=14),
    atoms=w0_beliefs(),
    steps=st.lists(w0_steps(), min_size=1, max_size=3),
)
def test_the_pose_table_equals_the_in_face_scan(w0_gdom, loose, atoms, steps):
    """``pose_of`` reads the belief's pose table, which equals the scan it
    replaced for every agent and an unknown symbol: on loose atoms (an
    agent may have several cells or facings, or none), on closed beliefs
    with dead and faceless agents, and on the beliefs ``progress`` builds
    from them."""
    beliefs = [Belief(loose), Belief(reference_close_defined(atoms, w0_gdom))]
    for actions, checked in steps:
        try:
            beliefs.append(progress(beliefs[-1], actions, w0_gdom, checked=checked))
        except InconsistencyError:
            break
    for belief in beliefs:
        for sym in _W0_AGENTS + ("guard9",):
            pose = scanned_pose(belief, sym)
            assert pose_of(belief, sym) == pose
            if pose is not None and Atom("shot", (sym,)) in belief.atoms:
                event("a dead agent's pose")
            if pose is None and any(a.args[0] == sym for a in belief.index.get("in", ())):
                event("an agent with a cell and no facing")
        assert set(belief.poses) == {s for s in _W0_AGENTS if scanned_pose(belief, s)}
    if len(beliefs) > 2:
        event("beliefs built by progress")


_S = ("o1", "o2", "o3")


# Every window key and definition shape the delta code tells apart: a
# window with no victim key (k holds at most one atom), one keyed by the
# variable its body binds at the head's first position, with a comparison
# evaluated before the victim (v is functional except at o3), and one
# keyed at its second position (no two v share a second argument); direct
# effects that add and remove atoms of a windowed fluent; definitions with
# a negated literal, with two fluent literals, and with heads derived many
# ways.
MIXED = """
sort s.
fluent inertial f(s).
fluent inertial g(s).
fluent inertial h(s).
fluent inertial k(s).
fluent inertial v(s, s).
fluent defined d(s).
fluent defined e(s, s).
fluent defined m(s).
action a(s).
action b(s).
action c(s).
action p(s).
action q(s).
action r(s, s).
a(X) causes f(X).
b(X) causes g(X).
c(X) causes -h(X).
p(X) causes k(X).
q(X) causes -v(X, X).
r(X, Y) causes v(X, Y).
-k(Y) if k(X), Y != X.
-v(X, Y1) if v(X, Y2), Y1 != Y2, X != o3.
-v(X1, Y) if v(X2, Y), X1 != X2.
d(X) if f(X), -g(X).
e(X, Y) if k(X), h(Y).
m(X) if h(X), k(Y).
m(X) if f(X).
"""
_MIXED_INERTIAL = tuple(Atom(p, (o,)) for p in "fghk" for o in _S) + tuple(
    Atom("v", (x, y)) for x in _S for y in _S
)


@pytest.fixture(scope="module")
def mixed_gdom():
    return ground(parse_domain(MIXED), sorts={"s": _S})


def _functional(pairs, free=()):
    """The pairs, in sorted order, kept while no kept pair shares their
    second argument, nor their first unless it is in ``free``."""
    firsts, seconds, kept = set(), set(), []
    for x, y in sorted(pairs):
        if y not in seconds and (x in free or x not in firsts):
            kept.append((x, y))
            firsts.add(x)
            seconds.add(y)
    return kept


@st.composite
def mixed_inertial_atoms(draw):
    """Random inertial atoms of MIXED that satisfy its windows: at most
    one k, and v functional but at o3, and injective."""
    objs = st.frozensets(st.sampled_from(_S))
    f, g, h, k = (draw(objs) for _ in range(4))
    k = set(sorted(k)[:1])
    pairs = draw(st.frozensets(st.tuples(st.sampled_from(_S), st.sampled_from(_S))))
    atoms = [Atom(p, (o,)) for p, os in zip("fghk", (f, g, h, k)) for o in os]
    return atoms + [Atom("v", pair) for pair in _functional(pairs, free=("o3",))]


#: One tick: up to three actions of MIXED's.
_MIXED_TICK = st.lists(
    st.one_of(
        st.builds(lambda p, o: Atom(p, (o,)), st.sampled_from("abcpq"), st.sampled_from(_S)),
        st.builds(lambda x, y: Atom("r", (x, y)), st.sampled_from(_S), st.sampled_from(_S)),
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(atoms=mixed_inertial_atoms(), ticks=st.lists(_MIXED_TICK, min_size=1, max_size=2))
def test_progress_matches_the_reference_on_every_rule_shape(mixed_gdom, atoms, ticks):
    belief = Belief(reference_close_defined(atoms, mixed_gdom))
    validate(belief, mixed_gdom)
    steps = [(tuple(actions), frozenset()) for actions in ticks]
    assert_progress_matches_reference(belief, steps, mixed_gdom)


# MIXED with a window whose victim key is a constant: v is functional at o3
# too.
KEYED = MIXED + "-v(o3, Y1) if v(o3, Y2), Y1 != Y2.\n"


@pytest.fixture(scope="module")
def keyed_gdom():
    return ground(parse_domain(KEYED), sorts={"s": _S})


def _victim_join(gdom, text):
    """The window written ``text``, and its join entered by its first body
    literal (whose ``then`` matches the victims)."""
    (rule,) = [r for r in gdom.windows if r.text.rstrip(".") == text]
    return rule, rule.on_body[0]


@pytest.mark.parametrize(
    "text, trigger, kept",
    [
        ("-v(o3, Y1) if v(o3, Y2), Y1 != Y2", "v(o3, o2)", ["v(o3, o1)", "v(o3, o2)"]),
        ("-v(X, Y1) if v(X, Y2), Y1 != Y2, X != o3", "v(o2, o1)", ["v(o2, o1)"]),
        ("-v(X1, Y) if v(X2, Y), X1 != X2", "v(o1, o2)", ["v(o1, o2)", "v(o3, o2)"]),
        ("-k(Y) if k(X), Y != X", "k(o2)", ["k(o1)", "k(o2)", "k(o3)"]),
    ],
    ids=["constant", "bound", "bound-second-position", "free"],
)
def test_window_victims_are_looked_up_by_their_key(keyed_gdom, text, trigger, kept):
    """A window narrows its head predicate's atoms to those whose key
    argument (a constant, or a variable the body binds; the first such
    position) has the key's value, in their index order; a head whose
    arguments are all free until the victim is matched keeps every atom."""
    held = ("k(o1)", "k(o2)", "k(o3)", "v(o1, o2)", "v(o2, o1)", "v(o3, o1)", "v(o3, o2)")
    index = Belief(parse_literal(t).atom for t in held).index
    rule, join = _victim_join(keyed_gdom, text)
    env = join.first(index, parse_literal(trigger).atom)
    bucket = index[rule.head.atom.pred]
    narrowed = join.then.narrow(bucket, env)
    assert narrowed == [a for a in bucket if str(a) in kept]


@st.composite
def keyed_inertial_atoms(draw):
    """Random inertial atoms of KEYED that satisfy its windows: those of
    MIXED, with v functional at o3 too."""
    atoms = draw(mixed_inertial_atoms())
    pairs = _functional(a.args for a in atoms if a.pred == "v")
    return [a for a in atoms if a.pred != "v"] + [Atom("v", pair) for pair in pairs]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(atoms=keyed_inertial_atoms(), ticks=st.lists(_MIXED_TICK, min_size=1, max_size=2))
def test_progress_matches_the_reference_on_every_victim_key(keyed_gdom, atoms, ticks):
    """Keyed victim lookup retracts, in the reference's order and with its
    provenance, what the full scan of the head's predicate did: on heads
    keyed by a constant, by a bound variable, and with no key."""
    belief = Belief(reference_close_defined(atoms, keyed_gdom))
    validate(belief, keyed_gdom)
    steps = [(tuple(actions), frozenset()) for actions in ticks]
    assert_progress_matches_reference(belief, steps, keyed_gdom)


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
    rules += gdom.windows + gdom.definitions
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
    """Every compiled entry, entered by a random atom of its pattern,
    yields the bindings (in order) of the reference ``solve`` after
    ``match_atom`` (so it unifies the atom as ``match_atom`` does), and
    ``first`` the first of them; it builds the same head atom,
    and its victim continuation agrees with matching the
    substituted head, its keyed lookup dropping only atoms that head
    cannot match; on the belief's tuple index and on a set index."""
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
                if join.then is None:
                    continue
                head = rule.head.atom.substitute(b)
                # the keyed lookup keeps, in their order, every atom the
                # victim pattern can match
                bucket = list(index.get(head.pred, ()))
                narrowed = join.then.narrow(bucket, env)
                rest = iter(bucket)
                assert all(victim in rest for victim in narrowed)
                assert [v for v in narrowed if match_atom(head, v, b) is not None] == [
                    v for v in bucket if match_atom(head, v, b) is not None
                ]
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


def unevaluable_gdom():
    return ground(
        parse_domain(UNEVALUABLE),
        sorts={"s": ("a", "b", "c")},
        statics={
            "q": Static("q", 1, func=lambda v: v != "b"),
            "t": Static("t", 2, table=[("a", "b"), ("b", "c"), ("a", "c")]),
        },
    )


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
    gdom = unevaluable_gdom()
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


# MIXED with a table static over values that are awkward in source text:
# quotes, a backslash and a newline.
QUOTED = MIXED + """
static t(s, s).
fluent defined r(s, s).
r(X, Y) if f(X), t(X, Y), -t(Y, X).
"""
_QUOTED = ('o"1', "o'2\\", "o\n3")


@pytest.fixture(scope="module")
def quoted_gdom():
    a, b, c = _QUOTED
    rows = [(a, b), (b, c), (a, c), (c, c)]
    return ground(parse_domain(QUOTED), sorts={"s": _QUOTED}, statics={"t": Static("t", 2, rows)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atoms=keyed_inertial_atoms(), data=st.data())
def test_compiled_joins_match_the_reference_engine_on_quoted_values(
    quoted_gdom, atoms, data
):
    rename = dict(zip(_S, _QUOTED))
    atoms = [Atom(a.pred, tuple(rename[v] for v in a.args)) for a in atoms]
    belief = Belief(reference_close_defined(atoms, quoted_gdom))
    validate(belief, quoted_gdom)
    assert_joins_match_the_reference(quoted_gdom, belief, data)


#: Every member of a join that is a generated function.
_MEMBERS = ("run", "solve", "first", "head", "narrow")


def _joins(gdom):
    """Every join of ``gdom``, the victim continuations included."""
    out = []
    for _, join, _, _ in compiled_entries(gdom):
        while join is not None:
            out.append(join)
            join = join.then
    return out


def _generated_sources(gdom):
    """The source of every member of every join of ``gdom``, by the
    function's file name."""
    sources = {}
    for join in _joins(gdom):
        for name in _MEMBERS:
            if getattr(join, name) is not None:
                filename = getattr(join, name).__code__.co_filename
                sources[filename] = "".join(linecache.getlines(filename))
    return sources


@pytest.mark.parametrize("which", ["shipped", "quoted"])
def test_generated_source_holds_no_value_of_the_domain(w0_gdom, quoted_gdom, which):
    """Predicates, constants, sort members and table rows are bound to
    names of the generated source, never written into it: the source holds
    no string or number literal at all."""
    gdom = w0_gdom if which == "shipped" else quoted_gdom
    values = set(gdom.fluent_decls) | set(gdom.statics)
    values |= {v for members in gdom.sorts.values() for v in members}
    values |= {v for s in gdom.statics.values() for row in s.table or () for v in row}
    sources = _generated_sources(gdom)
    assert sources
    for filename, source in sources.items():
        assert source, filename
        kinds = {t.type for t in tokenize.generate_tokens(io.StringIO(source).readline)}
        assert not kinds & {tokenize.STRING, tokenize.NUMBER}, filename
        assert not [v for v in values if isinstance(v, str) and repr(v) in source]


def _reads_its_own_def(fn) -> bool:
    """Whether the line ``linecache`` holds at ``fn``'s first line is its
    ``def``."""
    line = linecache.getline(fn.__code__.co_filename, fn.__code__.co_firstlineno)
    return line.lstrip().startswith(f"def {fn.__name__}(")


def _join_files():
    """The file names :mod:`linecache` holds generated functions under."""
    return {name for name in linecache.cache if name.startswith("<join ")}


def _nested_code(code):
    """The code objects nested in ``code``, at any depth."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _nested_code(const)


def test_each_generated_function_is_named_for_its_axiom_and_entry():
    """A generated function's file is its own, named for its join (the
    axiom and the way its body is entered), its member and a checksum of
    its source, and holds only its lines, its ``def`` first; so the joins
    an earlier grounding made with the same axiom ids still read their own.
    Every member of every join is such a function, never a lambda or an
    ``itemgetter``, and the code nested in it (a ``narrow``'s list
    comprehension) is filed with it, at a line that file holds; only a
    victim continuation has a ``narrow``; and grounding the shipped domain
    again files no new source."""
    mixed = ground(parse_domain(MIXED), sorts={"s": _S})
    mixed_functions = [
        getattr(join, name) for join in _joins(mixed) for name in _MEMBERS
        if getattr(join, name) is not None
    ]
    gdom = fort_gdom()
    (causal, *_) = gdom.causal_by_action["move"]
    (window, *_) = gdom.windows
    (definition, *_) = gdom.definitions
    (*_, blocker) = gdom.exec_by_action["shoot"]
    expected = [
        (causal.on_action.solve, f"{causal.axiom_id} on_action solve"),
        (causal.on_action.head, f"{causal.axiom_id} on_action head"),
        (blocker.on_action.first, f"{blocker.axiom_id} on_action first"),
        (window.on_body[0].first, f"{window.axiom_id} on_body[0] first"),
        (window.on_body[0].then.first, f"{window.axiom_id} on_body[0] then first"),
        (window.on_body[0].then.narrow, f"{window.axiom_id} on_body[0] then narrow"),
        (window.unbound.run, f"{window.axiom_id} unbound run"),
        (definition.on_head.first, f"{definition.axiom_id} on_head first"),
        (definition.unbound.head, f"{definition.axiom_id} unbound head"),
    ]
    assert blocker.axiom_id == "exec:10"
    for fn, name in expected:
        assert re.fullmatch(f"<join {re.escape(name)} [0-9a-f]{{8}}>", fn.__code__.co_filename)
    joins = _joins(gdom)
    victims = [join.then for join in joins if join.then is not None]
    assert victims
    functions = list(mixed_functions)
    for join in joins:
        assert (join.narrow is not None) == any(join is v for v in victims), join.name
        for name in _MEMBERS:
            fn = getattr(join, name)
            if fn is not None:
                assert type(fn) is types.FunctionType and fn.__name__ == name, join.name
                functions.append(fn)
    assert mixed_functions and len(functions) > len(mixed_functions)
    for fn in functions:
        filename = fn.__code__.co_filename
        source = "".join(linecache.getlines(filename))
        assert fn.__code__.co_firstlineno == 1 and _reads_its_own_def(fn), filename
        assert source.count("\ndef ") == 0, filename  # its own lines only
        assert filename.endswith(f" {zlib.crc32(source.encode()):08x}>"), filename
        for code in _nested_code(fn.__code__):
            assert code.co_filename == filename, (filename, code.co_name)
            assert linecache.getline(filename, code.co_firstlineno).strip(), filename
    assert any(_nested_code(window.on_body[0].then.narrow.__code__))
    filed = _join_files()
    again = fort_gdom()
    assert _join_files() == filed
    assert again.causal_by_action["move"][0].on_action.solve is not causal.on_action.solve


def test_a_grounding_error_shows_its_generated_line():
    gdom = unevaluable_gdom()
    lits = (parse_literal("g(X, Y)"), parse_literal("-f(Z)"))
    join = compile_join(gdom, lits, Atom("f", (Variable("X"),)), name="probe")
    index = Belief([Atom("g", ("a", "b"))]).index
    assert list(join.solve(index, Atom("f", ("b",)))) == []  # -f(Z) is not reached
    with pytest.raises(GroundingError, match="unbound arguments") as info:
        list(join.solve(index, Atom("f", ("a",))))
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<join probe solve ' in text
    assert "raise GroundingError(" in text
