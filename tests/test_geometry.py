"""Tests for the per-configuration geometry tables (``GridConfig.geometry``).

The tables must give exactly what the formulas they replaced give: the
properties below compare every table-backed function with the slow copies
in ``reference_geometry.py`` over random configurations, on every cell of
the grid (the functions take cells of the grid only), and the tick's
views over random states on them: the danger cells and strike posts that
the scripted attackers share, each agent's moves and shots (which must
partition the simulator's action list) and that list itself.  The
planner's shot table, which replaced no formula, is compared with its
brute-force definition the same way, and the L1 distance transform that
builds it with the Manhattan distance to the disk.  The other
tests pin the tables' lifetime (one per configuration
object, invisible to equality, hashing and serialization), the enum
attributes that replaced properties, and the one facing rule
(``facing_toward``, ``turn_toward``) against the three copies of it that
the goal rule, the scripted policies and the controller's fallback kept.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_geometry as ref
from fortdefense.env import (
    EPS,
    MOVE_KINDS,
    SHOT_ACTIONS,
    TARGETLESS_ACTIONS,
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    Direction,
    GridConfig,
    Tick,
    WorldState,
    _steps_to,
    facing_toward,
    fort_center,
    fort_distance,
    in_arc,
    in_cone,
    legal_actions,
    nearest_fort_cell,
    reset,
    turn_toward,
)
from fortdefense.explain import _CONFIG, _encode, load_traces, save_traces
from fortdefense.kr.beliefs import Belief
from fortdefense.kr.ground import SYMBOL_OF_DIR, build_statics, ground
from fortdefense.kr.lang import Atom
from fortdefense.loop import AdHocController, load_domain
from fortdefense.policies import _rotate_toward

# Ranges and arcs that put a cell's distance or bearing (from a shooter
# facing north) exactly on the ``+ EPS`` edge or inside the EPS margin:
# only these tell ``<=`` from ``<`` and a kept EPS from a dropped one.
_SHORT_BY = st.sampled_from([1.0, 0.5])
_BOUNDARY_RANGES = st.builds(
    lambda a, b, k: math.hypot(a, b) - k * EPS,
    st.integers(0, 8),
    st.integers(1, 8),
    _SHORT_BY,
)
_BOUNDARY_ARCS = st.builds(
    lambda a, b, k: math.degrees(2 * (math.atan2(a, b) - k * EPS)),
    st.integers(1, 8),
    st.integers(1, 8),
    _SHORT_BY,
)
RANGES = st.one_of(
    st.sampled_from([1.0, 2.5, 4.5, 5.0, 7.25, 12.0, 40.0]),
    st.floats(0.5, 30.0),
    _BOUNDARY_RANGES,
)
ARCS = st.one_of(
    st.sampled_from([30.0, 90.0, 180.0, 360.0]),
    st.floats(1.0, 360.0),
    _BOUNDARY_ARCS,
)


@st.composite
def configs(draw) -> GridConfig:
    width, height = draw(st.integers(5, 25)), draw(st.integers(5, 25))
    cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    forts = draw(st.one_of(st.none(), st.frozensets(cells, min_size=1, max_size=4)))
    return GridConfig(
        width=width,
        height=height,
        fort_cells=forts,
        shoot_range=draw(RANGES),
        shoot_arc_deg=draw(ARCS),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=configs(), data=st.data())
def test_tables_match_the_reference(config, data):
    w, h = config.width, config.height
    in_sight = build_statics(config)["in_sight"]
    sx = data.draw(st.integers(0, w - 1), label="sx")
    sy = data.draw(st.integers(0, h - 1), label="sy")
    # every cell of the grid near the weapon-range disk
    reach = math.ceil(config.shoot_range) + 1
    for tx in range(max(0, sx - reach), min(w, sx + reach + 1)):
        for ty in range(max(0, sy - reach), min(h, sy + reach + 1)):
            want_range = ref.in_range(config, sx, sy, tx, ty)
            for facing in Direction:
                want_arc = ref.in_arc(config, facing, sx, sy, tx, ty)
                assert in_arc(config, facing, sx, sy, tx, ty) is want_arc, (facing, tx, ty)
                want = want_range and want_arc
                assert in_cone(config, facing, sx, sy, tx, ty) is want
                assert in_sight.contains((sx, sy, SYMBOL_OF_DIR[facing], tx, ty)) is want

    assert fort_center(config) == ref.fort_center(config)
    for x in range(w):
        for y in range(h):
            assert fort_distance(config, x, y) == ref.fort_distance(config, x, y), (x, y)
            assert nearest_fort_cell(config, x, y) == ref._nearest_fort_cell(config, (x, y))
            for facing in Direction:
                agent = AgentState(0, AgentKind.GUARD, x, y, facing)
                block = config.geometry.blocks[(x * h + y) * 4 + facing.index]
                assert list(block) == ref._agent_block(config, agent), (x, y, facing)
    assert config.geometry.pad_row == w * h * 4 == len(config.geometry.blocks) - 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=configs())
def test_danger_and_pocket_tables_match_the_reference(config):
    span = [
        (dx, dy)
        for dx in range(1 - config.width, config.width)
        for dy in range(1 - config.height, config.height)
    ]
    for facing in Direction:
        origin = AgentState(0, AgentKind.GUARD, 0, 0, facing)
        danger = {o for o in span if ref._covered(config, o, [origin], margin=1.5)}
        pocket = {o for o in span if ref.strikeable(config, origin, [], o)}
        assert config.geometry.danger[facing.index] == danger, facing
        assert config.geometry.pocket[facing.index] == pocket, facing


ROSTERS = [(3, 3), (4, 2), (2, 4), (4, 4)]


@st.composite
def scripted_states(draw) -> WorldState:
    """A state on a random configuration: one of ``ROSTERS``, agents on
    distinct cells drawn half the time from the grid's edge rows and
    columns (where strike pockets are clipped), any facings, corpses, guard
    0 ad hoc or not, and the roster in any list order."""
    n_guards, n_attackers = draw(st.sampled_from(ROSTERS))
    config = dataclasses.replace(
        draw(configs()), n_guards=n_guards, n_attackers=n_attackers
    )
    w, h = config.width, config.height
    coord = lambda n: st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    n = n_guards + n_attackers
    cells = draw(
        st.lists(st.tuples(coord(w), coord(h)), min_size=n, max_size=n, unique=True)
    )
    ad_hoc = draw(st.booleans())
    agents = []
    for i, (x, y) in enumerate(cells):
        if i >= n_guards:
            kind = AgentKind.ATTACKER
        elif i == 0 and ad_hoc:
            kind = AgentKind.AD_HOC_GUARD
        else:
            kind = AgentKind.GUARD
        facing = draw(st.sampled_from(list(Direction)))
        agents.append(AgentState(i, kind, x, y, facing, alive=draw(st.booleans())))
    agents = draw(st.permutations(agents))
    zeros = {i: 0 for i in range(n)}
    return WorldState(config, agents, 0, dict(zeros), dict(zeros))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=scripted_states())
def test_scripted_geometry_matches_the_reference(state):
    """The tick's danger and strike-post views are the copies' cone tests
    over the live guards, on every cell of the grid."""
    config = state.config
    cells = [(x, y) for x in range(config.width) for y in range(config.height)]
    guards = [a for a in state.agents if a.alive and a.kind.is_guard]
    tick = Tick(state)
    danger = tick.danger()
    for cell in cells:
        want = ref._covered(config, cell, guards, margin=1.5)
        assert (cell in danger) is want, cell
    assert tick.danger() is danger  # built once
    for mark in sorted(guards, key=lambda g: g.id):
        others = [g for g in guards if g.id != mark.id]
        posts = tick.strike_posts(mark)
        want = ref.posts(config, mark, others)
        assert len(want) == len(posts) and set(want) == posts, mark.id
        assert tick.strike_posts(mark) is posts  # built once per mark
        for cell in cells:
            assert (cell in posts) is ref.strikeable(config, mark, others, cell)
    for agent in state.agents:
        assert legal_actions(state, agent.id) == ref.legal_actions(state, agent.id)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=scripted_states())
def test_the_move_and_shot_views_partition_the_legal_actions(state):
    """Each agent's moves and shots are the legal actions between the
    noop and the rotations and after the rotations, in order: the moves
    with their target cells, the shots keyed by target and shared."""
    tick = Tick(state)
    noop = TARGETLESS_ACTIONS[ActionKind.NOOP]
    cw, ccw = ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW
    turns = [TARGETLESS_ACTIONS[cw], TARGETLESS_ACTIONS[ccw]]
    for agent in state.agents:
        legal = tick.legal_actions(agent.id)
        moves, shots = tick.moves(agent.id), tick.shots(agent.id)
        if not agent.alive:
            assert (legal, moves, shots) == ([noop], [], {})
            continue
        assert legal == [noop, *[act for act, _ in moves], *turns, *shots.values()]
        for act, cell in moves:
            d = MOVE_KINDS[act.kind]
            assert cell == (agent.x + d.dx, agent.y + d.dy)
        for target, act in shots.items():
            assert act is SHOT_ACTIONS[target] and act.target == target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=scripted_states())
def test_one_snapshot_holds_the_roster_scans_and_every_agents_actions(state):
    """One ``Tick`` serves every agent: its facts are the per-agent scans
    it replaced, and its legal actions are the reference's."""
    tick = Tick(state)
    agents = sorted(state.agents, key=lambda a: a.id)
    guards = [a for a in agents if a.kind.is_guard]
    attackers = [a for a in agents if not a.kind.is_guard]
    live_attackers = [a for a in attackers if a.alive]
    assert tick.occupied == {a.pos for a in agents}
    assert list(tick.live_guards) == [a for a in guards if a.alive]
    assert list(tick.live_attackers) == live_attackers
    assert list(tick.guard_ids) == [a.id for a in guards]
    assert tick.attacker_ranks == {a.id: rank for rank, a in enumerate(attackers)}
    threat = min(
        live_attackers,
        key=lambda a: (ref.fort_distance(state.config, a.x, a.y), a.id),
        default=None,
    )
    assert tick.threat is threat
    for agent in state.agents:
        assert tick.legal_actions(agent.id) == ref.legal_actions(state, agent.id), agent.id


@pytest.mark.parametrize(
    "config",
    [
        GridConfig(),
        GridConfig(shoot_range=3.5),
        GridConfig(shoot_arc_deg=180.0),
        GridConfig(width=30, height=30),
    ],
    ids=["default", "range-3.5", "arc-180", "grid-30x30"],
)
def test_steps_to_disk_is_the_manhattan_distance_to_the_disk(config):
    # the transform that builds steps_to_sight from each cone, run on the
    # whole disk, indexed from (1 - width, 1 - height)
    w, h = config.width, config.height
    dist = _steps_to(frozenset(config.geometry.disk), w, h)
    steps = {
        (dx, dy): int(dist[dx + w - 1, dy + h - 1])
        for dx in range(1 - w, w)
        for dy in range(1 - h, h)
    }
    assert steps == ref.steps_to_disk(config)


@example(config=GridConfig())
@example(config=GridConfig(shoot_range=3.5))
@example(config=GridConfig(shoot_arc_deg=180.0))
@example(config=GridConfig(width=30, height=30))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=configs())
def test_steps_to_sight_is_the_fewest_moves_and_turns_into_the_cone(config):
    assert config.geometry.steps_to_sight == ref.steps_to_sight(config)


def test_boundary_draws_reach_the_eps_edge():
    # the strategies above must really reach the edge they exist for
    assert math.hypot(3, 4) == (5.0 - EPS) + EPS
    bearing = math.atan2(1, 2)
    half = math.radians(math.degrees(2 * (bearing - EPS))) / 2
    assert bearing == half + EPS
    config = GridConfig(shoot_arc_deg=math.degrees(2 * (bearing - EPS / 2)))
    assert math.radians(config.shoot_arc_deg) / 2 < bearing
    assert ref.in_arc(config, Direction.N, 0, 0, 1, 2)


# ---------------------------------------------------------------------------
# table lifetime
# ---------------------------------------------------------------------------


def test_a_replaced_config_gets_fresh_tables():
    config = GridConfig()
    assert config.geometry.in_range[(4, 0)]
    narrow = dataclasses.replace(config, shoot_range=3.0)
    assert narrow.geometry is not config.geometry
    assert not narrow.geometry.in_range[(4, 0)]
    assert config.geometry is config.geometry


def test_built_tables_leave_equality_and_hashing_alone():
    a, b = GridConfig(), GridConfig()
    hash_before = hash(a)
    a.geometry
    assert a == b and hash(a) == hash(b) == hash_before
    assert {a: 1}[b] == 1
    assert repr(a) == repr(b)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert "geometry" not in {f.name for f in dataclasses.fields(a)}
    assert a != dataclasses.replace(a, shoot_arc_deg=60.0)


def test_config_round_trip_ignores_the_tables(w0_p1_record, tmp_path):
    config = GridConfig()
    fresh = _encode(_CONFIG, config)
    config.geometry
    assert _encode(_CONFIG, config) == fresh
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_traces([w0_p1_record], config, first)
    loaded = load_traces(first)
    assert loaded[0].config == config
    loaded[0].config.geometry
    save_traces(loaded, loaded[0].config, second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# enum attributes and shared actions
# ---------------------------------------------------------------------------


def test_enum_attributes_equal_the_old_properties():
    for d in Direction:
        assert {"dx", "dy", "angle", "index"} <= set(vars(d))
        assert (d.dx, d.dy) == d.value
        assert d.angle == math.atan2(d.value[0], d.value[1])
        assert d.index == ref.DIRECTION_INDEX[d]
    for kind in AgentKind:
        assert "is_guard" in vars(kind)
        assert kind.is_guard is (kind is not AgentKind.ATTACKER)


def test_targetless_actions_are_shared_and_equal_fresh_ones():
    assert set(TARGETLESS_ACTIONS) == set(ActionKind) - {ActionKind.SHOOT}
    for kind, act in TARGETLESS_ACTIONS.items():
        assert act == Action(kind) and hash(act) == hash(Action(kind))
    assert Action.noop() is TARGETLESS_ACTIONS[ActionKind.NOOP]
    assert Action.move(Direction.E) is TARGETLESS_ACTIONS[ActionKind.MOVE_E]


def test_shot_actions_are_shared_and_equal_fresh_ones():
    for target in [0, 1, 5, 40, 7, 0]:
        act = Action.shoot(target)
        fresh = Action(ActionKind.SHOOT, target)
        assert act is SHOT_ACTIONS[target] is Action.shoot(target)
        assert act == fresh and hash(act) == hash(fresh) and act.target == target
    with pytest.raises(ValueError):
        Action.shoot(None)
    assert None not in SHOT_ACTIONS


def test_state_copy_is_equal_and_independent():
    state = reset(GridConfig(), seed=3)
    state.agents[1].alive = False
    clone = state.copy()
    assert clone.agents == state.agents
    assert all(a is not b for a, b in zip(clone.agents, state.agents))
    clone.agents[0].x += 1
    assert clone.agents[0] != state.agents[0]


# ---------------------------------------------------------------------------
# the facing rule
# ---------------------------------------------------------------------------

#: Every nonzero offset between two cells of a 40 x 40 grid, which holds
#: every offset of each grid of side 5 to 40.
_SPAN = 39
_OFFSETS = [
    (dx, dy)
    for dx in range(-_SPAN, _SPAN + 1)
    for dy in range(-_SPAN, _SPAN + 1)
    if (dx, dy) != (0, 0)
]


def test_the_facing_rule_matches_the_goal_rule_and_policy_copies():
    for dx, dy in _OFFSETS:
        want = facing_toward(dx, dy)
        assert SYMBOL_OF_DIR[want] == ref._nearest_facing(dx, dy), (dx, dy)
        for facing in Direction:
            agent = AgentState(0, AgentKind.GUARD, 0, 0, facing)
            old = ref._rotate_toward(agent, (dx, dy))
            turn = turn_toward(facing, want)
            assert old == (None if turn is None else TARGETLESS_ACTIONS[turn])
            assert _rotate_toward(agent, (dx, dy)) == old, (dx, dy, facing)
    with pytest.raises(ValueError):
        facing_toward(0, 0)


def test_the_fallback_turn_matches_the_controller_copy():
    config = GridConfig(width=_SPAN + 1, height=_SPAN + 1, n_guards=1, n_attackers=1)
    gdom = ground(load_domain(), config)
    chosen = set()
    for dx, dy in _OFFSETS:
        gx, gy = max(0, -dx), max(0, -dy)
        for d in "nesw":
            belief = Belief(
                [
                    Atom("in", ("guard0", gx, gy)),
                    Atom("face", ("guard0", d)),
                    Atom("in", ("attacker1", gx + dx, gy + dy)),
                    Atom("face", ("attacker1", "n")),
                ]
            )
            got = AdHocController._fallback(None, belief, gdom)
            assert got == ref._fallback(None, belief, gdom), (dx, dy, d)
            chosen.add((d, got.args[1:]))
    # each facing met the noop and both quarter turns
    assert len(chosen) == 12
