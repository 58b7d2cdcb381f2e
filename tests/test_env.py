"""Simulator tests.

The movement-conflict and hit-geometry expectations are checked against
independent oracles implemented here: conflict resolution against a
subset-feasibility search, geometry against a dot-product cone test.  The
whole tick is checked against ``reference_step.py``, the copy of ``step``
from before its conflict rounds were restructured, on drawn ticks that
reach every kind of conflict.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import reference_step

from fortdefense.env import (
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    ConfigError,
    Direction,
    GridConfig,
    IgnoredAction,
    Outcome,
    ShotEvent,
    WorldState,
    in_cone,
    legal_actions,
    reset,
    step,
    terminal,
)

MOVE_DELTAS = {
    None: None,
    ActionKind.MOVE_N: (0, 1),
    ActionKind.MOVE_E: (1, 0),
    ActionKind.MOVE_S: (0, -1),
    ActionKind.MOVE_W: (-1, 0),
}


def tiny_config(**overrides) -> GridConfig:
    base = dict(
        width=3,
        height=3,
        fort_cells=frozenset({(0, 2)}),
        n_guards=1,
        n_attackers=1,
        max_steps=100,
    )
    base.update(overrides)
    return GridConfig(**base)


def make_state(config, agents, step_count=0) -> WorldState:
    return WorldState(config=config, agents=agents, step_count=step_count)


# ---------------------------------------------------------------------------
# movement conflicts vs. an independent subset-feasibility oracle
# ---------------------------------------------------------------------------


def oracle_final_positions(config, poses, move_kinds):
    """Independent conflict resolution: choose the largest feasible set of
    movers (preferring lower ids on ties), where feasible means all final
    cells distinct and no two movers swap."""
    desired = {}
    for i, kind in move_kinds.items():
        delta = MOVE_DELTAS[kind]
        if delta is None:
            continue
        c = (poses[i][0] + delta[0], poses[i][1] + delta[1])
        if config.in_bounds(*c):
            desired[i] = c
    ids = sorted(desired)
    for size in range(len(ids), -1, -1):
        for subset in itertools.combinations(ids, size):
            chosen = set(subset)
            final = {i: desired[i] if i in chosen else poses[i] for i in poses}
            if len(set(final.values())) != len(final):
                continue
            if any(
                desired[i] == poses[j] and desired[j] == poses[i]
                for i in chosen
                for j in chosen
                if i < j
            ):
                continue
            return final
    raise AssertionError("empty subset is always feasible")


def test_two_agent_conflicts_match_oracle():
    config = tiny_config()
    cells = [(x, y) for x in range(3) for y in range(3)]
    move_options = [
        None,
        ActionKind.MOVE_N,
        ActionKind.MOVE_E,
        ActionKind.MOVE_S,
        ActionKind.MOVE_W,
    ]
    checked = 0
    for pos_a, pos_b in itertools.permutations(cells, 2):
        if pos_b == (0, 2):  # attacker on the fort would be a terminal state
            continue
        for kind_a, kind_b in itertools.product(move_options, move_options):
            agents = [
                AgentState(0, AgentKind.GUARD, *pos_a, Direction.S),
                AgentState(1, AgentKind.ATTACKER, *pos_b, Direction.N),
            ]
            state = make_state(config, agents)
            joint = {
                0: Action(kind_a) if kind_a else Action.noop(),
                1: Action(kind_b) if kind_b else Action.noop(),
            }
            nxt, _ = step(state, joint)
            expected = oracle_final_positions(
                config, {0: pos_a, 1: pos_b}, {0: kind_a, 1: kind_b}
            )
            got = {a.id: a.pos for a in nxt.agents}
            assert got == expected, (pos_a, pos_b, kind_a, kind_b)
            checked += 1
    assert checked > 1500


def test_three_agent_conflict_fixtures():
    config = GridConfig(
        width=5,
        height=5,
        fort_cells=frozenset({(0, 4)}),
        n_guards=3,
        n_attackers=1,
        max_steps=100,
    )

    def run(poses, kinds):
        agents = [
            AgentState(i, AgentKind.GUARD, *poses[i], Direction.S) for i in range(3)
        ] + [AgentState(3, AgentKind.ATTACKER, 4, 0, Direction.N)]
        state = make_state(config, agents)
        joint = {i: Action(k) if k else Action.noop() for i, k in kinds.items()}
        joint[3] = Action.noop()
        nxt, _ = step(state, joint)
        return {a.id: a.pos for a in nxt.agents if a.id < 3}

    # three-cycle rotates freely
    got = run(
        {0: (1, 1), 1: (2, 1), 2: (2, 2)},
        {0: ActionKind.MOVE_E, 1: ActionKind.MOVE_N, 2: ActionKind.MOVE_W},
    )
    assert got == {0: (2, 1), 1: (2, 2), 2: (1, 2)}

    # chain into a stationary agent cancels all the way back
    got = run(
        {0: (1, 1), 1: (2, 1), 2: (3, 1)},
        {0: ActionKind.MOVE_E, 1: ActionKind.MOVE_E, 2: None},
    )
    assert got == {0: (1, 1), 1: (2, 1), 2: (3, 1)}

    # three-way contest: lowest id wins, the rest hold
    got = run(
        {0: (1, 2), 1: (2, 1), 2: (3, 2)},
        {0: ActionKind.MOVE_E, 1: ActionKind.MOVE_N, 2: ActionKind.MOVE_W},
    )
    assert got == {0: (2, 2), 1: (2, 1), 2: (3, 2)}

    # swap holds both
    got = run(
        {0: (1, 1), 1: (2, 1), 2: (4, 4)},
        {0: ActionKind.MOVE_E, 1: ActionKind.MOVE_W, 2: None},
    )
    assert got == {0: (1, 1), 1: (2, 1), 2: (4, 4)}


# ---------------------------------------------------------------------------
# shot geometry vs. an independent dot-product cone oracle
# ---------------------------------------------------------------------------


def cone_oracle(facing: Direction, dx: int, dy: int, range_: float, arc_deg: float):
    """Inside the cone iff the angle between the offset vector and the facing
    vector is at most arc/2, checked with a dot product (no atan2)."""
    dist = math.sqrt(dx * dx + dy * dy)
    if dist == 0 or dist > range_ + 1e-9:
        return False
    dot = dx * facing.dx + dy * facing.dy
    return dot >= dist * math.cos(math.radians(arc_deg) / 2) - 1e-9


def test_shot_geometry_matches_cone_oracle():
    config = GridConfig(
        width=13,
        height=13,
        fort_cells=frozenset({(6, 12)}),
        n_guards=1,
        n_attackers=1,
        max_steps=100,
    )
    sx, sy = 6, 6
    for facing in Direction:
        for tx in range(13):
            for ty in range(13):
                if (tx, ty) == (sx, sy) or (tx, ty) == (6, 12):
                    continue
                agents = [
                    AgentState(0, AgentKind.GUARD, sx, sy, facing),
                    AgentState(1, AgentKind.ATTACKER, tx, ty, Direction.N),
                ]
                state = make_state(config, agents)
                acts = legal_actions(state, 0)
                can_shoot = Action.shoot(1) in acts
                expected = cone_oracle(
                    facing, tx - sx, ty - sy, config.shoot_range, config.shoot_arc_deg
                )
                assert can_shoot == expected, (facing, tx, ty)


def test_shot_geometry_frozen_boundary_cases():
    # distance exactly 5 via a 3-4-5 triangle is inside; sqrt(26) is not;
    # the 45-degree diagonal sits on the arc boundary and counts as inside
    assert cone_oracle(Direction.N, 3, 4, 5.0, 90.0) is True
    assert cone_oracle(Direction.N, 1, 5, 5.0, 90.0) is False
    assert cone_oracle(Direction.N, 2, 2, 5.0, 90.0) is True
    assert cone_oracle(Direction.N, 3, 2, 5.0, 90.0) is False
    assert cone_oracle(Direction.E, 3, -3, 5.0, 90.0) is True
    assert cone_oracle(Direction.N, 0, -1, 5.0, 90.0) is False


def test_shot_at_range_plus_one_misses():
    config = GridConfig(n_guards=1, n_attackers=1)
    shooter = AgentState(0, AgentKind.GUARD, 5, 10, Direction.E)
    target = AgentState(1, AgentKind.ATTACKER, 11, 10, Direction.N)  # 6 cells east
    state = make_state(config, [shooter, target])
    nxt, events = step(state, {0: Action.shoot(1), 1: Action.noop()})
    assert nxt.get(1).alive
    assert events == [ShotEvent(0, 1, hit=False)]


def test_mutual_shots_kill_both():
    config = GridConfig(n_guards=1, n_attackers=1)
    a = AgentState(0, AgentKind.GUARD, 5, 10, Direction.E)
    b = AgentState(1, AgentKind.ATTACKER, 8, 10, Direction.W)
    state = make_state(config, [a, b])
    nxt, events = step(state, {0: Action.shoot(1), 1: Action.shoot(0)})
    assert not nxt.get(0).alive and not nxt.get(1).alive
    assert events == [ShotEvent(0, 1, hit=True), ShotEvent(1, 0, hit=True)]


def test_simultaneous_kill_credits_one_shooter():
    # both shots are lethal: each reports its hit, in shooter-id order
    config = GridConfig(n_guards=2, n_attackers=1)
    g0 = AgentState(0, AgentKind.GUARD, 5, 10, Direction.E)
    g1 = AgentState(1, AgentKind.GUARD, 5, 12, Direction.E)
    victim = AgentState(2, AgentKind.ATTACKER, 8, 11, Direction.N)
    state = make_state(config, [g0, g1, victim])
    nxt, events = step(
        state, {0: Action.shoot(2), 1: Action.shoot(2), 2: Action.noop()}
    )
    assert not nxt.get(2).alive
    assert events == [ShotEvent(0, 2, hit=True), ShotEvent(1, 2, hit=True)]


def test_killed_agent_does_not_complete_its_move():
    config = GridConfig(n_guards=1, n_attackers=1)
    shooter = AgentState(0, AgentKind.GUARD, 5, 10, Direction.E)
    runner = AgentState(1, AgentKind.ATTACKER, 8, 10, Direction.N)
    state = make_state(config, [shooter, runner])
    nxt, _ = step(state, {0: Action.shoot(1), 1: Action(ActionKind.MOVE_N)})
    corpse = nxt.get(1)
    assert not corpse.alive and corpse.pos == (8, 10)


def test_corpse_blocks_movement_same_tick_and_later():
    config = GridConfig(n_guards=2, n_attackers=1)
    shooter = AgentState(0, AgentKind.GUARD, 5, 10, Direction.E)
    walker = AgentState(1, AgentKind.GUARD, 8, 9, Direction.N)
    victim = AgentState(2, AgentKind.ATTACKER, 8, 10, Direction.N)
    state = make_state(config, [shooter, walker, victim])
    nxt, _ = step(
        state, {0: Action.shoot(2), 1: Action(ActionKind.MOVE_N), 2: Action.noop()}
    )
    assert not nxt.get(2).alive
    assert nxt.get(1).pos == (8, 9)  # blocked by the fresh corpse
    assert Action(ActionKind.MOVE_N) not in legal_actions(nxt, 1)


def test_shot_at_dead_target_counts_as_miss():
    config = GridConfig(n_guards=1, n_attackers=2)
    shooter = AgentState(0, AgentKind.GUARD, 5, 10, Direction.E)
    corpse = AgentState(1, AgentKind.ATTACKER, 7, 10, Direction.N, alive=False)
    live = AgentState(2, AgentKind.ATTACKER, 5, 0, Direction.N)
    state = make_state(config, [shooter, corpse, live])
    nxt, events = step(state, {0: Action.shoot(1), 2: Action.noop()})
    assert ShotEvent(0, 1, hit=False) in events


# ---------------------------------------------------------------------------
# terminal conditions
# ---------------------------------------------------------------------------


def build_terminal_state(attacker_on_fort, attackers_dead, guards_dead, timed_out):
    config = GridConfig(n_guards=2, n_attackers=2, max_steps=10)
    fort_cell = sorted(config.fort_cells)[0]
    agents = [
        AgentState(0, AgentKind.GUARD, 0, 0, Direction.S, alive=not guards_dead),
        AgentState(1, AgentKind.GUARD, 1, 0, Direction.S, alive=not guards_dead),
        AgentState(
            2,
            AgentKind.ATTACKER,
            *(fort_cell if attacker_on_fort else (5, 5)),
            Direction.N,
            alive=not attackers_dead,
        ),
        AgentState(3, AgentKind.ATTACKER, 6, 6, Direction.N, alive=not attackers_dead),
    ]
    return make_state(config, agents, step_count=10 if timed_out else 3)


def test_terminal_precedence_truth_table():
    # (attacker_on_fort, attackers_dead, guards_dead, timed_out) -> outcome
    expected = {
        (False, False, False, False): None,
        (True, False, False, False): Outcome.ATTACKERS_WIN_FORT,
        (True, False, True, False): Outcome.ATTACKERS_WIN_FORT,
        (True, False, False, True): Outcome.ATTACKERS_WIN_FORT,
        (True, False, True, True): Outcome.ATTACKERS_WIN_FORT,
        (False, True, False, False): Outcome.GUARDS_WIN_ELIMINATION,
        (False, True, True, False): Outcome.GUARDS_WIN_ELIMINATION,
        (False, True, False, True): Outcome.GUARDS_WIN_ELIMINATION,
        (False, True, True, True): Outcome.GUARDS_WIN_ELIMINATION,
        (False, False, True, False): Outcome.ATTACKERS_WIN_ELIMINATION,
        (False, False, True, True): Outcome.ATTACKERS_WIN_ELIMINATION,
        (False, False, False, True): Outcome.GUARDS_WIN_TIMEOUT,
    }
    for combo, outcome in expected.items():
        on_fort, attackers_dead, guards_dead, timed_out = combo
        if on_fort and attackers_dead:
            continue  # a live attacker on the fort contradicts all-dead
        result = terminal(build_terminal_state(*combo))
        if outcome is None:
            assert result is None, combo
        else:
            assert result is not None and result.outcome == outcome, combo


def test_timeout_reports_guards_win():
    config = GridConfig(max_steps=3)
    state = reset(config, seed=7)
    while terminal(state) is None:
        joint = {a.id: Action.noop() for a in state.agents if a.alive}
        state, _ = step(state, joint)
    result = terminal(state)
    assert result.outcome is Outcome.GUARDS_WIN_TIMEOUT
    assert result.steps == 3
    assert result.guards_win


def test_stepping_terminal_state_raises():
    config = GridConfig(max_steps=1)
    state = reset(config, seed=1)
    state, _ = step(state, {a.id: Action.noop() for a in state.agents})
    assert terminal(state) is not None
    with pytest.raises(ValueError):
        step(state, {a.id: Action.noop() for a in state.agents})


# ---------------------------------------------------------------------------
# reset and joint-action validation
# ---------------------------------------------------------------------------


def test_reset_spawn_layout():
    config = GridConfig()
    state = reset(config, seed=42)
    assert len(state.agents) == 6
    guards = state.guards()
    attackers = state.attackers()
    assert [(g.id, g.kind) for g in guards] == [(i, AgentKind.GUARD) for i in range(3)]
    positions = [a.pos for a in state.agents]
    assert len(set(positions)) == 6
    for g in guards:
        assert any(
            max(abs(g.x - fx), abs(g.y - fy)) == 1 for (fx, fy) in config.fort_cells
        )
        assert g.pos not in config.fort_cells
        assert g.direction is Direction.S
    for a in attackers:
        assert 0 <= a.y < config.attacker_band_rows
        assert a.direction is Direction.N
    # same seed, same spawn
    assert reset(config, seed=42) == state


def test_reset_rejects_invalid_configs():
    with pytest.raises(ConfigError):
        reset(GridConfig(width=2, height=2, fort_cells=frozenset({(0, 1)})), seed=0)
    with pytest.raises(ConfigError):
        reset(GridConfig(n_attackers=200), seed=0)
    with pytest.raises(ConfigError):
        reset(GridConfig(shoot_range=-1), seed=0)
    with pytest.raises(ConfigError):
        reset(GridConfig(fort_cells=frozenset({(50, 50)})), seed=0)


def test_step_validates_joint_action():
    state = reset(GridConfig(), seed=3)
    joint = {a.id: Action.noop() for a in state.agents}
    missing = dict(joint)
    del missing[2]
    with pytest.raises(ValueError, match="missing action"):
        step(state, missing)
    with pytest.raises(ValueError, match="unknown agent"):
        step(state, {**joint, 99: Action.noop()})
    with pytest.raises(ValueError, match="unknown target"):
        step(state, {**joint, 0: Action.shoot(99)})
    with pytest.raises(ValueError):
        Action(ActionKind.SHOOT)  # shoot requires a target
    with pytest.raises(ValueError):
        Action(ActionKind.MOVE_N, target=1)  # only shoot takes a target


def test_action_for_dead_agent_warns_and_is_ignored():
    config = GridConfig(n_guards=1, n_attackers=2)
    agents = [
        AgentState(0, AgentKind.GUARD, 5, 10, Direction.S),
        AgentState(1, AgentKind.ATTACKER, 5, 0, Direction.N),
        AgentState(2, AgentKind.ATTACKER, 8, 0, Direction.N, alive=False),
    ]
    state = make_state(config, agents)
    nxt, events = step(
        state,
        {0: Action.noop(), 1: Action.noop(), 2: Action(ActionKind.MOVE_N)},
    )
    assert IgnoredAction(2, "agent is dead") in events
    assert nxt.get(2).pos == (8, 0)


def test_off_grid_move_holds_with_warning():
    config = GridConfig(n_guards=1, n_attackers=1)
    agents = [
        AgentState(0, AgentKind.GUARD, 0, 10, Direction.S),
        AgentState(1, AgentKind.ATTACKER, 5, 0, Direction.N),
    ]
    state = make_state(config, agents)
    nxt, events = step(state, {0: Action(ActionKind.MOVE_W), 1: Action.noop()})
    assert nxt.get(0).pos == (0, 10)
    assert any(isinstance(e, IgnoredAction) and e.agent == 0 for e in events)


def test_step_does_not_mutate_input_state():
    state = reset(GridConfig(), seed=11)
    before = state.copy()
    joint = {a.id: Action(ActionKind.MOVE_S) for a in state.guards()}
    joint.update({a.id: Action(ActionKind.MOVE_N) for a in state.attackers()})
    step(state, joint)
    assert state == before


# ---------------------------------------------------------------------------
# legal actions
# ---------------------------------------------------------------------------


def test_legal_actions_structure():
    config = GridConfig(n_guards=1, n_attackers=2)
    agents = [
        AgentState(0, AgentKind.GUARD, 5, 10, Direction.E),
        AgentState(1, AgentKind.ATTACKER, 8, 10, Direction.N),
        AgentState(2, AgentKind.ATTACKER, 5, 11, Direction.N),
        AgentState(3, AgentKind.ATTACKER, 9, 11, Direction.N, alive=False),
    ]
    config = GridConfig(n_guards=1, n_attackers=3)
    state = make_state(config, agents)
    acts = legal_actions(state, 0)
    assert acts[0] == Action.noop()
    assert Action(ActionKind.MOVE_N) not in acts  # occupied by agent 2
    assert Action(ActionKind.MOVE_E) in acts
    assert Action(ActionKind.ROTATE_CW) in acts and Action(ActionKind.ROTATE_CCW) in acts
    # agent 1 is in range and arc; agent 2 is out of the east-facing arc;
    # agent 3 is dead
    shots = [a for a in acts if a.kind is ActionKind.SHOOT]
    assert shots == [Action.shoot(1)]
    # attackers never get shots at teammates: agent 1 sees only the guard
    enemy_shots = [a for a in legal_actions(state, 1) if a.kind is ActionKind.SHOOT]
    assert all(state.get(a.target).kind.is_guard for a in enemy_shots)
    assert legal_actions(state, 3) == [Action.noop()]  # dead agent can only wait


def test_rotation_cycle():
    order = [Direction.N, Direction.E, Direction.S, Direction.W]
    for i, d in enumerate(order):
        assert d.clockwise() is order[(i + 1) % 4]
        assert d.counterclockwise() is order[(i - 1) % 4]


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


def assert_shot_events_are_the_record(before, joint, after, events):
    """The tick's shot events are the live agents' shots, in shooter-id
    order; each hit is lethal geometry at tick start; and the agents down
    after the tick are those down before plus those a hit names."""
    shots = [e for e in events if isinstance(e, ShotEvent)]
    fired = [(i, joint[i].target) for i in sorted(joint) if joint[i].kind is ActionKind.SHOOT]
    assert [(e.shooter, e.target) for e in shots] == fired
    for e in shots:
        shooter, target = before.get(e.shooter), before.get(e.target)
        lethal = target.alive and in_cone(
            before.config, shooter.direction, shooter.x, shooter.y, target.x, target.y
        )
        assert e.hit == lethal, e
    named = {e.target for e in shots if e.hit}
    for a in after.agents:
        assert (not a.alive) == (not before.get(a.id).alive or a.id in named)
    return len(shots)


def test_random_walk_keeps_invariants():
    # the default grid fires no shot from these draws; the crowded one does
    crowded = GridConfig(width=8, height=8, n_guards=2, n_attackers=3, max_steps=60)
    for config in (GridConfig(max_steps=60), crowded):
        rng = random.Random(2024)
        n_shots = 0
        for episode in range(8):
            state = reset(config, seed=rng.randrange(10**6))
            while terminal(state) is None:
                joint = {}
                for agent in state.agents:
                    if not agent.alive:
                        continue
                    options = legal_actions(state, agent.id)
                    joint[agent.id] = options[rng.randrange(len(options))]
                before = state
                state, events = step(state, joint)
                positions = [a.pos for a in state.agents]
                assert len(set(positions)) == len(positions)
                for a in state.agents:
                    assert config.in_bounds(a.x, a.y)
                n_shots += assert_shot_events_are_the_record(before, joint, state, events)
    assert n_shots > 0


def test_fixed_script_is_deterministic():
    config = GridConfig(max_steps=30)

    def run():
        rng = random.Random(99)
        state = reset(config, seed=5)
        snapshots = [state]
        while terminal(state) is None:
            joint = {}
            for agent in state.agents:
                if agent.alive:
                    options = legal_actions(state, agent.id)
                    joint[agent.id] = options[rng.randrange(len(options))]
            state, _ = step(state, joint)
            snapshots.append(state)
        return snapshots

    assert run() == run()


# ---------------------------------------------------------------------------
# properties of one step from random valid states
# ---------------------------------------------------------------------------

# a small grid, so that moves contest cells and most shots are in range
PROPERTY_CONFIG = GridConfig(
    width=6, height=6, fort_cells=frozenset({(2, 5), (3, 5)}), n_guards=2, n_attackers=2
)
_N_AGENTS = PROPERTY_CONFIG.n_guards + PROPERTY_CONFIG.n_attackers
_ACTIONS = st.sampled_from(
    [Action(k) for k in ActionKind if k is not ActionKind.SHOOT]
) | st.builds(Action.shoot, st.integers(0, _N_AGENTS - 1))


_FREE_CELLS = [
    (x, y)
    for x in range(PROPERTY_CONFIG.width)
    for y in range(PROPERTY_CONFIG.height)
    if (x, y) not in PROPERTY_CONFIG.fort_cells
]


@st.composite
def valid_states(draw):
    """Non-terminal states: distinct cells off the fort, any facings, and
    any agents down as long as each side keeps a living agent.  Three
    times in four the agents crowd into one 3 x 3 window (often on an
    edge), so that their moves and shots meet."""
    pool = _FREE_CELLS
    if draw(st.integers(0, 3)):
        x0 = draw(st.integers(0, PROPERTY_CONFIG.width - 3))
        y0 = draw(st.integers(0, PROPERTY_CONFIG.height - 3))
        pool = [(x, y) for x, y in _FREE_CELLS if 0 <= x - x0 < 3 and 0 <= y - y0 < 3]
    cells = draw(st.permutations(pool))[:_N_AGENTS]
    alive = [draw(st.booleans()) for _ in range(_N_AGENTS)]
    alive[draw(st.integers(0, PROPERTY_CONFIG.n_guards - 1))] = True
    alive[draw(st.integers(PROPERTY_CONFIG.n_guards, _N_AGENTS - 1))] = True
    agents = []
    for i, (x, y) in enumerate(cells):
        if i < PROPERTY_CONFIG.n_guards:
            kind = AgentKind.GUARD
        else:
            kind = AgentKind.ATTACKER
        agents.append(
            AgentState(i, kind, x, y, draw(st.sampled_from(Direction)), alive=alive[i])
        )
    state = make_state(PROPERTY_CONFIG, agents)
    assert terminal(state) is None
    return state


@st.composite
def joint_actions(draw, state):
    """One action per living agent; dead agents sometimes get one too (it
    is dropped with a warning).  Each action comes from one of: all
    actions, the shots at another agent, and the moves onto another agent's
    cell (a swap, a chain of movers or a move into a corpse) or next to it
    (a cell that a second mover may contest).  One time in four, two live
    agents shoot each other."""
    joint = {}
    for a in state.agents:
        if not a.alive and draw(st.integers(0, 3)) != 0:
            continue
        shots = [Action.shoot(b.id) for b in state.agents if b.id != a.id]
        moves = [
            Action(kind)
            for kind, (dx, dy) in list(MOVE_DELTAS.items())[1:]
            if any(
                abs(a.x + dx - b.x) + abs(a.y + dy - b.y) <= 1
                for b in state.agents
                if b.id != a.id
            )
        ]
        aimed = [st.sampled_from(shots)] + ([st.sampled_from(moves)] if moves else [])
        joint[a.id] = draw(st.one_of(_ACTIONS, *aimed))
    # now and then two live agents duel: each shoots the other
    live = [a.id for a in state.agents if a.alive]
    if draw(st.integers(0, 3)) == 0:
        s, t = draw(st.permutations(live))[:2]
        joint[s], joint[t] = Action.shoot(t), Action.shoot(s)
    return joint


@st.composite
def steps(draw):
    """A valid state and a joint action for it."""
    state = draw(valid_states())
    return state, draw(joint_actions(state))


def _step_cases(state, joint) -> set[str]:
    """The cases of ``STEP_CASES`` that a drawn tick holds."""
    by_id = {a.id: a for a in state.agents}
    moves = {}  # live mover id -> (start cell, target cell)
    for a in state.agents:
        act = joint.get(a.id)
        if a.alive and act is not None and MOVE_DELTAS.get(act.kind):
            dx, dy = MOVE_DELTAS[act.kind]
            moves[a.id] = ((a.x, a.y), (a.x + dx, a.y + dy))
    targets = [to for _, to in moves.values()]
    cases = set()
    if len(set(targets)) < len(targets):
        cases.add("contested cell")
    for m1, (start1, to1) in moves.items():
        for m2, (start2, to2) in moves.items():
            if m1 != m2 and to1 == start2:
                cases.add("swap" if to2 == start1 else "chain")
    if {(a.x, a.y) for a in state.agents if not a.alive} & set(targets):
        cases.add("move into a corpse")
    if any(not PROPERTY_CONFIG.in_bounds(*to) for to in targets):
        cases.add("off-grid move")
    if any(not a.alive and a.id in joint for a in state.agents):
        cases.add("action for a dead agent")

    def hits(s, t):
        act, shooter, target = joint.get(s), by_id[s], by_id[t]
        return (
            shooter.alive
            and target.alive
            and act == Action.shoot(t)
            and cone_oracle(
                shooter.direction,
                target.x - shooter.x,
                target.y - shooter.y,
                PROPERTY_CONFIG.shoot_range,
                PROPERTY_CONFIG.shoot_arc_deg,
            )
        )

    if any(hits(s, t) and hits(t, s) for s in by_id for t in by_id if s < t):
        cases.add("mutual shots")
    return cases


STEP_CASES = [
    "contested cell",
    "swap",
    "chain",
    "move into a corpse",
    "off-grid move",
    "action for a dead agent",
    "mutual shots",
]


@pytest.mark.parametrize("case", STEP_CASES)
def test_the_step_draw_reaches_every_case(case):
    find(
        steps(),
        lambda drawn: case in _step_cases(*drawn),
        settings=settings(
            max_examples=2000, derandomize=True, database=None, phases=[Phase.generate]
        ),
    )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(drawn=steps())
def test_step_matches_the_reference_step(drawn):
    """The step gives the reference copy's next state (counters included)
    and its events in the same order, and leaves its input as it was."""
    state, joint = drawn
    before = state.copy()
    nxt, events = step(state, joint)
    assert state == before
    want_nxt, want_events = reference_step.step(state, joint)
    assert nxt == want_nxt
    assert events == want_events
    assert not {id(a) for a in nxt.agents} & {id(a) for a in state.agents}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_two_bodies_share_a_cell_after_a_step(data):
    state = data.draw(valid_states())
    nxt, _ = step(state, data.draw(joint_actions(state)))
    cells = [a.pos for a in nxt.agents]  # living and dead alike
    assert len(set(cells)) == len(cells)
    assert all(PROPERTY_CONFIG.in_bounds(x, y) for x, y in cells)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_shots_resolve_on_tick_start_poses(data):
    state = data.draw(valid_states())
    joint = data.draw(joint_actions(state))
    nxt, events = step(state, joint)
    before = {a.id: a for a in state.agents}
    expected_hits = set()
    for shooter_id, act in sorted(joint.items()):
        shooter = before[shooter_id]
        if act.kind is not ActionKind.SHOOT or not shooter.alive:
            continue
        target = before[act.target]
        hit = target.alive and cone_oracle(
            shooter.direction,
            target.x - shooter.x,
            target.y - shooter.y,
            PROPERTY_CONFIG.shoot_range,
            PROPERTY_CONFIG.shoot_arc_deg,
        )
        if hit:
            expected_hits.add((shooter_id, target.id))
    shots = [e for e in events if isinstance(e, ShotEvent)]
    assert {(e.shooter, e.target) for e in shots if e.hit} == expected_hits
    killed = {t for _, t in expected_hits}
    for agent in nxt.agents:
        assert agent.alive == (before[agent.id].alive and agent.id not in killed)
