"""Tests for the 39-entry feature vector.

The core oracle recomputes every entry independently (plain ``math`` calls,
no reuse of the module under test) over a thousand randomly evolved states.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fortdefense import loop
from fortdefense.env import (
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    Direction,
    GridConfig,
    Tick,
    WorldState,
    default_fort_cells,
    legal_actions,
    reset,
    step,
    terminal,
)
from fortdefense.features import CATEGORICAL_FEATURES, N_FEATURES, extract
from fortdefense.policies import POLICY_NAMES

DIR_INDEX = {Direction.N: 0, Direction.E: 1, Direction.S: 2, Direction.W: 3}


def make_state(config, agents):
    ids = [a.id for a in agents]
    return WorldState(
        config=config,
        agents=agents,
        step_count=0,
        shots_fired={i: 0 for i in ids},
        shots_hit={i: 0 for i in ids},
    )


def random_states(n_states, seed=0, steps_per_state=3):
    """Yield (state, modeled_id, prev_action) via random legal rollouts."""
    rng = random.Random(seed)
    produced = 0
    episode_seed = 0
    while produced < n_states:
        config = GridConfig()
        state = reset(config, seed=episode_seed)
        episode_seed += 1
        prev = {a.id: None for a in state.agents}
        while terminal(state) is None and produced < n_states:
            for _ in range(steps_per_state):
                if terminal(state) is not None:
                    break
                acts = {
                    a.id: rng.choice(legal_actions(state, a.id))
                    for a in state.agents
                    if a.alive
                }
                state, _ = step(state, acts)
                for i, act in acts.items():
                    prev[i] = act
            alive = [a for a in state.agents]
            modeled = rng.choice(alive).id
            yield state, modeled, prev[modeled]
            produced += 1


def oracle_vector(state, modeled, prev_action):
    """Recompute all 39 entries from first principles."""
    cfg = state.config
    cx, cy = (cfg.width - 1) / 2, (cfg.height - 1) / 2
    diag = math.hypot(cfg.width - 1, cfg.height - 1)

    def block(agent):
        dx, dy = agent.x - cx, agent.y - cy
        d_center = math.hypot(dx, dy)
        bearing = 0.0 if d_center == 0 else math.atan2(dx, dy)
        d_fort = min(math.hypot(agent.x - fx, agent.y - fy) for fx, fy in cfg.fort_cells)
        return [
            float(agent.x),
            float(agent.y),
            d_center,
            bearing,
            float(DIR_INDEX[agent.direction]),
            d_fort,
        ]

    me = state.get(modeled)
    mates = sorted(
        (a for a in state.agents if a.id != modeled and a.kind.is_guard == me.kind.is_guard),
        key=lambda a: a.id,
    )
    opps = sorted(
        (a for a in state.agents if a.kind.is_guard != me.kind.is_guard),
        key=lambda a: a.id,
    )
    ordered = ([me] + mates + opps)[:6]
    vec = []
    for a in ordered:
        vec.extend(block(a))
    while len(vec) < 36:
        vec.extend([-1.0, -1.0, diag, 0.0, 0.0, diag])
    alive_attackers = [a for a in state.agents if a.kind is AgentKind.ATTACKER and a.alive]
    if alive_attackers:
        nearest = min(
            min(math.hypot(a.x - fx, a.y - fy) for fx, fy in cfg.fort_cells)
            for a in alive_attackers
        )
    else:
        nearest = diag
    down = sum(1 for a in state.agents if a.kind is AgentKind.ATTACKER and not a.alive)
    prev = ActionKind.NOOP if prev_action is None else prev_action.kind
    vec.extend([nearest, float(down), float(int(prev))])
    return vec


@st.composite
def roster_states(draw):
    """A state of a 3v3, 4v2, 2v4 or 4v4 roster on the default grid: agents
    on distinct cells facing anywhere, some dead, guard 0 ad hoc or not;
    plus a previous-action map that lacks some ids and maps others to
    ``None`` or any action.  4v4 truncates to six blocks; 2v4 fills them
    with a different mix of mates and opponents for each side."""
    n_guards, n_attackers = draw(st.sampled_from([(3, 3), (4, 2), (2, 4), (4, 4)]))
    config = GridConfig(n_guards=n_guards, n_attackers=n_attackers)
    n = n_guards + n_attackers
    cell = st.tuples(st.integers(0, config.width - 1), st.integers(0, config.height - 1))
    cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
    guard_kinds = [draw(st.sampled_from([AgentKind.AD_HOC_GUARD, AgentKind.GUARD]))]
    guard_kinds += [AgentKind.GUARD] * (n_guards - 1)
    agents = [
        AgentState(
            i,
            guard_kinds[i] if i < n_guards else AgentKind.ATTACKER,
            x,
            y,
            draw(st.sampled_from(list(Direction))),
            draw(st.booleans()),
        )
        for i, (x, y) in enumerate(cells)
    ]
    action = st.sampled_from(
        [Action(k) for k in ActionKind if k is not ActionKind.SHOOT]
    ) | st.builds(Action.shoot, st.integers(0, n - 1))
    prev = draw(st.dictionaries(st.integers(0, n - 1), st.none() | action))
    return make_state(config, agents), prev


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roster_states())
def test_one_call_gives_every_agent_its_oracle_vector(case):
    state, prev = case
    vectors = extract(Tick(state), prev)
    assert vectors.keys() == {a.id for a in state.agents}
    for agent_id, vec in vectors.items():
        want = oracle_vector(state, agent_id, prev.get(agent_id))
        assert vec.shape == (N_FEATURES,)
        np.testing.assert_allclose(vec, np.array(want), rtol=0, atol=1e-12)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_example_of_a_scripted_game_is_its_oracle_vector(policy, monkeypatch):
    """The example sink of one all-scripted game holds, for every live
    agent of every tick, the oracle vector of the state it acted in."""
    ticks = []
    real_step = loop.step

    def recording_step(state, actions):
        ticks.append((state, dict(actions)))
        return real_step(state, actions)

    monkeypatch.setattr(loop, "step", recording_step)
    sink = {"guard": [], "attacker": []}
    loop.run_games(GridConfig(), policy, 1, seed=1000, ad_hoc=False, example_sink=sink)
    want = {"guard": [], "attacker": []}
    prev = {}
    for state, actions in ticks:
        for agent in state.agents:
            if agent.alive:
                role = "guard" if agent.kind.is_guard else "attacker"
                vec = oracle_vector(state, agent.id, prev.get(agent.id))
                want[role].append((vec, int(actions[agent.id].kind)))
        prev.update(actions)
    for role, examples in want.items():
        assert len(sink[role]) == len(examples), role
        for (got, kind), (vec, want_kind) in zip(sink[role], examples):
            assert kind == want_kind
            np.testing.assert_allclose(got, np.array(vec), rtol=0, atol=1e-12)


def test_layout_constants():
    assert N_FEATURES == 39
    # orientation slot of each of the six agent blocks, plus previous action
    assert CATEGORICAL_FEATURES == frozenset({4, 10, 16, 22, 28, 34, 38})


def test_independent_recomputation_over_1000_states():
    checked = 0
    for state, modeled, prev in random_states(1000, seed=7):
        got = extract(Tick(state), {modeled: prev})[modeled]
        want = oracle_vector(state, modeled, prev)
        assert got.shape == (39,)
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)
        checked += 1
    assert checked == 1000


def test_center_singularity_distance_zero_angle_zero():
    config = GridConfig(
        width=5,
        height=5,
        fort_cells=default_fort_cells(5, 5),
        n_guards=1,
        n_attackers=1,
    )
    agents = [
        AgentState(0, AgentKind.AD_HOC_GUARD, 2, 2, Direction.N),
        AgentState(1, AgentKind.ATTACKER, 0, 0, Direction.N),
    ]
    vec = extract(Tick(make_state(config, agents)), {})[0]
    assert vec[2] == 0.0  # distance to center
    assert vec[3] == 0.0  # polar angle defined as 0 at the center


def test_attackers_not_alive_count():
    state = reset(GridConfig(), seed=3)
    assert extract(Tick(state), {})[0][37] == 0.0
    state.attackers()[0].alive = False
    state.attackers()[2].alive = False
    vec = extract(Tick(state), {})[0]
    assert vec[37] == 2.0
    assert 0 <= vec[37] <= state.config.n_attackers


def test_dead_agent_contributes_frozen_pose():
    state = reset(GridConfig(), seed=4)
    victim = state.attackers()[1]
    vx, vy = victim.x, victim.y
    victim.alive = False
    vec = extract(Tick(state), {})[0]
    # guard 0's opponents occupy blocks 3..5 ordered by id; victim is opp2
    base = 4 * 6
    assert vec[base] == float(vx)
    assert vec[base + 1] == float(vy)


def test_nearest_attacker_fort_distance_uses_alive_only():
    state = reset(GridConfig(), seed=5)
    cfg = state.config
    atts = state.attackers()
    full = extract(Tick(state), {})[0][36]
    dists = sorted(
        min(math.hypot(a.x - fx, a.y - fy) for fx, fy in cfg.fort_cells) for a in atts
    )
    assert full == pytest.approx(dists[0])
    # kill the closest attacker: the figure must move to the next-closest
    closest = min(
        atts, key=lambda a: min(math.hypot(a.x - fx, a.y - fy) for fx, fy in cfg.fort_cells)
    )
    closest.alive = False
    assert extract(Tick(state), {})[0][36] == pytest.approx(dists[1])
    for a in atts:
        a.alive = False
    sentinel = math.hypot(cfg.width - 1, cfg.height - 1)
    assert extract(Tick(state), {})[0][36] == pytest.approx(sentinel)


def test_padding_blocks_use_documented_sentinel():
    config = GridConfig(
        width=7,
        height=7,
        fort_cells=default_fort_cells(7, 7),
        n_guards=1,
        n_attackers=1,
    )
    state = reset(config, seed=0)
    vec = extract(Tick(state), {})[0]
    diag = math.hypot(6, 6)
    pad = config.geometry.blocks[config.geometry.pad_row]
    assert list(pad) == [-1.0, -1.0, diag, 0.0, 0.0, diag]
    # blocks: self, opponent, then four sentinel pads
    for b in range(2, 6):
        base = b * 6
        assert list(vec[base : base + 6]) == [-1.0, -1.0, diag, 0.0, 0.0, diag]


def test_mirror_negates_bearing_and_swaps_east_west():
    for state, modeled, prev in random_states(60, seed=13):
        cfg = state.config
        m_fort = frozenset((cfg.width - 1 - x, y) for x, y in cfg.fort_cells)
        m_cfg = GridConfig(
            width=cfg.width,
            height=cfg.height,
            fort_cells=m_fort,
            n_guards=cfg.n_guards,
            n_attackers=cfg.n_attackers,
            shoot_range=cfg.shoot_range,
            shoot_arc_deg=cfg.shoot_arc_deg,
            max_steps=cfg.max_steps,
        )
        swap = {
            Direction.N: Direction.N,
            Direction.S: Direction.S,
            Direction.E: Direction.W,
            Direction.W: Direction.E,
        }
        m_agents = [
            AgentState(a.id, a.kind, cfg.width - 1 - a.x, a.y, swap[a.direction], a.alive)
            for a in state.agents
        ]
        m_state = make_state(m_cfg, m_agents)
        kind_swap = {ActionKind.MOVE_E: ActionKind.MOVE_W, ActionKind.MOVE_W: ActionKind.MOVE_E}
        if prev is None:
            m_prev = None
        elif prev.kind in kind_swap:
            m_prev = Action(kind_swap[prev.kind])
        else:
            m_prev = prev
        v = extract(Tick(state), {modeled: prev})[modeled]
        mv = extract(Tick(m_state), {modeled: m_prev})[modeled]
        orient_swap = {0.0: 0.0, 1.0: 3.0, 2.0: 2.0, 3.0: 1.0}
        for b in range(6):
            base = b * 6
            assert mv[base] == pytest.approx(cfg.width - 1 - v[base])
            assert mv[base + 1] == v[base + 1]
            assert mv[base + 2] == pytest.approx(v[base + 2])
            # angles negate modulo 2*pi (pi maps to itself)
            s = v[base + 3] + mv[base + 3]
            assert min(abs(s), abs(s - 2 * math.pi), abs(s + 2 * math.pi)) < 1e-9
            assert mv[base + 4] == orient_swap[v[base + 4]]
            assert mv[base + 5] == pytest.approx(v[base + 5])
        assert mv[36] == pytest.approx(v[36])
        assert mv[37] == v[37]


def test_extract_is_pure():
    state = reset(GridConfig(), seed=9)
    prev = {2: Action(ActionKind.ROTATE_CW)}
    a = extract(Tick(state), prev)
    b = extract(Tick(state), prev)
    assert a.keys() == b.keys() == {agent.id for agent in state.agents}
    assert all(np.array_equal(a[i], b[i]) for i in a)


def test_prev_action_encoding():
    state = reset(GridConfig(), seed=1)
    assert extract(Tick(state), {})[0][38] == float(int(ActionKind.NOOP))
    for kind in ActionKind:
        act = Action.shoot(3) if kind is ActionKind.SHOOT else Action(kind)
        assert extract(Tick(state), {0: act})[0][38] == float(int(kind))


def test_unknown_agent_raises():
    state = reset(GridConfig(), seed=2)
    with pytest.raises(KeyError):
        extract(Tick(state), {})[99]
