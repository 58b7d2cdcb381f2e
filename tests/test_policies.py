"""Policy behavior tests: pinned fixtures, legality, and team-shape
invariants, and a trajectory oracle that plays the table-backed cone tests
and legal-move rule against their slow copies."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

import reference_geometry as ref
from fortdefense import loop
from fortdefense.env import (
    MOVE_KINDS,
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    Direction,
    GridConfig,
    Tick,
    WorldState,
    fort_distance,
    legal_actions,
    reset,
    step,
    terminal,
)
from fortdefense.policies import (
    BUILTIN_NAMES,
    POLICY_NAMES,
    PolicySpec,
    make_policy,
    policy_action,
)


def agent_seed(seed: int, step_count: int, agent_id: int) -> int:
    return (seed * 1_000_003 + step_count) * 1_000_003 + agent_id


def make_state(config, agents, step_count=0) -> WorldState:
    return WorldState(config=config, agents=agents, step_count=step_count)


def run_episode(name: str, seed: int, on_tick=None, max_steps=100):
    config = GridConfig(max_steps=max_steps)
    spec = make_policy(name)
    state = reset(config, seed)
    while terminal(state) is None:
        joint = {}
        tick = Tick(state)
        for agent in state.agents:
            if agent.alive:
                seed_t = agent_seed(seed, state.step_count, agent.id)
                joint[agent.id] = policy_action(spec, tick, agent.id, seed_t)
        if on_tick is not None:
            on_tick(state, joint)
        state, _ = step(state, joint)
    return terminal(state)


# ---------------------------------------------------------------------------
# policy specs
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec(name="P9")
    with pytest.raises(ValueError):
        make_policy("P9")
    # only the six concrete policies are specs; there is no random mix
    with pytest.raises(ValueError):
        make_policy("mix")


# ---------------------------------------------------------------------------
# pinned behavior fixtures
# ---------------------------------------------------------------------------


def test_p1_guard_beyond_radius_heads_home():
    # guard 8+ cells from the fort, no attacker within weapon range:
    # the chosen action must strictly decrease distance to the fort
    config = GridConfig()
    guard = AgentState(0, AgentKind.GUARD, 10, 10, Direction.S)
    far_attacker = AgentState(3, AgentKind.ATTACKER, 10, 1, Direction.N)
    state = make_state(config, [guard, far_attacker])
    assert fort_distance(config, guard.x, guard.y) > make_policy("P1").param(
        "guard_radius"
    )
    act = policy_action(make_policy("P1"), Tick(state), 0, 0)
    assert act.kind in MOVE_KINDS
    d = MOVE_KINDS[act.kind]
    after = fort_distance(config, guard.x + d.dx, guard.y + d.dy)
    assert after < fort_distance(config, guard.x, guard.y)


def test_p1_guard_shoots_attacker_in_range_and_arc():
    config = GridConfig()
    guard = AgentState(0, AgentKind.GUARD, 10, 18, Direction.S)
    attacker = AgentState(3, AgentKind.ATTACKER, 10, 14, Direction.N)
    state = make_state(config, [guard, attacker])
    act = policy_action(make_policy("P1"), Tick(state), 0, 0)
    assert act == Action.shoot(3)


def test_b1600_rear_attacker_advances_when_guard_drawn():
    # rear attacker (rank 2 of 3, aggression 0.67 -> two aggressors), one
    # guard beyond drawn_radius: the rear stops holding and moves so that
    # its distance to the fort strictly decreases (it holds otherwise, see
    # the companion test below)
    config = GridConfig()
    spec = make_policy("B1600")
    drawn_guard = AgentState(0, AgentKind.GUARD, 10, 8, Direction.S)
    aggressor1 = AgentState(3, AgentKind.ATTACKER, 8, 6, Direction.N)
    aggressor2 = AgentState(4, AgentKind.ATTACKER, 12, 6, Direction.N)
    rear = AgentState(5, AgentKind.ATTACKER, 10, 10, Direction.N)
    state = make_state(config, [drawn_guard, aggressor1, aggressor2, rear])
    assert fort_distance(config, drawn_guard.x, drawn_guard.y) > spec.param(
        "drawn_radius"
    )
    act = policy_action(spec, Tick(state), 5, 0)
    assert act.kind in MOVE_KINDS
    d = MOVE_KINDS[act.kind]
    after = fort_distance(config, rear.x + d.dx, rear.y + d.dy)
    assert after < fort_distance(config, rear.x, rear.y)


def test_b1600_rear_attacker_holds_at_standoff_when_guards_home():
    # the full defense is home (two guards, neither drawn): the rear waits
    config = GridConfig()
    spec = make_policy("B1600")
    home_guard = AgentState(0, AgentKind.GUARD, 10, 18, Direction.S)
    home_guard2 = AgentState(1, AgentKind.GUARD, 8, 18, Direction.S)
    aggressor1 = AgentState(3, AgentKind.ATTACKER, 8, 6, Direction.N)
    aggressor2 = AgentState(4, AgentKind.ATTACKER, 12, 6, Direction.N)
    rear = AgentState(5, AgentKind.ATTACKER, 10, 10, Direction.N)
    state = make_state(
        config, [home_guard, home_guard2, aggressor1, aggressor2, rear]
    )
    act = policy_action(spec, Tick(state), 5, 0)
    assert act == Action.noop()


def test_dead_agent_noops_under_every_policy():
    config = GridConfig()
    agents = [
        AgentState(0, AgentKind.GUARD, 10, 18, Direction.S, alive=False),
        AgentState(3, AgentKind.ATTACKER, 10, 1, Direction.N),
    ]
    state = make_state(config, agents)
    for name in POLICY_NAMES:
        assert policy_action(make_policy(name), Tick(state), 0, 0) == Action.noop()


# ---------------------------------------------------------------------------
# invariants over whole episodes
# ---------------------------------------------------------------------------


def test_all_policies_emit_legal_actions():
    for name in ("P1", "P2") + BUILTIN_NAMES:
        for seed in (11, 12, 13):
            def check(state, joint):
                for agent_id, act in joint.items():
                    assert act in legal_actions(state, agent_id), (name, seed, act)

            run_episode(name, seed, on_tick=check)


def test_p1_guards_stay_close_to_fort():
    spec = make_policy("P1")
    for seed in (5, 6, 7):
        distances = []

        def record(state, joint):
            for g in state.guards():
                if g.alive:
                    distances.append(fort_distance(state.config, g.x, g.y))

        run_episode("P1", seed, on_tick=record)
        assert distances
        mean = sum(distances) / len(distances)
        assert mean <= spec.param("guard_radius") + 1


def test_p2_opening_spread_pairwise_non_decreasing():
    for seed in (21, 22, 23):
        history = []

        def record(state, joint):
            if state.step_count < 5:
                teams = {}
                for a in state.agents:
                    if a.alive:
                        teams.setdefault(a.kind.is_guard, []).append(a)
                snapshot = {}
                for side, members in teams.items():
                    for a, b in itertools.combinations(
                        sorted(members, key=lambda m: m.id), 2
                    ):
                        snapshot[(a.id, b.id)] = math.hypot(a.x - b.x, a.y - b.y)
                history.append(snapshot)

        run_episode("P2", seed, on_tick=record, max_steps=10)
        for before, after in zip(history, history[1:]):
            for pair, dist in before.items():
                if pair in after:
                    assert after[pair] >= dist - 1e-9, (seed, pair)


def test_b220_guards_never_leave_front_band():
    for seed in (31, 32):
        def check(state, joint):
            for g in state.guards():
                assert g.y >= state.config.height - 3, (seed, g)

        run_episode("B220", seed, on_tick=check)


def test_builtin_radius_ordering_is_monotone():
    radii = [make_policy(n).param("guard_radius") for n in BUILTIN_NAMES]
    assert radii == sorted(radii) and len(set(radii)) == 4


def test_b1600_guards_may_exceed_b1240_radius():
    # a guard at the edge of B1240's leash: B1600 pursues one cell deeper,
    # B1240's leash forbids it
    config = GridConfig()
    guard = AgentState(0, AgentKind.GUARD, 10, 10, Direction.S)
    bait = AgentState(3, AgentKind.ATTACKER, 10, 3, Direction.N)
    far = AgentState(4, AgentKind.ATTACKER, 1, 1, Direction.N)
    state = make_state(config, [guard, bait, far])
    act_1600 = policy_action(make_policy("B1600"), Tick(state), 0, 0)
    assert act_1600 == Action(ActionKind.MOVE_S)  # pursues outward
    act_1240 = policy_action(make_policy("B1240"), Tick(state), 0, 0)
    assert act_1240 != Action(ActionKind.MOVE_S)


def test_policy_episodes_are_deterministic():
    for name in ("P1", "P2", "B1600"):
        a = run_episode(name, 77)
        b = run_episode(name, 77)
        assert (a.outcome, a.steps) == (b.outcome, b.steps)


# ---------------------------------------------------------------------------
# golden scripted games
# ---------------------------------------------------------------------------

# sha256 per policy over one all-scripted game (GridConfig(), episode seed
# 1000, ad_hoc=False) played through loop.run_games with an example sink:
# every tick's joint action as "id:kind:target" items sorted by id, then
# "outcome|steps", then each collected example as its role, its label and
# the raw bytes of its float64 feature vector.  A refactor of the policies,
# the simulator or the features that keeps every scripted decision and
# every example keeps these values.
GOLDEN_SCRIPTED_SEED1000 = {
    "P1": "9f89446131bf8a3b105cb951625ce41c9e09a97438bce4f9d93258a0ee2f9216",
    "P2": "5d21d8f6a8bed907aa8cfa77fdc484905b8a6478b5458c4498e9d6ccb82cb39c",
    "B220": "33cb4cf42dec1ec789047d4b3e6ac50fdeba88933888aa44116794e94cd84afe",
    "B650": "2e242fd852e52c168a4f60ab3c35cb72c31feea65f35348738ce605b369fc2f8",
    "B1240": "5331bfd2ae1bdd7df5f66d7d6c0a0bd1e44787c713143d2c9edf2203cde6f861",
    "B1600": "1576e8f1d14a353506dee739d35410e4937de53741129caedf43733ddc3831db",
}


def _scripted_game_digest(policy: str, monkeypatch) -> str:
    h = hashlib.sha256()
    real_step = loop.step

    def recording_step(state, actions):
        joint = ",".join(
            f"{i}:{int(a.kind)}:{a.target}" for i, a in sorted(actions.items())
        )
        h.update(joint.encode() + b"\n")
        return real_step(state, actions)

    monkeypatch.setattr(loop, "step", recording_step)
    sink = {"guard": [], "attacker": []}
    stats = loop.run_games(
        GridConfig(), policy, 1, seed=1000, ad_hoc=False, example_sink=sink
    )
    episode = stats.episodes[0]
    h.update(f"{episode.outcome}|{episode.steps}\n".encode())
    for role in ("guard", "attacker"):
        for vec, label in sink[role]:
            h.update(f"{role}|{label}|".encode() + vec.tobytes() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN_SCRIPTED_SEED1000))
def test_golden_scripted_game(policy, monkeypatch):
    assert _scripted_game_digest(policy, monkeypatch) == GOLDEN_SCRIPTED_SEED1000[policy]


# The work of each seed-1000 game above: its ticks, and per tick one
# snapshot (``env.Tick``, counted wherever it is built), one ``extract``
# call and one ``step`` call.  A second snapshot of a tick, or a second
# pass of the features, shows here.
GOLDEN_SCRIPTED_WORK = {
    "P1": 34,
    "P2": 25,
    "B220": 36,
    "B650": 33,
    "B1240": 25,
    "B1600": 40,
}


@pytest.mark.parametrize("policy", sorted(GOLDEN_SCRIPTED_WORK))
def test_golden_scripted_work(policy, monkeypatch):
    work = dict.fromkeys(("Tick", "extract", "step"), 0)
    snapshot = Tick.__init__

    def counted_snapshot(self, state):
        work["Tick"] += 1
        snapshot(self, state)

    def counted(name, fn):
        def wrapper(*args):
            work[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Tick, "__init__", counted_snapshot)
    monkeypatch.setattr(loop, "extract", counted("extract", loop.extract))
    monkeypatch.setattr(loop, "step", counted("step", loop.step))
    sink = {"guard": [], "attacker": []}
    stats = loop.run_games(
        GridConfig(), policy, 1, seed=1000, ad_hoc=False, example_sink=sink
    )
    ticks = stats.episodes[0].steps
    assert ticks == GOLDEN_SCRIPTED_WORK[policy]
    assert work == dict.fromkeys(work, ticks)


# random() draws by P2's guard jitter in the seed-1000 games above; no other
# policy draws from its tick streams.
JITTER_DRAWS_SEED1000 = {"P2": 30}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_scripted_play_seeds_a_stream_only_to_draw(policy, monkeypatch):
    counts = {"made": 0, "draws": 0}

    class CountingRandom(random.Random):
        counting = True

        def __init__(self, *args):
            self.counted = CountingRandom.counting
            counts["made"] += self.counted
            super().__init__(*args)

        def random(self):
            counts["draws"] += self.counted
            return super().random()

        def getrandbits(self, k):
            # defined so that randrange keeps the base class's algorithm
            return super().getrandbits(k)

    real_reset = loop.reset

    def uncounted_reset(*args, **kwargs):
        CountingRandom.counting = False
        try:
            return real_reset(*args, **kwargs)
        finally:
            CountingRandom.counting = True

    monkeypatch.setattr(random, "Random", CountingRandom)
    monkeypatch.setattr(loop, "reset", uncounted_reset)
    sink = {"guard": [], "attacker": []}
    loop.run_games(GridConfig(), policy, 1, seed=1000, ad_hoc=False, example_sink=sink)
    draws = JITTER_DRAWS_SEED1000.get(policy, 0)
    assert counts == {"made": draws, "draws": draws}


# ---------------------------------------------------------------------------
# trajectory oracle beyond the default configuration
# ---------------------------------------------------------------------------

ORACLE_CONFIGS = {
    "range-3.5": GridConfig(shoot_range=3.5),
    "arc-180": GridConfig(shoot_arc_deg=180.0),
    "grid-30x30": GridConfig(width=30, height=30),
    "4v4": GridConfig(n_guards=4, n_attackers=4),
}


def _scripted_trajectory(config, policy, monkeypatch):
    """Every tick's state and joint action of one all-scripted game (episode
    seed 1000), then its outcome and length."""
    ticks = []
    real_step = loop.step

    def recording_step(state, actions):
        ticks.append((state.copy(), dict(actions)))
        return real_step(state, actions)

    with monkeypatch.context() as m:
        m.setattr(loop, "step", recording_step)
        episode = loop.run_games(config, policy, 1, seed=1000, ad_hoc=False).episodes[0]
    return ticks, episode.outcome, episode.steps


@pytest.mark.parametrize("config", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_the_geometry_tables_keep_every_scripted_decision(policy, config, monkeypatch):
    """A decision reads its moves, its shots, the danger cones and the
    strike posts from the tick's views; played once through the slow
    copies of the rules they replaced, every game stays the same."""
    asked = {"moves": [], "shots": [], "covered": 0, "posts": 0}

    def reference_moves(tick, agent_id):
        asked["moves"].append(agent_id)
        agent = tick.by_id[agent_id]
        return [
            (act, (agent.x + d.dx, agent.y + d.dy))
            for act in ref.legal_actions(tick.state, agent_id)
            if (d := MOVE_KINDS.get(act.kind))
        ]

    def reference_shots(tick, agent_id):
        asked["shots"].append(agent_id)
        return {
            act.target: act
            for act in ref.legal_actions(tick.state, agent_id)
            if act.kind is ActionKind.SHOOT
        }

    class ReferenceDanger:
        """Answers ``cell in tick.danger()`` with the copy's cone test."""

        def __init__(self, tick):
            self.tick = tick

        def __contains__(self, cell):
            asked["covered"] += 1
            guards = list(self.tick.live_guards)
            return ref._covered(self.tick.state.config, cell, guards, margin=1.5)

    def reference_posts(tick, mark):
        asked["posts"] += 1
        others = [g for g in tick.live_guards if g.id != mark.id]
        return set(ref.posts(tick.state.config, mark, others))

    with monkeypatch.context() as m:
        m.setattr(Tick, "moves", reference_moves)
        m.setattr(Tick, "shots", reference_shots)
        m.setattr(Tick, "danger", lambda tick: ReferenceDanger(tick))
        m.setattr(Tick, "strike_posts", reference_posts)
        want = _scripted_trajectory(config, policy, monkeypatch)
    # the reference rules listed the moves and the shots of every scripted
    # decision, and B1600's attackers asked the reference cone tests
    decisions = sorted(i for _, actions in want[0] for i in actions)
    assert sorted(asked["moves"]) == sorted(asked["shots"]) == decisions
    if policy == "B1600":
        assert asked["covered"] and asked["posts"]
    assert _scripted_trajectory(config, policy, monkeypatch) == want
