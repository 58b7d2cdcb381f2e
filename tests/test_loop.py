"""Tests for the ad hoc control loop and episode runner.

The central invariant: after every tick that the controlled guard starts
alive, the controller's belief agrees exactly with the observable world
(poses, facings, who is down), whether the update came from symbolic
progression or from the observation reconciliation fallback; once the
guard is down, the belief stays as it was.  Translation of simulator
outcomes into action atoms is checked against hand-resolved scenarios.
"""

import hashlib
import json
import random

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from fortdefense.env import (
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    Direction,
    GridConfig,
    MOVE_KINDS,
    ShotEvent,
    Tick,
    WorldState,
    legal_actions,
    reset,
    step,
    terminal,
)
from fortdefense import loop
from fortdefense.explain import EpisodeTrace, load_traces, save_traces
from fortdefense.kr.beliefs import (
    Belief,
    check_executable,
    close_defined,
    observe_world,
    progress,
    validate,
)
from fortdefense.kr.ground import CCW, CW, SYMBOL_OF_DIR, agent_symbol, ground, restrict
from fortdefense.kr.lang import Atom
from fortdefense.loop import (
    AdHocController,
    build_schedule,
    effective_atoms,
    load_domain,
    predicted_cell,
    run_games,
    tick_seed,
)
from fortdefense import models
from fortdefense.models import ModelLibrary, learn_stacked, save_library

import numpy as np
from reference_plan import reference_plan


def make_state(config, agents, step_count=0) -> WorldState:
    ids = [a.id for a in agents]
    return WorldState(
        config=config,
        agents=agents,
        step_count=step_count,
        shots_fired={i: 0 for i in ids},
        shots_hit={i: 0 for i in ids},
    )


@pytest.fixture(scope="module")
def small_config():
    return GridConfig(width=8, height=8, n_guards=2, n_attackers=2, max_steps=60)


@pytest.fixture(scope="module")
def slow_config():
    """Close-range variant: episodes last long enough for online learning."""
    return GridConfig(
        width=10, height=10, n_guards=2, n_attackers=2,
        shoot_range=3.0, max_steps=80,
    )


@pytest.fixture(scope="module")
def small_gdom(small_config):
    return ground(load_domain(), small_config)


def belief_of(state, gdom, extra=()):
    positives = [lit.atom for lit in observe_world(state, gdom) if lit.positive]
    return Belief(close_defined(list(positives) + list(extra), gdom))


# ---------------------------------------------------------------------------
# effective-action translation against hand-resolved ticks
# ---------------------------------------------------------------------------


class TestEffectiveAtoms:
    def test_plain_moves_own_and_exogenous(self, small_config):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 3, 6, Direction.S),
                AgentState(1, AgentKind.GUARD, 5, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 3, 1, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 5, 1, Direction.N),
            ],
        )
        actions = {
            0: Action.move(Direction.S),
            1: Action.noop(),
            2: Action.move(Direction.N),
            3: Action.move(Direction.E),
        }
        nxt, events = step(state, actions)
        atoms = effective_atoms(small_config, state, actions, nxt, events)
        assert atoms == (
            Atom("move", ("guard0", 3, 5)),
            Atom("move", ("attacker1", 3, 2)),
            Atom("move", ("attacker2", 6, 1)),
        )

    def test_cancelled_move_contributes_nothing(self, small_config):
        # attacker1 walks into guard1's (stationary) cell: the simulator
        # cancels the move, so no atom may claim it happened.
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 4, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 1, Direction.N),
            ],
        )
        actions = {
            0: Action.noop(),
            1: Action.noop(),
            2: Action.move(Direction.N),
            3: Action.noop(),
        }
        nxt, events = step(state, actions)
        assert nxt.get(2).pos == (4, 3)
        atoms = effective_atoms(small_config, state, actions, nxt, events)
        assert atoms == ()

    def test_chain_move_produces_both_atoms(self, small_config):
        # guard1 vacates (4, 4); attacker1 enters it the same tick.  The
        # simulator allows the chain, and both moves really happened.
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 4, Direction.W),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 1, Direction.N),
            ],
        )
        actions = {
            0: Action.noop(),
            1: Action.move(Direction.N),
            2: Action.move(Direction.N),
            3: Action.noop(),
        }
        nxt, events = step(state, actions)
        assert nxt.get(1).pos == (4, 5) and nxt.get(2).pos == (4, 4)
        atoms = effective_atoms(small_config, state, actions, nxt, events)
        assert atoms == (
            Atom("move", ("guard1", 4, 5)),
            Atom("move", ("attacker1", 4, 4)),
        )

    def test_hit_miss_and_killed_rotation(self, small_config):
        # guard1 faces attacker1 two cells south: hit.  attacker2 shoots
        # from behind guard1's victim... attacker1 dies mid-tick, so its
        # rotation never happens.  attacker2's own shot misses (guard1 is
        # out of its arc), contributing no atom.
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 5, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 7, 0, Direction.S),
            ],
        )
        actions = {
            0: Action.noop(),
            1: Action.shoot(2),
            2: Action(ActionKind.ROTATE_CW),
            3: Action.shoot(1),
        }
        nxt, events = step(state, actions)
        assert not nxt.get(2).alive
        assert nxt.get(2).direction == Direction.N  # rotation suppressed
        atoms = effective_atoms(small_config, state, actions, nxt, events)
        assert atoms == (Atom("shoot", ("guard1", "attacker1")),)

    def test_own_shot_and_rotation_atoms(self, small_config):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 4, 5, Direction.S),
                AgentState(1, AgentKind.GUARD, 0, 7, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 2, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 1, Direction.E),
            ],
        )
        actions = {
            0: Action.shoot(2),
            1: Action(ActionKind.ROTATE_CCW),
            2: Action.noop(),
            3: Action(ActionKind.ROTATE_CW),
        }
        nxt, events = step(state, actions)
        atoms = effective_atoms(small_config, state, actions, nxt, events)
        assert atoms == (
            Atom("shoot", ("guard0", "attacker1")),
            Atom("rotate", ("guard1", "e")),
            Atom("rotate", ("attacker2", "s")),
        )

    def test_dead_agents_contribute_nothing(self, small_config):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 5, Direction.S, alive=False),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 1, Direction.N),
            ],
        )
        actions = {
            0: Action.noop(),
            1: Action.noop(),  # dropped by the simulator with a warning
            2: Action.noop(),
            3: Action.noop(),
        }
        nxt, events = step(state, actions)
        atoms = effective_atoms(small_config, state, actions, nxt, events)
        assert atoms == ()


# ---------------------------------------------------------------------------
# prediction-to-atom helpers
# ---------------------------------------------------------------------------


class TestPredictionHelpers:
    def test_predicted_cell_moves_and_clamps(self, small_config):
        assert predicted_cell(small_config, (3, 3), int(ActionKind.MOVE_N)) == (3, 4)
        assert predicted_cell(small_config, (3, 3), int(ActionKind.MOVE_E)) == (4, 3)
        assert predicted_cell(small_config, (3, 3), int(ActionKind.MOVE_S)) == (3, 2)
        assert predicted_cell(small_config, (3, 3), int(ActionKind.MOVE_W)) == (2, 3)
        assert predicted_cell(small_config, (0, 0), int(ActionKind.MOVE_W)) == (0, 0)
        assert predicted_cell(small_config, (3, 3), int(ActionKind.SHOOT)) == (3, 3)
        assert predicted_cell(small_config, (3, 3), int(ActionKind.NOOP)) == (3, 3)

    def test_schedule_tracks_simulated_positions(self, small_config, small_gdom):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 7, 7, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 0, Direction.N),
            ],
        )
        belief = belief_of(state, small_gdom)
        schedule = build_schedule(
            belief, small_gdom, {"attacker1": int(ActionKind.MOVE_N)}, 4
        )
        assert schedule == [
            (Atom("move", ("attacker1", 4, 4)),),
            (Atom("move", ("attacker1", 4, 5)),),
            (Atom("move", ("attacker1", 4, 6)),),
            (Atom("move", ("attacker1", 4, 7)),),
        ]

    def test_schedule_stops_at_the_wall(self, small_config, small_gdom):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 7, 7, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 3, 1, Direction.N),
            ],
        )
        belief = belief_of(state, small_gdom)
        schedule = build_schedule(
            belief, small_gdom, {"attacker2": int(ActionKind.MOVE_S)}, 3
        )
        assert schedule == [
            (Atom("move", ("attacker2", 3, 0)),),
            (),
            (),
        ]

    def test_schedule_shoot_targets_nearest_living_guard(
        self, small_config, small_gdom
    ):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 1, 6, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 0, Direction.N),
            ],
        )
        belief = belief_of(state, small_gdom)
        schedule = build_schedule(
            belief, small_gdom, {"attacker1": int(ActionKind.SHOOT)}, 1
        )
        assert schedule == [(Atom("shoot", ("attacker1", "guard1")),)]

    def test_schedule_skips_dead_and_noop(self, small_config, small_gdom):
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 1, 6, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N, alive=False),
                AgentState(3, AgentKind.ATTACKER, 6, 0, Direction.N),
            ],
        )
        belief = belief_of(state, small_gdom)
        schedule = build_schedule(
            belief,
            small_gdom,
            {
                "attacker1": int(ActionKind.MOVE_N),
                "attacker2": int(ActionKind.NOOP),
            },
            2,
        )
        assert schedule == [(), ()]

    def test_schedule_drops_a_shot_the_shooter_cannot_see(
        self, small_config, small_gdom
    ):
        # attacker1 faces south, away from guard1 three cells north of it
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 1, 6, Direction.S),
                AgentState(1, AgentKind.GUARD, 4, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.S),
                AgentState(3, AgentKind.ATTACKER, 6, 0, Direction.N),
            ],
        )
        belief = belief_of(state, small_gdom)
        shot = Atom("shoot", ("attacker1", "guard1"))
        ok, blocker = check_executable(belief, shot, small_gdom)
        assert not ok and blocker[0].axiom_id == "exec:9"  # the sight condition
        schedule = build_schedule(
            belief, small_gdom, {"attacker1": int(ActionKind.SHOOT)}, 3
        )
        assert schedule == [(), (), ()]

    def test_schedule_keeps_the_shot_once_the_target_comes_into_sight(
        self, small_config, small_gdom
    ):
        # attacker1 at (4, 1) faces north; guard1, its nearest guard, walks
        # north from (1, 2) and enters the arc at (1, 4), two ticks on: the
        # shot is scheduled from that depth, and it lands, so guard1 is
        # down (it neither moves nor is shot at) after it
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 1, 2, Direction.E),
                AgentState(2, AgentKind.ATTACKER, 4, 1, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 7, 0, Direction.N),
            ],
        )
        belief = belief_of(state, small_gdom)
        kinds = {"attacker1": int(ActionKind.SHOOT), "guard1": int(ActionKind.MOVE_N)}
        schedule = build_schedule(belief, small_gdom, kinds, 4)
        assert schedule == [
            (Atom("move", ("guard1", 1, 3)),),
            (Atom("move", ("guard1", 1, 4)),),
            (Atom("shoot", ("attacker1", "guard1")), Atom("move", ("guard1", 1, 5))),
            (),
        ]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="kr.beliefs.progress applies the move of an agent that a "
        "simultaneous shot kills, which env.step does not (the FOUND line on "
        "the corpse's move in CHANGES.md)",
    )
    def test_progress_leaves_a_mover_shot_this_tick_where_it_fell(
        self, small_config, small_gdom
    ):
        # the depth-2 state of the schedule above: guard1 has walked to
        # (1, 4), into attacker1's arc, and moves on as the shot lands
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 0, 7, Direction.S),
                AgentState(1, AgentKind.GUARD, 1, 4, Direction.E),
                AgentState(2, AgentKind.ATTACKER, 4, 1, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 7, 0, Direction.N),
            ],
        )
        joint = {0: Action.noop(), 2: Action.shoot(1), 3: Action.noop()}
        nxt, _ = step(state, {**joint, 1: Action(ActionKind.MOVE_N)})
        assert not nxt.get(1).alive and (nxt.get(1).x, nxt.get(1).y) == (1, 4)
        after = progress(
            belief_of(state, small_gdom),
            (Atom("shoot", ("attacker1", "guard1")), Atom("move", ("guard1", 1, 5))),
            small_gdom,
        )
        assert Atom("shot", ("guard1",)) in after.atoms
        assert Atom("in", ("guard1", 1, 4)) in after.atoms


# ---------------------------------------------------------------------------
# the controller in closed loop with the simulator
# ---------------------------------------------------------------------------


def drive_episode(config, controller, seed, policy="P1"):
    """Run one scripted-vs-controller episode, asserting the belief/world
    agreement invariant on every tick the guard starts alive, and that the
    belief stays fixed from then on; returns the tick count."""
    from fortdefense.policies import make_policy, policy_action

    spec = make_policy(policy)
    state = reset(config, seed, ad_hoc=True)
    controller.begin_episode(state, seed=seed, policy=policy)
    gdom = controller.gdom
    ticks = 0
    while terminal(state) is None:
        was_up = state.get(controller.ah_id).alive
        belief = controller.belief
        actions = {}
        tick = Tick(state)
        for agent in state.agents:
            if not agent.alive:
                continue
            if agent.id == controller.ah_id:
                act = controller.act(state)
                ok, blocker = check_executable(
                    controller.belief, controller._pending.chosen, gdom
                )
                assert ok, f"controller chose blocked action: {blocker}"
                actions[agent.id] = act
            else:
                seed_t = tick_seed(seed, state.step_count, agent.id)
                actions[agent.id] = policy_action(spec, tick, agent.id, seed_t)
        nxt, events = step(state, actions)
        controller.observe(state, actions, nxt, events)
        if was_up:
            for lit in observe_world(nxt, gdom):
                assert controller.belief.holds(lit), (
                    f"belief diverged from world on {lit} at tick {nxt.step_count}"
                )
        else:
            assert controller.belief is belief, f"belief moved at tick {nxt.step_count}"
        state = nxt
        ticks += 1
    return ticks


class TestControllerLoop:
    def test_belief_tracks_world_every_tick(self, small_config):
        controller = AdHocController(small_config, refit=False)
        total = 0
        for seed in (0, 1, 2):
            total += drive_episode(small_config, controller, seed)
        assert total > 10

    def test_goal_holds_yields_noop(self, small_config):
        # all attackers down: nothing to shoot, face, or occupy
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 3, 6, Direction.S),
                AgentState(1, AgentKind.GUARD, 5, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 2, Direction.N, alive=False),
                AgentState(3, AgentKind.ATTACKER, 6, 1, Direction.N, alive=False),
            ],
        )
        controller = AdHocController(small_config, refit=False)
        controller.begin_episode(state)
        action = controller.act(state)
        assert action == Action.noop()
        assert controller._pending.chosen == Atom("noop", ("guard0",))

    def test_acting_for_a_downed_guard_is_refused(self, small_config):
        # run_games stops asking the controller once its guard is down
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 3, 6, Direction.S, alive=False),
                AgentState(1, AgentKind.GUARD, 5, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 2, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 6, 1, Direction.N),
            ],
        )
        controller = AdHocController(small_config, refit=False)
        controller.begin_episode(state)
        with pytest.raises(ValueError, match="guard 0"):
            controller.act(state)

    def test_plan_reuse_occurs(self):
        config = GridConfig(width=12, height=12, n_guards=2, n_attackers=2, max_steps=60)
        controller = AdHocController(config, refit=False, collect_trace=True)
        drive_episode(config, controller, seed=3)
        steps = controller.record.steps
        replans = sum(s.replanned for s in steps)
        decisions = sum(1 for s in steps if s.chosen is not None)
        assert 0 < replans < decisions

    def test_observation_keeps_no_provenance_and_a_trace_replays_it(
        self, small_config, w0_p1_record, tmp_path, monkeypatch
    ):
        """The observation step progresses without a trace, whether or not
        traces are collected; a trace replays each step's provenance, and
        a recorded and a saved-then-loaded trace replay the same entries in
        the same order."""
        traces = []  # the trace= each observation step hands to progress
        observing = []
        observe, progress = AdHocController.observe, loop.progress

        def watched_observe(self, *args):
            observing.append(True)
            try:
                return observe(self, *args)
            finally:
                observing.pop()

        def watched_progress(*args, **kwargs):
            if observing:
                traces.append(kwargs.get("trace"))
            return progress(*args, **kwargs)

        monkeypatch.setattr(AdHocController, "observe", watched_observe)
        monkeypatch.setattr(loop, "progress", watched_progress)
        # P1 seed 1: the ad hoc guard is down after two of the four ticks,
        # and the belief of a downed guard is not progressed
        for collect_traces in (False, True):
            traces.clear()
            stats = run_games(
                small_config, "P1", 1, seed=1, refit=False, collect_traces=collect_traces
            )
            assert traces == [None] * 2
        (record,) = stats.records
        assert (len(record.steps), record.n_steps) == (2, 4)
        assert all(EpisodeTrace.from_record(record, small_config).provenance.values())

        recorded = EpisodeTrace.from_record(w0_p1_record, GridConfig())
        path = tmp_path / "trace.jsonl"
        save_traces([w0_p1_record], GridConfig(), path)
        (loaded,) = load_traces(path)
        assert list(recorded.provenance) == [s.step for s in w0_p1_record.steps]
        assert loaded.provenance == recorded.provenance

    def test_one_grounding_per_config_and_horizon(self, monkeypatch):
        config = GridConfig(width=9, height=9, n_guards=2, n_attackers=2, max_steps=33)
        groundings = []
        original = loop.ground

        def counted(*args, **kwargs):
            groundings.append(kwargs.get("horizon"))
            return original(*args, **kwargs)

        monkeypatch.setattr(loop, "ground", counted)
        first = AdHocController(config)
        second = AdHocController(config, refit=False)
        trace = EpisodeTrace(
            config=config,
            seed=0,
            policy="",
            horizon=8,
            completion_applied=(),
            completion_retracted=(),
            steps=[],
            final_belief=None,
            outcome="",
            n_steps=0,
            guards_win=False,
        )
        assert first.gdom is second.gdom is trace.gdom
        assert groundings == [8]
        short = AdHocController(config, horizon=5)
        assert short.gdom is not first.gdom
        assert short.gdom.sorts["step"] == tuple(range(6))
        assert AdHocController(config, horizon=5).gdom is short.gdom
        assert groundings == [8, 5]

    def test_shoot_translation_kills(self, small_config):
        # place the controlled guard with an attacker straight ahead in
        # range: priority-1 goal, one-step plan, lethal shot
        state = make_state(
            small_config,
            [
                AgentState(0, AgentKind.AD_HOC_GUARD, 4, 6, Direction.S),
                AgentState(1, AgentKind.GUARD, 0, 6, Direction.S),
                AgentState(2, AgentKind.ATTACKER, 4, 3, Direction.N),
                AgentState(3, AgentKind.ATTACKER, 7, 0, Direction.N),
            ],
        )
        controller = AdHocController(small_config, refit=False)
        controller.begin_episode(state)
        action = controller.act(state)
        assert action == Action.shoot(2)
        nxt, events = step(
            state,
            {0: action, 1: Action.noop(), 2: Action.noop(), 3: Action.noop()},
        )
        assert not nxt.get(2).alive
        controller.observe(
            state,
            {0: action, 1: Action.noop(), 2: Action.noop(), 3: Action.noop()},
            nxt,
            events,
        )
        assert Atom("shot", ("attacker1",)) in controller.belief.atoms


# ---------------------------------------------------------------------------
# the symbolic model against the simulator
# ---------------------------------------------------------------------------

AGREEMENT_CONFIGS = (
    GridConfig(),
    GridConfig(n_guards=4, n_attackers=4),
    GridConfig(n_guards=2, n_attackers=4),
    GridConfig(shoot_arc_deg=180.0),
)


@pytest.fixture(scope="module")
def agreement_gdoms():
    domain = load_domain()
    return [ground(domain, config) for config in AGREEMENT_CONFIGS]


def tick_events(before, actions, after, events):
    """The rarer simulator outcomes a tick shows, for ``hypothesis.event``."""
    hits = {(e.shooter, e.target) for e in events if isinstance(e, ShotEvent) and e.hit}
    killed = {a.id for a in before.agents if a.alive and not after.get(a.id).alive}
    moves = {i: MOVE_KINDS[a.kind] for i, a in actions.items() if a.kind in MOVE_KINDS}
    rotations = {i for i, a in actions.items() if a.kind in ROTATE_KINDS}
    dest = [
        (before.get(i).x + d.dx, before.get(i).y + d.dy)
        for i, d in moves.items()
        if i not in killed
    ]
    if any((t, s) in hits for s, t in hits):
        yield "mutual kill"
    if len(dest) > len(set(dest)):
        yield "contested cell"
    if moves.keys() & killed:
        yield "killed mover"
    if rotations & killed:
        yield "killed rotator"


ROTATE_KINDS = (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW)


@st.composite
def mid_game_states(draw, config):
    """A valid state of an episode under way: every agent, corpses too, on
    a cell of its own, any facing, any agent down but one per side, no
    living attacker on the fort, some steps left.  The agents crowd a
    random window of the grid, so that shots and contested cells occur."""
    n = config.n_guards + config.n_attackers
    w, h = draw(st.integers(3, config.width)), draw(st.integers(3, config.height))
    x0, y0 = draw(st.integers(0, config.width - w)), draw(st.integers(0, config.height - h))
    cell = st.tuples(st.integers(x0, x0 + w - 1), st.integers(y0, y0 + h - 1))
    cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    alive[draw(st.integers(0, config.n_guards - 1))] = True
    alive[config.n_guards + draw(st.integers(0, config.n_attackers - 1))] = True
    agents = [
        AgentState(
            i,
            AgentKind.AD_HOC_GUARD if i == 0
            else AgentKind.GUARD if i < config.n_guards
            else AgentKind.ATTACKER,
            x,
            y,
            draw(st.sampled_from(list(Direction))),
            alive[i],
        )
        for i, (x, y) in enumerate(cells)
    ]
    state = make_state(config, agents, draw(st.integers(0, config.max_steps - 1)))
    assume(terminal(state) is None)
    return state


@settings(max_examples=80, deadline=None)
@given(
    config_index=st.integers(0, len(AGREEMENT_CONFIGS) - 1),
    mid_game=st.booleans(),
    data=st.data(),
    choice_seed=st.integers(0, 2**32 - 1),
)
def test_the_symbolic_model_agrees_with_the_simulator(
    agreement_gdoms, config_index, mid_game, data, choice_seed
):
    """Random legal joint actions from a fresh episode or from a random
    mid-game state, to the episode's end: every atom that describes the
    tick is executable in the belief (so ``progress`` drops nothing),
    progressing through them reproduces the observation, and the result
    satisfies every state constraint."""
    config, gdom = AGREEMENT_CONFIGS[config_index], agreement_gdoms[config_index]
    choices = random.Random(choice_seed)
    if mid_game:
        state = data.draw(mid_game_states(config), label="state")
    else:
        state = reset(config, data.draw(st.integers(0, 10_000), label="seed"))
    event("from a mid-game state" if mid_game else "from reset")
    belief = belief_of(state, gdom)
    validate(belief, gdom)
    while terminal(state) is None:
        actions = {
            a.id: choices.choice(legal_actions(state, a.id))
            for a in state.agents
            if a.alive
        }
        after, events = step(state, actions)
        atoms = effective_atoms(config, state, actions, after, events)
        for atom in atoms:
            ok, blocker = check_executable(belief, atom, gdom)
            assert ok, (atom, blocker and blocker[0].axiom_id, state.step_count)
        belief = progress(belief, atoms, gdom)
        for lit in observe_world(after, gdom):
            assert belief.holds(lit), (lit, state.step_count)
        validate(belief, gdom)
        for name in tick_events(state, actions, after, events):
            event(name)
        state = after


def candidate_atoms(state, agent):
    """An agent's candidate action atoms, each with the simulator action it
    denotes: a move to each neighbouring cell of the grid, both quarter
    turns, and a shot at every other agent, dead or alive."""
    config = state.config
    sym, facing = agent_symbol(config, agent.id), SYMBOL_OF_DIR[agent.direction]
    out = {
        Atom("move", (sym, agent.x + d.dx, agent.y + d.dy)): Action.move(d)
        for d in Direction
        if config.in_bounds(agent.x + d.dx, agent.y + d.dy)
    }
    out[Atom("rotate", (sym, CW[facing]))] = Action(ActionKind.ROTATE_CW)
    out[Atom("rotate", (sym, CCW[facing]))] = Action(ActionKind.ROTATE_CCW)
    for other in state.agents:
        if other.id != agent.id:
            out[Atom("shoot", (sym, agent_symbol(config, other.id)))] = Action.shoot(other.id)
    return out


@settings(max_examples=150, deadline=None)
@given(config_index=st.integers(0, len(AGREEMENT_CONFIGS) - 1), data=st.data())
def test_the_model_refuses_exactly_the_actions_the_simulator_refuses(
    agreement_gdoms, config_index, data
):
    """From a random mid-game state, for every living agent, the guard and
    everyone else alike: of its candidate atoms, ``check_executable`` on the
    full grid admits exactly the agent's non-noop ``Tick.legal_actions``.
    A shot at an unseen target, a teammate or a corpse is refused."""
    config, gdom = AGREEMENT_CONFIGS[config_index], agreement_gdoms[config_index]
    state = data.draw(mid_game_states(config), label="state")
    belief = belief_of(state, gdom)
    tick = Tick(state)
    for agent in state.agents:
        if not agent.alive:
            continue
        candidates = candidate_atoms(state, agent)
        admitted = {
            action
            for atom, action in candidates.items()
            if check_executable(belief, atom, gdom)[0]
        }
        legal = set(tick.legal_actions(agent.id)) - {Action.noop()}
        assert admitted == legal, (agent.id, admitted ^ legal)
        for action in candidates.values():
            if action.kind is ActionKind.SHOOT and action not in legal:
                target = state.get(action.target)
                if not target.alive:
                    event("a shot at a corpse refused")
                elif target.kind.is_guard == agent.kind.is_guard:
                    event("a shot at a teammate refused")
                else:
                    event("a shot out of sight refused")


# ---------------------------------------------------------------------------
# episode runner
# ---------------------------------------------------------------------------


class TestRunGames:
    def test_deterministic_repetition(self, small_config):
        a = run_games(
            small_config, "P1", 2, seed=11, ad_hoc=True, refit=False,
            collect_traces=True,
        )
        b = run_games(
            small_config, "P1", 2, seed=11, ad_hoc=True, refit=False,
            collect_traces=True,
        )
        assert [vars(x) for x in a.episodes] == [vars(x) for x in b.episodes]
        for ra, rb in zip(a.records, b.records):
            assert len(ra.steps) == len(rb.steps)
            for sa, sb in zip(ra.steps, rb.steps):
                assert sa.belief == sb.belief
                assert sa.goal == sb.goal
                assert sa.chosen == sb.chosen
                assert sa.executed == sb.executed
                assert sa.fine_regions == sb.fine_regions
                assert sa.predictions == sb.predictions

    def test_baseline_runs_and_accounts(self, small_config):
        stats = run_games(small_config, "P2", 3, seed=5, ad_hoc=False)
        assert len(stats.episodes) == 3
        for e in stats.episodes:
            assert e.outcome in {
                "attackers_win_fort",
                "guards_win_elimination",
                "attackers_win_elimination",
                "guards_win_timeout",
            }
            assert 0 < e.steps <= small_config.max_steps
            assert e.adhoc_shots_hit <= e.adhoc_shots_fired
            assert e.adhoc_shots_fired <= e.guard_shots_fired
            assert e.pred_total == 0

    def test_example_sink_shapes_and_determinism(self, small_config):
        sink1 = {"guard": [], "attacker": []}
        sink2 = {"guard": [], "attacker": []}
        run_games(small_config, "P1", 2, seed=9, ad_hoc=False, example_sink=sink1)
        run_games(small_config, "P1", 2, seed=9, ad_hoc=False, example_sink=sink2)
        assert len(sink1["guard"]) > 0 and len(sink1["attacker"]) > 0
        for role in ("guard", "attacker"):
            assert len(sink1[role]) == len(sink2[role])
            for (v1, k1), (v2, k2) in zip(sink1[role], sink2[role]):
                assert np.array_equal(v1, v2) and k1 == k2
            for vec, kind in sink1[role]:
                assert len(vec) == 39
                assert 0 <= kind <= 7

    def test_tick_rng_streams(self):
        def stream(*key):
            return random.Random(tick_seed(*key)).random()

        assert stream(3, 5, 1) == random.Random(
            (3 * 1_000_003 + 5) * 1_000_003 + 1
        ).random()
        assert stream(3, 5, 1) != stream(3, 5, 2)
        assert stream(3, 5, 1) == stream(3, 5, 1)


# ---------------------------------------------------------------------------
# online model bookkeeping
# ---------------------------------------------------------------------------


def constant_model(kind: int):
    """A stacked model fitted to a single constant label."""
    X = np.zeros((8, 39))
    X[:, 0] = np.arange(8)
    y = np.full(8, kind, dtype=int)
    return learn_stacked(X, y)


class TestOnlineModels:
    def test_cold_start_learns_a_model(self, slow_config):
        lib = ModelLibrary()
        stats = run_games(slow_config, "P1", 6, seed=31, ad_hoc=True, library=lib)
        assert lib.models, "no model learned from a cold start"
        assert set(lib.assignment) <= {1, 2, 3}
        assert any(e.pred_total > 0 for e in stats.episodes)

    def test_trackers_switch_away_from_bad_model(self, slow_config):
        # model 0 spins in place (almost never what a scripted agent does);
        # model 1 is fitted to the actual policy.  The windowed agreement
        # of model 0 collapses within a few ticks and every assignment
        # must leave it.
        sink = {"guard": [], "attacker": []}
        run_games(slow_config, "P1", 3, seed=71, ad_hoc=False, example_sink=sink)
        rows = sink["guard"] + sink["attacker"]
        X = np.array([v for v, _ in rows])
        y = np.array([k for _, k in rows])
        lib = ModelLibrary()
        lib.models[0] = constant_model(int(ActionKind.ROTATE_CCW))
        lib.models[1] = learn_stacked(X, y)
        run_games(
            slow_config, "P1", 2, seed=41, ad_hoc=True, library=lib, refit=False
        )
        assert lib.assignment and all(
            tid != 0 for tid in lib.assignment.values()
        )

    def test_refit_disabled_never_adds_models(self, small_config):
        lib = ModelLibrary()
        lib.models[0] = constant_model(int(ActionKind.NOOP))
        run_games(
            small_config, "P1", 2, seed=51, ad_hoc=True, library=lib, refit=False
        )
        assert set(lib.models) == {0}


# ---------------------------------------------------------------------------
# golden decisions
# ---------------------------------------------------------------------------

# sha256 over one W0 episode's decisions (GridConfig(), P1, episode seed 0,
# horizon 8): per decision step "policy|seed|step|goal kind:target|chosen
# atom|plan length", then "policy|seed|outcome|outcome|steps", one item per
# line.  A refactor that keeps every decision keeps this value.
GOLDEN_W0_P1_SEED0 = "5c98a84ccad93ed77d3364bd2e7e57ac23c005e66ea498bb4b01534f0ff5e8f1"

# The same episode's search effort and provenance.  316 is the nodes the
# breadth-first reference planner expands, summed over the episode's
# replanned steps, each replayed on the step's own restriction and rebuilt
# schedule; it was the package planner's count until the search became
# iterative deepening, whose count (summed over its iterations) is the
# second pin.  It fell from 25 to 21 when the shot bound began to read the
# schedule: step 10's 4-step shot at a target that stays put expands 4
# nodes, not 8, since the target no longer counts as closing in.  The
# provenance pin is a sha256 over each step's provenance, replayed by
# ``EpisodeTrace``, as a version-3 trace file stored it (``v3_provenance``,
# one JSON list per line), which keeps it independent of the in-memory
# order; the file has saved no provenance since version 4.  It is the pin
# computed before progression became delta-driven, over the same entries
# less the "inherited" ones (an inherited atom is whatever the next belief
# holds that the tick did not set) and less the axiom text (an entry cites
# its rule by axiom id alone).  It was re-pinned
# when the domain declared each action once: the other agents' entries
# cite ``move``/``rotate``/``shoot`` and causal:1-3, and step 12's shot at
# guard0 has no support, since its sight test is an executability
# condition now, not a condition of the causal law.
GOLDEN_W0_P1_SEED0_EXPANDED = 316
GOLDEN_W0_P1_SEED0_DEEPENING_EXPANDED = 21
GOLDEN_W0_P1_SEED0_PROVENANCE = (
    "c1d3d47c832eec3ce1eaa672536455ac067303785bccd5d2f0ba8b3aee9612bd"
)


def test_golden_w0_episode_decisions(w0_p1_record):
    rec = w0_p1_record
    h = hashlib.sha256()
    for s in rec.steps:
        item = (
            f"{rec.policy}|{rec.seed}|{s.step}|{s.goal.kind}:{s.goal.target}"
            f"|{s.chosen}|{len(s.plan_actions)}"
        )
        h.update(item.encode() + b"\n")
    h.update(f"{rec.policy}|{rec.seed}|outcome|{rec.outcome}|{rec.n_steps}\n".encode())
    assert h.hexdigest() == GOLDEN_W0_P1_SEED0


_HOW_ORDER = {"direct": 0, "derived": 1, "retracted": 2}


def v3_provenance(entries) -> list[dict]:
    """Provenance entries as a version-3 trace file saved them: each as a
    JSON object that cites its rule by axiom id and a missing action as "",
    sorted by how, atom, axiom id and action."""
    rows = [
        {
            "atom": str(p.atom),
            "how": p.how,
            "axiom_id": p.rule.axiom_id,
            "action": "" if p.action is None else str(p.action),
            "support": [str(l) for l in p.support],
        }
        for p in entries
    ]
    return sorted(
        rows, key=lambda d: (_HOW_ORDER[d["how"]], d["atom"], d["axiom_id"], d["action"])
    )


def test_golden_w0_episode_search_and_provenance(w0_p1_record):
    steps = w0_p1_record.steps
    gdom = ground(load_domain(), GridConfig(), horizon=8)
    reference_expanded = 0
    for s in steps:
        if not s.replanned:
            continue
        gdom_t = restrict(gdom, s.fine_regions)
        schedule = build_schedule(s.belief, gdom_t, s.predictions, 8)
        ref = reference_plan(s.belief, s.goal, gdom_t, horizon=8, schedule=schedule)
        assert (ref.actions, ref.success) == (s.plan_actions, s.plan_success)
        reference_expanded += ref.expanded
    assert reference_expanded == GOLDEN_W0_P1_SEED0_EXPANDED
    assert sum(s.plan_expanded for s in steps) == GOLDEN_W0_P1_SEED0_DEEPENING_EXPANDED
    provenance = EpisodeTrace.from_record(w0_p1_record, GridConfig()).provenance
    h = hashlib.sha256()
    for s in steps:
        entries = v3_provenance(provenance[s.step])
        h.update(json.dumps(entries, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_W0_P1_SEED0_PROVENANCE


# ---------------------------------------------------------------------------
# W0 model bookkeeping and work counts
# ---------------------------------------------------------------------------

# One W0 pass as the benchmark's adhoc-w0 workload plays it: P1, B220 and
# B1600, three episodes each from episode seed 0, horizon 8, each policy
# from an empty library.  Per policy: each episode's (pred_correct,
# pred_total), the library's model count, and the sha256 of the
# ``save_library`` file after the block, which pins the refitted models,
# the agreement trackers and the assignments.
GOLDEN_W0_MODELS = {
    "P1": (
        [(0, 0), (0, 0), (26, 35)],
        5,
        "624983df62ec05c7a6b12f9719780a3dbca99eb611da9e978edb36a56a9e3ecf",
    ),
    "B220": (
        [(0, 0), (0, 0), (27, 44)],
        5,
        "ad093593fa6f0d2515afc15aa3ef794208dc04c51bd5075f3405b6515fe66fbe",
    ),
    "B1600": (
        [(0, 0), (4, 17), (59, 107)],
        6,
        "deedf4c049481f25b89dd665b08fe4036d155e5d8ee47a1497c756c3a997d175",
    ),
}

# The same pass's work: refits (``learn_stacked`` calls), model predictions
# (``loop.predict_action`` calls, one per live agent per library model per
# decision) and belief progressions on the observation path (one per tick
# the guard starts alive; build_schedule's are not counted).
GOLDEN_W0_WORK = {"learn_stacked": 16, "predict_action": 1016, "observe_progress": 136}


@pytest.fixture(scope="module")
def w0_pass(tmp_path_factory):
    """(per-policy bookkeeping, work counts) of one counted W0 pass."""
    work = dict.fromkeys(GOLDEN_W0_WORK, 0)
    observing = []
    learn, predict = models.learn_stacked, loop.predict_action
    progress_, observe = loop.progress, AdHocController.observe

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def watched_observe(self, *args):
        observing.append(True)
        try:
            return observe(self, *args)
        finally:
            observing.pop()

    def watched_progress(*args, **kwargs):
        work["observe_progress"] += bool(observing)
        return progress_(*args, **kwargs)

    bookkeeping = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "learn_stacked", counted("learn_stacked", learn))
        mp.setattr(loop, "predict_action", counted("predict_action", predict))
        mp.setattr(loop, "progress", watched_progress)
        mp.setattr(AdHocController, "observe", watched_observe)
        for policy in GOLDEN_W0_MODELS:
            library = ModelLibrary()
            stats = run_games(GridConfig(), policy, 3, seed=0, library=library, horizon=8)
            path = tmp_path_factory.mktemp("w0") / f"{policy}.json"
            save_library(library, path)
            bookkeeping[policy] = (
                [(e.pred_correct, e.pred_total) for e in stats.episodes],
                len(library.models),
                hashlib.sha256(path.read_bytes()).hexdigest(),
            )
    return bookkeeping, work


def test_golden_w0_model_bookkeeping(w0_pass):
    bookkeeping, _ = w0_pass
    assert bookkeeping == GOLDEN_W0_MODELS


def test_golden_w0_work_counts(w0_pass):
    _, work = w0_pass
    assert work == GOLDEN_W0_WORK
