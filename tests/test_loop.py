"""Tests for the ad hoc control loop and episode runner.

The central invariant: after every tick the controller's belief agrees
exactly with the observable world (poses, facings, who is down), whether
the update came from symbolic progression or from the observation
reconciliation fallback.  Translation of simulator outcomes into action
atoms is checked against hand-resolved scenarios.
"""

import hashlib
import json
import random

import pytest
from hypothesis import event, given, settings, strategies as st

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
from fortdefense.explain import _step_dict
from fortdefense.kr.beliefs import (
    Belief,
    check_executable,
    close_defined,
    observe_world,
    progress,
    validate,
)
from fortdefense.kr.ground import ground, restrict
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
from fortdefense.models import ModelLibrary, learn_stacked

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
        atoms = effective_atoms(small_config, state, actions, nxt, events, 0)
        assert atoms == (
            Atom("move", ("guard0", 3, 5)),
            Atom("agent_move", ("attacker1", 3, 2)),
            Atom("agent_move", ("attacker2", 6, 1)),
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
        atoms = effective_atoms(small_config, state, actions, nxt, events, 0)
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
        atoms = effective_atoms(small_config, state, actions, nxt, events, 0)
        assert atoms == (
            Atom("agent_move", ("guard1", 4, 5)),
            Atom("agent_move", ("attacker1", 4, 4)),
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
        atoms = effective_atoms(small_config, state, actions, nxt, events, 0)
        assert atoms == (Atom("agent_shoot", ("guard1", "attacker1")),)

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
        atoms = effective_atoms(small_config, state, actions, nxt, events, 0)
        assert atoms == (
            Atom("shoot", ("guard0", "attacker1")),
            Atom("agent_rotate", ("guard1", "e")),
            Atom("agent_rotate", ("attacker2", "s")),
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
        atoms = effective_atoms(small_config, state, actions, nxt, events, 0)
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
            (Atom("agent_move", ("attacker1", 4, 4)),),
            (Atom("agent_move", ("attacker1", 4, 5)),),
            (Atom("agent_move", ("attacker1", 4, 6)),),
            (Atom("agent_move", ("attacker1", 4, 7)),),
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
            (Atom("agent_move", ("attacker2", 3, 0)),),
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
        assert schedule == [(Atom("agent_shoot", ("attacker1", "guard1")),)]

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


# ---------------------------------------------------------------------------
# the controller in closed loop with the simulator
# ---------------------------------------------------------------------------


def drive_episode(config, controller, seed, policy="P1"):
    """Run one scripted-vs-controller episode, asserting the belief/world
    agreement invariant every tick; returns the tick count."""
    from fortdefense.policies import make_policy, policy_action

    spec = make_policy(policy)
    state = reset(config, seed, ad_hoc=True)
    controller.begin_episode(state, seed=seed, policy=policy)
    gdom = controller.gdom
    ticks = 0
    while terminal(state) is None:
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
        for lit in observe_world(nxt, gdom):
            assert controller.belief.holds(lit), (
                f"belief diverged from world on {lit} at tick {nxt.step_count}"
            )
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


@settings(max_examples=40, deadline=None)
@given(
    config_index=st.integers(0, len(AGREEMENT_CONFIGS) - 1),
    seed=st.integers(0, 10_000),
    choice_seed=st.integers(0, 2**32 - 1),
)
def test_the_symbolic_model_agrees_with_the_simulator(
    agreement_gdoms, config_index, seed, choice_seed
):
    """Random legal joint actions from a fresh episode: every atom that
    describes the tick is executable in the belief (so ``progress`` drops
    nothing), progressing through them reproduces the observation, and
    the result satisfies every state constraint."""
    config, gdom = AGREEMENT_CONFIGS[config_index], agreement_gdoms[config_index]
    choices = random.Random(choice_seed)
    state = reset(config, seed)
    belief = belief_of(state, gdom)
    while terminal(state) is None:
        actions = {
            a.id: choices.choice(legal_actions(state, a.id))
            for a in state.agents
            if a.alive
        }
        after, events = step(state, actions)
        atoms = effective_atoms(config, state, actions, after, events, 0)
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
# provenance pin is a sha256 over each step's provenance as the trace file
# stores it (explain._step_dict's order, one JSON list per line), which
# keeps it independent of the in-memory order.  It is the pin computed
# before progression became delta-driven, over the same entries less the
# "inherited" ones (an inherited atom is whatever the next belief holds
# that the tick did not set) and less the axiom text, which the trace now
# reads from the grounded domain through the axiom id.
GOLDEN_W0_P1_SEED0_EXPANDED = 316
GOLDEN_W0_P1_SEED0_DEEPENING_EXPANDED = 21
GOLDEN_W0_P1_SEED0_PROVENANCE = (
    "328f2dc10fb719b1a646a2830238abd0692fa1b62589ca5c21d95e38e8bfceb5"
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
    h = hashlib.sha256()
    for s in steps:
        h.update(json.dumps(_step_dict(s)["provenance"], sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_W0_P1_SEED0_PROVENANCE
