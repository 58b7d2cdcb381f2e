"""Control loop for the knowledge-driven ad hoc guard, and episode runner.

Each tick the controller:

1. predicts every other live agent's next action kind with its currently
   assigned behavior model,
2. selects a goal from the belief (and the predicted next positions),
3. restricts the grounded domain to the relevant fine-grained regions,
4. plans a minimum-length action sequence (iterative deepening under a
   consistent bound, see :mod:`fortdefense.kr.plan`) under a schedule of
   the other agents' predicted actions, reusing the previous plan while
   the goal is unchanged and its next step stays executable, and
5. executes the first planned action (falling back to a quarter turn
   toward the nearest attacker by the simulator's facing rule,
   ``env.facing_toward`` and ``env.turn_toward``, then to a noop, when no
   plan exists).

Beliefs advance by progression through the actions that actually
happened.  Cancelled moves simply do not happen (no atom), rotations are
read off the post-state, and shots contribute an atom only when they
hit.  After each progression the belief is checked against the
observation; on any mismatch it is rebuilt from the observed poses,
carrying over the unobservable inertial atoms.  On every path through
this package the two agree: ``env.legal_actions`` and the domain's
``exec:2`` forbid moves into occupied cells, so the one outcome the
symbolic transition cannot express, a chain of moves through
just-vacated cells, never arises.  The rebuild matters only to callers
that feed ``env.step`` actions outside ``legal_actions``.  Progression
here records no provenance: a step record keeps the tick-start belief
and the executed atoms, from which the explainer replays it
(``explain.EpisodeTrace``).  The domain is grounded once per
configuration and horizon (:func:`grounded_domain`).

Progression stops once the guard is down: a tick that starts with the
guard down leaves the belief as it is, since no decision reads it again.
The episode's final belief is therefore the one the last decision led to.

Model bookkeeping runs alongside: agreement trackers (windows of
``models.WINDOW_DEFAULT`` = 30 ticks) are updated for every library model
against each agent's observed action, the keep/switch/flag rule
(``models.select_or_flag`` at the fixed threshold ``THETA_DEFAULT`` = 0.5)
reassigns models per agent, and a flagged agent triggers an incremental
refit from that agent's example buffer once it holds ``WINDOW_DEFAULT``
examples.  ``refit=False`` turns refitting off, which isolates the model
dynamics in tests.  The bookkeeping goes on after the guard is down,
though it has no new predictions to score, because the library outlives
the episode: a refit at the tick the guard falls adds a type, and the
keep/switch/flag rule of a later tick can assign it to another agent
before the next episode starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, Optional, Sequence

from fortdefense.env import (
    Action,
    ActionKind,
    EpisodeResult,
    Event,
    GridConfig,
    MOVE_KINDS,
    ShotEvent,
    Tick,
    WorldState,
    facing_toward,
    reset,
    step,
    terminal,
    turn_toward,
)
from fortdefense.features import extract
from fortdefense.kr.beliefs import (
    Belief,
    InconsistencyError,
    check_executable,
    close_defined,
    complete_initial,
    observe_world,
    progress,
)
from fortdefense.kr.goals import (
    Goal,
    compute_relevance,
    corridor_regions,
    is_down,
    nearest_living,
    pose_of,
    region_cells,
    select_goal,
)
from fortdefense.kr.ground import (
    CCW,
    CW,
    DIR_OF_SYMBOL,
    SYMBOL_OF_DIR,
    GroundedDomain,
    agent_symbol,
    attacker_symbols,
    ground,
    guard_symbols,
    restrict,
    symbol_agent_id,
)
from fortdefense.kr.lang import Atom, DomainDescription, parse_domain
from fortdefense.kr.plan import goal_holds, plan as search_plan
from fortdefense.models import (
    BUFFER_SIZE,
    RESERVOIR_SIZE,
    WINDOW_DEFAULT,
    ModelLibrary,
    incremental_update,
    predict_action,
    select_or_flag,
)
from fortdefense.policies import make_policy, policy_action

DOMAIN_RESOURCE = "fort_attack.dom"

_OBSERVABLE_PREDS = frozenset({"in", "face", "shot"})
_MOVE_DELTA_FOR_KIND = {
    int(kind): (direction.dx, direction.dy) for kind, direction in MOVE_KINDS.items()
}
_TURN_FOR_KIND = {int(ActionKind.ROTATE_CW): CW, int(ActionKind.ROTATE_CCW): CCW}


def load_domain_text() -> str:
    """The packaged guard-domain action description."""
    return (resources.files("fortdefense") / "data" / DOMAIN_RESOURCE).read_text()


def load_domain() -> DomainDescription:
    return parse_domain(load_domain_text())


_GROUNDED: dict[tuple[GridConfig, int], GroundedDomain] = {}


def grounded_domain(config: GridConfig, horizon: int = 8) -> GroundedDomain:
    """The packaged domain grounded against ``config``, once per ``(config,
    horizon)``: every controller and trace on it shares the one grounding."""
    if (config, horizon) not in _GROUNDED:
        _GROUNDED[config, horizon] = ground(load_domain(), config, horizon=horizon)
    return _GROUNDED[config, horizon]


# ---------------------------------------------------------------------------
# trace records
# ---------------------------------------------------------------------------


@dataclass
class StepRecord:
    """Everything the controller saw, decided, and learned in one tick.

    ``belief`` is the tick-start belief and ``executed`` the action atoms
    that took it to the next tick's belief; the provenance of that
    transition follows from the two, and is replayed rather than kept
    (``explain.EpisodeTrace``).  Steps are
    1-indexed.  ``plan_expanded`` is the search's ``Plan.expanded`` on a
    replanned step: nodes expanded, summed over the deepening iterations
    (0 when no search ran, or when the bound put the goal beyond the
    horizon).
    """

    step: int
    belief: Belief
    goal: Goal
    predictions: dict[str, int] = field(default_factory=dict)
    predicted_next: dict[str, tuple[int, int]] = field(default_factory=dict)
    fine_regions: tuple[str, ...] = ()
    replanned: bool = False
    plan_success: bool = True
    plan_expanded: int = 0
    plan_actions: tuple[Atom, ...] = ()
    chosen: Optional[Atom] = None
    fallback: str = ""
    executed: tuple[Atom, ...] = ()
    reconciled: bool = False


@dataclass
class EpisodeRecord:
    """One episode's full decision trace: a record per decision step, the
    belief after the last one, and the episode's settings and outcome.
    ``explain.EpisodeTrace`` adds only the configuration; a saved trace
    keeps every other field on its episode header line.

    ``final_belief`` is the belief at ``last_step + 1``: the last decision
    step's belief progressed through what that tick executed (or rebuilt
    from its observation), however many ticks the episode ran after the
    guard went down."""

    seed: int
    policy: str
    horizon: int = 8
    completion_applied: tuple[str, ...] = ()
    completion_retracted: tuple[str, ...] = ()
    steps: list[StepRecord] = field(default_factory=list)
    final_belief: Optional[Belief] = None
    outcome: str = ""
    n_steps: int = 0
    guards_win: bool = False


# ---------------------------------------------------------------------------
# prediction helpers
# ---------------------------------------------------------------------------


def predicted_cell(
    config: GridConfig, pos: tuple[int, int], kind: int
) -> tuple[int, int]:
    """Where an agent at ``pos`` ends up if its predicted kind executes."""
    delta = _MOVE_DELTA_FOR_KIND.get(int(kind))
    if delta is None:
        return pos
    nxt = (pos[0] + delta[0], pos[1] + delta[1])
    return nxt if config.in_bounds(*nxt) else pos


def _step_atom(sym: str, pose: tuple[int, int, str], kind: int) -> Optional[Atom]:
    """The move or quarter turn that action kind ``kind`` makes agent
    ``sym`` take from ``pose`` = (x, y, facing), whoever the agent is;
    None for a noop or a shot."""
    x, y, d = pose
    delta = _MOVE_DELTA_FOR_KIND.get(kind)
    if delta is not None:
        return Atom("move", (sym, x + delta[0], y + delta[1]))
    turn = _TURN_FOR_KIND.get(kind)
    return None if turn is None else Atom("rotate", (sym, turn[d]))


def _exo_atom_for(
    belief: Belief, gdom: GroundedDomain, sym: str, kind: int
) -> Optional[Atom]:
    """The action atom a predicted kind of agent ``sym`` denotes at its
    current simulated pose, or None when it is not expressible (noop, off
    the active cells, no living target)."""
    pose = pose_of(belief, sym)
    if is_down(belief, sym) or pose is None:
        return None
    if int(kind) == int(ActionKind.SHOOT):
        guards = guard_symbols(gdom.config)
        pool = attacker_symbols(gdom.config) if sym in guards else guards
        nearest = nearest_living(belief, sym, pool)
        return None if nearest is None else Atom("shoot", (sym, nearest[0]))
    atom = _step_atom(sym, pose, int(kind))
    if atom is not None and atom.pred == "move" and atom.args[1:] not in gdom.active_cells:
        return None
    return atom


def build_schedule(
    belief: Belief,
    gdom: GroundedDomain,
    predicted_kinds: Mapping[str, int],
    horizon: int,
) -> list[tuple[Atom, ...]]:
    """The other agents' predicted actions per future depth.

    Each agent is assumed to repeat its predicted action kind; the atoms
    are re-grounded against a simulated belief so moves track the
    simulated positions, and predictions that are inexecutable in it (a
    move into an occupied cell, a shot whose shooter cannot see its
    target) or leave the fine-grained zone drop out for that depth.
    """
    schedule: list[tuple[Atom, ...]] = []
    sim = belief
    for _ in range(horizon):
        atoms: list[Atom] = []
        for sym in sorted(predicted_kinds):
            atom = _exo_atom_for(sim, gdom, sym, predicted_kinds[sym])
            if atom is None:
                continue
            ok, _ = check_executable(sim, atom, gdom)
            if ok:
                atoms.append(atom)
        schedule.append(tuple(atoms))
        if atoms:
            try:
                sim = progress(sim, atoms, gdom, checked=frozenset(atoms))
            except InconsistencyError:
                break  # freeze the remaining depths at the last simulated state
    return schedule


# ---------------------------------------------------------------------------
# the controller
# ---------------------------------------------------------------------------


class AdHocController:
    """Belief-maintaining, model-predicting, planning guard controller.

    One controller serves consecutive episodes on a fixed grid
    configuration; the model library (models, assignments, trackers) and
    per-agent example buffers persist across episodes, while belief and
    plan state reset in :meth:`begin_episode`.
    """

    def __init__(
        self,
        config: GridConfig,
        library: Optional[ModelLibrary] = None,
        *,
        horizon: int = 8,
        refit: bool = True,
        collect_trace: bool = False,
    ):
        self.config = config
        self.library = library if library is not None else ModelLibrary()
        self.horizon = horizon
        self.refit = refit
        self.collect_trace = collect_trace
        self.gdom = grounded_domain(config, horizon)
        self.ah_id = symbol_agent_id(config, self.gdom.ah_symbol)
        self.buffers: dict[int, list[tuple[tuple[float, ...], int]]] = {}
        self.reservoirs: dict[int, list[tuple[tuple[float, ...], int]]] = {}
        # episode state
        self.belief: Optional[Belief] = None
        self.record: Optional[EpisodeRecord] = None
        self._tail: list[Atom] = []
        self._goal: Optional[Goal] = None
        self._prev_action: dict[int, Action] = {}
        self._last_vec: dict[int, tuple[float, ...]] = {}
        self._last_preds: dict[tuple[int, int], int] = {}
        self._pending: Optional[StepRecord] = None
        self.pred_total = 0
        self.pred_correct = 0

    # -- episode lifecycle ---------------------------------------------------

    def begin_episode(self, state: WorldState, *, seed: int = 0, policy: str = "") -> None:
        completion = complete_initial(observe_world(state, self.gdom), self.gdom)
        self.belief = completion.belief
        self.record = EpisodeRecord(
            seed=seed,
            policy=policy,
            horizon=self.horizon,
            completion_applied=tuple(str(inst.conclusion) for inst in completion.applied),
            completion_retracted=tuple(
                str(inst.conclusion) for inst in completion.retracted
            ),
        )
        self._tail = []
        self._goal = None
        self._prev_action = {}
        self._last_vec = {}
        self._last_preds = {}
        self._pending = None
        self.pred_total = 0
        self.pred_correct = 0
        for agent in state.agents:
            if agent.id != self.ah_id and self.library.models:
                self.library.assignment.setdefault(agent.id, min(self.library.models))

    def finish_episode(self, result: EpisodeResult) -> EpisodeRecord:
        record = self.record
        if record is None:
            raise RuntimeError("finish_episode before begin_episode")
        record.final_belief = self.belief
        record.outcome = result.outcome.value
        record.n_steps = result.steps
        record.guards_win = result.guards_win
        return record

    # -- per-tick decision ---------------------------------------------------

    def act(self, state: WorldState) -> Action:
        """Decide the controlled guard's action for this tick."""
        if self.belief is None or self.record is None:
            raise RuntimeError("act before begin_episode")
        if not state.get(self.ah_id).alive:
            raise ValueError(f"act called for guard {self.ah_id}, which is down")
        belief = self.belief
        gdom = self.gdom
        ah = gdom.ah_symbol
        record = StepRecord(step=state.step_count + 1, belief=belief, goal=None)

        predictions, predicted_next = self._predict(state)
        record.predictions = {
            agent_symbol(self.config, aid): kind for aid, kind in predictions.items()
        }
        record.predicted_next = dict(predicted_next)

        goal = select_goal(belief, gdom, predicted_next)
        record.goal = goal

        if goal_holds(belief, goal):
            self._tail = []
            self._goal = goal
            chosen = Atom("noop", (ah,))
            record.chosen = chosen
            self._finalize_act(record)
            return self._env_action(chosen, belief)

        fine = self._fine_regions(belief, goal, predicted_next, gdom)
        record.fine_regions = tuple(sorted(fine))
        gdom_t = restrict(gdom, fine)

        reuse = False
        if self._tail and self._goal == goal:
            ok, _ = check_executable(belief, self._tail[0], gdom)
            reuse = ok
        if not reuse:
            kinds_by_sym = {
                agent_symbol(self.config, aid): kind
                for aid, kind in predictions.items()
            }
            schedule = build_schedule(belief, gdom_t, kinds_by_sym, self.horizon)
            result = search_plan(
                belief, goal, gdom_t, horizon=self.horizon, schedule=schedule
            )
            record.replanned = True
            record.plan_success = result.success
            record.plan_expanded = result.expanded
            self._tail = list(result.actions) if result.success else []
            self._goal = goal
        record.plan_actions = tuple(self._tail)

        if self._tail:
            chosen = self._tail.pop(0)
        else:
            chosen = self._fallback(belief, gdom)
            record.fallback = "noop" if chosen.pred == "noop" else "rotate"
        record.chosen = chosen
        self._finalize_act(record)
        return self._env_action(chosen, belief)

    def _finalize_act(self, record: StepRecord) -> None:
        self._pending = record
        if self.collect_trace and self.record is not None:
            self.record.steps.append(record)

    def _predict(
        self, state: WorldState
    ) -> tuple[dict[int, int], dict[str, tuple[int, int]]]:
        """Assigned-model action-kind predictions for live external agents,
        plus the implied next cells (keyed by agent symbol)."""
        lib = self.library
        predictions: dict[int, int] = {}
        predicted_next: dict[str, tuple[int, int]] = {}
        self._last_vec = {}
        self._last_preds = {}
        vectors = extract(Tick(state), self._prev_action)
        for agent in sorted(state.agents, key=lambda a: a.id):
            if agent.id == self.ah_id or not agent.alive:
                continue
            vec = vectors[agent.id].tolist()  # read once, as Python floats
            self._last_vec[agent.id] = tuple(vec)
            assigned = lib.assignment.get(agent.id)
            kind = int(ActionKind.NOOP)
            for tid in sorted(lib.models):
                pred = predict_action(lib.models[tid], vec)
                self._last_preds[(agent.id, tid)] = pred
                if tid == assigned:
                    kind = pred
            predictions[agent.id] = kind
            sym = agent_symbol(self.config, agent.id)
            predicted_next[sym] = predicted_cell(self.config, agent.pos, kind)
        return predictions, predicted_next

    def _fine_regions(
        self,
        belief: Belief,
        goal: Goal,
        predicted_next: Mapping[str, tuple[int, int]],
        gdom: GroundedDomain,
    ) -> frozenset[str]:
        extra: set[str] = set()
        pose = pose_of(belief, gdom.ah_symbol)
        anchor: Optional[tuple[int, int]] = None
        if goal.kind == "shoot_target" and goal.target is not None:
            tpose = pose_of(belief, goal.target)
            if tpose is not None:
                anchor = (tpose[0], tpose[1])
        elif goal.kind == "occupy_region" and goal.target is not None:
            extra.add(goal.target)
            cells = region_cells(self.config, goal.target)
            if cells:
                anchor = cells[0]
        if pose is not None and anchor is not None:
            extra |= corridor_regions(self.config, (pose[0], pose[1]), anchor)
        return compute_relevance(belief, predicted_next, gdom, extra=extra)

    def _fallback(self, belief: Belief, gdom: GroundedDomain) -> Atom:
        """Face the nearest living attacker; noop when already facing (or
        nothing to face, or rotation is blocked)."""
        ah = gdom.ah_symbol
        noop = Atom("noop", (ah,))
        nearest = nearest_living(belief, ah, attacker_symbols(gdom.config))
        if nearest is None:
            return noop
        ax, ay, d = pose_of(belief, ah)
        tx, ty = nearest[1]
        if (tx, ty) == (ax, ay):
            return noop
        turn = turn_toward(DIR_OF_SYMBOL[d], facing_toward(tx - ax, ty - ay))
        if turn is None:
            return noop
        target = (CCW if turn is ActionKind.ROTATE_CCW else CW)[d]
        atom = Atom("rotate", (ah, target))
        ok, _ = check_executable(belief, atom, gdom)
        return atom if ok else noop

    def _env_action(self, chosen: Atom, belief: Belief) -> Action:
        if chosen.pred == "noop":
            return Action.noop()
        if chosen.pred == "shoot":
            return Action.shoot(symbol_agent_id(self.config, chosen.args[1]))
        pose = pose_of(belief, self.gdom.ah_symbol)
        for kind in (*MOVE_KINDS, *_TURN_FOR_KIND):
            if _step_atom(chosen.args[0], pose, int(kind)) == chosen:
                return Action(ActionKind(kind))
        raise ValueError(f"untranslatable action {chosen}")

    # -- per-tick observation ------------------------------------------------

    def observe(
        self,
        before: WorldState,
        actions: Mapping[int, Action],
        after: WorldState,
        events: Sequence[Event],
    ) -> None:
        """Advance the belief through what actually happened, while the
        guard was up at the tick's start, and update the model bookkeeping."""
        if self.belief is None:
            raise RuntimeError("observe before begin_episode")
        if before.get(self.ah_id).alive:
            self._progress_belief(before, actions, after, events)
        self._update_models(before, actions)
        for agent_id, action in actions.items():
            self._prev_action[agent_id] = action

    def _progress_belief(
        self,
        before: WorldState,
        actions: Mapping[int, Action],
        after: WorldState,
        events: Sequence[Event],
    ) -> None:
        atoms = effective_atoms(self.config, before, actions, after, events)
        try:
            new_belief: Optional[Belief] = progress(self.belief, atoms, self.gdom)
        except InconsistencyError:
            new_belief = None
        obs = observe_world(after, self.gdom)
        reconciled = new_belief is None or any(
            not new_belief.holds(lit) for lit in obs
        )
        if reconciled:
            source = new_belief if new_belief is not None else self.belief
            carried = [
                a for a in source.atoms
                if a.pred in self.gdom.inertial_preds
                and a.pred not in _OBSERVABLE_PREDS
            ]
            positives = [lit.atom for lit in obs if lit.positive]
            new_belief = Belief(close_defined(positives + carried, self.gdom))
        self.belief = new_belief
        if self._pending is not None:
            self._pending.executed = tuple(atoms)
            self._pending.reconciled = reconciled
            self._pending = None

    def _update_models(
        self, before: WorldState, actions: Mapping[int, Action]
    ) -> None:
        lib = self.library
        flagged: list[int] = []
        for agent_id in sorted(actions):
            if agent_id == self.ah_id or agent_id not in self._last_vec:
                continue
            actual = int(actions[agent_id].kind)
            self.buffers.setdefault(agent_id, []).append(
                (self._last_vec[agent_id], actual)
            )
            if len(self.buffers[agent_id]) > BUFFER_SIZE:
                del self.buffers[agent_id][0]
            assigned = lib.assignment.get(agent_id)
            for tid in sorted(lib.models):
                key = (agent_id, tid)
                if key in self._last_preds:
                    lib.tracker(agent_id, tid).update(
                        self._last_preds[key], actual
                    )
                    if tid == assigned:
                        self.pred_total += 1
                        self.pred_correct += int(self._last_preds[key] == actual)
            if assigned is None and self.refit:
                flagged.append(agent_id)
        for agent_id, (verdict, tid) in sorted(select_or_flag(lib).items()):
            if verdict == "switch":
                lib.assignment[agent_id] = tid
            elif verdict == "flag_new_model" and self.refit:
                flagged.append(agent_id)
        for agent_id in flagged:
            self._refit(agent_id)
        # feature vectors and predictions pair with this tick's labels only
        self._last_vec = {}
        self._last_preds = {}

    def _refit(self, agent_id: int) -> None:
        """Learn (or update) a model for a flagged agent from its buffer."""
        lib = self.library
        buffer = self.buffers.get(agent_id, [])
        if len(buffer) < WINDOW_DEFAULT:
            return
        current_tid = lib.assignment.get(agent_id)
        current = lib.models.get(current_tid) if current_tid is not None else None
        reservoir = self.reservoirs.get(current_tid, []) if current_tid is not None else []
        updated = incremental_update(current, buffer, reservoir)
        if updated is not current:
            new_tid = lib.next_type_id()
            lib.models[new_tid] = updated
            self.reservoirs[new_tid] = (list(reservoir) + list(buffer))[:RESERVOIR_SIZE]
            lib.assignment[agent_id] = new_tid
        self.buffers[agent_id] = []


# ---------------------------------------------------------------------------
# effective-action translation
# ---------------------------------------------------------------------------


def effective_atoms(
    config: GridConfig,
    before: WorldState,
    actions: Mapping[int, Action],
    after: WorldState,
    events: Sequence[Event],
) -> tuple[Atom, ...]:
    """The ground action atoms describing what actually happened in a tick,
    one vocabulary for every agent: the first argument names the actor.
    Cancelled moves and missed shots contribute nothing; a move or turn
    counts only where the post-state shows the pose changed, so agents
    killed mid-tick contribute nothing either.
    """
    hits = {
        (e.shooter, e.target)
        for e in events
        if isinstance(e, ShotEvent) and e.hit
    }
    atoms: list[Atom] = []
    for agent_id in sorted(actions):
        agent = before.get(agent_id)
        if not agent.alive:
            continue
        action = actions[agent_id]
        sym = agent_symbol(config, agent_id)
        post = after.get(agent_id)
        if action.kind is ActionKind.SHOOT:
            if (agent_id, action.target) in hits:
                atoms.append(Atom("shoot", (sym, agent_symbol(config, action.target))))
        elif (post.pos, post.direction) != (agent.pos, agent.direction):
            pose = (agent.x, agent.y, SYMBOL_OF_DIR[agent.direction])
            atoms.append(_step_atom(sym, pose, int(action.kind)))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# episode runner
# ---------------------------------------------------------------------------


@dataclass
class EpisodeStats:
    """Per-episode scalar results."""

    episode: int
    seed: int
    policy: str
    outcome: str
    steps: int
    guards_win: bool
    adhoc_alive: bool
    adhoc_shots_fired: int
    adhoc_shots_hit: int
    guard_shots_fired: int
    guard_shots_hit: int
    pred_total: int
    pred_correct: int


@dataclass
class GameStats:
    """Aggregated results of a batch of episodes."""

    episodes: list[EpisodeStats] = field(default_factory=list)
    records: list[EpisodeRecord] = field(default_factory=list)


def tick_seed(episode_seed: int, step_count: int, agent_id: int) -> int:
    """The seed of the per-(episode, tick, agent) random stream for
    scripted policies; ``policy_action`` seeds the stream only where it
    draws from it."""
    return (episode_seed * 1_000_003 + step_count) * 1_000_003 + agent_id


def run_games(
    config: GridConfig,
    policy: str,
    n_episodes: int,
    *,
    seed: int = 0,
    ad_hoc: bool = True,
    library: Optional[ModelLibrary] = None,
    horizon: int = 8,
    refit: bool = True,
    collect_traces: bool = False,
    example_sink: Optional[Mapping[str, list]] = None,
) -> GameStats:
    """Run episodes of the scripted team against the scripted attackers,
    with the controlled guard either knowledge-driven (``ad_hoc=True``) or
    scripted like its teammates (the baseline).

    Each tick takes one snapshot of the state (``env.Tick``), which every
    scripted agent's ``policy_action`` reads, with its :func:`tick_seed`,
    so a game is a function of ``seed`` alone; ``step`` is called with the
    state and the joint action alone.  ``example_sink`` maps
    "guard"/"attacker" to lists that collect ``(feature_vector,
    action_kind)`` pairs from every live scripted agent, the vectors
    copied from the rows of one ``extract`` matrix per tick.
    """
    stats = GameStats()
    controller: Optional[AdHocController] = None
    if ad_hoc:
        controller = AdHocController(
            config,
            library,
            horizon=horizon,
            refit=refit,
            collect_trace=collect_traces,
        )
    spec = make_policy(policy)
    for episode in range(n_episodes):
        episode_seed = seed + episode
        state = reset(config, episode_seed, ad_hoc=ad_hoc)
        prev_action: dict[int, Action] = {}
        if controller is not None:
            controller.begin_episode(state, seed=episode_seed, policy=policy)
        result = terminal(state)
        while result is None:
            actions: dict[int, Action] = {}
            tick = Tick(state)
            vectors = extract(tick, prev_action) if example_sink is not None else None
            for agent in state.agents:
                if not agent.alive:
                    continue
                if controller is not None and agent.id == controller.ah_id:
                    actions[agent.id] = controller.act(state)
                    continue
                seed_t = tick_seed(episode_seed, state.step_count, agent.id)
                actions[agent.id] = policy_action(spec, tick, agent.id, seed_t)
                if vectors is not None:
                    # a copy, not a view: a view would keep the whole tick
                    # matrix alive in the sink, dead agents' rows included
                    role = "guard" if agent.kind.is_guard else "attacker"
                    example_sink[role].append(
                        (vectors[agent.id].copy(), int(actions[agent.id].kind))
                    )
            nxt, events = step(state, actions)
            if controller is not None:
                controller.observe(state, actions, nxt, events)
            prev_action.update(actions)
            state = nxt
            result = terminal(state)
        adhoc_id = 0
        guard_ids = [a.id for a in state.agents if a.kind.is_guard]
        stats.episodes.append(
            EpisodeStats(
                episode=episode,
                seed=episode_seed,
                policy=policy,
                outcome=result.outcome.value,
                steps=result.steps,
                guards_win=result.guards_win,
                adhoc_alive=state.get(adhoc_id).alive,
                adhoc_shots_fired=state.shots_fired.get(adhoc_id, 0),
                adhoc_shots_hit=state.shots_hit.get(adhoc_id, 0),
                guard_shots_fired=sum(state.shots_fired.get(g, 0) for g in guard_ids),
                guard_shots_hit=sum(state.shots_hit.get(g, 0) for g in guard_ids),
                pred_total=controller.pred_total if controller else 0,
                pred_correct=controller.pred_correct if controller else 0,
            )
        )
        if controller is not None and collect_traces:
            stats.records.append(controller.finish_episode(result))
    return stats
