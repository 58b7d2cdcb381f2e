"""Scripted policies for the non-ad-hoc agents.

Two handcrafted training policies (P1, P2) and four analogs of pre-trained
opponent checkpoints (B220, B650, B1240, B1600), here realized as
heuristics with fixed parameters.  The numbers in :data:`DEFAULT_PARAMS`
are this implementation's declared analog values (the originals are
neural policies with no published parameters); results obtained with them
are directional, not replications.  A :class:`PolicySpec` names a policy
and reads its parameters from that table.

Qualitative intents:

* P1 -- guards hold close to the fort and concentrate fire on the attacker
  closest to it; attackers fan out into lanes, gather on a ring, and rush
  together.
* P2 -- both teams open by spreading out; guards then engage nearby
  attackers (with slightly noisy movement), attackers mount a frontal
  assault and shoot back.
* B220 -- guards park in the band directly in front of the fort and shoot
  whatever they legally can; attackers charge straight in.
* B650 -- guards defend a small radius; attackers sneak up the side lanes
  with staggered starts.
* B1240 -- guards patrol a wider radius; attackers sneak the edges, gather
  on a ring and rush together.
* B1600 -- guards pursue far from the fort; most attackers hunt the guards
  with live fire while the rest hold back and dash for the fort once any
  guard is drawn out of position.

Turns aim with the simulator's facing rule (``env.facing_toward`` and
``env.turn_toward``).  A decision reads from its :class:`env.Tick` the
tick's shared facts (the sides, the ranks, the attacker nearest the fort),
its moves and shots (``Tick.moves``, ``Tick.shots``), the danger cones
(``Tick.danger``) and the B1600 hunters' strike posts, both built once a
tick for every attacker; every returned action is one of
``Tick.legal_actions``, and a dead agent noops.  Distances are
``math.hypot`` of coordinates, each neighbour's taken once a decision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from fortdefense.env import (
    DANGER_MARGIN,
    MOVE_KINDS,
    TARGETLESS_ACTIONS,
    Action,
    ActionKind,
    AgentState,
    GridConfig,
    Tick,
    facing_toward,
    fort_center,
    in_arc,
    nearest_fort_cell,
    turn_toward,
)

BUILTIN_NAMES = ("B220", "B650", "B1240", "B1600")
POLICY_NAMES = ("P1", "P2") + BUILTIN_NAMES

#: Parameter table for the six concrete policies.  Distances in cells,
#: steps in ticks, fractions in [0, 1].
DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "P1": dict(guard_radius=6, engage_range=9, anchor_gap=2),
    "P2": dict(
        guard_radius=6,
        engage_range=9,
        anchor_gap=4,
        spread_steps=5,
        jitter=0.15,
    ),
    "B220": dict(guard_radius=2, engage_range=5, anchor_gap=1, lane_gap=6),
    "B650": dict(guard_radius=8, engage_range=10, anchor_gap=3, stagger=2),
    "B1240": dict(guard_radius=9, engage_range=11, anchor_gap=5),
    "B1600": dict(
        guard_radius=10,
        engage_range=13,
        anchor_gap=7,
        aggression=0.67,
        drawn_radius=9,
        standoff_rows=13,
    ),
}


@dataclass
class PolicySpec:
    name: str

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}"
            )

    def param(self, key: str) -> float:
        return DEFAULT_PARAMS[self.name][key]


def make_policy(name: str) -> PolicySpec:
    return PolicySpec(name)


# ---------------------------------------------------------------------------
# shared movement helpers
# ---------------------------------------------------------------------------


def _pick(here: float, scored: list, allow_equal: bool) -> Optional[Action]:
    """The move of least value among ``scored``'s ``(move, value)`` pairs
    that improves on ``here``, the agent's own cell's value: strictly unless
    ``allow_equal``; ties go to the first."""
    best: Optional[Action] = None
    best_val = here + (1e-9 if allow_equal else -1e-9)
    for act, val in scored:
        if val < best_val - 1e-12:
            best, best_val = act, val
    return best


def _move_reducing(
    agent: AgentState,
    moves: list[tuple[Action, tuple[int, int]]],
    key: Callable[[tuple[int, int]], float],
    limit: Optional[Callable[[tuple[int, int]], bool]] = None,
    allow_equal: bool = False,
) -> Optional[Action]:
    """The legal move (of ``Tick.moves``) minimizing ``key`` of the
    destination cell, among those ``limit`` admits.

    Only strictly improving moves are returned unless ``allow_equal``;
    ties go to the first of N, E, S, W.
    """
    scored = [(act, key(cell)) for act, cell in moves if limit is None or limit(cell)]
    return _pick(key((agent.x, agent.y)), scored, allow_equal)


def _rotate_toward(agent: AgentState, pos: tuple[float, float]) -> Optional[Action]:
    """One rotation step toward facing ``pos``, or None if already aligned."""
    dx, dy = pos[0] - agent.x, pos[1] - agent.y
    if dx == 0 and dy == 0:
        return None
    turn = turn_toward(agent.direction, facing_toward(dx, dy))
    return None if turn is None else TARGETLESS_ACTIONS[turn]


def _clamp(v: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, v))


def _guard_anchor(cfg: GridConfig, spec: PolicySpec, rank: int, n: int) -> tuple[int, int]:
    cx, _ = fort_center(cfg)
    gap = spec.param("anchor_gap")
    offset = (rank - (n - 1) / 2) * gap
    return (_clamp(round(cx + offset), 0, cfg.width - 1), cfg.height - 2)


# ---------------------------------------------------------------------------
# opening spread (P2): flank agents diverge along x, middles hold
# ---------------------------------------------------------------------------


def _in_spread_opening(spec: PolicySpec, tick: Tick) -> bool:
    """Whether the opening still runs: early enough, and no live guard has
    a live attacker within weapon range."""
    state = tick.state
    if state.step_count >= spec.param("spread_steps"):
        return False
    for guard in tick.live_guards:
        for attacker in tick.live_attackers:
            gap = math.hypot(guard.x - attacker.x, guard.y - attacker.y)
            if gap <= state.config.shoot_range:
                return False
    return True


def _spread_move(
    tick: Tick, agent: AgentState, moves: list[tuple[Action, tuple[int, int]]]
) -> Action:
    side = tick.live_guards if agent.kind.is_guard else tick.live_attackers
    team = sorted(side, key=lambda a: (a.x, a.id))
    if agent.id == team[0].id:
        wanted = ActionKind.MOVE_W
    elif agent.id == team[-1].id:
        wanted = ActionKind.MOVE_E
    else:
        return Action.noop()  # middles hold so pairwise distances cannot shrink
    return next((act for act, _ in moves if act.kind is wanted), Action.noop())


# ---------------------------------------------------------------------------
# guard behaviors
# ---------------------------------------------------------------------------


def _guard_action(spec: PolicySpec, tick: Tick, agent: AgentState, seed: int) -> Action:
    cfg = tick.state.config
    fort_distance = cfg.geometry.fort_distance
    moves = tick.moves(agent.id)
    shots = tick.shots(agent.id)
    threat = tick.threat
    if threat is None:
        return Action.noop()
    if spec.name == "P2" and _in_spread_opening(spec, tick):
        return _spread_move(tick, agent, moves)

    radius = spec.param("guard_radius")
    in_band = None
    if spec.name == "B220":
        # front-of-fort band: the top three rows
        in_band = lambda cell: cell[1] >= cfg.height - 3

    if spec.name == "P1":
        # fixate on the single biggest threat; other targets get a pass
        if threat.id in shots:
            return shots[threat.id]
    elif shots:
        by_id = tick.by_id
        target = min(shots, key=lambda t: (fort_distance[by_id[t].x, by_id[t].y], t))
        return shots[target]

    chosen: Optional[Action] = None
    tx, ty = threat.x, threat.y
    gap = math.hypot(agent.x - tx, agent.y - ty)
    # aim at the threat whenever it is within weapon range
    if gap <= cfg.shoot_range:
        chosen = _rotate_toward(agent, (tx, ty))
    # leash: strayed beyond the radius -> strictly reduce fort distance
    if chosen is None and fort_distance[agent.x, agent.y] > radius:
        chosen = _move_reducing(agent, moves, fort_distance.__getitem__, in_band)
    # engage: close on the threat while staying leashed
    if chosen is None and gap <= spec.param("engage_range"):
        leash = lambda c: fort_distance[c] <= radius and (in_band is None or in_band(c))
        chosen = _move_reducing(
            agent, moves, key=lambda c: math.hypot(c[0] - tx, c[1] - ty), limit=leash
        )
        if chosen is None:
            chosen = _rotate_toward(agent, (tx, ty))
    # idle: drift back to the anchor slot, pre-aimed at the threat
    if chosen is None:
        ax, ay = _guard_anchor(cfg, spec, tick.guard_ids.index(agent.id), cfg.n_guards)
        if math.hypot(agent.x - ax, agent.y - ay) > 1.5:
            home = lambda c: math.hypot(c[0] - ax, c[1] - ay)
            chosen = _move_reducing(agent, moves, key=home, limit=in_band)
        if chosen is None:
            chosen = _rotate_toward(agent, (tx, ty))
    if chosen is None:
        chosen = Action.noop()
    # P2 movement is slightly noisy; the only draw from a tick's stream, so
    # the stream is seeded here and nowhere else
    jitter = DEFAULT_PARAMS[spec.name].get("jitter", 0.0)
    if jitter and chosen.kind in MOVE_KINDS and moves:
        rng = random.Random(seed)
        if rng.random() < jitter:
            chosen = moves[rng.randrange(len(moves))][0]
    return chosen


# ---------------------------------------------------------------------------
# attacker behaviors
# ---------------------------------------------------------------------------


def _advance(
    agent: AgentState,
    moves: list[tuple[Action, tuple[int, int]]],
    goal: tuple[int, int],
    limit: Optional[Callable[[tuple[int, int]], bool]] = None,
) -> Action:
    """Move toward ``goal``, preferring ``limit``-approved cells.

    Falls back to unrestricted progress, then to sideways (equal-distance)
    steps, rather than standing still.  Each cell's distance to the goal,
    and each ``limit`` verdict, is taken once for all four attempts.
    """
    gx, gy = goal
    here = math.hypot(agent.x - gx, agent.y - gy)
    scored = [(act, math.hypot(x - gx, y - gy)) for act, (x, y) in moves]
    attempts = [scored]
    if limit is not None:
        attempts.insert(0, [s for s, (_, cell) in zip(scored, moves) if limit(cell)])
    for options in attempts:
        act = _pick(here, options, False) or _pick(here, options, True)
        if act is not None:
            return act
    return Action.noop()


def _lane_advance(
    cfg: GridConfig,
    agent: AgentState,
    moves: list[tuple[Action, tuple[int, int]]],
    lane_x: int,
    slide_row: Optional[int] = None,
    approach_row: Optional[int] = None,
    limit: Optional[Callable[[tuple[int, int]], bool]] = None,
) -> Action:
    """March up a fixed column, then along a high row to the fort.

    Three legs: slide sideways onto the lane (at ``slide_row``, so two
    attackers sliding opposite ways never deadlock on the same row), climb
    the lane to ``approach_row`` (top row by default), then close on the
    nearest fort cell.  Flank lanes hug the board edges, outside the
    defenders' resting reach.
    """
    row = cfg.height - 1 if approach_row is None else approach_row
    if agent.x != lane_x and agent.y < row:
        if slide_row is not None and agent.y < slide_row:
            return _advance(agent, moves, (agent.x, slide_row), limit)
        return _advance(agent, moves, (lane_x, agent.y), limit)
    if agent.y < row:
        return _advance(agent, moves, (lane_x, row), limit)
    return _advance(agent, moves, nearest_fort_cell(cfg, agent.x, agent.y), limit)


def _nearest_shot(tick: Tick, agent: AgentState, shots: dict[int, Action]) -> Action:
    """The shot at the nearest target, ties to the least id."""
    by_id = tick.by_id
    x, y = agent.x, agent.y
    return shots[
        min(shots, key=lambda t: (math.hypot(x - by_id[t].x, y - by_id[t].y), t))
    ]


def _attacker_action(spec: PolicySpec, tick: Tick, agent: AgentState) -> Action:
    state = tick.state
    cfg = state.config
    fort_distance = cfg.geometry.fort_distance
    moves = tick.moves(agent.id)
    shots = tick.shots(agent.id)
    attackers = tick.live_attackers
    guards = tick.live_guards
    n_alive = len(attackers)
    ranks = tick.attacker_ranks
    rank = ranks[agent.id]
    x, y = agent.x, agent.y
    fort_goal = nearest_fort_cell(cfg, x, y)
    cx, _ = fort_center(cfg)

    slide_row = cfg.attacker_band_rows + rank

    # every attacker is armed: take any available shot, and when running the
    # top row turn to face along it first so defenders ahead are inside the
    # firing arc when they come into range (B1600 hunters manage their own aim)
    n_aggressors = max(1, round(spec.param("aggression") * cfg.n_attackers)) if (
        spec.name == "B1600"
    ) else 0
    aggressor_mode = rank < n_aggressors and bool(guards) and n_alive > 1
    if not aggressor_mode:
        if shots:
            return _nearest_shot(tick, agent, shots)
        if guards and y == cfg.height - 1 and (x, y) != fort_goal:
            rot = _rotate_toward(agent, fort_goal)
            if rot:
                return rot

    def _wing_advance(lane_x: int, centre_rank: int) -> Action:
        # edge wing: climb to the top corner, wait there until the opposite
        # wing is also on the top row, then both close in simultaneously;
        # stop waiting the moment a defender gets close
        top = cfg.height - 1
        if y >= top:
            wings = [a for a in attackers if ranks[a.id] % 3 != centre_rank]
            ready = all(a.y >= top for a in wings)
            crowded = any(
                math.hypot(x - g.x, y - g.y) <= cfg.shoot_range + DANGER_MARGIN
                for g in guards
            )
            if not ready and not crowded:
                return Action.noop()
        return _lane_advance(cfg, agent, moves, lane_x, slide_row)

    if spec.name == "P1":
        # three-pronged envelopment: the centre attacker drives straight up
        # the middle and draws the defence while the wings walk the edges to
        # the top corners and rush from both sides at once
        lane_x = (1, round(cx), cfg.width - 2)[rank % 3]
        if rank % 3 == 1:
            return _lane_advance(cfg, agent, moves, lane_x, slide_row)
        return _wing_advance(lane_x, centre_rank=1)

    if spec.name == "P2":
        if _in_spread_opening(spec, tick):
            return _spread_move(tick, agent, moves)
        if guards:
            nearest = min(guards, key=lambda g: (math.hypot(x - g.x, y - g.y), g.id))
            if math.hypot(x - nearest.x, y - nearest.y) <= cfg.shoot_range:
                rot = _rotate_toward(agent, (nearest.x, nearest.y))
                if rot:
                    return rot
        return _advance(agent, moves, (round(cx), cfg.height - 1))

    if spec.name == "B220":
        # parallel frontal columns straight at the fort, no coordination
        lane_gap = spec.param("lane_gap")
        lane_x = _clamp(round(cx + (rank - 1) * lane_gap), 1, cfg.width - 2)
        return _lane_advance(cfg, agent, moves, lane_x, slide_row)

    if spec.name == "B650":
        # edge runners with staggered starts; the last attacker goes up the middle
        if state.step_count < spec.param("stagger") * rank:
            return Action.noop()
        lane_x = (1, cfg.width - 2, round(cx))[rank % 3]
        return _lane_advance(cfg, agent, moves, lane_x, slide_row)

    if spec.name == "B1240":
        # centre attacker baits the wide-ranging defenders off their posts;
        # the wings run the edges behind the pursuit and rush together
        lane_x = (round(cx), 1, cfg.width - 2)[rank % 3]
        if rank % 3 == 0:
            return _lane_advance(cfg, agent, moves, lane_x, slide_row)
        return _wing_advance(lane_x, centre_rank=0)

    if spec.name == "B1600":
        # a cell is dangerous if a defender's current cone could cover it
        # after one more closing step (they move one cell a tick)
        danger = tick.danger().__contains__

        # retreat preference: get away from every pursuer, with a nudge
        # toward open ground so a flight never dead-ends in a corner
        def retreat_key(c: tuple[int, int]) -> float:
            room = min(c[0], cfg.width - 1 - c[0], c[1], cfg.height - 1 - c[1])
            return -min(math.hypot(c[0] - g.x, c[1] - g.y) for g in guards) - 0.3 * room

        def dodge() -> Optional[Action]:
            # a firing cone is closing over us: sidestep out of it
            if not guards or not danger((x, y)):
                return None
            return _move_reducing(
                agent,
                moves,
                key=lambda c: (100.0 if danger(c) else 0.0) + retreat_key(c),
                allow_equal=True,
            )

        if aggressor_mode:
            if shots:
                return _nearest_shot(tick, agent, shots)
            # once a teammate is climbing for its run, stop skirmishing:
            # charge the defender best placed to cut the run off and make it
            # fight us instead -- even a one-for-one trade is a bargain
            # while the fort is being breached
            runners_up = [
                a
                for a in attackers
                if a.y >= cfg.height - 7 and ranks[a.id] >= n_aggressors
            ]
            if runners_up:
                runner = runners_up[0]
                gate = nearest_fort_cell(cfg, runner.x, runner.y)
                gx, gy = gate
                to_gate = lambda g: (math.hypot(g.x - gx, g.y - gy), g.id)
                blocker = min(guards, key=to_gate)
                return _advance(agent, moves, (blocker.x, blocker.y))

            nearest = min(guards, key=lambda g: (math.hypot(x - g.x, y - g.y), g.id))
            nx, ny = nearest.x, nearest.y
            flee = dodge()
            if flee:
                return flee
            gap = math.hypot(x - nx, y - ny)
            all_home = all(
                fort_distance[g.x, g.y] <= spec.param("drawn_radius") for g in guards
            )
            if rank == 0 and len(guards) > 1 and not all_home:
                # bait: hover beyond weapon range of the closest defender so
                # the pursuit chases a target it can never quite reach; the
                # band is two cells wide so a mutual approach cannot skip
                # over it (against a lone defender, join the hunt instead).
                # Orbit at the defenders' leash edge rather than fleeing
                # outright: staying the attacker nearest the fort keeps every
                # defender aimed and chasing here, not at the teammates.
                orbit = spec.param("guard_radius") + 2

                def bait_key(c: tuple[int, int]) -> float:
                    return retreat_key(c) + 0.4 * abs(fort_distance[c] - orbit)

                if gap < cfg.shoot_range + DANGER_MARGIN:
                    away = _move_reducing(
                        agent,
                        moves,
                        key=bait_key,
                        limit=lambda c: not danger(c),
                    ) or _move_reducing(agent, moves, key=bait_key)
                    if away:
                        return away
                elif gap > cfg.shoot_range + 3.5:
                    closer = _move_reducing(
                        agent,
                        moves,
                        key=lambda c: math.hypot(c[0] - nx, c[1] - ny),
                        limit=lambda c: not danger(c),
                    )
                    if closer:
                        return closer
                rot = _rotate_toward(agent, (nx, ny))
                if rot:
                    return rot
                return Action.noop()
            # hunter: defenders rotate only to aim at the attacker nearest
            # the fort, so their cones lag behind their movement; walk a
            # cone-free path to the rim of the mark's range, pre-aim there,
            # and only then step inside -- the shot lands next tick, before
            # the mark can turn to answer.  Prefer marks whose cone points
            # elsewhere; a mark already facing us can track our approach.
            for mark in sorted(
                guards,
                key=lambda g: (
                    in_arc(cfg, g.direction, g.x, g.y, x, y),
                    math.hypot(x - g.x, y - g.y),
                    g.id,
                ),
            ):
                posts = tick.strike_posts(mark)
                mx, my = mark.x, mark.y
                rot = _rotate_toward(agent, (mx, my))
                if (x, y) in posts:
                    # inside the cone-free pocket: turn and the top-of-turn
                    # shot check fires
                    return rot or Action.noop()
                if not posts:
                    continue
                aimed = rot is None
                if rank == 0:
                    # with two hunters working the same mark, take opposite
                    # sides: one cone cannot cover a split bearing
                    mates = [
                        a
                        for a in attackers
                        if a.id != agent.id and ranks[a.id] < n_aggressors
                    ]
                    apart = lambda c: min(
                        [math.hypot(c[0] - m.x, c[1] - m.y) for m in mates], default=0.0
                    )
                    px, py = min(
                        posts,
                        key=lambda c: (math.hypot(x - c[0], y - c[1]) - 0.5 * apart(c), c),
                    )
                else:
                    px, py = min(posts, key=lambda c: (math.hypot(x - c[0], y - c[1]), c))
                move_ok = lambda c: not danger(c) and (
                    aimed or math.hypot(c[0] - mx, c[1] - my) > cfg.shoot_range
                )
                to_post = lambda c: math.hypot(c[0] - px, c[1] - py)
                closer = _move_reducing(agent, moves, key=to_post, limit=move_ok)
                if closer:
                    return closer
                # parked on the rim: spend the wait turning toward the mark
                if rot:
                    return rot
                break
            return Action.noop()

        # runner: wait at the standoff row while the hunters work, then
        # sneak up one edge once the defense is thinned or fully drawn out
        aggressors_alive = any(ranks[a.id] < n_aggressors for a in attackers)
        drawn = not guards or all(
            fort_distance[g.x, g.y] > spec.param("drawn_radius") for g in guards
        )
        # in the last quarter of the game run flat out, cones or not:
        # the clock decides stalemates, and it decides them for the defense
        desperate = state.step_count >= 0.75 * cfg.max_steps
        if not desperate:
            evade = dodge()
            if evade:
                return evade
        if (
            drawn
            or not aggressors_alive
            or len(guards) <= 1
            or n_alive == 1
            or state.step_count >= 0.55 * cfg.max_steps
        ):
            top = cfg.height - 1
            if not guards:
                lane_x = 1 if x <= cx else cfg.width - 2
            elif x <= 3:
                # already committed to the west wall: no second thoughts,
                # flip-flopping mid-run walks straight back into the pursuit
                lane_x = 1
            elif x >= cfg.width - 4:
                lane_x = cfg.width - 2
            else:
                lane_x = max(
                    (1, cfg.width - 2),
                    key=lambda lx: min(math.hypot(lx - g.x, top - g.y) for g in guards),
                )
            # head straight for the top corner of the chosen edge (every
            # step closes on the fort), then along the top row to it
            goal = fort_goal if y == top else (lane_x, top)
            return _advance(
                agent,
                moves,
                goal,
                limit=None if desperate else (lambda c: not danger(c)),
            )
        standoff_row = cfg.height - 1 - int(spec.param("standoff_rows"))
        if y < standoff_row:
            safe = lambda c: not danger(c)
            return _advance(agent, moves, (x, standoff_row), limit=safe)
        return Action.noop()

    raise AssertionError(f"unhandled policy {spec.name}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def policy_action(spec: PolicySpec, tick: Tick, agent_id: int, seed: int) -> Action:
    """The scripted action for one agent this tick.

    ``tick`` is the snapshot of this tick's state (:class:`env.Tick`),
    taken once and read by every agent's decision.  ``seed`` seeds the
    agent's random stream for this tick (``loop.tick_seed``); a policy
    builds the stream only where it draws from it, which today is P2's
    guard jitter alone.  Pure in (spec, state, agent_id, seed); the
    returned action is always in ``tick.legal_actions(agent_id)``.  Dead
    agents noop.
    """
    agent = tick.by_id[agent_id]
    if not agent.alive:
        return Action.noop()
    if agent.kind.is_guard:
        return _guard_action(spec, tick, agent, seed)
    return _attacker_action(spec, tick, agent)
