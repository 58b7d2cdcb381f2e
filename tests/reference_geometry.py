"""The slow reference for the geometry tables: the geometric functions as
they were before ``GridConfig.geometry`` tabulated them, each evaluating
its formula on every call.

Copied unchanged from ``fortdefense.env`` (``EPS``, ``DIRECTION_INDEX``,
``fort_distance``, ``fort_center``, ``wrap_angle``, ``in_range``,
``in_arc``),
``fortdefense.policies`` (``_dist``, ``_nearest_fort_cell``) and
``fortdefense.features`` (``grid_center``, ``_fort_dist``,
``_agent_block``).  Tests compare the table-backed functions against them;
nothing in the package imports this module.

The three copies of the facing rule that ``env.facing_toward`` and
``env.turn_toward`` replaced are kept the same way: ``_nearest_facing``
from ``fortdefense.kr.goals``, ``_rotate_toward`` from
``fortdefense.policies``, and ``AdHocController._fallback`` from
``fortdefense.loop`` (dedented to a function that ignores ``self``).

``Geometry.steps_to_disk`` replaced no formula, so ``steps_to_disk`` below
is its definition by brute force instead: for each offset, the least
Manhattan distance to an in-range offset.

The scripted attackers' cone tests and the simulator's action list as they
were before they read ``Geometry.danger``, ``Geometry.pocket`` and
``Geometry.cone`` are kept too: ``_covered`` from ``fortdefense.policies``;
the B1600 hunter's ``strikeable`` and its ``posts`` scan from
``policies._attacker_action``, as functions of the configuration, the mark
and the other guards that they closed over (``posts`` returns the list the
scan built); and ``legal_actions`` from ``fortdefense.env``, with
``clear_shot`` as it was before the shot-cone table.
"""

from __future__ import annotations

import math
from typing import Optional

from fortdefense.env import (
    MOVE_KINDS,
    TARGETLESS_ACTIONS,
    Action,
    ActionKind,
    AgentState,
    Direction,
    GridConfig,
    WorldState,
)
from fortdefense.kr.beliefs import Belief, check_executable
from fortdefense.kr.goals import nearest_living, pose_of
from fortdefense.kr.ground import (
    CCW,
    CW,
    DIR_OF_SYMBOL,
    DIR_SYMBOLS,
    GroundedDomain,
    attacker_symbols,
)
from fortdefense.kr.lang import Atom

EPS = 1e-9


#: Direction index used in feature vectors and serialized traces.
DIRECTION_INDEX = {Direction.N: 0, Direction.E: 1, Direction.S: 2, Direction.W: 3}


def fort_distance(config: GridConfig, x: float, y: float) -> float:
    """Euclidean distance from (x, y) to the nearest fort cell."""
    return min(math.hypot(x - fx, y - fy) for (fx, fy) in config.fort_cells)


def fort_center(config: GridConfig) -> tuple[float, float]:
    cells = sorted(config.fort_cells)
    return (
        sum(c[0] for c in cells) / len(cells),
        sum(c[1] for c in cells) / len(cells),
    )


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    while a <= -math.pi:
        a += 2 * math.pi
    while a > math.pi:
        a -= 2 * math.pi
    return a


def in_range(config: GridConfig, sx: int, sy: int, tx: int, ty: int) -> bool:
    return math.hypot(tx - sx, ty - sy) <= config.shoot_range + EPS


def in_arc(
    config: GridConfig, facing: Direction, sx: int, sy: int, tx: int, ty: int
) -> bool:
    """Whether (tx, ty) lies inside the facing cone from (sx, sy).

    The shooter's own cell is never in its arc.
    """
    dx, dy = tx - sx, ty - sy
    if dx == 0 and dy == 0:
        return False
    bearing = math.atan2(dx, dy)
    half = math.radians(config.shoot_arc_deg) / 2
    return abs(wrap_angle(bearing - facing.angle)) <= half + EPS


def steps_to_disk(config: GridConfig) -> dict[tuple[int, int], int]:
    """``min(|dx - ox| + |dy - oy|)`` over the in-range offsets ``(ox, oy)``,
    for every offset ``(dx, dy)`` between two cells of the grid."""
    xs, ys = range(1 - config.width, config.width), range(1 - config.height, config.height)
    disk = [(ox, oy) for ox in xs for oy in ys if in_range(config, 0, 0, ox, oy)]
    return {
        (dx, dy): min(abs(dx - ox) + abs(dy - oy) for ox, oy in disk)
        for dx in xs
        for dy in ys
    }


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _nearest_fort_cell(cfg: GridConfig, pos: tuple[int, int]) -> tuple[int, int]:
    return min(sorted(cfg.fort_cells), key=lambda c: _dist(pos, c))


def grid_center(config: GridConfig) -> tuple[float, float]:
    """Geometric center of the cell grid (a half-cell point on even sizes)."""
    return ((config.width - 1) / 2, (config.height - 1) / 2)


def _fort_dist(config: GridConfig, x: float, y: float) -> float:
    return min(math.hypot(x - fx, y - fy) for fx, fy in config.fort_cells)


def _agent_block(config: GridConfig, agent: AgentState) -> list[float]:
    cx, cy = grid_center(config)
    dx, dy = agent.x - cx, agent.y - cy
    dist_center = math.hypot(dx, dy)
    bearing = 0.0 if dist_center == 0 else math.atan2(dx, dy)
    return [
        float(agent.x),
        float(agent.y),
        dist_center,
        bearing,
        float(DIRECTION_INDEX[agent.direction]),
        _fort_dist(config, agent.x, agent.y),
    ]


def _nearest_facing(ax: float, ay: float) -> str:
    """The grid direction best aligned with the bearing to (ax, ay)
    relative to the origin; ties resolve in n, e, s, w order."""
    best, best_err = "n", None
    bearing = math.atan2(ax, ay)
    for d in DIR_SYMBOLS:
        vec = DIR_OF_SYMBOL[d]
        err = abs(math.remainder(bearing - math.atan2(vec.dx, vec.dy), math.tau))
        if best_err is None or err < best_err - 1e-12:
            best, best_err = d, err
    return best


def _rotate_toward(agent: AgentState, pos: tuple[float, float]) -> Optional[Action]:
    """One rotation step toward facing ``pos``, or None if already aligned."""
    dx, dy = pos[0] - agent.x, pos[1] - agent.y
    if dx == 0 and dy == 0:
        return None
    bearing = math.atan2(dx, dy)
    order = (Direction.N, Direction.E, Direction.S, Direction.W)

    def gap(d: Direction) -> float:
        raw = abs(bearing - d.angle) % (2 * math.pi)
        return min(raw, 2 * math.pi - raw)

    best = min(order, key=lambda d: (gap(d), order.index(d)))
    steps_cw = (order.index(best) - order.index(agent.direction)) % 4
    if steps_cw == 0:
        return None
    if steps_cw == 3:
        return TARGETLESS_ACTIONS[ActionKind.ROTATE_CCW]
    return TARGETLESS_ACTIONS[ActionKind.ROTATE_CW]


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
    want = _nearest_facing(tx - ax, ty - ay)
    if want == d:
        return noop
    target = want if want in (CW[d], CCW[d]) else CW[d]
    atom = Atom("rotate", (ah, target))
    ok, _ = check_executable(belief, atom, gdom)
    return atom if ok else noop


def clear_shot(config: GridConfig, shooter: AgentState, target: AgentState) -> bool:
    """Range-and-arc test between two agents at their current poses."""
    return in_range(config, shooter.x, shooter.y, target.x, target.y) and in_arc(
        config, shooter.direction, shooter.x, shooter.y, target.x, target.y
    )


def legal_actions(state: WorldState, agent_id: int) -> list[Action]:
    """All actions the agent may take this tick, in a fixed documented order.

    Order: noop, moves N/E/S/W, rotations cw/ccw, shots by target id.
    Moves must stay on the grid and target an unoccupied cell (corpses
    block).  Shots require a live enemy inside range and arc.  A dead agent
    can only noop.
    """
    agent = state.get(agent_id)
    if not agent.alive:
        return [Action.noop()]
    acts = [Action.noop()]
    occupied = {a.pos for a in state.agents}  # was WorldState.occupied_cells()
    for kind, d in MOVE_KINDS.items():
        nx, ny = agent.x + d.dx, agent.y + d.dy
        if state.config.in_bounds(nx, ny) and (nx, ny) not in occupied:
            acts.append(TARGETLESS_ACTIONS[kind])
    acts.append(TARGETLESS_ACTIONS[ActionKind.ROTATE_CW])
    acts.append(TARGETLESS_ACTIONS[ActionKind.ROTATE_CCW])
    for other in sorted(state.agents, key=lambda a: a.id):
        if (
            other.alive
            and other.kind.is_guard is not agent.kind.is_guard
            and clear_shot(state.config, agent, other)
        ):
            acts.append(Action.shoot(other.id))
    return acts


def _covered(
    cfg: GridConfig,
    cell: tuple[int, int],
    shooters: list[AgentState],
    margin: float = 0.5,
) -> bool:
    """Whether any of ``shooters`` could fire on ``cell`` as currently aimed.

    Facing only changes through explicit rotations, so a mover's firing arc
    goes stale; cells outside every current arc-and-range cone are safe to
    stand on this tick.
    """
    return any(
        _dist(cell, s.pos) <= cfg.shoot_range + margin
        and in_arc(cfg, s.direction, s.x, s.y, cell[0], cell[1])
        for s in shooters
    )


def strikeable(
    cfg: GridConfig, mark: AgentState, others: list[AgentState], cell: tuple[int, int]
) -> bool:
    return (
        _dist(cell, mark.pos) <= cfg.shoot_range
        and not in_arc(
            cfg, mark.direction, mark.x, mark.y, cell[0], cell[1]
        )
        and not _covered(cfg, cell, others, margin=1.5)
    )


def posts(
    cfg: GridConfig, mark: AgentState, others: list[AgentState]
) -> list[tuple[int, int]]:
    # every cell strikeable from lies in the weapon-range disk
    return [
        (mark.x + dx, mark.y + dy)
        for dx, dy in cfg.geometry.disk
        if 0 <= mark.x + dx < cfg.width
        and 0 <= mark.y + dy < cfg.height
        and strikeable(cfg, mark, others, (mark.x + dx, mark.y + dy))
    ]
