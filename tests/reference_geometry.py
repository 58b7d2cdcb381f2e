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
"""

from __future__ import annotations

import math

from fortdefense.env import AgentState, Direction, GridConfig

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
