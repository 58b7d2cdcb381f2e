"""Grid-world fort defense simulator.

A rectangular grid with a fort strip on the top edge, defended by guards
against attackers that spawn in the bottom rows.  All agents act
simultaneously each tick; shots resolve before movement, movement conflicts
resolve deterministically, and episodes end by fort capture, elimination, or
timeout.

Coordinates are (x, y) with x growing east and y growing north, so the fort
sits at y = height - 1 and attackers start near y = 0.

Geometry is tabulated per configuration.  ``config.geometry`` is a
:class:`Geometry`, built on first use and kept on the frozen config: the
range, arc and shot-cone tests per facing and offset, the scripted
attackers' danger cones and strike pockets per facing, the weapon-range
disk of offsets and each offset's walking distance to it (which the
planner's search bound reads), per cell its on-grid moves and the distance
to and the nearest of the fort cells, and per cell and facing the feature
extractor's agent block (with the cell's polar coordinates around the grid
centre).  Each table that replaced a formula holds its values
(``_range_formula``, ``_arc_formula`` ...), so reading the table is
bit-identical to evaluating the formula.  The public functions
(``in_arc``, ``in_cone``, ``fort_distance``, ``nearest_fort_cell``) are
one table read each and take cells of the grid, as every caller passes:
agents' poses, move targets and the reasoner's coordinate sorts.  A cell
off the grid is a ``KeyError`` in the cell tables.  The simulator (legal
moves and shots, shot resolution in ``step``), the scripted policies, the
feature extractor and the reasoner's ``in_sight`` static all read these
tables.  They are keyed by configuration, never by world state: a config
is frozen, so its tables cannot go stale, while states change from tick to
tick and tests edit them in place.

What a tick shares is a :class:`Tick`: one immutable snapshot of a state,
built per tick in one pass over its agents (agents by id, occupied cells,
each side's live agents, the guard ids and attacker ranks, the attacker
nearest the fort), which the legal-move rule (:meth:`Tick.legal_actions`,
or its parts :meth:`Tick.moves` and :meth:`Tick.shots`), the scripted
policies and the feature extractor read.  The per-tick facts that every
scripted attacker shares (:meth:`Tick.danger`, :meth:`Tick.strike_posts`)
are built on first use and live as long as the snapshot, which is handed
from call to call and never stored on a state or in a module.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from operator import attrgetter
from typing import Mapping, Optional, Union

import numpy as np

EPS = 1e-9

#: How far past weapon range a danger cone (``Geometry.danger``) reaches: a
#: shooter closes one step a tick, so a cell this much beyond its range
#: may be in range next tick.
DANGER_MARGIN = 1.5


class Direction(Enum):
    """The four facings, with clockwise order N -> E -> S -> W.

    Each member carries plain attributes, set once when the class is built:

    * ``dx``, ``dy`` -- the unit step one cell that way;
    * ``angle`` -- the bearing in radians measured clockwise from north,
      ``atan2(dx, dy)``;
    * ``index`` -- quarter turns clockwise from north (N=0, E=1, S=2, W=3),
      the encoding in feature vectors and of the per-facing tables of
      :class:`Geometry`.
    """

    N = (0, 1)
    E = (1, 0)
    S = (0, -1)
    W = (-1, 0)

    def __init__(self, dx: int, dy: int) -> None:
        self.dx = dx
        self.dy = dy
        self.angle = math.atan2(dx, dy)
        self.index = round(self.angle / (math.pi / 2)) % 4

    def clockwise(self) -> "Direction":
        return _FACINGS[(self.index + 1) % 4]

    def counterclockwise(self) -> "Direction":
        return _FACINGS[(self.index - 1) % 4]


#: The facings by ``Direction.index``, clockwise from north.
_FACINGS = (Direction.N, Direction.E, Direction.S, Direction.W)


class ActionKind(IntEnum):
    """The eight primitive action kinds.

    The integer values are the canonical encoding used in feature vectors,
    traces, and model outputs.
    """

    NOOP = 0
    MOVE_N = 1
    MOVE_E = 2
    MOVE_S = 3
    MOVE_W = 4
    ROTATE_CW = 5
    ROTATE_CCW = 6
    SHOOT = 7


MOVE_KINDS = {
    ActionKind.MOVE_N: Direction.N,
    ActionKind.MOVE_E: Direction.E,
    ActionKind.MOVE_S: Direction.S,
    ActionKind.MOVE_W: Direction.W,
}
KIND_FOR_DIRECTION = {d: k for k, d in MOVE_KINDS.items()}


@dataclass(frozen=True)
class Action:
    """One agent's choice for a tick.  ``target`` is only used by SHOOT."""

    kind: ActionKind
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.SHOOT:
            if self.target is None:
                raise ValueError("shoot action requires a target agent id")
        elif self.target is not None:
            raise ValueError(f"{self.kind.name} takes no target")

    @staticmethod
    def noop() -> "Action":
        return TARGETLESS_ACTIONS[ActionKind.NOOP]

    @staticmethod
    def move(direction: Direction) -> "Action":
        return TARGETLESS_ACTIONS[KIND_FOR_DIRECTION[direction]]

    @staticmethod
    def shoot(target: int) -> "Action":
        return SHOT_ACTIONS[target]


#: One shared instance per target-less kind (noop, the four moves, the two
#: rotations); actions are immutable, so these stand for every such action.
TARGETLESS_ACTIONS = {
    kind: Action(kind) for kind in ActionKind if kind is not ActionKind.SHOOT
}


class _ShotActions(dict):
    def __missing__(self, target: int) -> Action:
        act = self[target] = Action(ActionKind.SHOOT, target)
        return act


#: ``SHOT_ACTIONS[t]`` is ``Action.shoot(t)``: one shared shot per target,
#: made on first use, which stands for every shot at ``t``.
SHOT_ACTIONS = _ShotActions()


class AgentKind(Enum):
    """Agent roles.  ``is_guard`` is a plain member attribute: true for
    both kinds of guard, false for attackers."""

    GUARD = "guard"
    AD_HOC_GUARD = "ad_hoc_guard"
    ATTACKER = "attacker"

    def __init__(self, value: str) -> None:
        self.is_guard = value != "attacker"


@dataclass
class AgentState:
    id: int
    kind: AgentKind
    x: int
    y: int
    direction: Direction
    alive: bool = True

    @property
    def pos(self) -> tuple[int, int]:
        return (self.x, self.y)


class ConfigError(ValueError):
    """Raised for structurally invalid grid configurations."""


def default_fort_cells(width: int, height: int) -> frozenset[tuple[int, int]]:
    """A three-cell strip centered on the top edge."""
    cx = width // 2
    return frozenset((cx + off, height - 1) for off in (-1, 0, 1))


@dataclass(frozen=True)
class GridConfig:
    width: int = 20
    height: int = 20
    fort_cells: Optional[frozenset[tuple[int, int]]] = None
    n_guards: int = 3
    n_attackers: int = 3
    shoot_range: float = 5.0
    shoot_arc_deg: float = 90.0
    max_steps: int = 100

    def __post_init__(self):
        if self.fort_cells is None:
            object.__setattr__(
                self, "fort_cells", default_fort_cells(self.width, self.height)
            )
        else:
            object.__setattr__(self, "fort_cells", frozenset(self.fort_cells))

    def validate(self) -> None:
        """Raise a ConfigError, whose message names the field at fault, for
        a configuration no game can be played on."""
        for name, least in (("width", 5), ("height", 5), ("n_guards", 1), ("n_attackers", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}")
        if not self.fort_cells:
            raise ConfigError("fort_cells must hold at least one cell")
        for (x, y) in self.fort_cells:
            if not self.in_bounds(x, y):
                raise ConfigError(f"fort_cells: cell {(x, y)} out of bounds")
        if self.shoot_range <= 0:
            raise ConfigError("shoot_range must be positive")
        if not 0 < self.shoot_arc_deg <= 360:
            raise ConfigError("shoot_arc_deg must be in (0, 360]")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.n_guards > len(self._guard_spawn_cells()):
            raise ConfigError("n_guards: not enough cells adjacent to the fort for guards")
        if self.n_attackers > len(self._attacker_spawn_cells()):
            raise ConfigError("n_attackers: not enough spawn-band cells for attackers")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    @functools.cached_property
    def geometry(self) -> "Geometry":
        """This configuration's :class:`Geometry`, built on first use.

        The cached value sits outside the dataclass fields, so equality,
        hashing and ``dataclasses.replace`` (which builds a fresh config
        with fresh tables) are unchanged."""
        return Geometry(self)

    @property
    def attacker_band_rows(self) -> int:
        """Rows (from y = 0 upward) in which attackers may spawn."""
        return max(1, self.height // 5)

    def _guard_spawn_cells(self) -> list[tuple[int, int]]:
        cells = set()
        for (fx, fy) in self.fort_cells:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == dy == 0:
                        continue
                    c = (fx + dx, fy + dy)
                    if self.in_bounds(*c) and c not in self.fort_cells:
                        cells.add(c)
        return sorted(cells)

    def _attacker_spawn_cells(self) -> list[tuple[int, int]]:
        return sorted(
            (x, y)
            for x in range(self.width)
            for y in range(self.attacker_band_rows)
            if (x, y) not in self.fort_cells
        )


class Outcome(Enum):
    ATTACKERS_WIN_FORT = "attackers_win_fort"
    GUARDS_WIN_ELIMINATION = "guards_win_elimination"
    ATTACKERS_WIN_ELIMINATION = "attackers_win_elimination"
    GUARDS_WIN_TIMEOUT = "guards_win_timeout"

    @property
    def guards_win(self) -> bool:
        return self in (Outcome.GUARDS_WIN_ELIMINATION, Outcome.GUARDS_WIN_TIMEOUT)


@dataclass
class EpisodeResult:
    outcome: Outcome
    steps: int
    shots_fired: dict[int, int]
    shots_hit: dict[int, int]

    @property
    def guards_win(self) -> bool:
        return self.outcome.guards_win


@dataclass(frozen=True)
class ShotEvent:
    """One shot.  ``hit`` means the shot was lethal (target alive at tick
    start, inside range and arc).  When several shots kill the same target
    simultaneously, exactly one shooter is ``credited`` with the elimination
    (the highest shooter id, a fixed convention); accuracy statistics count
    credited eliminations over shots fired."""

    shooter: int
    target: int
    hit: bool
    credited: bool = False


@dataclass(frozen=True)
class IgnoredAction:
    """An action that was dropped or downgraded, with the reason."""

    agent: int
    reason: str


Event = Union[ShotEvent, IgnoredAction]


@dataclass
class WorldState:
    config: GridConfig
    agents: list[AgentState]
    step_count: int = 0
    shots_fired: dict[int, int] = field(default_factory=dict)
    shots_hit: dict[int, int] = field(default_factory=dict)

    def get(self, agent_id: int) -> AgentState:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"no agent with id {agent_id}")

    def guards(self) -> list[AgentState]:
        return [a for a in self.agents if a.kind.is_guard]

    def attackers(self) -> list[AgentState]:
        return [a for a in self.agents if a.kind is AgentKind.ATTACKER]

    def copy(self) -> "WorldState":
        return WorldState(
            config=self.config,
            agents=[
                AgentState(a.id, a.kind, a.x, a.y, a.direction, a.alive)
                for a in self.agents
            ],
            step_count=self.step_count,
            shots_fired=dict(self.shots_fired),
            shots_hit=dict(self.shots_hit),
        )


def reset(config: GridConfig, seed: int, ad_hoc: bool = True) -> WorldState:
    """Create the initial state for an episode.

    Guards spawn in distinct cells adjacent to the fort facing south;
    attackers spawn in distinct cells of the bottom row band facing north.
    When ``ad_hoc`` is set, guard 0 is the ad hoc agent (the simulator treats
    it identically; the flag only marks which agent external controllers
    drive).
    """
    config.validate()
    rng = random.Random(seed)
    guard_cells = rng.sample(config._guard_spawn_cells(), config.n_guards)
    attacker_cells = rng.sample(config._attacker_spawn_cells(), config.n_attackers)
    agents = []
    for i, (x, y) in enumerate(guard_cells):
        kind = AgentKind.AD_HOC_GUARD if (ad_hoc and i == 0) else AgentKind.GUARD
        agents.append(AgentState(i, kind, x, y, Direction.S))
    for j, (x, y) in enumerate(attacker_cells):
        agents.append(
            AgentState(config.n_guards + j, AgentKind.ATTACKER, x, y, Direction.N)
        )
    ids = [a.id for a in agents]
    return WorldState(
        config=config,
        agents=agents,
        step_count=0,
        shots_fired={i: 0 for i in ids},
        shots_hit={i: 0 for i in ids},
    )


# ---------------------------------------------------------------------------
# geometry: the formulas, and their tables per configuration
# ---------------------------------------------------------------------------


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    while a <= -math.pi:
        a += 2 * math.pi
    while a > math.pi:
        a -= 2 * math.pi
    return a


def grid_center(config: GridConfig) -> tuple[float, float]:
    """Geometric center of the cell grid (a half-cell point on even sizes)."""
    return ((config.width - 1) / 2, (config.height - 1) / 2)


def facing_toward(dx: int, dy: int) -> Direction:
    """The facing nearest the bearing to the nonzero offset ``(dx, dy)``;
    a bearing halfway between two facings (a diagonal) goes to the first
    of N, E, S, W.  The comparisons are exact, so no rounding of the
    bearing can tip a tie.  The one source of facing choice for the
    scripted policies, the goal rule and the controller's fallback."""
    if dx == 0 and dy == 0:
        raise ValueError("no facing points at the agent's own cell")
    if dy > 0 and dy >= abs(dx):
        return Direction.N
    if dx > 0 and dx >= abs(dy):
        return Direction.E
    if dy < 0 and -dy >= abs(dx):
        return Direction.S
    return Direction.W


def turn_toward(facing: Direction, want: Direction) -> Optional[ActionKind]:
    """The quarter turn from ``facing`` toward ``want``: none when already
    facing it, counter-clockwise when ``want`` is the counter-clockwise
    neighbour, else clockwise (the half turn starts clockwise)."""
    if want is facing:
        return None
    if want is facing.counterclockwise():
        return ActionKind.ROTATE_CCW
    return ActionKind.ROTATE_CW


def _range_formula(shoot_range: float, dx: float, dy: float) -> bool:
    return math.hypot(dx, dy) <= shoot_range + EPS


def _arc_formula(shoot_arc_deg: float, facing: Direction, dx: float, dy: float) -> bool:
    if dx == 0 and dy == 0:
        return False
    bearing = math.atan2(dx, dy)
    half = math.radians(shoot_arc_deg) / 2
    return abs(wrap_angle(bearing - facing.angle)) <= half + EPS


def _fort_distance_formula(fort_cells, x: float, y: float) -> float:
    return min(math.hypot(x - fx, y - fy) for (fx, fy) in fort_cells)


def _nearest_fort_cell_formula(fort_cells, x: int, y: int) -> tuple[int, int]:
    return min(sorted(fort_cells), key=lambda c: math.hypot(x - c[0], y - c[1]))


def _centre_polar_formula(center: tuple[float, float], x: float, y: float):
    dx, dy = x - center[0], y - center[1]
    dist = math.hypot(dx, dy)
    return dist, 0.0 if dist == 0 else math.atan2(dx, dy)


class Geometry:
    """The geometric rules of one :class:`GridConfig`, tabulated.

    ``config.geometry`` builds it on first use and keeps it for the life of
    the configuration.  Every entry is the value of the formula it replaces
    (``_range_formula``, ``_arc_formula`` ...), evaluated once, so a lookup
    is bit-identical to a call.  Offsets span every displacement between
    two cells of the grid, ``(1 - width .. width - 1, 1 - height ..
    height - 1)``; the per-facing tables are tuples indexed by
    ``Direction.index``.

    * ``in_range[offset]`` -- whether the offset is within weapon range;
      its keys are the span;
    * ``in_arc[facing]`` -- the set of offsets in the facing's arc (never
      the zero offset);
    * ``cone[facing]`` -- the set of offsets in range and in the arc: where
      a shooter so facing hits;
    * ``disk`` -- the in-range offsets, in ``(dx, dy)`` order;
    * ``danger[facing]`` -- the set of offsets in the facing's arc with
      ``math.hypot(dx, dy) <= shoot_range + DANGER_MARGIN``: where a shooter
      so facing may hit after one more closing step (the scripted
      attackers' danger cones);
    * ``pocket[facing]`` -- the set of offsets with ``math.hypot(dx, dy) <=
      shoot_range``, with no ``EPS``, outside the facing's arc: where a
      scripted hunter stands to shoot a target so facing that cannot
      shoot back;
    * ``steps_to_disk[offset]`` -- the fewest 4-connected unit steps from
      the offset to an offset of ``disk``, ``min(|dx - ox| + |dy - oy|)``
      over ``disk``: how far a shooter must walk to bring a target at that
      offset into range.  One breadth-first sweep out from ``disk`` fills
      it; a shortest Manhattan path stays in the box spanned by its ends,
      so the sweep need not leave the span;
    * ``exits[cell]`` -- the moves that keep an agent on the cell on the
      grid, each with its target cell, in N, E, S, W order;
    * ``fort_distance[cell]``, ``nearest_fort_cell[cell]`` -- Euclidean
      distance to the nearest fort cell, and that cell (ties to the least);
    * ``fort_center`` -- the mean of the fort cells;
    * ``diagonal`` -- the longest distance between two cells,
      ``math.hypot(width - 1, height - 1)``;
    * ``blocks`` -- the feature extractor's agent blocks as a read-only
      float array of six columns (``features.BLOCK_FIELDS``: ``x``, ``y``,
      the distance and bearing around :func:`grid_center`, the bearing
      clockwise from north and 0 at the exact centre, the facing index and
      ``fort_distance``), one row per cell and facing, the row of ``(x, y)`` facing ``d`` at
      ``(x * height + y) * 4 + d.index``; then the padding block ``(-1,
      -1, diagonal, 0, 0, diagonal)`` as the last row, ``pad_row``.

    Every value is a function of the configuration alone, which is frozen,
    so the tables can never go stale; nothing is keyed by a world state,
    whose agents move (and which tests edit in place).  The functions that
    read the tables take cells of the grid only.
    """

    def __init__(self, config: GridConfig) -> None:
        w, h = config.width, config.height
        offsets = [(dx, dy) for dx in range(1 - w, w) for dy in range(1 - h, h)]
        self.in_range = {o: _range_formula(config.shoot_range, *o) for o in offsets}
        self.disk = tuple(o for o in offsets if self.in_range[o])
        self.steps_to_disk = dict.fromkeys(self.disk, 0)
        frontier = self.disk
        while frontier:
            reached = []
            for dx, dy in frontier:
                n = self.steps_to_disk[dx, dy] + 1
                for o in ((dx, dy + 1), (dx + 1, dy), (dx, dy - 1), (dx - 1, dy)):
                    if o in self.in_range and o not in self.steps_to_disk:
                        self.steps_to_disk[o] = n
                        reached.append(o)
            frontier = reached
        self.in_arc = tuple(
            frozenset(o for o in offsets if _arc_formula(config.shoot_arc_deg, facing, *o))
            for facing in Direction
        )
        self.cone = tuple(arc.intersection(self.disk) for arc in self.in_arc)
        reach = config.shoot_range + DANGER_MARGIN
        self.danger = tuple(
            frozenset(o for o in arc if math.hypot(*o) <= reach) for arc in self.in_arc
        )
        self.pocket = tuple(
            frozenset(
                o
                for o in self.disk
                if math.hypot(*o) <= config.shoot_range and o not in arc
            )
            for arc in self.in_arc
        )
        cells = [(x, y) for x in range(w) for y in range(h)]
        self.exits = {
            (x, y): tuple(
                (act, (x + dx, y + dy))
                for act, dx, dy in _MOVE_STEPS
                if 0 <= x + dx < w and 0 <= y + dy < h
            )
            for x, y in cells
        }
        forts = config.fort_cells
        self.fort_distance = {c: _fort_distance_formula(forts, *c) for c in cells}
        self.nearest_fort_cell = {c: _nearest_fort_cell_formula(forts, *c) for c in cells}
        ordered = sorted(forts)
        self.fort_center = (
            sum(c[0] for c in ordered) / len(ordered),
            sum(c[1] for c in ordered) / len(ordered),
        )
        self.diagonal = math.hypot(w - 1, h - 1)
        center = grid_center(config)
        # filled in place, one cell's row broadcast over its four facings,
        # so no list of every row is ever built
        self.pad_row = 4 * len(cells)
        self.blocks = np.empty((self.pad_row + 1, 6))
        per_facing = self.blocks[:-1].reshape(len(cells), 4, 6)
        per_facing[:] = np.array(
            [
                (x, y, *_centre_polar_formula(center, x, y), 0, self.fort_distance[x, y])
                for x, y in cells
            ]
        )[:, None, :]
        per_facing[:, :, 4] = range(4)
        self.blocks[-1] = (-1.0, -1.0, self.diagonal, 0.0, 0.0, self.diagonal)
        self.blocks.flags.writeable = False


def fort_distance(config: GridConfig, x: int, y: int) -> float:
    """Euclidean distance from the cell (x, y) to the nearest fort cell."""
    return config.geometry.fort_distance[x, y]


def nearest_fort_cell(config: GridConfig, x: int, y: int) -> tuple[int, int]:
    """The fort cell nearest the cell (x, y); ties go to the least cell."""
    return config.geometry.nearest_fort_cell[x, y]


def fort_center(config: GridConfig) -> tuple[float, float]:
    """The mean of the fort cells."""
    return config.geometry.fort_center


def in_arc(
    config: GridConfig, facing: Direction, sx: int, sy: int, tx: int, ty: int
) -> bool:
    """Whether the cell (tx, ty) lies inside the facing cone from the cell
    (sx, sy).  The shooter's own cell is never in its arc."""
    return (tx - sx, ty - sy) in config.geometry.in_arc[facing.index]


def in_cone(
    config: GridConfig, facing: Direction, sx: int, sy: int, tx: int, ty: int
) -> bool:
    """Range-and-arc test: a shooter at the cell (sx, sy) so facing hits
    the cell (tx, ty)."""
    return (tx - sx, ty - sy) in config.geometry.cone[facing.index]


_MOVE_STEPS = tuple(
    (TARGETLESS_ACTIONS[kind], d.dx, d.dy) for kind, d in MOVE_KINDS.items()
)
_ROTATIONS = (
    TARGETLESS_ACTIONS[ActionKind.ROTATE_CW],
    TARGETLESS_ACTIONS[ActionKind.ROTATE_CCW],
)


class Tick:
    """The facts every agent of one tick reads, taken from a state in one
    pass over its agents.

    * ``state`` -- the state itself;
    * ``agents`` -- every agent, dead or alive, in id order;
    * ``by_id`` -- agent id -> agent;
    * ``occupied`` -- the cells that block a move, the live agents' and
      the corpses', as a frozenset;
    * ``live_guards``, ``live_attackers`` -- each side's live agents in id
      order;
    * ``guard_ids`` -- every guard's id, in order (a guard's rank is its
      index);
    * ``attacker_ranks`` -- each attacker's rank among the attacker ids,
      dead ones included;
    * ``threat`` -- the live attacker nearest the fort (``fort_distance``,
      ties to the least id), or None when no attacker lives.

    The rest is computed on demand: per agent and call, :meth:`moves` and
    :meth:`shots`, the parts of :meth:`legal_actions` a scripted decision
    chooses from; per tick, on first use, the live guards' danger cones
    (:meth:`danger`) and each mark's :meth:`strike_posts`, which all the
    scripted attackers of the tick share and which a snapshot that no
    attacker reads never builds.

    Immutable: its public attributes cannot be rebound, nobody mutates the
    containers they hold, and the per-tick views fill private slots once.
    A snapshot is a value of the tick it was taken in, so it is passed to
    the calls that read it and never stored on the state, and its views die
    with it: states are mutable, and tests edit them in place.
    """

    __slots__ = (
        "state",
        "agents",
        "by_id",
        "occupied",
        "live_guards",
        "live_attackers",
        "guard_ids",
        "attacker_ranks",
        "threat",
        "_danger",
        "_posts",
    )

    def __init__(self, state: WorldState) -> None:
        agents = tuple(sorted(state.agents, key=attrgetter("id")))
        fort_distance = state.config.geometry.fort_distance
        by_id, cells, attacker_ranks = {}, [], {}
        live_guards, live_attackers, guard_ids = [], [], []
        threat, threat_distance = None, math.inf
        for a in agents:
            by_id[a.id] = a
            cells.append((a.x, a.y))
            if a.kind.is_guard:
                guard_ids.append(a.id)
                if a.alive:
                    live_guards.append(a)
            else:
                attacker_ranks[a.id] = len(attacker_ranks)
                if a.alive:
                    live_attackers.append(a)
                    d = fort_distance[a.x, a.y]
                    if d < threat_distance:
                        threat, threat_distance = a, d
        init = object.__setattr__
        init(self, "state", state)
        init(self, "agents", agents)
        init(self, "by_id", by_id)
        init(self, "occupied", frozenset(cells))
        init(self, "live_guards", tuple(live_guards))
        init(self, "live_attackers", tuple(live_attackers))
        init(self, "guard_ids", tuple(guard_ids))
        init(self, "attacker_ranks", attacker_ranks)
        init(self, "threat", threat)
        init(self, "_danger", None)
        init(self, "_posts", {})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a Tick is immutable; cannot set {name}")

    def moves(self, agent_id: int) -> list[tuple[Action, tuple[int, int]]]:
        """The agent's legal moves with their target cells, in N, E, S, W
        order: the cell's ``Geometry.exits`` into cells that are not
        occupied (corpses block).  Empty for a dead agent."""
        agent = self.by_id[agent_id]
        if not agent.alive:
            return []
        occupied = self.occupied
        exits = self.state.config.geometry.exits[agent.x, agent.y]
        return [move for move in exits if move[1] not in occupied]

    def shots(self, agent_id: int) -> dict[int, Action]:
        """The agent's legal shots by target id, in id order: at each live
        foe inside range and arc, with every agent on the grid one lookup
        in the shooter's ``Geometry.cone``; each the shared
        ``SHOT_ACTIONS[target]``.  Empty for a dead agent."""
        agent = self.by_id[agent_id]
        if not agent.alive:
            return {}
        x, y = agent.x, agent.y
        cone = self.state.config.geometry.cone[agent.direction.index]
        foes = self.live_attackers if agent.kind.is_guard else self.live_guards
        return {f.id: SHOT_ACTIONS[f.id] for f in foes if (f.x - x, f.y - y) in cone}

    def legal_actions(self, agent_id: int) -> list[Action]:
        """All actions the agent may take this tick, in a fixed documented
        order.

        Order: noop, the actions of :meth:`moves` (N/E/S/W), rotations
        cw/ccw, the actions of :meth:`shots` (by target id).  A dead agent
        can only noop.  The one implementation of the rule;
        :func:`legal_actions` asks it of a fresh snapshot.
        """
        noop = TARGETLESS_ACTIONS[ActionKind.NOOP]
        if not self.by_id[agent_id].alive:
            return [noop]
        moves = [act for act, _ in self.moves(agent_id)]
        return [noop, *moves, *_ROTATIONS, *self.shots(agent_id).values()]

    def danger(self) -> frozenset[tuple[int, int]]:
        """The cells in the danger cone (``Geometry.danger``) of a live
        guard as currently aimed: where one more closing step could bring
        an attacker under fire.  Facing only changes through explicit
        rotations, so a mover's firing arc goes stale; cells outside every
        current danger cone are safe to stand on this tick.  Built on the
        first call and kept for the life of the snapshot."""
        cells = self._danger
        if cells is None:
            cones = self.state.config.geometry.danger
            guards = [(g.x, g.y, cones[g.direction.index]) for g in self.live_guards]
            cells = frozenset([(x + i, y + j) for x, y, cone in guards for i, j in cone])
            object.__setattr__(self, "_danger", cells)
        return cells

    def strike_posts(self, mark: AgentState) -> frozenset[tuple[int, int]]:
        """The cells from which the live guard ``mark`` can be shot without
        answer: the grid cells of its strike pocket (``Geometry.pocket``:
        in weapon range of it, outside its arc) outside :meth:`danger`.
        The mark's own cone lies in its arc, so these are the other guards'
        cones.  Built on the first call per mark and kept for the life of
        the snapshot."""
        posts = self._posts.get(mark.id)
        if posts is None:
            config = self.state.config
            x, y = mark.x, mark.y
            pocket = [
                (x + dx, y + dy)
                for dx, dy in config.geometry.pocket[mark.direction.index]
                if 0 <= x + dx < config.width and 0 <= y + dy < config.height
            ]
            posts = self._posts[mark.id] = frozenset(pocket).difference(self.danger())
        return posts


def legal_actions(state: WorldState, agent_id: int) -> list[Action]:
    """:meth:`Tick.legal_actions` of the agent in ``state``: the same
    actions, in the same order, for callers holding a state alone."""
    return Tick(state).legal_actions(agent_id)


def step(
    state: WorldState, actions: Mapping[int, Action]
) -> tuple[WorldState, list[Event]]:
    """Advance one tick with a joint action.

    Requires exactly one action per live agent; actions for dead agents are
    dropped with a warning event, unknown ids raise.  Shots resolve first
    against tick-start poses (a hit needs the target alive at tick start and
    inside range and arc -- anything else fires and misses); mutual shots
    kill both, and agents killed this tick neither move nor rotate.  Moves
    then resolve simultaneously: moves into cells of non-moving agents
    cancel, pairwise swaps cancel, and when several movers contest one cell
    the lowest agent id wins.  Off-grid or self-targeted moves downgrade to
    holds with a warning event.  The cancellations repeat in rounds, each
    walking the movers in id order, until one cancels nothing: without
    conflicts, the common case, after one.  ``state`` is left as it was.
    """
    if terminal(state) is not None:
        raise ValueError("cannot step a terminal state")
    config = state.config
    by_id = {a.id: a for a in state.agents}
    for agent_id in actions:
        if agent_id not in by_id:
            raise ValueError(f"action supplied for unknown agent id {agent_id}")
    events: list[Event] = []
    effective: dict[int, Action] = {}
    for agent in state.agents:
        act = actions.get(agent.id)
        if not agent.alive:
            if act is not None:
                events.append(IgnoredAction(agent.id, "agent is dead"))
            continue
        if act is None:
            raise ValueError(f"missing action for live agent {agent.id}")
        if act.kind is ActionKind.SHOOT and act.target not in by_id:
            raise ValueError(
                f"agent {agent.id} shoots unknown target id {act.target}"
            )
        effective[agent.id] = act

    # --- one pass in id order: shots against tick-start poses, each
    # mover's start and target cells, each turner's new facing ---
    shots_fired, shots_hit = dict(state.shots_fired), dict(state.shots_hit)
    cone = config.geometry.cone
    lethal: dict[int, list[int]] = {}  # target id -> lethal shooter ids
    shot_pairs: list[tuple[int, int, bool]] = []
    steps: list[tuple[int, tuple[int, int], int, int]] = []
    turns: dict[int, Direction] = {}
    for agent_id in sorted(effective):
        kind = effective[agent_id].kind
        agent = by_id[agent_id]
        if kind is ActionKind.SHOOT:
            target = by_id[effective[agent_id].target]
            shots_fired[agent_id] += 1
            hit = target.alive and (
                (target.x - agent.x, target.y - agent.y) in cone[agent.direction.index]
            )
            if hit:
                lethal.setdefault(target.id, []).append(agent_id)
            shot_pairs.append((agent_id, target.id, hit))
        elif kind in MOVE_KINDS:
            d = MOVE_KINDS[kind]
            steps.append((agent_id, (agent.x, agent.y), agent.x + d.dx, agent.y + d.dy))
        elif kind is ActionKind.ROTATE_CW:
            turns[agent_id] = agent.direction.clockwise()
        elif kind is ActionKind.ROTATE_CCW:
            turns[agent_id] = agent.direction.counterclockwise()
    credited_for = {target: max(shooters) for target, shooters in lethal.items()}
    for shooter_id, target_id, hit in shot_pairs:
        was_credited = hit and credited_for.get(target_id) == shooter_id
        if was_credited:
            shots_hit[shooter_id] += 1
        events.append(ShotEvent(shooter_id, target_id, hit, credited=was_credited))
    killed = set(lethal)

    # --- moves, for agents still alive after shot resolution; ``dest`` is
    # filled in id order, and deleting from it keeps that order ---
    dest: dict[int, tuple[int, int]] = {}
    start: dict[int, tuple[int, int]] = {}
    for agent_id, here, x, y in steps:
        if agent_id in killed:
            continue
        if not config.in_bounds(x, y):
            events.append(IgnoredAction(agent_id, "off-grid move resolved as hold"))
            continue
        dest[agent_id], start[agent_id] = (x, y), here
    stationary_cells = {(a.x, a.y) for a in state.agents if a.id not in dest}
    while dest:
        changed = False
        # moves into cells held by non-movers cancel
        for m in list(dest):
            if dest[m] in stationary_cells:
                stationary_cells.add(start[m])
                del dest[m]
                changed = True
        # pairwise swaps cancel; a mover's one possible partner is the mover
        # standing on its target cell
        standing = {start[m]: m for m in dest}
        for m1 in list(dest):
            m2 = standing.get(dest.get(m1))
            if m2 in dest and dest[m2] == start[m1]:
                stationary_cells.add(start[m1])
                stationary_cells.add(start[m2])
                del dest[m1], dest[m2]
                changed = True
        # several movers into one cell: lowest id wins
        by_cell: dict[tuple[int, int], list[int]] = {}
        for m, cell in dest.items():
            by_cell.setdefault(cell, []).append(m)
        for group in by_cell.values():
            for loser in group[1:]:
                stationary_cells.add(start[loser])
                del dest[loser]
                changed = True
        if not changed:
            break

    # --- the next state: the killed fall where they stood ---
    agents = []
    for a in state.agents:
        i = a.id
        if i in killed:
            agents.append(AgentState(i, a.kind, a.x, a.y, a.direction, False))
        else:
            x, y = dest.get(i) or (a.x, a.y)
            facing = turns.get(i, a.direction)
            agents.append(AgentState(i, a.kind, x, y, facing, a.alive))
    return (
        WorldState(config, agents, state.step_count + 1, shots_fired, shots_hit),
        events,
    )


def terminal(state: WorldState) -> Optional[EpisodeResult]:
    """Episode result if the state is terminal, else None.

    Checked in precedence order: an attacker stands on a fort cell; all
    attackers dead; all guards dead; step limit reached.
    """
    fort_cells = state.config.fort_cells
    on_fort = guards_live = attackers_live = False
    for a in state.agents:
        if not a.alive:
            continue
        if a.kind.is_guard:
            guards_live = True
        else:
            attackers_live = True
            on_fort = on_fort or (a.x, a.y) in fort_cells
    outcome = None
    if on_fort:
        outcome = Outcome.ATTACKERS_WIN_FORT
    elif not attackers_live:
        outcome = Outcome.GUARDS_WIN_ELIMINATION
    elif not guards_live:
        outcome = Outcome.ATTACKERS_WIN_ELIMINATION
    elif state.step_count >= state.config.max_steps:
        outcome = Outcome.GUARDS_WIN_TIMEOUT
    if outcome is None:
        return None
    return EpisodeResult(
        outcome=outcome,
        steps=state.step_count,
        shots_fired=dict(state.shots_fired),
        shots_hit=dict(state.shots_hit),
    )


def state_to_dict(state: WorldState) -> dict:
    """JSON-friendly snapshot with deterministic ordering."""
    return {
        "step": state.step_count,
        "agents": [
            {
                "id": a.id,
                "kind": a.kind.value,
                "x": a.x,
                "y": a.y,
                "dir": a.direction.name,
                "alive": a.alive,
            }
            for a in sorted(state.agents, key=lambda a: a.id)
        ],
    }

