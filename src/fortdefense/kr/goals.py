"""Goal selection and the regions relevant to a decision.

Goals are conjunctions of ground literals handed to the planner, chosen
by a fixed priority:

1. ``shoot_target`` — some living attacker is (or is predicted next tick
   to be) within shooting reach: weapon range plus :data:`PURSUIT_MARGIN`,
   a gap the plan itself can close.  Nearest attacker wins, ties to the
   lowest agent index.
2. ``occupy_region`` — some fort-adjacent region contains no living
   guard: occupy the unguarded region closest to an attacker (highest
   threat, measured from the region's centre), ties to the lowest region
   index.
3. ``hold_position`` — face the nearest living attacker
   (:func:`nearest_living`, which the fallback and the targets of
   predicted shots share); with none left, an empty goal.

The rule is the single source of its own explanation: each :class:`Goal`
carries its ``support``, the ground literals the rule tested (all of which
hold in the belief), and its ``comparison``, the distance that decided.
Neither takes part in a goal's equality or hash, so a goal means the same
to the controller and the planner whatever evidence came with it; the
explainer replays the rule and renders that evidence.

Relevance decides which regions are grounded at cell granularity: the
controlled guard's region, the fort regions, every region holding or
about to hold a living attacker, plus caller-supplied extras (the goal
region and a connecting corridor, so plans can route between them).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from fortdefense.env import GridConfig, facing_toward
from fortdefense.kr.ground import (
    SYMBOL_OF_DIR,
    GroundedDomain,
    attacker_symbols,
    fort_region_symbols,
    guard_symbols,
    region_adjacency,
    region_cells,
    region_index,
    region_symbol_of,
)
from fortdefense.kr.lang import Atom, Literal

Cell = tuple[int, int]

#: A target is "within shooting reach" for goal selection when it is at
#: most this margin beyond weapon range (the planner closes the gap).
PURSUIT_MARGIN = 3.0


@dataclass(frozen=True)
class Comparison:
    """The distance that decided a goal: ``attacker``, measured at
    ``cell``, lay ``distance`` from the guard (shoot_target,
    hold_position) or from the goal region's centre (occupy_region).

    For shoot_target, ``cell`` is the attacker's current cell when that is
    within ``reach`` and its predicted next cell otherwise.  For the other
    goals it is the current cell of the nearest attacker and ``reach`` is
    None."""

    attacker: str
    cell: Cell
    distance: float
    reach: Optional[float] = None


@dataclass(frozen=True)
class Goal:
    kind: str  # "shoot_target" | "occupy_region" | "hold_position"
    target: Optional[str]
    literals: tuple[Literal, ...]
    #: the ground literals the rule tested, each holding in the belief
    support: tuple[Literal, ...] = field(default=(), compare=False)
    #: the comparison that decided (None for an empty hold_position goal)
    comparison: Optional[Comparison] = field(default=None, compare=False)


def pose_of(belief, sym: str) -> Optional[tuple[int, int, str]]:
    """(x, y, facing) of an agent symbol, or None if the belief holds no
    ``in`` or no ``face`` atom for it: a lookup in the belief's pose table
    (:attr:`~fortdefense.kr.beliefs.Belief.poses`), built once a belief."""
    return belief.poses.get(sym)


def is_down(belief, sym: str) -> bool:
    return Atom("shot", (sym,)) in belief.atoms


def living_attackers(belief, gdom: GroundedDomain) -> list[tuple[str, Cell]]:
    out = []
    for sym in attacker_symbols(gdom.config):
        if is_down(belief, sym):
            continue
        pose = pose_of(belief, sym)
        if pose is not None:
            out.append((sym, (pose[0], pose[1])))
    return out


def nearest_living(
    belief, sym: str, pool: Sequence[str]
) -> Optional[tuple[str, Cell]]:
    """The living agent of ``pool`` nearest to ``sym``, with its cell; ties
    go to the earlier agent in ``pool``.  None when ``sym`` has no pose or
    no agent of ``pool`` is alive."""
    pose = pose_of(belief, sym)
    if pose is None:
        return None
    best: Optional[tuple[float, str, Cell]] = None
    for other in pool:
        if is_down(belief, other):
            continue
        opose = pose_of(belief, other)
        if opose is None:
            continue
        d = math.hypot(opose[0] - pose[0], opose[1] - pose[1])
        if best is None or d < best[0]:
            best = (d, other, (opose[0], opose[1]))
    return None if best is None else (best[1], best[2])


def _attacker_index(sym: str) -> int:
    return int(sym[len("attacker") :])


def region_center(config: GridConfig, sym: str) -> tuple[float, float]:
    cells = region_cells(config, sym)
    return (
        sum(c[0] for c in cells) / len(cells),
        sum(c[1] for c in cells) / len(cells),
    )


@functools.cache
def fort_adjacent_regions(config: GridConfig) -> tuple[tuple[str, tuple[float, float]], ...]:
    """The fort's own regions plus every edge-adjacent region, each with
    its centre, in region order; built once per configuration."""
    fort = fort_region_symbols(config)
    adj = set(fort)
    for r1, r2 in region_adjacency(config):
        if r1 in fort:
            adj.add(r2)
    return tuple((r, region_center(config, r)) for r in sorted(adj, key=region_index))


def _shot(sym: str, positive: bool = True) -> Literal:
    return Literal(Atom("shot", (sym,)), positive)


def _at(sym: str, cell: Cell) -> Literal:
    return Literal(Atom("in", (sym, *cell)), True)


def select_goal(
    belief,
    gdom: GroundedDomain,
    predicted_next: Optional[Mapping[str, Cell]] = None,
) -> Goal:
    """Apply the goal priority rule to the current belief."""
    config = gdom.config
    ah = gdom.ah_symbol
    pose = pose_of(belief, ah)
    if pose is None:
        return _idle(belief, config)
    ax, ay, _ = pose
    here = _at(ah, (ax, ay))
    attackers = living_attackers(belief, gdom)
    predicted_next = predicted_next or {}

    # priority 1: a living attacker within shooting reach; the comparison
    # cites the current cell when it is within reach, else the predicted one
    reach = config.shoot_range + PURSUIT_MARGIN
    in_reach = []
    for sym, cell in attackers:
        nxt = predicted_next.get(sym, cell)
        d_now = math.hypot(cell[0] - ax, cell[1] - ay)
        d_pred = math.hypot(nxt[0] - ax, nxt[1] - ay)
        if min(d_now, d_pred) <= reach + 1e-9:
            cited = (d_now, cell) if d_now <= reach + 1e-9 else (d_pred, nxt)
            in_reach.append((min(d_now, d_pred), _attacker_index(sym), sym, cell, cited))
    if in_reach:
        _, _, target, cell, (distance, measured) = min(in_reach)
        return Goal(
            "shoot_target",
            target,
            (_shot(target),),
            support=(here, _at(target, cell), _shot(target, False)),
            comparison=Comparison(target, measured, distance, reach),
        )

    # priority 2: an unguarded fort-adjacent region, nearest an attacker
    guarded: set[str] = set()
    for sym in guard_symbols(config):
        if is_down(belief, sym):
            continue
        gp = pose_of(belief, sym)
        if gp is not None:
            guarded.add(region_symbol_of(config, gp[0], gp[1]))
    candidates = []
    for r, (cx, cy) in fort_adjacent_regions(config):
        if r in guarded or not attackers:
            continue
        threat, k = min(
            (math.hypot(tx - cx, ty - cy), k) for k, (_, (tx, ty)) in enumerate(attackers)
        )
        candidates.append((threat, region_index(r), r, k))
    if candidates:
        distance, _, r, k = min(candidates)
        sym, cell = attackers[k]
        guards = tuple(
            _shot(g) if is_down(belief, g) else Literal(Atom("agent_in", (g, r)), False)
            for g in guard_symbols(config)
        )
        return Goal(
            "occupy_region",
            r,
            (Literal(Atom("agent_in", (ah, r)), True),),
            support=guards + (_at(sym, cell), _shot(sym, False)),
            comparison=Comparison(sym, cell, distance),
        )

    # priority 3: face the nearest living attacker
    nearest = nearest_living(belief, ah, attacker_symbols(config))
    if nearest is not None:
        sym, (tx, ty) = nearest
        if (tx, ty) != (ax, ay):
            d = SYMBOL_OF_DIR[facing_toward(tx - ax, ty - ay)]
            return Goal(
                "hold_position",
                None,
                (Literal(Atom("face", (ah, d)), True),),
                support=(here, _at(sym, (tx, ty)), _shot(sym, False)),
                comparison=Comparison(sym, (tx, ty), math.hypot(tx - ax, ty - ay)),
            )
    return _idle(belief, config)


def _idle(belief, config: GridConfig) -> Goal:
    """The empty goal, supported by the attackers already down."""
    downed = tuple(_shot(sym) for sym in attacker_symbols(config) if is_down(belief, sym))
    return Goal("hold_position", None, (), support=downed)


def corridor_regions(config, a: Cell, b: Cell) -> frozenset[str]:
    """Regions overlapping the bounding box of two cells — a coarse
    connecting corridor that keeps plan routes inside fine zones."""
    x0, x1 = sorted((a[0], b[0]))
    y0, y1 = sorted((a[1], b[1]))
    out = set()
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            out.add(region_symbol_of(config, x, y))
    return frozenset(out)


def compute_relevance(
    belief,
    predicted_next: Optional[Mapping[str, Cell]],
    gdom: GroundedDomain,
    extra: Iterable[str] = (),
) -> frozenset[str]:
    """The regions needing cell-level grounding (the fine regions); every
    other region stays coarse.  Relevance is positional: current and
    predicted next cells, never predicted action kinds."""
    config = gdom.config
    fine: set[str] = set(extra)
    fine |= fort_region_symbols(config)
    pose = pose_of(belief, gdom.ah_symbol)
    if pose is not None:
        fine.add(region_symbol_of(config, pose[0], pose[1]))
    for sym, (tx, ty) in living_attackers(belief, gdom):
        fine.add(region_symbol_of(config, tx, ty))
        if predicted_next and sym in predicted_next:
            px, py = predicted_next[sym]
            if config.in_bounds(px, py):
                fine.add(region_symbol_of(config, px, py))
    return frozenset(fine)
