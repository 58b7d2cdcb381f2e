"""Goal selection and the regions relevant to a decision.

Goals are conjunctions of ground literals handed to the planner, chosen
by a fixed priority:

1. ``shoot_target`` — some living attacker is (or is predicted next tick
   to be) within shooting reach: weapon range plus a pursuit margin that
   the plan itself can close.  Nearest attacker wins, ties to the lowest
   agent index.
2. ``occupy_region`` — some fort-adjacent region contains no living
   guard: occupy the unguarded region closest to an attacker (highest
   threat), ties to the lowest region index.
3. ``hold_position`` — face the nearest living attacker
   (:func:`nearest_living`, which the fallback, the targets of predicted
   shots and the explainer share).

Relevance decides which regions are grounded at cell granularity: the
controlled guard's region, the fort regions, every region holding or
about to hold a living attacker, plus caller-supplied extras (the goal
region and a connecting corridor, so plans can route between them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from fortdefense.kr.ground import (
    DIR_OF_SYMBOL,
    DIR_SYMBOLS,
    PURSUIT_MARGIN,
    GroundedDomain,
    attacker_symbols,
    fort_region_symbols,
    guard_symbols,
    region_cells,
    region_index,
    region_symbol_of,
)
from fortdefense.kr.lang import Atom, Literal

Cell = tuple[int, int]


@dataclass(frozen=True)
class Goal:
    kind: str  # "shoot_target" | "occupy_region" | "hold_position"
    target: Optional[str]
    literals: tuple[Literal, ...]


def pose_of(belief, sym: str) -> Optional[tuple[int, int, str]]:
    """(x, y, facing) of an agent symbol, or None if unknown."""
    x = y = d = None
    for atom in belief.index.get("in", ()):
        if atom.args[0] == sym:
            x, y = atom.args[1], atom.args[2]
    for atom in belief.index.get("face", ()):
        if atom.args[0] == sym:
            d = atom.args[1]
    if x is None or d is None:
        return None
    return x, y, d


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


def region_center(gdom: GroundedDomain, sym: str) -> tuple[float, float]:
    cells = region_cells(gdom.config, sym)
    return (
        sum(c[0] for c in cells) / len(cells),
        sum(c[1] for c in cells) / len(cells),
    )


def fort_adjacent_regions(gdom: GroundedDomain) -> frozenset[str]:
    """The fort's own regions plus every edge-adjacent region."""
    fort = fort_region_symbols(gdom.config)
    adj = set(fort)
    for r1, r2 in gdom.statics["next_to_region"].table:
        if r1 in fort:
            adj.add(r2)
    return frozenset(adj)


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
        return Goal("hold_position", None, ())
    ax, ay, _ = pose
    attackers = living_attackers(belief, gdom)
    predicted_next = predicted_next or {}

    # priority 1: a living attacker within shooting reach
    reach = config.shoot_range + PURSUIT_MARGIN
    in_reach: list[tuple[float, int, str]] = []
    for sym, (tx, ty) in attackers:
        d_now = math.hypot(tx - ax, ty - ay)
        d_pred = d_now
        if sym in predicted_next:
            px, py = predicted_next[sym]
            d_pred = math.hypot(px - ax, py - ay)
        d = min(d_now, d_pred)
        if d <= reach + 1e-9:
            in_reach.append((d, _attacker_index(sym), sym))
    if in_reach:
        in_reach.sort()
        target = in_reach[0][2]
        return Goal("shoot_target", target, (Literal(Atom("shot", (target,)), True),))

    # priority 2: an unguarded fort-adjacent region
    guarded: set[str] = set()
    for sym in guard_symbols(config):
        if is_down(belief, sym):
            continue
        gp = pose_of(belief, sym)
        if gp is not None:
            guarded.add(region_symbol_of(config, gp[0], gp[1]))
    candidates = []
    for r in fort_adjacent_regions(gdom):
        if r in guarded:
            continue
        cx, cy = region_center(gdom, r)
        threat = min(
            (math.hypot(tx - cx, ty - cy) for _, (tx, ty) in attackers),
            default=float("inf"),
        )
        candidates.append((threat, region_index(r), r))
    if candidates and attackers:
        candidates.sort()
        r = candidates[0][2]
        return Goal(
            "occupy_region", r, (Literal(Atom("agent_in", (ah, r)), True),)
        )

    # priority 3: face the nearest living attacker
    nearest = nearest_living(belief, ah, attacker_symbols(config))
    if nearest is not None:
        tx, ty = nearest[1]
        if (tx, ty) != (ax, ay):
            d = _nearest_facing(tx - ax, ty - ay)
            return Goal(
                "hold_position", None, (Literal(Atom("face", (ah, d)), True),)
            )
    return Goal("hold_position", None, ())


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
