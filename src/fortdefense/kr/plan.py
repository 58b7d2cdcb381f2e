"""Goal-directed planning over belief progression.

The search space is exact: nodes are beliefs (keyed by their inertial
atoms plus depth, since predicted exogenous behavior varies by depth),
edges are the controlled guard's executable ground actions, and each
edge also applies that depth's scheduled exogenous actions.  The
contract is a minimum-length plan; among equal-length plans the
lexicographically first under the canonical action order wins:

    shoot (targets by attacker index) < move north < move east <
    move south < move west < rotate clockwise < rotate counterclockwise
    < noop

Rotation actions name absolute directions; "clockwise" is relative to
the facing at the node being expanded.

The search is depth-first iterative deepening (Korf 1985): for each
length bound ``L`` from ``max(1, h(root))`` to the horizon, a depth-first
search in canonical action order, which skips a child when
``depth + 1 + h(child) > L``.  It returns exactly the plan a breadth-first
search keyed the same way returns:

- Breadth-first search keeps, for every ``(state, depth)`` key, the
  lexicographically least path reaching it, and returns the least goal
  path of the least length: a goal path's prefix can always be swapped
  for the kept path of the same key.
- Each iteration starts a fresh ``(state, depth)`` set.  Among paths of
  one length, depth-first search in canonical order meets them in
  lexicographic order, so the first visit of a key is its least path,
  provided no prefix of that path was pruned.
- That proviso is why ``h`` must be consistent, not merely admissible:
  ``h(node) <= 1 + h(child)`` for every guard action (Hart, Nilsson &
  Raphael 1968).  Then a prefix at depth ``k`` with ``k + h > L`` forces
  ``d + h > L`` on every key below it, so whatever pruning cuts is never
  reached by any path within the bound.  A bound that is only admissible
  can cut the least path to a key and let a later path claim it.
- The goal is tested when a child is generated, as breadth-first search
  does, so a goal at depth ``L`` is found in iteration ``L`` and a plan
  as long as the horizon is still found.  Since ``h`` is 0 where the goal
  holds, no goal within the horizon is pruned, and no iteration before
  the least goal depth finds one.

``h`` is the maximum, over the goal's literals, of a bound taken from the
literal alone (0 for a literal that already holds), so counterfactual
replans in the explainer get it too:

- ``agent_in(ah, R)``: the Manhattan distance from the guard's cell to
  the nearest cell of ``R``.  Only the guard's own 4-connected ``move``
  changes ``in(ah, ...)``.
- ``face(ah, D)``: 0, 1 or 2 quarter turns; the opposite facing needs
  two, since ``rotate`` turns one quarter.
- ``shot(T)``: ``1 + ceil((dist(ah, T) - range) / 2)``, at least 1, with
  the range test of the ``in_sight`` static.  ``shoot`` needs
  ``in_sight`` at tick start, and the guard and ``T`` each move at most
  one cell a tick, so the gap closes by at most 2 a tick.  When any
  schedule step holds an ``agent_shoot(_, T)``, a teammate may hit ``T``
  on any tick, and the bound is 1.
- Any other literal: 0.

``Plan.expanded`` counts node expansions summed over the iterations; a
goal the bound proves out of the horizon expands none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from fortdefense.env import EPS
from fortdefense.kr.beliefs import Belief, check_executable, progress
from fortdefense.kr.goals import Goal, pose_of
from fortdefense.kr.ground import (
    CCW,
    CW,
    GroundedDomain,
    attacker_symbols,
    region_cells,
)
from fortdefense.kr.lang import Atom, Literal

_MOVE_DELTAS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # n, e, s, w order


@dataclass(frozen=True)
class Plan:
    actions: tuple[Atom, ...]
    success: bool
    #: nodes expanded, summed over the deepening iterations
    expanded: int

    def __len__(self) -> int:
        return len(self.actions)


def goal_holds(belief: Belief, goal: Goal) -> bool:
    return all(belief.holds(lit) for lit in goal.literals)


def candidate_actions(belief: Belief, gdom: GroundedDomain) -> list[Atom]:
    """The controlled guard's ground actions in canonical order, before
    executability filtering."""
    ah = gdom.ah_symbol
    pose = pose_of(belief, ah)
    out: list[Atom] = []
    for sym in attacker_symbols(gdom.config):
        out.append(Atom("shoot", (ah, sym)))
    if pose is not None:
        x, y, d = pose
        for dx, dy in _MOVE_DELTAS:
            tx, ty = x + dx, y + dy
            if (tx, ty) in gdom.active_cells:
                out.append(Atom("move", (ah, tx, ty)))
        out.append(Atom("rotate", (ah, CW[d])))
        out.append(Atom("rotate", (ah, CCW[d])))
    out.append(Atom("noop", (ah,)))
    return out


Bound = Callable[[Belief], int]


def _literal_bound(
    lit: Literal, gdom: GroundedDomain, schedule: Sequence[Sequence[Atom]]
) -> Optional[Bound]:
    """One goal literal's lower bound on the plan length, or None where
    it contributes 0 (see the module docstring)."""
    ah = gdom.ah_symbol
    atom = lit.atom
    if not lit.positive:
        return None

    if atom.pred == "agent_in" and atom.args[0] == ah and gdom.in_sort(atom.args[1], "region"):
        cells = region_cells(gdom.config, atom.args[1])
        x0, x1 = min(c[0] for c in cells), max(c[0] for c in cells)
        y0, y1 = min(c[1] for c in cells), max(c[1] for c in cells)

        def to_region(belief: Belief) -> int:
            pose = pose_of(belief, ah)
            if pose is None:
                return 0
            x, y, _ = pose
            return max(x0 - x, 0, x - x1) + max(y0 - y, 0, y - y1)

        return to_region

    if atom.pred == "face" and atom.args[0] == ah:
        want = atom.args[1]

        def turns(belief: Belief) -> int:
            pose = pose_of(belief, ah)
            if pose is None or pose[2] == want:
                return 0
            return 2 if CW[CW[pose[2]]] == want else 1

        return turns

    if atom.pred == "shot":
        target = atom.args[0]
        if any(
            a.pred == "agent_shoot" and a.args[1] == target
            for step in schedule
            for a in step
        ):
            return lambda belief: 0 if atom in belief.atoms else 1
        reach = gdom.config.shoot_range + EPS

        def ticks_to_hit(belief: Belief) -> int:
            if atom in belief.atoms:
                return 0
            me, it = pose_of(belief, ah), pose_of(belief, target)
            if me is None or it is None:
                return 1
            gap = math.hypot(it[0] - me[0], it[1] - me[1]) - reach
            return 1 + max(0, math.ceil(gap / 2))

        return ticks_to_hit

    return None


def goal_bound(
    goal: Goal, gdom: GroundedDomain, schedule: Sequence[Sequence[Atom]] = ()
) -> Bound:
    """A consistent lower bound on the length of any plan from a belief to
    the goal under the schedule: the largest of its literals' bounds."""
    bounds = [
        b for lit in goal.literals if (b := _literal_bound(lit, gdom, schedule))
    ]
    return lambda belief: max((b(belief) for b in bounds), default=0)


@dataclass
class _Search:
    """One ``plan`` call's fixed inputs and its running expansion count.

    The depth-first search is a module-level function taking this as an
    argument: a nested function that calls itself holds a reference to
    itself, a cycle every call would leave for the cycle collector.
    """

    goal: Goal
    gdom: GroundedDomain
    exo: list[tuple[Atom, ...]]
    h: Bound
    expanded: int = 0


def _search(
    ctx: _Search,
    node: Belief,
    path: tuple[Atom, ...],
    limit: int,
    visited: set[tuple[frozenset[Atom], int]],
) -> Optional[tuple[Atom, ...]]:
    ctx.expanded += 1
    gdom, depth = ctx.gdom, len(path)
    for action in candidate_actions(node, gdom):
        ok, _ = check_executable(node, action, gdom)
        if not ok:
            continue
        child = progress(
            node, (action,) + ctx.exo[depth], gdom, checked=frozenset((action,))
        )
        new_path = path + (action,)
        if goal_holds(child, ctx.goal):
            return new_path
        if depth + 1 >= limit or depth + 1 + ctx.h(child) > limit:
            continue
        key = (child.inertial_atoms(gdom), depth + 1)
        if key in visited:
            continue
        visited.add(key)
        found = _search(ctx, child, new_path, limit, visited)
        if found is not None:
            return found
    return None


def plan(
    belief: Belief,
    goal: Goal,
    gdom: GroundedDomain,
    horizon: int = 8,
    schedule: Sequence[Sequence[Atom]] = (),
) -> Plan:
    """Minimum-length action sequence achieving the goal, or a failed
    plan after the horizon is exhausted.

    ``schedule[d]`` holds the exogenous actions predicted for search
    depth d; predicted actions that become non-executable along a branch
    are dropped rather than failing the branch.
    """
    if goal_holds(belief, goal):
        return Plan((), True, 0)
    exo: list[tuple[Atom, ...]] = [tuple(step) for step in schedule]
    while len(exo) < horizon:
        exo.append(())
    ctx = _Search(goal, gdom, exo, goal_bound(goal, gdom, exo[:horizon]))
    root_key = (belief.inertial_atoms(gdom), 0)
    for limit in range(max(1, ctx.h(belief)), horizon + 1):
        found = _search(ctx, belief, (), limit, {root_key})
        if found is not None:
            return Plan(found, True, ctx.expanded)
    return Plan((), False, ctx.expanded)


def replay(
    belief: Belief,
    actions: Sequence[Atom],
    gdom: GroundedDomain,
    schedule: Sequence[Sequence[Atom]] = (),
) -> Belief:
    """Progress a belief through a plan, enforcing executability of the
    planned actions (used to validate planner output)."""
    exo: list[tuple[Atom, ...]] = [tuple(step) for step in schedule]
    while len(exo) < len(actions):
        exo.append(())
    current = belief
    for depth, action in enumerate(actions):
        ok, blocker = check_executable(current, action, gdom)
        if not ok:
            rule, _ = blocker
            raise ValueError(
                f"planned action {action} blocked at step {depth} by {rule.axiom_id}"
            )
        current = progress(
            current, (action,) + exo[depth], gdom, checked=frozenset((action,))
        )
    return current
