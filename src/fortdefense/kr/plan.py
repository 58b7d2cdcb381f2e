"""Goal-directed planning over belief progression.

The search space is exact: nodes are beliefs (keyed by their inertial
atoms plus depth, since predicted exogenous behavior varies by depth),
edges are the controlled guard's executable ground actions, and each
edge also applies that depth's scheduled exogenous actions, checked once
per node: its children all progress through the ones it can execute.  The
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
  ``h(node, d) <= 1 + h(child, d + 1)`` for every guard action (Hart,
  Nilsson & Raphael 1968).  Then a prefix at depth ``k`` with ``k + h > L``
  forces ``d + h > L`` on every key below it, so whatever pruning cuts is
  never reached by any path within the bound.  A bound that is only
  admissible can cut the least path to a key and let a later path claim
  it.
- The goal is tested when a child is generated, as breadth-first search
  does, so a goal at depth ``L`` is found in iteration ``L`` and a plan
  as long as the horizon is still found.  Since ``h`` is 0 where the goal
  holds, no goal within the horizon is pruned, and no iteration before
  the least goal depth finds one.

``h(belief, d)`` bounds the actions still needed from a node at depth
``d``.  It is the maximum, over the goal's literals, of a bound taken from
the literal alone (0 for a literal that already holds), so counterfactual
replans in the explainer get it too:

- ``agent_in(ah, R)``: the Manhattan distance from the guard's cell to
  the nearest cell of ``R``.  Only the guard's own 4-connected ``move``
  changes ``in(ah, ...)``.
- ``face(ah, D)``: 0, 1 or 2 quarter turns; the opposite facing needs
  two, since ``rotate`` turns one quarter.
- ``shot(T)``: the smaller of two terms, capped at ``horizon - d + 1``
  (more than the actions left).  An agent moves only by its scheduled
  ``move``s and turns only by its scheduled ``rotate``s, and a dropped
  action leaves it as it is, so at the start of tick ``k`` it stands on
  its cell at ``d`` or on a cell one of ``schedule[d .. k - 1]`` moves it
  to, with the like facings.

  - Own shot: the least ``n`` such that one of the cells ``T`` can stand
    on at the start of tick ``d + n - 1`` is within ``n - 1`` unit moves
    and quarter turns (``Geometry.steps_to_sight`` at the guard's
    facing) of the guard's cone.  ``shoot`` needs ``in_sight``, and so
    the target in the cone, at tick start, and each tick the guard moves
    at most one 4-connected cell or turns one quarter.
  - Teammate shot: ``k - d + 1`` for the first depth ``k >= d`` whose
    step holds a ``shoot(S, T)`` that can land: ``S`` is not the guard,
    and some pose ``S`` can hold at ``k`` (counted from the root) has a
    cell ``T`` can hold at ``k`` in its cone, or the root holds no pose
    for one of them; nothing else causes ``shot(T)``.

  Each term is consistent.  The child's cells of ``T`` are among the
  node's, one tick later; the guard's move or turn changes the table's
  entry by at most one, the table being the exact cost of moves and
  quarter turns on an empty grid; the teammate term depends on the depth
  alone, and a scheduled shot one tick nearer is one action nearer.  The
  smaller of two consistent bounds is consistent, and so is the cap,
  which falls by one a tick.
- Any other literal: 0.

``Plan.expanded`` counts node expansions summed over the iterations; a
goal the bound proves out of the horizon expands none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from fortdefense.env import in_cone
from fortdefense.kr.beliefs import Belief, check_executable, progress
from fortdefense.kr.goals import Goal, pose_of
from fortdefense.kr.ground import (
    CCW,
    CW,
    DIR_OF_SYMBOL,
    DIR_SYMBOLS,
    GroundedDomain,
    attacker_symbols,
    region_cells,
)
from fortdefense.kr.lang import Atom, Literal


@dataclass(frozen=True)
class Plan:
    actions: tuple[Atom, ...]
    success: bool
    #: nodes expanded, summed over the deepening iterations
    expanded: int


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
        for _, cell in gdom.config.geometry.exits[x, y]:
            if cell in gdom.active_cells:
                out.append(Atom("move", (ah, *cell)))
        out.append(Atom("rotate", (ah, CW[d])))
        out.append(Atom("rotate", (ah, CCW[d])))
    out.append(Atom("noop", (ah,)))
    return out


Bound = Callable[[Belief, int], int]


def _literal_bound(
    lit: Literal, root: Belief, gdom: GroundedDomain, schedule: Sequence[Sequence[Atom]]
) -> Optional[Bound]:
    """One goal literal's lower bound on the actions left from a belief at
    a depth, or None where it contributes 0 (see the module docstring)."""
    ah = gdom.ah_symbol
    atom = lit.atom
    if not lit.positive:
        return None

    if atom.pred == "agent_in" and atom.args[0] == ah and gdom.in_sort(atom.args[1], "region"):
        cells = region_cells(gdom.config, atom.args[1])
        x0, x1 = min(c[0] for c in cells), max(c[0] for c in cells)
        y0, y1 = min(c[1] for c in cells), max(c[1] for c in cells)

        def to_region(belief: Belief, depth: int) -> int:
            pose = pose_of(belief, ah)
            if pose is None:
                return 0
            x, y, _ = pose
            return max(x0 - x, 0, x - x1) + max(y0 - y, 0, y - y1)

        return to_region

    if atom.pred == "face" and atom.args[0] == ah:
        want = atom.args[1]

        def turns(belief: Belief, depth: int) -> int:
            pose = pose_of(belief, ah)
            if pose is None or pose[2] == want:
                return 0
            return 2 if CW[CW[pose[2]]] == want else 1

        return turns

    if atom.pred == "shot":
        target = atom.args[0]
        horizon = len(schedule)
        config = gdom.config
        sight = {
            d: config.geometry.steps_to_sight[DIR_OF_SYMBOL[d].index] for d in DIR_SYMBOLS
        }
        # Geometry.steps_to_sight's flat index of an offset is the index of
        # the target's cell less the guard's, plus ``origin``
        stride = 2 * config.height - 1
        origin = (config.width - 1) * stride + config.height - 1

        def held(sym: str, pred: str, k: int, now: tuple) -> set[tuple]:
            """What ``sym`` can hold at depth ``k``: ``now`` or the target
            of one of its ``pred`` actions scheduled before ``k``."""
            return {now} | {
                a.args[1:] for step in schedule[:k] for a in step
                if a.pred == pred and a.args[0] == sym
            }

        def can_land(shooter: str, k: int) -> bool:
            s, t = pose_of(root, shooter), pose_of(root, target)
            if s is None or t is None:
                return True
            return any(
                in_cone(config, DIR_OF_SYMBOL[d], x, y, tx, ty)
                for x, y in held(shooter, "move", k, s[:2])
                for (d,) in held(shooter, "rotate", k, s[2:])
                for tx, ty in held(target, "move", k, t[:2])
            )

        shots = [
            k
            for k, step in enumerate(schedule)
            if any(
                a.pred == "shoot" and a.args[0] != ah and a.args[1] == target
                and can_land(a.args[0], k)
                for a in step
            )
        ]
        cells = [
            (k, a.args[1] * stride + a.args[2])
            for k, step in enumerate(schedule)
            for a in step
            if a.pred == "move" and a.args[0] == target
        ]
        # per depth d: the teammate term under the cap, and the target's
        # scheduled cells as (the least n that can use it, cell index), by n
        caps = [
            min([horizon + 1] + [k + 1 for k in shots if k >= d]) - d
            for d in range(horizon + 1)
        ]
        moves = [
            tuple((k - d + 2, c) for k, c in cells if k >= d)
            for d in range(horizon + 1)
        ]

        def ticks_to_hit(belief: Belief, depth: int) -> int:
            if atom in belief.atoms:
                return 0
            me, it = pose_of(belief, ah), pose_of(belief, target)
            if me is None or it is None:
                return 1
            row, base = sight[me[2]], origin - me[0] * stride - me[1]
            best = min(caps[depth], 1 + row[base + it[0] * stride + it[1]])
            for least, c in moves[depth]:
                if least >= best:
                    break
                best = min(best, max(least, 1 + row[base + c]))
            return best

        return ticks_to_hit

    return None


def goal_bound(
    root: Belief, goal: Goal, gdom: GroundedDomain, schedule: Sequence[Sequence[Atom]]
) -> Bound:
    """A consistent lower bound on the actions left from a belief at a
    depth to the goal, for a search from ``root``: the largest of its
    literals' bounds.  ``schedule`` holds one step per depth, so its length
    is the horizon."""
    bounds = [
        b for lit in goal.literals if (b := _literal_bound(lit, root, gdom, schedule))
    ]
    return lambda belief, depth: max((b(belief, depth) for b in bounds), default=0)


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
    # the depth's scheduled actions, checked once for every child
    exo = tuple(a for a in ctx.exo[depth] if check_executable(node, a, gdom)[0])
    for action in candidate_actions(node, gdom):
        ok, _ = check_executable(node, action, gdom)
        if not ok:
            continue
        actions = (action,) + exo
        child = progress(node, actions, gdom, checked=frozenset(actions))
        new_path = path + (action,)
        if goal_holds(child, ctx.goal):
            return new_path
        if depth + 1 >= limit or depth + 1 + ctx.h(child, depth + 1) > limit:
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
    exo = [tuple(step) for step in schedule] + [()] * (horizon - len(schedule))
    ctx = _Search(goal, gdom, exo, goal_bound(belief, goal, gdom, exo[:horizon]))
    root_key = (belief.inertial_atoms(gdom), 0)
    for limit in range(max(1, ctx.h(belief, 0)), horizon + 1):
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
    exo = [tuple(step) for step in schedule] + [()] * (len(actions) - len(schedule))
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
