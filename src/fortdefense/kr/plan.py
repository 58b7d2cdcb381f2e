"""Breadth-first planning over belief progression.

The search space is exact: nodes are beliefs (keyed by their inertial
atoms plus depth, since predicted exogenous behavior varies by depth),
edges are the controlled guard's executable ground actions, and each
edge also applies that depth's scheduled exogenous actions.  BFS returns
a minimum-length plan; among equal-length plans the lexicographically
first under the canonical action order wins:

    shoot (targets by attacker index) < move north < move east <
    move south < move west < rotate clockwise < rotate counterclockwise
    < noop

Rotation actions name absolute directions; "clockwise" is relative to
the facing at the node being expanded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from fortdefense.kr.beliefs import Belief, check_executable, progress
from fortdefense.kr.goals import Goal, pose_of
from fortdefense.kr.ground import CCW, CW, GroundedDomain, attacker_symbols
from fortdefense.kr.lang import Atom

_MOVE_DELTAS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # n, e, s, w order


@dataclass(frozen=True)
class Plan:
    actions: tuple[Atom, ...]
    success: bool
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
    visited: set[tuple[frozenset[Atom], int]] = {
        (belief.inertial_atoms(gdom), 0)
    }
    frontier: deque[tuple[Belief, tuple[Atom, ...]]] = deque([(belief, ())])
    expanded = 0
    while frontier:
        node, path = frontier.popleft()
        depth = len(path)
        if depth >= horizon:
            continue
        expanded += 1
        for action in candidate_actions(node, gdom):
            ok, _ = check_executable(node, action, gdom)
            if not ok:
                continue
            child = progress(
                node,
                (action,) + exo[depth],
                gdom,
                on_blocked="drop",
                checked=frozenset((action,)),
            )
            new_path = path + (action,)
            if goal_holds(child, goal):
                return Plan(new_path, True, expanded)
            key = (child.inertial_atoms(gdom), depth + 1)
            if key not in visited:
                visited.add(key)
                frontier.append((child, new_path))
    return Plan((), False, expanded)


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
            current,
            (action,) + exo[depth],
            gdom,
            on_blocked="drop",
            checked=frozenset((action,)),
        )
    return current
