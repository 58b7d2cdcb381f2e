"""The slow reference for planning: ``plan`` as it was before the search
became goal-directed, a breadth-first search over the whole ball up to the
plan length.

Tests compare the package's iterative-deepening ``plan`` against it;
nothing in the package imports it.  The only edit to the original text is
the function's name.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from fortdefense.kr.beliefs import Belief, check_executable, progress
from fortdefense.kr.goals import Goal
from fortdefense.kr.ground import GroundedDomain
from fortdefense.kr.lang import Atom
from fortdefense.kr.plan import Plan, candidate_actions, goal_holds


def reference_plan(
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
                node, (action,) + exo[depth], gdom, checked=frozenset((action,))
            )
            new_path = path + (action,)
            if goal_holds(child, goal):
                return Plan(new_path, True, expanded)
            key = (child.inertial_atoms(gdom), depth + 1)
            if key not in visited:
                visited.add(key)
                frontier.append((child, new_path))
    return Plan((), False, expanded)
