"""Output checks made apart from the program.

Each check returns a list of human-readable errors (empty when the output
is right).  The geometry and the terminal rule are recomputed here from
the game's definition rather than taken from ``fortdefense.env``.
"""

from __future__ import annotations

import math
from collections import Counter

# Facing unit vectors, north = +y.
_FACING = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_EPS = 1e-9


def shared_cells(state) -> list[str]:
    """Bodies (living or not) sharing a cell; corpses block cells too."""
    counts = Counter((a.x, a.y) for a in state.agents)
    return [
        f"step {state.step_count}: {n} bodies on cell {cell}"
        for cell, n in sorted(counts.items())
        if n > 1
    ]


def in_range_and_arc(config, shooter, target) -> bool:
    """Distance at most the range, and the bearing within half the arc of
    the shooter's facing; the shooter's own cell is never in its arc."""
    dx, dy = target.x - shooter.x, target.y - shooter.y
    dist = math.hypot(dx, dy)
    if dist == 0 or dist > config.shoot_range + _EPS:
        return False
    fx, fy = _FACING[shooter.direction.name]
    cos_off = (dx * fx + dy * fy) / dist
    return cos_off >= math.cos(math.radians(config.shoot_arc_deg) / 2) - _EPS


def shot_errors(before, events) -> list[str]:
    """Every shot is lethal exactly when the target was alive and inside
    range and arc of the shooter's tick-start pose."""
    errors = []
    by_id = {a.id: a for a in before.agents}
    for e in events:
        if not hasattr(e, "hit"):
            continue
        shooter, target = by_id[e.shooter], by_id[e.target]
        expected = target.alive and in_range_and_arc(before.config, shooter, target)
        if e.hit != expected:
            errors.append(
                f"step {before.step_count + 1}: shot {e.shooter}->{e.target}"
                f" reported hit={e.hit}, geometry says {expected}"
            )
    return errors


def expected_outcome(state):
    """The terminal rule in precedence order, or None while the game runs:
    an attacker on a fort cell; all attackers down; all guards down; the
    step limit."""
    attackers = [a for a in state.agents if not a.kind.is_guard]
    guards = [a for a in state.agents if a.kind.is_guard]
    if any(a.alive and (a.x, a.y) in state.config.fort_cells for a in attackers):
        return "attackers_win_fort"
    if not any(a.alive for a in attackers):
        return "guards_win_elimination"
    if not any(g.alive for g in guards):
        return "attackers_win_elimination"
    if state.step_count >= state.config.max_steps:
        return "guards_win_timeout"
    return None


def outcome_errors(ticks, reported: str) -> list[str]:
    """The game ran until the first terminal state and reported its outcome."""
    errors = []
    for tick in ticks:
        early = expected_outcome(tick.before)
        if early is not None:
            errors.append(f"step {tick.before.step_count}: play continued after {early}")
    final = expected_outcome(ticks[-1].after) if ticks else None
    if final != reported:
        errors.append(f"outcome {reported!r}, the terminal rule gives {final!r}")
    return errors


def illegal_guard_actions(before, actions, legal_actions) -> list[str]:
    """Guard actions missing from ``legal_actions(state, id)``."""
    errors = []
    for agent in before.agents:
        if agent.kind.is_guard and agent.id in actions:
            if actions[agent.id] not in legal_actions(before, agent.id):
                errors.append(
                    f"step {before.step_count + 1}: guard {agent.id}"
                    f" took illegal {actions[agent.id]}"
                )
    return errors


def tick_errors(ticks, reported_outcome: str, legal_actions) -> list[str]:
    """All per-tick checks of one episode."""
    errors = outcome_errors(ticks, reported_outcome)
    for tick in ticks:
        errors += shared_cells(tick.after)
        errors += shot_errors(tick.before, tick.events)
        errors += illegal_guard_actions(tick.before, tick.actions, legal_actions)
    return errors


def recount_accuracy(steps, ticks, symbol_id) -> tuple[int, int]:
    """(correct, total) of the assigned models' predictions against the
    observed action kinds, from recorded predictions and recorded ticks.

    Only agents that had an assigned model when the prediction was made
    count, as in the controller.
    """
    tick_at = {t.before.step_count + 1: t for t in ticks}
    correct = total = 0
    for s in steps:
        tick = tick_at[s.step]
        for sym, kind in s.predictions.items():
            aid = symbol_id(sym)
            if aid not in tick.assignment or aid not in tick.actions:
                continue
            total += 1
            correct += int(kind == int(tick.actions[aid].kind))
    return correct, total


def majority_rate(labels) -> float:
    return max(Counter(labels).values()) / len(labels)


def failure_errors(failures, expected) -> list[str]:
    """Failed operations must be exactly the expected ones.

    ``failures`` and ``expected`` map an operation to a short error class.
    """
    errors = []
    for op, kind in sorted(failures.items()):
        if expected.get(op) != kind:
            errors.append(f"unexpected failure {kind} on {op!r}")
    for op, kind in sorted(expected.items()):
        if op not in failures:
            errors.append(f"expected {kind} on {op!r}, but it succeeded")
    return errors
