"""The slow reference for the simulator's tick: ``step`` as it was before
its conflict resolution was restructured, copied unchanged from
``fortdefense.env``.  It copies the whole state, indexes the agents by id
twice and sorts the movers four times in every conflict round, conflicts
or none.  ``tests/test_env.py`` checks that ``env.step`` returns the same
next state and the same events, in the same order, as this copy; nothing
in the package imports this module.
"""

from __future__ import annotations

from typing import Mapping

from fortdefense.env import (
    MOVE_KINDS,
    Action,
    ActionKind,
    Event,
    IgnoredAction,
    ShotEvent,
    WorldState,
    in_cone,
    terminal,
)


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
    holds with a warning event.
    """
    if terminal(state) is not None:
        raise ValueError("cannot step a terminal state")
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
    order = sorted(effective)

    nxt = state.copy()
    nxt_by_id = {a.id: a for a in nxt.agents}

    # --- shots, simultaneously against tick-start poses ---
    lethal: dict[int, list[int]] = {}  # target id -> lethal shooter ids
    shot_pairs: list[tuple[int, int, bool]] = []
    for agent_id in order:
        act = effective[agent_id]
        if act.kind is not ActionKind.SHOOT:
            continue
        shooter = by_id[agent_id]
        target = by_id[act.target]
        nxt.shots_fired[agent_id] += 1
        hit = target.alive and in_cone(
            state.config, shooter.direction, shooter.x, shooter.y, target.x, target.y
        )
        if hit:
            lethal.setdefault(target.id, []).append(agent_id)
        shot_pairs.append((agent_id, target.id, hit))
    credited_for = {target: max(shooters) for target, shooters in lethal.items()}
    for shooter_id, target_id, hit in shot_pairs:
        was_credited = hit and credited_for.get(target_id) == shooter_id
        if was_credited:
            nxt.shots_hit[shooter_id] += 1
        events.append(ShotEvent(shooter_id, target_id, hit, credited=was_credited))
    killed = set(lethal)
    for tid in killed:
        nxt_by_id[tid].alive = False

    # --- moves, for agents still alive after shot resolution ---
    dest: dict[int, tuple[int, int]] = {}
    for agent_id in order:
        act = effective[agent_id]
        if act.kind not in MOVE_KINDS or agent_id in killed:
            continue
        agent = by_id[agent_id]
        d = MOVE_KINDS[act.kind]
        target_cell = (agent.x + d.dx, agent.y + d.dy)
        if not state.config.in_bounds(*target_cell):
            events.append(IgnoredAction(agent_id, "off-grid move resolved as hold"))
            continue
        dest[agent_id] = target_cell

    pos = {a.id: a.pos for a in state.agents}
    stationary_cells = {pos[i] for i in pos if i not in dest}
    while True:
        changed = False
        # moves into cells held by non-movers cancel
        for m in sorted(dest):
            if dest[m] in stationary_cells:
                stationary_cells.add(pos[m])
                del dest[m]
                changed = True
        # pairwise swaps cancel
        movers = sorted(dest)
        for i, m1 in enumerate(movers):
            if m1 not in dest:
                continue
            for m2 in movers[i + 1 :]:
                if m2 not in dest:
                    continue
                if dest[m1] == pos[m2] and dest[m2] == pos[m1]:
                    stationary_cells.add(pos[m1])
                    stationary_cells.add(pos[m2])
                    del dest[m1], dest[m2]
                    changed = True
                    break
        # several movers into one cell: lowest id wins
        by_cell: dict[tuple[int, int], list[int]] = {}
        for m in sorted(dest):
            by_cell.setdefault(dest[m], []).append(m)
        for cell, group in sorted(by_cell.items()):
            for loser in group[1:]:
                stationary_cells.add(pos[loser])
                del dest[loser]
                changed = True
        if not changed:
            break
    for agent_id, (nx_, ny_) in dest.items():
        nxt_by_id[agent_id].x, nxt_by_id[agent_id].y = nx_, ny_

    # --- rotations ---
    for agent_id in order:
        act = effective[agent_id]
        if agent_id in killed:
            continue
        a = nxt_by_id[agent_id]
        if act.kind is ActionKind.ROTATE_CW:
            a.direction = a.direction.clockwise()
        elif act.kind is ActionKind.ROTATE_CCW:
            a.direction = a.direction.counterclockwise()

    nxt.step_count += 1
    return nxt, events
