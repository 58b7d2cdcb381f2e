"""The 39-entry attribute vector that behavior models consume.

Layout (fixed, position-indexed by the model cues):

* Six agent blocks of six entries each.  Block order: the modeled agent
  first, then its teammates by ascending id, then its opponents by
  ascending id; rosters larger than six agents truncate in that order,
  smaller rosters pad with sentinel blocks.
* Block fields: ``x``, ``y``, Euclidean distance to the grid center,
  bearing from north around the grid center (radians in (-pi, pi],
  0 at the exact center), orientation index (N=0, E=1, S=2, W=3), and
  Euclidean distance to the nearest fort cell.  The two distances and the
  bearing are the simulator's (``env.centre_polar``, ``env.fort_distance``),
  read from the configuration's geometry tables.
* Three globals: distance of the nearest *alive* attacker to the fort
  (grid diagonal when none is alive), number of attackers not alive, and
  the modeled agent's previous action kind (noop before the first step).

Bearings are measured clockwise from north (``atan2(dx, dy)``), the same
convention the simulator uses for facing cones; reflecting the world
left-right therefore negates them.  Dead agents keep contributing their
frozen pose; their absence shows up in the not-alive count.

A padding block is ``(-1, -1, diagonal, 0, 0, diagonal)``: impossible
coordinates plus max-distance sentinels.

:func:`extract` works per tick: one call gives every agent's vector in one
state, building each agent's block once however many vectors hold it.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Mapping, Optional

import numpy as np

from fortdefense.env import (
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    GridConfig,
    WorldState,
    centre_polar,
    fort_distance,
)

#: Entries per agent block and number of blocks.
BLOCK_FIELDS = ("x", "y", "dist_center", "bearing", "orient", "dist_fort")
N_BLOCKS = 6
N_FEATURES = N_BLOCKS * len(BLOCK_FIELDS) + 3

#: Indices holding categorical values (orientation per block, previous
#: action); models split these by equality rather than by threshold.
CATEGORICAL_FEATURES = frozenset(
    b * len(BLOCK_FIELDS) + BLOCK_FIELDS.index("orient") for b in range(N_BLOCKS)
) | {N_FEATURES - 1}


def grid_diagonal(config: GridConfig) -> float:
    """Longest possible distance between two cells; the padding sentinel."""
    return math.hypot(config.width - 1, config.height - 1)


def _agent_block(config: GridConfig, agent: AgentState) -> list[float]:
    return [
        float(agent.x),
        float(agent.y),
        *centre_polar(config, agent.x, agent.y),
        float(agent.direction.index),
        fort_distance(config, agent.x, agent.y),
    ]


def pad_sentinel_block(config: GridConfig) -> list[float]:
    diag = grid_diagonal(config)
    return [-1.0, -1.0, diag, 0.0, 0.0, diag]


def extract(
    state: WorldState, prev_actions: Mapping[int, Optional[Action]]
) -> dict[int, np.ndarray]:
    """Every agent's feature vector in one state, keyed by agent id.

    ``prev_actions`` maps an agent id to its previous action; an id it
    lacks, or maps to ``None``, reads as noop.  Each agent's block is built
    once and shared by every vector that holds it.  Pure: identical inputs
    give identical vectors; index the result to get one agent's vector.
    """
    config = state.config
    by_id = sorted(state.agents, key=attrgetter("id"))
    blocks = {a.id: _agent_block(config, a) for a in by_id}
    side_ids = {
        side: [a.id for a in by_id if a.kind.is_guard is side] for side in (True, False)
    }
    attackers = [a for a in by_id if a.kind is AgentKind.ATTACKER]
    alive = [fort_distance(config, a.x, a.y) for a in attackers if a.alive]
    nearest = min(alive) if alive else grid_diagonal(config)
    down = float(len(attackers) - len(alive))
    pad = pad_sentinel_block(config)
    vectors: dict[int, np.ndarray] = {}
    for agent in by_id:
        side = agent.kind.is_guard
        mates = [i for i in side_ids[side] if i != agent.id]
        order = ([agent.id] + mates + side_ids[not side])[:N_BLOCKS]
        values: list[float] = []
        for i in order:
            values += blocks[i]
        values += pad * (N_BLOCKS - len(order))
        prev = prev_actions.get(agent.id)
        kind = ActionKind.NOOP if prev is None else prev.kind
        values += (nearest, down, float(int(kind)))
        vectors[agent.id] = np.array(values, dtype=float)
    return vectors
