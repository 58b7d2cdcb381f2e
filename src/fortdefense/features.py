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
  bearing are the simulator's, read from the configuration's geometry
  tables.
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
snapshot (:class:`env.Tick`).  The blocks come from the configuration's
block table (``Geometry.blocks``, one row per cell and facing plus the
padding row), gathered for every agent at once by one ``take`` through
the roster's block order (:func:`_block_order`), so a tick's vectors are the
rows of one (agents x 39) matrix.
"""

from __future__ import annotations

import functools
from typing import Mapping, Optional

import numpy as np

from fortdefense.env import Action, ActionKind, Tick

#: Entries per agent block and number of blocks.
BLOCK_FIELDS = ("x", "y", "dist_center", "bearing", "orient", "dist_fort")
N_BLOCKS = 6
N_FEATURES = N_BLOCKS * len(BLOCK_FIELDS) + 3

#: Indices holding categorical values (orientation per block, previous
#: action); models split these by equality rather than by threshold.
CATEGORICAL_FEATURES = frozenset(
    b * len(BLOCK_FIELDS) + BLOCK_FIELDS.index("orient") for b in range(N_BLOCKS)
) | {N_FEATURES - 1}


@functools.lru_cache(maxsize=64)
def _block_order(sides: tuple[bool, ...]) -> np.ndarray:
    """Each agent's blocks as positions in the roster, read-only.

    ``sides`` holds every agent's ``is_guard``, in id order: all the block
    order depends on.  Row ``i`` holds agent ``i``'s ``N_BLOCKS`` blocks:
    itself, its teammates, then its opponents, each by ascending id,
    truncated to ``N_BLOCKS``; a missing block is position ``len(sides)``,
    the padding block.
    """
    n = len(sides)
    side = {g: [i for i, s in enumerate(sides) if s is g] for g in (True, False)}
    rows = []
    for i, is_guard in enumerate(sides):
        mates = [j for j in side[is_guard] if j != i]
        order = ([i] + mates + side[not is_guard])[:N_BLOCKS]
        rows.append(order + [n] * (N_BLOCKS - len(order)))
    out = np.array(rows, dtype=np.intp)
    out.flags.writeable = False
    return out


def extract(
    tick: Tick, prev_actions: Mapping[int, Optional[Action]]
) -> dict[int, np.ndarray]:
    """Every agent's feature vector in one tick, keyed by agent id.

    ``prev_actions`` maps an agent id to its previous action; an id it
    lacks, or maps to ``None``, reads as noop.  The vectors are the rows
    of one fresh (agents x 39) matrix: the blocks gathered from
    ``Geometry.blocks`` by one ``take`` through the roster's block order,
    then the three globals.  Pure: identical inputs give identical vectors;
    index the result to get one agent's vector.
    """
    geometry = tick.state.config.geometry
    height = tick.state.config.height
    agents = tick.agents
    n = len(agents)
    rows = [(a.x * height + a.y) * 4 + a.direction.index for a in agents]
    rows = np.array(rows + [geometry.pad_row])
    order = _block_order(tuple([a.kind.is_guard for a in agents]))
    out = np.empty((n, N_FEATURES))
    blocks = geometry.blocks.take(rows.take(order), axis=0)
    out[:, : N_FEATURES - 3] = blocks.reshape(n, -1)
    t = tick.threat
    nearest = geometry.diagonal if t is None else geometry.fort_distance[t.x, t.y]
    out[:, -3:-1] = (nearest, len(tick.attacker_ranks) - len(tick.live_attackers))
    noop = ActionKind.NOOP
    out[:, -1] = [
        noop if (prev := prev_actions.get(a.id)) is None else prev.kind
        for a in agents
    ]
    return dict(zip([a.id for a in agents], out))
