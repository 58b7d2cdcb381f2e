"""Shared fixtures: one recorded W0 episode, played once per session."""

import pytest

from fortdefense.env import GridConfig
from fortdefense.loop import run_games


@pytest.fixture(scope="session")
def w0_p1_record():
    """The ad hoc guard's decision trace for one W0 episode: the default
    grid, policy P1, episode seed 0, horizon 8."""
    stats = run_games(GridConfig(), "P1", 1, seed=0, horizon=8, collect_traces=True)
    return stats.records[0]
