"""Tests of the benchmark's own helpers and output checks.

Each check is fed a crafted wrong input and must reject it, and the
matching right input and must accept it.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from harness import PercentileError, percentile  # noqa: E402

from fortdefense.env import (  # noqa: E402
    Action,
    ActionKind,
    AgentKind,
    AgentState,
    Direction,
    GridConfig,
    ShotEvent,
    WorldState,
    legal_actions,
)


def _state(agents, step_count=0):
    return WorldState(config=GridConfig(), agents=agents, step_count=step_count)


def _guard(i, x, y, d=Direction.S, alive=True):
    return AgentState(i, AgentKind.GUARD, x, y, d, alive)


def _attacker(i, x, y, d=Direction.N, alive=True):
    return AgentState(i, AgentKind.ATTACKER, x, y, d, alive)


def test_percentile_refuses_a_p90_without_ten_samples_beyond():
    with pytest.raises(PercentileError):
        percentile(range(99), 0.9)
    assert percentile(range(100), 0.9) == pytest.approx(89.5)


def test_percentile_is_near_the_classic_quantile():
    import statistics

    values = [float((i * 37) % 101) for i in range(200)]
    assert percentile(values, 0.9) == pytest.approx(
        statistics.quantiles(values, n=10)[8], abs=1.0
    )
    # symmetric samples: the weights are symmetric, so the median is exact
    assert percentile(range(101), 0.5) == pytest.approx(50.0)


def test_percentile_moves_less_than_one_order_statistic():
    # Nudging the sample at the median moves the classic median by the
    # whole nudge and the weighted estimate by a small share of it.
    import statistics

    values = [10.0 * v for v in range(101)]
    nudged = values[:50] + [503.0] + values[51:]
    assert statistics.median(nudged) - statistics.median(values) == 3.0
    assert 0 < percentile(nudged, 0.5) - percentile(values, 0.5) < 0.5


def test_host_speed_factor_uses_nearby_kernel_runs():
    speed = hostspeed.HostSpeed()
    # ten runs at nominal speed around t=0..9, then ten twice as slow at t=100..109
    speed.stamps = [float(t) for t in range(10)] + [100.0 + t for t in range(10)]
    nominal = hostspeed.NOMINAL_S
    speed.ref_s = [nominal] * 10 + [2 * nominal] * 10
    assert speed.factor(4.0, 5.0) == pytest.approx(1.0)
    assert speed.factor(104.0, 105.0) == pytest.approx(0.5**hostspeed.EXPONENT)
    # far from any run: widened on both sides until it holds MIN_SAMPLES
    # runs (three of each speed here), whose median is 1.5x nominal
    assert speed.factor(50.0, 50.0) == pytest.approx((1 / 1.5) ** hostspeed.EXPONENT)


def test_two_bodies_on_one_cell_are_rejected():
    ok = _state([_guard(0, 3, 3), _attacker(1, 3, 4, alive=False)])
    bad = _state([_guard(0, 3, 3), _attacker(1, 3, 3, alive=False)])
    assert checks.shared_cells(ok) == []
    assert checks.shared_cells(bad)


def test_a_hit_out_of_range_or_arc_is_rejected():
    # guard at (10, 10) facing north; range 5, arc 90 degrees
    in_reach = _state([_guard(0, 10, 10, Direction.N), _attacker(1, 11, 14)])
    too_far = _state([_guard(0, 10, 10, Direction.N), _attacker(1, 10, 16)])
    behind = _state([_guard(0, 10, 10, Direction.N), _attacker(1, 10, 7)])
    assert checks.shot_errors(in_reach, [ShotEvent(0, 1, True)]) == []
    assert checks.shot_errors(too_far, [ShotEvent(0, 1, True)])
    assert checks.shot_errors(behind, [ShotEvent(0, 1, True)])
    # a shot in range and arc that the simulator called a miss is wrong too
    assert checks.shot_errors(in_reach, [ShotEvent(0, 1, False)])


def test_a_wrong_outcome_is_rejected():
    cfg = GridConfig()
    fort = sorted(cfg.fort_cells)[0]
    on_fort = _state([_guard(0, 0, 0, alive=False), _attacker(1, *fort)], step_count=40)
    assert checks.expected_outcome(on_fort) == "attackers_win_fort"

    class Tick:
        before = _state([_guard(0, 0, 0), _attacker(1, fort[0], fort[1] - 3)], 39)
        after = on_fort

    assert checks.outcome_errors([Tick], "attackers_win_fort") == []
    assert checks.outcome_errors([Tick], "attackers_win_elimination")


def test_an_illegal_guard_action_is_rejected():
    state = _state([_guard(0, 5, 5), _attacker(1, 5, 4)])
    blocked = {0: Action(ActionKind.MOVE_S)}  # the attacker stands there
    fine = {0: Action(ActionKind.MOVE_N)}
    assert checks.illegal_guard_actions(state, fine, legal_actions) == []
    assert checks.illegal_guard_actions(state, blocked, legal_actions)


def test_an_accuracy_count_that_differs_from_the_recount_is_caught():
    class Step:
        step = 1
        predictions = {"attacker0": int(ActionKind.MOVE_N), "attacker1": int(ActionKind.NOOP)}

    class Tick:
        before = _state([_guard(0, 5, 5), _attacker(3, 9, 9), _attacker(4, 12, 9)])
        actions = {3: Action(ActionKind.MOVE_N), 4: Action(ActionKind.MOVE_E)}
        assignment = {3: 0, 4: 0}

    ids = {"attacker0": 3, "attacker1": 4}
    assert checks.recount_accuracy([Step], [Tick], ids.get) == (1, 2)


def test_unexpected_and_missing_failures_are_both_reported():
    expected = {"q1": "KeyError"}
    assert checks.failure_errors({"q1": "KeyError"}, expected) == []
    assert checks.failure_errors({"q1": "KeyError", "q2": "KeyError"}, expected)
    assert checks.failure_errors({}, expected)
    assert checks.failure_errors({"q1": "QueryParseError"}, expected)
