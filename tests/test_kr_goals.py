"""Goal-priority rule, its support, and relevance-driven granularity."""

import itertools
import math

import pytest
from hypothesis import given, settings
from test_kr_plan import _W0_GDOM, w0_situations

from fortdefense.env import GridConfig
from fortdefense.kr.beliefs import Belief, close_defined
from fortdefense.kr.goals import (
    PURSUIT_MARGIN,
    Goal,
    Comparison,
    compute_relevance,
    corridor_regions,
    fort_adjacent_regions,
    nearest_living,
    pose_of,
    region_center,
    select_goal,
)
from fortdefense.kr.ground import ground, region_symbol_of
from fortdefense.kr.lang import Atom, Literal, parse_domain


def shipped_domain():
    from importlib import resources

    return parse_domain(
        resources.files("fortdefense").joinpath("data/fort_attack.dom").read_text()
    )


#: A goal that adds no region to the relevant ones.
HOLD = Goal("hold_position", None, ())


def make_gdom(config):
    return ground(shipped_domain(), config)


def belief_of(gdom, entries):
    atoms = []
    for sym, x, y, d, alive in entries:
        atoms.append(Atom("in", (sym, x, y)))
        atoms.append(Atom("face", (sym, d)))
        if not alive:
            atoms.append(Atom("shot", (sym,)))
    return Belief(close_defined(atoms, gdom))


def test_shoot_goal_at_reach_boundary():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "w", True)],
    )
    goal = select_goal(b, gdom)  # distance 8 == shoot_range + pursuit margin
    assert goal.kind == "shoot_target"
    assert goal.target == "attacker1"
    assert goal.literals == (Literal(Atom("shot", ("attacker1",)), True),)


def test_beyond_reach_falls_through_to_region_goal():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 0, 0, "n", True), ("attacker1", 19, 0, "n", True)],
    )
    goal = select_goal(b, gdom)
    assert goal.kind == "occupy_region"
    # fort-adjacent candidates are r17, r21, r22, r23; the attacker at
    # (19, 0) is closest to r17's center
    assert goal.target == "r17"
    assert goal.literals == (Literal(Atom("agent_in", ("guard0", "r17")), True),)


def test_nearest_attacker_wins_with_ties_to_lowest_index():
    config = GridConfig(n_guards=1, n_attackers=3)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [
            ("guard0", 10, 10, "n", True),
            ("attacker1", 10, 16, "s", True),  # distance 6
            ("attacker2", 10, 15, "s", True),  # distance 5: nearest
            ("attacker3", 15, 10, "w", True),  # distance 5 tie with 2
        ],
    )
    goal = select_goal(b, gdom)
    assert goal.kind == "shoot_target"
    assert goal.target == "attacker2"


def test_nearest_living_skips_the_dead_and_ties_to_pool_order():
    config = GridConfig(n_guards=1, n_attackers=3)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [
            ("guard0", 10, 10, "n", True),
            ("attacker1", 10, 11, "s", False),  # nearest, but down
            ("attacker2", 10, 15, "s", True),  # distance 5
            ("attacker3", 15, 10, "w", True),  # distance 5
        ],
    )
    pool = ("attacker1", "attacker2", "attacker3")
    assert nearest_living(b, "guard0", pool) == ("attacker2", (10, 15))
    assert nearest_living(b, "guard0", pool[::-1]) == ("attacker3", (15, 10))
    assert nearest_living(b, "guard0", ("attacker1",)) is None
    assert nearest_living(b, "guard9", pool) is None  # no pose


def test_dead_attackers_are_ignored():
    config = GridConfig(n_guards=1, n_attackers=2)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [
            ("guard0", 10, 10, "n", True),
            ("attacker1", 10, 12, "s", False),
            ("attacker2", 19, 19, "n", True),
        ],
    )
    goal = select_goal(b, gdom)
    assert goal.kind != "shoot_target" or goal.target != "attacker1"


def test_predicted_position_can_pull_target_into_reach():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 11, 14, "w", True)],
    )
    assert select_goal(b, gdom).kind != "shoot_target"  # distance 9
    goal = select_goal(b, gdom, predicted_next={"attacker1": (10, 14)})
    assert goal.kind == "shoot_target"
    assert goal.target == "attacker1"


def test_hold_position_faces_the_nearest_attacker():
    config = GridConfig(n_guards=4, n_attackers=1)
    gdom = make_gdom(config)
    # every fort-adjacent region is guarded, attacker far to the east
    b = belief_of(
        gdom,
        [
            ("guard0", 9, 13, "n", True),  # r17
            ("guard1", 5, 17, "s", True),  # r21
            ("guard2", 9, 17, "s", True),  # r22
            ("guard3", 13, 17, "s", True),  # r23
            ("attacker1", 19, 13, "w", True),
        ],
    )
    goal = select_goal(b, gdom)
    assert goal.kind == "hold_position"
    assert goal.literals == (Literal(Atom("face", ("guard0", "e")), True),)
    assert goal.support == (
        Literal(Atom("in", ("guard0", 9, 13)), True),
        Literal(Atom("in", ("attacker1", 19, 13)), True),
        Literal(Atom("shot", ("attacker1",)), False),
    )
    assert goal.comparison == Comparison("attacker1", (19, 13), 10.0)


def test_no_living_attackers_holds_with_empty_goal():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 10, 10, "n", True), ("attacker1", 19, 19, "n", False)],
    )
    goal = select_goal(b, gdom)
    assert goal.kind == "hold_position"
    assert goal.literals == ()
    assert goal.support == (Literal(Atom("shot", ("attacker1",)), True),)
    assert goal.comparison is None


def test_fort_adjacent_regions_default_grid():
    config = GridConfig()
    regions = fort_adjacent_regions(config)
    assert [r for r, _ in regions] == ["r17", "r21", "r22", "r23"]
    assert regions == tuple((r, region_center(config, r)) for r, _ in regions)
    assert fort_adjacent_regions(GridConfig()) is regions  # once per config


def test_region_center_is_cell_average():
    config = GridConfig()
    assert region_center(config, "r0") == (1.5, 1.5)
    assert region_center(config, "r22") == (9.5, 17.5)


def test_pose_extraction():
    gdom = make_gdom(GridConfig(n_guards=1, n_attackers=1))
    b = belief_of(gdom, [("guard0", 4, 7, "w", True)])
    assert pose_of(b, "guard0") == (4, 7, "w")
    assert pose_of(b, "attacker1") is None


def test_relevance_marks_positional_regions_fine():
    config = GridConfig(n_guards=1, n_attackers=2)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [
            ("guard0", 2, 14, "e", True),   # r15
            ("attacker1", 10, 14, "w", True),  # r17
            ("attacker2", 0, 0, "n", False),  # dead: not relevant
        ],
    )
    fine = compute_relevance(b, HOLD, {"attacker1": (9, 14)}, gdom)
    assert fine == frozenset({"r15", "r17", "r22"})


def test_relevance_extra_regions_and_corridor():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "w", True)],
    )
    corridor = corridor_regions(config, (2, 14), (10, 14))
    assert corridor == frozenset({"r15", "r16", "r17"})
    fine = corridor | compute_relevance(b, HOLD, None, gdom)
    assert corridor <= fine
    assert "r22" in fine  # fort stays fine


def test_relevance_adds_the_corridor_to_the_goal():
    """A shoot goal adds the corridor from the guard to its target's cell;
    an occupy goal adds its region and the corridor to the region's first
    cell; a hold goal adds neither."""
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "w", True)],
    )
    positional = compute_relevance(b, HOLD, None, gdom)
    assert positional == frozenset({"r15", "r17", "r22"})
    shoot = Goal("shoot_target", "attacker1", ())
    assert compute_relevance(b, shoot, None, gdom) == positional | {"r16"}
    occupy = Goal("occupy_region", "r5", ())  # first cell (0, 4)
    expected = positional | corridor_regions(config, (2, 14), (0, 4)) | {"r5"}
    assert compute_relevance(b, occupy, None, gdom) == expected
    assert {"r5", "r10"} <= expected


@pytest.mark.parametrize(
    "config", [GridConfig(), GridConfig(width=10, height=7)], ids=["20x20", "10x7"]
)
def test_the_corridor_is_every_region_a_cell_of_the_box_is_in(config):
    """On every box of the grid, given by either pair of opposite corners,
    ``corridor_regions`` is the set of the regions of the box's cells, also
    where ``REGION_BLOCK`` does not divide the grid (10 by 7)."""
    symbol = {
        (x, y): region_symbol_of(config, x, y)
        for x in range(config.width)
        for y in range(config.height)
    }
    for x0, x1 in itertools.combinations_with_replacement(range(config.width), 2):
        for y0, y1 in itertools.combinations_with_replacement(range(config.height), 2):
            per_cell = {symbol[x, y] for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}
            assert corridor_regions(config, (x0, y0), (x1, y1)) == per_cell
            assert corridor_regions(config, (x1, y0), (x0, y1)) == per_cell


def test_predicted_cell_region_joins_fine_set():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 0, 0, "n", True), ("attacker1", 4, 0, "w", True)],
    )
    fine_without = compute_relevance(b, HOLD, None, gdom)
    fine_with = compute_relevance(b, HOLD, {"attacker1": (3, 0)}, gdom)
    assert "r0" in fine_with and "r1" in fine_with
    assert fine_without <= fine_with


def test_support_cites_the_predicted_cell_only_when_the_current_is_out_of_reach():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 11, 14, "w", True)],
    )
    goal = select_goal(b, gdom, predicted_next={"attacker1": (10, 14)})
    assert goal.support == (
        Literal(Atom("in", ("guard0", 2, 14)), True),
        Literal(Atom("in", ("attacker1", 11, 14)), True),
        Literal(Atom("shot", ("attacker1",)), False),
    )
    assert goal.comparison == Comparison("attacker1", (10, 14), 8.0, 8.0)
    # in reach where it stands: the current cell is cited
    goal = select_goal(b, gdom, predicted_next={"attacker1": (12, 14)})
    assert goal.kind != "shoot_target"
    b = belief_of(
        gdom,
        [("guard0", 3, 14, "e", True), ("attacker1", 11, 14, "w", True)],
    )
    goal = select_goal(b, gdom, predicted_next={"attacker1": (10, 14)})
    assert goal.comparison == Comparison("attacker1", (11, 14), 8.0, 8.0)


def test_occupy_support_cites_the_attacker_nearest_the_region():
    config = GridConfig(n_guards=2, n_attackers=2)
    gdom = make_gdom(config)
    b = belief_of(
        gdom,
        [
            ("guard0", 0, 0, "n", True),
            ("guard1", 9, 17, "s", False),  # down in r22
            ("attacker1", 0, 9, "n", True),  # nearest guard0
            ("attacker2", 10, 10, "n", True),  # nearest r17's centre
        ],
    )
    goal = select_goal(b, gdom)
    assert (goal.kind, goal.target) == ("occupy_region", "r17")
    assert goal.support == (
        Literal(Atom("agent_in", ("guard0", "r17")), False),
        Literal(Atom("shot", ("guard1",)), True),
        Literal(Atom("in", ("attacker2", 10, 10)), True),
        Literal(Atom("shot", ("attacker2",)), False),
    )
    cx, cy = region_center(config, "r17")
    assert goal.comparison == Comparison("attacker2", (10, 10), math.hypot(10 - cx, 10 - cy))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(situation=w0_situations())
def test_goal_support_holds_and_goal_equality_ignores_it(situation):
    b, predicted_next, _, at = situation
    goal = select_goal(b, _W0_GDOM, predicted_next)
    for literal in goal.support:
        assert b.holds(literal), (goal, literal)
    bare = Goal(goal.kind, goal.target, goal.literals)
    assert bare == goal and hash(bare) == hash(goal)
    cmp = goal.comparison
    if goal.kind == "shoot_target":
        assert cmp.attacker == goal.target
        assert cmp.reach == _W0_GDOM.config.shoot_range + PURSUIT_MARGIN
        assert cmp.distance <= cmp.reach + 1e-9
        current = at[goal.target]
        assert cmp.cell in (current, predicted_next.get(goal.target))
        assert cmp.distance == math.dist(at["guard0"], cmp.cell)
    elif goal.kind == "occupy_region":
        cx, cy = region_center(_W0_GDOM.config, goal.target)
        assert cmp.cell == at[cmp.attacker]
        assert cmp.distance == math.hypot(cmp.cell[0] - cx, cmp.cell[1] - cy)
    elif goal.literals:
        assert cmp.cell == at[cmp.attacker]
    else:
        assert cmp is None
