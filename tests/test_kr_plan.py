"""Planner: optimality, canonical tie order, exogenous schedules, the
search bound, and agreement with two slower searches.

The oracle below re-derives candidate actions straight from the belief
atoms and runs a textbook breadth-first search; ``reference_plan`` is the
package's breadth-first planner as it was before the search became
iterative deepening.  The production planner must produce the identical
action sequence on every instance.
"""

import gc
import math
import sys
from collections import Counter, deque

from hypothesis import example, given, settings, strategies as st
from reference_plan import reference_plan

from fortdefense.env import KIND_FOR_DIRECTION, ActionKind, GridConfig, facing_toward
from fortdefense.kr.beliefs import Belief, check_executable, close_defined, progress
from fortdefense.kr.goals import (
    Goal,
    compute_relevance,
    corridor_regions,
    nearest_living,
    pose_of,
    select_goal,
)
from fortdefense.kr.ground import (
    DIR_OF_SYMBOL,
    SYMBOL_OF_DIR,
    attacker_symbols,
    guard_symbols,
    ground,
    region_symbol_of,
    restrict,
)
from fortdefense.kr.lang import Atom, Literal, parse_domain
import fortdefense.kr.beliefs as beliefs_module
import fortdefense.kr.plan as plan_module
from fortdefense.kr.plan import candidate_actions, goal_bound, goal_holds, plan, replay
from fortdefense.loop import build_schedule, predicted_cell


def shipped_domain():
    from importlib import resources

    return parse_domain(
        resources.files("fortdefense").joinpath("data/fort_attack.dom").read_text()
    )


def belief_of(gdom, entries):
    atoms = []
    for sym, x, y, d, alive in entries:
        atoms.append(Atom("in", (sym, x, y)))
        atoms.append(Atom("face", (sym, d)))
        if not alive:
            atoms.append(Atom("shot", (sym,)))
    return Belief(close_defined(atoms, gdom))


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

_ORACLE_CW = {"n": "e", "e": "s", "s": "w", "w": "n"}
_ORACLE_CCW = {"e": "n", "s": "e", "w": "s", "n": "w"}


def oracle_candidates(belief, gdom):
    """Canonical action order, written directly from the contract: shoot
    by attacker index, then moves n/e/s/w, rotate clockwise, rotate
    counterclockwise, noop."""
    ah = gdom.sorts["ah_agent"][0]
    x = y = d = None
    for atom in belief.atoms:
        if atom.pred == "in" and atom.args[0] == ah:
            x, y = atom.args[1], atom.args[2]
        if atom.pred == "face" and atom.args[0] == ah:
            d = atom.args[1]
    acts = []
    for sym in sorted(attacker_symbols(gdom.config), key=lambda s: int(s[8:])):
        acts.append(Atom("shoot", (ah, sym)))
    for tx, ty in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
        if (tx, ty) in gdom.active_cells:
            acts.append(Atom("move", (ah, tx, ty)))
    acts.append(Atom("rotate", (ah, _ORACLE_CW[d])))
    acts.append(Atom("rotate", (ah, _ORACLE_CCW[d])))
    acts.append(Atom("noop", (ah,)))
    return acts


def oracle_bfs(belief, goal, gdom, horizon, schedule=()):
    exo = [tuple(s) for s in schedule] + [()] * horizon
    if all(belief.holds(l) for l in goal.literals):
        return (), True
    seen = {(belief.atoms, 0)}
    queue = deque([(belief, ())])
    while queue:
        b, path = queue.popleft()
        if len(path) >= horizon:
            continue
        for act in oracle_candidates(b, gdom):
            ok, _ = check_executable(b, act, gdom)
            if not ok:
                continue
            nb = progress(b, (act,) + exo[len(path)], gdom, checked=frozenset((act,)))
            p2 = path + (act,)
            if all(nb.holds(l) for l in goal.literals):
                return p2, True
            key = (nb.atoms, len(p2))
            if key not in seen:
                seen.add(key)
                queue.append((nb, p2))
    return (), False


# ---------------------------------------------------------------------------
# the worked interception scenario
# ---------------------------------------------------------------------------


def interception_fixture():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = ground(shipped_domain(), config)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "w", True)],
    )
    return config, gdom, b


def test_interception_plan_is_three_moves_then_shoot():
    config, gdom, b = interception_fixture()
    goal = select_goal(b, gdom)
    assert goal.kind == "shoot_target"
    result = plan(b, goal, gdom, horizon=8)
    assert result.success
    assert result.actions == (
        Atom("move", ("guard0", 3, 14)),
        Atom("move", ("guard0", 4, 14)),
        Atom("move", ("guard0", 5, 14)),
        Atom("shoot", ("guard0", "attacker1")),
    )
    final = replay(b, result.actions, gdom)
    assert goal_holds(final, goal)
    assert Atom("shot", ("attacker1",)) in final.atoms


def test_interception_plan_unchanged_under_granularity_restriction():
    config = GridConfig(n_guards=1, n_attackers=1)
    fine = {"r22", "r15", "r16", "r17"} | corridor_regions(config, (2, 14), (10, 14))
    gdom = restrict(ground(shipped_domain(), config), fine)
    b = belief_of(
        gdom,
        [("guard0", 2, 14, "e", True), ("attacker1", 10, 14, "w", True)],
    )
    goal = select_goal(b, gdom)
    result = plan(b, goal, gdom, horizon=8)
    assert [a.pred for a in result.actions] == ["move", "move", "move", "shoot"]
    assert result.actions[2] == Atom("move", ("guard0", 5, 14))
    # the restricted search grounds far fewer cell-level actions
    assert len(gdom.active_cells) < config.width * config.height / 3


def test_interception_agrees_with_oracle():
    _, gdom, b = interception_fixture()
    goal = select_goal(b, gdom)
    result = plan(b, goal, gdom, horizon=8)
    oracle_actions, oracle_ok = oracle_bfs(b, goal, gdom, horizon=8)
    assert (result.actions, result.success) == (oracle_actions, oracle_ok)


# ---------------------------------------------------------------------------
# planner behavior
# ---------------------------------------------------------------------------


def test_satisfied_goal_yields_empty_plan():
    _, gdom, b = interception_fixture()
    goal = Goal(
        "hold_position", None, (Literal(Atom("face", ("guard0", "e")), True),)
    )
    result = plan(b, goal, gdom)
    assert result.success and result.actions == () and result.expanded == 0


def test_unreachable_goal_fails_within_horizon():
    _, gdom, b = interception_fixture()
    goal = Goal(
        "shoot_target", "attacker1", (Literal(Atom("shot", ("attacker1",)), True),)
    )
    result = plan(b, goal, gdom, horizon=2)
    assert not result.success
    assert result.actions == ()
    assert not reference_plan(b, goal, gdom, horizon=2).success
    # eight cells from a range-5 shooter: the bound needs three steps into
    # range and the shot, so no node is expanded
    assert result.expanded == 0


def test_canonical_tie_break_prefers_the_earlier_move():
    # a wide-arc shooter one step from two equally good firing cells must
    # pick the move that comes first in the canonical order (north)
    config = GridConfig(n_guards=1, n_attackers=1, shoot_arc_deg=180.0)
    gdom = ground(shipped_domain(), config)
    b = belief_of(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 9, 9, "s", True)],
    )
    goal = select_goal(b, gdom)
    assert goal.kind == "shoot_target"
    result = plan(b, goal, gdom)
    assert result.actions == (
        Atom("move", ("guard0", 5, 6)),
        Atom("shoot", ("guard0", "attacker1")),
    )
    oracle_actions, _ = oracle_bfs(b, goal, gdom, horizon=8)
    assert result.actions == oracle_actions


def test_rotation_actions_are_absolute_directions():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = ground(shipped_domain(), config)
    b = belief_of(
        gdom,
        [("guard0", 5, 5, "n", True), ("attacker1", 1, 5, "e", True)],
    )
    goal = Goal(
        "hold_position", None, (Literal(Atom("face", ("guard0", "w")), True),)
    )
    result = plan(b, goal, gdom)
    assert result.actions == (Atom("rotate", ("guard0", "w")),)


def test_schedule_lets_the_planner_intercept_a_moving_target():
    config = GridConfig(n_guards=1, n_attackers=1)
    gdom = ground(shipped_domain(), config)
    b = belief_of(
        gdom,
        [("guard0", 5, 5, "e", True), ("attacker1", 13, 5, "w", True)],
    )
    goal = select_goal(b, gdom)
    assert goal.kind == "shoot_target"
    schedule = [
        (Atom("move", ("attacker1", 13 - k - 1, 5)),) for k in range(6)
    ]
    moving = plan(b, goal, gdom, horizon=8, schedule=schedule)
    static = plan(b, goal, gdom, horizon=8)
    assert moving.success and static.success
    assert len(moving.actions) == 3  # closing speed 2 cells per tick
    assert len(static.actions) == 4
    assert moving.actions[-1].pred == "shoot"
    oracle_actions, _ = oracle_bfs(b, goal, gdom, horizon=8, schedule=schedule)
    assert moving.actions == oracle_actions
    final = replay(b, moving.actions, gdom, schedule=schedule)
    assert goal_holds(final, goal)


def test_each_node_checks_its_scheduled_actions_once(monkeypatch):
    """A depth's scheduled exogenous actions are checked once per expanded
    node, against that node, not once for each of its children."""
    _, gdom, b = interception_fixture()
    goal = select_goal(b, gdom)
    # attacker1 walks west toward the guard; it already faces west, so
    # the scheduled turn west is refused at every node
    turn = Atom("rotate", ("attacker1", "w"))
    schedule = [(Atom("move", ("attacker1", 9 - k, 14)), turn) for k in range(8)]
    assert not check_executable(b, turn, gdom)[0]
    want = reference_plan(b, goal, gdom, horizon=8, schedule=schedule)

    checked, expected = Counter(), Counter()
    alive = []  # every node seen, so that no id is reused
    check, search = beliefs_module.check_executable, plan_module._search

    def counting_check(belief, action, gdom):
        alive.append(belief)
        checked[id(belief), action] += 1
        return check(belief, action, gdom)

    def counting_search(ctx, node, path, limit, visited):
        alive.append(node)
        for action in ctx.exo[len(path)]:
            expected[id(node), action] += 1
        return search(ctx, node, path, limit, visited)

    monkeypatch.setattr(beliefs_module, "check_executable", counting_check)
    monkeypatch.setattr(plan_module, "check_executable", counting_check)
    monkeypatch.setattr(plan_module, "_search", counting_search)
    got = plan(b, goal, gdom, horizon=8, schedule=schedule)
    monkeypatch.undo()

    scheduled = {a for step in schedule for a in step}
    assert {k: n for k, n in checked.items() if k[1] in scheduled} == expected
    assert set(expected.values()) == {1} and (id(b), turn) in expected
    assert got.success and (got.actions, got.success) == (want.actions, want.success)


def test_candidate_actions_follow_canonical_order():
    _, gdom, b = interception_fixture()
    acts = candidate_actions(b, gdom)
    preds = [a.pred for a in acts]
    assert preds == ["shoot", "move", "move", "move", "move", "rotate", "rotate", "noop"]
    # moves come in n, e, s, w target order
    assert [a.args[1:] for a in acts if a.pred == "move"] == [
        (2, 15), (3, 14), (2, 13), (1, 14)
    ]
    # rotations: clockwise from east is south, counterclockwise is north
    assert [a.args[1] for a in acts if a.pred == "rotate"] == ["s", "n"]


def test_oracle_family_small_grid():
    """Exhaustive 5x5 sweep: every guard cell against a fixed attacker,
    two facings, planner output must equal the oracle everywhere."""
    config = GridConfig(
        width=5, height=5, n_guards=1, n_attackers=1, shoot_range=2.0
    )
    gdom = ground(shipped_domain(), config)
    checked = 0
    for gx in range(5):
        for gy in range(5):
            for facing in ("n", "e"):
                if (gx, gy) == (4, 4):
                    continue  # attacker cell
                b = belief_of(
                    gdom,
                    [
                        ("guard0", gx, gy, facing, True),
                        ("attacker1", 4, 4, "s", True),
                    ],
                )
                goal = select_goal(b, gdom)
                got = plan(b, goal, gdom, horizon=6)
                want_actions, want_ok = oracle_bfs(b, goal, gdom, horizon=6)
                assert (got.actions, got.success) == (want_actions, want_ok), (
                    gx, gy, facing, goal,
                )
                checked += 1
    assert checked == 48


# ---------------------------------------------------------------------------
# random W0 instances: the reference, the oracle and the bound
# ---------------------------------------------------------------------------

_W0 = GridConfig()
_W0_GDOM = ground(shipped_domain(), _W0)
_GUARDS = guard_symbols(_W0)
_ATTACKERS = attacker_symbols(_W0)
_DIR = st.sampled_from("nesw")


_KIND_TOWARD = {d: int(KIND_FOR_DIRECTION[DIR_OF_SYMBOL[d]]) for d in "nesw"}
_SHOOT = int(ActionKind.SHOOT)


def _toward(a, b):
    """The grid direction from cell ``a`` that best points at cell ``b``."""
    return SYMBOL_OF_DIR[facing_toward(b[0] - a[0], b[1] - a[1])]


def _shoot_goal(target):
    return Goal("shoot_target", target, (Literal(Atom("shot", (target,)), True),))


@st.composite
def w0_situations(draw):
    """A consistent W0 belief, the predicted next cells and action kinds
    of the other living agents, and every agent's cell.

    The six agents stand in one window of 4 to 12 cells a side.  As in
    play, agents often face their nearest opponent, teammates are often
    predicted to shoot and attackers to close in on the guard; so targets
    come into reach, close in faster than the guard alone can, and are
    shot by teammates first."""
    side = draw(st.integers(4, 12))
    ox, oy = draw(st.integers(0, 20 - side)), draw(st.integers(0, 20 - side))
    cells = draw(
        st.lists(
            st.tuples(st.integers(ox, ox + side - 1), st.integers(oy, oy + side - 1)),
            min_size=6,
            max_size=6,
            unique=True,
        )
    )
    at = dict(zip(_GUARDS + _ATTACKERS, cells))
    entries, kinds = [], {}
    for sym, cell in at.items():
        foes = _ATTACKERS if sym in _GUARDS else _GUARDS
        foe = min(foes, key=lambda f: math.dist(cell, at[f]))
        alive = draw(st.integers(0, 9)) > 0
        facing = draw(st.sampled_from([*"nesw", _toward(cell, at[foe])]))
        entries.append((sym, *cell, facing, alive))
        if sym == "guard0" or not alive:
            continue
        if sym in _GUARDS:
            kinds[sym] = draw(st.sampled_from([int(k) for k in ActionKind] + [_SHOOT] * 4))
        else:
            closing = _KIND_TOWARD[_toward(cell, at["guard0"])]
            kinds[sym] = draw(st.sampled_from([int(k) for k in ActionKind] + [closing] * 4))
    b = belief_of(_W0_GDOM, entries)
    predicted_next = {
        sym: predicted_cell(_W0, at[sym], kind) for sym, kind in kinds.items()
    }
    return b, predicted_next, kinds, at


@st.composite
def planning_instances(draw):
    """A W0 situation, a goal, the planning domain (the full grid or a
    restriction as the controller makes it), a schedule from
    ``build_schedule`` over the predicted kinds, and a horizon 1-6.
    Goals: the selected one, a region near the guard, a facing, a random
    attacker or a shooting teammate's target."""
    b, predicted_next, kinds, at = draw(w0_situations())
    gx, gy = at["guard0"]
    near = (
        min(max(gx + draw(st.integers(-6, 6)), 0), 19),
        min(max(gy + draw(st.integers(-6, 6)), 0), 19),
    )
    goals = [
        select_goal(b, _W0_GDOM, predicted_next),
        Goal(
            "occupy_region",
            None,
            (Literal(Atom("agent_in", ("guard0", region_symbol_of(_W0, *near))), True),),
        ),
        Goal("hold_position", None, (Literal(Atom("face", ("guard0", draw(_DIR))), True),)),
        _shoot_goal(draw(st.sampled_from(_ATTACKERS))),
    ]
    for sym in _GUARDS[1:]:
        nearest = nearest_living(b, sym, _ATTACKERS)
        if kinds.get(sym) == _SHOOT and nearest is not None:
            goals.append(_shoot_goal(nearest[0]))
    goal = draw(st.sampled_from(goals))

    if draw(st.booleans()):
        gdom = _W0_GDOM
    else:
        extra = corridor_regions(_W0, (gx, gy), near)
        hold = Goal("hold_position", None, ())
        gdom = restrict(_W0_GDOM, extra | compute_relevance(b, hold, predicted_next, _W0_GDOM))
    horizon = draw(st.integers(1, 6))
    schedule = build_schedule(b, gdom, kinds, horizon)
    return b, goal, gdom, horizon, schedule


def _encounter(target_kind, horizon, facing="e"):
    """guard0 eight cells west of attacker1, both facing each other unless
    guard0 gets another ``facing``; guard1 three cells north of attacker1,
    facing it; the rest far off."""
    entries = [
        ("guard0", 2, 10, facing, True),
        ("guard1", 10, 13, "s", True),
        ("guard2", 18, 1, "n", True),
        ("attacker1", 10, 10, "w", True),
        ("attacker2", 1, 1, "n", True),
        ("attacker3", 18, 18, "s", True),
    ]
    b = belief_of(_W0_GDOM, entries)
    noop = int(ActionKind.NOOP)
    kinds = {sym: noop for sym, *_ in entries[1:]}
    kinds.update(target_kind)
    schedule = build_schedule(b, _W0_GDOM, kinds, horizon)
    return b, _shoot_goal("attacker1"), _W0_GDOM, horizon, schedule


def _recorded_decision(entries, kinds, fine_regions, target="attacker2"):
    """A decision as the controller made it on ``GridConfig()``: the
    tick-start belief, the goal of shooting ``target``, the grounding
    restricted to ``fine_regions``, horizon 8, and the schedule built from
    the predicted action kinds."""
    b = belief_of(_W0_GDOM, entries)
    gdom = restrict(_W0_GDOM, set(fine_regions))
    kinds = {sym: int(kind) for sym, kind in kinds.items()}
    return b, _shoot_goal(target), gdom, 8, build_schedule(b, gdom, kinds, 8)


# W0's B1600 episodes (adhoc-w0), seed 1, step 8: a 7-step plan;
# attacker2 walks south, away from guard0.
_B1600_SEED1_STEP8 = _recorded_decision(
    [
        ("guard0", 8, 16, "s", True),
        ("guard1", 11, 14, "s", True),
        ("guard2", 9, 15, "s", True),
        ("attacker1", 8, 7, "n", True),
        ("attacker2", 3, 10, "n", True),
        ("attacker3", 15, 6, "n", True),
    ],
    {
        "guard1": ActionKind.NOOP,
        "guard2": ActionKind.MOVE_W,
        "attacker1": ActionKind.NOOP,
        "attacker2": ActionKind.MOVE_S,
        "attacker3": ActionKind.NOOP,
    },
    ("r7", "r8", "r10", "r11", "r12", "r15", "r16", "r17", "r20", "r21", "r22"),
)

# W0's B1600 episodes, seed 0, step 18: a 5-step plan against a target
# that stays put.
_B1600_SEED0_STEP18 = _recorded_decision(
    [
        ("guard0", 12, 8, "e", True),
        ("guard1", 4, 13, "w", True),
        ("guard2", 16, 17, "w", True),
        ("attacker1", 0, 15, "n", True),
        ("attacker2", 7, 3, "n", True),
        ("attacker3", 16, 6, "n", False),
    ],
    {
        "guard1": ActionKind.NOOP,
        "guard2": ActionKind.NOOP,
        "attacker1": ActionKind.NOOP,
        "attacker2": ActionKind.NOOP,
    },
    ("r1", "r2", "r3", "r6", "r7", "r8", "r11", "r12", "r13", "r15", "r22"),
)

# W1's one failed search (``test_loop.w1_ledger``), alike against P1 and
# B220 at seed 1004, step 14: attacker2 stands eight cells south of
# guard0, which faces it, and walks west; no plan at any horizon.
_W1_SEED1004_STEP14 = _recorded_decision(
    [
        ("guard0", 10, 15, "s", True),
        ("guard1", 9, 18, "s", True),
        ("guard2", 11, 18, "s", True),
        ("attacker1", 8, 4, "n", True),
        ("attacker2", 10, 7, "n", True),
        ("attacker3", 13, 6, "n", True),
    ],
    {
        "guard1": ActionKind.NOOP,
        "guard2": ActionKind.NOOP,
        "attacker1": ActionKind.MOVE_W,
        "attacker2": ActionKind.MOVE_W,
        "attacker3": ActionKind.MOVE_E,
    },
    ("r6", "r7", "r8", "r12", "r17", "r22"),
)

# W1's four largest successful searches, all against B1600.  Seed 1007,
# step 7: a 7-step plan, six moves and the shot.
_W1_B1600_SEED1007_STEP7 = _recorded_decision(
    [
        ("guard0", 12, 13, "s", True),
        ("guard1", 9, 14, "s", True),
        ("guard2", 12, 15, "s", True),
        ("attacker1", 5, 8, "n", True),
        ("attacker2", 8, 8, "n", True),
        ("attacker3", 7, 6, "n", True),
    ],
    {
        "guard1": ActionKind.MOVE_E,
        "guard2": ActionKind.MOVE_S,
        "attacker1": ActionKind.MOVE_S,
        "attacker2": ActionKind.MOVE_S,
        "attacker3": ActionKind.NOOP,
    },
    ("r6", "r7", "r11", "r12", "r13", "r17", "r18", "r22"),
)

# Seed 1009, step 23: an 8-step plan, as long as the horizon; guard1 and
# attacker1 are down.
_W1_B1600_SEED1009_STEP23 = _recorded_decision(
    [
        ("guard0", 9, 7, "e", True),
        ("guard1", 7, 14, "w", False),
        ("guard2", 14, 10, "s", True),
        ("attacker1", 3, 12, "e", False),
        ("attacker2", 15, 3, "w", True),
        ("attacker3", 18, 6, "n", True),
    ],
    {
        "guard2": ActionKind.MOVE_E,
        "attacker2": ActionKind.MOVE_E,
        "attacker3": ActionKind.MOVE_S,
    },
    ("r2", "r3", "r4", "r7", "r8", "r9", "r22"),
)

# Seed 1003, step 9: a 7-step plan straight south.
_W1_B1600_SEED1003_STEP9 = _recorded_decision(
    [
        ("guard0", 12, 14, "s", True),
        ("guard1", 12, 15, "s", True),
        ("guard2", 10, 15, "s", True),
        ("attacker1", 7, 8, "n", True),
        ("attacker2", 15, 8, "n", True),
        ("attacker3", 14, 6, "n", True),
    ],
    {
        "guard1": ActionKind.NOOP,
        "guard2": ActionKind.MOVE_E,
        "attacker1": ActionKind.MOVE_S,
        "attacker2": ActionKind.MOVE_S,
        "attacker3": ActionKind.NOOP,
    },
    ("r6", "r8", "r11", "r13", "r18", "r22"),
)

# Seed 1005, step 14: a 6-step plan at attacker1 that ends in a turn
# south, away from guard0's facing east.
_W1_B1600_SEED1005_STEP14 = _recorded_decision(
    [
        ("guard0", 12, 12, "e", True),
        ("guard1", 11, 13, "s", True),
        ("guard2", 16, 12, "s", True),
        ("attacker1", 10, 7, "n", True),
        ("attacker2", 16, 6, "n", True),
        ("attacker3", 9, 6, "n", True),
    ],
    {
        "guard1": ActionKind.MOVE_S,
        "guard2": ActionKind.MOVE_S,
        "attacker1": ActionKind.MOVE_S,
        "attacker2": ActionKind.MOVE_S,
        "attacker3": ActionKind.NOOP,
    },
    ("r7", "r8", "r9", "r12", "r13", "r17", "r18", "r22"),
    target="attacker1",
)


def _fleeing_target(horizon):
    """guard0 faces west, away from attacker1 eight cells east of it, and
    the schedule walks attacker1 one cell east a tick: guard0 needs three
    steps to bring even the target's current cell into range."""
    return _encounter({"attacker1": int(ActionKind.MOVE_E)}, horizon, facing="w")


def _stray_teammate_shot(horizon):
    """The head-on encounter, everyone else idle but guard2, out of range
    of attacker1 and scheduled to shoot at it at depth 2 alone: a shot
    that cannot land, which the bound does not count."""
    b, goal, gdom, _, schedule = _encounter({}, horizon)
    schedule[2] = (Atom("shoot", ("guard2", "attacker1")),)
    return b, goal, gdom, horizon, schedule


# Encounters the bound must get right, whatever the draw: guard1 hits the
# target on the first tick, though guard0 alone needs three; the target
# closes in, so guard0 fires on the third tick, not the fourth; the target
# flees, so no plan of three ticks exists; a teammate's shot at depth 2
# misses, so guard0 fires on the fourth tick.  Then seven recorded
# searches: two from W0 and W1's failed one and four largest.
@example(instance=_encounter({"guard1": int(ActionKind.SHOOT)}, horizon=1))
@example(instance=_encounter({"attacker1": int(ActionKind.MOVE_W)}, horizon=3))
@example(instance=_fleeing_target(horizon=3))
@example(instance=_stray_teammate_shot(horizon=5))
@example(instance=_B1600_SEED1_STEP8)
@example(instance=_B1600_SEED0_STEP18)
@example(instance=_W1_SEED1004_STEP14)
@example(instance=_W1_B1600_SEED1007_STEP7)
@example(instance=_W1_B1600_SEED1009_STEP23)
@example(instance=_W1_B1600_SEED1003_STEP9)
@example(instance=_W1_B1600_SEED1005_STEP14)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(instance=planning_instances())
def test_plan_matches_the_reference_and_the_oracle(instance):
    b, goal, gdom, horizon, schedule = instance
    got = plan(b, goal, gdom, horizon=horizon, schedule=schedule)
    ref = reference_plan(b, goal, gdom, horizon=horizon, schedule=schedule)
    want = oracle_bfs(b, goal, gdom, horizon, schedule)
    assert (got.actions, got.success) == (ref.actions, ref.success) == want
    if got.success:
        assert goal_holds(replay(b, got.actions, gdom, schedule), goal)


@st.composite
def exogenous_steps(draw, belief):
    """One tick of exogenous actions: each living teammate and attacker
    moves to a neighbouring cell, turns or shoots someone, or idles."""
    step = []
    for sym in _GUARDS[1:] + _ATTACKERS:
        pose = pose_of(belief, sym)
        if pose is None or Atom("shot", (sym,)) in belief.atoms:
            continue
        x, y, _ = pose
        options = [
            [Atom("rotate", (sym, draw(_DIR)))],
            [Atom("shoot", (sym, draw(st.sampled_from(_GUARDS + _ATTACKERS))))],
            [],
        ]
        dx, dy = draw(st.sampled_from(((0, 1), (1, 0), (0, -1), (-1, 0))))
        if _W0.in_bounds(x + dx, y + dy):
            options.append([Atom("move", (sym, x + dx, y + dy))])
        step += draw(st.sampled_from(options))
    return tuple(step)


def test_the_bound_cuts_the_fixed_searches():
    """Nodes expanded on the fixed instances.  The bound that ignored the
    schedule expanded 146, 57, 1, 220 and 77 on the first five; the one
    that counted no quarter turns and every teammate shot expanded 13, 25,
    0, 45, 44, 172, 43, 39, 37 and 46.  The target that flees is out of
    reach at every horizon, and so is W1's failed search."""
    instances = {
        "B1600 seed 1 step 8": _B1600_SEED1_STEP8,
        "B1600 seed 0 step 18": _B1600_SEED0_STEP18,
        "fleeing, horizon 3": _fleeing_target(horizon=3),
        "fleeing, horizon 8": _fleeing_target(horizon=8),
        "stray teammate shot": _stray_teammate_shot(horizon=5),
        "W1 seed 1004 step 14": _W1_SEED1004_STEP14,
        "W1 B1600 seed 1007 step 7": _W1_B1600_SEED1007_STEP7,
        "W1 B1600 seed 1009 step 23": _W1_B1600_SEED1009_STEP23,
        "W1 B1600 seed 1003 step 9": _W1_B1600_SEED1003_STEP9,
        "W1 B1600 seed 1005 step 14": _W1_B1600_SEED1005_STEP14,
    }
    results = {name: plan(*instance) for name, instance in instances.items()}
    assert {name: r.expanded for name, r in results.items()} == {
        "B1600 seed 1 step 8": 11,
        "B1600 seed 0 step 18": 5,
        "fleeing, horizon 3": 0,
        "fleeing, horizon 8": 14,
        "stray teammate shot": 4,
        "W1 seed 1004 step 14": 124,
        "W1 B1600 seed 1007 step 7": 39,
        "W1 B1600 seed 1009 step 23": 34,
        "W1 B1600 seed 1003 step 9": 31,
        "W1 B1600 seed 1005 step 14": 22,
    }
    assert [(r.success, len(r.actions)) for r in results.values()] == [
        (True, 7),
        (True, 5),
        (False, 0),
        (False, 0),
        (True, 4),
        (False, 0),
        (True, 7),
        (True, 8),
        (True, 7),
        (True, 6),
    ]


class _Drawn:
    """Stands in for ``st.data()`` in an explicit example: every draw gives
    ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


# W1's recorded searches, each with an idle step appended.
@example(instance=_W1_SEED1004_STEP14, data=_Drawn(()))
@example(instance=_W1_B1600_SEED1007_STEP7, data=_Drawn(()))
@example(instance=_W1_B1600_SEED1009_STEP23, data=_Drawn(()))
@example(instance=_W1_B1600_SEED1003_STEP9, data=_Drawn(()))
@example(instance=_W1_B1600_SEED1005_STEP14, data=_Drawn(()))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(instance=planning_instances(), data=st.data())
def test_the_search_bound_is_consistent_and_admissible(instance, data):
    """``h(b, d) <= 1 + h(child, d + 1)`` at every depth ``d``, for every
    executable guard action under ``schedule[d]``, with a random step
    appended as one more scheduled depth; and ``h(b, 0)`` never exceeds
    the least plan length."""
    b, goal, gdom, horizon, schedule = instance
    schedule = schedule + [data.draw(exogenous_steps(b))]
    h = goal_bound(b, goal, gdom, schedule)
    for depth, step in enumerate(schedule):
        for action in candidate_actions(b, gdom):
            if not check_executable(b, action, gdom)[0]:
                continue
            child = progress(b, (action,) + step, gdom, checked=frozenset((action,)))
            assert h(b, depth) <= 1 + h(child, depth + 1), (action, depth, step)
            if goal_holds(child, goal):
                assert h(child, depth + 1) == 0
    ref = reference_plan(b, goal, gdom, horizon=horizon, schedule=schedule)
    if ref.success:
        assert h(b, 0) <= len(ref.actions)


def test_the_tracer_counts_every_planner_call(monkeypatch):
    """Per-layer tracing swaps ``progress`` and ``check_executable`` on the
    planner's module; a search that reached them any other way (a local or
    a default argument bound at import) would read as no work at all."""
    _, gdom, b = interception_fixture()
    goal = select_goal(b, gdom)
    originals = {
        name: getattr(plan_module, name) for name in ("progress", "check_executable")
    }
    counted = dict.fromkeys(originals, 0)
    reached = dict.fromkeys(originals, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    wrappers = {name: counting(name) for name in originals}
    for name, wrapper in wrappers.items():
        monkeypatch.setattr(plan_module, name, wrapper)
    codes = {fn.__code__: name for name, fn in originals.items()}
    callers = {w.__code__ for w in wrappers.values()}

    def profile(frame, event, arg):
        name = codes.get(frame.f_code) if event == "call" else None
        if name is not None and (
            frame.f_back.f_code in callers
            or frame.f_back.f_code.co_filename == plan_module.__file__
        ):
            reached[name] += 1

    sys.setprofile(profile)
    try:
        result = plan(b, goal, gdom, horizon=8)
    finally:
        sys.setprofile(None)
    assert result.success and result.expanded > 0
    assert counted == reached
    assert min(counted.values()) > 0


def test_a_plan_call_leaves_no_reference_cycles():
    """Whatever one search allocates is freed by reference counting alone,
    so nothing waits for the cycle collector."""
    _, gdom, b = interception_fixture()
    goal = select_goal(b, gdom)
    gc.collect()
    gc.disable()
    try:
        result = plan(b, goal, gdom, horizon=8)
        left = gc.collect()
    finally:
        gc.enable()
    assert result.success and result.expanded > 0
    assert left == 0
