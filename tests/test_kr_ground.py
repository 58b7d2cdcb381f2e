"""Grounding layer: sort population, statics, compiled rules, granularity
restriction, and the body-binding validation errors.

Oracles here are computed from first principles (straight loops over the
grid) and compared against the grounder's output.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from fortdefense.env import GridConfig, in_cone, reset
from fortdefense.explain import EpisodeTrace, answer_query
from fortdefense.kr import ground as ground_module
from fortdefense.kr.beliefs import (
    Belief,
    check_executable,
    progress,
    validate,
)
from fortdefense.kr.ground import (
    CCW,
    CW,
    DIR_OF_SYMBOL,
    REGION_BLOCK,
    GroundedDomain,
    GroundingError,
    Static,
    agent_symbol,
    all_region_symbols,
    attacker_symbols,
    build_statics,
    fort_region_symbols,
    ground,
    guard_symbols,
    populate_sorts,
    region_adjacency,
    region_cells,
    region_grid,
    region_symbol_of,
    restrict,
    symbol_agent_id,
)
from fortdefense.kr.lang import Atom, parse_domain
from fortdefense.kr.plan import candidate_actions
from fortdefense.loop import grounded_domain, observed_belief, run_games

MINI_GRID = """
sort agent.
sort x_val.
sort y_val.
fluent inertial in(agent, x_val, y_val).
action go(agent, x_val, y_val).
go(A, X, Y) causes in(A, X, Y).
-in(A, X1, Y1) if in(A, X2, Y2), X1 != X2.
-in(A, X1, Y1) if in(A, X2, Y2), Y1 != Y2.
"""


def shipped_domain(extra=""):
    """The shipped domain, with ``extra`` statements appended."""
    from importlib import resources

    return parse_domain(
        resources.files("fortdefense").joinpath("data/fort_attack.dom").read_text() + extra
    )


def test_three_by_three_single_agent_grounds_nine_position_atoms():
    desc = parse_domain(MINI_GRID)
    gdom = ground(
        desc,
        sorts={"agent": ("a1",), "x_val": (0, 1, 2), "y_val": (0, 1, 2)},
    )
    start = Belief([Atom("in", ("a1", 0, 0))])
    reached = set()
    for x in range(3):
        for y in range(3):
            after = progress(start, [Atom("go", ("a1", x, y))], gdom)
            # the constraints leave exactly the new position
            assert after.atoms == frozenset({Atom("in", ("a1", x, y))})
            reached |= after.atoms
    assert len(reached) == 9


# ---------------------------------------------------------------------------
# agent and region naming
# ---------------------------------------------------------------------------


def test_agent_symbols_round_trip():
    config = GridConfig()
    assert guard_symbols(config) == ("guard0", "guard1", "guard2")
    assert attacker_symbols(config) == ("attacker1", "attacker2", "attacker3")
    for agent_id in range(config.n_guards + config.n_attackers):
        assert symbol_agent_id(config, agent_symbol(config, agent_id)) == agent_id
    # guard ids come before attacker ids; attackers are 1-indexed
    assert agent_symbol(config, config.n_guards) == "attacker1"


def test_region_partition_oracle():
    config = GridConfig()
    nx, ny = region_grid(config)
    assert (nx, ny) == (5, 5)
    seen = {}
    for x in range(config.width):
        for y in range(config.height):
            k = (x // REGION_BLOCK) + (y // REGION_BLOCK) * nx
            assert region_symbol_of(config, x, y) == f"r{k}"
            seen.setdefault(f"r{k}", set()).add((x, y))
    assert set(all_region_symbols(config)) == set(seen)
    for sym, cells in seen.items():
        assert set(region_cells(config, sym)) == cells


def test_region_partition_handles_non_divisible_grids():
    config = GridConfig(width=6, height=5, n_guards=1, n_attackers=1)
    nx, ny = region_grid(config)
    assert (nx, ny) == (2, 2)
    assert len(region_cells(config, "r1")) == 2 * 4  # x in {4,5}, y in 0..3
    assert len(region_cells(config, "r3")) == 2 * 1
    total = sum(len(region_cells(config, r)) for r in all_region_symbols(config))
    assert total == config.width * config.height


def test_fort_regions_default_config():
    config = GridConfig()
    # default fort cells sit on the top row around the center column
    assert fort_region_symbols(config) == frozenset({"r22"})


def test_region_adjacency_is_symmetric_and_edge_based():
    config = GridConfig()
    adj = region_adjacency(config)
    assert all((b, a) in adj for a, b in adj)
    assert ("r0", "r1") in adj and ("r0", "r5") in adj
    assert ("r0", "r6") not in adj  # diagonal neighbors do not count
    assert ("r0", "r0") not in adj
    # interior region grid degree: 4-neighborhood on a 5x5 block grid
    degree = sum(1 for a, b in adj if a == "r12")
    assert degree == 4


# ---------------------------------------------------------------------------
# statics
# ---------------------------------------------------------------------------


def test_next_to_matches_grid_adjacency():
    config = GridConfig(width=4, height=3, n_guards=1, n_attackers=1)
    statics = build_statics(config)
    expected = set()
    for x in range(4):
        for y in range(3):
            for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                if 0 <= x + dx < 4 and 0 <= y + dy < 3:
                    expected.add((x, y, x + dx, y + dy))
    assert statics["next_to"].table == frozenset(expected)


def test_direction_statics():
    statics = build_statics(GridConfig())
    assert statics["opposite_dir"].table == frozenset(
        {("n", "s"), ("s", "n"), ("e", "w"), ("w", "e")}
    )
    assert CW == {"n": "e", "e": "s", "s": "w", "w": "n"}
    assert CCW == {"e": "n", "s": "e", "w": "s", "n": "w"}


def test_component_is_total_and_functional():
    config = GridConfig()
    table = build_statics(config)["component"].table
    assert len(table) == config.width * config.height
    mapping = {(x, y): r for x, y, r in table}
    assert len(mapping) == config.width * config.height
    assert mapping[(0, 0)] == "r0"
    assert mapping[(19, 19)] == "r24"


def test_in_sight_agrees_with_simulator_shot_test():
    config = GridConfig()
    in_sight = build_statics(config)["in_sight"]
    cases = [
        (2, 14, "e", 7, 14),
        (2, 14, "e", 10, 14),
        (2, 14, "e", 2, 14),
        (5, 5, "n", 5, 9),
        (5, 5, "n", 9, 5),
        (5, 5, "n", 8, 8),
        (5, 5, "s", 5, 1),
        (5, 5, "w", 1, 5),
    ]
    for sx, sy, d, tx, ty in cases:
        assert in_sight.contains((sx, sy, d, tx, ty)) == in_cone(
            config, DIR_OF_SYMBOL[d], sx, sy, tx, ty
        )


def test_static_expand_enumerates_and_filters():
    config = GridConfig(width=4, height=4, n_guards=1, n_attackers=1)
    component = build_statics(config)["component"]
    rows = list(component.expand((2, 3, None)))
    assert rows == [(2, 3, region_symbol_of(config, 2, 3))]
    all_rows = list(component.expand((None, None, None)))
    assert len(all_rows) == 16
    # computed statics refuse to enumerate
    with pytest.raises(GroundingError):
        list(build_statics(config)["in_sight"].expand((None, 0, "n", 0, 0)))


def test_builtin_comparisons():
    s = Static("neq", 2, func=lambda a, b: a != b)
    assert s.contains((1, 2)) and not s.contains((1, 1))


# ---------------------------------------------------------------------------
# full-domain grounding
# ---------------------------------------------------------------------------


def test_default_grounding_sizes():
    config = GridConfig()
    gdom = ground(shipped_domain(), config)
    n_agents = config.n_guards + config.n_attackers
    assert len(gdom.active_cells) == config.width * config.height
    assert gdom.fine_regions == frozenset(all_region_symbols(config))
    assert len(gdom.sorts["agent"]) == n_agents
    assert (len(gdom.sorts["x_val"]), len(gdom.sorts["y_val"])) == (20, 20)
    assert len(gdom.sorts["region"]) == 25
    # move, rotate and shoot, each declared once for every agent
    assert sum(len(r) for r in gdom.causal_by_action.values()) == 3
    assert sum(len(r) for r in gdom.exec_by_action.values()) == 10
    assert (len(gdom.windows), len(gdom.definitions)) == (3, 3)


def guard_at(x, y, d="n") -> Belief:
    return Belief([Atom("in", ("guard0", x, y)), Atom("face", ("guard0", d))])


def test_granularity_restriction_drops_cell_atoms_for_coarse_regions(full_gdom):
    config = GridConfig()
    fine = {"r22", "r17"}
    gdom = restrict(full_gdom, fine)
    active = {c for r in fine for c in region_cells(config, r)}
    assert gdom.active_cells == frozenset(active)
    # (8, 16) is r22's south-west corner: west is r21 and south is r17
    moves = {
        (a.args[1], a.args[2])
        for a in candidate_actions(guard_at(8, 16), gdom)
        if a.pred == "move"
    }
    assert moves == {(8, 17), (9, 16), (8, 15)}
    # a restriction is a view: the compiled rules are shared, not rebuilt
    assert gdom.causal_by_action is full_gdom.causal_by_action
    assert gdom.statics is full_gdom.statics


@pytest.fixture(scope="module")
def full_gdom():
    return ground(shipped_domain(), GridConfig())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    fine=st.frozensets(st.sampled_from(all_region_symbols(GridConfig()))),
    x=st.integers(0, 19),
    y=st.integers(0, 19),
    d=st.sampled_from("nesw"),
)
def test_restrict_keeps_the_cells_and_moves_of_its_regions(full_gdom, fine, x, y, d):
    view = restrict(full_gdom, fine)
    cells = {c for r in fine for c in region_cells(GridConfig(), r)}
    assert view.fine_regions == fine
    assert view.active_cells == frozenset(cells)
    # brute force: the full grounding's candidates less every move that
    # leaves the kept cells, in the same order
    belief = guard_at(x, y, d)
    assert candidate_actions(belief, view) == [
        a
        for a in candidate_actions(belief, full_gdom)
        if a.pred != "move" or (a.args[1], a.args[2]) in cells
    ]


def compiled_parts(gdom):
    """Every compiled rule of a grounding, and every join they hold (the
    victim continuations included), in a fixed order."""
    rules = [r for rs in gdom.causal_by_action.values() for r in rs]
    rules += [r for rs in gdom.exec_by_action.values() for r in rs]
    rules += gdom.windows + gdom.definitions
    joins = []
    for rule in rules:
        for join in (rule.on_action, *rule.on_body, rule.on_head, rule.unbound):
            while join is not None:
                joins.append(join)
                join = join.then
    return rules, joins


def test_restrict_shares_every_compiled_rule_and_join(full_gdom):
    """A restriction, and a restriction of one, holds the very tables,
    rules, joins and static-row caches of the grounding they view, so
    nothing built at ``ground`` is rebuilt or cached again per tick."""
    view = restrict(restrict(full_gdom, {"r0", "r5"}), {"r22"})
    for f in dataclasses.fields(GroundedDomain):
        if f.name not in ("active_cells", "fine_regions"):
            assert getattr(view, f.name) is getattr(full_gdom, f.name), f.name
    for mine, theirs in zip(compiled_parts(view), compiled_parts(full_gdom), strict=True):
        assert len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs))


def test_restrictions_and_cache_hits_compile_no_join(monkeypatch):
    """The joins are compiled once, by ``ground``: restrictions share the
    grounding's generated functions, a cached grounding is not compiled
    again, and reasoning and explaining through them compile nothing."""
    config = GridConfig(width=9, height=9, n_guards=2, n_attackers=2, max_steps=6)
    gdom = grounded_domain(config)
    compiled = []
    generate = ground_module._generate
    monkeypatch.setattr(
        ground_module, "_generate", lambda wanted: compiled.append(wanted) or generate(wanted)
    )
    regions = all_region_symbols(config)
    views = [restrict(gdom, regions[k : k + 2]) for k in range(10)]
    assert grounded_domain(config) is gdom
    state = reset(config, 0)
    belief = observed_belief(state, gdom)
    for view in views:
        for action in candidate_actions(belief, view):
            check_executable(belief, action, view)
        validate(progress(belief, candidate_actions(belief, view)[:1], view, trace=[]), view)
    (record,) = run_games(config, "P1", 1, seed=0, horizon=8, collect_traces=True).records
    trace = EpisodeTrace.from_record(record, config)
    held = trace.step(1).belief.atoms
    asked = [a for a in sorted(held, key=str) if a.pred == "agent_in"]
    assert asked
    for literal in [*asked, "-in(guard0, 0, 0)"]:
        answer_query(trace, f"why belief {literal} at step 1")
    assert compiled == []
    for view in views:
        for mine, theirs in zip(compiled_parts(view)[0], compiled_parts(gdom)[0], strict=True):
            if mine.kind == "exec":
                assert mine.on_action.first is theirs.on_action.first
            if mine.unbound is not None:
                assert mine.unbound.run is theirs.unbound.run


def test_restrict_needs_a_grid():
    gdom = ground(parse_domain(MINI_GRID), sorts={"agent": ("a1",)})
    with pytest.raises(GroundingError):
        restrict(gdom, ["r0"])


def test_populate_sorts_partitions_agents():
    config = GridConfig()
    sorts = populate_sorts(shipped_domain(), config)
    guards, attackers = guard_symbols(config), attacker_symbols(config)
    assert sorts["ah_agent"] == ("guard0",)
    assert sorts["guard"] == guards
    assert sorts["agent"] == guards + attackers
    # same_side pairs the agents of each side, each with itself too
    assert build_statics(config)["same_side"].table == {
        (a, b) for side in (guards, attackers) for a in side for b in side
    }
    assert sorts["dir"] == ("n", "e", "s", "w")
    assert len(sorts["region"]) == 25


def test_a_sort_the_grid_cannot_populate_is_refused():
    with pytest.raises(GroundingError) as err:
        ground(shipped_domain("\nsort attacker < agent.\n"), GridConfig())
    assert "sort attacker" in str(err.value)


def test_subsort_relation():
    gdom = ground(shipped_domain(), GridConfig())
    assert gdom.is_subsort("guard", "agent")
    assert gdom.is_subsort("ah_agent", "agent")
    assert gdom.is_subsort("ah_agent", "guard")
    assert not gdom.is_subsort("guard", "ah_agent")
    assert not gdom.is_subsort("agent", "guard")


# ---------------------------------------------------------------------------
# grounding-time validation errors
# ---------------------------------------------------------------------------


def test_unsorted_variable_error_names_the_axiom():
    desc = parse_domain(
        "sort s. fluent inertial f(s). -f(A) if f(A), X != Y."
    )
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("a",)})
    assert "constraint:1" in str(err.value)
    assert "unsorted" in str(err.value)


def test_unbound_head_variable_error():
    desc = parse_domain(
        "sort s. fluent inertial f(s). fluent inertial g(s). "
        "action a(s). a(A) causes f(B) if g(A)."
    )
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("a",)})
    assert "causal:1" in str(err.value)
    assert "head variable" in str(err.value)


def test_negated_computed_static_needs_bound_arguments():
    desc = parse_domain(
        "sort s. static q(s). fluent inertial f(s). action a(s). "
        "impossible a(A) if -q(B)."
    )
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("a",)}, statics={"q": Static("q", 1, func=lambda v: False)})
    assert "exec:1" in str(err.value)


def test_missing_static_relation_is_an_error():
    desc = parse_domain("sort s. static q(s). fluent inertial f(s).")
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("a",)})
    assert "q" in str(err.value)


def test_incompatible_variable_sorts_error():
    desc = parse_domain(
        "sort s. sort t. fluent inertial f(s). fluent inertial g(t). "
        "-f(A) if g(A)."
    )
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("a",), "t": ("b",)})
    assert "incompatible" in str(err.value)


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negated"])
def test_a_recursive_definition_is_rejected(sign):
    # a defined fluent in a definition body, of either sign: one pass over
    # the definitions could not close it, so grounding refuses it
    desc = parse_domain(
        "sort s. fluent inertial f(s). fluent defined g(s). fluent defined h(s). "
        f"g(A) if f(A). h(A) if {sign}g(A), f(A)."
    )
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("a",)})
    assert "constraint:2" in str(err.value)
    assert "definition body" in str(err.value)


UNBINDABLE = """
sort s.
static q(s).
fluent inertial f(s).
fluent inertial g(s).
fluent defined d(s).
action act(s).
"""

#: Each rule kind, its axiom id, and its text around a body literal.
_RULE_KINDS = {
    "causal": ("causal:1", "act(A) causes f({head}) if g(A){body}."),
    "exec": ("exec:1", "impossible act(A) if g(A){body}."),
    "definition": ("constraint:1", "d({head}) if g(A){body}."),
    "positive-window": ("constraint:1", "f({head}) if g(A){body}."),
    "negative-window-residual": ("constraint:1", "-f(A) if g(A){body}."),
}

#: Each unevaluable shape: (head argument, extra body, what the error names).
_UNBINDABLE_SHAPES = {
    "negated-fluent": ("A", ", -f(B)", "-f(B)"),
    "negated-sort-atom": ("A", ", -s(B)", "-s(B)"),
    "computed-static": ("A", ", q(B)", "q(B)"),
    "neq": ("A", ", B != A, q(B)", "neq(B, A)"),
    "head-variable": ("B", "", "head variable(s) ['B']"),
}


@pytest.mark.parametrize(
    "kind, shape",
    [
        (kind, shape)
        for kind in _RULE_KINDS
        for shape in _UNBINDABLE_SHAPES
        # the body of an executability binds no head, and a victim binds
        # a negative window's head
        if shape != "head-variable" or kind not in ("exec", "negative-window-residual")
    ],
)
def test_an_unbindable_rule_is_rejected_at_grounding(kind, shape):
    """``ground`` itself refuses a rule whose body, in its evaluation order,
    reaches a literal it cannot evaluate, or leaves a head variable
    unbound, naming the axiom and the literal.  A window (a state
    constraint on an inertial fluent) is refused for its shape before its
    body is compiled: no uniqueness constraint is unbindable."""
    axiom_id, text = _RULE_KINDS[kind]
    head, body, named = _UNBINDABLE_SHAPES[shape]
    desc = parse_domain(UNBINDABLE + text.format(head=head, body=body))
    with pytest.raises(GroundingError) as err:
        ground(desc, sorts={"s": ("o1", "o2")}, statics={"q": Static("q", 1, func=bool)})
    assert f"axiom {axiom_id} (" in str(err.value)
    if "window" in kind:
        named = "not a uniqueness constraint"
    assert named in str(err.value)


SHAPES = """
sort s.
static t(s, s).
fluent inertial g(s).
fluent inertial h(s).
fluent inertial k(s).
fluent inertial n(s).
fluent inertial w(s, s).
"""

def ground_shape(text):
    return ground(
        parse_domain(SHAPES + text),
        sorts={"s": ("o1", "o2")},
        statics={"t": Static("t", 2, table=[])},
    )


#: Windows that are not uniqueness constraints, and what the error says.
_NOT_UNIQUE = {
    "positive-head": ("k(X) if g(X).", "positive"),
    "two-fluent-literals": ("-k(X) if g(X), h(X).", "one k literal"),
    "negated-fluent-literal": ("-g(X) if g(Y), -n(X), X != Y.", "one g literal"),
    "negated-own-literal": ("-k(X) if -k(Y), X != Y.", "negated"),
    "another-predicate": ("-n(o1) if k(X).", "one n literal"),
    "static-literal": ("-w(X, Y1) if w(X, Y2), t(Y1, Y2).", "one w literal"),
    "asymmetric-comparison": ("-k(X) if k(Y), X != o1.", "changes its comparisons"),
    "mismatched-constants": ("-w(o1, X) if w(o2, Y), X != Y.", "'o1' pairs with 'o2'"),
    "constant-and-variable": ("-k(o1) if k(X), X != o1.", "'o1' pairs with X"),
    "non-involutive-swap": ("-w(X, Y) if w(Y, Z), X != Z.", "not a renaming"),
}


@pytest.mark.parametrize("shape", _NOT_UNIQUE)
def test_a_window_that_is_not_a_uniqueness_constraint_is_rejected(shape):
    """A state constraint on an inertial fluent must read ``-p(H) if p(B),
    c1, ..., cn`` with comparisons ``ci`` that swapping ``H`` and ``B``
    (a consistent renaming) leaves as they are; ``ground`` refuses any
    other shape, naming the axiom and what is wrong with it."""
    text, reason = _NOT_UNIQUE[shape]
    with pytest.raises(GroundingError) as err:
        ground_shape(text)
    assert f"axiom constraint:1 ({text.rstrip('.')})" in str(err.value)
    assert "not a uniqueness constraint" in str(err.value)
    assert reason in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "-w(X, Y1) if w(X, Y2), Y1 != Y2.",
        "-w(X1, Y) if w(X2, Y), X1 != X2.",
        "-w(o1, Y1) if w(o1, Y2), Y1 != Y2.",
        "-w(X, Y) if w(Y, X), X != Y.",
        "-w(X1, Y1) if w(X2, Y2), X1 == X2, Y1 != Y2.",
        "-k(X) if k(Y), X != Y, X != o1, Y != o1.",
    ],
)
def test_a_uniqueness_constraint_grounds_with_one_trigger(text):
    gdom = ground_shape(text)
    (window,) = gdom.windows
    pred = window.head.atom.pred
    assert gdom.window_triggers == {pred: [(window, 0)]}
    assert window.body[0].atom.pred == pred
