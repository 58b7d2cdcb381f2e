"""The explanation engine over one recorded W0 episode: trace round
trips, the soundness re-check of why, why-belief and why-not answers,
rejection of ill-formed actions, and the known faults pinned as expected
failures."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fortdefense.env import GridConfig
from fortdefense.explain import (
    EpisodeTrace,
    Query,
    QueryParseError,
    TraceQueryError,
    answer_query,
    load_traces,
    parse_query,
    save_traces,
    verify_answer,
    well_formed_action,
)
from fortdefense.kr.beliefs import check_executable
from fortdefense.kr.lang import Atom, Literal
from fortdefense.kr.plan import candidate_actions


@pytest.fixture(scope="module")
def trace(w0_p1_record):
    return EpisodeTrace.from_record(w0_p1_record, GridConfig())


def test_save_load_save_is_byte_identical(w0_p1_record, tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_traces([w0_p1_record], GridConfig(), first)
    loaded = load_traces(first)
    assert len(loaded) == 1
    save_traces(loaded, GridConfig(), second)
    assert first.read_bytes() == second.read_bytes()


def test_every_why_verifies(trace):
    for rec in trace.steps:
        answer = answer_query(trace, Query("why_action", rec.chosen, None, rec.step))
        assert answer.chain
        assert verify_answer(trace, answer), (rec.step, answer.text)


def test_every_why_belief_verifies(trace):
    asked = 0
    for rec in trace.steps:
        for atom in sorted(rec.belief.atoms, key=str):
            literal = Literal(atom, True)
            answer = answer_query(trace, Query("why_belief", None, literal, rec.step))
            assert verify_answer(trace, answer), (rec.step, answer.text)
            asked += 1
    assert asked > len(trace.steps)


@pytest.mark.parametrize(
    "query",
    [
        "why not move(20, 19) in step 1",  # off the 20x20 grid
        "why not move(19, 20) in step 1",
        "why not shoot(guard1) in step 1",  # guards are not targets
        "why not shoot(attacker4) in step 1",  # no such attacker
    ],
)
def test_ill_formed_actions_are_rejected(trace, query):
    with pytest.raises(TraceQueryError, match="not a well-formed action"):
        answer_query(trace, query)


@pytest.mark.parametrize(
    "action",
    [
        Atom("fly", (3, 4)),  # undeclared
        Atom("agent_move", ("guard0", 5, 5)),  # exogenous
        Atom("move", ("guard0", -1, 19)),
        Atom("move", ("guard1", 5, 5)),  # another agent: wrong arity
        Atom("rotate", ("guard0", "up")),
        Atom("shoot", ("guard0",)),
    ],
    ids=str,
)
def test_query_objects_with_ill_formed_actions_are_rejected(trace, action):
    with pytest.raises(TraceQueryError, match="not a well-formed action"):
        answer_query(trace, Query("why_not_action", action, None, 1))


def brute_force_actions(gdom) -> frozenset:
    """Every ground action of the controlled guard, enumerated over the
    product of its declared argument sorts."""
    return frozenset(
        Atom(name, args)
        for name, decl in gdom.desc.actions.items()
        if not decl.exogenous
        for args in itertools.product(*(gdom.sorts[s] for s in decl.arg_sorts))
    )


@pytest.fixture(scope="module")
def universe(trace):
    return brute_force_actions(trace.gdom)


def test_the_brute_force_universe_has_the_expected_size(trace, universe):
    config = trace.config
    n_cells = config.width * config.height
    # moves to every cell, 4 rotations, a shot at each attacker, noop
    assert len(universe) == n_cells + 4 + config.n_attackers + 1


_ARG_VALUES = st.sampled_from(
    ["guard0", "guard1", "attacker1", "attacker3", "attacker4", "n", "w", "up", "r3"]
) | st.integers(-2, 21)
_CANDIDATES = st.builds(
    Atom,
    st.sampled_from(["move", "rotate", "shoot", "noop", "agent_move", "agent_shoot", "fly"]),
    st.lists(_ARG_VALUES, max_size=4).map(tuple),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_well_formedness_agrees_with_the_brute_force_universe(trace, universe, data):
    action = data.draw(st.sampled_from(sorted(universe, key=str)) | _CANDIDATES)
    assert well_formed_action(trace.gdom, action) == (action in universe)


def test_every_why_not_verifies(trace):
    """Why-not of every inexecutable candidate and of the first executable
    candidate that was not chosen, at every step.  shoot(attacker2) at
    step 12 is left to the expected failure below."""
    gdom = trace.gdom
    asked = {True: 0, False: 0}
    for rec in trace.steps:
        legal_asked = False
        for action in candidate_actions(rec.belief, gdom):
            if action == rec.chosen:
                continue
            executable = check_executable(rec.belief, action, gdom)[0]
            if executable:
                if legal_asked:
                    continue
                legal_asked = True
            if (rec.step, action) == (12, Atom("shoot", ("guard0", "attacker2"))):
                continue
            answer = answer_query(trace, Query("why_not_action", action, None, rec.step))
            assert verify_answer(trace, answer), (rec.step, answer.text)
            asked[executable] += 1
    assert asked[True] and asked[False]


@pytest.mark.xfail(
    strict=True,
    raises=KeyError,
    reason="why_not_chain names the undefined template clause_counterfactual",
)
def test_counterfactual_blocker_without_a_sight_literal_renders(trace):
    answer = answer_query(trace, "why not shoot(attacker2) in step 12")
    assert verify_answer(trace, answer)


@pytest.mark.xfail(
    strict=True,
    raises=QueryParseError,
    reason="the query grammar rejects the trace's own action syntax",
)
def test_the_trace_action_syntax_parses(trace):
    chosen = trace.step(1).chosen
    query = parse_query(f"why {chosen} in step 1")
    assert answer_query(trace, query).text
