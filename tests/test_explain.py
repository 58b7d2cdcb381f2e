"""The explanation engine over one recorded W0 episode: trace round
trips, the soundness re-check of why, why-belief and why-not answers, a
golden digest of their texts, rejection of ill-formed actions and
queries, the batch and interactive front ends, and the known faults
pinned as expected failures.  The chain links that episode never reaches
are checked on an episode with a failed search and on a built state."""

import dataclasses
import hashlib
import io
import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from fortdefense.env import GridConfig, reset
from fortdefense.explain import (
    EpisodeTrace,
    Query,
    QueryParseError,
    TraceQueryError,
    _CONFIG,
    _FINAL,
    _GOAL,
    _HEADER,
    _STEP,
    _decode,
    _encode,
    _goal_instance,
    answer_query,
    load_traces,
    parse_query,
    recheck_instance,
    repl,
    run_batch,
    save_traces,
    verify_answer,
    well_formed_action,
)
from fortdefense.kr.beliefs import Belief, check_executable, close_defined, progress
from fortdefense.kr.goals import Goal, select_goal
from fortdefense.kr.lang import Atom, Literal
from fortdefense.kr.plan import candidate_actions
from fortdefense.loop import AdHocController, EpisodeRecord, StepRecord, run_games


@pytest.fixture(scope="module")
def trace(w0_p1_record):
    return EpisodeTrace.from_record(w0_p1_record, GridConfig())


# The size and sha256 of ``save_traces([w0_p1_record], GridConfig(), path)``:
# the trace format's bytes, pinned so that a change to how the format is
# written cannot move them unnoticed.  Re-pinned at format version 4, which
# saves no provenance (each step's is replayed on load): 29,231 bytes,
# sha256 2934a191..., at version 3.
GOLDEN_W0_P1_SEED0_TRACE_BYTES = 16_754
GOLDEN_W0_P1_SEED0_TRACE = "a78deda4992c43f45b25715e59b9d114b561c567d4a00d2a1c872e731a9d0a22"


def test_golden_w0_trace_bytes(w0_p1_record, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_traces([w0_p1_record], GridConfig(), path)
    data = path.read_bytes()
    assert len(data) == GOLDEN_W0_P1_SEED0_TRACE_BYTES
    assert hashlib.sha256(data).hexdigest() == GOLDEN_W0_P1_SEED0_TRACE


def test_save_load_save_is_byte_identical(w0_p1_record, tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_traces([w0_p1_record], GridConfig(), first)
    loaded = load_traces(first)
    assert len(loaded) == 1
    save_traces(loaded, GridConfig(), second)
    assert first.read_bytes() == second.read_bytes()


def test_loading_gives_back_the_recorded_values(w0_p1_record, tmp_path):
    """Every field of the episode record and of each step record comes back
    as recorded."""
    path = tmp_path / "trace.jsonl"
    save_traces([w0_p1_record], GridConfig(), path)
    (loaded,) = load_traces(path)
    assert loaded.config == GridConfig()
    for f in dataclasses.fields(EpisodeRecord):
        if f.name != "steps":
            assert getattr(loaded, f.name) == getattr(w0_p1_record, f.name), f.name
    for got, want in zip(loaded.steps, w0_p1_record.steps, strict=True):
        for f in dataclasses.fields(StepRecord):
            assert getattr(got, f.name) == getattr(want, f.name), (want.step, f.name)


@pytest.mark.parametrize(
    "record, tables, unsaved, added",
    [
        (StepRecord, [_STEP], set(), set()),
        (EpisodeTrace, [_HEADER, _FINAL], {"steps", "gdom", "provenance"}, set()),
        (GridConfig, [_CONFIG], set(), set()),
        (EpisodeRecord, [_HEADER, _FINAL], {"steps"}, {"config"}),
        (Goal, [_GOAL], {"support", "comparison"}, set()),
    ],
    ids=["StepRecord", "EpisodeTrace", "GridConfig", "EpisodeRecord", "Goal"],
)
def test_every_record_field_has_exactly_one_codec_row(record, tables, unsaved, added):
    """A field added to a record but not to the trace codec fails here: each
    saved field of the record is the attribute of exactly one row of the
    tables that save it, and no other row names an attribute, but for the
    configuration that a header adds to an episode record.  Steps are saved
    a line each.  Derived, not saved: a trace's grounding (from its
    configuration) and its provenance (each step's progression replayed),
    and a goal's support and comparison (the goal rule replayed)."""
    attributes = [attr for table in tables for _, attr, *_ in table.rows]
    fields = {f.name for f in dataclasses.fields(record)} - unsaved
    assert sorted(attributes) == sorted(fields | added)


def _as_version_1(lines: list) -> int:
    lines[0]["version"] = 1
    return 1


def _with_a_text_step_number(lines: list) -> int:
    lines[2]["step"] = str(lines[2]["step"])
    return 3


def _with_a_goal_of_no_literals_field(lines: list) -> int:
    del lines[4]["goal"]["literals"]
    return 5


def _with_a_config_missing_its_width(lines: list) -> int:
    del lines[0]["config"]["width"]
    return 1


def _with_a_text_config_width(lines: list) -> int:
    lines[0]["config"]["width"] = "20"
    return 1


def _with_a_number_for_a_belief_atom(lines: list) -> int:
    lines[1]["belief"][0] = 7
    return 2


def _with_a_predicted_cell_of_one_coordinate(lines: list) -> int:
    lines[1]["predicted_next"]["attacker1"] = [1]
    return 2


def _config_edit(key, value):
    def edit(lines: list) -> int:
        lines[0]["config"][key] = value
        return 1

    return edit


def _executing_an_undeclared_action(lines: list) -> int:
    """Step 3 executes ``fly(guard0)``; replay refuses it at the final line,
    where the episode's trace is built."""
    lines[3]["executed"].append("fly(guard0)")
    return len(lines)


def _cut_before_the_final_line(lines: list) -> int:
    del lines[-1]
    return 1


def _with_a_second_header_before_the_final_line(lines: list) -> int:
    lines.insert(-1, dict(lines[0]))
    return len(lines) - 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (_as_version_1, "unsupported trace format version 1"),
        (_with_a_text_step_number, "field 'step' of a step is str, not int"),
        (_with_a_goal_of_no_literals_field, "missing field 'literals' in a goal"),
        (_with_a_config_missing_its_width, "missing field 'width'"),
        (_with_a_text_config_width, "field 'width' of a config is str, not int"),
        (
            _with_a_number_for_a_belief_atom,
            "field 'belief' of a step: 'int' object has no attribute 'strip'",
        ),
        (
            _with_a_predicted_cell_of_one_coordinate,
            "field 'predicted_next' of a step: list index out of range",
        ),
        (_config_edit("width", 3), "field 'config' of an episode header: width must be"),
        (_config_edit("n_guards", 0), "field 'config' of an episode header: n_guards must be"),
        (
            _config_edit("shoot_range", -1.0),
            "field 'config' of an episode header: shoot_range must be",
        ),
        (
            _config_edit("fort_cells", [[50, 50]]),
            "field 'config' of an episode header: fort_cells: cell (50, 50) out of bounds",
        ),
        (
            _executing_an_undeclared_action,
            "step 3 cannot be replayed: unknown action fly(guard0)",
        ),
        (_cut_before_the_final_line, "this episode header has no final line"),
        (
            _with_a_second_header_before_the_final_line,
            "the episode header at line 1 has no final line",
        ),
    ],
    ids=[
        "version-1",
        "text-step",
        "no-goal-literals",
        "no-config-width",
        "text-config-width",
        "number-belief-atom",
        "one-coordinate-cell",
        "narrow-config",
        "no-guards",
        "negative-range",
        "fort-off-grid",
        "undeclared-action",
        "no-final-line",
        "header-before-final",
    ],
)
def test_loading_refuses_a_file_this_format_cannot_read(
    w0_p1_record, tmp_path, edit, message
):
    """The W0 P1 seed-0 trace, saved and then broken by one edit, is
    refused with a ValueError that names the broken line and the reason."""
    path = tmp_path / "trace.jsonl"
    save_traces([w0_p1_record], GridConfig(), path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    number = edit(lines)
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    broken_line = re.escape(f", line {number}: ") + ".*" + re.escape(message)
    with pytest.raises(ValueError, match=broken_line):
        load_traces(path)


def test_a_whole_number_in_a_float_config_field_round_trips(w0_p1_record, tmp_path):
    """A float field of the configuration also reads a JSON whole number,
    and the file saves back byte for byte."""
    path, again = tmp_path / "trace.jsonl", tmp_path / "again.jsonl"
    save_traces([w0_p1_record], GridConfig(), path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0]["config"]["shoot_range"] = 5
    path.write_text(
        "".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n" for d in lines)
    )
    (loaded,) = load_traces(path)
    assert loaded.config == GridConfig(shoot_range=5.0)
    save_traces([loaded], loaded.config, again)
    assert again.read_bytes() == path.read_bytes()


def test_every_config_field_round_trips():
    config = GridConfig(
        width=12,
        height=9,
        fort_cells={(6, 8), (5, 8)},
        n_guards=2,
        n_attackers=4,
        shoot_range=4.5,
        shoot_arc_deg=120.0,
        max_steps=60,
    )
    d = _encode(_CONFIG, config)
    assert set(d) == {f.name for f in dataclasses.fields(GridConfig)}
    assert d["fort_cells"] == [[5, 8], [6, 8]]
    assert _decode(_CONFIG, json.loads(json.dumps(d)), None) == config


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
        Atom("agent_move", ("guard0", 5, 5)),  # undeclared: one vocabulary
        Atom("move", ("guard0", -1, 19)),
        Atom("move", ("guard1", 5, 5)),  # another agent's action
        Atom("move", ("attacker1", 5, 5)),
        Atom("rotate", ("guard0", "up")),
        Atom("shoot", ("guard0",)),
        Atom("shoot", ("guard0", "guard1")),  # a teammate: exec over statics
        Atom("shoot", ("guard0", "guard0")),
    ],
    ids=str,
)
def test_query_objects_with_ill_formed_actions_are_rejected(trace, action):
    with pytest.raises(TraceQueryError, match="not a well-formed action"):
        answer_query(trace, Query("why_not_action", action, None, 1))


def brute_force_actions(gdom) -> frozenset:
    """Every ground action of the controlled guard, enumerated over the
    product of its declared argument sorts with the guard as the first,
    less its shots at its own side."""
    ah, guards = gdom.ah_symbol, gdom.sorts["guard"]
    return frozenset(
        Atom(name, (ah,) + args)
        for name, decl in gdom.desc.actions.items()
        for args in itertools.product(*(gdom.sorts[s] for s in decl.arg_sorts[1:]))
        if not (name == "shoot" and args[0] in guards)
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
    st.sampled_from(["move", "rotate", "shoot", "noop", "agent_move", "fly"]),
    st.lists(_ARG_VALUES, max_size=4).map(tuple),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_well_formedness_agrees_with_the_brute_force_universe(trace, universe, data):
    action = data.draw(st.sampled_from(sorted(universe, key=str)) | _CANDIDATES)
    assert well_formed_action(trace.gdom, action) == (action in universe)


def why_not_queries(trace):
    """(step, action, executable) for every inexecutable candidate and the
    first executable candidate that was not chosen, at every step.
    shoot(attacker2) at step 12 is left to the expected failure below."""
    gdom = trace.gdom
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
            yield rec.step, action, executable


def test_every_why_not_verifies(trace):
    asked = {True: 0, False: 0}
    for step, action, executable in why_not_queries(trace):
        answer = answer_query(trace, Query("why_not_action", action, None, step))
        assert verify_answer(trace, answer), (step, answer.text)
        asked[executable] += 1
    assert asked[True] and asked[False]


#: (count, sha256) of the why texts of every step, then the why-not texts
#: of ``why_not_queries``, one per line, as rendered before the goal rule
#: carried its own support; rendering from that support keeps every text.
GOLDEN_TEXTS = (61, "bf5934ac7970451182fcfece46fc6ff61ca42d8ccf0dd1d143b27c80e034c1e9")


def test_why_and_why_not_texts_match_the_golden_digest(trace):
    texts = [
        answer_query(trace, Query("why_action", rec.chosen, None, rec.step)).text
        for rec in trace.steps
    ]
    texts += [
        answer_query(trace, Query("why_not_action", action, None, step)).text
        for step, action, _ in why_not_queries(trace)
    ]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == GOLDEN_TEXTS


#: (count, sha256) of the why-belief texts of ``why_belief_queries``, one
#: per line.  Re-pinned when the domain declared each action once: the 34
#: texts that cited another agent's move or turn now cite ``move`` and
#: ``rotate`` (``causal:1`` and ``causal:2``), and no other text changed.
GOLDEN_WHY_BELIEF_TEXTS = (
    382,
    "b98c6f967983df4323e65be0494978068fe569b036c4b0d3502b86d19fa68786",
)


def why_belief_queries(trace):
    """Per step: every atom of the belief as a positive literal, then every
    atom of the previous step's belief gone at this step as a negative
    literal, each group sorted by ``str``."""
    previous = frozenset()
    for rec in trace.steps:
        atoms = rec.belief.atoms
        for atom in sorted(atoms, key=str):
            yield Query("why_belief", None, Literal(atom, True), rec.step)
        for atom in sorted(previous - atoms, key=str):
            yield Query("why_belief", None, Literal(atom, False), rec.step)
        previous = atoms


@pytest.mark.parametrize("reloaded", [False, True], ids=["recorded", "reloaded"])
def test_why_belief_texts_match_the_golden_digest(w0_p1_record, tmp_path, reloaded):
    trace = EpisodeTrace.from_record(w0_p1_record, GridConfig())
    if reloaded:
        path = tmp_path / "trace.jsonl"
        save_traces([w0_p1_record], GridConfig(), path)
        (trace,) = load_traces(path)
    texts = []
    for query in why_belief_queries(trace):
        answer = answer_query(trace, query)
        assert verify_answer(trace, answer), answer.text
        texts.append(answer.text)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == GOLDEN_WHY_BELIEF_TEXTS


def test_every_link_stores_its_slots_in_name_order_and_cites_a_domain_rule(trace):
    """Over the answers behind both golden digests: each link's slots are in
    name order, and a link with an axiom id cites a compiled rule of the
    trace's domain (causal law, window, definition, executability
    condition or default) whose text is the link's axiom text, and which
    its ``to_dict`` carries once: the clause takes it from the link."""
    gdom = trace.gdom
    rules = {
        rule.axiom_id: rule
        for rule in itertools.chain(
            *gdom.causal_by_action.values(),
            gdom.windows,
            gdom.definitions,
            *gdom.exec_by_action.values(),
            gdom.defaults,
        )
    }
    queries = [Query("why_action", rec.chosen, None, rec.step) for rec in trace.steps]
    queries += [
        Query("why_not_action", action, None, step)
        for step, action, _ in why_not_queries(trace)
    ]
    queries += why_belief_queries(trace)
    cited = set()
    for query in queries:
        for link in answer_query(trace, query).chain:
            names = [name for name, _ in link.slots]
            assert names == sorted(names), link
            if link.axiom_id:
                assert rules[link.axiom_id].text == link.axiom_text, link
                assert json.dumps(link.to_dict()).count(link.axiom_text) == 1, link
                cited.add(rules[link.axiom_id].kind)
    assert cited == {"causal", "window", "definition", "exec", "default"}


def test_a_goal_the_rule_does_not_select_is_refused(trace):
    rec = trace.step(1)
    forged = dataclasses.replace(rec, goal=Goal("hold_position", None, ()))
    tampered = dataclasses.replace(trace, steps=[forged] + trace.steps[1:])
    with pytest.raises(TraceQueryError, match="goal rule replayed at step 1"):
        answer_query(tampered, Query("why_action", rec.chosen, None, 1))


@pytest.mark.parametrize(
    "entries, predicted, template, slots",
    [
        (  # in reach only at its predicted cell
            [("guard0", 2, 14, "e", True), ("attacker1", 11, 14, "w", True)],
            {"attacker1": (10, 14)},
            "clause_goal_shoot_predicted",
            {"predicted_cell": "(10, 14)", "own_cell": "(2, 14)", "target": "attacker1"},
        ),
        (  # in reach where it stands: the current cell is cited
            [("guard0", 3, 14, "e", True), ("attacker1", 11, 14, "w", True)],
            {"attacker1": (10, 14)},
            "clause_goal_shoot",
            {"target_cell": "(11, 14)", "own_cell": "(3, 14)", "target": "attacker1"},
        ),
        (  # every fort-adjacent region guarded
            [
                ("guard0", 9, 13, "n", True),
                ("guard1", 5, 17, "s", True),
                ("guard2", 9, 17, "s", True),
                ("guard3", 13, 17, "s", True),
                ("attacker1", 19, 13, "w", True),
            ],
            {},
            "clause_goal_hold",
            {"facing": "e", "target": "attacker1", "target_cell": "(19, 13)"},
        ),
        (
            [("guard0", 10, 10, "n", True), ("attacker1", 19, 19, "n", False)],
            {},
            "clause_goal_idle",
            {},
        ),
    ],
    ids=["shoot-predicted", "shoot", "hold", "idle"],
)
def test_goal_clauses_render_the_replayed_support(entries, predicted, template, slots):
    n_guards = sum(sym.startswith("guard") for sym, *_ in entries)
    config = GridConfig(n_guards=n_guards, n_attackers=len(entries) - n_guards)
    trace = EpisodeTrace(
        config=config,
        seed=0,
        policy="",
        horizon=8,
        completion_applied=(),
        completion_retracted=(),
        steps=[],
        final_belief=None,
        outcome="",
        n_steps=0,
        guards_win=False,
    )
    atoms = [Atom("in", (sym, x, y)) for sym, x, y, _, _ in entries]
    atoms += [Atom("face", (sym, d)) for sym, _, _, d, _ in entries]
    atoms += [Atom("shot", (sym,)) for sym, *_, alive in entries if not alive]
    belief = Belief(close_defined(atoms, trace.gdom))
    goal = select_goal(belief, trace.gdom, predicted)
    trace.steps.append(StepRecord(1, belief, goal, predicted_next=predicted))
    inst = _goal_instance(trace, trace.steps[0])
    assert inst.template == template
    if template.startswith("clause_goal_shoot"):
        slots = {**slots, "distance": "8", "reach": "8"}
    assert dict(inst.slots) == slots
    assert inst.antecedents == goal.support
    assert recheck_instance(trace, inst)


@pytest.mark.parametrize(
    "query",
    [
        "why belief in(guard0,, 3) at step 1",
        "why belief in(guard0, 3 at step 1",
        "why belief 3in(guard0) at step 1",
        "why belief in(guard0, $3, 4) at step 1",
    ],
)
def test_a_malformed_belief_literal_is_a_parse_error(query):
    with pytest.raises(QueryParseError, match="grammar"):
        parse_query(query)


def _own_cell_belief_query(trace, step=1):
    atom = next(
        a
        for a in sorted(trace.step(step).belief.atoms, key=str)
        if a.pred == "in" and a.args[0] == trace.gdom.ah_symbol
    )
    return f"why belief {atom} at step {step}"


def test_run_batch_answers_and_records_errors(trace):
    good = _own_cell_belief_query(trace)
    lines = ["# a comment", "", good, "why did the chicken", "why noop in step 999"]
    out = run_batch(trace, lines)
    assert [r["query"] for r in out] == lines[2:]
    assert out[0]["text"].startswith("In step 1 I believed") and "error" not in out[0]
    assert "grammar" in out[1]["error"]  # QueryParseError
    assert "step 999 is not in the trace" in out[2]["error"]  # TraceQueryError


def test_repl_answers_reports_errors_and_stops_at_quit(trace):
    good = _own_cell_belief_query(trace)
    inp = io.StringIO(f"{good}\n\nwhy not\nwhy noop in step 999\nquit\n{good}\n")
    out = io.StringIO()
    repl(trace, inp, out)
    text = out.getvalue()
    assert text.count("In step 1 I believed") == 1  # nothing after quit
    assert text.count("error: ") == 2
    assert "error: missing step index" in text
    assert "error: step 999 is not in the trace" in text
    assert text.endswith("explain> ")
    assert inp.readline() == f"{good}\n"  # left unread


# ---------------------------------------------------------------------------
# chain links the W0 episode above never reaches
# ---------------------------------------------------------------------------


def _verified(trace, query: Query):
    answer = answer_query(trace, query)
    assert verify_answer(trace, answer), answer.text
    return [inst.template for inst in answer.chain], answer.text


def test_a_retracted_pose_is_explained_by_the_window_that_withdrew_it(trace):
    ah = trace.gdom.ah_symbol
    rec, gone = next(
        (rec, p.atom)
        for rec in trace.steps
        for p in trace.provenance[rec.step]
        if p.how == "retracted" and p.atom.pred == "in" and p.atom.args[0] == ah
    )
    literal = Literal(gone, False)
    templates, text = _verified(trace, Query("why_belief", None, literal, rec.step + 1))
    assert templates == ["clause_window"]
    assert text.startswith(f"In step {rec.step + 1} I believed {literal} because it was")
    assert f"withdrawn in step {rec.step} when in({ah}, " in text


def test_a_never_held_negative_literal_is_a_closed_world_belief(trace):
    literal = Literal(Atom("in", (trace.gdom.ah_symbol, 0, 0)), False)
    step = trace.last_step
    assert all(
        p.atom != literal.atom for entries in trace.provenance.values() for p in entries
    )
    templates, text = _verified(trace, Query("why_belief", None, literal, step))
    assert templates == ["clause_observation_negative"]
    assert "never derived afterwards" in text


@pytest.fixture(scope="module")
def fallback_trace():
    """An episode with a failed search: B220 from seed 1000, whose fifth
    episode (seed 1004) finds no plan to shoot attacker2 in step 14."""
    stats = run_games(GridConfig(), "B220", 5, seed=1000, collect_traces=True)
    trace = EpisodeTrace.from_record(stats.records[4], GridConfig())
    rec = trace.step(14)
    assert (rec.fallback, rec.plan_actions, rec.goal.kind) == ("noop", (), "shoot_target")
    return trace


def test_a_fallback_step_cites_the_horizon(fallback_trace):
    chosen = fallback_trace.step(14).chosen
    templates, text = _verified(fallback_trace, Query("why_action", chosen, None, 14))
    assert templates == ["clause_goal_shoot", "clause_horizon"]
    assert text.endswith(
        "no plan within horizon 8 achieved the goal, so I fell back to holding position."
    )


def test_an_alternative_with_no_plan_after_it_is_unreachable(fallback_trace):
    action = Atom("move", (fallback_trace.gdom.ah_symbol, 10, 16))
    templates, text = _verified(fallback_trace, Query("why_not_action", action, None, 14))
    assert templates[-1] == "clause_counterfactual_unreachable"
    assert text.endswith(
        f"after {action} no plan within horizon 8 would have achieved the goal."
    )


def test_a_goal_that_already_holds_is_explained_as_satisfied():
    # four guards hold the four fort-adjacent regions and every attacker
    # is far to the south, so the goal is to face south, as guard0 does
    config = GridConfig(n_guards=4)
    state = reset(config, 0)
    for guard, cell in zip(state.guards(), [(10, 18), (6, 18), (13, 18), (10, 14)]):
        guard.x, guard.y = cell
    assert all(a.y < 4 for a in state.attackers())
    controller = AdHocController(config, refit=False, collect_trace=True)
    controller.begin_episode(state)
    controller.act(state)
    trace = EpisodeTrace.from_record(controller.record, config)
    rec = trace.step(1)
    assert (rec.goal.kind, str(rec.chosen)) == ("hold_position", "noop(guard0)")
    assert not rec.replanned
    templates, text = _verified(trace, Query("why_action", rec.chosen, None, 1))
    assert templates == ["clause_goal_hold", "clause_goal_satisfied"]
    assert text.endswith(
        "the goal condition face(guard0, s) already held, so nothing needed doing."
    )


def test_the_belief_after_the_last_decision_is_the_final_belief(trace):
    """The guard is down after step 12 of this 27-tick episode.  Its final
    belief is the one its last decision led to, not the end-of-episode
    world, so a why-belief query at step 13 is answered from it: attacker1
    faced east only later in the episode."""
    last = trace.steps[-1]
    assert (last.step, trace.n_steps) == (12, 27)
    assert trace.final_belief == progress(last.belief, last.executed, trace.gdom)
    assert trace.belief_at(13) is trace.final_belief
    with pytest.raises(TraceQueryError, match="at step 13 the belief was -agent_face"):
        answer_query(trace, "why belief agent_face(attacker1, e) at step 13")


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
