"""Execution traces and why / why-not / why-belief question answering.

An episode trace records, per tick, the tick-start belief, the selected
goal, the plan and the executed action.  Queries over a trace are
answered by reconstructing the chain of reasons behind a decision or a
belief:

* **why <action> in step i** — the goal conditions that selected the
  goal (the goal rule is replayed on the step's belief and predictions,
  and its support is cited), the executability condition that ruled out
  acting on the goal directly (when one did), and the plan whose first
  step the action was.
* **why not <action> in step i** — if the action was inexecutable, the
  executability axiom that fired; if it was executable but not chosen,
  a one-step counterfactual: the action is simulated against the
  recorded predictions and the goal condition it violates or delays is
  reported.
* **why belief <literal> at step i** — the provenance of the belief,
  replayed from the earlier steps: the causal law that established it,
  the causal law or state constraint that withdrew it, or the initial
  observation that held it, with inertia bridging the steps in between.

A trace is the loop's episode record plus the configuration it was
played on.  Every chain link is an axiom instance, made by one builder,
whose ground antecedents can be re-checked against the stored snapshots;
``answer_query`` is the one entry point, and renders the chain with
templates (shipped as a data file) filled only with material from the
chain.  Traces serialize to JSON Lines with sorted keys and no
timestamps, so identical runs give byte-identical files.  The format is
declared once, in codec tables of one row per JSON key (``_HEADER``,
``_STEP``, ``_FINAL`` and the objects they nest), which ``save_traces``
and ``load_traces`` walk.  A trace replays each step's progression, from
its belief and executed atoms, through the domain grounded from its
configuration (:class:`EpisodeTrace`), to the step's provenance and the
next step's belief (the last step's to the final belief); neither is
saved where that replay gives it, so a belief is saved only on the first
step and after a ``reconciled`` step, the last one's on the final line.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from importlib import resources
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence, Union

from fortdefense.env import GridConfig
from fortdefense.kr.beliefs import (
    Belief,
    InconsistencyError,
    Provenance,
    check_executable,
    derivation,
    progress,
)
from fortdefense.kr.goals import Goal, select_goal
from fortdefense.kr.ground import CompiledRule, GroundedDomain, GroundingError
from fortdefense.kr.ground import ground as _ground
from fortdefense.kr.lang import (
    Atom,
    DomainSyntaxError,
    Literal,
    parse_atom,
    parse_literal,
)
from fortdefense.kr.plan import goal_holds, plan as search_plan
from fortdefense.loop import (
    EpisodeRecord,
    StepRecord,
    build_schedule,
    grounded_domain,
)

# the binding perfbench/tracing.py wraps; groundings come from loop
ground = _ground

TRACE_FORMAT_VERSION = 7
TEMPLATE_RESOURCE = "explain_templates.txt"

GRAMMAR = (
    "why [not] <action>(<args>) in step <i>   with <action> one of "
    "move(x,y) | shoot(attacker) | rotate(d) | noop   |   "
    "why belief <literal> at step <i>"
)


class QueryParseError(ValueError):
    """An unparsable query; the message restates the grammar."""


class TraceQueryError(ValueError):
    """A well-formed query that the trace cannot answer."""


class DegenerateQueryError(TraceQueryError):
    """A why-not query about the action that *was* chosen."""


# ---------------------------------------------------------------------------
# queries, chain links, answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    kind: str  # why_action | why_not_action | why_belief
    action: Optional[Atom]
    literal: Optional[Literal]
    step: int


@dataclass(frozen=True)
class AxiomInstance:
    """One link of an explanation chain.

    ``antecedents`` are ground literals that must hold in the belief
    snapshot at ``step`` (or, for counterfactual links, in the state
    reached by simulating ``counterfactual`` from that snapshot).
    """

    template: str
    axiom_id: str
    axiom_text: str
    step: int
    antecedents: tuple[Literal, ...]
    consequence: str
    slots: tuple[tuple[str, str], ...] = ()
    counterfactual: Optional[Atom] = None

    def to_dict(self) -> dict:
        return {
            "template": self.template,
            "axiom_id": self.axiom_id,
            "axiom_text": self.axiom_text,
            "step": self.step,
            "antecedents": [str(l) for l in self.antecedents],
            "consequence": self.consequence,
            "slots": dict(self.slots),
            "counterfactual": None
            if self.counterfactual is None
            else str(self.counterfactual),
        }


@dataclass(frozen=True)
class Answer:
    query: Query
    chain: tuple[AxiomInstance, ...]
    literals: tuple[Literal, ...]
    text: str

    def to_dict(self) -> dict:
        return {
            "kind": self.query.kind,
            "step": self.query.step,
            "target": str(self.query.action or self.query.literal),
            "text": self.text,
            "chain": [inst.to_dict() for inst in self.chain],
            "literals": [str(l) for l in self.literals],
        }


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@functools.cache
def load_templates() -> dict[str, str]:
    text = (
        resources.files("fortdefense") / "data" / TEMPLATE_RESOURCE
    ).read_text()
    templates: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            continue
        templates[key.strip()] = value.strip()
    return templates


def render_chain(kind: str, top_slots: dict[str, str], chain: Sequence[AxiomInstance]) -> str:
    """Fill the top-level template for a query kind with the chain's
    clauses; identical chains render identically.  A clause's ``axiom``
    comes from the link's own id and text."""
    templates = load_templates()
    clauses = "; ".join(
        templates[i.template].format(axiom=f"{i.axiom_id} {i.axiom_text}", **dict(i.slots))
        for i in chain
    )
    return templates[kind].format(clauses=clauses, **top_slots)


# ---------------------------------------------------------------------------
# query parsing
# ---------------------------------------------------------------------------

_STEP_RE = re.compile(r"\s+(?:in|at)\s+step\s+(\d+)$")
_MOVE_RE = re.compile(r"^move(?:\s+to)?\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)$")
_SHOOT_RE = re.compile(r"^shoot\s*\(?\s*([a-z_]\w*)\s*\)?$")
_ROTATE_RE = re.compile(r"^rotate(?:\s+to)?\s*\(?\s*([nesw])\s*\)?$")
_NOOP_RE = re.compile(r"^noop\s*(?:\(\s*\))?$")


def parse_query(text: str) -> Query:
    """Parse a query in the documented grammar (case-insensitive, with
    the surface forms "why did you ..." and "why did you not ..."
    tolerated)."""
    t = text.strip().lower().rstrip("?.! ").strip()
    if not t.startswith("why"):
        raise QueryParseError(f"cannot parse {text!r}; grammar: {GRAMMAR}")
    rest = t[3:].strip()
    m = _STEP_RE.search(rest)
    if not m:
        raise QueryParseError(
            f"missing step index in {text!r}; grammar: {GRAMMAR}"
        )
    step = int(m.group(1))
    rest = rest[: m.start()].strip()
    if rest.startswith("belief "):
        try:
            literal = parse_literal(rest[7:])
        except DomainSyntaxError as exc:
            raise QueryParseError(f"{exc} in {text!r}; grammar: {GRAMMAR}") from None
        return Query("why_belief", None, literal, step)
    negated = False
    if rest.startswith("didn't you "):
        negated, rest = True, rest[11:]
    elif rest.startswith("did you not "):
        negated, rest = True, rest[12:]
    elif rest.startswith("did you "):
        rest = rest[8:]
    if rest.startswith("not "):
        negated, rest = True, rest[4:]
    rest = rest.strip()
    for pattern, build in (
        (_MOVE_RE, lambda m: Atom("move", (int(m.group(1)), int(m.group(2))))),
        (_SHOOT_RE, lambda m: Atom("shoot", (m.group(1),))),
        (_ROTATE_RE, lambda m: Atom("rotate", (m.group(1),))),
        (_NOOP_RE, lambda m: Atom("noop", ())),
    ):
        m = pattern.match(rest)
        if m:
            kind = "why_not_action" if negated else "why_action"
            return Query(kind, build(m), None, step)
    raise QueryParseError(f"cannot parse action in {text!r}; grammar: {GRAMMAR}")


# ---------------------------------------------------------------------------
# trace container and JSONL serialization
# ---------------------------------------------------------------------------

@dataclass
class EpisodeTrace(EpisodeRecord):
    """An episode record with the configuration it was played on, grounded
    once, to query.  When the trace is built, each step's progression is
    replayed from its belief and executed atoms: ``provenance`` maps the
    step to the rule instances behind it (none where it is inconsistent),
    and a next step without a belief (a loaded one) takes its result, as
    does a missing final belief after the last step, unless the step was
    ``reconciled`` (the loop rebuilt the next belief from its observation).
    ``steps`` becomes a tuple then, so no step joins later."""

    config: GridConfig = field(kw_only=True)
    gdom: GroundedDomain = field(repr=False, default=None)
    provenance: dict[int, tuple[Provenance, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.gdom is None:
            self.gdom = grounded_domain(self.config)
        self.steps = tuple(self.steps)
        self.provenance = {}
        replayed = None  # the belief the previous step's replay gives, if any
        for rec in self.steps:
            if rec.belief is None:
                if replayed is None:
                    raise ValueError(f"step {rec.step} has no belief and no replay gives it")
                rec.belief = replayed
            entries: list[Provenance] = []
            try:
                replayed = progress(rec.belief, rec.executed, self.gdom, trace=entries)
            except InconsistencyError:
                replayed, entries = None, []
            except GroundingError as err:  # an action the domain does not declare
                raise ValueError(f"step {rec.step} cannot be replayed: {err}") from err
            if rec.reconciled:  # the loop rebuilt the next belief from its observation
                replayed = None
            self.provenance[rec.step] = tuple(entries)
        if self.final_belief is None and self.steps:
            if replayed is None:
                raise ValueError("the final belief is missing and no replay gives it")
            self.final_belief = replayed

    @classmethod
    def from_record(cls, record: EpisodeRecord, config: GridConfig) -> "EpisodeTrace":
        return cls(**vars(record), config=config)

    @property
    def last_step(self) -> int:
        return self.steps[-1].step if self.steps else 0

    def step(self, i: int) -> StepRecord:
        for rec in self.steps:
            if rec.step == i:
                return rec
        raise TraceQueryError(
            f"step {i} is not in the trace (decision steps 1..{self.last_step})"
        )

    def belief_at(self, i: int) -> Belief:
        for rec in self.steps:
            if rec.step == i:
                return rec.belief
        if i == self.last_step + 1 and self.final_belief is not None:
            return self.final_belief
        raise TraceQueryError(
            f"no belief snapshot for step {i} (steps 1..{self.last_step})"
        )


#: How a field saves: the JSON types it may hold, its value's JSON form,
#: and the value back from that form and the file's reader (by default,
#: the JSON value itself).
_Codec = namedtuple(
    "_Codec", "types encode decode", defaults=(lambda value: value, lambda value, reader: value)
)


#: A saved object: its name in messages, the constructor of its decoded
#: attributes, a (key, attribute, *codec) row per field, its constant keys.
_Object = namedtuple("_Object", "name make rows framing")


def _object(name: str, make: Callable, *rows: tuple, **framing) -> _Object:
    """Rows are given as (key, codec), or (key, codec, attribute) when the
    attribute is named otherwise."""
    rows = tuple((key, a[0] if a else key, *codec) for key, codec, *a in rows)
    return _Object(name, make, rows, framing)


def _encode(obj: _Object, value) -> dict:
    d = {key: encode(getattr(value, attr)) for key, attr, _, encode, _ in obj.rows}
    d.update(obj.framing)
    return d


def _decode(obj: _Object, d, reader):
    """The value a saved object holds.  Its constant keys, then each row's
    key, JSON type and decoding, are checked in order; the first failure
    raises a ValueError that names the object and the field."""
    if type(d) is not dict:
        raise ValueError(f"{obj.name} is {type(d).__name__}, not an object")
    for key, want in obj.framing.items():
        if type(d.get(key)) is not type(want) or d[key] != want:
            raise ValueError(f"unsupported trace format {key} {d.get(key)!r}")
    values = {}
    for key, attr, types, _, decode in obj.rows:
        if key not in d:
            raise ValueError(f"missing field {key!r} in {obj.name}")
        value = d[key]
        if type(value) not in types:
            want = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(
                f"field {key!r} of {obj.name} is {type(value).__name__}, not {want}"
            )
        try:
            values[attr] = decode(value, reader)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
            raise ValueError(f"field {key!r} of {obj.name}: {err}") from err
    return obj.make(**values)


def _optional(codec: _Codec, none) -> _Codec:
    """``codec`` for a value that may be None, which saves as ``none``."""
    return _Codec(
        tuple(dict.fromkeys(codec.types + (type(none),))),
        lambda value: none if value is None else codec.encode(value),
        lambda value, reader: None if value == none else codec.decode(value, reader),
    )


def _nested(obj: _Object) -> _Codec:
    return _Codec((dict,), functools.partial(_encode, obj), functools.partial(_decode, obj))


def _mapping(encode: Callable, decode: Callable) -> _Codec:
    """A JSON object whose values each save by ``encode`` and load by ``decode``."""
    return _Codec(
        (dict,),
        lambda m: {k: encode(v) for k, v in m.items()},
        lambda m, reader: {k: decode(v) for k, v in m.items()},
    )


def _texts(items) -> list[str]:
    return [str(x) for x in items]


_INT, _STR, _BOOL = _Codec((int,)), _Codec((str,)), _Codec((bool,))
_FLOAT = _Codec((float, int))  # a whole number may be written without a fraction
_STRS = _Codec((list,), decode=lambda value, reader: tuple(value))
_ATOM = _Codec((str,), str, lambda value, reader: reader.atom(value))
_ATOMS = _Codec((list,), _texts, lambda value, reader: tuple(map(reader.atom, value)))
_LITERALS = _Codec((list,), _texts, lambda value, reader: tuple(map(reader.literal, value)))
_BELIEF = _Codec(
    (list,),
    lambda belief: sorted(str(a) for a in belief.atoms),
    lambda value, reader: Belief(map(reader.atom, value)),
)

def _valid_config(**fields) -> GridConfig:
    """The configuration of decoded fields; one that ``GridConfig.validate``
    refuses raises its ConfigError, which names the field at fault."""
    config = GridConfig(**fields)
    config.validate()
    return config


# The trace format, each saved object once.  A missing chosen action, and a
# belief that replay gives (see ``save_traces``), save as null.

_CONFIG = _object(
    "a config",
    _valid_config,
    ("width", _INT),
    ("height", _INT),
    (
        "fort_cells",
        _Codec(
            (list,),
            lambda cells: sorted([x, y] for x, y in cells),
            lambda value, reader: frozenset((x, y) for x, y in value),
        ),
    ),
    ("n_guards", _INT),
    ("n_attackers", _INT),
    ("shoot_range", _FLOAT),
    ("shoot_arc_deg", _FLOAT),
    ("max_steps", _INT),
)

_HEADER = _object(
    "an episode header",
    dict,
    ("seed", _INT),
    ("policy", _STR),
    ("horizon", _INT),
    ("config", _nested(_CONFIG)),
    ("outcome", _STR),
    ("n_steps", _INT),
    ("guards_win", _BOOL),
    type="episode",
    version=TRACE_FORMAT_VERSION,
)

_GOAL = _object(
    "a goal",
    Goal,
    ("kind", _STR),
    ("target", _optional(_STR, None)),
    ("literals", _LITERALS),
)

_STEP = _object(
    "a step",
    StepRecord,
    ("step", _INT),
    ("belief", _optional(_BELIEF, None)),
    ("goal", _nested(_GOAL)),
    ("predictions", _mapping(int, int)),
    ("predicted_next", _mapping(list, lambda cell: (cell[0], cell[1]))),
    ("fine_regions", _STRS),
    ("replanned", _BOOL),
    ("plan_success", _BOOL),
    ("plan_expanded", _INT),
    ("plan", _ATOMS, "plan_actions"),
    ("chosen", _optional(_ATOM, None)),
    ("fallback", _STR),
    ("executed", _ATOMS),
    ("reconciled", _BOOL),
    type="step",
)

_FINAL = _object(
    "a final line", dict, ("belief", _optional(_BELIEF, None), "final_belief"), type="final"
)


def save_traces(
    records: Sequence[EpisodeRecord], config: GridConfig, path
) -> int:
    """Write episode records as JSON Lines (sorted keys, no timestamps);
    identical inputs give byte-identical files.  Returns the episode
    count."""

    def dump(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    with open(path, "w") as f:
        for rec in records:
            # the header holds the record's own fields and the configuration given
            f.write(dump(_encode(_HEADER, SimpleNamespace(**{**vars(rec), "config": config}))))
            replayed = False  # whether the belief next saved is the replay of the step before
            for s in rec.steps:
                saved = SimpleNamespace(**{**vars(s), "belief": None}) if replayed else s
                f.write(dump(_encode(_STEP, saved)))
                replayed = not s.reconciled
            final = SimpleNamespace(final_belief=None) if replayed else rec
            f.write(dump(_encode(_FINAL, final)))
    return len(records)


def load_traces(path) -> list[EpisodeTrace]:
    """Read a JSONL trace file back into queryable traces.  Each header's
    configuration must pass ``GridConfig.validate``, and is grounded once;
    an episode's final line builds its trace, which replays the steps'
    provenance through that grounding.  A line this format cannot read
    raises a ValueError that names the file, the line and the reason, as
    does an episode header that no final line closes, and a final line
    whose episode executes an action the domain does not declare, or whose
    null belief no replay gives."""
    # each distinct atom or literal is parsed once: a trace repeats the
    # same belief atoms at every step
    reader = SimpleNamespace(
        atom=functools.cache(parse_atom), literal=functools.cache(parse_literal)
    )
    traces: list[EpisodeTrace] = []
    episode: Optional[dict] = None  # the open episode's trace fields so far
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                kind = d.get("type") if type(d) is dict else None
                if kind == "episode":
                    if episode is not None:
                        raise ValueError(
                            f"the episode header at line {opened} has no final line"
                        )
                    episode = _decode(_HEADER, d, reader)
                    episode.update(gdom=grounded_domain(episode["config"]), steps=[])
                    opened = number
                elif kind not in ("step", "final"):
                    raise ValueError("not an episode, step or final line")
                elif episode is None:
                    raise ValueError(f"a {kind} line before an episode header")
                elif kind == "step":
                    episode["steps"].append(_decode(_STEP, d, reader))
                else:
                    traces.append(EpisodeTrace(**episode, **_decode(_FINAL, d, reader)))
                    episode = None
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{path}, line {number}: {err}") from err
    if episode is not None:
        raise ValueError(f"{path}, line {opened}: this episode header has no final line")
    return traces


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------


def _cell(x, y) -> str:
    return f"({x}, {y})"


def _fmt(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _with_agent(action: Atom, ah: str) -> Atom:
    """Insert the controlled guard as the agent argument when absent."""
    if action.pred == "noop":
        return Atom("noop", (ah,))
    if action.args and action.args[0] == ah:
        return action
    return Atom(action.pred, (ah,) + action.args)


def _cell_of(support: Sequence[Literal], sym: str) -> tuple:
    """The cell an ``in(sym, x, y)`` literal of the support places ``sym`` in."""
    return next(
        l.atom.args[1:]
        for l in support
        if l.atom.pred == "in" and l.atom.args[0] == sym
    )


def _link(
    template: str,
    axiom_text: str,
    step: int,
    consequence: str,
    antecedents: tuple[Literal, ...] = (),
    /,
    *,
    axiom_id: str = "",
    counterfactual: Optional[Atom] = None,
    **slots: str,
) -> AxiomInstance:
    """A chain link whose ``slots`` fill ``template``, stored in name
    order.  The parameters are positional-only, so any name can be a slot
    (the inertia link fills ``step``)."""
    return AxiomInstance(
        template,
        axiom_id,
        axiom_text,
        step,
        antecedents,
        consequence,
        tuple(sorted(slots.items())),
        counterfactual,
    )


def _goal_instance(trace: EpisodeTrace, rec: StepRecord) -> AxiomInstance:
    """The goal rule's instance at a step: the rule is replayed on the
    step's belief and predictions, and the replayed goal's support and
    comparison fill the template."""
    goal = select_goal(rec.belief, trace.gdom, rec.predicted_next)
    if goal != rec.goal:
        raise TraceQueryError(
            f"the goal rule replayed at step {rec.step} selects {goal},"
            f" not the recorded {rec.goal}"
        )
    cmp = goal.comparison
    if goal.kind == "shoot_target":
        slots = {
            "target": goal.target,
            "own_cell": _cell(*_cell_of(goal.support, trace.gdom.ah_symbol)),
            "distance": _fmt(cmp.distance),
            "reach": _fmt(cmp.reach),
        }
        if cmp.cell == _cell_of(goal.support, goal.target):
            template = "clause_goal_shoot"
            slots["target_cell"] = _cell(*cmp.cell)
        else:
            template = "clause_goal_shoot_predicted"
            slots["predicted_cell"] = _cell(*cmp.cell)
        axiom_text = "goal priority: shoot an attacker within pursuit reach"
        consequence = f"goal shoot_target({goal.target})"
    elif goal.kind == "occupy_region":
        template, slots = "clause_goal_occupy", {"region": goal.target}
        axiom_text = "goal priority: occupy an unguarded fort-adjacent region"
        consequence = f"goal occupy_region({goal.target})"
    elif cmp is not None:
        template = "clause_goal_hold"
        slots = {
            "facing": str(goal.literals[0].atom.args[1]),
            "target": cmp.attacker,
            "target_cell": _cell(*cmp.cell),
        }
        axiom_text = "goal priority: hold position facing the nearest attacker"
        consequence = "goal hold_position"
    else:
        template, slots = "clause_goal_idle", {}
        axiom_text = "goal priority: hold position"
        consequence = "goal hold_position"
    return _link(template, axiom_text, rec.step, consequence, goal.support, **slots)


def _rule_instance(
    template: str,
    rule: CompiledRule,
    step: int,
    antecedents: tuple[Literal, ...],
    consequence: str,
    /,
    *,
    counterfactual: Optional[Atom] = None,
    **slots: str,
) -> AxiomInstance:
    """A chain link that cites ``rule`` (its id and text render as
    ``axiom``); its ground antecedents fill the ``literals`` slot."""
    return _link(
        template,
        rule.text,
        step,
        consequence,
        antecedents,
        axiom_id=rule.axiom_id,
        counterfactual=counterfactual,
        literals="; ".join(str(l) for l in antecedents) or "no conditions",
        **slots,
    )


def _blocked_instance(
    trace: EpisodeTrace,
    step: int,
    action: Atom,
    blocker,
    *,
    template_prefix: str = "clause_blocked",
    counterfactual: Optional[Atom] = None,
) -> AxiomInstance:
    """An executability-axiom instance from a check_executable blocker."""
    rule, binding = blocker
    antecedents = tuple(lit.substitute(binding) for lit in rule.body)
    slots = {"action": str(action)}
    template = template_prefix
    sight = next(
        (
            l
            for l in antecedents
            if not l.positive and l.atom.pred == "in_sight"
        ),
        None,
    )
    if sight is not None:
        x1, y1, facing, x2, y2 = sight.atom.args
        distance = math.hypot(x2 - x1, y2 - y1)
        slots.update(
            {
                "target": str(action.args[-1]),
                "target_cell": _cell(x2, y2),
                "own_cell": _cell(x1, y1),
                "facing": str(facing),
                "distance": _fmt(distance),
                "range": _fmt(trace.config.shoot_range),
            }
        )
        template = template_prefix + "_range"
    if counterfactual is not None:
        slots["enable"] = str(action)
    return _rule_instance(
        template,
        rule,
        step,
        antecedents,
        f"{action} not executable",
        counterfactual=counterfactual,
        **slots,
    )


def _describe_target(atom: Atom) -> str:
    if atom.pred == "move":
        return _cell(atom.args[1], atom.args[2])
    if atom.pred == "rotate":
        return f"facing {atom.args[1]}"
    if atom.pred == "shoot":
        return f"shooting {atom.args[1]}"
    return "holding position"


def _plan_instance(rec: StepRecord) -> AxiomInstance:
    plan_strs = ", ".join(str(a) for a in rec.plan_actions)
    template, slots = "clause_plan", {"plan": plan_strs, "action": str(rec.chosen)}
    if len(rec.plan_actions) > 1:
        template = "clause_plan_subgoal"
        slots["subgoal"] = _describe_target(rec.plan_actions[1])
    return _link(
        template,
        "minimum-length plan for the selected goal",
        rec.step,
        f"plan [{plan_strs}]",
        **slots,
    )


def _horizon_instance(trace: EpisodeTrace, rec: StepRecord) -> AxiomInstance:
    fallback = (
        "rotating toward the nearest attacker"
        if rec.fallback == "rotate"
        else "holding position"
    )
    return _link(
        "clause_horizon",
        "planning horizon exhausted without a plan",
        rec.step,
        "fallback action",
        horizon=str(trace.horizon),
        fallback=fallback,
    )


def _goal_satisfied_instance(rec: StepRecord) -> AxiomInstance:
    return _link(
        "clause_goal_satisfied",
        "the selected goal already holds",
        rec.step,
        "goal satisfied",
        tuple(rec.goal.literals),
        literals="; ".join(str(l) for l in rec.goal.literals),
    )


def _chain_literals(chain: Iterable[AxiomInstance]) -> tuple[Literal, ...]:
    out: list[Literal] = []
    seen = set()
    for inst in chain:
        for lit in inst.antecedents:
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
    return tuple(out)


# ---------------------------------------------------------------------------
# why <action>
# ---------------------------------------------------------------------------


def why_action_chain(
    trace: EpisodeTrace, step: int, action: Atom
) -> tuple[AxiomInstance, ...]:
    rec = trace.step(step)
    gdom = trace.gdom
    ah = gdom.ah_symbol
    action = _with_agent(action, ah)
    if action != rec.chosen:
        raise TraceQueryError(
            f"the action executed in step {step} was {rec.chosen}, not {action};"
            f" ask 'why not ...' about alternatives"
        )
    chain: list[AxiomInstance] = [_goal_instance(trace, rec)]
    goal = rec.goal
    if rec.fallback and not rec.plan_actions:
        chain.append(_horizon_instance(trace, rec))
    elif rec.chosen.pred == "noop" and not rec.plan_actions:
        if goal.literals:
            chain.append(_goal_satisfied_instance(rec))
    else:
        if goal.kind == "shoot_target" and rec.chosen.pred != "shoot":
            enable = Atom("shoot", (ah, goal.target))
            ok, blocker = check_executable(rec.belief, enable, gdom)
            if not ok and blocker is not None:
                chain.append(
                    _blocked_instance(trace, step, enable, blocker)
                )
        chain.append(_plan_instance(rec))
    return tuple(chain)


# ---------------------------------------------------------------------------
# why not <action>
# ---------------------------------------------------------------------------


def _counterfactual_child(trace: EpisodeTrace, step: int, action: Atom) -> Belief:
    """The belief reached by executing ``action`` (instead of the chosen
    action) against the recorded predictions for that step."""
    rec = trace.step(step)
    gdom = trace.gdom
    exo = build_schedule(rec.belief, gdom, rec.predictions, 1)
    atoms = (action,) + (exo[0] if exo else ())
    return progress(rec.belief, atoms, gdom, checked=frozenset((action,)))


def why_not_chain(
    trace: EpisodeTrace, step: int, action: Atom
) -> tuple[tuple[AxiomInstance, ...], bool]:
    """The chain and whether the action was executable at all."""
    rec = trace.step(step)
    gdom = trace.gdom
    ah = gdom.ah_symbol
    action = _with_agent(action, ah)
    if rec.chosen is not None and action == rec.chosen:
        raise DegenerateQueryError(
            f"{action} is exactly the action chosen in step {step};"
            f" ask 'why {action} in step {step}'"
        )
    if not well_formed_action(gdom, action):
        raise TraceQueryError(f"{action} is not a well-formed action in this game")
    ok, blocker = check_executable(rec.belief, action, gdom)
    if not ok:
        return (
            (_blocked_instance(trace, step, action, blocker),),
            False,
        )
    # legal but not chosen: one-step counterfactual against the recorded
    # predictions, then a goal-conflict check
    goal = rec.goal
    chain: list[AxiomInstance] = [_goal_instance(trace, rec)]
    child = _counterfactual_child(trace, step, action)
    if goal.kind == "shoot_target" and goal.target is not None:
        enable = Atom("shoot", (ah, goal.target))
        ok2, blocker2 = check_executable(child, enable, gdom)
        if not ok2 and blocker2 is not None:
            chain.append(
                _blocked_instance(
                    trace,
                    step,
                    enable,
                    blocker2,
                    template_prefix="clause_counterfactual",
                    counterfactual=action,
                )
            )
    remaining = len(rec.plan_actions)
    if goal_holds(child, goal):
        after = 0
    else:
        replan = search_plan(
            child,
            goal,
            gdom,
            horizon=trace.horizon,
            schedule=build_schedule(child, gdom, rec.predictions, trace.horizon),
        )
        after = len(replan.actions) if replan.success else None
    if after is None:
        chain.append(
            _link(
                "clause_counterfactual_unreachable",
                "no plan within the horizon after the counterfactual",
                step,
                "goal unreachable after the action",
                counterfactual=action,
                action=str(action),
                horizon=str(trace.horizon),
            )
        )
    elif (delay := (1 + after) - remaining) > 0:
        chain.append(
            _link(
                "clause_delay",
                "the counterfactual delays the goal",
                step,
                f"delays the goal by {delay} step(s)",
                counterfactual=action,
                action=str(action),
                delay=str(delay),
                later=str(1 + after),
                sooner=str(remaining),
            )
        )
    else:
        chain.append(
            _link(
                "clause_ordering",
                "equal-length alternatives resolve by canonical order",
                step,
                "chosen action preferred by canonical order",
                action=str(action),
                chosen=str(rec.chosen),
            )
        )
    return tuple(chain), True


def well_formed_action(gdom: GroundedDomain, action: Atom) -> bool:
    """Whether ``action`` is one of the controlled guard's ground actions:
    a declared action whose first argument is the guard and whose
    arguments are of their declared sorts, and which no executability
    condition over statics alone rules out (a shot at a teammate)."""
    decl = gdom.desc.actions.get(action.pred)
    return (
        decl is not None
        and action.args[:1] == (gdom.ah_symbol,)
        and len(action.args) == len(decl.arg_sorts)
        and all(gdom.in_sort(a, s) for a, s in zip(action.args, decl.arg_sorts))
        and not any(
            rule.on_action.first({}, action) is not None
            for rule in gdom.exec_by_action.get(action.pred, ())
            if all(lit.atom.pred in gdom.statics for lit in rule.body)
        )
    )


# ---------------------------------------------------------------------------
# why belief <literal>
# ---------------------------------------------------------------------------


def _definition_instance(
    trace: EpisodeTrace, step: int, atom: Atom
) -> Optional[AxiomInstance]:
    """Re-derive a defined atom from its defining constraint at ``step``."""
    found = derivation(atom, trace.belief_at(step).index, trace.gdom)
    if found is None:
        return None
    rule, binding = found
    antecedents = tuple(lit.substitute(binding) for lit in rule.body)
    return _rule_instance("clause_definition", rule, step, antecedents, str(atom))


def why_belief_chain(
    trace: EpisodeTrace, step: int, literal: Literal
) -> tuple[AxiomInstance, ...]:
    belief = trace.belief_at(step)
    gdom = trace.gdom
    if not belief.holds(literal):
        raise TraceQueryError(
            f"at step {step} the belief was {literal.negate()}, not {literal}"
        )
    atom = literal.atom
    if literal.positive and gdom.is_defined(atom.pred):
        inst = _definition_instance(trace, step, atom)
        if inst is not None:
            return (inst,)
        raise TraceQueryError(f"no defining axiom derives {atom}")
    # scan transitions backwards for the change that set the literal
    for rec in reversed([r for r in trace.steps if r.step < step]):
        for p in trace.provenance[rec.step]:
            # a retraction explains a negative literal, an addition a positive one
            if p.atom != atom or (p.how == "retracted") == literal.positive:
                continue
            if p.how == "retracted":
                inst = _rule_instance(
                    "clause_window",
                    p.rule,
                    rec.step + 1,
                    p.support,
                    str(literal),
                    prev_step=str(rec.step),
                )
            else:
                inst = _rule_instance(
                    "clause_causal",
                    p.rule,
                    rec.step,
                    p.support,
                    str(literal),
                    action=str(p.action),
                    prev_step=str(rec.step),
                )
            return _with_inertia(inst, rec.step + 1, step, literal)
    # unchanged since the initial state
    if literal.positive:
        inst = _link(
            "clause_observation", "initial observation", 1, str(atom), (literal,)
        )
        return _with_inertia(inst, 1, step, literal)
    inst = _link(
        "clause_observation_negative",
        "closed-world assumption over recorded facts",
        step,
        f"-{atom}",
        (literal,),
    )
    return (inst,)


def _with_inertia(
    inst: AxiomInstance, since: int, step: int, literal: Literal
) -> tuple[AxiomInstance, ...]:
    if since >= step:
        return (inst,)
    inertia = _link(
        "clause_inertia",
        "inertia: fluents persist unless changed",
        step,
        str(literal),
        (literal,),
        step=str(step),
    )
    return (inst, inertia)


# ---------------------------------------------------------------------------
# dispatch, re-checking, REPL, batch
# ---------------------------------------------------------------------------


def answer_query(trace: EpisodeTrace, query: Union[Query, str]) -> Answer:
    """Answer a query (or its text): build its chain, then render the
    chain into the query kind's top-level template."""
    if isinstance(query, str):
        query = parse_query(query)
    if query.kind == "why_belief":
        chain = why_belief_chain(trace, query.step, query.literal)
        kind, slots = "why_belief", {"literal": str(query.literal)}
    else:
        # a why chain holds only for the chosen action, which names the agent
        slots = {"action": str(_with_agent(query.action, trace.gdom.ah_symbol))}
        if query.kind == "why_action":
            kind, chain = "why_action", why_action_chain(trace, query.step, query.action)
        else:
            chain, legal = why_not_chain(trace, query.step, query.action)
            kind = "why_not_legal" if legal else "why_not_illegal"
            slots["chosen"] = str(trace.step(query.step).chosen)
    text = render_chain(kind, {"step": str(query.step), **slots}, chain)
    return Answer(query, chain, _chain_literals(chain), text)


def recheck_instance(trace: EpisodeTrace, inst: AxiomInstance) -> bool:
    """Verify every antecedent of a chain link against the snapshot it
    refers to (re-simulating one step for counterfactual links)."""
    gdom = trace.gdom
    if inst.counterfactual is not None:
        belief = _counterfactual_child(trace, inst.step, inst.counterfactual)
    else:
        belief = trace.belief_at(inst.step)
    for lit in inst.antecedents:
        pred = lit.atom.pred
        if pred in gdom.statics:
            if gdom.statics[pred].contains(lit.atom.args) != lit.positive:
                return False
        elif pred in gdom.sorts:
            value = lit.atom.args[0] if lit.atom.args else None
            if gdom.in_sort(value, pred) != lit.positive:
                return False
        elif not belief.holds(lit):
            return False
    return True


def verify_answer(trace: EpisodeTrace, answer: Answer) -> bool:
    """The soundness re-check: every cited axiom instance must have all
    its antecedents satisfied in the stored (or re-simulated) snapshot."""
    return all(recheck_instance(trace, inst) for inst in answer.chain)


def run_batch(trace: EpisodeTrace, lines: Iterable[str]) -> list[dict]:
    """Answer queries from an iterable of lines; errors become records
    with an "error" key instead of aborting the batch."""
    out: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            answer = answer_query(trace, line)
            out.append({"query": line, **answer.to_dict()})
        except (QueryParseError, TraceQueryError) as exc:
            out.append({"query": line, "error": str(exc)})
    return out


def repl(trace: EpisodeTrace, inp=None, out=None) -> None:
    """Interactive question loop over one episode trace."""
    inp = inp if inp is not None else sys.stdin
    out = out if out is not None else sys.stdout
    print(
        f"episode seed={trace.seed} policy={trace.policy} outcome={trace.outcome}"
        f" decision steps 1..{trace.last_step}",
        file=out,
    )
    print(f"grammar: {GRAMMAR}  (quit to exit)", file=out)
    while True:
        print("explain> ", end="", file=out, flush=True)
        line = inp.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line.lower() in {"quit", "exit", "q"}:
            break
        try:
            answer = answer_query(trace, line)
            print(answer.text, file=out)
        except (QueryParseError, TraceQueryError) as exc:
            print(f"error: {exc}", file=out)
