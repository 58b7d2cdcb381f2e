"""Execution traces and why / why-not / why-belief question answering.

An episode trace records, per tick, the tick-start belief, the selected
goal, the plan, the executed action, and the provenance of every belief
change.  Queries over a trace are answered by reconstructing the chain
of reasons behind a decision or a belief:

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
* **why belief <literal> at step i** — the recorded provenance of the
  belief: the causal law or state constraint that established (or
  withdrew) it, the initial observation or initial default that assumed
  it, with inertia bridging the steps in between.

Every chain link is an axiom instance whose ground antecedents can be
re-checked against the stored snapshots; the rendered text is produced
from templates (shipped as a data file) filled only with material from
the chain.  Traces serialize to JSON Lines with sorted keys and no
timestamps, so identical runs give byte-identical files.  A provenance
entry stores only its axiom's id; loading resolves it through the domain
grounded from the trace's configuration, so rule text has one source.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional, Sequence, Union

from fortdefense.env import GridConfig
from fortdefense.kr.beliefs import (
    Belief,
    Provenance,
    check_executable,
    derivation,
    progress,
)
from fortdefense.kr.goals import Goal, select_goal
from fortdefense.kr.ground import CompiledRule, GroundedDomain, ground
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
    load_domain,
)

TRACE_FORMAT_VERSION = 2
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

_TEMPLATES: Optional[dict[str, str]] = None


def load_templates() -> dict[str, str]:
    global _TEMPLATES
    if _TEMPLATES is None:
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
        _TEMPLATES = templates
    return _TEMPLATES


def render_chain(kind: str, top_slots: dict[str, str], chain: Sequence[AxiomInstance]) -> str:
    """Fill the top-level template for a query kind with the chain's
    clauses; identical chains render identically."""
    templates = load_templates()
    clauses = "; ".join(
        templates[inst.template].format(**dict(inst.slots)) for inst in chain
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

_GDOM_CACHE: dict[GridConfig, GroundedDomain] = {}


def _gdom_for(config: GridConfig) -> GroundedDomain:
    if config not in _GDOM_CACHE:
        _GDOM_CACHE[config] = ground(load_domain(), config)
    return _GDOM_CACHE[config]


@dataclass
class EpisodeTrace:
    """An immutable, queryable episode trace."""

    config: GridConfig
    seed: int
    policy: str
    horizon: int
    completion_applied: tuple[str, ...]
    completion_retracted: tuple[str, ...]
    steps: list[StepRecord]
    final_belief: Optional[Belief]
    outcome: str
    n_steps: int
    guards_win: bool
    gdom: GroundedDomain = field(repr=False, default=None)

    def __post_init__(self):
        if self.gdom is None:
            self.gdom = _gdom_for(self.config)

    @classmethod
    def from_record(cls, record: EpisodeRecord, config: GridConfig) -> "EpisodeTrace":
        return cls(
            config=config,
            seed=record.seed,
            policy=record.policy,
            horizon=record.horizon,
            completion_applied=record.completion_applied,
            completion_retracted=record.completion_retracted,
            steps=list(record.steps),
            final_belief=record.final_belief,
            outcome=record.outcome,
            n_steps=record.n_steps,
            guards_win=record.guards_win,
        )

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


_HOW_ORDER = {"direct": 0, "derived": 1, "retracted": 2}


def _provenance_dict(p: Provenance) -> dict:
    return {
        "atom": str(p.atom),
        "how": p.how,
        "axiom_id": p.rule.axiom_id,
        "action": "" if p.action is None else str(p.action),
        "support": [str(l) for l in p.support],
    }


def _provenance_from_dict(d: dict, atom, literal, rules: dict) -> Provenance:
    rule = rules.get(d["axiom_id"])
    if rule is None:
        raise ValueError(
            f"provenance of {d['atom']} cites {d['axiom_id']!r}, which is neither"
            f" a causal law nor a state constraint of the trace's domain"
        )
    return Provenance(
        atom=atom(d["atom"]),
        how=d["how"],
        rule=rule,
        action=atom(d["action"]) if d["action"] else None,
        support=tuple(literal(s) for s in d["support"]),
    )


def _config_dict(config: GridConfig) -> dict:
    """Every field of the configuration, the fort cells as a sorted list."""
    d = {f.name: getattr(config, f.name) for f in dataclasses.fields(GridConfig)}
    d["fort_cells"] = sorted([x, y] for (x, y) in config.fort_cells)
    return d


def _config_from_dict(d: dict) -> GridConfig:
    values = {f.name: d[f.name] for f in dataclasses.fields(GridConfig)}
    values["fort_cells"] = frozenset((x, y) for x, y in d["fort_cells"])
    return GridConfig(**values)


def _step_dict(rec: StepRecord) -> dict:
    prov = sorted(
        (_provenance_dict(p) for p in rec.provenance),
        key=lambda d: (
            _HOW_ORDER.get(d["how"], 9),
            d["atom"],
            d["axiom_id"],
            d["action"],
        ),
    )
    return {
        "type": "step",
        "step": rec.step,
        "belief": sorted(str(a) for a in rec.belief.atoms),
        "goal": {
            "kind": rec.goal.kind,
            "target": rec.goal.target,
            "literals": [str(l) for l in rec.goal.literals],
        },
        "predictions": {k: int(v) for k, v in rec.predictions.items()},
        "predicted_next": {k: list(v) for k, v in rec.predicted_next.items()},
        "fine_regions": list(rec.fine_regions),
        "replanned": rec.replanned,
        "plan_success": rec.plan_success,
        "plan_expanded": rec.plan_expanded,
        "plan": [str(a) for a in rec.plan_actions],
        "chosen": None if rec.chosen is None else str(rec.chosen),
        "fallback": rec.fallback,
        "executed": [str(a) for a in rec.executed],
        "provenance": prov,
        "reconciled": rec.reconciled,
    }


def _step_from_dict(d: dict, atom, literal, rules: dict) -> StepRecord:
    """A step record from its JSON form; ``atom`` and ``literal`` parse
    one atom or literal string, and ``rules`` maps an axiom id to the
    rule its provenance cites."""
    return StepRecord(
        step=d["step"],
        belief=Belief(atom(s) for s in d["belief"]),
        goal=Goal(
            d["goal"]["kind"],
            d["goal"]["target"],
            tuple(literal(s) for s in d["goal"]["literals"]),
        ),
        predictions={k: int(v) for k, v in d["predictions"].items()},
        predicted_next={
            k: (v[0], v[1]) for k, v in d["predicted_next"].items()
        },
        fine_regions=tuple(d["fine_regions"]),
        replanned=d["replanned"],
        plan_success=d["plan_success"],
        plan_expanded=d["plan_expanded"],
        plan_actions=tuple(atom(s) for s in d["plan"]),
        chosen=None if d["chosen"] is None else atom(d["chosen"]),
        fallback=d["fallback"],
        executed=tuple(atom(s) for s in d["executed"]),
        provenance=tuple(
            _provenance_from_dict(p, atom, literal, rules) for p in d["provenance"]
        ),
        reconciled=d["reconciled"],
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
            f.write(
                dump(
                    {
                        "type": "episode",
                        "version": TRACE_FORMAT_VERSION,
                        "seed": rec.seed,
                        "policy": rec.policy,
                        "horizon": rec.horizon,
                        "config": _config_dict(config),
                        "completion_applied": list(rec.completion_applied),
                        "completion_retracted": list(rec.completion_retracted),
                        "outcome": rec.outcome,
                        "n_steps": rec.n_steps,
                        "guards_win": rec.guards_win,
                    }
                )
            )
            for s in rec.steps:
                f.write(dump(_step_dict(s)))
            f.write(
                dump(
                    {
                        "type": "final",
                        "belief": []
                        if rec.final_belief is None
                        else sorted(str(a) for a in rec.final_belief.atoms),
                    }
                )
            )
    return len(records)


def _memo(parse):
    """``parse`` reading each distinct string once: a trace repeats the same
    belief atoms at every step."""
    parsed: dict = {}

    def lookup(text: str):
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse(text)
        return value

    return lookup


def load_traces(path) -> list[EpisodeTrace]:
    """Read a JSONL trace file back into queryable traces.  Each header's
    configuration is grounded once; its causal laws and state constraints
    resolve the axiom ids of the episode's provenance."""
    atom, literal = _memo(parse_atom), _memo(parse_literal)
    traces: list[EpisodeTrace] = []
    header: Optional[dict] = None
    steps: list[StepRecord] = []
    rules: dict = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if d["type"] == "episode":
                if d.get("version") != TRACE_FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported trace format version {d.get('version')}"
                    )
                header = d
                steps = []
                config = _config_from_dict(d["config"])
                gdom = _gdom_for(config)
                laws = itertools.chain(*gdom.causal_by_action.values(), gdom.windows)
                rules = {rule.axiom_id: rule for rule in laws}
            elif d["type"] == "step":
                steps.append(_step_from_dict(d, atom, literal, rules))
            elif d["type"] == "final":
                if header is None:
                    raise ValueError("trace file has a final line before a header")
                traces.append(
                    EpisodeTrace(
                        config=config,
                        seed=header["seed"],
                        policy=header["policy"],
                        horizon=header["horizon"],
                        completion_applied=tuple(header["completion_applied"]),
                        completion_retracted=tuple(header["completion_retracted"]),
                        steps=steps,
                        final_belief=Belief(atom(s) for s in d["belief"])
                        if d["belief"]
                        else None,
                        outcome=header["outcome"],
                        n_steps=header["n_steps"],
                        guards_win=header["guards_win"],
                        gdom=gdom,
                    )
                )
                header = None
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
    return AxiomInstance(
        template=template,
        axiom_id="",
        axiom_text=axiom_text,
        step=rec.step,
        antecedents=goal.support,
        consequence=consequence,
        slots=tuple(sorted(slots.items())),
    )


def _rule_instance(
    template: str,
    rule: CompiledRule,
    step: int,
    antecedents: tuple[Literal, ...],
    consequence: str,
    *,
    counterfactual: Optional[Atom] = None,
    **slots: str,
) -> AxiomInstance:
    """A chain link that cites ``rule``: the rule's id and text fill the
    ``axiom`` slot, and its ground antecedents the ``literals`` slot."""
    slots["axiom"] = f"{rule.axiom_id} {rule.text}"
    slots["literals"] = "; ".join(str(l) for l in antecedents) or "no conditions"
    return AxiomInstance(
        template=template,
        axiom_id=rule.axiom_id,
        axiom_text=rule.text,
        step=step,
        antecedents=antecedents,
        consequence=consequence,
        slots=tuple(sorted(slots.items())),
        counterfactual=counterfactual,
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
    if len(rec.plan_actions) > 1:
        template = "clause_plan_subgoal"
        slots = {
            "plan": plan_strs,
            "action": str(rec.chosen),
            "subgoal": _describe_target(rec.plan_actions[1]),
        }
    else:
        template = "clause_plan"
        slots = {"plan": plan_strs, "action": str(rec.chosen)}
    return AxiomInstance(
        template=template,
        axiom_id="",
        axiom_text="minimum-length plan for the selected goal",
        step=rec.step,
        antecedents=(),
        consequence=f"plan [{plan_strs}]",
        slots=tuple(sorted(slots.items())),
    )


def _horizon_instance(trace: EpisodeTrace, rec: StepRecord) -> AxiomInstance:
    fallback = (
        "rotating toward the nearest attacker"
        if rec.fallback == "rotate"
        else "holding position"
    )
    slots = {"horizon": str(trace.horizon), "fallback": fallback}
    return AxiomInstance(
        template="clause_horizon",
        axiom_id="",
        axiom_text="planning horizon exhausted without a plan",
        step=rec.step,
        antecedents=(),
        consequence="fallback action",
        slots=tuple(sorted(slots.items())),
    )


def _goal_satisfied_instance(rec: StepRecord) -> AxiomInstance:
    lits = "; ".join(str(l) for l in rec.goal.literals)
    return AxiomInstance(
        template="clause_goal_satisfied",
        axiom_id="",
        axiom_text="the selected goal already holds",
        step=rec.step,
        antecedents=tuple(rec.goal.literals),
        consequence="goal satisfied",
        slots=(("literals", lits),),
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


def answer_why(trace: EpisodeTrace, action: Atom, step: int) -> Answer:
    chain = why_action_chain(trace, step, action)
    rec = trace.step(step)
    query = Query("why_action", action, None, step)
    text = render_chain(
        "why_action", {"step": str(step), "action": str(rec.chosen)}, chain
    )
    return Answer(query, chain, _chain_literals(chain), text)


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
            AxiomInstance(
                template="clause_counterfactual_unreachable",
                axiom_id="",
                axiom_text="no plan within the horizon after the counterfactual",
                step=step,
                antecedents=(),
                consequence="goal unreachable after the action",
                slots=(
                    ("action", str(action)),
                    ("horizon", str(trace.horizon)),
                ),
                counterfactual=action,
            )
        )
    else:
        delay = (1 + after) - remaining
        if delay > 0:
            chain.append(
                AxiomInstance(
                    template="clause_delay",
                    axiom_id="",
                    axiom_text="the counterfactual delays the goal",
                    step=step,
                    antecedents=(),
                    consequence=f"delays the goal by {delay} step(s)",
                    slots=(
                        ("action", str(action)),
                        ("delay", str(delay)),
                        ("later", str(1 + after)),
                        ("sooner", str(remaining)),
                    ),
                    counterfactual=action,
                )
            )
        else:
            chain.append(
                AxiomInstance(
                    template="clause_ordering",
                    axiom_id="",
                    axiom_text="equal-length alternatives resolve by canonical order",
                    step=step,
                    antecedents=(),
                    consequence="chosen action preferred by canonical order",
                    slots=(
                        ("action", str(action)),
                        ("chosen", str(rec.chosen)),
                    ),
                )
            )
    return tuple(chain), True


def well_formed_action(gdom: GroundedDomain, action: Atom) -> bool:
    """Whether ``action`` is one of the controlled guard's ground actions:
    a declared, non-exogenous action whose arguments are of its declared
    sorts."""
    decl = gdom.desc.actions.get(action.pred)
    return (
        decl is not None
        and not decl.exogenous
        and len(action.args) == len(decl.arg_sorts)
        and all(gdom.in_sort(a, s) for a, s in zip(action.args, decl.arg_sorts))
    )


def answer_why_not(trace: EpisodeTrace, action: Atom, step: int) -> Answer:
    chain, was_legal = why_not_chain(trace, step, action)
    rec = trace.step(step)
    full = _with_agent(action, trace.gdom.ah_symbol)
    query = Query("why_not_action", action, None, step)
    if was_legal:
        text = render_chain(
            "why_not_legal",
            {
                "step": str(step),
                "action": str(full),
                "chosen": str(rec.chosen),
            },
            chain,
        )
    else:
        text = render_chain(
            "why_not_illegal", {"step": str(step), "action": str(full)}, chain
        )
    return Answer(query, chain, _chain_literals(chain), text)


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


def _default_instance(trace: EpisodeTrace, atom: Atom) -> Optional[AxiomInstance]:
    if str(atom) not in trace.completion_applied:
        return None
    gdom = trace.gdom
    for rule in gdom.defaults:
        env = rule.on_head.match(atom)
        if env is None:
            continue
        antecedents = tuple(lit.substitute(rule.on_head.binding(env)) for lit in rule.body)
        return _rule_instance(
            "clause_default", rule, 1, antecedents, str(atom), axiom_text=rule.text
        )
    return None


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
        for p in rec.provenance:
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
            elif p.how == "direct":
                inst = _rule_instance(
                    "clause_causal",
                    p.rule,
                    rec.step,
                    p.support,
                    str(literal),
                    action=str(p.action),
                    prev_step=str(rec.step),
                )
            else:
                inst = _rule_instance(
                    "clause_definition", p.rule, rec.step + 1, p.support, str(literal)
                )
            return _with_inertia(inst, rec.step + 1, step, literal)
    # unchanged since the initial state
    if literal.positive:
        inst = _default_instance(trace, atom)
        if inst is not None:
            return _with_inertia(inst, 1, step, literal)
        inst = AxiomInstance(
            template="clause_observation",
            axiom_id="",
            axiom_text="initial observation",
            step=1,
            antecedents=(literal,),
            consequence=str(atom),
            slots=(),
        )
        return _with_inertia(inst, 1, step, literal)
    inst = AxiomInstance(
        template="clause_observation_negative",
        axiom_id="",
        axiom_text="closed-world assumption over recorded facts",
        step=step,
        antecedents=(literal,),
        consequence=f"-{atom}",
        slots=(),
    )
    return (inst,)


def _with_inertia(
    inst: AxiomInstance, since: int, step: int, literal: Literal
) -> tuple[AxiomInstance, ...]:
    if since >= step:
        return (inst,)
    inertia = AxiomInstance(
        template="clause_inertia",
        axiom_id="",
        axiom_text="inertia: fluents persist unless changed",
        step=step,
        antecedents=(literal,),
        consequence=str(literal),
        slots=(("step", str(step)),),
    )
    return (inst, inertia)


def answer_why_belief(trace: EpisodeTrace, literal: Literal, step: int) -> Answer:
    chain = why_belief_chain(trace, step, literal)
    query = Query("why_belief", None, literal, step)
    text = render_chain(
        "why_belief", {"step": str(step), "literal": str(literal)}, chain
    )
    return Answer(query, chain, _chain_literals(chain), text)


# ---------------------------------------------------------------------------
# dispatch, re-checking, REPL, batch
# ---------------------------------------------------------------------------


def answer_query(trace: EpisodeTrace, query: Union[Query, str]) -> Answer:
    if isinstance(query, str):
        query = parse_query(query)
    if query.kind == "why_action":
        return answer_why(trace, query.action, query.step)
    if query.kind == "why_not_action":
        return answer_why_not(trace, query.action, query.step)
    return answer_why_belief(trace, query.literal, query.step)


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
