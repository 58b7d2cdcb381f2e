"""Parser and statement types for the declarative domain language.

The language mirrors action-language practice: a domain is a plain-text
file of period-terminated statements, ``%`` starts a comment.

Declarations::

    sort agent.                      % a named finite set (populated later)
    sort guard < agent.              % subsort of an existing sort
    static next_to(x_val, y_val, x_val, y_val).
    fluent inertial in(agent, x_val, y_val).
    fluent defined agent_in(agent, region).
    action move(agent, x_val, y_val).   % the first argument is the actor

Axioms::

    move(R, X, Y) causes in(R, X, Y).                  % causal law
    move(R, X, Y) causes wet(R) if raining.            % ... with conditions
    -in(R, X1, Y1) if in(R, X2, Y2), X1 != X2.         % state constraint
    agent_in(A, G) if in(A, X, Y), component(X, Y, G). % defined-fluent rule
    impossible move(R, X, Y) if in(A, X, Y).           % executability

Terms are integers, lowercase symbols, or capitalized variables.  ``-``
negates a literal; ``X != Y`` is shorthand for the built-in static
``neq(X, Y)``.  A sort name used as a unary predicate is a membership
test.  Sorts are declared here but populated at grounding time, so one
domain file serves every grid size.

Every axiom carries a stable id (``kind:index``) and its source text;
explanations cite these.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

Term = Union[int, str]


class DomainSyntaxError(ValueError):
    """Raised for unparsable or ill-formed domain statements."""


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return self.name


Arg = Union[Term, Variable]


class Atom(NamedTuple):
    """An immutable ``(pred, args)`` tuple, built and hashed at tuple speed
    for the hot sets and dicts: its hash is ``hash((pred, args))``, and it
    equals the bare ``(pred, args)`` tuple (so no set or dict should hold
    both) but never a :class:`Literal`."""

    pred: str
    args: tuple[Arg, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(map(str, self.args))})"

    def substitute(self, binding: dict) -> "Atom":
        return Atom(
            self.pred,
            tuple(binding.get(a, a) if isinstance(a, Variable) else a for a in self.args),
        )


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"-{self.atom!r}"

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def substitute(self, binding: dict) -> "Literal":
        return Literal(self.atom.substitute(binding), self.positive)


@dataclass(frozen=True)
class SortDecl:
    name: str
    parent: Optional[str] = None


@dataclass(frozen=True)
class PredDecl:
    name: str
    arg_sorts: tuple[str, ...]
    kind: str  # "static" | "inertial" | "defined" | "action"


@dataclass(frozen=True)
class CausalLaw:
    axiom_id: str
    action: Atom
    effect: Literal
    conditions: tuple[Literal, ...]
    text: str


@dataclass(frozen=True)
class StateConstraint:
    axiom_id: str
    head: Literal
    body: tuple[Literal, ...]
    text: str


@dataclass(frozen=True)
class Executability:
    axiom_id: str
    action: Atom
    conditions: tuple[Literal, ...]
    text: str


@dataclass
class DomainDescription:
    sorts: list[SortDecl] = field(default_factory=list)
    statics: dict[str, PredDecl] = field(default_factory=dict)
    fluents: dict[str, PredDecl] = field(default_factory=dict)
    actions: dict[str, PredDecl] = field(default_factory=dict)
    causal_laws: list[CausalLaw] = field(default_factory=list)
    constraints: list[StateConstraint] = field(default_factory=list)
    executabilities: list[Executability] = field(default_factory=list)

    def sort_names(self) -> set[str]:
        return {s.name for s in self.sorts}

    def fluent_kind(self, pred: str) -> Optional[str]:
        decl = self.fluents.get(pred)
        return decl.kind if decl else None


_NAME = r"[a-z][A-Za-z0-9_]*"
_ATOM_RE = re.compile(rf"^({_NAME})\s*(?:\((.*)\))?$", re.S)
_INT_RE = re.compile(r"-?\d+")
_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")
_CONSTANT_RE = re.compile(_NAME)
_NEQ_RE = re.compile(r"(\S+)\s*!=\s*(\S+)")
_EQ_RE = re.compile(r"(\S+)\s*==?\s*(\S+)")


def _split_args(text: str) -> list[str]:
    """Split a comma-separated argument list (no nesting in this language)."""
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise DomainSyntaxError(f"empty argument in {text!r}")
    return parts


def _parse_term(tok: str) -> Arg:
    if _INT_RE.fullmatch(tok):
        return int(tok)
    if _VARIABLE_RE.fullmatch(tok):
        return Variable(tok)
    if _CONSTANT_RE.fullmatch(tok):
        return tok
    raise DomainSyntaxError(f"bad term {tok!r}")


def parse_atom(text: str) -> Atom:
    text = text.strip()
    m = _ATOM_RE.match(text)
    if not m:
        raise DomainSyntaxError(f"bad atom {text!r}")
    name, argtext = m.group(1), m.group(2)
    if argtext is None:
        return Atom(name)
    return Atom(name, tuple(_parse_term(t) for t in _split_args(argtext)))


def parse_literal(text: str) -> Literal:
    text = text.strip()
    neq = _NEQ_RE.fullmatch(text)
    if neq:
        return Literal(Atom("neq", (_parse_term(neq.group(1)), _parse_term(neq.group(2)))))
    eq = _EQ_RE.fullmatch(text)
    if eq:
        return Literal(Atom("eq", (_parse_term(eq.group(1)), _parse_term(eq.group(2)))))
    if text.startswith("-"):
        return Literal(parse_atom(text[1:]), positive=False)
    if text.lower().startswith("not "):
        return Literal(parse_atom(text[4:]), positive=False)
    return Literal(parse_atom(text))


def _split_body(text: str) -> tuple[Literal, ...]:
    """Split a rule body on top-level commas (commas inside parens bind args)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return tuple(parse_literal(p) for p in parts if p.strip())


def _parse_signature(text: str, kind: str, stmt: str) -> PredDecl:
    atom = parse_atom(text)
    sorts = []
    for a in atom.args:
        if not isinstance(a, Variable) and not isinstance(a, str):
            raise DomainSyntaxError(f"signature argument must be a sort name in {stmt!r}")
        sorts.append(a.name if isinstance(a, Variable) else a)
    return PredDecl(atom.pred, tuple(sorts), kind)


def parse_domain(text: str) -> DomainDescription:
    """Parse the full domain language; raises DomainSyntaxError with the
    offending statement on any malformed input."""
    desc = DomainDescription()
    counters = {"causal": 0, "constraint": 0, "exec": 0}

    # strip comments, join lines, split on statement-terminating periods
    stripped = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    statements = [s.strip() for s in re.split(r"\.(?:\s+|$)", stripped) if s.strip()]

    for stmt in statements:
        flat = re.sub(r"\s+", " ", stmt)
        if flat.startswith("sort "):
            rest = flat[len("sort ") :].strip()
            if "<" in rest:
                name, parent = (p.strip() for p in rest.split("<", 1))
            else:
                name, parent = rest, None
            if not _CONSTANT_RE.fullmatch(name) or (parent and not _CONSTANT_RE.fullmatch(parent)):
                raise DomainSyntaxError(f"bad sort declaration {stmt!r}")
            if parent and parent not in desc.sort_names():
                raise DomainSyntaxError(f"unknown parent sort {parent!r} in {stmt!r}")
            desc.sorts.append(SortDecl(name, parent))
        elif flat.startswith("static "):
            decl = _parse_signature(flat[len("static ") :], "static", stmt)
            desc.statics[decl.name] = decl
        elif flat.startswith("fluent "):
            rest = flat[len("fluent ") :]
            for kind in ("inertial", "defined"):
                if rest.startswith(kind + " ") or rest == kind:
                    decl = _parse_signature(rest[len(kind) :].strip(), kind, stmt)
                    desc.fluents[decl.name] = decl
                    break
            else:
                raise DomainSyntaxError(
                    f"fluent must be declared inertial or defined: {stmt!r}"
                )
        elif flat.startswith("action "):
            decl = _parse_signature(flat[len("action ") :], "action", stmt)
            desc.actions[decl.name] = decl
        elif flat.startswith("impossible "):
            rest = flat[len("impossible ") :]
            if " if " not in rest:
                raise DomainSyntaxError(f"executability condition needs 'if': {stmt!r}")
            act_text, body_text = rest.split(" if ", 1)
            counters["exec"] += 1
            desc.executabilities.append(
                Executability(
                    f"exec:{counters['exec']}",
                    parse_atom(act_text),
                    _split_body(body_text),
                    flat,
                )
            )
        elif " causes " in flat:
            act_text, rest = flat.split(" causes ", 1)
            if " if " in rest:
                effect_text, body_text = rest.split(" if ", 1)
                conditions = _split_body(body_text)
            else:
                effect_text, conditions = rest, ()
            counters["causal"] += 1
            desc.causal_laws.append(
                CausalLaw(
                    f"causal:{counters['causal']}",
                    parse_atom(act_text),
                    parse_literal(effect_text),
                    conditions,
                    flat,
                )
            )
        elif " if " in flat:
            head_text, body_text = flat.split(" if ", 1)
            counters["constraint"] += 1
            desc.constraints.append(
                StateConstraint(
                    f"constraint:{counters['constraint']}",
                    parse_literal(head_text),
                    _split_body(body_text),
                    flat,
                )
            )
        else:
            raise DomainSyntaxError(f"unrecognized statement {stmt!r}")

    _validate(desc)
    return desc


def _validate(desc: DomainDescription) -> None:
    """Structural checks: declared symbols, defined-fluent head discipline."""
    sort_names = desc.sort_names()

    def check_atom(atom: Atom, where: str, allow_sort_membership: bool = True) -> None:
        if atom.pred in ("neq", "eq"):
            return
        if atom.pred in desc.statics or atom.pred in desc.fluents or atom.pred in desc.actions:
            return
        if allow_sort_membership and atom.pred in sort_names and len(atom.args) == 1:
            return
        raise DomainSyntaxError(f"undeclared symbol {atom.pred!r} in {where}")

    for law in desc.causal_laws:
        check_atom(law.action, law.text, allow_sort_membership=False)
        if law.action.pred not in desc.actions:
            raise DomainSyntaxError(f"causal law on non-action {law.action.pred!r}: {law.text}")
        check_atom(law.effect.atom, law.text, allow_sort_membership=False)
        if desc.fluent_kind(law.effect.atom.pred) != "inertial":
            raise DomainSyntaxError(
                f"causal-law head must be an inertial fluent: {law.text}"
            )
        for lit in law.conditions:
            check_atom(lit.atom, law.text)
    for con in desc.constraints:
        check_atom(con.head.atom, con.text, allow_sort_membership=False)
        kind = desc.fluent_kind(con.head.atom.pred)
        if kind is None:
            raise DomainSyntaxError(f"constraint head must be a fluent: {con.text}")
        if kind == "defined" and not con.head.positive:
            raise DomainSyntaxError(
                f"defined fluents are closed-world; no negative heads: {con.text}"
            )
        for lit in con.body:
            check_atom(lit.atom, con.text)
    for ex in desc.executabilities:
        if ex.action.pred not in desc.actions:
            raise DomainSyntaxError(f"executability on non-action: {ex.text}")
        for lit in ex.conditions:
            check_atom(lit.atom, ex.text)
