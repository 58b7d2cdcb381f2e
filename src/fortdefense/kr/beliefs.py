"""Belief states and their dynamics: progression through actions, defined
fluent closure, executability checks, and completion of partial initial
observations via consistency-restoring defaults.

A belief is the set of ground atoms taken to be true (closed-world: every
atom not in the set is false).  Only *inertial* fluents persist; *defined*
fluents are recomputed from scratch after every change.  Progression
resolves each tick in layers:

1. direct effects of the tick's actions (conflicts raise),
2. constraint-derived consequences (conflicts with direct effects raise),
3. inherited atoms carried by inertia, which yield silently to any
   constraint that retracts them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from fortdefense.env import WorldState
from fortdefense.kr.ground import (
    GroundedDomain,
    GroundingError,
    SYMBOL_OF_DIR,
    agent_symbol,
    match_atom,
    solve,
)
from fortdefense.kr.lang import Atom, Literal


class InconsistencyError(Exception):
    """A constraint or effect conflict that inertia cannot absorb."""

    def __init__(self, message: str, axiom_id: str = "", axiom_text: str = ""):
        super().__init__(message)
        self.axiom_id = axiom_id
        self.axiom_text = axiom_text


class NotExecutableError(Exception):
    """An action was progressed in a state forbidding it."""

    def __init__(self, action: Atom, axiom_id: str = "", axiom_text: str = ""):
        super().__init__(f"action {action} is not executable")
        self.action = action
        self.axiom_id = axiom_id
        self.axiom_text = axiom_text


class Belief:
    """An immutable set of true ground atoms with a predicate index."""

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: frozenset[Atom] = frozenset(atoms)
        self._index: Optional[dict[str, tuple[Atom, ...]]] = None

    @property
    def index(self) -> dict[str, tuple[Atom, ...]]:
        if self._index is None:
            idx: dict[str, list[Atom]] = {}
            for atom in self.atoms:
                idx.setdefault(atom.pred, []).append(atom)
            self._index = {p: tuple(v) for p, v in idx.items()}
        return self._index

    def holds(self, literal: Literal) -> bool:
        return (literal.atom in self.atoms) == literal.positive

    def inertial_atoms(self, gdom: GroundedDomain) -> frozenset[Atom]:
        preds = gdom.inertial_preds
        return frozenset(a for a in self.atoms if a.pred in preds)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __eq__(self, other) -> bool:
        return isinstance(other, Belief) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Belief({len(self.atoms)} atoms)"


def close_defined(inertial_atoms: Iterable[Atom], gdom: GroundedDomain) -> frozenset[Atom]:
    """Inertial atoms plus the least fixpoint of the definition rules.

    Non-recursive definition sets (no defined fluent in any definition
    body) close in a single pass.
    """
    working: dict[str, set[Atom]] = {}
    out: list[Atom] = []
    for atom in inertial_atoms:
        bucket = working.get(atom.pred)
        if bucket is None:
            bucket = working[atom.pred] = set()
        if atom not in bucket:
            bucket.add(atom)
            out.append(atom)
    changed = True
    while changed:
        changed = False
        for rule in gdom.definitions:
            derived = [
                rule.head.atom.substitute(binding)
                for binding in solve(gdom, working, rule.body, {})
            ]
            for atom in derived:
                bucket = working.setdefault(atom.pred, set())
                if atom not in bucket:
                    bucket.add(atom)
                    out.append(atom)
                    changed = True
        if not gdom.recursive_definitions:
            break
    return frozenset(out)


def check_executable(
    belief: Belief, action: Atom, gdom: GroundedDomain
) -> tuple[bool, Optional[tuple]]:
    """Whether the action is allowed; if not, the blocking rule instance
    is returned as (rule, binding)."""
    decl = gdom.desc.actions.get(action.pred)
    if decl is None:
        raise GroundingError(f"unknown action {action!r}")
    for rule in gdom.exec_by_action.get(action.pred, ()):
        binding = match_atom(rule.action, action, {})
        if binding is None:
            continue
        for b2 in solve(gdom, belief.index, rule.body, binding):
            return False, (rule, b2)
    return True, None


_DIRECT, _DERIVED, _INHERITED = 0, 1, 2
_TAG_NAME = {0: "direct", 1: "derived", 2: "inherited"}


@dataclass(frozen=True)
class Provenance:
    """Why one atom holds (or stopped holding) after a progression step."""

    atom: Atom
    how: str  # "direct" | "derived" | "inherited" | "retracted"
    axiom_id: str = ""
    axiom_text: str = ""
    action: Optional[Atom] = None
    support: tuple[Literal, ...] = ()  # ground body literals of the firing rule


def progress(
    belief: Belief,
    actions: Sequence[Atom],
    gdom: GroundedDomain,
    *,
    on_blocked: str = "raise",
    checked: frozenset[Atom] = frozenset(),
    trace: Optional[list] = None,
) -> Belief:
    """The belief after all of ``actions`` occur simultaneously.

    ``on_blocked`` controls non-executable actions: "raise" aborts, "drop"
    silently discards them (used for predicted exogenous actions that the
    evolving plan search has made illegal).  Actions in ``checked`` skip
    the executability test.  When ``trace`` is a list, a Provenance entry
    is appended for every atom of the result (and every retraction), so
    explanations can cite the axiom instances that fired.
    """
    kept: list[Atom] = []
    for action in actions:
        if action in checked:
            kept.append(action)
            continue
        ok, blocker = check_executable(belief, action, gdom)
        if ok:
            kept.append(action)
        elif on_blocked == "drop":
            continue
        else:
            rule, _ = blocker
            raise NotExecutableError(action, rule.axiom_id, rule.text)

    # layer 1: direct effects
    tag: dict[Atom, int] = {}
    false_by: dict[Atom, tuple] = {}
    for action in kept:
        for rule in gdom.causal_by_action.get(action.pred, ()):
            binding = match_atom(rule.action, action, {})
            if binding is None:
                continue
            for b2 in solve(gdom, belief.index, rule.body, binding):
                atom = rule.head.atom.substitute(b2)
                if rule.head.positive:
                    if atom in false_by:
                        raise InconsistencyError(
                            f"direct effects conflict on {atom}",
                            rule.axiom_id,
                            rule.text,
                        )
                    tag[atom] = _DIRECT
                    if trace is not None:
                        trace.append(
                            Provenance(
                                atom,
                                "direct",
                                rule.axiom_id,
                                rule.text,
                                action,
                                tuple(l.substitute(b2) for l in rule.body),
                            )
                        )
                else:
                    if tag.get(atom) == _DIRECT:
                        raise InconsistencyError(
                            f"direct effects conflict on {atom}",
                            rule.axiom_id,
                            rule.text,
                        )
                    false_by[atom] = (rule, b2)
                    if trace is not None:
                        trace.append(
                            Provenance(
                                atom,
                                "retracted",
                                rule.axiom_id,
                                rule.text,
                                action,
                                tuple(l.substitute(b2) for l in rule.body),
                            )
                        )

    # layer 3 candidates: inertia
    for atom in belief.atoms:
        if gdom.is_inertial(atom.pred) and atom not in tag and atom not in false_by:
            tag[atom] = _INHERITED

    # layer 2: constraint closure over the candidate valuation
    working: dict[str, set[Atom]] = {}
    for atom in tag:
        working.setdefault(atom.pred, set()).add(atom)

    # direct/derived triggers are processed before inherited ones, so an
    # effect atom retracts the stale inherited pose rather than colliding
    # with it; a window instance whose body rests on an inherited atom
    # never overrides a direct or derived atom (inertia yields silently)
    queue: list[Atom] = sorted(tag, key=lambda a: (tag[a], str(a)))
    while queue:
        trigger = queue.pop(0)
        if trigger not in tag:
            continue  # retracted since it was queued
        for rule, pos in gdom.window_triggers.get(trigger.pred, ()):
            binding = match_atom(rule.body[pos].atom, trigger, {})
            if binding is None:
                continue
            rest = rule.body[:pos] + rule.body[pos + 1 :]
            # solutions are materialized because the loop mutates `working`
            for b2 in list(solve(gdom, working, rest, binding)):
                body_inherited = tag.get(trigger) == _INHERITED or any(
                    tag.get(lit.atom.substitute(b2)) == _INHERITED
                    for lit in rest
                    if lit.positive and lit.atom.pred in gdom.fluent_decls
                )
                if rule.head.positive:
                    atom = rule.head.atom.substitute(b2)
                    if atom in false_by and atom not in tag:
                        raise InconsistencyError(
                            f"derived atom {atom} contradicts a direct retraction",
                            rule.axiom_id,
                            rule.text,
                        )
                    if atom not in tag:
                        tag[atom] = _DERIVED
                        working.setdefault(atom.pred, set()).add(atom)
                        queue.append(atom)
                        if trace is not None:
                            trace.append(
                                Provenance(
                                    atom,
                                    "derived",
                                    rule.axiom_id,
                                    rule.text,
                                    None,
                                    tuple(l.substitute(b2) for l in rule.body),
                                )
                            )
                    continue
                # negative head: bind remaining head variables against the
                # atoms currently true; check residual comparisons per match
                head_pat = rule.head.atom.substitute(b2)
                for victim in list(working.get(head_pat.pred, ())):
                    b3 = match_atom(head_pat, victim, b2)
                    if b3 is None or victim not in tag:
                        continue
                    if rule.residual and not any(
                        True for _ in solve(gdom, working, rule.residual, b3)
                    ):
                        continue
                    if tag[victim] in (_DIRECT, _DERIVED):
                        if body_inherited:
                            continue  # inertia yields; symmetric instance wins
                        raise InconsistencyError(
                            f"constraint retracts {_TAG_NAME[tag[victim]]} "
                            f"atom {victim}",
                            rule.axiom_id,
                            rule.text,
                        )
                    del tag[victim]
                    working[victim.pred].discard(victim)
                    if trace is not None:
                        trace.append(
                            Provenance(
                                victim,
                                "retracted",
                                rule.axiom_id,
                                rule.text,
                                None,
                                tuple(
                                    l.substitute(b3)
                                    for l in rule.body + rule.residual
                                ),
                            )
                        )

    inertial_result = [a for a in tag if gdom.is_inertial(a.pred)]
    if trace is not None:
        for atom, t in tag.items():
            if t == _INHERITED:
                trace.append(Provenance(atom, "inherited"))
    return Belief(close_defined(inertial_result, gdom))


def validate(belief: Belief, gdom: GroundedDomain) -> None:
    """Raise if any window constraint instance is violated in the belief."""
    for rule in gdom.windows:
        for binding in solve(gdom, belief.index, rule.body, {}):
            head = rule.head.atom.substitute(binding)
            if rule.head.positive:
                if head.is_ground and head not in belief.atoms:
                    raise InconsistencyError(
                        f"constraint requires missing atom {head}",
                        rule.axiom_id,
                        rule.text,
                    )
                continue
            for victim in belief.index.get(head.pred, ()):
                b2 = match_atom(head, victim, binding)
                if b2 is None:
                    continue
                if rule.residual and not any(
                    True for _ in solve(gdom, belief.index, rule.residual, b2)
                ):
                    continue
                raise InconsistencyError(
                    f"constraint forbids atom {victim}",
                    rule.axiom_id,
                    rule.text,
                )


# ---------------------------------------------------------------------------
# observation bridge
# ---------------------------------------------------------------------------


def observe_world(state: WorldState, gdom: GroundedDomain) -> list[Literal]:
    """Ground literals observed from the world at the current tick.

    Dead agents contribute their frozen pose (corpses still block cells)
    plus a ``shot`` atom; ``spread_attack`` is never observable and is the
    target of initial-default completion.
    """
    config = gdom.config
    obs: list[Literal] = []
    for agent in state.agents:
        sym = agent_symbol(config, agent.id)
        obs.append(Literal(Atom("in", (sym, agent.x, agent.y)), True))
        obs.append(Literal(Atom("face", (sym, SYMBOL_OF_DIR[agent.direction])), True))
        obs.append(Literal(Atom("shot", (sym,)), not agent.alive))
    return obs


def belief_from_world(
    state: WorldState, gdom: GroundedDomain, extra_atoms: Iterable[Atom] = ()
) -> Belief:
    atoms = [
        lit.atom for lit in observe_world(state, gdom) if lit.positive
    ]
    atoms.extend(extra_atoms)
    return Belief(close_defined(atoms, gdom))


# ---------------------------------------------------------------------------
# initial-state completion via consistency-restoring defaults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefaultInstance:
    """A ground instance of an initial default."""

    axiom_id: str
    text: str
    conclusion: Atom

    def __repr__(self) -> str:
        return f"{self.axiom_id}[{self.conclusion}]"


@dataclass(frozen=True)
class CompletionResult:
    belief: Belief
    applied: tuple[DefaultInstance, ...]
    retracted: tuple[DefaultInstance, ...]


class HardInconsistencyError(InconsistencyError):
    """Observations conflict even with every default retracted."""


def ground_defaults(
    observations: Sequence[Literal], gdom: GroundedDomain
) -> list[DefaultInstance]:
    """All ground default instances whose bodies hold in the observations."""
    pos = Belief(lit.atom for lit in observations if lit.positive)
    out: list[DefaultInstance] = []
    for rule in gdom.defaults:
        if not rule.cr_allowed:
            continue
        for binding in solve(gdom, pos.index, rule.body, {}):
            atom = rule.head.atom.substitute(binding)
            if not atom.is_ground:
                raise GroundingError(
                    f"axiom {rule.axiom_id}: default conclusion {atom!r} not ground"
                )
            inst = DefaultInstance(rule.axiom_id, rule.text, atom)
            if inst not in out:
                out.append(inst)
    out.sort(key=lambda i: (i.axiom_id, str(i.conclusion)))
    return out


def _consistent_completion(
    observations: Sequence[Literal],
    kept: Sequence[DefaultInstance],
    gdom: GroundedDomain,
) -> Optional[Belief]:
    """The completed belief, or None if constraints or observations fail."""
    atoms = {lit.atom for lit in observations if lit.positive}
    negatives = {lit.atom for lit in observations if not lit.positive}
    for inst in kept:
        if inst.conclusion in negatives:
            return None
        atoms.add(inst.conclusion)
    if atoms & negatives:
        return None
    belief = Belief(close_defined(atoms, gdom))
    for neg in negatives:
        if neg in belief.atoms:
            return None
    try:
        validate(belief, gdom)
    except InconsistencyError:
        return None
    return belief


def complete_initial(
    observations: Sequence[Literal], gdom: GroundedDomain
) -> CompletionResult:
    """Complete partial initial observations with initial defaults.

    Every ground default whose body holds is applied unless doing so is
    inconsistent; consistency is restored by retracting a minimal set of
    default instances (smallest cardinality, ties by lexicographically
    least combination in the sorted instance order).
    """
    instances = ground_defaults(observations, gdom)
    n = len(instances)
    for k in range(n + 1):
        for drop in itertools.combinations(range(n), k):
            dropped = set(drop)
            kept = [inst for i, inst in enumerate(instances) if i not in dropped]
            belief = _consistent_completion(observations, kept, gdom)
            if belief is not None:
                return CompletionResult(
                    belief=belief,
                    applied=tuple(kept),
                    retracted=tuple(instances[i] for i in drop),
                )
    raise HardInconsistencyError(
        "observations are inconsistent under every default retraction"
    )
