"""Belief states and their dynamics: progression through actions, defined
fluent closure, executability checks, and completion of partial initial
observations via consistency-restoring defaults.

A belief is the set of ground atoms taken to be true (closed-world: every
atom not in the set is false).  Only *inertial* fluents persist; *defined*
fluents follow from the inertial ones through the definition rules, whose
bodies hold no defined fluent (``ground`` rejects a recursive definition),
so one pass over the definitions closes a belief.
Progression resolves each tick in layers:

1. direct effects of the tick's actions (conflicts raise),
2. constraint-derived consequences (conflicts with direct effects raise),
3. inherited atoms carried by inertia, which yield silently to any
   constraint that retracts them.

Its provenance cites the rule instance behind each atom of the first two
layers and each retraction; an inherited atom needs no record, since it
is whatever the result holds that the tick did not set.

Progression works from the tick's change, not from the whole belief
(semi-naive evaluation): state constraints are triggered by the direct
and derived atoms, and by inherited atoms only for the constraints where
an inherited atom can still make a difference; defined fluents are
updated only where an inertial atom was added or removed
(delete-and-rederive).  Both rest on one precondition: **the input belief
is closed under the definitions and consistent with the state
constraints** (:func:`validate` passes).  On the shipped domain every
belief built by :func:`progress`, by :func:`close_defined` over the
positive literals of :func:`observe_world`, by :func:`complete_initial`
and by the control loop's observation step is.
``tests/reference_beliefs.py`` keeps the from-scratch versions as the
reference they are tested against.

A step reads what its input belief already holds instead of rebuilding
it: the input's predicate index (the inherited atoms, in the order the
reference meets them), its cached inertial atoms (the change the
definitions are updated from), and the grounding's compiled victim keys
(a negative window looks up only the atoms its body binding can retract).
The step's working valuation serves as the index of the defined-fluent
update.  A belief also builds its pose table (:attr:`Belief.poses`) once,
at first use, for the goal rules and the planner's bounds.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from fortdefense.env import WorldState
from fortdefense.kr.ground import (
    CompiledRule,
    GroundedDomain,
    GroundingError,
    SYMBOL_OF_DIR,
    agent_symbol,
)
from fortdefense.kr.lang import Atom, Literal


class InconsistencyError(Exception):
    """A constraint or effect conflict that inertia cannot absorb."""

    def __init__(self, message: str, axiom_id: str = ""):
        super().__init__(message)
        self.axiom_id = axiom_id


class Belief:
    """An immutable set of true ground atoms with a predicate index and a
    pose table, each built once, at first use."""

    __slots__ = ("atoms", "_index", "_inertial", "_poses")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: frozenset[Atom] = frozenset(atoms)
        self._index: Optional[dict[str, tuple[Atom, ...]]] = None
        # (inertial predicate set, inertial atoms) of the last lookup
        self._inertial: Optional[tuple[frozenset[str], frozenset[Atom]]] = None
        self._poses: Optional[dict[str, tuple[int, int, str]]] = None

    @property
    def index(self) -> dict[str, tuple[Atom, ...]]:
        if self._index is None:
            idx: dict[str, list[Atom]] = {}
            for atom in self.atoms:
                idx.setdefault(atom.pred, []).append(atom)
            self._index = {p: tuple(v) for p, v in idx.items()}
        return self._index

    @property
    def poses(self) -> dict[str, tuple[int, int, str]]:
        """(x, y, facing) by agent symbol, for each agent with an ``in`` and
        a ``face`` atom; where an agent has several, the last in index
        order counts."""
        if self._poses is None:
            index = self.index
            cells = {a.args[0]: (a.args[1], a.args[2]) for a in index.get("in", ())}
            faces = {a.args[0]: a.args[1] for a in index.get("face", ())}
            self._poses = {
                sym: (x, y, faces[sym]) for sym, (x, y) in cells.items() if sym in faces
            }
        return self._poses

    def holds(self, literal: Literal) -> bool:
        return (literal.atom in self.atoms) == literal.positive

    def inertial_atoms(self, gdom: GroundedDomain) -> frozenset[Atom]:
        preds = gdom.inertial_preds
        cached = self._inertial
        if cached is None or cached[0] is not preds:
            cached = (preds, frozenset(a for a in self.atoms if a.pred in preds))
            self._inertial = cached
        return cached[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Belief) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Belief({len(self.atoms)} atoms)"


def _index_of(atoms: Iterable[Atom]) -> dict[str, set[Atom]]:
    """Atoms by predicate, the index a compiled join reads."""
    index: dict[str, set[Atom]] = {}
    for atom in atoms:
        bucket = index.get(atom.pred)
        if bucket is None:
            bucket = index[atom.pred] = set()
        bucket.add(atom)
    return index


def _derived_by(
    changed: Iterable[Atom], index: dict, negated_index: dict, gdom: GroundedDomain
) -> tuple[set[Atom], set[Atom]]:
    """Heads of the definition instances that use a ``changed`` atom: (those
    using it in a positive body literal that hold in ``index``, those using
    it in a negated one that hold in ``negated_index``)."""
    via_positive: set[Atom] = set()
    via_negated: set[Atom] = set()
    for atom in changed:
        for rule, pos in gdom.definition_triggers.get(atom.pred, ()):
            join = rule.on_body[pos]
            if rule.body[pos].positive:
                via_positive.update(map(join.head, join.solve(index, atom)))
            else:
                via_negated.update(map(join.head, join.solve(negated_index, atom)))
    return via_positive, via_negated


def derivation(
    atom: Atom, index: dict, gdom: GroundedDomain
) -> Optional[tuple[CompiledRule, dict]]:
    """The first definition instance that derives ``atom`` in ``index``,
    as (rule, binding): definitions in order, each body's solutions in
    index order.  None when no instance does."""
    for rule in gdom.definitions:
        if rule.head.atom.pred != atom.pred:
            continue
        env = rule.on_head.first(index, atom)
        if env is not None:
            return rule, rule.on_head.binding(env)
    return None


def _derivable(atom: Atom, index: dict, gdom: GroundedDomain) -> bool:
    return derivation(atom, index, gdom) is not None


def close_defined(
    inertial_atoms: Iterable[Atom],
    gdom: GroundedDomain,
    parent: Optional[Belief] = None,
    *,
    index: Optional[dict] = None,
) -> frozenset[Atom]:
    """Inertial atoms plus the defined atoms the definition rules derive
    from them.

    ``parent`` is a belief closed under the definitions; only the change
    from its inertial atoms (its cached :meth:`Belief.inertial_atoms`) is
    then processed.  Defined atoms that some definition instance derived
    through a removed inertial atom (or through the absence of an added
    one) are dropped unless another instance still derives them; those
    derived through an added atom (or the absence of a removed one) are
    added.  With no change the parent's atoms are returned as they are.
    With no parent the closure is computed from scratch, in one pass over
    the definitions: no definition body holds a defined fluent (``ground``
    rejects one), so no derived atom can feed another definition.

    ``index``, when given, is ``inertial_atoms`` by predicate, and is read
    instead of being built again (:func:`progress` passes its working
    valuation).
    """
    inertial = frozenset(inertial_atoms)
    if parent is None:
        working = index if index is not None else _index_of(inertial)
        out = set(inertial)
        for rule in gdom.definitions:
            join = rule.unbound
            out.update(join.head(env) for env in join.run(working, ()))
        return frozenset(out)

    before = parent.inertial_atoms(gdom)
    removed = before - inertial
    added = inertial - before
    if not removed and not added:
        return parent.atoms
    working = index if index is not None else _index_of(inertial)
    old_index = parent.index
    stale, fresh_by_removed = _derived_by(removed, old_index, working, gdom)
    fresh, stale_by_added = _derived_by(added, working, old_index, gdom)
    stale |= stale_by_added
    fresh |= fresh_by_removed
    dropped = [a for a in stale if a not in fresh and not _derivable(a, working, gdom)]
    return parent.atoms.difference(removed, dropped).union(added, fresh)


def check_executable(
    belief: Belief, action: Atom, gdom: GroundedDomain
) -> tuple[bool, Optional[tuple]]:
    """Whether the action is allowed; if not, the blocking rule instance
    is returned as (rule, binding)."""
    decl = gdom.desc.actions.get(action.pred)
    if decl is None:
        raise GroundingError(f"unknown action {action!r}")
    index = belief.index
    for rule in gdom.exec_by_action.get(action.pred, ()):
        join = rule.on_action
        env = join.first(index, action)
        if env is not None:
            return False, (rule, join.binding(env))
    return True, None


_DIRECT, _DERIVED = 0, 1
_TAG_NAME = {_DIRECT: "direct", _DERIVED: "derived"}


@dataclass(frozen=True)
class Provenance:
    """Why one atom came to hold (or stopped holding) in a progression
    step: the rule instance that set it."""

    atom: Atom
    how: str  # "direct" | "derived" | "retracted"
    rule: CompiledRule  # the causal law or state constraint that fired
    action: Optional[Atom] = None
    support: tuple[Literal, ...] = ()  # ground body literals of the firing rule


def _support(body: tuple[Literal, ...], binding: dict) -> tuple[Literal, ...]:
    return tuple(lit.substitute(binding) for lit in body)


def _rests_on_inherited(join, env: tuple, tag: dict, working: dict) -> bool:
    """Whether a body atom the join scanned under ``env`` is inherited: in
    the working valuation, but not set by the tick."""
    for scanned in join.scanned:
        atom = scanned(env)
        if atom not in tag and atom in working.get(atom.pred, ()):
            return True
    return False


def progress(
    belief: Belief,
    actions: Sequence[Atom],
    gdom: GroundedDomain,
    *,
    checked: frozenset[Atom] = frozenset(),
    trace: Optional[list] = None,
) -> Belief:
    """The belief after all of ``actions`` occur simultaneously.

    ``belief`` must be closed under the definitions and consistent with the
    state constraints (see the module docstring); the result is closed.
    The working valuation holds, by predicate, the direct effects in the
    order they were set and then the inherited atoms in ``belief``'s index
    order, read from that index rather than rebuilt.  The constraint
    closure is queued with the direct effects (sorted), then the inherited
    atoms that can still trigger a constraint (none, for a domain whose
    windows all have a negative head and positive fluent bodies, like the
    shipped one), then derived atoms as they arise.  A negative window
    looks its victims up by the head argument its body fixes
    (:attr:`~fortdefense.kr.ground.Join.narrow`), and scans the head's
    predicate where none is fixed.  The defined fluents are updated from the
    change in inertial atoms (:func:`close_defined` with ``belief`` as
    parent and the working valuation as index).

    An action that fails :func:`check_executable` does not occur and is
    dropped (a predicted exogenous action that the evolving plan search
    has made illegal).  Actions in ``checked`` skip the executability
    test.  When ``trace`` is a list, a Provenance entry is appended for
    every atom the step sets or retracts, so explanations can cite the
    axiom instances that fired; an atom of the result with no entry is
    inherited by inertia.
    """
    kept = [
        action
        for action in actions
        if action in checked or check_executable(belief, action, gdom)[0]
    ]

    # layer 1: direct effects; `tag` holds the atoms the tick sets, and an
    # atom of the working valuation that it lacks is inherited
    tag: dict[Atom, int] = {}
    false_by: set[Atom] = set()
    index = belief.index
    for action in kept:
        for rule in gdom.causal_by_action.get(action.pred, ()):
            join = rule.on_action
            for env in join.solve(index, action):
                atom = join.head(env)
                if rule.head.positive:
                    if atom in false_by:
                        raise InconsistencyError(
                            f"direct effects conflict on {atom}", rule.axiom_id
                        )
                    tag[atom] = _DIRECT
                    how = "direct"
                else:
                    if tag.get(atom) == _DIRECT:
                        raise InconsistencyError(
                            f"direct effects conflict on {atom}", rule.axiom_id
                        )
                    false_by.add(atom)
                    how = "retracted"
                if trace is not None:
                    support = _support(rule.body, join.binding(env))
                    trace.append(Provenance(atom, how, rule, action, support))

    # layer 3 candidates: the working valuation holds, by predicate, the
    # direct effects in the order they were set, then the input's inertial
    # atoms in its index order (as the reference adds them), less the
    # direct retractions
    inertial_preds = gdom.inertial_preds
    working: dict[str, set[Atom]] = {}
    for atom in tag:
        working.setdefault(atom.pred, set()).add(atom)
    for pred, atoms in index.items():
        if pred in inertial_preds:
            if false_by:
                atoms = [a for a in atoms if a not in false_by]
            bucket = working.get(pred)
            if bucket is None:
                working[pred] = set(atoms)
            else:
                bucket.update(atoms)

    # layer 2: constraint closure over the candidate valuation

    # direct/derived triggers are processed before inherited ones, so an
    # effect atom retracts the stale inherited pose rather than colliding
    # with it; a window instance whose body rests on an inherited atom
    # never overrides a direct or derived atom (inertia yields silently)
    live = gdom.inherited_window_triggers
    queue: deque[Atom] = deque(sorted(tag, key=str) if len(tag) > 1 else tag)
    if live:
        queue.extend(
            sorted(
                (
                    a
                    for pred in live
                    if pred in inertial_preds
                    for a in index.get(pred, ())
                    if a not in tag and a not in false_by
                ),
                key=str,
            )
        )
    while queue:
        trigger = queue.popleft()
        if trigger not in working[trigger.pred]:
            continue  # retracted since it was queued
        inherited = trigger not in tag
        for rule, pos in (live if inherited else gdom.window_triggers).get(trigger.pred, ()):
            join = rule.on_body[pos]
            # solutions are materialized because the loop mutates `working`
            for env in list(join.solve(working, trigger)):
                if rule.head.positive:
                    atom = join.head(env)
                    bucket = working.setdefault(atom.pred, set())
                    if atom not in bucket:
                        if atom in false_by:
                            raise InconsistencyError(
                                f"derived atom {atom} contradicts a direct retraction",
                                rule.axiom_id,
                            )
                        tag[atom] = _DERIVED
                        bucket.add(atom)
                        queue.append(atom)
                        if trace is not None:
                            support = _support(rule.body, join.binding(env))
                            trace.append(Provenance(atom, "derived", rule, None, support))
                    continue
                body_inherited = inherited or _rests_on_inherited(join, env, tag, working)
                # negative head: match the atoms currently true whose key
                # argument the binding fixes against the head, and check the
                # residual comparisons per match
                victims = join.then
                bucket = working.get(rule.head.atom.pred, ())
                for victim in victims.narrow(bucket, env):
                    if victim not in bucket:
                        continue  # retracted by an earlier match
                    env2 = victims.first(working, victim, env)
                    if env2 is None:
                        continue
                    set_by = tag.get(victim)
                    if set_by is not None:
                        if body_inherited:
                            continue  # inertia yields; symmetric instance wins
                        raise InconsistencyError(
                            f"constraint retracts {_TAG_NAME[set_by]} atom {victim}",
                            rule.axiom_id,
                        )
                    bucket.discard(victim)
                    if trace is not None:
                        support = _support(
                            rule.body + rule.residual, victims.binding(env2)
                        )
                        trace.append(Provenance(victim, "retracted", rule, None, support))

    inertial = frozenset(itertools.chain.from_iterable(working.values()))
    child = Belief(close_defined(inertial, gdom, belief, index=working))
    child._inertial = (inertial_preds, inertial)
    return child


def validate(belief: Belief, gdom: GroundedDomain) -> None:
    """Raise if any window constraint instance is violated in the belief."""
    index = belief.index
    for rule in gdom.windows:
        join = rule.unbound
        for env in join.run(index, ()):
            if rule.head.positive:
                head = join.head(env)
                if head not in belief.atoms:
                    raise InconsistencyError(
                        f"constraint requires missing atom {head}", rule.axiom_id
                    )
                continue
            for victim in index.get(rule.head.atom.pred, ()):
                if join.then.first(index, victim, env) is not None:
                    raise InconsistencyError(
                        f"constraint forbids atom {victim}", rule.axiom_id
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
        join = rule.unbound
        for env in join.run(pos.index, ()):
            inst = DefaultInstance(rule.axiom_id, rule.text, join.head(env))
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
