"""Belief states and their dynamics: progression through actions, defined
fluent closure, executability checks, and the literals observed of a
world state.

A belief is the set of ground atoms taken to be true (closed-world: every
atom not in the set is false).  Only *inertial* fluents persist; *defined*
fluents follow from the inertial ones through the definition rules, whose
bodies hold no defined fluent (``ground`` rejects a recursive definition),
so one pass over the definitions closes a belief.

Every state constraint on an inertial fluent (a *window*) is a uniqueness
constraint, ``-p(H) if p(B), c1, ..., cn`` ("an agent occupies one cell",
"an agent holds one facing"), and its instances come in mirror pairs:
where ``p(h)`` is retracted because ``p(b)`` holds, ``p(b)`` is retracted
because ``p(h)`` holds (``ground`` rejects any other shape).  Progression
resolves each tick in two layers:

1. direct effects of the tick's actions (conflicts raise),
2. inherited atoms carried by inertia.

The direct atoms are the only triggers the windows need: each retracts
the inherited atoms it conflicts with, and a conflict with another direct
atom raises.  Two inherited atoms cannot conflict, since they held
together in the input.  So the result satisfies every window (or the
step raises), whatever the domain.  Provenance cites the rule instance
behind each direct atom and each retraction; an inherited atom needs no
record, since it is whatever the result holds that the tick did not set.

Progression works from the tick's change: the windows are triggered by
the direct atoms alone, and defined fluents are updated only where an
inertial atom was added or removed (delete-and-rederive).  Both rest on
one precondition: **the
input belief is closed under the definitions and consistent with the
windows** (:func:`validate` passes).  On the shipped domain every belief
built by :func:`close_defined` over the positive literals of
:func:`observe_world` is, and :func:`progress` keeps it so.
``tests/reference_beliefs.py`` keeps the from-scratch versions as the
reference they are tested against.

A step reads what its input belief already holds instead of rebuilding
it: the input's predicate index (the inherited atoms, in the order the
reference meets them), its cached inertial atoms (the change the
definitions are updated from), and the grounding's compiled victim keys
(a window looks up only the atoms its trigger can retract).  The step's
working valuation serves as the index of the defined-fluent update.  A
belief also builds its pose table (:attr:`Belief.poses`) once, at first
use, for the goal rules and the planner's bounds.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class Provenance:
    """Why one atom came to hold (or stopped holding) in a progression
    step: the rule instance that set it.  ``how`` is "direct" for a causal
    law's effect and "retracted" for a causal law's negative effect or a
    window's retraction."""

    atom: Atom
    how: str  # "direct" | "retracted"
    rule: CompiledRule  # the causal law or state constraint that fired
    action: Optional[Atom] = None
    support: tuple[Literal, ...] = ()  # ground body literals of the firing rule


def _support(body: tuple[Literal, ...], binding: dict) -> tuple[Literal, ...]:
    return tuple(lit.substitute(binding) for lit in body)


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
    windows (see the module docstring); the result is too, or the step
    raises :class:`InconsistencyError`.  The working valuation holds, by
    predicate, the direct effects in the order they were set and then the
    inherited atoms in ``belief``'s index order, read from that index
    rather than rebuilt.  Each direct atom, in sorted order, triggers the
    windows on its predicate; a window looks its victims up by the head
    argument its trigger fixes (:attr:`~fortdefense.kr.ground.Join.narrow`),
    and scans the head's predicate where none is fixed.  The defined
    fluents are updated from the change in inertial atoms
    (:func:`close_defined` with ``belief`` as parent and the working
    valuation as index).

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

    # layer 1: the direct effects, in the order they are set; an atom of
    # the working valuation that is not among them is inherited
    direct: dict[Atom, None] = {}
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
                    direct[atom] = None
                    how = "direct"
                else:
                    if atom in direct:
                        raise InconsistencyError(
                            f"direct effects conflict on {atom}", rule.axiom_id
                        )
                    false_by.add(atom)
                    how = "retracted"
                if trace is not None:
                    support = _support(rule.body, join.binding(env))
                    trace.append(Provenance(atom, how, rule, action, support))

    # layer 2: the working valuation holds, by predicate, the direct
    # effects, then the input's inertial atoms in its index order (as the
    # reference adds them), less the direct retractions
    inertial_preds = gdom.inertial_preds
    working: dict[str, set[Atom]] = {}
    for atom in direct:
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

    # the windows: each direct atom retracts the inherited atoms it
    # conflicts with, and a conflict with another direct atom raises
    for trigger in sorted(direct, key=str) if len(direct) > 1 else direct:
        bucket = working[trigger.pred]
        for rule, pos in gdom.window_triggers.get(trigger.pred, ()):
            join = rule.on_body[pos]
            env = join.first(working, trigger)
            if env is None:
                continue
            victims = join.then
            for victim in victims.narrow(bucket, env):
                env2 = victims.first(working, victim, env)
                if env2 is None:
                    continue
                if victim in direct:
                    raise InconsistencyError(
                        f"constraint retracts direct atom {victim}", rule.axiom_id
                    )
                bucket.discard(victim)
                if trace is not None:
                    support = _support(rule.body + rule.residual, victims.binding(env2))
                    trace.append(Provenance(victim, "retracted", rule, None, support))

    inertial = frozenset(itertools.chain.from_iterable(working.values()))
    child = Belief(close_defined(inertial, gdom, belief, index=working))
    child._inertial = (inertial_preds, inertial)
    return child


def validate(belief: Belief, gdom: GroundedDomain) -> None:
    """Raise if any window instance is violated in the belief."""
    index = belief.index
    for rule in gdom.windows:
        join = rule.unbound
        for env in join.run(index, ()):
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
    plus a ``shot`` atom.  Every inertial fluent of the shipped domain is
    observed: each agent's ``in``, ``face`` and ``shot``.
    """
    config = gdom.config
    obs: list[Literal] = []
    for agent in state.agents:
        sym = agent_symbol(config, agent.id)
        obs.append(Literal(Atom("in", (sym, agent.x, agent.y)), True))
        obs.append(Literal(Atom("face", (sym, SYMBOL_OF_DIR[agent.direction])), True))
        obs.append(Literal(Atom("shot", (sym,)), not agent.alive))
    return obs
