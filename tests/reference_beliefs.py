"""The slow reference for belief progression: ``progress`` and
``close_defined`` as they were before progression became delta-driven,
and the interpreted rule engine (``match_atom``, ``solve``) as it was
before rule bodies were compiled.

The reference queues every inherited atom as a constraint trigger and
recomputes every defined fluent from scratch, and it solves each body
literal by literal with a ``{Variable: value}`` dict.  Tests compare the
package's delta-driven versions and compiled joins against it; nothing in
the package imports it.  The only edits to the original text are
``gdom.is_inertial(p)`` spelled as ``p in gdom.inertial_preds``, a
blocked action always dropped, as ``progress`` drops it, and provenance
made as ``progress`` makes it: each entry cites its rule, and inherited
atoms get none.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from fortdefense.kr.beliefs import (
    Belief,
    InconsistencyError,
    Provenance,
    check_executable,
)
from fortdefense.kr.ground import GroundedDomain, GroundingError
from fortdefense.kr.lang import Atom, Literal, Variable


def match_atom(pattern: Atom, ground_atom: Atom, binding: dict) -> Optional[dict]:
    """Extend ``binding`` so pattern == ground_atom, or None."""
    if pattern.pred != ground_atom.pred or len(pattern.args) != len(ground_atom.args):
        return None
    out = binding
    copied = False
    for p, g in zip(pattern.args, ground_atom.args):
        if isinstance(p, Variable):
            bound = out.get(p)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[p] = g
            elif bound != g:
                return None
        elif p != g:
            return None
    return out


def _substituted_args(atom: Atom, binding: dict) -> tuple:
    return tuple(
        binding.get(a) if isinstance(a, Variable) else a for a in atom.args
    )


def solve(
    gdom: GroundedDomain,
    index: "dict[str, Iterable[Atom]]",
    body: tuple[Literal, ...],
    binding: dict,
) -> Iterator[dict]:
    """All extensions of ``binding`` under which the body holds.

    ``index`` maps fluent predicate names to the ground atoms currently
    true (any iterable collection); negated fluents are closed-world.
    Callers that mutate the index must materialize the results first.
    """
    if not body:
        yield binding
        return
    lit, rest = body[0], body[1:]
    pred = lit.atom.pred

    if pred in gdom.fluent_decls:
        if lit.positive:
            for atom in index.get(pred, ()):
                b2 = match_atom(lit.atom, atom, binding)
                if b2 is not None:
                    yield from solve(gdom, index, rest, b2)
        else:
            args = _substituted_args(lit.atom, binding)
            if any(a is None for a in args):
                raise GroundingError(
                    f"negated fluent {lit!r} evaluated with unbound arguments"
                )
            if Atom(pred, args) not in index.get(pred, ()):
                yield from solve(gdom, index, rest, binding)
        return

    if pred in gdom.sorts and len(lit.atom.args) == 1:
        arg = lit.atom.args[0]
        if isinstance(arg, Variable) and arg not in binding:
            if not lit.positive:
                raise GroundingError(f"negated sort atom {lit!r} with unbound argument")
            for v in gdom.sorts.get(pred, ()):
                b2 = dict(binding)
                b2[arg] = v
                yield from solve(gdom, index, rest, b2)
            return
        value = binding.get(arg) if isinstance(arg, Variable) else arg
        if gdom.in_sort(value, pred) == lit.positive:
            yield from solve(gdom, index, rest, binding)
        return

    static = gdom.statics.get(pred)
    if static is None:
        raise GroundingError(f"no relation for symbol {pred!r} in {lit!r}")
    args = _substituted_args(lit.atom, binding)
    if lit.positive and any(a is None for a in args):
        pattern = tuple(args)
        for row in static.expand(pattern):
            b2 = dict(binding)
            ok = True
            for slot, (a, v) in zip(lit.atom.args, zip(pattern, row)):
                if a is None and isinstance(slot, Variable):
                    if b2.get(slot, v) != v:
                        ok = False
                        break
                    b2[slot] = v
            if ok:
                yield from solve(gdom, index, rest, b2)
        return
    if any(a is None for a in args):
        raise GroundingError(f"negated static {lit!r} with unbound arguments")
    if static.contains(args) == lit.positive:
        yield from solve(gdom, index, rest, binding)


_DIRECT, _DERIVED, _INHERITED = 0, 1, 2
_TAG_NAME = {0: "direct", 1: "derived", 2: "inherited"}


def reference_close_defined(inertial_atoms: Iterable[Atom], gdom: GroundedDomain) -> frozenset[Atom]:
    """Inertial atoms plus the least fixpoint of the definition rules,
    iterated until no rule derives a new atom."""
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
    return frozenset(out)


def reference_progress(
    belief: Belief,
    actions: Sequence[Atom],
    gdom: GroundedDomain,
    *,
    checked: frozenset[Atom] = frozenset(),
    trace: Optional[list] = None,
) -> Belief:
    """The belief after all of ``actions`` occur simultaneously.

    An action that fails :func:`check_executable` does not occur and is
    dropped (a predicted exogenous action that the evolving plan search
    has made illegal).  Actions in ``checked`` skip the executability
    test.  When ``trace`` is a list, a Provenance entry is appended for
    every atom the step sets or retracts, so explanations can cite the
    axiom instances that fired.
    """
    kept: list[Atom] = []
    for action in actions:
        if action in checked or check_executable(belief, action, gdom)[0]:
            kept.append(action)

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
                        )
                    tag[atom] = _DIRECT
                    if trace is not None:
                        trace.append(
                            Provenance(
                                atom,
                                "direct",
                                rule,
                                action,
                                tuple(l.substitute(b2) for l in rule.body),
                            )
                        )
                else:
                    if tag.get(atom) == _DIRECT:
                        raise InconsistencyError(
                            f"direct effects conflict on {atom}",
                            rule.axiom_id,
                        )
                    false_by[atom] = (rule, b2)
                    if trace is not None:
                        trace.append(
                            Provenance(
                                atom,
                                "retracted",
                                rule,
                                action,
                                tuple(l.substitute(b2) for l in rule.body),
                            )
                        )

    # layer 3 candidates: inertia
    for atom in belief.atoms:
        if atom.pred in gdom.inertial_preds and atom not in tag and atom not in false_by:
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
                                    rule,
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
                        )
                    del tag[victim]
                    working[victim.pred].discard(victim)
                    if trace is not None:
                        trace.append(
                            Provenance(
                                victim,
                                "retracted",
                                rule,
                                None,
                                tuple(
                                    l.substitute(b3)
                                    for l in rule.body + rule.residual
                                ),
                            )
                        )

    inertial_result = [a for a in tag if a.pred in gdom.inertial_preds]
    return Belief(reference_close_defined(inertial_result, gdom))
