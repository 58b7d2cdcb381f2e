"""Grounding: populate sorts from a grid configuration, build static
relations, fix the active cells of the fine-grained regions, and compile
axioms for the rule engine.

Grounding is *restricted by granularity*: the planner and the predicted
exogenous schedule move agents only onto the active cells of fine-grained
regions; coarse regions contribute region atoms alone.  Belief atoms
themselves are never truncated.  :func:`ground` makes every region fine;
a restriction (:func:`restrict`) is a view of that grounding that differs
only in its fine regions.

The rule engine works on compiled rules whose bodies are re-ordered for
evaluation: positive fluent literals first (they bind variables against
the belief index), then enumerable statics and sort-membership atoms,
then computed or negated literals, which must be fully bound by that
point.  Violations are grounding errors that name the axiom.

Grounding then compiles each body into a :class:`Join` for every way the
reasoner enters it: by the action (causal laws, executability), by an
atom of one body literal (window and definition triggers), by the head
(re-deriving a defined atom, a negative window's victim with its
residual), and unbound (closure from scratch, validation, defaults).  A
join binds variables to integer *slots* of a tuple, and each argument of
each literal is worked out once, at grounding: bind a new slot, compare
with a bound slot, or compare with a constant.  Enumeration order is part
of the contract (provenance and blockers depend on it): literals in body
order, each predicate's atoms in the order of the index the join is given
(a bound first argument is one more comparison, not a sub-index), static
rows in sorted order, sort members in declared order.  A ``{Variable: value}`` dict is built only where a
binding is rendered (:meth:`Join.binding`).  A negative window looks its
victims up by a key compiled here too (:attr:`Join.narrow`): of the head
predicate's atoms, only those whose argument at the first position its
body binding fixes has that value, still in index order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from fortdefense.env import Direction, GridConfig, in_cone
from fortdefense.kr.lang import (
    Arg,
    Atom,
    DomainDescription,
    Literal,
    Term,
    Variable,
)

#: Regions are square blocks of this many cells per side (the last row and
#: column of regions may be smaller on grids not divisible by the block).
REGION_BLOCK = 4

DIR_SYMBOLS = ("n", "e", "s", "w")
DIR_OF_SYMBOL = {
    "n": Direction.N,
    "e": Direction.E,
    "s": Direction.S,
    "w": Direction.W,
}
SYMBOL_OF_DIR = {v: k for k, v in DIR_OF_SYMBOL.items()}
#: Facing symbol after a clockwise / counterclockwise quarter turn.
CW = {SYMBOL_OF_DIR[d]: SYMBOL_OF_DIR[d.clockwise()] for d in Direction}
CCW = {v: k for k, v in CW.items()}


class GroundingError(ValueError):
    """Raised when an axiom cannot be grounded; names the axiom."""


# ---------------------------------------------------------------------------
# agent and region naming
# ---------------------------------------------------------------------------


def guard_symbols(config: GridConfig) -> tuple[str, ...]:
    return tuple(f"guard{i}" for i in range(config.n_guards))


def attacker_symbols(config: GridConfig) -> tuple[str, ...]:
    return tuple(f"attacker{j + 1}" for j in range(config.n_attackers))


def agent_symbol(config: GridConfig, agent_id: int) -> str:
    if agent_id < config.n_guards:
        return f"guard{agent_id}"
    return f"attacker{agent_id - config.n_guards + 1}"


def symbol_agent_id(config: GridConfig, symbol: str) -> int:
    if symbol.startswith("guard"):
        return int(symbol[len("guard") :])
    if symbol.startswith("attacker"):
        return config.n_guards + int(symbol[len("attacker") :]) - 1
    raise KeyError(f"unknown agent symbol {symbol!r}")


def region_grid(config: GridConfig) -> tuple[int, int]:
    nx = -(-config.width // REGION_BLOCK)
    ny = -(-config.height // REGION_BLOCK)
    return nx, ny


def region_symbol_of(config: GridConfig, x: int, y: int) -> str:
    nx, _ = region_grid(config)
    return f"r{(x // REGION_BLOCK) + (y // REGION_BLOCK) * nx}"


def region_index(symbol: str) -> int:
    return int(symbol[1:])


def all_region_symbols(config: GridConfig) -> tuple[str, ...]:
    nx, ny = region_grid(config)
    return tuple(f"r{k}" for k in range(nx * ny))


def region_cells(config: GridConfig, symbol: str) -> tuple[tuple[int, int], ...]:
    nx, _ = region_grid(config)
    k = region_index(symbol)
    bx, by = k % nx, k // nx
    return tuple(
        (x, y)
        for y in range(by * REGION_BLOCK, min((by + 1) * REGION_BLOCK, config.height))
        for x in range(bx * REGION_BLOCK, min((bx + 1) * REGION_BLOCK, config.width))
    )


def fort_region_symbols(config: GridConfig) -> frozenset[str]:
    return frozenset(region_symbol_of(config, x, y) for x, y in config.fort_cells)


def region_adjacency(config: GridConfig) -> frozenset[tuple[str, str]]:
    """Edge-sharing region pairs, symmetric by construction."""
    nx, ny = region_grid(config)
    pairs = set()
    for by in range(ny):
        for bx in range(nx):
            k = bx + by * nx
            for dx, dy in ((1, 0), (0, 1)):
                ox, oy = bx + dx, by + dy
                if ox < nx and oy < ny:
                    k2 = ox + oy * nx
                    pairs.add((f"r{k}", f"r{k2}"))
                    pairs.add((f"r{k2}", f"r{k}"))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# static relations
# ---------------------------------------------------------------------------


class Static:
    """A static relation: an enumerated tuple table or a computed test.

    ``expand`` enumerates extensions of a partial argument pattern (``None``
    marks free positions); computed statics can only be tested fully bound.
    """

    def __init__(
        self,
        name: str,
        arity: int,
        table: Optional[Iterable[tuple]] = None,
        func: Optional[Callable[..., bool]] = None,
    ):
        self.name = name
        self.arity = arity
        self.table = frozenset(table) if table is not None else None
        self.func = func
        self._rows: dict[tuple[int, ...], dict] = {}

    def contains(self, args: tuple) -> bool:
        if self.table is not None:
            return tuple(args) in self.table
        return bool(self.func(*args))

    def expand(self, pattern: tuple) -> Iterator[tuple]:
        free = tuple(i for i, v in enumerate(pattern) if v is None)
        if not free:
            if self.contains(pattern):
                yield tuple(pattern)
            return
        if self.table is None:
            raise GroundingError(
                f"computed static {self.name!r} cannot enumerate free arguments"
            )
        bound = tuple(i for i in range(self.arity) if i not in free)
        yield from self.rows(bound).get(tuple(pattern[i] for i in bound), ())

    def rows(self, bound: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        """The table's rows in sorted order, keyed by their values at the
        ``bound`` positions."""
        index = self._rows.get(bound)
        if index is None:
            index = {}
            for row in sorted(self.table):
                index.setdefault(tuple(row[i] for i in bound), []).append(row)
            self._rows[bound] = index
        return index


def build_statics(config: GridConfig) -> dict[str, Static]:
    """The fort-defense static relations, derived from the configuration."""
    next_to = [
        (x, y, x + dx, y + dy)
        for x in range(config.width)
        for y in range(config.height)
        for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0))
        if config.in_bounds(x + dx, y + dy)
    ]
    opposite = [("n", "s"), ("s", "n"), ("e", "w"), ("w", "e")]
    component = [
        (x, y, region_symbol_of(config, x, y))
        for x in range(config.width)
        for y in range(config.height)
    ]

    sides = (guard_symbols(config), attacker_symbols(config))
    same_side = [(a, b) for side in sides for a in side for b in side]

    def in_sight(x1, y1, d, x2, y2) -> bool:
        return in_cone(config, DIR_OF_SYMBOL[d], x1, y1, x2, y2)

    return {
        "next_to": Static("next_to", 4, table=next_to),
        "opposite_dir": Static("opposite_dir", 2, table=opposite),
        "component": Static("component", 3, table=component),
        "in_sight": Static("in_sight", 5, func=in_sight),
        "same_side": Static("same_side", 2, table=same_side),
    }


_BUILTIN_STATICS = {
    "neq": Static("neq", 2, func=lambda a, b: a != b),
    "eq": Static("eq", 2, func=lambda a, b: a == b),
}


# ---------------------------------------------------------------------------
# sort population
# ---------------------------------------------------------------------------


def populate_sorts(
    desc: DomainDescription, config: GridConfig, horizon: int = 8
) -> dict[str, tuple[Term, ...]]:
    guards = guard_symbols(config)
    attackers = attacker_symbols(config)
    known: dict[str, tuple[Term, ...]] = {
        "agent": guards + attackers,
        "guard": guards,
        "attacker": attackers,
        "ah_agent": guards[:1],
        "dir": DIR_SYMBOLS,
        "x_val": tuple(range(config.width)),
        "y_val": tuple(range(config.height)),
        "region": all_region_symbols(config),
        "step": tuple(range(horizon + 1)),
    }
    return {s.name: known.get(s.name, ()) for s in desc.sorts}


# ---------------------------------------------------------------------------
# rule compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledRule:
    """One axiom with an evaluation-ordered body.

    ``head`` is the effect (causal law), the constrained literal (state
    constraint), the conclusion (default), or None (executability).
    ``action`` is the triggering action pattern where applicable.

    For constraints with a negative head, ``body`` holds only the literals
    evaluable before the head is bound; ``residual`` holds the rest
    (typically comparisons over head variables), checked per candidate
    atom matched against the head pattern.

    The body is compiled once for each way it is entered (see
    :class:`Join`): ``on_action`` by the action (causal laws and
    executability conditions); ``on_body[i]`` by an atom of body literal
    ``i``, the rest of the body following in order (window and definition
    triggers; None where no trigger enters); ``on_head`` by the head
    (re-deriving a defined atom, matching a default's conclusion); and
    ``unbound`` from nothing (closure from scratch, validation, defaults).
    A negative window's body joins end in the victim continuation.
    """

    axiom_id: str
    text: str
    kind: str  # "causal" | "window" | "definition" | "exec" | "default"
    action: Optional[Atom]
    head: Optional[Literal]
    body: tuple[Literal, ...]
    residual: tuple[Literal, ...] = ()
    on_action: Optional[Join] = field(default=None, compare=False, repr=False)
    on_body: tuple[Optional[Join], ...] = field(default=(), compare=False, repr=False)
    on_head: Optional[Join] = field(default=None, compare=False, repr=False)
    unbound: Optional[Join] = field(default=None, compare=False, repr=False)


def _literal_stage(lit: Literal, gdom: "GroundedDomain") -> int:
    pred = lit.atom.pred
    if lit.positive and pred in gdom.fluent_decls:
        return 0
    if lit.positive and pred in gdom.sorts:
        return 1
    static = gdom.statics.get(pred)
    if lit.positive and static is not None and static.table is not None:
        return 1
    return 2


def _order_body(body: tuple[Literal, ...], gdom: "GroundedDomain") -> tuple[Literal, ...]:
    return tuple(sorted(body, key=lambda lit: _literal_stage(lit, gdom)))


def _split_residual(
    body: tuple[Literal, ...], head: Literal, gdom: "GroundedDomain"
) -> tuple[tuple[Literal, ...], tuple[Literal, ...]]:
    """Split an ordered body into the prefix solvable before binding the
    head and the residual that needs head variables."""
    head_vars = {v.name for v in _vars_of(head.atom)}
    bound: set[str] = set()
    pre: list[Literal] = []
    residual: list[Literal] = []
    for lit in body:
        names = {v.name for v in _vars_of(lit.atom)}
        if _literal_stage(lit, gdom) < 2 or names <= bound:
            pre.append(lit)
            bound |= names
        else:
            residual.append(lit)
    for lit in residual:
        names = {v.name for v in _vars_of(lit.atom)}
        if not names <= bound | head_vars:
            return tuple(pre), None  # caller reports the failure
    return tuple(pre), tuple(residual)


def _vars_of(atom: Atom) -> set[Variable]:
    return {a for a in atom.args if isinstance(a, Variable)}


def _infer_var_sorts(
    gdom: "GroundedDomain", axiom_id: str, text: str, atoms: list[Atom]
) -> dict[str, str]:
    """Assign each variable its most specific declared sort, or fail."""
    candidates: dict[str, set[str]] = {}
    for atom in atoms:
        sig = gdom.signature(atom.pred)
        if sig is None:
            if atom.pred in gdom.sorts and len(atom.args) == 1:
                sig = (atom.pred,)
            else:
                continue  # neq/eq contribute no sort information
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Variable):
                candidates.setdefault(arg.name, set()).add(sig[pos])
    resolved = {}
    for var, sorts in candidates.items():
        best = None
        for s in sorts:
            if best is None or gdom.is_subsort(s, best):
                best = s
            elif not gdom.is_subsort(best, s):
                raise GroundingError(
                    f"axiom {axiom_id} ({text}): variable {var} has "
                    f"incompatible sorts {sorted(sorts)}"
                )
        resolved[var] = best
    all_vars = set()
    for atom in atoms:
        all_vars |= {v.name for v in _vars_of(atom)}
    missing = all_vars - set(resolved)
    if missing:
        raise GroundingError(
            f"axiom {axiom_id} ({text}): unsorted symbol(s) {sorted(missing)}"
        )
    return resolved


# ---------------------------------------------------------------------------
# grounded domain
# ---------------------------------------------------------------------------


@dataclass
class GroundedDomain:
    desc: DomainDescription
    config: Optional[GridConfig]
    sorts: dict[str, tuple[Term, ...]]
    statics: dict[str, Static]
    active_cells: frozenset[tuple[int, int]]
    fine_regions: frozenset[str]
    fluent_decls: dict = field(default_factory=dict)
    causal_by_action: dict[str, list[CompiledRule]] = field(default_factory=dict)
    exec_by_action: dict[str, list[CompiledRule]] = field(default_factory=dict)
    windows: list[CompiledRule] = field(default_factory=list)
    definitions: list[CompiledRule] = field(default_factory=list)
    defaults: list[CompiledRule] = field(default_factory=list)
    #: (window, body position) for each positive fluent body literal, by
    #: predicate: the constraints a direct or derived atom triggers
    window_triggers: dict[str, list[tuple[CompiledRule, int]]] = field(default_factory=dict)
    #: the subset an inherited atom still triggers (see ``ground``)
    inherited_window_triggers: dict[str, list[tuple[CompiledRule, int]]] = field(
        default_factory=dict
    )
    #: (definition, body position) for each fluent body literal, by predicate
    definition_triggers: dict[str, list[tuple[CompiledRule, int]]] = field(
        default_factory=dict
    )
    inertial_preds: frozenset[str] = frozenset()
    _sort_sets: dict[str, frozenset] = field(default_factory=dict)

    # -- sort helpers -------------------------------------------------------

    def is_subsort(self, a: str, b: str) -> bool:
        """Whether sort a is b or a descendant of b."""
        parents = {s.name: s.parent for s in self.desc.sorts}
        cur: Optional[str] = a
        while cur is not None:
            if cur == b:
                return True
            cur = parents.get(cur)
        return False

    def in_sort(self, value: Term, sort: str) -> bool:
        cached = self._sort_sets.get(sort)
        if cached is None:
            cached = frozenset(self.sorts.get(sort, ()))
            self._sort_sets[sort] = cached
        return value in cached

    def signature(self, pred: str) -> Optional[tuple[str, ...]]:
        decl = (
            self.desc.fluents.get(pred)
            or self.desc.statics.get(pred)
            or self.desc.actions.get(pred)
        )
        return decl.arg_sorts if decl else None

    def is_defined(self, pred: str) -> bool:
        decl = self.desc.fluents.get(pred)
        return decl is not None and decl.kind == "defined"

    @property
    def ah_symbol(self) -> Optional[str]:
        vals = self.sorts.get("ah_agent", ())
        return vals[0] if vals else None


def _active_cells(
    config: GridConfig, fine: frozenset[str]
) -> frozenset[tuple[int, int]]:
    return frozenset(cell for r in fine for cell in region_cells(config, r))


def ground(
    desc: DomainDescription,
    config: Optional[GridConfig] = None,
    *,
    sorts: Optional[dict[str, tuple[Term, ...]]] = None,
    statics: Optional[dict[str, Static]] = None,
    horizon: int = 8,
) -> GroundedDomain:
    """Ground a domain description against a grid configuration, every
    region at cell granularity; :func:`restrict` gives a view at a coarser
    granularity.

    Synthetic domains (tests, default-conflict fixtures) may instead pass
    explicit ``sorts``/``statics``.  ``horizon`` only populates the
    ``step`` sort.  A definition whose body holds a defined fluent is
    rejected: the defined fluents are closed in one pass over the
    definitions (:func:`~fortdefense.kr.beliefs.close_defined`).
    """
    if sorts is None:
        sorts = populate_sorts(desc, config, horizon)
    resolved_statics = dict(_BUILTIN_STATICS)
    if config is not None:
        resolved_statics.update(build_statics(config))
    if statics is not None:
        resolved_statics.update(statics)

    if config is not None:
        fine = frozenset(all_region_symbols(config))
        active = _active_cells(config, fine)
    else:
        fine = frozenset()
        active = frozenset()

    gdom = GroundedDomain(
        desc=desc,
        config=config,
        sorts=sorts,
        statics=resolved_statics,
        active_cells=active,
        fine_regions=fine,
        fluent_decls=dict(desc.fluents),
    )

    # undeclared statics referenced by axioms fail during _validate in lang;
    # here we verify every declared static has a relation
    for name in desc.statics:
        if name not in resolved_statics:
            raise GroundingError(f"no relation provided for declared static {name!r}")

    # --- compile axioms ----------------------------------------------------
    for law in desc.causal_laws:
        atoms = [law.action, law.effect.atom] + [l.atom for l in law.conditions]
        _infer_var_sorts(gdom, law.axiom_id, law.text, atoms)
        body = _order_body(law.conditions, gdom)
        _check_bindable(gdom, law.axiom_id, law.text, law.action, body, law.effect)
        rule = _compiled(
            gdom, CompiledRule(law.axiom_id, law.text, "causal", law.action, law.effect, body)
        )
        gdom.causal_by_action.setdefault(law.action.pred, []).append(rule)
    for con in desc.constraints:
        atoms = [con.head.atom] + [l.atom for l in con.body]
        _infer_var_sorts(gdom, con.axiom_id, con.text, atoms)
        body = _order_body(con.body, gdom)
        if gdom.is_defined(con.head.atom.pred):
            for lit in body:
                if gdom.is_defined(lit.atom.pred):
                    raise GroundingError(
                        f"axiom {con.axiom_id} ({con.text}): defined fluent "
                        f"{lit!r} in a definition body (recursive definitions "
                        f"are not supported)"
                    )
            _check_bindable(gdom, con.axiom_id, con.text, None, body, con.head)
            rule = _compiled(
                gdom, CompiledRule(con.axiom_id, con.text, "definition", None, con.head, body)
            )
            gdom.definitions.append(rule)
        else:
            # negative inertial heads bind remaining variables against the
            # current belief; positive inertial heads must bind from the body
            if con.head.positive:
                _check_bindable(gdom, con.axiom_id, con.text, None, body, con.head)
                rule = CompiledRule(con.axiom_id, con.text, "window", None, con.head, body)
            else:
                pre, residual = _split_residual(body, con.head, gdom)
                if residual is None:
                    raise GroundingError(
                        f"axiom {con.axiom_id} ({con.text}): body variables "
                        f"unreachable from fluents, statics, or the head"
                    )
                rule = CompiledRule(
                    con.axiom_id, con.text, "window", None, con.head, pre, residual
                )
            rule = _compiled(gdom, rule)
            gdom.windows.append(rule)
            for i, lit in enumerate(rule.body):
                if lit.positive and lit.atom.pred in gdom.fluent_decls:
                    gdom.window_triggers.setdefault(lit.atom.pred, []).append((rule, i))
    for ex in desc.executabilities:
        atoms = [ex.action] + [l.atom for l in ex.conditions]
        _infer_var_sorts(gdom, ex.axiom_id, ex.text, atoms)
        body = _order_body(ex.conditions, gdom)
        _check_bindable(gdom, ex.axiom_id, ex.text, ex.action, body, None)
        rule = _compiled(
            gdom, CompiledRule(ex.axiom_id, ex.text, "exec", ex.action, None, body)
        )
        gdom.exec_by_action.setdefault(ex.action.pred, []).append(rule)
    for d in desc.defaults:
        atoms = [d.conclusion.atom] + [l.atom for l in d.body]
        _infer_var_sorts(gdom, d.axiom_id, d.text, atoms)
        body = _order_body(d.body, gdom)
        _check_bindable(gdom, d.axiom_id, d.text, None, body, d.conclusion)
        rule = CompiledRule(d.axiom_id, d.text, "default", None, d.conclusion, body)
        gdom.defaults.append(_compiled(gdom, rule))

    gdom.inertial_preds = frozenset(
        p for p, d in desc.fluents.items() if d.kind == "inertial"
    )
    for rule in gdom.definitions:
        for i, lit in enumerate(rule.body):
            if lit.atom.pred in gdom.fluent_decls:
                gdom.definition_triggers.setdefault(lit.atom.pred, []).append((rule, i))
    # On a consistent input, an instance of a negative-head window whose
    # fluent literals are all positive and none derivable by a positive-head
    # window changes nothing when an inherited atom triggers it: its body
    # either rests on inherited atoms alone, which held together with any
    # inherited victim in the input, or contains a direct atom, whose
    # trigger ran first and found the same instance.  A negated literal can
    # open an instance without any trigger, and a derived body atom is
    # queued after the inherited ones, so inherited atoms still trigger
    # those windows and positive-head ones.
    derivable = {r.head.atom.pred for r in gdom.windows if r.head.positive}
    for pred, entries in gdom.window_triggers.items():
        live = [
            (rule, pos)
            for rule, pos in entries
            if rule.head.positive
            or any(
                lit.atom.pred in gdom.fluent_decls
                and (not lit.positive or lit.atom.pred in derivable)
                for lit in rule.body + rule.residual
            )
        ]
        if live:
            gdom.inherited_window_triggers[pred] = live
    return gdom


def _compiled(gdom: GroundedDomain, rule: CompiledRule) -> CompiledRule:
    """``rule`` with its body compiled for each way it is entered."""
    head = rule.head.atom if rule.head is not None else None
    if rule.kind in ("causal", "exec"):
        return dataclasses.replace(
            rule, on_action=compile_join(gdom, rule.body, rule.action, head=head)
        )
    if rule.kind == "window" and not rule.head.positive:
        out = {"then": (head, rule.residual)}
    else:
        out = {"head": head}
    on_body: tuple[Optional[Join], ...] = ()
    on_head = None
    if rule.kind in ("window", "definition"):
        # windows are triggered by positive fluent literals, definitions by any
        on_body = tuple(
            compile_join(gdom, rule.body[:i] + rule.body[i + 1 :], lit.atom, **out)
            if lit.atom.pred in gdom.fluent_decls
            and (lit.positive or rule.kind == "definition")
            else None
            for i, lit in enumerate(rule.body)
        )
    if rule.kind in ("definition", "default"):
        on_head = compile_join(gdom, rule.body, head)
    return dataclasses.replace(
        rule, on_body=on_body, on_head=on_head, unbound=compile_join(gdom, rule.body, **out)
    )


def restrict(gdom: GroundedDomain, fine_regions: Iterable[str]) -> GroundedDomain:
    """A view of an already-grounded domain at a different granularity:
    compiled rules, statics and sorts are shared; only the fine regions
    and their active cells differ."""
    if gdom.config is None:
        raise GroundingError("granularity restriction requires a grid configuration")
    fine = frozenset(fine_regions)
    return dataclasses.replace(
        gdom, active_cells=_active_cells(gdom.config, fine), fine_regions=fine
    )


def _check_bindable(
    gdom: GroundedDomain,
    axiom_id: str,
    text: str,
    action: Optional[Atom],
    body: tuple[Literal, ...],
    head: Optional[Literal],
) -> None:
    """Verify evaluation can bind every variable when it is needed."""
    bound: set[str] = set()
    if action is not None:
        bound |= {v.name for v in _vars_of(action)}
    for lit in body:
        names = {v.name for v in _vars_of(lit.atom)}
        stage = _literal_stage(lit, gdom)
        if stage == 2 and not names <= bound:
            raise GroundingError(
                f"axiom {axiom_id} ({text}): cannot bind {sorted(names - bound)} "
                f"before evaluating {lit!r}"
            )
        bound |= names
    if head is not None:
        names = {v.name for v in _vars_of(head.atom)}
        if not names <= bound:
            raise GroundingError(
                f"axiom {axiom_id} ({text}): head variable(s) "
                f"{sorted(names - bound)} not bound by the body"
            )




# ---------------------------------------------------------------------------
# compiled joins
# ---------------------------------------------------------------------------

#: One argument of a tuple built from a binding: (True, slot) or (False, constant).
_Term = tuple[bool, object]


def _take(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function picking ``positions`` out of a tuple, as a tuple."""
    positions = tuple(positions)
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _build(terms: Sequence[_Term]) -> Callable[[tuple], tuple]:
    """A function building the tuple of ``terms`` from a binding."""
    terms = tuple(terms)
    if all(is_slot for is_slot, _ in terms):
        return _take([slot for _, slot in terms])
    if not any(is_slot for is_slot, _ in terms):
        constant = tuple(value for _, value in terms)
        return lambda env: constant
    return lambda env: tuple(env[v] if is_slot else v for is_slot, v in terms)


def _same(pairs: Sequence[tuple[int, int]]) -> Optional[Callable[[tuple], bool]]:
    """A test that the argument pairs of a repeated variable agree."""
    if not pairs:
        return None
    return lambda args: all(args[i] == args[j] for i, j in pairs)


def _fail(message: str) -> Callable:
    def test(index, env):
        raise GroundingError(message)

    return test


def _absent(pred: str, build: Callable) -> Callable:
    return lambda index, env: Atom(pred, build(env)) not in index.get(pred, ())


def _member(values: frozenset, build: Callable, positive: bool) -> Callable:
    return lambda index, env: (build(env) in values) == positive


def _holds(func: Callable, build: Callable, positive: bool) -> Callable:
    return lambda index, env: bool(func(*build(env))) == positive


def _instance(pred: str, build: Callable) -> Callable[[tuple], Atom]:
    return lambda env: Atom(pred, build(env))


def _narrow(args: Sequence[Arg], slots: dict[Variable, int]):
    """The atoms of a predicate that may unify with the entry pattern
    ``args`` under a binding of ``slots``: those whose argument at the
    pattern's first fixed position (a constant or a bound variable) has its
    value, in their given order; all of them, as a list, where no argument
    of the pattern is fixed."""
    for pos, arg in enumerate(args):
        if not isinstance(arg, Variable):
            return lambda atoms, env: [a for a in atoms if a.args[pos] == arg]
        if arg in slots:
            slot = slots[arg]

            def narrow(atoms, env):
                value = env[slot]
                return [a for a in atoms if a.args[pos] == value]

            return narrow
    return lambda atoms, env: list(atoms)


def _matcher(pred: str, arity: int, key, want, same, new):
    """Unify an entry atom with the entry pattern under a binding: the
    extended binding, or None."""

    def match(atom: Atom, env: tuple = ()) -> Optional[tuple]:
        args = atom.args
        if (
            atom.pred != pred
            or len(args) != arity
            or key(args) != want(env)
            or (same is not None and not same(args))
        ):
            return None
        return env + new(args)

    return match


def _extend(candidates, want, same, bind, tests, then):
    """One enumerating literal: every candidate argument tuple whose key
    equals ``want(env)`` and whose repeated variables agree extends the
    binding by its ``bind`` positions; the extension passes ``tests`` and
    goes on to ``then`` (the next enumerating literal), or is a solution.
    ``candidates(index, want)`` yields the argument tuples with that key,
    in index order."""

    def run(index, env):
        for args in candidates(index, want(env)):
            if same is not None and not same(args):
                continue
            out = env + bind(args)
            for test in tests:
                if not test(index, out):
                    break
            else:
                if then is None:
                    yield out
                else:
                    yield from then(index, out)

    return run


def _scan(pred: str, key: Callable):
    """Candidates from the atoms of ``pred`` in ``index``, in index order."""

    def candidates(index, want):
        for atom in index.get(pred, ()):
            args = atom.args
            if key(args) == want:
                yield args

    return candidates


def _lookup(rows: dict):
    """Candidates from a static's rows keyed by their bound positions."""
    return lambda index, want: rows.get(want, ())


class Join:
    """A rule body compiled for one way of entering it.

    A binding is a tuple of values, one per *slot*; ``variables`` names the
    slot of each position, in the order the join binds them: the slots of
    the binding it continues, then the new variables of the entry atom,
    then those of each body literal.  ``match`` unifies an entry atom with
    the entry pattern under a binding; ``run`` enumerates the extensions of
    a binding under which the body holds, in index order.  ``head`` builds
    the rule's head atom from a solution, where the body binds it;
    ``then`` is the continuation a negative window uses to match a victim
    against its head and check its residual; ``scanned`` builds the atoms
    the positive fluent literals of the body matched.  ``narrow`` keeps, of
    a predicate's atoms and in their order, those whose argument at the
    entry pattern's first fixed position (a constant, or a variable the
    binding holds) has its value: every atom ``match`` can accept is among
    them, so a negative window looks its victims up by that key.
    """

    __slots__ = (
        "variables", "match", "narrow", "head", "then", "scanned", "_tests", "_body"
    )

    def __init__(self, variables, match, narrow, tests, body, head, scanned):
        self.variables: tuple[Variable, ...] = variables
        self.match: Optional[Callable[[Atom, tuple], Optional[tuple]]] = match
        self.narrow: Optional[Callable[[Iterable[Atom], tuple], list[Atom]]] = narrow
        self.head: Optional[Callable[[tuple], Atom]] = head
        self.then: Optional[Join] = None
        self.scanned: tuple[Callable[[tuple], Atom], ...] = scanned
        self._tests = tests  # before the first enumerating literal
        self._body = body  # from the first enumerating literal on, or None

    def run(self, index: dict, env: tuple) -> Iterator[tuple]:
        for test in self._tests:
            if not test(index, env):
                return iter(())
        if self._body is None:
            return iter((env,))
        return self._body(index, env)

    def solve(self, index: dict, atom: Atom, env: tuple = ()) -> Iterator[tuple]:
        """The solutions after entering with ``atom`` under ``env``."""
        env = self.match(atom, env)
        if env is None:
            return iter(())
        return self.run(index, env)

    def first(self, index: dict, atom: Atom, env: tuple = ()) -> Optional[tuple]:
        """The first solution after entering with ``atom``, or None."""
        env = self.match(atom, env)
        if env is None:
            return None
        for test in self._tests:
            if not test(index, env):
                return None
        if self._body is None:
            return env
        return next(self._body(index, env), None)

    def binding(self, env: tuple) -> dict:
        """The ``{Variable: value}`` form of a binding, for rendering."""
        return dict(zip(self.variables, env))


def compile_join(
    gdom: GroundedDomain,
    body: Sequence[Literal],
    entry: Optional[Atom] = None,
    *,
    prefix: Sequence[Variable] = (),
    head: Optional[Atom] = None,
    then: Optional[tuple[Atom, Sequence[Literal]]] = None,
) -> Join:
    """Compile ``body``, evaluated in order after unifying ``entry``, for a
    binding of ``prefix``.

    Each literal becomes an enumerating step (a positive fluent scans its
    predicate's atoms, an unbound sort atom its members, a partly bound
    table static its rows) or a test of a fully bound literal.  Arguments
    are worked out here once: a variable already bound is compared with
    its slot, a constant with itself, a new variable is bound.  Literals
    that cannot be evaluated (a negated literal with unbound arguments, a
    computed static with free ones, a symbol without a relation) compile
    to a step that raises :class:`GroundingError` when it is reached.
    ``head`` compiles a builder of the head atom; ``then`` = (head
    pattern, residual) compiles the victim continuation of a negative
    window.
    """
    variables: list[Variable] = list(prefix)
    slots = {v: i for i, v in enumerate(variables)}

    def unify(args):
        """(the positions compared, the values they must have, the test of
        repeated new variables, the positions bound)."""
        key, want, same, new = [], [], [], []
        first: dict[Variable, int] = {}
        for i, a in enumerate(args):
            if not isinstance(a, Variable):
                key.append(i)
                want.append((False, a))
            elif a in slots:
                key.append(i)
                want.append((True, slots[a]))
            elif a in first:
                same.append((first[a], i))
            else:
                first[a] = i
                new.append(i)
        for i in new:
            slots[args[i]] = len(variables)
            variables.append(args[i])
        return tuple(key), _build(want), _same(same), _take(new)

    def bound(args) -> bool:
        return all(not isinstance(a, Variable) or a in slots for a in args)

    def terms(args) -> list[_Term]:
        return [(True, slots[a]) if isinstance(a, Variable) else (False, a) for a in args]

    match = narrow = None
    if entry is not None:
        narrow = _narrow(entry.args, slots)
        key, want, same, new = unify(entry.args)
        match = _matcher(entry.pred, len(entry.args), _take(key), want, same, new)

    entry_tests: list = []  # the tests before the first enumerating literal
    tests = entry_tests  # the tests after the latest one
    steps: list = []  # (candidates, want, same, new, tests) per enumerating literal
    scanned = []

    def enumerate_by(candidates, want, same, new):
        nonlocal tests
        tests = []
        steps.append((candidates, want, same, new, tests))

    for lit in body:
        pred, args = lit.atom.pred, lit.atom.args
        if pred in gdom.fluent_decls:
            if lit.positive:
                key, want, same, new = unify(args)
                enumerate_by(_scan(pred, _take(key)), want, same, new)
                scanned.append(_instance(pred, _build(terms(args))))
            elif bound(args):
                tests.append(_absent(pred, _build(terms(args))))
            else:
                tests.append(_fail(f"negated fluent {lit!r} evaluated with unbound arguments"))
        elif pred in gdom.sorts and len(args) == 1:
            members = gdom.sorts.get(pred, ())
            if bound(args):
                values = frozenset((v,) for v in members)
                tests.append(_member(values, _build(terms(args)), lit.positive))
            elif lit.positive:
                _, want, _, new = unify(args)
                enumerate_by(_lookup({(): tuple((v,) for v in members)}), want, None, new)
            else:
                tests.append(_fail(f"negated sort atom {lit!r} with unbound argument"))
        else:
            static = gdom.statics.get(pred)
            if static is None:
                tests.append(_fail(f"no relation for symbol {pred!r} in {lit!r}"))
            elif bound(args):
                build = _build(terms(args))
                if static.table is not None:
                    tests.append(_member(static.table, build, lit.positive))
                else:
                    tests.append(_holds(static.func, build, lit.positive))
            elif not lit.positive:
                tests.append(_fail(f"negated static {lit!r} with unbound arguments"))
            elif static.table is None:
                tests.append(
                    _fail(f"computed static {static.name!r} cannot enumerate free arguments")
                )
            else:
                key, want, same, new = unify(args)
                enumerate_by(_lookup(static.rows(key)), want, same, new)

    run = None
    for candidates, want, same, new, after in reversed(steps):
        run = _extend(candidates, want, same, new, tuple(after), run)
    join = Join(
        tuple(variables),
        match,
        narrow,
        tuple(entry_tests),
        run,
        None if head is None else _instance(head.pred, _build(terms(head.args))),
        tuple(scanned),
    )
    if then is not None:
        victim, residual = then
        join.then = compile_join(gdom, residual, victim, prefix=join.variables)
    return join
