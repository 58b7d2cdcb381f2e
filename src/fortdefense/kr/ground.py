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

A state constraint whose head is an inertial fluent (a *window*) must be
a uniqueness constraint, ``-p(H) if p(B), c1, ..., cn``: each ``ci`` is a
``!=`` or ``==`` comparison, and swapping ``H`` and ``B`` position by
position is a consistent renaming (a constant pairs only with itself, a
variable with one partner) that leaves the set of comparisons as it is.
Every instance then has its mirror image, on which progression rests
(:mod:`fortdefense.kr.beliefs`); any other shape is a grounding error.

Grounding then compiles each body into a :class:`Join` for every way the
reasoner enters it: by the action (causal laws, executability), by an
atom of one body literal (window and definition triggers), by the head
(re-deriving a defined atom, a window's victim with its residual), and
unbound (closure from scratch, validation).  Each argument of
each literal is worked out once, at grounding: bind a new variable,
compare with a bound one, or compare with a constant.  That compile is
also the one bindability check: a body that reaches a literal with
arguments it cannot bind, or leaves a head variable unbound, is a
grounding error that names the axiom.  From it, :func:`ground` generates
Python source for every member of a join the reasoner reads: the entry
function it calls the join through (``solve`` for causal laws and
definition triggers, ``first`` for executability, window triggers,
re-derivation and victims, ``run`` unbound), ``head`` where the body
binds the head, and the victims' ``narrow``.  All of it is one source
compiled once per grounding; a restriction shares it.  A generated
function holds a variable per slot (``s0, s1, ...``) and one ``for``
loop per enumerating literal with its comparisons and tests inline.
Every value of the domain or the configuration (a predicate, a
constant, a table, a function) enters that code as a name bound to it,
never as source text.
Enumeration order is part of the contract (provenance and blockers
depend on it): literals in body order, each predicate's atoms in the
order of the index the join is given (a bound first argument is one more
comparison, not a sub-index), static rows in sorted order, sort members
in declared order.  A ``{Variable: value}`` dict is built only where a
binding is rendered (:meth:`Join.binding`).  A window looks its victims
up by a key (:attr:`Join.narrow`): of the head predicate's atoms,
only those whose argument at the first position its body binding fixes
has that value, still in index order.
"""

from __future__ import annotations

import dataclasses
import functools
import linecache
import types
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from fortdefense.env import Direction, GridConfig, in_cone
from fortdefense.kr.lang import (
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
        (x, y, *cell) for (x, y), exits in config.geometry.exits.items() for _, cell in exits
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
    """Each declared sort's members on the grid configuration; a declared
    sort the configuration cannot populate is a :class:`GroundingError`
    naming it, since every rule over it would silently match nothing."""
    guards = guard_symbols(config)
    known: dict[str, tuple[Term, ...]] = {
        "agent": guards + attacker_symbols(config),
        "guard": guards,
        "ah_agent": guards[:1],
        "dir": DIR_SYMBOLS,
        "x_val": tuple(range(config.width)),
        "y_val": tuple(range(config.height)),
        "region": all_region_symbols(config),
        "step": tuple(range(horizon + 1)),
    }
    unknown = [s.name for s in desc.sorts if s.name not in known]
    if unknown:
        raise GroundingError(f"sort {unknown[0]}: no members on a grid configuration")
    return {s.name: known[s.name] for s in desc.sorts}


# ---------------------------------------------------------------------------
# rule compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledRule:
    """One axiom with an evaluation-ordered body.

    ``head`` is the effect (causal law), the constrained literal (state
    constraint), or None (executability).
    ``action`` is the triggering action pattern where applicable.

    For a window (a uniqueness constraint), ``body`` holds only the
    literals evaluable before the head is bound; ``residual`` holds the
    rest (the comparisons over head variables), checked per candidate atom
    matched against the head pattern.

    The body is compiled once for each way it is entered (see
    :class:`Join`): ``on_action`` by the action (causal laws and
    executability conditions); ``on_body[i]`` by an atom of body literal
    ``i``, the rest of the body following in order (window and definition
    triggers; None where no trigger enters); ``on_head`` by the head
    (re-deriving a defined atom); and ``unbound`` from nothing (closure
    from scratch, validation).
    A window's body joins end in the victim continuation.
    """

    axiom_id: str
    text: str
    kind: str  # "causal" | "window" | "definition" | "exec"
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
    body: tuple[Literal, ...], gdom: "GroundedDomain"
) -> tuple[tuple[Literal, ...], tuple[Literal, ...]]:
    """Split a window's ordered body into the prefix solvable before its
    head is bound and the residual: the comparisons that read a variable
    the prefix leaves unbound, tested once a victim has bound the head."""
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
    return tuple(pre), tuple(residual)


def _not_unique(head: Literal, body: Sequence[Literal]) -> Optional[str]:
    """Why the window ``head if body`` is not a uniqueness constraint (see
    the module docstring), or None."""
    if head.positive:
        return "its head is positive"
    literals = [lit for lit in body if lit.atom.pred not in _OPERATORS]
    if len(literals) != 1 or literals[0].atom.pred != head.atom.pred:
        return f"its body must hold one {head.atom.pred} literal besides comparisons"
    if not all(lit.positive for lit in body):
        return "its body holds a negated literal"
    swap: dict = {}
    for h, b in zip(head.atom.args, literals[0].atom.args):
        if h != b and not (isinstance(h, Variable) and isinstance(b, Variable)):
            return f"{h!r} pairs with {b!r}, and a constant pairs only with itself"
        if swap.setdefault(h, b) != b or swap.setdefault(b, h) != h:
            return "swapping its head and body literal is not a renaming"
    comparisons = {(c.atom.pred, frozenset(c.atom.args)) for c in body if c not in literals}
    if {(op, frozenset(swap.get(a, a) for a in args)) for op, args in comparisons} != comparisons:
        return "swapping its head and body literal changes its comparisons"
    return None


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
    #: (window, position of its one fluent body literal), by predicate:
    #: the constraints a direct atom triggers
    window_triggers: dict[str, list[tuple[CompiledRule, int]]] = field(default_factory=dict)
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


@functools.cache
def _cells_by_region(config: GridConfig) -> dict[str, tuple[tuple[int, int], ...]]:
    """Each region's cells, by symbol; built once per configuration."""
    return {r: region_cells(config, r) for r in all_region_symbols(config)}


def _active_cells(
    config: GridConfig, fine: frozenset[str]
) -> frozenset[tuple[int, int]]:
    cells = _cells_by_region(config)
    return frozenset().union(*(cells[r] for r in fine))


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

    Synthetic domains (tests) may instead pass explicit
    ``sorts``/``statics``.  ``horizon`` only populates the
    ``step`` sort.  A definition whose body holds a defined fluent is
    rejected: the defined fluents are closed in one pass over the
    definitions (:func:`~fortdefense.kr.beliefs.close_defined`).  So is a
    window that is not a uniqueness constraint (:func:`_not_unique`).
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
    wanted: list[tuple[Join, str]] = []
    compiled = functools.partial(_compiled, gdom, wanted=wanted)
    for law in desc.causal_laws:
        atoms = [law.action, law.effect.atom] + [l.atom for l in law.conditions]
        _infer_var_sorts(gdom, law.axiom_id, law.text, atoms)
        body = _order_body(law.conditions, gdom)
        rule = CompiledRule(law.axiom_id, law.text, "causal", law.action, law.effect, body)
        rule = compiled(rule)
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
            rule = CompiledRule(con.axiom_id, con.text, "definition", None, con.head, body)
            rule = compiled(rule)
            gdom.definitions.append(rule)
        else:
            problem = _not_unique(con.head, con.body)
            if problem is not None:
                raise GroundingError(
                    f"axiom {con.axiom_id} ({con.text}): not a uniqueness constraint "
                    f"-p(H) if p(B), c1, ..., cn: {problem}"
                )
            pre, residual = _split_residual(body, gdom)
            rule = CompiledRule(con.axiom_id, con.text, "window", None, con.head, pre, residual)
            rule = compiled(rule)
            gdom.windows.append(rule)
            # the fluent literal comes first in evaluation order
            gdom.window_triggers.setdefault(con.head.atom.pred, []).append((rule, 0))
    for ex in desc.executabilities:
        atoms = [ex.action] + [l.atom for l in ex.conditions]
        _infer_var_sorts(gdom, ex.axiom_id, ex.text, atoms)
        body = _order_body(ex.conditions, gdom)
        rule = CompiledRule(ex.axiom_id, ex.text, "exec", ex.action, None, body)
        rule = compiled(rule)
        gdom.exec_by_action.setdefault(ex.action.pred, []).append(rule)

    gdom.inertial_preds = frozenset(
        p for p, d in desc.fluents.items() if d.kind == "inertial"
    )
    for rule in gdom.definitions:
        for i, lit in enumerate(rule.body):
            if lit.atom.pred in gdom.fluent_decls:
                gdom.definition_triggers.setdefault(lit.atom.pred, []).append((rule, i))
    _generate(wanted)
    return gdom


def _compiled(gdom: GroundedDomain, rule: CompiledRule, wanted: list):
    """``rule`` with its body compiled for each way it is entered.  Each
    join goes on ``wanted`` with the members the reasoner reads: its entry
    function and ``head`` where the body binds the head; a victim
    continuation goes with ``first``, and with ``narrow`` behind a
    trigger.  A join whose body cannot be bound (see
    :func:`compile_join`) is a grounding error that names the axiom.  A
    join's name gives the axiom and the way in."""

    def join(way: str, reads: tuple, body, entry=None, victims=("first",), **out) -> Join:
        made = compile_join(gdom, body, entry, name=f"{rule.axiom_id} {way}", **out)
        if out.get("head") is not None:
            reads += ("head",)
        for part, members in ((made, reads), (made.then, victims)):
            if part is None:
                continue
            if part.unbindable is not None:
                raise GroundingError(f"axiom {rule.axiom_id} ({rule.text}): {part.unbindable}")
            wanted.extend((part, member) for member in members)
        return made

    head = rule.head.atom if rule.head is not None else None
    if rule.kind in ("causal", "exec"):
        reads = ("solve",) if rule.kind == "causal" else ("first",)
        return dataclasses.replace(
            rule, on_action=join("on_action", reads, rule.body, rule.action, head=head)
        )
    window = rule.kind == "window"
    out = {"then": (head, rule.residual)} if window else {"head": head}
    on_body: tuple[Optional[Join], ...] = ()
    on_head = None
    if rule.kind in ("window", "definition"):
        # each fluent body literal is a trigger
        reads = ("first",) if window else ("solve",)
        on_body = tuple(
            join(
                f"on_body[{i}]", reads, rule.body[:i] + rule.body[i + 1 :], lit.atom,
                victims=("first", "narrow"), **out,
            )
            if lit.atom.pred in gdom.fluent_decls
            else None
            for i, lit in enumerate(rule.body)
        )
    if rule.kind == "definition":
        # a definition re-derives its head
        on_head = join("on_head", ("first",), rule.body, head)
    unbound = join("unbound", ("run",), rule.body, **out)
    return dataclasses.replace(rule, on_body=on_body, on_head=on_head, unbound=unbound)


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


# ---------------------------------------------------------------------------
# compiled joins
# ---------------------------------------------------------------------------

#: The parameters of each member a join can be generated with.
_SIGNATURES = {
    "run": "index, env",
    "solve": "index, atom, env=()", "first": "index, atom, env=()",
    "head": "env", "narrow": "atoms, env=()",
}

#: The builtin comparisons, written inline.
_OPERATORS = {"neq": "!=", "eq": "=="}


def _tuple(names: Iterable[str]) -> str:
    """The source of the tuple of ``names``."""
    names = list(names)
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


def _generate(wanted: Iterable[tuple[Join, str]]) -> None:
    """Compile the members ``wanted`` names, as ``(join, member)``, from
    one source: a factory per join takes the join's values as its
    arguments and returns its functions.  Each function has a file of its
    own, named for its join, its member and a checksum of its source
    (``<join exec:7 on_action first 1a2b3c4d>``), which :mod:`linecache`
    holds, so a traceback or a profile shows the generated line; so does
    the code nested in it (a list comprehension's), filed with it.  The
    same function from any grounding shares that one file."""
    entries: dict[Join, dict[str, list[str]]] = {}
    for join, entry in wanted:
        entries.setdefault(join, {})[entry] = join._source(entry)
    lines: list[str] = []
    for k, (join, functions) in enumerate(entries.items()):
        lines.append(f"def join{k}({', '.join(f'v{i}' for i in range(len(join._values)))}):")
        for text in functions.values():
            lines += ["    " + line for line in text]
        lines.append(f"    return {_tuple(functions)}")
    namespace = {"Atom": Atom, "GroundingError": GroundingError}
    exec(compile("\n".join(lines), "<joins>", "exec"), namespace)
    for k, (join, functions) in enumerate(entries.items()):
        made = namespace[f"join{k}"](*join._values)
        for (entry, text), fn in zip(functions.items(), made):
            source = [line + "\n" for line in text]
            checksum = zlib.crc32("".join(source).encode())
            filename = f"<join {join.name} {entry} {checksum:08x}>"
            fn.__code__ = _refiled(fn.__code__, filename, fn.__code__.co_firstlineno - 1)
            linecache.cache[filename] = (0, None, source, filename)
            setattr(join, entry, fn)


def _refiled(code: types.CodeType, filename: str, shift: int) -> types.CodeType:
    """``code`` and the code objects nested in it, filed under
    ``filename`` with every first line moved up by ``shift``."""
    consts = tuple(
        _refiled(c, filename, shift) if isinstance(c, types.CodeType) else c
        for c in code.co_consts
    )
    return code.replace(
        co_filename=filename, co_firstlineno=code.co_firstlineno - shift, co_consts=consts
    )


class Join:
    """A rule body compiled for one way of entering it.

    A binding is a tuple of values, one per *slot*; ``variables`` names the
    slot of each position, in the order the join binds them: the slots of
    the binding it continues, then the new variables of the entry atom,
    then those of each body literal.  Every member that reads a binding is
    a generated function (see :func:`_generate`):

    - ``solve(index, atom, env=())`` unifies an entry atom with the entry
      pattern under a binding and yields the solutions that extend it, in
      index order, and ``first(index, atom, env=())`` returns the first,
      or None; ``run(index, env)`` yields the extensions of a binding
      that holds the entry's slots;
    - ``head(env)`` builds the rule's head atom from a solution;
    - ``narrow(atoms, env=())`` keeps, as a list and in their order, those
      of a predicate's atoms whose argument at the entry pattern's first
      fixed position (a constant, or a variable the binding holds) has its
      value: every atom that unifies with the pattern is among them, so a
      window looks its victims up by that key.

    A join without an entry pattern has ``solve`` and ``first`` None, one
    compiled without a head has ``head`` None, and one that is not a
    victim continuation has ``narrow`` None.  ``then`` is the victim
    continuation of a window: it matches a victim against the head and
    checks the residual.  ``unbindable`` says why the body cannot be bound
    in this order, or is None (see :func:`compile_join`).
    """

    __slots__ = ("name", "variables", "then", "unbindable", *_SIGNATURES, "_values", "_members")

    def __init__(self, name, variables, values, members, unbindable):
        self.name: str = name  # the axiom and the way its body is entered
        self.variables: tuple[Variable, ...] = variables
        self.then: Optional[Join] = None
        self.unbindable: Optional[str] = unbindable
        self._values = values  # what the generated source names v0, v1, ...
        self._members = members  # by member: (slots it is given, items, last statement)
        for member in _SIGNATURES.keys() - members.keys():
            setattr(self, member, None)

    def __getattr__(self, member: str):
        # a member the grounding has no caller for, or one of a join
        # compiled on its own, is generated at its first use
        if member not in _SIGNATURES:
            raise AttributeError(member)
        _generate([(self, member)])
        return getattr(self, member)

    def binding(self, env: tuple) -> dict:
        """The ``{Variable: value}`` form of a binding, for rendering."""
        return dict(zip(self.variables, env))

    def _source(self, member: str) -> list[str]:
        """The lines of ``member``: the slots of the binding it is given
        unpacked into slot variables (``s0, s1, ...``), its items (a
        ``for`` loop nests what follows, an ``if`` test rejects the binding,
        a statement is written as it is), and its last statement."""
        given, items, last = self._members[member]
        if given:
            items = [("do", f"{_tuple(f's{i}' for i in range(given))} = env"), *items]
        lines = [f"def {member}({_SIGNATURES[member]}):"]
        depth = 1
        for kind, text in items:
            pad = "    " * depth
            if kind == "for":
                lines.append(f"{pad}{text}:")
                depth += 1
            elif kind == "if":
                lines += [f"{pad}if {text}:", f"{pad}    {'continue' if depth > 1 else 'return'}"]
            else:
                lines.append(pad + text)
        lines.append("    " * depth + last)
        return lines


def compile_join(
    gdom: GroundedDomain,
    body: Sequence[Literal],
    entry: Optional[Atom] = None,
    *,
    prefix: Optional[Sequence[Variable]] = None,
    head: Optional[Atom] = None,
    then: Optional[tuple[Atom, Sequence[Literal]]] = None,
    name: str = "body",
) -> Join:
    """Compile ``body``, evaluated in order after unifying ``entry``, for a
    binding of ``prefix``.

    Each literal becomes a loop (a positive fluent over its predicate's
    atoms, an unbound sort atom over its members, a partly bound table
    static over its rows) or a test of a fully bound literal.  Arguments
    are worked out here once: a variable already bound is compared with
    its slot, a constant with itself, a new variable is bound.  Each value
    the source uses (a predicate, a constant, a position, a table, a
    function, an error message) is one of the join's values, ``v0, v1,
    ...``.  The join holds the source of each of its members (see
    :class:`Join`), generated when :func:`_generate` is given it or at its
    first use: ``head`` where a ``head`` atom is given, ``narrow`` where
    the join continues a ``prefix`` from an entry atom.  ``then`` = (head
    pattern, residual) compiles the victim continuation of a window,
    which continues the body's binding; ``name`` names the join's
    functions' file.

    This is the one place bindability is checked.  A literal reached with
    arguments it needs bound still unbound (a negated literal, a computed
    static, or a symbol without a relation) compiles to a statement that
    raises :class:`GroundingError` when it is reached, and a head variable
    the body leaves unbound to a ``head`` that raises; the first of them
    is recorded as ``unbindable``, which :func:`ground` reports for the
    axiom.  A symbol without a relation whose arguments are all bound
    fails only where it is reached.
    """
    variables: list[Variable] = list(prefix or ())
    slots = {v: i for i, v in enumerate(variables)}
    continued = len(variables)
    values: list = []
    named: dict[int, str] = {}

    def value(obj) -> str:
        if id(obj) not in named:
            named[id(obj)] = f"v{len(values)}"
            values.append(obj)
        return named[id(obj)]

    def term(arg) -> str:
        return f"s{slots[arg]}" if isinstance(arg, Variable) else value(arg)

    def unify(args, looked_up=False):
        """(the positions of ``args`` bound beforehand, the target list
        unpacking ``args``, the tests on it): a new variable is bound to
        its slot; any other argument is compared with its value, but where
        a row lookup has matched it already."""
        key = [i for i, a in enumerate(args) if not isinstance(a, Variable) or a in slots]
        targets, tests = [], []
        for i, a in enumerate(args):
            if isinstance(a, Variable) and a not in slots:
                slots[a] = len(variables)
                variables.append(a)
                targets.append(term(a))
            elif looked_up and i in key:
                targets.append("_")
            else:
                targets.append(f"a{i}")
                tests.append(("if", f"a{i} != {term(a)}"))
        return key, _tuple(targets), tests

    def free(args) -> list[str]:
        return sorted({a.name for a in args if isinstance(a, Variable) and a not in slots})

    def bound(args) -> bool:
        return not free(args)

    def instance(atom: Atom) -> str:
        return f"Atom({value(atom.pred)}, {_tuple(map(term, atom.args))})"

    members: dict[str, tuple[int, list, str]] = {}
    problems: list[str] = []
    if entry is not None:
        key, target, tests = unify(entry.args)
        pred, arity = value(entry.pred), value(len(entry.args))
        entered = [("if", f"atom.pred != {pred} or len(atom.args) != {arity}")]
        entered += [("do", f"{target} = atom.args"), *tests]
        if prefix is not None:
            kept = "list(atoms)"
            if key:
                pos = key[0]
                kept = f"[a for a in atoms if a.args[{value(pos)}] == {term(entry.args[pos])}]"
            members["narrow"] = (continued, [], f"return {kept}")
    given = len(variables)

    steps: list[tuple[str, str]] = []
    for lit in body:
        pred, args = lit.atom.pred, lit.atom.args
        test = "not in" if lit.positive else "in"  # rejects a binding
        error = None
        if pred in gdom.fluent_decls:
            if lit.positive:
                _, target, tests = unify(args)
                steps += [("for", f"for _, {target} in index.get({value(pred)}, ())"), *tests]
            elif bound(args):
                steps.append(("if", f"{instance(lit.atom)} in index.get({value(pred)}, ())"))
            else:
                error = f"negated fluent {lit!r} evaluated with unbound arguments"
        elif pred in gdom.sorts and len(args) == 1:
            sort = gdom.sorts[pred]
            if bound(args):
                steps.append(("if", f"{term(args[0])} {test} {value(frozenset(sort))}"))
            elif lit.positive:
                unify(args)
                steps.append(("for", f"for {term(args[0])} in {value(sort)}"))
            else:
                error = f"negated sort atom {lit!r} with unbound argument"
        else:
            static = gdom.statics.get(pred)
            if static is None:
                error = f"no relation for symbol {pred!r} in {lit!r}"
            elif bound(args) and static.table is not None:
                steps.append(("if", f"{_tuple(map(term, args))} {test} {value(static.table)}"))
            elif bound(args):
                if static is _BUILTIN_STATICS.get(pred):
                    holds = f"({term(args[0])} {_OPERATORS[pred]} {term(args[1])})"
                else:
                    holds = f"{value(static.func)}({', '.join(map(term, args))})"
                steps.append(("if", f"not {holds}" if lit.positive else holds))
            elif not lit.positive:
                error = f"negated static {lit!r} with unbound arguments"
            elif static.table is None:
                error = f"computed static {static.name!r} cannot enumerate free arguments"
            else:
                key, target, tests = unify(args, looked_up=True)
                rows = value(static.rows(tuple(key)))
                want = _tuple(term(args[i]) for i in key)
                steps += [("for", f"for {target} in {rows}.get({want}, ())"), *tests]
        if error is not None:
            steps.append(("do", f"raise GroundingError({value(error)})"))
            if unbound := free(args):
                problems.append(f"cannot bind {unbound} before evaluating {lit!r}")
    solution = _tuple(f"s{i}" for i in range(len(variables)))
    members["run"] = (given, steps, f"yield {solution}")
    if entry is not None:
        members["solve"] = (continued, entered + steps, f"yield {solution}")
        members["first"] = (continued, entered + steps, f"return {solution}")
    if head is not None and (unbound := free(head.args)):
        problems.append(f"head variable(s) {unbound} not bound by the body")
        members["head"] = (0, [], f"raise GroundingError({value(problems[-1])})")
    elif head is not None:
        members["head"] = (len(variables), [], f"return {instance(head)}")
    join = Join(name, tuple(variables), values, members, problems[0] if problems else None)
    if then is not None:
        victim, residual = then
        join.then = compile_join(
            gdom, residual, victim, prefix=join.variables, name=f"{name} then"
        )
    return join
