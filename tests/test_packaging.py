"""The package metadata names only things that exist, the benchmark's calls
into the package still resolve, the shipped domain declares no vocabulary
it never uses and no action twice, no module imports a name it never uses,
no module defines a private name it never reads, no public name goes
unread by the package and the benchmark, and the rule engine generates no
join member that nothing reads."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
from typing import Iterable

import pytest

from fortdefense import env, loop
from fortdefense.env import GridConfig, WorldState
from fortdefense.kr import ground as ground_module
from fortdefense.kr.ground import ground

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "fortdefense"


def project_table() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def test_every_declared_script_target_imports():
    for name, target in project_table().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_the_declared_readme_exists():
    readme = project_table().get("readme")
    if isinstance(readme, dict):
        readme = readme.get("file")
    if readme is not None:
        assert (ROOT / readme).is_file()


# ---------------------------------------------------------------------------
# the benchmark's call surface (perfbench/ imports its modules by bare name)
# ---------------------------------------------------------------------------


def test_every_traced_layer_exists_and_the_patch_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    patch = tracing.layer_patch(tracing.Tracer())
    assert patch.targets
    originals = []
    for owner, name, _ in patch.targets:
        assert hasattr(owner, name), (owner, name)
        originals.append(getattr(owner, name))
    with patch:
        for owner, name, wrapped in patch.targets:
            assert getattr(owner, name) is wrapped, (owner, name)
    for (owner, name, _), original in zip(patch.targets, originals):
        assert getattr(owner, name) is original, (owner, name)


def _benchmark_calls(name: str):
    """(positional count, keyword names) of each call of ``name`` in
    ``perfbench/workloads.py``: direct (``loop.run_games(...)``) or handed
    to a timer as its first argument (``timed(loop.run_games, ...)``)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())

    def called(node) -> str:
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = [k.arg for k in node.keywords]
        if called(node.func) == name:
            yield len(node.args), keywords
        elif node.args and called(node.args[0]) == name:
            yield len(node.args) - 1, keywords


@pytest.mark.parametrize("fn", [loop.run_games, ground], ids=lambda fn: fn.__name__)
def test_the_benchmark_calls_bind_to_the_signature(fn):
    calls = list(_benchmark_calls(fn.__name__))
    assert calls, f"perfbench/workloads.py no longer calls {fn.__name__}"
    signature = inspect.signature(fn)
    for n_args, keywords in calls:
        signature.bind(*[None] * n_args, **dict.fromkeys(keywords))


def test_scripted_play_steps_with_two_arguments_and_stores_nothing_on_a_state(
    monkeypatch,
):
    """The benchmark's ``StepRecorder`` stands in for ``loop.step`` with a
    ``(state, actions)`` signature and keeps both states, which its checks
    hand to ``env.legal_actions``; so ``run_games`` calls ``step`` with two
    positional arguments, and no per-tick snapshot is left on a state."""
    kept = []
    real_step = loop.step

    def two_argument_step(state, actions):
        nxt, events = real_step(state, actions)
        kept.extend((state, nxt))
        return nxt, events

    monkeypatch.setattr(loop, "step", two_argument_step)
    sink = {"guard": [], "attacker": []}
    loop.run_games(GridConfig(), "P1", 1, seed=1000, ad_hoc=False, example_sink=sink)
    assert kept and sink["guard"] and sink["attacker"]
    for state in kept:
        assert isinstance(state, WorldState)
        for obj in [state, *state.agents]:
            assert vars(obj).keys() == {f.name for f in dataclasses.fields(obj)}, obj


def test_the_checks_call_to_legal_actions_binds():
    """``perfbench/checks.py`` asks ``legal_actions(state, agent_id)`` of
    recorded states."""
    inspect.signature(env.legal_actions).bind(None, None)
    state = env.reset(GridConfig(), seed=0)
    assert env.legal_actions(state, 0) == env.Tick(state).legal_actions(0)


# ---------------------------------------------------------------------------
# the shipped domain's vocabulary
# ---------------------------------------------------------------------------

#: Declared vocabulary no axiom, signature or package ``Atom`` call uses,
#: each with its reason.
UNUSED_VOCABULARY = {
    "sort step": "ground(horizon=) populates it, and perfbench/workloads.py "
    "passes that keyword; it goes when the benchmark stops passing it",
    "fluent agent_face": "the explain workload asks 74 why-beliefs about it; "
    "it goes with ROADMAP item 8",
}


def body_preds(desc) -> set[str]:
    """The predicates some axiom body of ``desc`` tests."""
    return {
        lit.atom.pred
        for group in (
            [law.conditions for law in desc.causal_laws],
            [con.body for con in desc.constraints],
            [ex.conditions for ex in desc.executabilities],
        )
        for body in group
        for lit in body
    }


def atom_preds(sources: Iterable[str]) -> set[str]:
    """The predicates an ``Atom("<pred>", ...)`` call in the sources names."""
    return {
        node.args[0].value
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Atom"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_atom_preds_are_found():
    source = 'Atom("agent_in", (g, r))\nAtom(pred, args)\nLiteral(Atom("in"))\n'
    assert atom_preds([source]) == {"agent_in", "in"}


def test_every_declared_sort_and_static_is_used():
    """A sort is used when a signature or a body membership test names it,
    or when it is the parent of a used sort; a static when some axiom body
    tests it."""
    desc = loop.load_domain()
    bodies = body_preds(desc)
    decls = [*desc.statics.values(), *desc.fluents.values(), *desc.actions.values()]
    used = {s for decl in decls for s in decl.arg_sorts} | bodies
    parents = {sort.name: sort.parent for sort in desc.sorts}
    for name in list(used):
        while (name := parents.get(name)) is not None:
            used.add(name)
    unused = [f"sort {s.name}" for s in desc.sorts if s.name not in used]
    unused += [f"static {name}" for name in desc.statics if name not in bodies]
    assert unused == [v for v in UNUSED_VOCABULARY if not v.startswith("fluent ")]


def test_every_declared_fluent_is_used():
    """A fluent is used when some axiom body tests it, or when the package
    names it in an ``Atom`` call (``kr/goals.py`` builds its ``agent_in``
    literals so)."""
    desc = loop.load_domain()
    used = body_preds(desc) | atom_preds(p.read_text() for p in PACKAGE.rglob("*.py"))
    unused = [f"fluent {name}" for name in desc.fluents if name not in used]
    assert unused == [v for v in UNUSED_VOCABULARY if v.startswith("fluent ")]


def test_no_two_actions_cause_the_same_fluent():
    """Each action is declared once, for every agent that performs it, so
    no fluent is the head of two actions' causal laws: a second copy of an
    action for other agents (an ``agent_move`` beside ``move``) fails."""
    desc = loop.load_domain()
    causes: dict[str, set[str]] = {}
    for law in desc.causal_laws:
        causes.setdefault(law.effect.atom.pred, set()).add(law.action.pred)
    assert {fluent: sorted(a) for fluent, a in causes.items() if len(a) > 1} == {}


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------


def test_every_module_is_the_attribute_of_its_package():
    """A package that re-exports a function named like one of its modules
    (``plan``, ``ground`` in ``fortdefense.kr``) hides that module."""
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        name = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        parent, _, leaf = name.rpartition(".")
        module = importlib.import_module(name)
        assert getattr(importlib.import_module(parent), leaf) is module, name


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) that appear nowhere
    in it as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import csv\nfrom typing import Iterable, Optional\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Iterable", "csv"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert modules
    unused = {
        str(p.relative_to(ROOT)): names
        for p in modules
        if (names := unused_imports(p.read_text()))
    }
    assert unused == {}


def defined_names(source: str) -> set[str]:
    """The names a module defines at module level by ``def``, ``class`` or
    assignment."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined |= {n.id for n in ast.walk(target) if type(n) is ast.Name}
    return defined


def unread_private_names(source: str) -> list[str]:
    """Module-level private names (``_x``, dunders aside) that a module
    defines by ``def``, ``class`` or assignment and never reads."""
    tree = ast.parse(source)
    defined = defined_names(source)
    names = [n for n in ast.walk(tree) if type(n) is ast.Name]
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    dunder = {n for n in defined if n.startswith("__") and n.endswith("__")}
    return sorted({n for n in defined - dunder - read if n.startswith("_")})


def test_unread_private_names_are_found():
    source = (
        "def _orphan():\n    return _USED\n"
        "_USED, _SPARE = 1, 2\n"
        "class _Kept:\n    pass\n"
        "KEPT = _Kept\n"
        "__all__ = ['KEPT']\n"
    )
    assert unread_private_names(source) == ["_SPARE", "_orphan"]


def test_no_module_defines_a_private_name_it_never_reads():
    """Catches what a deletion leaves behind, such as a helper whose last
    caller went."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    unread = {
        str(p.relative_to(ROOT)): names
        for p in modules
        if (names := unread_private_names(p.read_text()))
    }
    assert unread == {}


def names_read(sources: Iterable[str]) -> set[str]:
    """Every name the sources read: as a name, as an attribute, or by
    importing it."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if type(node) is ast.Name and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif type(node) is ast.Attribute and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif type(node) is ast.ImportFrom:
                read |= {a.name for a in node.names}
    return read


def unread_public_names(source: str, read: set[str]) -> list[str]:
    """Module-level public names that a module defines by ``def``,
    ``class`` or assignment and that are not among the names ``read``."""
    return sorted(n for n in defined_names(source) - read if not n.startswith("_"))


def test_unread_public_names_are_found():
    defining = (
        "def orphan():\n    return USED\n"
        "USED, SPARE = 1, 2\n"
        "class Kept:\n    pass\n"
        "def imported():\n    pass\n"
        "def _private():\n    pass\n"
    )
    reader = "from m import imported\nimport m\nm.Kept()\n"
    assert unread_public_names(defining, names_read([defining, reader])) == ["SPARE", "orphan"]


#: Public names kept with no reader in the package or the benchmark, and why.
UNREAD_PUBLIC = {
    # the why/why-not REPL that reads saved traces back (ROADMAP, "Observability")
    "src/fortdefense/explain.py": ["repl", "run_batch"],
    # the single-tree learner the reference property of the stacked learner checks
    "src/fortdefense/models.py": ["learn_ff_tree"],
}


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    """Catches a public function, class or constant that nothing calls any
    more, which the private-name check cannot see."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    read = names_read(p.read_text() for p in modules + sorted(PERFBENCH.glob("*.py")))
    unread = {
        str(p.relative_to(ROOT)): names
        for p in modules
        if (names := unread_public_names(p.read_text(), read))
    }
    assert unread == UNREAD_PUBLIC


def attributes_read(sources: Iterable[str]) -> set[str]:
    """Every name the sources read as an attribute."""
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if type(node) is ast.Attribute and isinstance(node.ctx, ast.Load)
    }


def test_attributes_read_are_found():
    source = "for env in join.solve(index, atom):\n    join.then.first = env\nx.head(env)\n"
    assert attributes_read([source]) == {"solve", "then", "head"}


def test_every_generated_join_member_is_read():
    """A member ``kr/ground.py`` generates for each join (``_SIGNATURES``)
    is one more function per join that grounding compiles; some module
    other than the generator's must read it."""
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "ground.py")
    read = attributes_read(p.read_text() for p in modules)
    assert sorted(set(ground_module._SIGNATURES) - read) == []
