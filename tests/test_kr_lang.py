"""Domain-language parser: grammar coverage and structural validation."""

import pytest

from fortdefense.kr.lang import (
    Atom,
    DomainSyntaxError,
    Literal,
    Variable,
    parse_atom,
    parse_domain,
    parse_literal,
)

MINI = """
% a toy domain exercising every statement form
sort thing.
sort box < thing.
static heavy(thing).
fluent inertial at(thing, thing).
fluent inertial sealed(thing).
fluent defined somewhere(thing).
action put(thing, thing).
action fall(thing).

put(A, B) causes at(A, B).
fall(A) causes at(A, A) if heavy(A).
-at(A, B1) if at(A, B2), B1 != B2.
somewhere(A) if at(A, B).
impossible put(A, B) if at(A, B).
initial default sealed(A) if box(A).
"""


def test_mini_domain_statement_counts():
    d = parse_domain(MINI)
    assert [s.name for s in d.sorts] == ["thing", "box"]
    assert d.sorts[1].parent == "thing"
    assert set(d.statics) == {"heavy"}
    assert d.fluents["at"].kind == "inertial"
    assert d.fluents["somewhere"].kind == "defined"
    assert d.actions["put"].arg_sorts == ("thing", "thing")
    assert d.actions["fall"].arg_sorts == ("thing",)
    assert len(d.causal_laws) == 2
    assert len(d.constraints) == 2
    assert len(d.executabilities) == 1
    assert len(d.defaults) == 1


def test_axiom_ids_are_stable_and_sequential():
    d = parse_domain(MINI)
    assert [l.axiom_id for l in d.causal_laws] == ["causal:1", "causal:2"]
    assert [c.axiom_id for c in d.constraints] == ["constraint:1", "constraint:2"]
    assert d.executabilities[0].axiom_id == "exec:1"
    assert d.defaults[0].axiom_id == "default:1"
    # each axiom remembers its source text
    assert d.causal_laws[0].text == "put(A, B) causes at(A, B)"


def test_terms_variables_and_integers():
    atom = parse_atom("p(X, foo, 3, -2)")
    assert atom == Atom("p", (Variable("X"), "foo", 3, -2))
    assert parse_literal("-p(X)") == Literal(Atom("p", (Variable("X"),)), False)
    assert parse_literal("not p(X)") == Literal(Atom("p", (Variable("X"),)), False)


def test_comparison_shorthand():
    assert parse_literal("X != Y") == Literal(
        Atom("neq", (Variable("X"), Variable("Y")))
    )
    assert parse_literal("X == 3") == Literal(Atom("eq", (Variable("X"), 3)))
    assert parse_literal("X = y") == Literal(Atom("eq", (Variable("X"), "y")))


def test_causal_law_with_and_without_conditions():
    d = parse_domain(MINI)
    unconditional, conditional = d.causal_laws
    assert unconditional.conditions == ()
    assert conditional.conditions == (Literal(Atom("heavy", (Variable("A"),))),)
    assert conditional.effect == Literal(Atom("at", (Variable("A"), Variable("A"))))


def test_comments_and_multiline_statements():
    d = parse_domain(
        """
        sort s.  % trailing comment
        fluent inertial
            f(s, s).   % declaration split over lines
        """
    )
    assert d.fluents["f"].arg_sorts == ("s", "s")


def test_substitute_and_ground_check():
    atom = Atom("p", (Variable("X"), 1))
    grounded = atom.substitute({Variable("X"): "a"})
    assert grounded == Atom("p", ("a", 1))
    assert type(grounded) is Atom
    # unbound variables stay; an atom without arguments is returned equal
    assert Atom("q", (Variable("X"), Variable("Y"))).substitute(
        {Variable("X"): 2}
    ) == Atom("q", (2, Variable("Y")))
    assert Atom("noop").substitute({Variable("X"): "a"}) == Atom("noop")


def test_atom_is_an_immutable_value():
    atom = Atom("in", ("guard0", 3, 4))
    for name in ("pred", "args"):
        with pytest.raises(AttributeError):
            setattr(atom, name, "x")
    # the hash every set and dict order rests on
    assert hash(atom) == hash(("in", ("guard0", 3, 4)))
    same = Atom("in", ("guard0", 3, 4))
    assert same is not atom and same == atom and hash(same) == hash(atom)
    assert {atom: 1}[same] == 1
    assert atom != Atom("in", ("guard0", 3, 5)) and atom != Atom("at", atom.args)
    assert Atom("noop") == Atom("noop", ())


def test_atom_text():
    assert str(Atom("in", ("guard0", 3, 4))) == "in(guard0, 3, 4)"
    assert repr(Atom("in", ("guard0", 3, 4))) == "in(guard0, 3, 4)"
    assert str(Atom("noop")) == repr(Atom("noop")) == "noop"
    assert str(Atom("p", (Variable("X"), 1))) == "p(X, 1)"


def test_an_atom_never_equals_a_literal():
    atom = Atom("shot", ("attacker1",))
    for lit in (Literal(atom), Literal(atom, positive=False)):
        assert atom != lit and lit != atom
        assert len({atom, lit}) == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("sort b < missing.", "unknown parent sort"),
        ("fluent f(s).", "inertial or defined"),
        ("sort s. fluent inertial f(s). g(X) if f(X).", "undeclared symbol"),
        (
            "sort s. fluent defined d(s). fluent inertial f(s). -d(X) if f(X).",
            "no negative heads",
        ),
        (
            "sort s. static p(s). action a(s). a(X) causes p(X).",
            "must be an inertial fluent",
        ),
        (
            "sort s. fluent inertial f(s). f(X) causes f(X).",
            "non-action",
        ),
        (
            "sort s. static p(s). p(X) if p(X).",
            "head must be a fluent",
        ),
        (
            "sort s. fluent defined d(s). initial default d(x).",
            "must be inertial",
        ),
        ("sort s. action a(s). impossible a(X).", "needs 'if'"),
        ("nonsense statement here.", "unrecognized"),
        ("sort s. exogenous action a(s).", "unrecognized"),  # one vocabulary
        ("sort s. fluent inertial f(s,).", "empty argument"),
        ("sort s. fluent inertial f(%bad).", "bad"),
    ],
)
def test_rejects_malformed_domains(text, fragment):
    with pytest.raises(DomainSyntaxError) as err:
        parse_domain(text)
    assert fragment in str(err.value)


def test_sort_membership_usable_in_bodies_only():
    ok = parse_domain(
        "sort s. fluent inertial f(s). action a(s). impossible a(X) if s(X)."
    )
    assert ok.executabilities[0].conditions[0].atom.pred == "s"
    with pytest.raises(DomainSyntaxError):
        parse_domain("sort s. action a(s). a(X) causes s(X).")


def test_shipped_domain_parses():
    from importlib import resources

    text = (
        resources.files("fortdefense").joinpath("data/fort_attack.dom").read_text()
    )
    d = parse_domain(text)
    # one vocabulary: each action once, its first argument the actor
    assert {a: decl.arg_sorts for a, decl in d.actions.items()} == {
        "move": ("agent", "x_val", "y_val"),
        "rotate": ("agent", "dir"),
        "shoot": ("agent", "agent"),
        "noop": ("ah_agent",),
    }
    assert d.fluents["in"].kind == "inertial"
    assert d.fluents["agent_in"].kind == "defined"
    assert len(d.defaults) == 1
