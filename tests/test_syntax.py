"""Grammar, expansion, binding analysis."""

import pickle
from itertools import combinations
from typing import get_args

import pytest

from agodel import (
    And, App, ArityError, Atom, Bot, DDArrow, Delta, Forall,
    FormulaSyntaxError, Imp, Inv, LukImp, Not, One, Or, ParseError, Power,
    ResourceLimitError, Signature, Tensor, Top, UnknownSymbolError, UsageError, Var,
    expand_derived, free_vars, parse, parse_signature, parse_theory,
    print_formula, substitute,
)
from agodel.syntax import Formula, Syntax, Term, children, rebuild
from agodel.translation import (
    CLe, CNot, ClassicalFormula, VConst, VMul, VVar, ValueTerm,
)
from conftest import formula_depth, is_core, make_rng, random_formula, subformulas

SIG = Signature(
    functions={"c": 0, "f": 1, "g": 2},
    predicates={"P": 1, "Q": 1, "R": 2, "rho": 0, "eps": 0, "e": 2},
    equality="e",
)


class TestParse:
    def test_quantified_implication(self):
        phi = parse("forall x. P(x) -> Q(x)", SIG)
        assert phi == Forall("x", Imp(Atom("P", (Var("x"),)), Atom("Q", (Var("x"),))))

    def test_strict_order_connective(self):
        assert parse("one ==> rho", SIG) == DDArrow(One(), Atom("rho"))

    def test_precedence_chain(self):
        phi = parse("~P(x)^-1 * Q(x) /\\ rho \\/ eps -> rho", SIG)
        want = Imp(
            Or(And(Tensor(Not(Inv(Atom("P", (Var("x"),)))), Atom("Q", (Var("x"),))),
                   Atom("rho")),
               Atom("eps")),
            Atom("rho"),
        )
        assert phi == want

    def test_right_associative_arrows(self):
        phi = parse("rho -> eps -> rho", SIG)
        assert phi == Imp(Atom("rho"), Imp(Atom("eps"), Atom("rho")))

    def test_power_and_inverse_postfix(self):
        assert parse("rho^3", SIG) == Power(Atom("rho"), 3)
        assert parse("rho^-1^-1", SIG) == Inv(Inv(Atom("rho")))
        assert parse("rho^2^-1", SIG) == Inv(Power(Atom("rho"), 2))

    def test_terms_with_functions(self):
        phi = parse("R(f(c), g(x, c))", SIG)
        assert phi == Atom("R", (App("f", (App("c", ()),)),
                                 App("g", (Var("x"), App("c", ())))))

    def test_quantifier_body_extends_right(self):
        phi = parse("forall x. P(x) /\\ Q(x)", SIG)
        assert phi == Forall("x", And(Atom("P", (Var("x"),)), Atom("Q", (Var("x"),))))

    def test_delta_and_lukimp(self):
        assert parse("delta(rho)", SIG) == Delta(Atom("rho"))
        assert parse("rho ->l eps", SIG) == LukImp(Atom("rho"), Atom("eps"))

    def test_malformed_input_reports_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("P(f(x,", SIG)
        assert err.value.offset == 6
        assert err.value.line == 1

    def test_unknown_predicate(self):
        with pytest.raises(UnknownSymbolError):
            parse("S(x)", SIG)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("R(x)", SIG)
        with pytest.raises(ArityError):
            parse("rho(x)", SIG)

    def test_error_classes_are_distinct(self):
        for text, cls in [("P(", FormulaSyntaxError), ("S(x)", UnknownSymbolError),
                          ("R(x)", ArityError)]:
            with pytest.raises(cls):
                parse(text, SIG)

    def test_declared_symbol_cannot_be_bound(self):
        with pytest.raises(UnknownSymbolError):
            parse("forall c. P(c)", SIG)

    def test_theory_parsing_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_theory("rho\nP(\n", SIG)
        assert "line 2" in str(err.value)


class TestPrintRoundTrip:
    def test_examples(self):
        for text in [
            "forall x. P(x) -> Q(x)",
            "one ==> rho",
            "rho^3 ==> eps",
            "delta(rho /\\ eps)",
            "~(rho * eps)^-1",
            "exists x. P(x) \\/ Q(f(x))",
            "rho <-> eps => rho",
        ]:
            phi = parse(text, SIG)
            assert parse(print_formula(phi), SIG) == phi

    def test_randomized_round_trip(self):
        rng = make_rng(101)
        for _ in range(10000):
            phi = random_formula(rng, SIG, depth=rng.randint(0, 8))
            assert parse(print_formula(phi), SIG) == phi


class TestTraversal:
    def test_rebuild_from_children_round_trip(self):
        rng = make_rng(103)
        seen = set()
        for _ in range(3000):
            for sub in subformulas(random_formula(rng, SIG, depth=rng.randint(0, 6))):
                seen.add(type(sub))
                assert rebuild(sub, children(sub)) == sub
        assert len(seen) == 18

    def test_rebuild_keeps_exponent_and_bound_variable(self):
        p, q = Atom("rho"), Atom("eps")
        assert rebuild(Power(p, 3), [q]) == Power(q, 3)
        assert rebuild(Forall("x", p), [q]) == Forall("x", q)
        assert rebuild(LukImp(p, q), [q, p]) == LukImp(q, p)


# Every node type, read off the declaration; and a fresh value of each
# declared field type, so two nodes built alike are equal but not identical.
NODE_TYPES = sorted(Syntax.__subclasses__(), key=lambda kind: kind.__name__)
FIELD_VALUES = {
    "str": lambda: "x",
    "int": lambda: 2,
    "Tuple[Term, ...]": lambda: (App("f", (Var("x"),)), Var("y")),
    "Formula": lambda: And(Atom("P", (Var("x"),)), Bot()),
    "ValueTerm": lambda: VMul(VVar("g"), VConst("1")),
    "ClassicalFormula": lambda: CNot(CLe(VVar("g"), VConst("inf"))),
}


def build(kind):
    return kind(*[FIELD_VALUES[kind.__annotations__[f]]() for f in kind._fields])


class TestNodes:
    def test_every_node_type_is_declared_on_the_base(self):
        unions = (Formula, Term, ClassicalFormula, ValueTerm)
        assert set(NODE_TYPES) == {kind for union in unions for kind in get_args(union)}
        assert len(NODE_TYPES) == 34

    def test_equal_fields_under_different_types_compare_unequal(self):
        # positional values every constructor takes, Power's exponent included
        for a, b in combinations(NODE_TYPES, 2):
            if len(a._fields) == len(b._fields):
                values = (1, 2, 3)[:len(a._fields)]
                assert a(*values) != b(*values), (a, b)
        assert Var("x") != VVar("x") and And(Bot(), One()) != Or(Bot(), One())

    @pytest.mark.parametrize("kind", NODE_TYPES, ids=lambda kind: kind.__name__)
    def test_equal_nodes_compare_and_hash_equal(self, kind):
        node, twin = build(kind), build(kind)
        assert node == twin and not node != twin and hash(node) == hash(twin)
        assert node is not twin
        assert pickle.loads(pickle.dumps(node)) == node

    @pytest.mark.parametrize("kind", NODE_TYPES, ids=lambda kind: kind.__name__)
    def test_assignment_raises(self, kind):
        node = build(kind)
        for name in (*kind._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        for name in kind._fields:
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node == build(kind)

    @pytest.mark.parametrize("kind", get_args(Formula), ids=lambda kind: kind.__name__)
    def test_rebuild_from_children_of_each_formula_type(self, kind):
        phi = build(kind)
        assert rebuild(phi, children(phi)) == phi

    def test_power_exponent_below_one_raises(self):
        with pytest.raises(UsageError, match="power exponent must be >= 1, got 0"):
            Power(Atom("P"), 0)

    def test_defaults_and_repr(self):
        assert Atom("P") == Atom("P", ()) and App("c") == App("c", ())
        assert repr(And(Atom("P"), Power(Bot(), 2))) == \
            "And(left=Atom(pred='P', args=()), right=Power(body=Bot(), n=2))"


class TestExpand:
    def test_negation(self):
        p = Atom("rho")
        assert expand_derived(Not(p)) == Imp(p, Bot())

    def test_power_one(self):
        assert expand_derived(Power(Atom("rho"), 1)) == Atom("rho")

    def test_power_unrolls_left_nested(self):
        p = Atom("rho")
        assert expand_derived(Power(p, 3)) == Tensor(Tensor(p, p), p)

    def test_power_expands_balanced(self):
        p = Atom("rho")
        assert expand_derived(Power(p, 4)) == Tensor(Tensor(p, p), Tensor(p, p))
        big = expand_derived(Power(p, 1000))
        assert formula_depth(big) == 10
        assert sum(1 for _ in subformulas(big)) == 1999
        with pytest.raises(ResourceLimitError):
            expand_derived(Power(p, 10 ** 8))

    def test_top(self):
        assert expand_derived(Top()) == Imp(Bot(), Bot())

    def test_or_definition(self):
        p, q = Atom("rho"), Atom("eps")
        assert expand_derived(Or(p, q)) == And(Imp(Imp(p, q), q), Imp(Imp(q, p), p))

    def test_output_is_core(self):
        rng = make_rng(102)
        for _ in range(500):
            phi = random_formula(rng, SIG, depth=5)
            assert is_core(expand_derived(phi))

    def test_idempotent(self):
        rng = make_rng(103)
        for _ in range(500):
            phi = random_formula(rng, SIG, depth=5)
            once = expand_derived(phi)
            assert expand_derived(once) == once


class TestBinding:
    def test_free_vars(self):
        phi = Forall("x", Atom("R", (Var("x"), Var("y"))))
        assert free_vars(phi) == {"y"}

    def test_substitute_simple(self):
        phi = Atom("P", (Var("x"),))
        assert substitute(phi, "x", App("f", (App("c", ()),))) == \
            Atom("P", (App("f", (App("c", ()),)),))

    def test_substitute_respects_binding(self):
        phi = Forall("x", Atom("P", (Var("x"),)))
        assert substitute(phi, "x", App("c", ())) == phi

    def test_substitute_avoids_capture(self):
        # substituting y := x under a binder for x must rename the binder
        phi = Forall("x", Atom("R", (Var("x"), Var("y"))))
        out = substitute(phi, "y", Var("x"))
        assert isinstance(out, Forall)
        assert out.var != "x"
        assert free_vars(out) == {"x"}

    def test_substitute_free_var_bookkeeping(self):
        rng = make_rng(104)
        for _ in range(500):
            phi = random_formula(rng, SIG, depth=4, bound=("x", "y"))
            before = free_vars(phi)
            out = substitute(phi, "x", App("c", ()))
            assert free_vars(out) == before - {"x"}


class TestSignatureFiles:
    def test_parse_and_format(self):
        text = "fn c/0\nfn f/1\npred P/1\npred e/2\nequality e\n"
        sig = parse_signature(text)
        assert sig.functions == {"c": 0, "f": 1}
        assert sig.predicates == {"P": 1, "e": 2}
        assert sig.equality == "e"

    def test_comments_and_blanks(self):
        sig = parse_signature("# header\n\npred P/0  # trailing\n")
        assert sig.predicates == {"P": 0}

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(UsageError):
            parse_signature("pred P/1\nfn P/0\n")

    @pytest.mark.parametrize("second", ["f", "e"])
    def test_repeated_equality_line_rejected(self, second):
        text = f"pred e/2\npred f/2\nequality e\nequality {second}\n"
        with pytest.raises(UsageError, match=r"^signature line 4: duplicate 'equality' line$"):
            parse_signature(text)

    def test_equality_must_be_binary(self):
        with pytest.raises(UsageError):
            parse_signature("pred e/1\nequality e\n")
        with pytest.raises(UsageError):
            parse_signature("equality e\n")

    def test_keyword_names_rejected(self):
        with pytest.raises(UsageError):
            Signature(predicates={"delta": 1})
