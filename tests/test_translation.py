"""Classical companion: translation clauses, evaluation, the equivalence check."""

import pytest

from agodel import (
    INF, RAT, ZERO, Atom, Bot, ClosureExhausted, Exists, Forall, Imp,
    Inv, One, Signature, Structure, Tensor, Top, UsageError, Var,
    check_translation, eval_classical, expand_derived, holds_sentence, parse,
    print_classical, rat, to_classical, translate,
)
from agodel.translation import (
    CAnd, CEqV, CExistsObj, CExistsVal, CForallObj, CForallVal, CImp, CLe,
    CNot, CRel, VConst, VInv, VMul, VVar,
)
from agodel.syntax import subformulas
from agodel.values import format_truth_value
from conftest import make_rng, random_core_sentence, random_structure

SIG0 = Signature(predicates={"P": 0, "Q": 0})
SIGX = Signature(predicates={"P": 1, "Q": 2})


# `agodel translate` output for a sentence that uses every translation clause:
# bot, one, an atom with a variable, /\, ->, *, ^-1, forall and exists.
PINNED_FORMULA = "(forall x. P(x) /\\ one) -> (exists y. P(y)^-1) * bot"
PINNED_COMPANION = (
    "(exists-val g (and (exists-val g1 (exists-val g2 (and (and (and (and "
    "(forall-obj x (forall-val g3 (imp (exists-val g5 (exists-val g6 (and (and "
    "(and (rel P x g5) (eqv g6 1)) (imp (le g5 g6) (eqv g3 g5))) (imp (le g6 g5) "
    "(eqv g3 g6))))) (le g1 g3)))) (forall-val g4 (imp (le g1 g4) (exists-obj x "
    "(exists-val g3 (and (exists-val g5 (exists-val g6 (and (and (and (rel P x "
    "g5) (eqv g6 1)) (imp (le g5 g6) (eqv g3 g5))) (imp (le g6 g5) (eqv g3 "
    "g6))))) (le g3 g4))))))) (exists-val g7 (exists-val g8 (and (and (and "
    "(forall-obj y (forall-val g9 (imp (exists-val g11 (and (rel P y g11) (eqv "
    "g9 (inv g11)))) (le g9 g7)))) (forall-val g10 (imp (le g10 g7) (exists-obj "
    "y (exists-val g9 (and (exists-val g11 (and (rel P y g11) (eqv g9 (inv "
    "g11)))) (le g10 g9))))))) (eqv g8 0)) (eqv g2 (mul g7 g8)))))) (imp (le g1 "
    "g2) (eqv g inf))) (imp (not (le g1 g2)) (eqv g g2))))) (eqv g inf)))"
)


def nullary(p, q=None):
    preds = {"P": {(): p}, "Q": {(): q if q is not None else rat(3)}}
    return Structure(SIG0, RAT, ("m1",), {}, preds)


class TestTranslateClauses:
    def test_bot_top_one(self):
        assert translate(Bot()).formula == CEqV(VVar("g"), VConst("0"))
        assert translate(One()).formula == CEqV(VVar("g"), VConst("1"))

    def test_atomic_becomes_graph_atom(self):
        t = translate(Atom("P", (Var("x"),)))
        assert t.formula == CRel("P", (Var("x"),), VVar("g"))

    def test_inverse_clause_shape(self):
        t = translate(Inv(Atom("P", ())))
        assert t.formula == CExistsVal(
            "g1", CAnd(CRel("P", (), VVar("g1")),
                       CEqV(VVar("g"), VInv(VVar("g1")))))

    def test_tensor_clause_shape(self):
        t = translate(Tensor(Atom("P", ()), Atom("Q", ())))
        inner = t.formula
        assert isinstance(inner, CExistsVal) and isinstance(inner.body, CExistsVal)
        conj = inner.body.body
        assert isinstance(conj, CAnd)
        assert conj.right == CEqV(VVar("g"), VMul(VVar("g1"), VVar("g2")))

    def test_implication_case_clauses(self):
        t = translate(Imp(Atom("P", ()), Atom("Q", ())))
        body = t.formula.body.body
        # conjunction ends with the two guarded cases
        le_case = body.left.right
        gt_case = body.right
        assert le_case == CImp(CLe(VVar("g1"), VVar("g2")),
                               CEqV(VVar("g"), VConst("inf")))
        assert gt_case == CImp(CNot(CLe(VVar("g1"), VVar("g2"))),
                               CEqV(VVar("g"), VVar("g2")))

    def test_forall_greatest_lower_bound_pair(self):
        t = translate(Forall("x", Atom("P", (Var("x"),))))
        outer = t.formula
        assert isinstance(outer, CAnd)
        bound, approx = outer.left, outer.right
        assert isinstance(bound, CForallObj) and bound.var == "x"
        assert isinstance(bound.body, CForallVal)
        assert isinstance(approx, CForallVal)
        inner = approx.body
        assert isinstance(inner, CImp)
        assert isinstance(inner.right, CExistsObj)

    def test_rejects_derived_nodes(self):
        with pytest.raises(UsageError):
            translate(parse("delta(P)", SIG0))

    def test_fresh_value_variables_never_collide(self):
        phi = expand_derived(parse("P * Q /\\ (P -> Q)", SIG0))
        text = print_classical(translate(phi).formula)
        # each existential value variable is bound exactly once
        import re
        bound = re.findall(r"exists-val (g\d+)", text)
        assert len(bound) == len(set(bound))

    def test_companion_text_is_pinned(self):
        phi = parse(PINNED_FORMULA, SIGX)
        assert print_classical(holds_sentence(translate(phi))) == PINNED_COMPANION

    def test_output_linear_in_input_as_a_dag(self):
        # quantifier clauses reference the child translation twice, but as
        # a shared subtree: the distinct-node count stays linear
        def dag_size(node, seen):
            if id(node) in seen:
                return 0
            seen.add(id(node))
            total = 1
            for attr in ("left", "right", "body"):
                child = getattr(node, attr, None)
                if child is not None and hasattr(child, "__dataclass_fields__") \
                        and type(child).__name__.startswith(("C",)):
                    total += dag_size(child, seen)
            return total

        sig = Signature(predicates={"P": 1})
        rng = make_rng(7)
        for _ in range(50):
            phi = random_core_sentence(rng, sig, depth=5, qdepth=3)
            size = sum(1 for _ in subformulas(phi))
            tsize = dag_size(translate(phi).formula, set())
            assert tsize <= 16 * size


class TestToClassical:
    def test_closure_contains_generated_values(self):
        sig = Signature(predicates={"P": 0})
        struct = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(2)}})
        companion = to_classical(struct, closure_depth=2)
        values = {format_truth_value(v) for v in companion.values}
        assert {"0", "1", "2", "1/2", "4", "inf"} <= values

    def test_constants(self):
        struct = nullary(rat(2))
        companion = to_classical(struct)
        assert companion.constant("0") == ZERO
        assert companion.constant("1") == rat(1)
        assert companion.constant("inf") == INF

    def test_function_tables_are_shared_verbatim(self):
        sig = Signature(functions={"f": 1}, predicates={"P": 1})
        struct = Structure(
            sig, RAT, ("m1", "m2"),
            {"f": {("m1",): "m2", ("m2",): "m2"}},
            {"P": {("m1",): rat(2), ("m2",): INF}},
        )
        companion = to_classical(struct)
        assert companion.funcs["f"] == struct.funcs["f"]

    def test_graphs_are_functional(self):
        struct = random_structure(make_rng(5), SIGX)
        companion = to_classical(struct)
        for name, table in companion.relations.items():
            arity = struct.signature.predicates[name]
            assert len(table) == len(struct.universe) ** arity

    def test_values_sorted_with_bounds(self):
        companion = to_classical(nullary(rat(2)))
        assert companion.values[0] == ZERO
        assert companion.values[-1] == INF


class TestEvalClassical:
    def test_equality_with_constant(self):
        companion = to_classical(nullary(rat(2)))
        assert eval_classical(CEqV(VVar("g"), VConst("inf")), companion, {"g": INF})
        assert not eval_classical(CEqV(VVar("g"), VConst("0")), companion, {"g": INF})

    def test_unsatisfiable_existential(self):
        companion = to_classical(nullary(rat(2)))
        psi = CExistsVal("g", CAnd(CEqV(VVar("g"), VConst("0")),
                                   CEqV(VVar("g"), VConst("inf"))))
        assert not eval_classical(psi, companion)

    def test_translated_atom_pins_the_table_value(self):
        struct = nullary(rat(2))
        companion = to_classical(struct)
        t = translate(Atom("P", ()))
        for value in companion.values:
            holds = eval_classical(t.formula, companion, {t.value_var: value})
            assert holds == (value == rat(2))

    def test_sort_violation(self):
        companion = to_classical(nullary(rat(2)))
        with pytest.raises(UsageError):
            eval_classical(CEqV(VVar("g"), VConst("0")), companion, {"g": "m1"})
        with pytest.raises(UsageError):
            eval_classical(CRel("P", (Var("x"),), VVar("g")), companion,
                           {"x": INF, "g": INF})

    def test_unbound_variable(self):
        companion = to_classical(nullary(rat(2)))
        with pytest.raises(UsageError):
            eval_classical(CEqV(VVar("g"), VConst("0")), companion)


class TestCheckTranslation:
    def test_bot_and_top(self):
        struct = nullary(rat(2))
        assert check_translation(Bot(), struct)
        assert check_translation(Top(), struct)

    def test_simple_satisfied_and_refuted(self):
        assert check_translation(Atom("P", ()), nullary(INF))
        assert check_translation(Atom("P", ()), nullary(rat(2)))

    def test_quantified(self):
        sig = Signature(predicates={"P": 1})
        struct = Structure(sig, RAT, ("m1", "m2"), {},
                           {"P": {("m1",): INF, ("m2",): rat(2)}})
        assert check_translation(Forall("x", Atom("P", (Var("x"),))), struct)
        assert check_translation(Exists("x", Atom("P", (Var("x"),))), struct)

    def test_derived_connectives_allowed_via_expansion(self):
        assert check_translation(parse("P ==> Q", SIG0), nullary(rat(2)))
        assert check_translation(parse("delta(P)", SIG0), nullary(INF))

    def test_requires_sentence(self):
        with pytest.raises(UsageError):
            check_translation(Atom("P", (Var("x"),)),
                              random_structure(make_rng(6), Signature(predicates={"P": 1})))

    def test_explicit_closure_depth_can_exhaust(self):
        # evaluating P*P*P*P needs 2^4, outside the depth-0 closure of {2}
        struct = nullary(rat(2))
        phi = Tensor(Tensor(Atom("P", ()), Atom("P", ())),
                     Tensor(Atom("P", ()), Atom("P", ())))
        with pytest.raises(ClosureExhausted):
            check_translation(phi, struct, closure_depth=0)
        assert check_translation(phi, struct, closure_depth=2)

    def test_function_symbols_pass_through(self, rng):
        sig = Signature(functions={"c": 0, "f": 1}, predicates={"P": 1})
        for _ in range(50):
            struct = random_structure(rng, sig, size=rng.randint(1, 3))
            for text in ("P(c)", "P(f(c))", "forall x. P(f(x))",
                         "exists x. P(x) * P(f(x))"):
                assert check_translation(parse(text, sig), struct), text

    def test_lex2_backend(self, rng):
        from agodel import LEX2
        sig = Signature(predicates={"P": 0, "Q": 0})
        for _ in range(50):
            struct = random_structure(rng, sig, size=1, backend=LEX2)
            phi = random_core_sentence(rng, sig, depth=3, qdepth=0)
            assert check_translation(phi, struct)

    def test_randomized_equivalence(self, rng):
        sig = Signature(predicates={"P": 1, "Q": 2})
        for _ in range(200):
            struct = random_structure(rng, sig)
            phi = random_core_sentence(rng, sig, depth=4, qdepth=2)
            assert check_translation(phi, struct), (phi, struct)
