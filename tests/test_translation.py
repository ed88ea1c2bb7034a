"""Classical companion: translation clauses, evaluation, the equivalence check."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from agodel import (
    INF, RAT, ZERO, And, Atom, Bot, Exists, Forall, Imp,
    Inv, One, ResourceLimitError, Signature, Structure, Tensor, Top, UsageError, Var,
    check_translation, eval_classical, expand_derived, holds_sentence, parse,
    print_classical, rat, to_classical, translate,
)
from agodel import translation
from agodel.translation import (
    ClassicalStructure, CAnd, CEqV, CExistsObj, CExistsVal, CForallObj, CForallVal, CImp, CLe,
    CNot, CRel, VConst, VInv, VMul, VVar,
)
from conftest import (
    RAT_POOL, make_rng, random_core_sentence, random_structure, subformulas,
)

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
    def test_constants(self):
        companion = to_classical(nullary(rat(2)))
        for which, value in (("0", ZERO), ("1", rat(1)), ("inf", INF)):
            for other in companion.values:
                holds = eval_classical(CEqV(VVar("g"), VConst(which)), companion, {"g": other})
                assert holds == (other == value), (which, other)
        with pytest.raises(UsageError):
            eval_classical(CEqV(VVar("g"), VConst("2")), companion, {"g": INF})

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

    def test_hand_built_sort_out_of_order(self):
        # the evaluator sorts the value sort, so order verdicts read values, not positions
        companion = ClassicalStructure(RAT, ("m1",), (INF, rat(1), ZERO), {}, {})
        assert not eval_classical(CLe(VConst("inf"), VConst("0")), companion)
        assert eval_classical(CLe(VConst("0"), VConst("1")), companion)
        assert eval_classical(CForallVal("g", CLe(VVar("g"), VConst("inf"))), companion)

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
        # a plain int is neither sort, even where it could read as an index
        for item in ("m1", 0, 1, True):
            with pytest.raises(UsageError):
                eval_classical(CEqV(VVar("g"), VConst("0")), companion, {"g": item})
        for item in (INF, 0):
            with pytest.raises(UsageError):
                eval_classical(CRel("P", (Var("x"),), VVar("g")), companion,
                               {"x": item, "g": INF})

    def test_values_outside_the_sort(self):
        # the sort of P = 2, Q = 3 is {0, 1, 2, 3, inf}: 2 * 2 and its inverse are outside
        companion = to_classical(nullary(rat(2)))
        assert companion.values == (ZERO, rat(1), rat(2), rat(3), INF)
        g, h = VVar("g"), VVar("h")
        square = VMul(g, g)
        cases = [
            (CEqV(square, VMul(h, h)), {"g": rat(2), "h": rat(2)}, True),
            (CEqV(square, VMul(h, h)), {"g": rat(2), "h": INF}, False),
            (CEqV(square, h), {"g": rat(2), "h": rat(4)}, True),
            (CEqV(square, VConst("inf")), {"g": rat(2)}, False),
            (CLe(square, h), {"g": rat(2), "h": INF}, True),
            (CLe(square, h), {"g": rat(2), "h": rat(2)}, False),
            (CLe(h, square), {"g": rat(2), "h": rat(2)}, True),
            (CEqV(VInv(square), VMul(VInv(g), VInv(g))), {"g": rat(2)}, True),
            (CEqV(VInv(VInv(square)), square), {"g": rat(2)}, True),
            (CLe(VInv(square), VConst("1")), {"g": rat(2)}, True),
            (CLe(VInv(square), VInv(g)), {"g": rat(2)}, True),
            (CLe(VConst("0"), VInv(square)), {"g": rat(2)}, True),
        ]
        for psi, env, expected in cases:
            assert eval_classical(psi, companion, env) is expected, print_classical(psi)

    def test_memo_budget(self, monkeypatch):
        companion = to_classical(nullary(rat(2)))
        psi = holds_sentence(translate(Tensor(Atom("P", ()), Atom("Q", ()))))
        assert eval_classical(psi, companion) is False
        monkeypatch.setattr(translation, "MAX_CLASSICAL_MEMO", 20)
        with pytest.raises(ResourceLimitError):
            eval_classical(psi, companion)

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

    def test_witnesses_outside_the_atomic_values_are_seeded(self):
        # evaluating P*P*P*P needs 2^2 and 2^4, which no table of P = 2 holds
        struct = nullary(rat(2))
        phi = Tensor(Tensor(Atom("P", ()), Atom("P", ())),
                     Tensor(Atom("P", ()), Atom("P", ())))
        assert check_translation(phi, struct)

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


# Random small structures and sentences over one nullary, one unary and one
# binary predicate; every atom argument is a bound variable.
PROPERTY_SIG = Signature(predicates={"N": 0, "P": 1, "Q": 2})


@st.composite
def small_structures(draw):
    universe = tuple(f"m{i}" for i in range(1, draw(st.integers(1, 2)) + 1))
    preds = {name: {args: draw(st.sampled_from(RAT_POOL))
                    for args in product(universe, repeat=arity)}
             for name, arity in PROPERTY_SIG.predicates.items()}
    return Structure(PROPERTY_SIG, RAT, universe, {}, preds)


@st.composite
def core_sentences(draw, depth=3, bound=()):
    ops = ["atom", "bot", "one"]
    if depth > 0:
        ops += ["and", "imp", "tensor", "inv"] + (["forall", "exists"] if len(bound) < 2 else [])
    op = draw(st.sampled_from(ops))
    if op == "atom":
        name = draw(st.sampled_from([p for p, n in PROPERTY_SIG.predicates.items()
                                     if n == 0 or bound]))
        arity = PROPERTY_SIG.predicates[name]
        return Atom(name, tuple(Var(draw(st.sampled_from(bound))) for _ in range(arity)))
    if op in ("bot", "one"):
        return Bot() if op == "bot" else One()
    if op in ("forall", "exists"):
        var = f"x{len(bound) + 1}"
        body = draw(core_sentences(depth - 1, bound + (var,)))
        return (Forall if op == "forall" else Exists)(var, body)
    if op == "inv":
        return Inv(draw(core_sentences(depth - 1, bound)))
    node = {"and": And, "imp": Imp, "tensor": Tensor}[op]
    return node(draw(core_sentences(depth - 1, bound)), draw(core_sentences(depth - 1, bound)))


PROPERTY_SETTINGS = settings(max_examples=150)


class TestTranslationProperty:
    @PROPERTY_SETTINGS
    @given(phi=core_sentences(), struct=small_structures())
    def test_holds_with_the_witness_seeded_sort(self, phi, struct):
        assert check_translation(phi, struct)
