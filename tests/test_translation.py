"""Classical companion: translation clauses, evaluation, the equivalence check."""

from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from agodel import (
    INF, LEX2, RAT, ZERO, And, Atom, Bot, EmbeddingCandidate, Exists, Forall, Imp,
    Inv, One, ResourceLimitError, Signature, Structure, Tensor, Top, UsageError, Var,
    bounded_ediag, bounded_elementary_equiv, check_embedding, check_translation,
    dump_structure, eval_classical, eval_formula, expand_derived, find_model, ground_sentence,
    holds_sentence, load_structure, parse, remark_lab, search_embeddings,
    lex2, print_classical, rat, to_classical, translate,
)
from agodel.values import order_key, tv_compare, tv_inv, tv_mul
from agodel import translation
from agodel.syntax import children, nodes
from agodel.translation import (
    ClassicalStructure, CAnd, CEqV, CExistsObj, CExistsVal, CForallObj, CForallVal, CImp, CLe,
    CNot, CRel, VConst, VInv, VMul, VVar,
)
from conftest import (
    RAT_POOL, assert_leaves_no_cycle, make_rng, random_core_sentence, random_structure,
    subformulas,
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
        # quantifier clauses and the expansion of ==> reference a translation
        # more than once, but as a shared subtree: the distinct-node count
        # stays linear in the input's (P ==> S chains: 21 to 81 expanded
        # nodes give 230 to 914; without translate's memo, 558 to 1,048,062)
        def dag_size(root):
            seen, todo = set(), [root]
            while todo:
                node = todo.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    if type(node) in translation._PARTS:  # the declared parts
                        todo.extend(translation._PARTS[type(node)][1](node))
            return len(seen)

        sig = Signature(predicates={"P": 0, "S": 0})
        for arrows in range(1, 5):
            chain = expand_derived(parse("P" + " ==> S" * arrows, sig))
            assert dag_size(translate(chain).formula) <= 16 * len(nodes(chain)), arrows
        sig = Signature(predicates={"P": 1})
        rng = make_rng(7)
        for _ in range(50):
            phi = random_core_sentence(rng, sig, depth=5, qdepth=3)
            size = sum(1 for _ in subformulas(phi))
            assert dag_size(translate(phi).formula) <= 16 * size


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


def guard_and_support(psi, companion, env):
    """The guard of a compiled value quantifier, and its support as values."""
    program = translation._compile(psi, companion)
    V = program.V
    scope = {name: V.encode(item) for name, item in env.items()}
    found = translation._guard(psi, program.free)
    support = program.supports[id(psi)](scope) if found else program.domains["values"]
    return found, [V.values[rank] for rank in support]


# Hand-built value quantifiers over the companion of P = 2, Q = 3, whose
# value sort is {0, 1, 2, 3, inf}
G, H = VVar("g"), VVar("h")
P_G, Q_H = CRel("P", (), G), CRel("Q", (), H)


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

    @pytest.mark.parametrize("psi, env, sort", [
        # behind a false left side, which evaluation would stop at
        (CAnd(CLe(VConst("inf"), VConst("0")), G), {"g": INF}, "classical formula"),
        (CAnd(CLe(VConst("0"), VConst("inf")), G), {"g": INF}, "classical formula"),
        (CLe(CLe(G, G), VConst("0")), {"g": INF}, "value term"),
        (CEqV(Var("x"), VConst("0")), {"x": "m1"}, "value term"),
        (G, {"g": INF}, "classical formula"),
        (CAnd(CLe(VConst("inf"), VConst("0")), Var("x")), {"x": "m1"}, "classical formula"),
        (CRel("P", (G,), VConst("0")), {"g": INF}, "object term"),
        (CLe(2, VConst("0")), {}, "value term"),
    ], ids=["false-left", "true-left", "formula-as-value", "object-as-value", "value-root",
            "object-as-conjunct", "value-as-object", "int-as-value"])
    def test_ill_sorted_part_is_refused_before_evaluation(self, psi, env, sort):
        # refused wherever the part sits, and before unbound variables are
        # looked for: the compile checks every part's sort
        companion = to_classical(nullary(rat(2)))
        for scope in (env, {}):
            with pytest.raises(UsageError, match=f"^not an? {sort}: "):
                eval_classical(psi, companion, scope)

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

    def test_values_of_another_backend(self):
        # a value is encoded into the companion's sort, which refuses one of
        # another backend as tv_compare does, wherever the value is used
        companion = to_classical(nullary(rat(2)))
        g, one = VVar("g"), VConst("1")
        for psi in (CLe(g, one), CLe(one, g), CEqV(g, one), CEqV(VMul(g, g), one)):
            with pytest.raises(UsageError, match="backend mismatch: lex2 vs rat"):
                eval_classical(psi, companion, {"g": lex2(1, 2)})
        lex = to_classical(Structure(SIG0, LEX2, ("m1",), {},
                                     {"P": {(): lex2(1, 2)}, "Q": {(): ZERO}}))
        with pytest.raises(UsageError, match="backend mismatch: rat vs lex2"):
            eval_classical(CLe(g, one), lex, {"g": rat(2)})

    def test_graph_entry_or_sort_value_of_another_backend(self):
        psi = CExistsVal("g", CRel("P", (), VVar("g")))
        for values, graph in [((ZERO, rat(2), INF), lex2(1, 2)), ((lex2(1, 2),), ZERO)]:
            companion = ClassicalStructure(RAT, ("m1",), values, {"P": {(): graph}}, {})
            with pytest.raises(UsageError, match="backend mismatch: lex2 vs rat"):
                eval_classical(psi, companion)

    def test_memo_budget(self, monkeypatch):
        companion = to_classical(nullary(rat(2)))
        psi = holds_sentence(translate(Tensor(Atom("P", ()), Atom("Q", ()))))
        assert eval_classical(psi, companion) is False
        # the evaluation makes exactly 14 memo and support entries (found by
        # bisecting over the limit): it passes at 14 and is refused at 13
        monkeypatch.setattr(translation, "MAX_CLASSICAL_MEMO", 14)
        assert eval_classical(psi, companion) is False
        monkeypatch.setattr(translation, "MAX_CLASSICAL_MEMO", 13)
        with pytest.raises(ResourceLimitError, match="exceeds 13 memo entries"):
            eval_classical(psi, companion)

    def test_one_leaf_per_name_and_one_closure_per_node(self):
        psi = translate(parse(PINNED_FORMULA, SIGX)).formula
        found, todo = {}, [psi]  # every distinct companion node, by id
        while todo:
            node = todo.pop()
            if id(node) not in found and type(node) in translation._PARTS:
                found[id(node)] = node
                todo.extend(translation._PARTS[type(node)][1](node))
        leaves = [(type(n), n.name if type(n) is VVar else n.which)
                  for n in found.values() if type(n) in (VVar, VConst)]
        assert len(leaves) == len(set(leaves)) == 15  # g, g1 ... g11 and 0, 1, inf
        companion = to_classical(Structure(SIGX, RAT, ("m1",), {}, {
            "P": {("m1",): rat(2)}, "Q": {("m1", "m1"): rat(3)}}))
        assert len(translation._compile(psi, companion).closures) == len(found)

    def test_no_graph_entry(self):
        # no graph, or no entry of the graph at the arguments, at any arity
        companion = to_classical(nullary(rat(2)))
        for args in [(), (Var("x"),), (Var("x"), Var("x"))]:
            for pred in ("R", "P") if args else ("R",):
                with pytest.raises(UsageError, match=f"no graph entry for '{pred}'"):
                    eval_classical(CRel(pred, args, G), companion, {"x": "m1", "g": INF})

    def test_unbound_variable(self):
        companion = to_classical(nullary(rat(2)))
        with pytest.raises(UsageError):
            eval_classical(CEqV(VVar("g"), VConst("0")), companion)

    def test_guard_after_a_conjunct_without_the_variable(self):
        companion = to_classical(nullary(rat(2)))
        psi = CExistsVal("g", CAnd(CAnd(Q_H, P_G), CLe(G, H)))
        found, support = guard_and_support(psi, companion, {"h": rat(3)})
        assert found[0] == [Q_H] and found[1] is P_G
        assert support == [rat(2)]
        assert eval_classical(psi, companion, {"h": rat(3)})
        assert not eval_classical(psi, companion, {"h": rat(1)})  # Q(1) fails
        below = CExistsVal("g", CAnd(CAnd(Q_H, P_G), CLe(H, G)))
        assert not eval_classical(below, companion, {"h": rat(3)})

    def test_false_left_conjunct_empties_the_support(self):
        # R has no graph, so evaluating the guard would raise; the false
        # conjunct left of it means it is never evaluated, as without guards
        companion = to_classical(nullary(rat(2)))
        psi = CExistsVal("g", CAnd(CEqV(H, VConst("0")), CRel("R", (), G)))
        found, support = guard_and_support(psi, companion, {"h": INF})
        assert found[1] == CRel("R", (), G) and support == []
        assert eval_classical(psi, companion, {"h": INF}) is False
        with pytest.raises(UsageError):
            eval_classical(psi, companion, {"h": ZERO})

    def test_guard_mentioning_a_prefix_variable_falls_back_to_the_sort(self):
        companion = to_classical(nullary(rat(2)))
        k = VVar("k")
        psi = CExistsVal("g", CExistsVal("k", CAnd(CLe(G, k), CRel("P", (), k))))
        found, support = guard_and_support(psi, companion, {})
        assert found is None and support == list(companion.values)
        assert eval_classical(psi, companion)
        stripped = CExistsVal("g", CExistsVal("k", CAnd(P_G, CRel("P", (), k))))
        found, support = guard_and_support(stripped, companion, {})
        assert found[1] is P_G and support == [rat(2)]
        assert eval_classical(stripped, companion)

    def test_support_follows_the_guards_other_variables(self):
        # the support of exists g (g = h) is {h}, a different one for each h
        companion = to_classical(nullary(rat(2)))
        assert eval_classical(CForallVal("h", CExistsVal("g", CEqV(G, H))), companion)

    def test_forall_guards(self):
        companion = to_classical(nullary(rat(2)))
        bounded = CForallVal("g", CImp(P_G, CLe(G, H)))
        found, support = guard_and_support(bounded, companion, {"h": rat(3)})
        assert found[1] is P_G and support == [rat(2)]
        assert eval_classical(bounded, companion, {"h": rat(3)})
        assert not eval_classical(bounded, companion, {"h": rat(1)})
        for body, expected in ((CLe(G, VConst("inf")), True), (CAnd(P_G, P_G), False)):
            psi = CForallVal("g", body)
            found, support = guard_and_support(psi, companion, {})
            assert found is None and support == list(companion.values)
            assert eval_classical(psi, companion) is expected


# Random classical formulas over one unary and one nullary graph, object
# variables x, y and value variables g, h, k, all assigned at the top; a
# value-term leaf is a variable twice as often as a constant.
OBJ_VARS, VAL_VARS = ("x", "y"), ("g", "h", "k")
value_terms = st.recursive(
    st.sampled_from([VVar(name) for name in VAL_VARS * 2] + [VConst(c) for c in ("0", "1", "inf")]),
    lambda inner: st.one_of(st.builds(VMul, inner, inner), st.builds(VInv, inner)),
    max_leaves=3)
classical_atoms = st.one_of(
    st.builds(CRel, st.just("P"), st.tuples(st.sampled_from([Var(x) for x in OBJ_VARS])),
              value_terms),
    st.builds(CRel, st.just("N"), st.just(()), value_terms),
    st.builds(CLe, value_terms, value_terms),
    st.builds(CEqV, value_terms, value_terms),
)


@st.composite
def guard_shapes(draw, inner):
    """Q.. exists-val v (R.. (A and B..)) or Q.. forall-val v (R.. (A and B..) -> C)
    under random quantifier prefixes Q.. and R..: the shapes the guard rule reads."""
    def prefix(body, kinds):
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=len(kinds) - 1)):
            body = kind(draw(st.sampled_from(OBJ_VARS if kind is CExistsObj else VAL_VARS)), body)
        return body

    body = prefix(reduce(CAnd, draw(st.lists(inner, min_size=2, max_size=3))),
                  [CExistsVal, CExistsObj, CForallVal])
    var = draw(st.sampled_from(VAL_VARS))
    if draw(st.booleans()):
        return prefix(CExistsVal(var, body), [CExistsVal, CForallVal])
    return prefix(CForallVal(var, CImp(body, draw(inner))), [CExistsVal, CForallVal])


classical_formulas = st.recursive(classical_atoms, lambda inner: st.one_of(
    st.builds(CAnd, inner, inner), st.builds(CImp, inner, inner), st.builds(CNot, inner),
    st.builds(CExistsVal, st.sampled_from(VAL_VARS), inner),
    st.builds(CForallVal, st.sampled_from(VAL_VARS), inner),
    st.builds(CExistsObj, st.sampled_from(OBJ_VARS), inner),
    st.builds(CForallObj, st.sampled_from(OBJ_VARS), inner),
), max_leaves=4)


@st.composite
def small_companions(draw):
    objects = ("m1", "m2")[:draw(st.integers(1, 2))]
    inner = draw(st.lists(st.sampled_from([rat(1, 2), rat(1), rat(2)]),
                          min_size=1, max_size=3, unique=True))
    values = tuple(sorted({ZERO, INF, *inner}, key=order_key))
    relations = {"N": {(): draw(st.sampled_from(values))},
                 "P": {(m,): draw(st.sampled_from(values)) for m in objects}}
    return ClassicalStructure(RAT, objects, values, relations, {})


def naive_eval(psi, companion, env):
    """Reference semantics: every quantifier runs over its whole domain, no memo."""
    constants = {"0": ZERO, "1": rat(1), "inf": INF}

    def term(t):
        if isinstance(t, VVar):
            return env[t.name]
        if isinstance(t, VConst):
            return constants[t.which]
        if isinstance(t, VMul):
            return tv_mul(term(t.left), term(t.right), RAT)
        return tv_inv(term(t.arg))

    def holds(phi):
        if isinstance(phi, CRel):
            args = tuple(env[a.name] for a in phi.args)
            return companion.relations[phi.pred][args] == term(phi.value)
        if isinstance(phi, CLe):
            return tv_compare(term(phi.left), term(phi.right)) <= 0
        if isinstance(phi, CEqV):
            return term(phi.left) == term(phi.right)
        if isinstance(phi, CAnd):
            return holds(phi.left) and holds(phi.right)
        if isinstance(phi, CImp):
            return not holds(phi.left) or holds(phi.right)
        if isinstance(phi, CNot):
            return not holds(phi.body)
        objects = isinstance(phi, (CForallObj, CExistsObj))
        saved, verdicts = env[phi.var], []
        for item in companion.objects if objects else companion.values:
            env[phi.var] = item
            verdicts.append(holds(phi.body))
        env[phi.var] = saved
        return all(verdicts) if isinstance(phi, (CForallObj, CForallVal)) else any(verdicts)

    return holds(psi)


SCOPES = [(kind, var) for kind, names in [(CExistsVal, VAL_VARS), (CForallVal, VAL_VARS),
                                            (CExistsObj, OBJ_VARS), (CForallObj, OBJ_VARS)]
          for var in names]


@st.composite
def shared_under_two_scopes(draw):
    """One subformula object reused under two different quantifier scopes."""
    shared = draw(classical_formulas)
    (outer, x), (inner, y) = draw(st.lists(st.sampled_from(SCOPES), min_size=2, max_size=2,
                                           unique=True))
    return draw(st.sampled_from([CAnd, CImp]))(
        outer(x, shared), inner(y, CAnd(draw(classical_atoms), shared)))


@st.composite
def shared_conjunctions(draw):
    """A quantifier-free CAnd DAG: each level holds the one below twice."""
    node = draw(classical_atoms)
    for _ in range(draw(st.integers(1, 3))):
        side = draw(classical_atoms)
        node = draw(st.sampled_from([CAnd(CImp(side, node), node),
                                     CAnd(node, CNot(CAnd(side, node)))]))
    return node


def assignments(data, companion):
    env = {x: data.draw(st.sampled_from(companion.objects)) for x in OBJ_VARS}
    env.update({g: data.draw(st.sampled_from(companion.values)) for g in VAL_VARS})
    return env


class TestEvalClassicalProperty:
    @settings(max_examples=200)
    @given(psi=guard_shapes(classical_formulas), companion=small_companions(), data=st.data())
    def test_matches_the_naive_full_domain_evaluator(self, psi, companion, data):
        env = assignments(data, companion)
        assert eval_classical(psi, companion, env) == naive_eval(psi, companion, dict(env))

    # shared nodes are memoized; the naive evaluator reads psi as a tree
    @settings(max_examples=200)
    @given(psi=shared_under_two_scopes(), companion=small_companions(), data=st.data())
    def test_a_node_shared_by_two_scopes(self, psi, companion, data):
        env = assignments(data, companion)
        assert eval_classical(psi, companion, env) == naive_eval(psi, companion, dict(env))

    @settings(max_examples=200)
    @given(psi=shared_conjunctions(), companion=small_companions(), data=st.data())
    def test_a_shared_conjunction_dag(self, psi, companion, data):
        env = assignments(data, companion)
        assert eval_classical(psi, companion, env) == naive_eval(psi, companion, dict(env))


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

    def test_nested_derived_arrows_are_flattened_as_a_dag(self):
        # the expansion shares repeated operands: a tree of 120,641 nodes
        # but 81 distinct objects, each listed once
        sig = Signature(predicates={"P": 0, "S": 0})
        phi = expand_derived(parse("P ==> S ==> S ==> S ==> S", sig))
        distinct, todo = {}, [phi]
        while todo:
            node = todo.pop()
            if id(node) not in distinct:
                distinct[id(node)] = node
                todo.extend(children(node))
        flat = nodes(phi)
        assert len(flat) == len(distinct) == 81
        assert {id(node.formula) for node in flat} == distinct.keys()
        tree_size = []
        for node in flat:
            tree_size.append(1 + sum(tree_size[k] for k in node.kids))
        assert tree_size[-1] == 120_641
        struct = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(2)}, "S": {(): rat(3)}})
        assert check_translation(phi, struct)

    def test_a_wrong_side_clause_is_caught(self, monkeypatch):
        # the check is independent of the direct evaluator: a companion whose
        # tensor clause pins g to a instead of a * b disagrees on some pair
        monkeypatch.setitem(translation._SIDE_CLAUSES, Tensor, lambda g, a, b: (CEqV(g, a),))
        rng, sig, verdicts = make_rng(33001), Signature(predicates={"P": 1, "Q": 2}), []
        while len(verdicts) < 200:  # the criterion-3 stream's first 200 pairs with a *
            struct = random_structure(rng, sig, size=rng.randint(1, 3))
            phi = random_core_sentence(rng, sig, depth=4, qdepth=2)
            if any(isinstance(node, Tensor) for node in subformulas(phi)):
                verdicts.append(check_translation(phi, struct))
        assert not all(verdicts)

    @pytest.mark.parametrize("depth", [100, 180])
    def test_an_alternating_chain(self, depth):
        # S /\ (S -> (S /\ ... P)): each level of phi nests two value
        # quantifiers, and the deepest evaluation path runs through both and
        # one support; at five frames per level 180 levels fit under the
        # recursion limit and the test runner, at six they do not
        sig = Signature(predicates={"P": 0, "S": 0})
        phi = Atom("P", ())
        for k in range(depth):
            phi = (And if k % 2 == 0 else Imp)(Atom("S", ()), phi)
        struct = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(2)}, "S": {(): rat(3)}})
        assert check_translation(phi, struct)

    def test_function_symbols_pass_through(self, rng):
        sig = Signature(functions={"c": 0, "f": 1}, predicates={"P": 1})
        for _ in range(50):
            struct = random_structure(rng, sig, size=rng.randint(1, 3))
            for text in ("P(c)", "P(f(c))", "forall x. P(f(x))",
                         "exists x. P(x) * P(f(x))"):
                assert check_translation(parse(text, sig), struct), text

    def test_lex2_backend(self, rng):
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


# Every public entry point frees what it made by reference counting when it
# returns, memoized shared closures included: nothing waits for the cyclic
# collector.
CYCLE_STRUCT = Structure(SIGX, RAT, ("m1", "m2"), {}, {
    "P": {("m1",): rat(2), ("m2",): INF},
    "Q": {args: rat(3) for args in product(("m1", "m2"), repeat=2)}})
CYCLE_SUB = Structure(SIGX, RAT, ("m1",), {}, {"P": {("m1",): rat(2)}, "Q": {("m1", "m1"): rat(3)}})
CYCLE_TEXT = "forall x. exists y. Q(x, y) -> P(y)"
CYCLE_PHI = parse(CYCLE_TEXT, SIGX)
# a power expands to a balanced product of shared nodes
CYCLE_POWER = parse("exists y. P(y)^5", SIGX)


def classical_run(text):
    psi = holds_sentence(translate(parse(text, SIGX)))
    companion = to_classical(CYCLE_STRUCT, [rat(1, 2), ZERO])
    return lambda: eval_classical(psi, companion)


ENTRY_POINTS = {
    "parse": lambda: parse(CYCLE_TEXT, SIGX),
    "eval_formula": lambda: eval_formula(CYCLE_PHI, CYCLE_STRUCT),
    "translate": lambda: translate(CYCLE_PHI),
    "eval_classical-pinned": classical_run(PINNED_FORMULA),
    "eval_classical-nested": classical_run("forall x. exists y. Q(x, y)"),
    "check_translation": lambda: check_translation(CYCLE_PHI, CYCLE_STRUCT),
    "check_translation-power": lambda: check_translation(CYCLE_POWER, CYCLE_STRUCT),
    "expand_derived-power": lambda: expand_derived(parse("P^5", SIG0)),
    "ground_sentence": lambda: ground_sentence(CYCLE_PHI, CYCLE_STRUCT.universe),
    "find_model": lambda: find_model(SIGX, [CYCLE_PHI], 2),
    "remark_lab": lambda: remark_lab(20),
    "check_embedding": lambda: check_embedding(
        CYCLE_SUB, CYCLE_STRUCT, EmbeddingCandidate.make({"m1": "m1"}), 2, 200),
    "search_embeddings": lambda: search_embeddings(CYCLE_STRUCT, CYCLE_STRUCT, 2, 200),
    # not onto: the map m1 -> m1 passes the atomic step, so the tables are compared
    "search_embeddings-not-onto": lambda: search_embeddings(CYCLE_SUB, CYCLE_STRUCT, 2, 200),
    "bounded_elementary_equiv": lambda: bounded_elementary_equiv(
        CYCLE_SUB, CYCLE_STRUCT, 2, 200),
    "bounded_ediag": lambda: bounded_ediag(CYCLE_STRUCT, 1, 200),
    "load_dump": lambda: load_structure(dump_structure(CYCLE_STRUCT), SIGX),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_leaves_no_reference_cycle(name):
    assert_leaves_no_cycle(ENTRY_POINTS[name])
