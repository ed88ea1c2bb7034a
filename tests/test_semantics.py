"""Evaluation, satisfaction, similarity/ultrametric, structure files."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from agodel import (
    INF, LEX2, RAT, ZERO, And, Atom, Bot, DArrow, DDArrow, Delta, Exists,
    Forall, Iff, Imp, Inv, LukImp, Not, One, Or, Power, ResourceLimitError,
    Signature, Structure, Tensor, Top, UsageError, Var, check_similarity, check_ultrametric,
    dump_structure, entails_over, eval_formula, eval_term, expand_derived,
    free_vars, lex2, load_structure, models_theory, parse, rat, satisfies,
    tv_compare, tv_inv, tv_max, tv_min, tv_mul, tv_resid,
)
from agodel.semantics import ORDERED, TRUTH, ranks_of
from agodel.syntax import App
from conftest import (
    RAT_POOL, make_rng, oracle, random_formula, random_structure, random_truth_value,
    similarity_closure, tv_dmin,
)

SIG0 = Signature(predicates={"P": 0, "Q": 0})
SIG1 = Signature(predicates={"P": 1})


def nullary(p=None, q=None):
    preds = {"P": {(): p if p is not None else rat(2)},
             "Q": {(): q if q is not None else rat(3)}}
    return Structure(SIG0, RAT, ("m1",), {}, preds)


class TestTerms:
    SIG = Signature(functions={"c": 0, "f": 1, "g": 2}, predicates={"P": 1})

    def make(self):
        return Structure(
            self.SIG, RAT, ("m1", "m2"),
            {"c": {(): "m2"},
             "f": {("m1",): "m2", ("m2",): "m1"},
             "g": {(a, b): "m1" for a in ("m1", "m2") for b in ("m1", "m2")}},
            {"P": {("m1",): INF, ("m2",): ZERO}},
        )

    def test_variable_lookup(self):
        assert eval_term(Var("x"), self.make(), {"x": "m1"}) == "m1"

    def test_application(self):
        assert eval_term(App("f", (App("c", ()),)), self.make(), {}) == "m1"

    def test_unbound_variable(self):
        with pytest.raises(UsageError):
            eval_term(App("g", (Var("x"), Var("y"))), self.make(), {"x": "m1"})


class TestEval:
    def test_forall_is_min(self):
        struct = Structure(SIG1, RAT, ("m1", "m2"), {},
                           {"P": {("m1",): rat(2), ("m2",): rat(3)}})
        assert eval_formula(parse("forall x. P(x)", SIG1), struct) == rat(2)
        assert eval_formula(parse("exists x. P(x)", SIG1), struct) == rat(3)

    def test_delta_drops_non_inf(self):
        assert eval_formula(Delta(Atom("P")), nullary()) == ZERO
        assert eval_formula(Delta(Atom("P")), nullary(p=INF)) == INF

    def test_strict_order_connective(self):
        assert eval_formula(DDArrow(Atom("P"), Atom("Q")), nullary()) == INF
        assert eval_formula(DDArrow(Atom("P"), Atom("Q")), nullary(p=INF, q=INF)) == ZERO
        assert eval_formula(DDArrow(Atom("P"), Atom("Q")), nullary(p=rat(3), q=rat(3))) == rat(3)

    def test_core_connectives(self):
        struct = nullary()
        assert eval_formula(And(Atom("P"), Atom("Q")), struct) == rat(2)
        assert eval_formula(Imp(Atom("Q"), Atom("P")), struct) == rat(2)
        assert eval_formula(Tensor(Atom("P"), Atom("Q")), struct) == rat(6)
        assert eval_formula(Inv(Atom("P")), struct) == rat(1, 2)
        assert eval_formula(Bot(), struct) == ZERO
        assert eval_formula(One(), struct) == rat(1)
        assert eval_formula(Top(), struct) == INF

    def test_one_uses_structure_backend(self):
        struct = Structure(SIG0, LEX2, ("m1",), {},
                           {"P": {(): lex2(1, 2)}, "Q": {(): lex2(2, 1)}})
        assert eval_formula(One(), struct) == lex2(1, 1)
        assert eval_formula(parse("P * top * bot", SIG0), struct) == lex2(1, 1)

    def test_unbound_variable_rejected(self):
        with pytest.raises(UsageError):
            eval_formula(Atom("P", (Var("x"),)), random_structure(make_rng(1), SIG1))

    def test_unbound_variable_refused_before_any_value(self):
        # Q^300000 alone exceeds the power limit; the unbound x is refused first
        sig = Signature(predicates={"P": 1, "Q": 0})
        struct = Structure(sig, RAT, ("m1",), {}, {"P": {("m1",): rat(2)}, "Q": {(): rat(2)}})
        power = Power(Atom("Q"), 300000)
        with pytest.raises(ResourceLimitError):
            eval_formula(power, struct)
        phi = And(power, Atom("P", (Var("x"),)))
        with pytest.raises(UsageError):
            eval_formula(phi, struct)
        with pytest.raises(UsageError):
            satisfies(struct, phi)


class TestTruthTable:
    LEX2_POOL = [ZERO, lex2(1, 2), lex2(1, 1), lex2(2, Fraction(1, 3)), INF]

    @pytest.mark.parametrize("pool", [RAT_POOL, LEX2_POOL], ids=["rat", "lex2"])
    def test_grid_against_value_functions(self, pool):
        # TRUTH run on the rank algebra of a structure whose tables hold
        # the pool, results decoded; products and inverses leave the sort
        backend = next(v.backend for v in pool if v.is_elem)
        sig = Signature(predicates={f"P{i}": 0 for i in range(len(pool))})
        struct = Structure(sig, backend, ("m1",), {},
                           {f"P{i}": {(): v} for i, v in enumerate(pool)})
        algebra = ranks_of(struct)
        encode, decode = algebra.encode, algebra.decode
        spelled_out = {
            And: tv_min,
            Or: tv_max,
            Imp: tv_resid,
            Iff: tv_dmin,
            Tensor: lambda a, b: tv_mul(a, b, backend),
            LukImp: lambda a, b: (
                INF if tv_compare(a, b) <= 0 else tv_mul(b, tv_inv(a), backend)),
        }
        for a in pool:
            ra = encode(a)
            assert decode(TRUTH[Inv](algebra, Inv(Atom("P")), 0, ra)) == tv_inv(a)
            assert decode(TRUTH[Not](algebra, Not(Atom("P")), 0, ra)) == tv_resid(a, ZERO)
            for b in pool:
                rb = encode(b)
                order = algebra.compare(ra, rb)
                assert order == tv_compare(a, b)
                for node, reference in spelled_out.items():
                    rel = order if node in ORDERED else 0
                    got = TRUTH[node](algebra, node(Atom("P"), Atom("Q")), rel, ra, rb)
                    assert decode(got) == reference(a, b), (node, a, b)


class TestDerivedTablesAgreeWithExpansion:
    def test_value_grid_all_connectives(self):
        binary = [Or, Iff, DArrow, DDArrow, LukImp, And, Imp]
        for a in RAT_POOL:
            for b in RAT_POOL:
                struct = nullary(p=a, q=b)
                for node in binary:
                    phi = node(Atom("P"), Atom("Q"))
                    assert eval_formula(phi, struct) == \
                        eval_formula(expand_derived(phi), struct), (node, a, b)
                for phi in (Not(Not(Atom("P"))), Delta(Atom("P")),
                            Power(Atom("P"), 3), Power(Atom("P"), 6),
                            Power(Atom("P"), 7), Top()):
                    assert eval_formula(phi, struct) == \
                        eval_formula(expand_derived(phi), struct), (phi, a)

    def test_displayed_composite_tables(self):
        # the not-not and strict-bound tables, spelled out
        for a in RAT_POOL:
            struct = nullary(p=a)
            nn = eval_formula(Not(Not(Atom("P"))), struct)
            assert nn == (ZERO if a == ZERO else INF)
            da = eval_formula(DArrow(Atom("P"), Atom("Q")), struct)
            q = rat(3)
            if tv_compare(a, q) < 0:
                assert da == INF
            else:
                assert da == q

    def test_randomized_value_cases(self):
        # 10^4 random subformula-value cases per run, across every
        # derived connective and both backends
        from conftest import random_truth_value
        rng = make_rng(211)
        binary = [Or, Iff, DArrow, DDArrow, LukImp]
        unary = [lambda b: Not(Not(b)), Delta, lambda b: Power(b, rng.randint(1, 4)),
                 Not, lambda b: Top()]
        count = 0
        while count < 10000:
            backend = RAT if rng.random() < 0.7 else LEX2
            a = random_truth_value(rng, backend)
            b = random_truth_value(rng, backend)
            sig = SIG0
            struct = Structure(sig, backend, ("m1",), {},
                               {"P": {(): a}, "Q": {(): b}})
            node = rng.choice(binary + unary)
            phi = node(Atom("P"), Atom("Q")) if node in binary else node(Atom("P"))
            assert eval_formula(phi, struct) == \
                eval_formula(expand_derived(phi), struct), (phi, a, b)
            count += 1

    def test_randomized_structures_agreement(self, rng):
        sig = Signature(predicates={"P": 1, "Q": 2, "R": 0})
        for _ in range(1000):
            struct = random_structure(rng, sig)
            phi = random_formula(rng, sig, depth=4)
            if free_vars(phi):
                continue
            assert eval_formula(phi, struct) == \
                eval_formula(expand_derived(phi), struct)


ORACLE_SIG = Signature(functions={"c": 0, "f": 1}, predicates={"P": 1, "Q": 2, "R": 0})


class TestAgainstOracle:
    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]))
    def test_eval_formula_matches_oracle(self, seed, backend):
        # derived connectives, free variables bound by env, and products,
        # inverses and powers whose values leave the structure's sort
        rng = make_rng(seed)
        struct = random_structure(rng, ORACLE_SIG, backend=backend)
        phi = random_formula(rng, ORACLE_SIG, depth=4, bound=("y", "z"), qdepth=2)
        env = {v: rng.choice(struct.universe) for v in sorted(free_vars(phi))}
        expected_seen, seen = set(), set()
        expected = oracle(phi, struct, env, expected_seen)
        assert eval_formula(phi, struct, env, on_value=seen.add) == expected
        assert seen == expected_seen

    @pytest.mark.parametrize("text", [
        "P(x) /\\ forall x. Q(x, x)",
        "forall z. P(x)",
        "forall x. forall y. forall z. Q(z, x) -> Q(y, z)",
        "forall x. exists x. P(x)",
        "exists y. P(f(y)) * Q(f(x), y)^-1",
        "forall y. Q(y, x) <-> Q(x, y)",
    ], ids=["shadowed-env", "vacuous", "axis-order", "shadowed-bound", "terms", "swapped"])
    @pytest.mark.parametrize("backend", [RAT, LEX2], ids=["rat", "lex2"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_axes_match_oracle(self, text, backend, size):
        # env-bound and quantified variables of one name, vacuous and
        # nested quantifiers, operands over different axes, function terms
        for seed in range(3):
            struct = random_structure(make_rng(seed), ORACLE_SIG, size=size, backend=backend)
            phi = parse(text, ORACLE_SIG)
            for x in struct.universe:
                expected_seen, seen = set(), set()
                expected = oracle(phi, struct, {"x": x}, expected_seen)
                assert eval_formula(phi, struct, {"x": x}, on_value=seen.add) == expected
                assert seen == expected_seen

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           size=st.integers(1, 5))
    def test_check_ultrametric_matches_oracle(self, seed, backend, size):
        # any table, not only similarities; a few values so that ties occur
        rng = make_rng(seed)
        pool = [random_truth_value(rng, backend) for _ in range(3)] + [INF]
        universe = tuple(f"m{i}" for i in range(size))
        table = {pair: rng.choice(pool) for pair in product(universe, repeat=2)}
        struct = Structure(SIGE, backend, universe, {}, {"e": table})
        d = {pair: tv_inv(v) for pair, v in table.items()}
        report = check_ultrametric(struct)
        assert report.identity_violations == [
            (a, b) for a, b in product(universe, repeat=2) if d[a, b].is_zero != (a == b)]
        assert report.symmetry_violations == [
            (a, b) for a, b in product(universe, repeat=2)
            if tv_compare(d[a, b], d[b, a]) != 0]
        assert report.triangle_violations == [
            (a, b, c) for a, b, c in product(universe, repeat=3)
            if tv_compare(d[a, b], tv_max(d[a, c], d[b, c])) > 0]


class TestSatisfaction:
    def test_satisfies_inf_only(self):
        assert satisfies(nullary(p=INF), Atom("P"))
        assert not satisfies(nullary(p=rat(5)), Atom("P"))

    def test_not_delta_expresses_below_inf(self):
        assert satisfies(nullary(p=rat(5)), Not(Delta(Atom("P"))))
        assert not satisfies(nullary(p=INF), Not(Delta(Atom("P"))))

    def test_requires_sentence(self):
        with pytest.raises(UsageError):
            satisfies(random_structure(make_rng(2), SIG1), Atom("P", (Var("x"),)))

    def test_models_theory(self):
        struct = nullary(p=INF, q=INF)
        assert models_theory(struct, [Atom("P"), Atom("Q")])
        assert not models_theory(struct, [Atom("P"), Bot()])

    def test_entails_over_pool(self, rng):
        theory = [DDArrow(Atom("P"), Atom("Q"))]
        chi = Imp(Atom("P"), Atom("Q"))
        pool = [random_structure(rng, SIG0, size=1) for _ in range(200)]
        # brute-force oracle: check every pool member directly
        expected = all(
            satisfies(m, chi) for m in pool if models_theory(m, theory)
        )
        assert entails_over(pool, theory, chi) == expected
        assert entails_over(pool, theory, chi)  # the implication does hold

    def test_entails_over_finds_countermodel(self):
        struct = nullary(p=rat(2), q=rat(3))
        # P ==> Q holds, but Q ==> P fails on this structure
        assert not entails_over([struct], [DDArrow(Atom("P"), Atom("Q"))],
                                DDArrow(Atom("Q"), Atom("P")))


class TestLatticeProperties:
    def test_meet_join_monotone(self, rng):
        for _ in range(2000):
            struct = random_structure(rng, SIG0, size=1)
            p, q = Atom("P"), Atom("Q")
            both = eval_formula(And(p, q), struct)
            either = eval_formula(Or(p, q), struct)
            vp, vq = eval_formula(p, struct), eval_formula(q, struct)
            assert both == tv_min(vp, vq)
            assert either == tv_max(vp, vq)
            assert tv_compare(both, either) <= 0

    def test_quantifier_duality_on_finite(self, rng):
        for _ in range(300):
            struct = random_structure(rng, SIG1)
            phi = Atom("P", (Var("x"),))
            values = [eval_formula(phi, struct, {"x": b}) for b in struct.universe]
            lo = values[0]
            hi = values[0]
            for v in values[1:]:
                lo, hi = tv_min(lo, v), tv_max(hi, v)
            assert eval_formula(Forall("x", phi), struct) == lo
            assert eval_formula(Exists("x", phi), struct) == hi


SIGE = Signature(predicates={"e": 2}, equality="e")


def e_struct(table):
    universe = sorted({a for a, _ in table} | {b for _, b in table})
    return Structure(SIGE, RAT, tuple(universe), {}, {"e": dict(table)})


class TestSimilarityUltrametric:
    def test_similar_pair(self):
        m = e_struct({("a", "a"): INF, ("b", "b"): INF,
                      ("a", "b"): rat(2), ("b", "a"): rat(2)})
        assert check_similarity(m)
        assert check_ultrametric(m).ok

    def test_indistinguishable_pair_is_similar_but_not_ultrametric(self):
        m = e_struct({("a", "a"): INF, ("b", "b"): INF,
                      ("a", "b"): INF, ("b", "a"): INF})
        assert check_similarity(m)
        report = check_ultrametric(m)
        assert not report.ok
        assert ("a", "b") in report.identity_violations
        assert report.pseudo_ok

    def test_asymmetric_table_fails_similarity(self):
        m = e_struct({("a", "a"): INF, ("b", "b"): INF,
                      ("a", "b"): rat(2), ("b", "a"): rat(3)})
        assert not check_similarity(m)
        assert check_ultrametric(m).symmetry_violations

    def test_zero_distance_on_diagonal_required(self):
        m = e_struct({("a", "a"): rat(2), ("b", "b"): INF,
                      ("a", "b"): rat(2), ("b", "a"): rat(2)})
        assert not check_similarity(m)
        assert ("a", "a") in check_ultrametric(m).identity_violations

    def test_similarity_implies_pseudo_ultrametric(self, rng):
        for _ in range(100):
            m = similarity_closure(rng, rng.randint(2, 4), RAT_POOL)
            assert check_similarity(m)
            report = check_ultrametric(m)
            assert report.pseudo_ok
            # brute-force restatement of the triangle clause
            t = m.preds["e"]
            for a in m.universe:
                for b in m.universe:
                    for c in m.universe:
                        d_ab = tv_inv(t[(a, b)])
                        bound = tv_max(tv_inv(t[(a, c)]), tv_inv(t[(b, c)]))
                        assert tv_compare(d_ab, bound) <= 0

    def test_requires_equality_predicate(self):
        with pytest.raises(UsageError):
            check_similarity(nullary())
        with pytest.raises(UsageError):
            check_ultrametric(nullary())


STRUCT_TEXT = """# two-element structure
backend rat
universe m1 m2
fn c -> m2
fn f m1 -> m2
fn f m2 -> m1
pred P m1 = 3/2
pred P m2 = inf
pred e m1 m1 = inf
pred e m1 m2 = 0
pred e m2 m1 = 0
pred e m2 m2 = inf
"""


class TestStructureFiles:
    def test_load_with_inference(self):
        m = load_structure(STRUCT_TEXT)
        assert m.signature.functions == {"c": 0, "f": 1}
        assert m.signature.predicates == {"P": 1, "e": 2}
        assert m.signature.equality == "e"
        assert m.preds["P"][("m1",)] == rat(3, 2)
        assert m.funcs["f"][("m2",)] == "m1"

    def test_dump_round_trip(self):
        m = load_structure(STRUCT_TEXT)
        again = load_structure(dump_structure(m))
        assert again.universe == m.universe
        assert again.preds == m.preds
        assert again.funcs == m.funcs

    def test_lex2_values(self):
        text = "backend lex2\nuniverse m1\npred P = (1/2, 3)\n"
        m = load_structure(text)
        assert m.preds["P"][()] == lex2(Fraction(1, 2), 3)

    @pytest.mark.parametrize("text,fragment", [
        ("universe m1\npred P = 1\n", "backend"),
        ("backend rat\npred P = 1\n", "universe"),
        ("backend rat\nuniverse m1 m2\npred P m1 = 1\n", "not total"),
        ("backend rat\nuniverse m1\npred P m1 = 1\npred P m1 = 2\n", "duplicate"),
        ("backend rat\nuniverse m1\npred P m9 = 1\n", "not total"),
        ("backend rat\nuniverse m1\nfn c -> m9\n", "outside the universe"),
        ("backend rat\nuniverse m1\npred P = nonsense\n", "bad rational"),
        ("backend rat\nuniverse m1 m1\npred P = 1\n", "duplicate universe"),
        ("backend rat\nuniverse m1\nuniverse m2\npred P = 1\n",
         "line 3: duplicate 'universe' line"),
    ])
    def test_loader_rejections(self, text, fragment):
        with pytest.raises(UsageError) as err:
            load_structure(text)
        assert fragment in str(err.value)

    def test_explicit_signature_mismatch(self):
        sig = Signature(predicates={"P": 2})
        with pytest.raises(UsageError):
            load_structure("backend rat\nuniverse m1\npred P m1 = 1\n", sig)
