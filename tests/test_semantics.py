"""Evaluation, satisfaction, similarity/ultrametric, structure files."""

import ast
import dis
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from types import CodeType

import pytest
from hypothesis import given, settings, strategies as st

from agodel import (
    INF, LEX2, RAT, ZERO, And, Atom, Bot, DArrow, DDArrow, Delta, Exists,
    Forall, Iff, Imp, Inv, LukImp, Not, One, Or, Power, ResourceLimitError,
    Signature, Structure, Tensor, Top, UsageError, Var, check_similarity, check_ultrametric,
    dump_structure, entails_over, eval_formula, eval_term, expand_derived,
    free_vars, lex2, load_structure, models_theory, parse, rat, satisfies,
    tv_compare, tv_inv, tv_max, tv_min, tv_mul, tv_power, tv_resid,
)
from agodel import semantics
from agodel.semantics import ORDERED, TRUTH, plan, ranks_of, value_tables
from agodel.syntax import App, nodes
from conftest import (
    RAT_POOL, layout_index, make_rng, oracle, random_formula, random_structure,
    random_truth_value, root_cells, similarity_closure, tv_dmin,
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


def names_loaded(code):
    """The local, closure and global names that code and the code objects
    inside it (a comprehension's, say) read; not the attributes."""
    read = set()
    for instruction in dis.get_instructions(code):
        if instruction.opname.startswith(("LOAD_FAST", "LOAD_DEREF", "LOAD_CLOSURE",
                                          "LOAD_GLOBAL", "LOAD_NAME")):
            argval = instruction.argval
            read.update(argval if isinstance(argval, tuple) else (argval,))
    for const in code.co_consts:
        if isinstance(const, CodeType):
            read |= names_loaded(const)
    return read


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
                order = (ra > rb) - (ra < rb)
                assert order == tv_compare(a, b)
                for node, reference in spelled_out.items():
                    rel = order if node in ORDERED else 0
                    got = TRUTH[node](algebra, node(Atom("P"), Atom("Q")), rel, ra, rb)
                    assert decode(got) == reference(a, b), (node, a, b)

    def test_choosing_connectives_get_a_comprehension(self):
        # every connective runs its generated comprehension, and one that
        # only chooses reads no algebra there: a rewrite onto ranks that
        # stops matching would leave V (a call per cell) in its kernel
        choosing = {Bot, Top, And, Or, Imp, Iff, DArrow, DDArrow, Not, Delta}
        assert set(TRUTH) == choosing | {One, Tensor, Inv, LukImp, Power}
        for kind in TRUTH:
            kernel = semantics._KERNELS[kind]
            assert kernel.__name__ == kind.__name__ + "_kernel", kind
            assert ("V" in names_loaded(kernel.__code__)) == (kind not in choosing), kind

    def test_ordered_is_read_off_the_texts(self):
        assert ORDERED == {And, Or, Imp, Iff, DArrow, DDArrow, LukImp}

    def test_texts_read_only_the_algebra_interface(self):
        algebra = {"ZERO", "ONE", "INF", "is_zero", "is_inf", "mul", "inv", "power"}
        for kind, text in semantics._TRUTH_TEXT.items():
            read, bases = set(), set()
            for node in ast.walk(ast.parse(text, mode="eval")):
                if isinstance(node, ast.Attribute):
                    assert isinstance(node.value, ast.Name), (kind, text)
                    read.add(f"{node.value.id}.{node.attr}")
                    bases.add(node.value)
                elif isinstance(node, ast.Name) and node not in bases:
                    read.add(node.id)
            operands = set("ab"[:arity_of(kind)])
            allowed = {f"V.{name}" for name in algebra} | {"rel", "phi.n"} | operands
            assert read <= allowed, (kind, read - allowed)


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


def assert_tables_hold_the_oracle_values(phi, struct):
    """The cells of one value_tables pass over the sentence that closes phi
    are exactly the values the oracle sees: those of every subformula under
    every assignment it reaches (the witness sort of check_translation)."""
    sentence = reduce(lambda body, v: Forall(v, body), sorted(free_vars(phi)), phi)
    expected_seen = set()
    oracle(sentence, struct, {}, expected_seen)
    V = ranks_of(struct)
    seen = {V.decode(v) for table in value_tables(struct, plan(nodes(sentence))) for v in table}
    assert seen == expected_seen


class TestAgainstOracle:
    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]))
    def test_eval_formula_matches_oracle(self, seed, backend):
        # derived connectives, free variables (every cell of phi's table),
        # and products, inverses and powers whose values leave the structure's sort
        rng = make_rng(seed)
        struct = random_structure(rng, ORACLE_SIG, backend=backend)
        phi = random_formula(rng, ORACLE_SIG, depth=4, bound=("y", "z"), qdepth=2)
        for env, value in root_cells(phi, struct):
            assert value == oracle(phi, struct, env, set())
        if not free_vars(phi):
            assert eval_formula(phi, struct) == value
        assert_tables_hold_the_oracle_values(phi, struct)

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
        # free and quantified variables of one name, vacuous and
        # nested quantifiers, operands over different axes, function terms
        for seed in range(3):
            struct = random_structure(make_rng(seed), ORACLE_SIG, size=size, backend=backend)
            phi = parse(text, ORACLE_SIG)
            for env, value in root_cells(phi, struct):
                assert value == oracle(phi, struct, env, set())
            assert_tables_hold_the_oracle_values(phi, struct)

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


# The node types whose kernel is one comprehension over their operands'
# encoded values, Power (whose node needs an exponent) aside: those whose
# truth functions only choose, and those that call Ranks's memoized group
# operations
KERNEL_KINDS = (Bot, One, Top, Not, Delta, And, Or, Imp, Iff, DArrow, DDArrow, Inv, LukImp,
                Tensor)
CELL_SIG = Signature(functions={"c": 0}, predicates={"e": 2, "P": 1, "Q": 0})
X, Y, C = Var("x"), Var("y"), App("c", ())
# distinct, swapped and repeated variables, constants and zero arity
CELL_LEAVES = (Atom("e", (X, Y)), Atom("e", (Y, X)), Atom("e", (X, X)), Atom("e", (C, X)),
               Atom("e", (X, C)), Atom("P", (Y,)), Atom("P", (C,)), Atom("Q"),
               Bot(), One(), Top())


def cell_formulas():
    """Formulas over x and y in which any connective, the ones that leave
    the rank sort included, sits under any other."""
    def grow(inner):
        return st.one_of(
            st.builds(lambda kind, a, b: kind(a, b), st.sampled_from(
                [And, Or, Imp, Iff, DArrow, DDArrow, LukImp, Tensor]), inner, inner),
            st.builds(lambda kind, a: kind(a), st.sampled_from([Not, Delta, Inv]), inner),
            st.builds(Power, inner, st.integers(1, 3)),
            st.builds(lambda q, v, a: q(v, a), st.sampled_from([Forall, Exists]),
                      st.sampled_from("xy"), inner))
    return st.recursive(st.sampled_from(CELL_LEAVES), grow, max_leaves=8)


def arity_of(kind):
    return TRUTH[kind].__code__.co_argcount - 3  # after V, phi and rel


# each operand over one variable: its atom P (False), whose values are
# ranks, or the atom squared (True), whose values mostly leave the sort
KERNEL_CASES = [pytest.param(kind, squares, id=kind.__name__ + "-" + "".join(
                    "S" if square else "P" for square in squares))
                for kind in KERNEL_KINDS
                for squares in product((False, True), repeat=arity_of(kind))]


class TestRankKernels:
    @pytest.mark.parametrize("kind, squares", KERNEL_CASES)
    def test_kernel_agrees_with_truth_on_every_pair(self, kind, squares):
        # P lists 0, inf and four group values, one per element: over
        # (x, y) a binary node's table holds every pair of the six ranks;
        # the square of 1/2 lies between 0 and 1/2, and those of 2 and 3
        # both between 3 and inf
        pool = RAT_POOL + [rat(3)]
        universe = tuple(f"m{i}" for i in range(len(pool)))
        struct = Structure(SIG1, RAT, universe, {},
                           {"P": {(m,): v for m, v in zip(universe, pool)}})
        V = ranks_of(struct)
        assert sorted(map(V.encode, pool)) == list(range(6))
        operands, columns = [], []
        for var, square in zip((X, Y), squares):
            atom = Atom("P", (var,))
            operands.append(Power(atom, 2) if square else atom)
            columns.append([V.encode(tv_power(v, 2) if square else v) for v in pool])
            assert any(type(a) is semantics.Between for a in columns[-1]) == square
        phi = kind(*operands)
        steps = plan(nodes(phi))
        assert semantics.Step._make(steps[-1]).run is semantics._KERNELS[kind]
        *_, table = value_tables(struct, steps)
        expected = [TRUTH[kind](V, phi, (pair[0] > pair[1]) - (pair[0] < pair[1])
                                if len(pair) == 2 else 0, *pair)
                    for pair in product(*columns)]
        assert table == expected

    @pytest.mark.parametrize("kind", [Forall, Exists], ids=["forall", "exists"])
    @pytest.mark.parametrize("text", ["e(y, x)", "e(y, x) * e(x, y)^-1"], ids=["atom", "product"])
    def test_quantifier_folds_like_truth(self, kind, text):
        rng = make_rng(5)
        sig = Signature(predicates={"e": 2})
        for size in range(1, 5):
            struct = random_structure(rng, sig, size=size)
            V = ranks_of(struct)
            phi = kind("y", parse(text, sig))
            *_, body, table = value_tables(struct, plan(nodes(phi)))  # over (x, y), then (x,)
            truth = TRUTH[{Forall: And, Exists: Or}[kind]]
            fold = [reduce(lambda a, b: truth(V, phi, (a > b) - (a < b), a, b),
                           body[i * size:(i + 1) * size]) for i in range(size)]
            assert table == fold

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           size=st.integers(1, 5), outside=st.integers(0, 6))
    def test_encoded_values_order_like_tv_compare(self, seed, backend, size, outside):
        # P holds the sort; a pass over P(x) * P(y) encodes the products,
        # then values in and out of the sort are encoded in a random order
        # (products of sort values too, which may share their neighbours in
        # the sort), and again in another, and a second pass runs
        rng = make_rng(seed)
        sort = [random_truth_value(rng, backend) for _ in range(size)]
        universe = tuple(f"m{i}" for i in range(size))
        struct = Structure(SIG1, backend, universe, {},
                           {"P": {(m,): v for m, v in zip(universe, sort)}})
        V = ranks_of(struct)
        steps = plan(nodes(parse("P(x) * P(y)", SIG1)))
        *_, first = value_tables(struct, steps)
        values = sort + [random_truth_value(rng, backend) for _ in range(outside)]
        values += [tv_mul(rng.choice(values), rng.choice(values), backend)
                   for _ in range(outside)]
        rng.shuffle(values)
        codes = [V.encode(v) for v in values]
        again = [V.encode(v) for v in reversed(values)]
        assert all(a is b for a, b in zip(codes, reversed(again)))
        *_, second = value_tables(struct, steps)
        assert all(a is b for a, b in zip(first, second))
        # == on a Between is identity: equal products are one object
        assert first == [V.encode(tv_mul(v, w, backend)) for v, w in product(sort, repeat=2)]
        for v, a in zip(values, codes):
            assert V.decode(a) == v
            assert (type(a) is int) == (v in sort or v in (ZERO, INF))
            for w, b in zip(values, codes):
                order = tv_compare(v, w)
                assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == \
                    (order < 0, order <= 0, order == 0, order != 0, order >= 0, order > 0)
                assert V.decode(min(a, b)) == tv_min(v, w)
                assert V.decode(max(a, b)) == tv_max(v, w)
        assert V.decode(min(codes)) == reduce(tv_min, values)
        assert V.decode(max(codes)) == reduce(tv_max, values)

    @settings(max_examples=300)
    @given(phi=cell_formulas(), seed=st.integers(0, 2**32), size=st.integers(1, 4),
           backend=st.sampled_from([RAT, LEX2]))
    def test_every_cell_matches_oracle(self, phi, seed, size, backend):
        struct = random_structure(make_rng(seed), CELL_SIG, size=size, backend=backend)
        for env, value in root_cells(phi, struct):
            assert value == oracle(phi, struct, env, set())

    @pytest.mark.parametrize("text", [
        "forall x. (e(x, y) * P(x)) /\\ e(y, x)",
        "exists y. P(y)^2 /\\ one \\/ e(x, x)",
        "forall y. (e(x, y) ->l e(c, y)) /\\ Q",
        "(forall x. e(x, y)^-1) ==> (exists x. e(x, x) * one)",
        "forall x. exists y. (P(y) <-> e(y, x)^3) => ~delta(Q * P(x))",
    ])
    @pytest.mark.parametrize("backend", [RAT, LEX2], ids=["rat", "lex2"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_products_and_powers_under_rank_connectives(self, text, backend, size):
        # Tensor, Power, One, Inv and LukImp under And, Or, ==> and the quantifiers
        phi = parse(text, CELL_SIG)
        for seed in range(3):
            struct = random_structure(make_rng(seed), CELL_SIG, size=size, backend=backend)
            for env, value in root_cells(phi, struct):
                assert value == oracle(phi, struct, env, set())


class TestGroupMemos:
    def test_products_powers_and_inverses_keep_apart(self):
        # a = P(x) times Q at rank 2, a^2 and a^-1 share the operand a, so a
        # memo keyed by operands alone would give a^2 the product's entry
        # (or the product a^2's); each cell is checked against TRUTH on an
        # algebra of its own, whose memo holds nothing yet
        sig = Signature(predicates={"P": 1, "Q": 0})
        pool = [ZERO, rat(1, 2), rat(2), rat(3), INF]
        universe = tuple(f"m{i}" for i in range(len(pool)))
        struct = Structure(sig, RAT, universe, {}, {
            "P": {(m,): v for m, v in zip(universe, pool)}, "Q": {(): rat(2)}})
        V = ranks_of(struct)
        assert V.encode(rat(2)) == 2
        a, square = Atom("P", (X,)), Power(Atom("P", (X,)), 2)
        phi = Or(And(Tensor(a, Atom("Q")), square), Tensor(Inv(a), square))
        flat = nodes(phi)
        tables = list(value_tables(struct, plan(flat)))
        for (node, kids, _), table in zip(flat, tables):
            if type(node) is Atom:
                continue
            columns = [[V.decode(cell) for cell in tables[k]] for k in kids]
            for i, cell in enumerate(table):
                W = semantics.Ranks(struct.atomic_values(), RAT, {})
                args = [W.encode(column[i % len(column)]) for column in columns]
                rel = (args[0] > args[1]) - (args[0] < args[1]) if type(node) in ORDERED else 0
                assert V.decode(cell) == W.decode(TRUTH[type(node)](W, node, rel, *args)), \
                    (node, universe[i])
        half = V.encode(rat(1, 2))
        assert V.decode(V.products[half, 2]) == rat(1)
        assert V.decode(V.powers[half, 2]) == rat(1, 4)

    def test_a_second_pass_multiplies_nothing(self, monkeypatch):
        # the memo lives on the structure's ranks, so a second pass over the
        # same structure finds every product there
        calls = []

        def counted(*args):
            calls.append(args)
            return tv_mul(*args)
        monkeypatch.setattr(semantics, "tv_mul", counted)
        struct = random_structure(make_rng(3), CELL_SIG, size=3)
        steps = plan(nodes(parse("forall y. (e(x, y) ->l P(y)) * e(y, x)^2 \\/ Q * one",
                                 CELL_SIG)))
        first = list(value_tables(struct, steps))
        made = len(calls)
        assert made > 0
        assert list(value_tables(struct, steps)) == first
        assert len(calls) == made


class TestPowerMap:
    # g -> g^k fixes 0, 1 and inf, keeps the order and commutes with the
    # product, so it commutes with every connective and quantifier: raising
    # every table value to k raises every sentence's value to k
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           k=st.sampled_from([2, 3]))
    def test_raising_every_value_to_k_raises_every_sentence(self, seed, backend, k):
        rng = make_rng(seed)
        struct = random_structure(rng, ORACLE_SIG, backend=backend)
        raised = Structure(ORACLE_SIG, backend, struct.universe, struct.funcs, {
            name: {args: tv_power(v, k) for args, v in table.items()}
            for name, table in struct.preds.items()})
        a, b, c = (random_formula(rng, ORACLE_SIG, depth=2, bound=("y", "z"), qdepth=1)
                   for _ in range(3))
        body = LukImp(Tensor(a, Inv(b)), Power(c, rng.randint(1, 3)))
        phi = reduce(lambda inner, v: rng.choice([Forall, Exists])(v, inner),
                     sorted(free_vars(body)), body)
        assert eval_formula(phi, raised) == tv_power(eval_formula(phi, struct), k)
        # the sentence's value is mostly 0 or inf: every subformula's cells too
        steps = plan(nodes(phi))
        V, W = ranks_of(struct), ranks_of(raised)
        for table, image in zip(value_tables(struct, steps), value_tables(raised, steps)):
            assert [tv_power(V.decode(v), k) for v in table] == list(map(W.decode, image))


class TestRelayout:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_reference_index(self, n):
        # every order of up to four variables, and as axes every ordered
        # subset of it: the empty one, prefixes, suffixes, gaps, permutations
        for size in range(5):
            for order in permutations("wxyz", size):
                for k in range(size + 1):
                    for axes in permutations(order, k):
                        table = list(range(100, 100 + n ** k))
                        steps = semantics._layout_steps(axes, order)
                        want = [table[i] for i in layout_index(axes, order, n)]
                        assert semantics._relayout(table, steps, n) == want, (axes, order)


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
            values = [value for _, value in root_cells(phi, struct)]
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
        # the same value twice is a duplicate too, named by its second line
        ("backend rat\nuniverse m1\npred P m1 = 1\npred P m1 = 1\n",
         "line 4: duplicate entry for 'P' ('m1',)"),
        ("backend rat\nuniverse m1\npred P m1 = 1  # one\npred P m1 = 1\n",
         "line 4: duplicate entry"),
        ("backend rat\nuniverse m1\nfn c -> m1\nfn c -> m1\n", "line 4: duplicate entry for 'c'"),
        ("backend rat\nuniverse m1\npred P m9 = 1\n", "not total"),
        ("backend rat\nuniverse m1\npred P m1 = 1\npred P m9 = 1\n",
         "not total: unknown entries e.g. [('m9',)]"),
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

    @pytest.mark.parametrize("table, detail", [
        ({}, "it has no entries"),
        ({("m1", "m1"): INF}, "missing entries e.g. [('m1', 'm2'), ('m2', 'm1'), ('m2', 'm2')]"),
        # a key of another arity: the missing entries are not searched for
        ({("m1",): INF, ("m1", "m9"): INF}, "unknown entries e.g. [('m1',), ('m1', 'm9')]"),
    ], ids=["empty", "missing", "other-arity"])
    def test_non_total_table_names_entries(self, table, detail):
        sig = Signature(predicates={"P": 2})
        with pytest.raises(UsageError) as err:
            Structure(sig, RAT, ("m1", "m2"), {}, {"P": table})
        assert str(err.value) == f"table for 'P' is not total: {detail}"

    def test_value_of_another_backend(self):
        with pytest.raises(UsageError, match=r"'P' at \('m2',\) uses backend lex2"):
            Structure(SIG1, RAT, ("m1", "m2"), {}, {"P": {("m1",): INF, ("m2",): lex2(1, 2)}})

    def test_trailing_comment(self):
        m = load_structure("backend rat\nuniverse m1 m2  # two\n"
                           "pred P m1 = 3/2  # a comment\npred P m2 = inf#\n")
        assert m.preds["P"] == {("m1",): rat(3, 2), ("m2",): INF}

    def test_explicit_signature_mismatch(self):
        sig = Signature(predicates={"P": 2})
        with pytest.raises(UsageError):
            load_structure("backend rat\nuniverse m1\npred P m1 = 1\n", sig)
