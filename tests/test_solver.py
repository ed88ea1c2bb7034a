"""Grounding, compilation, Fourier-Motzkin, model search, remark lab."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from agodel import (
    INF, RAT, ZERO, And, App, Atom, Bot, Constraint, DArrow, DDArrow, Delta,
    Exists, Forall, Iff, Imp, Inv, LukImp, Not, One, Or, Power,
    ResourceLimitError, Signature, Structure, Tensor, Top, UsageError, Var,
    compile_inf,
    dump_structure, eval_formula, find_model, fm_solve, free_vars,
    ground_sentence, models_theory, parse, parse_theory, rat, remark_lab,
)
from agodel import solver
from agodel.solver import TAG_ELEM, TAG_INF, TAG_ZERO
from conftest import make_rng, random_formula

SIG0 = Signature(predicates={"P": 0, "Q": 0})
SIG1 = Signature(predicates={"P": 1})

GRID = [ZERO, rat(1, 2), rat(1), rat(2), INF]


class TestGround:
    def test_forall_becomes_conjunction(self):
        g = ground_sentence(Forall("x", Atom("P", (Var("x"),))), ["e1", "e2"])
        assert g == And(Atom("P", (App("e1", ()),)), Atom("P", (App("e2", ()),)))

    def test_exists_single_element(self):
        g = ground_sentence(Exists("x", Atom("P", (Var("x"),))), ["e1"])
        assert g == Atom("P", (App("e1", ()),))

    def test_nullary_untouched(self):
        g = ground_sentence(Atom("P", ()), ["e1", "e2", "e3"])
        assert g == Atom("P", ())

    def test_constants_substituted(self):
        sig = Signature(functions={"c": 0}, predicates={"P": 1})
        phi = Atom("P", (App("c", ()),))
        assert ground_sentence(phi, ["e1", "e2"], {"c": "e2"}) == \
            Atom("P", (App("e2", ()),))

    def test_function_symbols_rejected(self):
        phi = Atom("P", (App("f", (App("c", ()),)),))
        with pytest.raises(UsageError):
            ground_sentence(phi, ["e1"], {})


def grid_eval(phi, valuation):
    """Evaluator oracle on a nullary structure built from the valuation."""
    sig = Signature(predicates={name: 0 for name, _ in valuation})
    preds = {name: {(): tv} for (name, _), tv in valuation.items()}
    struct = Structure(sig, RAT, ("m1",), {}, preds)
    return eval_formula(phi, struct)


def branch_union_matches_eval(phi, atom_names):
    branches = compile_inf(phi)
    keys = [(name, ()) for name in atom_names]
    for values in product(GRID, repeat=len(keys)):
        valuation = dict(zip(keys, values))
        in_union = any(b.holds_for(valuation) for b in branches)
        is_inf = grid_eval(phi, valuation).is_inf
        if in_union != is_inf:
            return False, valuation
    return True, None


class TestCompile:
    def test_strict_order_branches(self):
        branches = compile_inf(parse("P ==> Q", SIG0))
        tag_sets = {tuple(sorted(b.tags.items())) for b in branches}
        p, q = ("P", ()), ("Q", ())
        assert (((p, TAG_ELEM), (q, TAG_ELEM))) in tag_sets
        assert (((p, TAG_ZERO), (q, TAG_ELEM))) in tag_sets
        assert (((p, TAG_ZERO), (q, TAG_INF))) in tag_sets
        assert (((p, TAG_ELEM), (q, TAG_INF))) in tag_sets
        assert len(branches) == 4
        elem_branch = next(b for b in branches
                           if b.tags == {p: TAG_ELEM, q: TAG_ELEM})
        assert len(elem_branch.lins) == 1 and elem_branch.lins[0].rel == "<"

    def test_delta_single_branch(self):
        branches = compile_inf(Delta(Atom("P", ())))
        assert len(branches) == 1
        assert branches[0].tags == {("P", ()): TAG_INF}
        assert not branches[0].lins

    def test_bot_is_empty_disjunction(self):
        assert compile_inf(Bot()) == []

    def test_non_ground_rejected(self):
        with pytest.raises(UsageError):
            compile_inf(Forall("x", Atom("P", (Var("x"),))))
        with pytest.raises(UsageError):
            compile_inf(Atom("P", (Var("x"),)))

    @pytest.mark.parametrize("text", [
        "P ==> Q", "P -> Q", "P /\\ Q", "P \\/ Q", "P <-> Q", "P * Q",
        "P ->l Q", "delta(P)", "~P", "~~P", "P^-1", "P^3", "P => Q",
        "one ==> P", "P ==> top", "bot", "top", "one",
        "(P -> Q) /\\ (Q -> P)", "P * Q^-1 ==> one", "delta(P) \\/ delta(Q)",
    ])
    def test_branch_union_equals_eval_handpicked(self, text):
        phi = parse(text, SIG0)
        ok, witness = branch_union_matches_eval(phi, ["P", "Q"])
        assert ok, f"{text} disagrees at {witness}"

    def test_branch_union_equals_eval_random(self):
        rng = make_rng(17)
        sig3 = Signature(predicates={"P": 0, "Q": 0, "R": 0})
        for _ in range(120):
            phi = random_formula(rng, sig3, depth=rng.randint(1, 4), qdepth=0)
            ok, witness = branch_union_matches_eval(phi, ["P", "Q", "R"])
            assert ok, f"{phi} disagrees at {witness}"

    def test_branch_budget(self, monkeypatch):
        sig = Signature(predicates={f"A{i}": 0 for i in range(12)})
        phi = parse(" \\/ ".join(f"(A{i} ==> A{(i+1) % 12})" for i in range(12)), sig)
        monkeypatch.setattr(solver, "MAX_BRANCHES", 10)
        with pytest.raises(ResourceLimitError):
            compile_inf(phi)


# Random nullary formulas over P, Q, R with every connective, for the
# properties of the branch join: operands of a binary connective, and the
# sentences of a theory, share atoms.
SIG3 = Signature(predicates={"P": 0, "Q": 0, "R": 0})
NULLARY_KEYS = [("P", ()), ("Q", ()), ("R", ())]
UNARY = {"inv": Inv, "not": Not, "delta": Delta}
BINARY = {"and": And, "or": Or, "imp": Imp, "iff": Iff, "tensor": Tensor,
          "darrow": DArrow, "ddarrow": DDArrow, "lukimp": LukImp}
LEAVES = [Atom("P"), Atom("Q"), Atom("R"), Bot(), One(), Top()]


@st.composite
def nullary_formulas(draw, depth=4):
    op = draw(st.sampled_from(["leaf", "power", *UNARY, *BINARY] if depth else ["leaf"]))
    if op == "leaf":
        return draw(st.sampled_from(LEAVES))
    if op == "power":
        return Power(draw(nullary_formulas(depth - 1)), draw(st.integers(1, 3)))
    if op in UNARY:
        return UNARY[op](draw(nullary_formulas(depth - 1)))
    return BINARY[op](draw(nullary_formulas(depth - 1)), draw(nullary_formulas(depth - 1)))


JOIN_SETTINGS = settings(max_examples=150)


class TestJoinProperty:
    @JOIN_SETTINGS
    @given(phi=nullary_formulas())
    def test_branch_union_is_the_inf_set(self, phi):
        ok, valuation = branch_union_matches_eval(phi, ["P", "Q", "R"])
        assert ok, f"{phi} disagrees at {valuation}"

    @JOIN_SETTINGS
    @given(phi=nullary_formulas(), psi=nullary_formulas())
    def test_two_sentence_theory_is_sat_when_the_grid_has_a_model(self, phi, psi):
        theory = [phi, psi]
        result = find_model(SIG3, theory, 1)
        if result.sat:
            assert models_theory(result.structure, theory)
        grid_model = any(
            grid_eval(phi, valuation).is_inf and grid_eval(psi, valuation).is_inf
            for valuation in (dict(zip(NULLARY_KEYS, values))
                              for values in product(GRID, repeat=3))
        )
        assert result.sat or not grid_model


# Atom values off the fixed GRID: 0, inf, the powers 2^k for k in [-3, 3], and 3/2.
OFF_GRID = [ZERO, INF, rat(3, 2)] + [rat(Fraction(2) ** k) for k in range(-3, 4)]


class TestCompiledBranchesProperty:
    @settings(max_examples=300)
    @given(phi=nullary_formulas(depth=3),
           values=st.tuples(*[st.sampled_from(OFF_GRID)] * len(NULLARY_KEYS)))
    def test_branch_union_is_the_inf_set_off_the_grid(self, phi, values):
        valuation = dict(zip(NULLARY_KEYS, values))
        in_union = any(b.holds_for(valuation) for b in compile_inf(phi))
        assert in_union == grid_eval(phi, valuation).is_inf, valuation


def check_witness(constraints, witness):
    for c in constraints:
        value = c.const + sum(k * witness[v] for v, k in c.coeffs)
        if c.rel == "<":
            assert value < 0, c
        elif c.rel == "<=":
            assert value <= 0, c
        else:
            assert value == 0, c


class TestFourierMotzkin:
    def test_cycle_unsat(self):
        result = fm_solve([Constraint.make({"x": 1, "y": -1}, 0, "<"),
                           Constraint.make({"y": 1, "x": -1}, 0, "<")])
        assert not result.sat
        assert "0 < 0" in result.certificate

    def test_single_lower_bound(self):
        result = fm_solve([Constraint.make({"x": -1}, 0, "<")])
        assert result.sat
        assert result.witness["x"] == 1

    def test_equality_substitution(self):
        constraints = [Constraint.make({"x": 1, "y": -1}, 0, "<"),
                       Constraint.make({"x": 2, "y": -1}, 0, "=")]
        result = fm_solve(constraints)
        assert result.sat
        check_witness(constraints, result.witness)

    def test_inconsistent_equalities(self):
        result = fm_solve([Constraint.make({"x": 1}, 0, "="),
                           Constraint.make({"x": 1}, -1, "=")])
        assert not result.sat

    def test_constant_contradiction(self):
        result = fm_solve([Constraint.make({}, 1, "<=")])
        assert not result.sat

    def test_nonstrict_chain_sat(self):
        constraints = [Constraint.make({"x": 1, "y": -1}, 0, "<="),
                       Constraint.make({"y": 1, "x": -1}, 0, "<=")]
        result = fm_solve(constraints)
        assert result.sat
        check_witness(constraints, result.witness)

    def test_budget(self, monkeypatch):
        # complete difference system: every variable has n-1 lower and
        # n-1 upper bounds, so the first elimination squares the count
        n = 14
        constraints = [
            Constraint.make({f"x{i}": 1, f"x{j}": -1}, -1, "<")
            for i in range(n) for j in range(n) if i != j
        ]
        monkeypatch.setattr(solver, "MAX_FM_CONSTRAINTS", 200)
        with pytest.raises(ResourceLimitError):
            fm_solve(constraints)

    def test_agrees_with_grid_search(self):
        rng = make_rng(23)
        grid_points = [Fraction(n, 2) for n in range(-6, 7)]
        for _ in range(150):
            nvars = rng.randint(1, 3)
            names = [f"x{i}" for i in range(nvars)]
            constraints = []
            for _ in range(rng.randint(1, 4)):
                coeffs = {v: rng.randint(-3, 3) for v in names}
                constraints.append(Constraint.make(
                    coeffs, rng.randint(-2, 2), rng.choice(["<", "<=", "="])))
            result = fm_solve(constraints)
            grid_sat = any(
                all(_holds(c, dict(zip(names, point))) for c in constraints)
                for point in product(grid_points, repeat=nvars)
            )
            if grid_sat:
                assert result.sat, constraints
            if result.sat:
                check_witness(constraints, result.witness)


def _holds(c, assignment):
    value = c.const + sum(k * assignment[v] for v, k in c.coeffs)
    return {"<": value < 0, "<=": value <= 0, "=": value == 0}[c.rel]


class TestFindModel:
    def test_simple_strict_order_theory(self):
        result = find_model(SIG0, [parse("P ==> Q", SIG0)], 2)
        assert result.sat
        assert models_theory(result.structure, [parse("P ==> Q", SIG0)])

    def test_contradictory_strata(self):
        theory = [parse("delta(P)", SIG0), parse("~delta(P)", SIG0)]
        result = find_model(SIG0, theory, 3)
        assert not result.sat

    def test_remark_fragment_witness(self):
        sig = Signature(predicates={"rho": 0, "eps": 0})
        theory = parse_theory("one ==> rho\neps ==> top\nrho^3 ==> eps\n", sig)
        result = find_model(sig, theory, 1)
        assert result.sat
        assert models_theory(result.structure, theory)
        # deterministic branch order makes the witness reproducible
        again = find_model(sig, theory, 1)
        assert dump_structure(again.structure) == dump_structure(result.structure)

    def test_quantified_theory(self):
        theory = [parse("forall x. P(x) ==> top", SIG1),
                  parse("exists x. one ==> P(x)", SIG1)]
        result = find_model(SIG1, theory, 2)
        assert result.sat
        assert models_theory(result.structure, theory)

    def test_constants_enumerated(self):
        sig = Signature(functions={"c": 0}, predicates={"P": 1})
        theory = [parse("delta(P(c))", sig),
                  parse("exists x. ~delta(P(x))", sig)]
        result = find_model(sig, theory, 2)
        assert result.sat
        assert models_theory(result.structure, theory)

    def test_function_symbols_rejected(self):
        sig = Signature(functions={"f": 1}, predicates={"P": 1})
        with pytest.raises(UsageError):
            find_model(sig, [parse("forall x. P(f(x))", sig)], 1)

    def test_non_sentence_rejected(self):
        with pytest.raises(UsageError):
            find_model(SIG1, [Atom("P", (Var("x"),))], 1)

    def test_soundness_random_suite(self):
        rng = make_rng(29)
        sig = Signature(predicates={"P": 0, "Q": 0, "R": 1})
        sat_count = 0
        for _ in range(60):
            theory = [random_formula(rng, sig, depth=rng.randint(1, 3), qdepth=1)
                      for _ in range(rng.randint(1, 3))]
            theory = [phi for phi in theory if not free_vars(phi)]
            if not theory:
                continue
            try:
                result = find_model(sig, theory, 2)
            except ResourceLimitError:
                continue
            if result.sat:
                sat_count += 1
                assert models_theory(result.structure, theory)
        assert sat_count >= 10


class TestRemarkLab:
    def test_small_fragment(self):
        report = remark_lab(3)
        assert report.standard_ok and report.lex_ok
        assert report.standard_structure.preds["rho"][()] == rat(2)
        assert report.standard_structure.preds["eps"][()] == rat(16)

    def test_hundred(self):
        report = remark_lab(100)
        assert report.standard_ok and report.lex_ok
        assert report.standard_structure.preds["eps"][()] == rat(Fraction(2) ** 101)

    def test_lex_witness_is_uniform(self):
        # the same lex structure validates fragments of any size
        for n in (1, 10, 50):
            assert remark_lab(n).lex_ok

    def test_n_positive(self):
        with pytest.raises(UsageError):
            remark_lab(0)
