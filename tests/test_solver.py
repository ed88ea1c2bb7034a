"""Grounding, compilation, Fourier-Motzkin, model search, remark lab."""

from fractions import Fraction
from itertools import product
from operator import index

import pytest
from hypothesis import example, given, settings, strategies as st

from agodel import (
    INF, RAT, ZERO, And, App, Atom, Bot, Constraint, ConstraintSystem, DArrow, DDArrow, Delta,
    Exists, Forall, Iff, Imp, Inv, LukImp, Not, One, Or, Power,
    ResourceLimitError, Signature, Structure, Tensor, Top, UsageError, Var,
    compile_inf,
    dump_structure, eval_formula, expand_derived, find_model, fm_solve, free_vars,
    ground_sentence, models_theory, parse, parse_theory, print_formula, rat, remark_lab,
    similarity_axioms,
)
from agodel import solver
from agodel.semantics import ORDERED
from agodel.syntax import nodes
from agodel.values import K_ELEM, K_INF, K_ZERO
from conftest import holds_for, make_rng, random_formula

SIG0 = Signature(predicates={"P": 0, "Q": 0})
SIG1 = Signature(predicates={"P": 1})
SIG12 = Signature(predicates={f"A{i}": 0 for i in range(12)})
TWELVE_ARROWS = " \\/ ".join(f"(A{i} ==> A{(i + 1) % 12})" for i in range(12))

GRID = [ZERO, rat(1, 2), rat(1), rat(2), INF]


def make_constraint(coeffs, const, rel):
    """The Constraint sum(coeffs) + const REL 0: int coefficients (a
    Fraction raises TypeError), sorted by their variables' natural order."""
    items = tuple(sorted((v, index(c)) for v, c in coeffs.items() if c))
    return Constraint(items, index(const), rel)


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


def branch_union_matches_eval(phi, atom_names, *others):
    """Whether the union of compile_inf(phi, *others)'s branches is the set
    of grid valuations at which every one of the sentences is INF."""
    branches = compile_inf(phi, *others)
    # canonical order, each comparison listed once, and the branches of one
    # sentence pairwise distinct (the join of several may repeat a key)
    order = [b.canonical_key() for b in branches]
    assert order == sorted(order) and all(len(set(b.lins)) == len(b.lins) for b in branches)
    assert others or len(set(order)) == len(order)
    keys = [(name, ()) for name in atom_names]
    for values in product(GRID, repeat=len(keys)):
        valuation = dict(zip(keys, values))
        in_union = any(holds_for(b, valuation) for b in branches)
        is_inf = all(grid_eval(psi, valuation).is_inf for psi in (phi, *others))
        if in_union != is_inf:
            return False, valuation
    return True, None


class TestCompile:
    def test_strict_order_branches(self):
        branches = compile_inf(parse("P ==> Q", SIG0))
        tag_sets = {tuple(sorted(b.tags.items())) for b in branches}
        p, q = ("P", ()), ("Q", ())
        assert (((p, K_ELEM), (q, K_ELEM))) in tag_sets
        assert (((p, K_ZERO), (q, K_ELEM))) in tag_sets
        assert (((p, K_ZERO), (q, K_INF))) in tag_sets
        assert (((p, K_ELEM), (q, K_INF))) in tag_sets
        assert len(branches) == 4
        elem_branch = next(b for b in branches
                           if b.tags == {p: K_ELEM, q: K_ELEM})
        assert len(elem_branch.lins) == 1 and elem_branch.lins[0].rel == "<"

    def test_delta_single_branch(self):
        branches = compile_inf(Delta(Atom("P", ())))
        assert len(branches) == 1
        assert branches[0].tags == {("P", ()): K_INF}
        assert not branches[0].lins

    def test_bot_is_empty_disjunction(self):
        assert compile_inf(Bot()) == []

    def test_no_sentence_is_one_empty_branch(self):
        assert compile_inf() == [ConstraintSystem({}, [])]

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

    def test_branch_union_equals_eval_three_atom_difference(self):
        # ==> compares P * Q with R strictly: the compared forms differ in three atoms
        ok, witness = branch_union_matches_eval(parse("P * Q ==> R", SIG3), ["P", "Q", "R"])
        assert ok, f"P * Q ==> R disagrees at {witness}"

    def test_branch_union_equals_eval_random(self):
        rng = make_rng(17)
        sig3 = Signature(predicates={"P": 0, "Q": 0, "R": 0})
        for _ in range(120):
            phi = random_formula(rng, sig3, depth=rng.randint(1, 4), qdepth=0)
            ok, witness = branch_union_matches_eval(phi, ["P", "Q", "R"])
            assert ok, f"{phi} disagrees at {witness}"

    def test_shared_subformula_compiles_as_its_tree_copy(self):
        # P^4 expands to (P * P) * (P * P) with one shared P * P
        shared = expand_derived(parse("P^4", SIG0))
        p = lambda: Atom("P", ())  # noqa: E731
        tree = Tensor(Tensor(p(), p()), Tensor(p(), p()))
        assert shared == tree
        assert len(nodes(shared)) == 3 and len(nodes(tree)) == 7
        assert compile_inf(shared) == compile_inf(tree)

    def test_branch_budget(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_BRANCHES", 10)
        with pytest.raises(ResourceLimitError):
            compile_inf(parse(TWELVE_ARROWS, SIG12))

    def test_branch_budget_edge(self, monkeypatch):
        # the longest branch list compiled for this sentence at n = 2 has 457
        # entries: a change in the raw branch counts moves this edge
        sig = Signature(predicates={"R": 2})
        phi = parse("forall x. exists y. R(x, y) ==> R(y, x)", sig)
        ground = ground_sentence(phi, solver.element_names(sig, 2))
        monkeypatch.setattr(solver, "MAX_BRANCHES", 456)
        with pytest.raises(ResourceLimitError):
            compile_inf(ground)
        monkeypatch.setattr(solver, "MAX_BRANCHES", 457)
        assert len(compile_inf(ground)) == 9

    def test_default_budget_is_exceeded_at_n3(self, monkeypatch):
        # the refused And node has 151,649 operand pairs and yields none; the
        # nodes below it yield a few thousand in all
        yielded = count_joined_pairs(monkeypatch)
        sig = Signature(predicates={"P": 1})
        phi = parse("forall x. exists y. P(x) ==> P(y)", sig)
        with pytest.raises(ResourceLimitError, match=r"And with 151649 operand pairs$"):
            compile_inf(ground_sentence(phi, solver.element_names(sig, 3)))
        assert yielded[-1] == 0
        assert sum(yielded) < solver.MAX_BRANCHES

    def test_refused_join_builds_no_pair(self, monkeypatch):
        yielded = count_joined_pairs(monkeypatch)
        monkeypatch.setattr(solver, "MAX_BRANCHES", 20)
        with pytest.raises(ResourceLimitError,
                           match=r"exceeds budget 20: Or with 43 operand pairs$"):
            compile_inf(parse(TWELVE_ARROWS, SIG12))
        assert yielded[-1] == 0

    def test_order_splits_over_budget_are_refused_per_pair(self, monkeypatch):
        # P ==> Q joins 9 pairs, and its order splits make 11 branches
        monkeypatch.setattr(solver, "MAX_BRANCHES", 10)
        with pytest.raises(ResourceLimitError,
                           match=r"exceeds budget 10: DDArrow with at least 11 branches$"):
            compile_inf(parse("P ==> Q", SIG0))
        monkeypatch.setattr(solver, "MAX_BRANCHES", 11)
        assert compile_inf(parse("P ==> Q", SIG0))


def count_joined_pairs(monkeypatch):
    """Wrap solver._join; the returned list gets, per join, the number of
    pairs drawn from it."""
    join, yielded = solver._join, []

    def counting(left, right):
        count, pairs = join(left, right)
        yielded.append(0)

        def counted():
            for pair in pairs:
                yielded[-1] += 1
                yield pair
        return count, counted()

    monkeypatch.setattr(solver, "_join", counting)
    return yielded


def packed(tags):
    """Tags {atom number: kind} as the solver packs them: kind + 1 in bits
    2i and 2i + 1 for atom number i."""
    return sum(kind + 1 << 2 * i for i, kind in tags.items())


def unpacked(tags):
    """The tags {atom number: kind} of packed tags, read field by field."""
    return {i: (tags >> 2 * i & 3) - 1 for i in range(tags.bit_length()) if tags >> 2 * i & 3}


# Branch lists for the join's pair count: every branch of a side tags that
# side's atoms, the two sides share none, all or some of their atoms, and
# the tags take one, two or all three strata.  "apart" numbers its atoms
# far from 0, so the top set bit of a side's tags varies.
JOIN_SHAPES = {"disjoint": ((0, 1), (2, 3)), "shared": ((0, 1, 2), (0, 1, 2)),
               "overlapping": ((0, 1, 2), (1, 2, 3)), "apart": ((3, 9), (9, 14))}


@st.composite
def branch_lists(draw):
    atoms_left, atoms_right = JOIN_SHAPES[draw(st.sampled_from(sorted(JOIN_SHAPES)))]
    strata = sorted(draw(st.sets(st.sampled_from([K_ZERO, K_ELEM, K_INF]), min_size=1)))
    sides = []
    for atoms in (atoms_left, atoms_right):
        tag_rows = draw(st.lists(st.tuples(*[st.sampled_from(strata)] * len(atoms)),
                                 max_size=12))
        sides.append([(packed(dict(zip(atoms, row))), [], i) for i, row in enumerate(tag_rows)])
    return sides


class TestJoinCount:
    @settings(max_examples=300)
    @given(sides=branch_lists(), budget=st.integers(-1, 150))
    @example(sides=([], [(packed({0: K_ZERO}), [], 0)]), budget=-1)
    @example(sides=([(packed({0: K_ELEM}), [], 0)], []), budget=-1)
    def test_count_is_the_number_of_pairs_when_it_exceeds_the_budget(self, sides, budget):
        left, right = sides
        agreeing = []
        for a in left:
            for b in right:
                tags_a, tags_b = unpacked(a[0]), unpacked(b[0])
                if all(tags_a[k] == tags_b[k] for k in tags_a.keys() & tags_b.keys()):
                    agreeing.append((packed({**tags_a, **tags_b}), a, b))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "MAX_BRANCHES", budget)
            count, pairs = solver._join(left, right)
        assert list(pairs) == agreeing
        if len(agreeing) > budget:
            assert count == len(agreeing)
        else:
            assert len(agreeing) <= count <= budget


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
    def test_two_sentence_branch_union_is_the_joint_inf_set(self, phi, psi):
        ok, valuation = branch_union_matches_eval(phi, ["P", "Q", "R"], psi)
        assert ok, f"{phi} and {psi} disagree at {valuation}"

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
OFF_GRID_VALUATIONS = st.tuples(*[st.sampled_from(OFF_GRID)] * len(NULLARY_KEYS))
ORDERED_BINARY = {name: kind for name, kind in BINARY.items() if kind in ORDERED}


@st.composite
def products(draw, depth=2):
    """Group-valued terms over P, Q, R: products, powers up to ^5, inverses."""
    op = draw(st.sampled_from(["leaf", "tensor", "power", "inv"] if depth else ["leaf"]))
    if op == "leaf":
        return draw(st.sampled_from([Atom("P"), Atom("Q"), Atom("R"), One()]))
    if op == "tensor":
        return Tensor(draw(products(depth - 1)), draw(products(depth - 1)))
    if op == "power":
        return Power(draw(products(depth - 1)), draw(st.integers(1, 5)))
    return Inv(draw(products(depth - 1)))


@st.composite
def ordered_over_products(draw):
    """An ordered connective between two products: its order cases split
    on linear forms with coefficients other than 1."""
    kind = ORDERED_BINARY[draw(st.sampled_from(sorted(ORDERED_BINARY)))]
    return kind(draw(products()), draw(products()))


class TestCompiledBranchesProperty:
    @staticmethod
    def assert_union_is_the_inf_set(phi, values):
        valuation = dict(zip(NULLARY_KEYS, values))
        in_union = any(holds_for(b, valuation) for b in compile_inf(phi))
        assert in_union == grid_eval(phi, valuation).is_inf, valuation

    @settings(max_examples=300)
    @given(phi=nullary_formulas(depth=3), values=OFF_GRID_VALUATIONS)
    def test_branch_union_is_the_inf_set_off_the_grid(self, phi, values):
        self.assert_union_is_the_inf_set(phi, values)

    @settings(max_examples=300)
    @given(phi=ordered_over_products(), values=OFF_GRID_VALUATIONS)
    def test_ordered_connectives_over_products_off_the_grid(self, phi, values):
        self.assert_union_is_the_inf_set(phi, values)


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
        result = fm_solve([make_constraint({"x": 1, "y": -1}, 0, "<"),
                           make_constraint({"y": 1, "x": -1}, 0, "<")])
        assert not result.sat
        assert "0 < 0" in result.certificate

    def test_single_lower_bound(self):
        result = fm_solve([make_constraint({"x": -1}, 0, "<")])
        assert result.sat
        assert result.witness["x"] == 1

    def test_equality_substitution(self):
        constraints = [make_constraint({"x": 1, "y": -1}, 0, "<"),
                       make_constraint({"x": 2, "y": -1}, 0, "=")]
        result = fm_solve(constraints)
        assert result.sat
        check_witness(constraints, result.witness)

    def test_equality_with_non_unit_coefficient(self):
        # 2x - 3y = 0 makes x = 3y/2, which is not an integer form in y
        constraints = [make_constraint({"x": 2, "y": -3}, 0, "="),
                       make_constraint({"x": 1, "y": -1}, 0, "<")]
        result = fm_solve(constraints)
        assert result.sat
        check_witness(constraints, result.witness)
        assert result.witness["x"].denominator == 2

    def test_inconsistent_equalities(self):
        result = fm_solve([make_constraint({"x": 1}, 0, "="),
                           make_constraint({"x": 1}, -1, "=")])
        assert not result.sat

    def test_constant_contradiction(self):
        result = fm_solve([make_constraint({}, 1, "<=")])
        assert not result.sat

    def test_constant_equalities(self):
        # one check reads every constant row: 0 = 0 holds, 0 = 2 refutes
        below = make_constraint({"x": 1}, 0, "<")
        result = fm_solve([make_constraint({}, 0, "="), below])
        assert result.sat and result.witness["x"] < 0
        result = fm_solve([below, make_constraint({}, 2, "=")])
        assert (result.sat, result.certificate) == (False, "0 = 2 is false")
        # an equality that substitution reduces to a false constant
        result = fm_solve([make_constraint({"x": 1}, 0, "="), make_constraint({"x": 2}, -1, "=")])
        assert (result.sat, result.certificate) == (False, "0 = -1 is false")

    def test_nonstrict_chain_sat(self):
        constraints = [make_constraint({"x": 1, "y": -1}, 0, "<="),
                       make_constraint({"y": 1, "x": -1}, 0, "<=")]
        result = fm_solve(constraints)
        assert result.sat
        check_witness(constraints, result.witness)

    def test_budget(self, monkeypatch):
        # complete difference system: every variable has n-1 lower and
        # n-1 upper bounds, so the first elimination squares the count
        n = 14
        constraints = [
            make_constraint({f"x{i}": 1, f"x{j}": -1}, -1, "<")
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
                coeffs = {v: rng.randint(-12, 12) for v in names}
                constraints.append(make_constraint(
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

    def test_combined_budget_edge(self, monkeypatch):
        # each sentence compiles to 7 branches within the budget; joined on Q
        # they make 15 combined branches
        sig = Signature(predicates={"P": 0, "Q": 0, "R": 0})
        theory = [parse("P -> Q", sig), parse("Q -> R", sig)]
        monkeypatch.setattr(solver, "MAX_BRANCHES", 14)
        with pytest.raises(ResourceLimitError,
                           match=r"^combined case-branch count exceeds budget 14: "
                                 r"15 branch pairs \(domain size 1, no constants\)$"):
            find_model(sig, theory, 1)
        monkeypatch.setattr(solver, "MAX_BRANCHES", 15)
        result = find_model(sig, theory, 1)
        assert result.sat and models_theory(result.structure, theory)

    def test_domain_bound(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_DOMAIN", 5)
        contradiction = [parse("P /\\ ~P", SIG0)]
        with pytest.raises(ResourceLimitError, match=r"^domain size 6 exceeds the bound 5$"):
            find_model(SIG0, contradiction, 6)
        assert not find_model(SIG0, contradiction, 5).sat
        # a model below the bound is found whatever n_max is
        result = find_model(SIG0, [parse("P", SIG0)], 6)
        assert result.sat and len(result.structure.universe) == 1

    def test_records_are_named_tuples(self):
        result = find_model(SIG0, [parse("P", SIG0)], 2)
        assert result == (result.structure, result.stats)
        assert result.stats == solver.SolveStats(1, 1)
        assert solver.SolveStats._fields == ("constant_maps_tried", "branches_examined")
        with pytest.raises(AttributeError):
            result.stats.branches_examined = 0

    def test_sentences_compile_in_order(self):
        # a sentence that is never INF ends the call before any later
        # sentence compiles, so only the order decides whether the search
        # meets the budget hit of fe at n = 3
        fe = parse("forall x. exists y. P(x) ==> P(y)", SIG1)
        result = find_model(SIG1, [Bot(), fe], 3)
        assert not result.sat and result.stats.constant_maps_tried == 3
        with pytest.raises(ResourceLimitError, match=r"And with 151649 operand pairs "
                                                     r"\(domain size 3, no constants\)$"):
            find_model(SIG1, [fe, Bot()], 3)

    @pytest.mark.parametrize("sig, text, stops_at, pairs", [
        (Signature(predicates={"R": 2}), "forall x. exists y. R(x, y) ==> R(y, x)", 3, 55009),
        (Signature(predicates={"e": 2}, equality="e"),
         "exists x. exists y. ~delta(e(x, y)) /\\ (one ==> e(x, y))", 2, 184605),
    ], ids=["forall-exists-R", "similarity-gap"])
    def test_default_budget_hits(self, sig, text, stops_at, pairs):
        # the other two budget hits of the benchmark's ladder: below
        # stops_at the search ends without one, and from it on every
        # search stops there, at one And node
        theory = [parse(text, sig)]
        if sig.equality:
            theory = similarity_axioms(sig) + theory
        find_model(sig, theory, stops_at - 1)
        for n_max in (stops_at, 3):
            with pytest.raises(ResourceLimitError,
                               match=rf"budget 20000: And with {pairs} operand pairs "
                                     rf"\(domain size {stops_at}, no constants\)$"):
                find_model(sig, theory, n_max)

    def test_budget_hit_names_where_the_search_stopped(self, monkeypatch):
        # at n = 1 both constants name e1 and P(e1) ==> P(e1) has 3 branches;
        # at n = 2 the map c -> e1, d -> e2 splits 9 pairs into 11 branches
        sig = Signature(functions={"c": 0, "d": 0}, predicates={"P": 1})
        monkeypatch.setattr(solver, "MAX_BRANCHES", 10)
        assert not find_model(sig, [parse("P(c) ==> P(d)", sig)], 1).sat
        with pytest.raises(ResourceLimitError) as caught:
            find_model(sig, [parse("P(c) ==> P(d)", sig)], 2)
        assert str(caught.value) == ("case-branch count exceeds budget 10: DDArrow with at "
                                     "least 11 branches (domain size 2, constant map "
                                     "c -> e1, d -> e2)")
        tb = caught.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code is solver.compile_inf.__code__

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


SIG_CD = Signature(functions={"c": 0, "d": 0}, predicates={"P": 1, "Q": 0, "R": 2})


def product_sweep(sig, theory, n_max):
    """find_model spelled out over every map of the constants, in product
    order, with each sentence compiled alone and the branches joined here:
    the dumped witness, "unsat", or the budget message."""
    constants = sig.constants()
    try:
        for n in range(1, n_max + 1):
            elements = solver.element_names(sig, n)
            for values in product(elements, repeat=len(constants)):
                const_map = dict(zip(constants, values))
                per_sentence = []
                for phi in theory:
                    branches = compile_inf(ground_sentence(phi, elements, const_map))
                    if not branches:
                        break
                    per_sentence.append(branches)
                if len(per_sentence) < len(theory):
                    continue
                for system in dict_join(per_sentence):
                    result = fm_solve(system.lins)
                    if result.sat:
                        return dump_structure(solver._witness_structure(
                            sig, elements, const_map, system, result.witness))
        return "unsat"
    except ResourceLimitError as e:
        return f"limit: {e}"


def dict_join(per_sentence):
    """The sentences' branch lists joined left to right on dict tags: pairs
    whose tags agree, the union of their tags and their comparisons
    deduplicated in order, sorted by canonical_key.  Over the budget, the
    combined refusal."""
    merged = [ConstraintSystem({}, [])]
    for branches in per_sentence:
        merged = [ConstraintSystem({**a.tags, **b.tags}, list(dict.fromkeys(a.lins + b.lins)))
                  for a in merged for b in branches
                  if all(a.tags[k] == b.tags[k] for k in a.tags.keys() & b.tags.keys())]
        if len(merged) > solver.MAX_BRANCHES:
            raise ResourceLimitError(f"combined case-branch count exceeds budget "
                                     f"{solver.MAX_BRANCHES}: {len(merged)} branch pairs")
    return sorted(merged, key=ConstraintSystem.canonical_key)


def canonical_outcome(sig, theory, n_max):
    try:
        result = find_model(sig, theory, n_max)
    except ResourceLimitError as e:
        return f"limit: {e}", None
    return (dump_structure(result.structure) if result.sat else "unsat"), result


class TestConstantMaps:
    def test_restricted_growth_strings(self):
        # one map per set partition of the constants into at most n blocks
        assert list(solver._constant_maps("abc", 3)) == [
            tuple(s) for s in ("aaa", "aab", "aba", "abb", "abc")]
        assert list(solver._constant_maps("ab", 3)) == [
            tuple(s) for s in ("aaa", "aab", "aba", "abb")]
        assert list(solver._constant_maps("abc", 1)) == [("a",)]
        assert list(solver._constant_maps("abc", 0)) == [()]

    def test_maps_tried_when_unsat(self):
        theory = [parse("delta(P(c))", SIG_CD), parse("~delta(P(c))", SIG_CD)]
        result = find_model(SIG_CD, theory, 3)
        assert not result.sat
        assert result.stats.constant_maps_tried == 1 + 2 + 2

    def test_first_model_is_that_of_the_product_sweep(self):
        rng = make_rng(2203)
        outcomes = {"sat": 0, "unsat": 0, "limit": 0}
        fewer = apart = 0
        for _ in range(200):
            theory, size = [], rng.randint(1, 3)
            while len(theory) < size:
                phi = random_formula(rng, SIG_CD, depth=rng.randint(1, 2), qdepth=2)
                if not free_vars(phi):
                    theory.append(phi)
            expected = product_sweep(SIG_CD, theory, 3)
            got, result = canonical_outcome(SIG_CD, theory, 3)
            assert got == expected, [print_formula(phi) for phi in theory]
            kind = got if got == "unsat" else "limit" if got.startswith("limit") else "sat"
            outcomes[kind] += 1
            if kind == "unsat":
                fewer += result.stats.constant_maps_tried == 1 + 2 + 2
            elif kind == "sat":
                consts = result.structure.funcs
                apart += consts["c"][()] != consts["d"][()]
        # both verdicts occur, some models name two elements, and UNSAT
        # theories skip the 9 other maps
        assert outcomes["sat"] >= 50 and outcomes["unsat"] >= 20, outcomes
        assert apart >= 5
        assert fewer == outcomes["unsat"]


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
