"""Generated subgroups, canonical families, embeddings, equivalence, diagrams."""

import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from agodel import (
    INF, LEX2, RAT, ZERO, Atom, Delta, EmbeddingCandidate, GeneratedSubgroup,
    ResourceLimitError, Signature, Structure, UsageError, bounded_ediag,
    bounded_elementary_equiv, check_embedding, factor_positive, find_model,
    formula_family, free_vars, generated_subgroup, is_exhaustive, lex2, one, print_formula,
    rat, satisfies, search_embeddings, sentence_family, tv_power,
)
from agodel import modeltheory, solver
from agodel.modeltheory import (
    FAMILY_CACHE_SIZE, MAX_FAMILY_BUDGET, diagram_signature, separating_sentence,
)
from agodel.semantics import ranks_of, value_tables
from agodel.syntax import App, Exists, Forall, Inv, Tensor, Var
from conftest import (
    formula_depth, make_rng, oracle, random_structure, random_truth_value, reduct,
)

SIGP = Signature(predicates={"P": 0})
SIGPQ1 = Signature(predicates={"P": 1, "Q": 0})  # the family workload's signature


def single(value, sig=SIGP, pred="P"):
    return Structure(sig, RAT, ("m1",), {}, {pred: {(): value}})


class TestFactorization:
    def test_examples(self):
        assert factor_positive(Fraction(12)) == {2: 2, 3: 1}
        assert factor_positive(Fraction(9, 10)) == {3: 2, 2: -1, 5: -1}
        assert factor_positive(Fraction(1)) == {}

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            factor_positive(Fraction(-2))

    def test_large_prime_power_is_fine(self):
        assert factor_positive(Fraction(2) ** 101) == {2: 101}

    def test_oversized_cofactor_refused(self):
        with pytest.raises(ResourceLimitError):
            factor_positive(Fraction((10 ** 7 + 19) * (10 ** 7 + 79)))


class TestGeneratedSubgroup:
    def test_membership_examples(self):
        g23 = GeneratedSubgroup((Fraction(2), Fraction(3)))
        assert g23.member(12)
        assert not g23.member(5)
        assert not GeneratedSubgroup((Fraction(4),)).member(2)

    def test_inverses_and_identity(self):
        g = GeneratedSubgroup((Fraction(6), Fraction(10)))
        assert g.member(1)
        assert g.member(Fraction(1, 6))
        assert g.member(Fraction(3, 5))  # 6/10 reduced

    def test_basis_reduction(self):
        assert GeneratedSubgroup((Fraction(4), Fraction(1, 2))).same_subgroup(
            GeneratedSubgroup((Fraction(2),)))

    def test_member_matches_brute_force(self):
        rng = make_rng(31)
        primes = (2, 3, 5)
        for _ in range(80):
            gens = []
            for _ in range(rng.randint(1, 3)):
                vec = [rng.randint(-3, 3) for _ in primes]
                value = Fraction(1)
                for p, e in zip(primes, vec):
                    value *= Fraction(p) ** e
                if value != 1:
                    gens.append(value)
            if not gens:
                continue
            group = GeneratedSubgroup(tuple(gens))
            target_vec = [rng.randint(-3, 3) for _ in primes]
            target = Fraction(1)
            for p, e in zip(primes, target_vec):
                target *= Fraction(p) ** e
            # brute force small integer combinations of the generators
            bound = 6
            combos = product(range(-bound, bound + 1), repeat=len(gens))
            brute = any(
                all(sum(z * factor_positive(g).get(p, 0)
                        for z, g in zip(zs, gens)) == t
                    for p, t in zip(primes, target_vec))
                for zs in combos
                for _ in [0]
            )
            if brute:
                assert group.member(target)
            if not group.member(target):
                assert not brute

    def test_structure_generators_are_atomic_values(self):
        sig = Signature(predicates={"P": 1, "Q": 0})
        for universe, p_table, q_value, values in [
            (("m1", "m2"), {("m1",): rat(2), ("m2",): INF}, rat(3),
             [rat(2), INF, rat(3)]),
            # repeated table values are listed once, in first-seen order
            (("m1", "m2", "m3"), {("m1",): rat(3), ("m2",): rat(2), ("m3",): rat(3)},
             rat(2), [rat(3), rat(2)]),
        ]:
            struct = Structure(sig, RAT, universe, {}, {"P": p_table, "Q": {(): q_value}})
            assert struct.atomic_values() == values
            group = generated_subgroup(struct)
            assert set(group.generators) == {Fraction(2), Fraction(3)}

    def test_lex2_unsupported(self):
        sig = Signature(predicates={"P": 0})
        struct = Structure(sig, LEX2, ("m1",), {}, {"P": {(): lex2(1, 2)}})
        with pytest.raises(UsageError):
            generated_subgroup(struct)


class TestExhaustive:
    def test_examples(self):
        assert is_exhaustive(single(rat(2)), GeneratedSubgroup((Fraction(2),)))
        assert not is_exhaustive(single(rat(2)),
                                 GeneratedSubgroup((Fraction(2), Fraction(3))))
        sig = Signature(predicates={"P": 0, "Q": 0})
        struct = Structure(sig, RAT, ("m1",), {}, {
            "P": {(): rat(4)}, "Q": {(): rat(1, 2)},
        })
        assert is_exhaustive(struct, GeneratedSubgroup((Fraction(2),)))


class TestFormulaFamily:
    def test_deterministic(self):
        sig = Signature(predicates={"P": 1, "e": 2}, equality="e")
        a = formula_family(sig, 2)
        b = formula_family(sig, 2)
        assert a == b

    def test_monotone_in_depth(self):
        sig = Signature(predicates={"P": 1})
        for d in range(0, 3):
            smaller = set(formula_family(sig, d))
            larger = set(formula_family(sig, d + 1))
            assert smaller <= larger

    def test_depths_respected(self):
        sig = Signature(predicates={"P": 1})
        for phi in formula_family(sig, 2):
            assert formula_depth(phi) <= 2

    @pytest.mark.parametrize("sig", [
        Signature(predicates={"P": 1, "Q": 0}),
        Signature(functions={"c": 0, "f": 1}, predicates={"P": 1, "Q": 2, "R": 0}),
    ], ids=["P-Q", "P-Q-R-c-f"])
    def test_families_filter_the_enumeration(self, sig):
        # the enumeration's depths and free variables are those of the formulas
        for budget in (7, 120, 600):
            everything = formula_family(sig, None, budget)
            assert len(everything) == budget
            for depth in range(0, 4):
                family = [phi for phi in everything if formula_depth(phi) <= depth]
                assert formula_family(sig, depth, budget) == family
                assert sentence_family(sig, depth, budget) == \
                    [phi for phi in family if not free_vars(phi)]

    def test_delta_of_nullary_atom_present_at_depth_one(self):
        sig = Signature(predicates={"P": 0})
        assert Delta(Atom("P")) in formula_family(sig, 1)

    def test_sentences_are_closed(self):
        sig = Signature(predicates={"P": 1, "Q": 0})
        for phi in sentence_family(sig, 2):
            assert not free_vars(phi)

    def test_constants_appear_as_terms(self):
        sig = Signature(functions={"c": 0}, predicates={"P": 1})
        assert Atom("P", (App("c", ()),)) in formula_family(sig, 0)

    def test_depth_limit_guard(self):
        with pytest.raises(ResourceLimitError):
            formula_family(SIGP, 9)

    @pytest.mark.parametrize("call", [
        lambda: formula_family(SIGP, None, 0),
        lambda: formula_family(SIGP, 1, 0),
        lambda: sentence_family(SIGP, 1, -5),
        lambda: formula_family(SIGP, -1),
        lambda: sentence_family(SIGP, -1),
    ], ids=["enumerate-budget", "formula-budget", "sentence-budget",
            "formula-depth", "sentence-depth"])
    def test_empty_family_arguments_refused(self, call):
        with pytest.raises(UsageError):
            call()

    def test_results_are_copies_of_the_cache(self):
        sig = Signature(predicates={"P": 1, "Q": 0})
        for make in (lambda: formula_family(sig, None, 50),
                     lambda: formula_family(sig, 2, 50),
                     lambda: sentence_family(sig, 2, 50)):
            first = make()
            expected = list(first)
            first.clear()
            assert make() == expected and expected

    def test_cache_is_bounded(self):
        for budget in range(1, 2 * FAMILY_CACHE_SIZE + 2):
            formula_family(SIGP, None, budget)
        info = modeltheory._enumeration.cache_info()
        assert info.maxsize == FAMILY_CACHE_SIZE
        assert info.currsize <= FAMILY_CACHE_SIZE


class TestSentencePlan:
    @pytest.mark.parametrize("sig", [
        Signature(predicates={"P": 1, "Q": 0}),
        Signature(functions={"c": 0, "f": 1}, predicates={"P": 1, "Q": 2, "R": 0}),
        Signature(predicates={"R": 2}),
    ], ids=["P-Q", "P-Q-R-c-f", "R2"])
    def test_sentences_and_their_subformulas_in_family_order(self, sig):
        for budget in (7, 120, 600):
            for depth in range(0, 4):
                full = modeltheory._family(sig, depth, budget).members
                cut = modeltheory._family(sig, depth, budget, sentences=True).members
                # every sentence of the full family, in family order
                assert [m.formula for m in cut if not m.free] == \
                    [m.formula for m in full if not m.free]
                # a subsequence of the full family, each kid kept and renumbered
                order = {m.formula: i for i, m in enumerate(full)}
                assert [order[m.formula] for m in cut] == sorted(order[m.formula] for m in cut)
                needed = set()
                for i, member in enumerate(cut):
                    original = full[order[member.formula]]
                    assert member[2:] == original[2:]  # free variables, kernel, moves
                    assert [cut[k].formula for k in member.kids] == \
                        [full[k].formula for k in original.kids]
                    assert all(k < i for k in member.kids)
                    needed.update(member.kids)
                # and nothing else: each member is a sentence or a kept kid
                assert all(not m.free or i in needed for i, m in enumerate(cut))

    def test_open_members_no_sentence_contains_are_dropped(self):
        sig = Signature(predicates={"P": 1, "Q": 0})
        assert len(modeltheory._family(sig, 3, 600).members) == 600
        assert len(modeltheory._family(sig, 3, 600, sentences=True).members) == 600 - 264

    @pytest.mark.parametrize("sig, depth, sentences, members, classes", [
        (SIGPQ1, 3, True, 336, 129),  # the family workload's equiv plan
        (SIGPQ1, None, False, 600, 209),
        (Signature(predicates={"P": 1, "R": 2}), None, False, 600, 332),
        # the family workload's six diagram plans: one constant per element
        (SIGPQ1.with_constants(["c_1"]), 1, True, 70, 31),
        (SIGPQ1.with_constants(["c_1"]), 2, True, 232, 83),
        (SIGPQ1.with_constants(["c_1", "c_2"]), 1, True, 101, 48),
        (SIGPQ1.with_constants(["c_1", "c_2"]), 2, True, 261, 111),
        (SIGPQ1.with_constants(["c_1", "c_2", "c_3"]), 1, True, 138, 69),
        (SIGPQ1.with_constants(["c_1", "c_2", "c_3"]), 2, True, 330, 151),
    ], ids=["equiv", "P-Q", "P-R", "ediag-1-1", "ediag-1-2", "ediag-2-1", "ediag-2-2",
            "ediag-3-1", "ediag-3-2"])
    def test_class_counts(self, sig, depth, sentences, members, classes):
        cut = modeltheory._family(sig, depth, 600, sentences)
        reduced, of = cut.classes
        assert (len(cut.members), len(reduced)) == (members, classes)
        assert len(of) == members and set(of) == set(range(classes))

    def test_subformulas_of_open_subformulas_are_kept(self):
        # R(x, y) is in no sentence's kids, only in those of forall x. R(x, y)
        sig = Signature(predicates={"R": 2})
        cut = modeltheory._family(sig, 2, 600, sentences=True).members
        inner = Atom("R", (Var("x"), Var("y")))
        assert Forall("y", Forall("x", inner)) in [m.formula for m in cut]
        assert inner in [m.formula for m in cut]


class TestEmbeddings:
    def test_identity_embedding(self):
        struct = single(rat(2))
        cand = EmbeddingCandidate.make({"m1": "m1"})
        assert check_embedding(struct, struct, cand, 3)

    def test_squaring_transport(self):
        m2, m4 = single(rat(2)), single(rat(4))
        cand = EmbeddingCandidate.make({"m1": "m1"}, Fraction(2))
        for depth in range(0, 3):
            assert check_embedding(m2, m4, cand, depth)
        found = search_embeddings(m2, m4, 2)
        assert [c.exponent for c in found] == [Fraction(2)]

    def test_transport_applies_to_bounds(self):
        cand = EmbeddingCandidate.make({"m1": "m1"}, Fraction(2))
        assert cand.transport(ZERO) == ZERO
        assert cand.transport(INF) == INF
        assert cand.transport(rat(3)) == rat(9)
        assert cand.transport(rat(2, 3)) == rat(4, 9)

    def test_fractional_transport_needs_integral_exponents(self):
        cand = EmbeddingCandidate.make({"m1": "m1"}, Fraction(1, 2))
        assert cand.transport(rat(4)) == rat(2)
        assert cand.transport(rat(2)) is None

    def test_order_mismatch_has_no_embedding(self):
        sig = Signature(predicates={"P": 0, "Q": 0})
        # P < Q on the source, P > Q on the target: no order-preserving T
        source = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(2)}, "Q": {(): rat(3)}})
        target = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(3)}, "Q": {(): rat(2)}})
        assert search_embeddings(source, target, 1) == []

    def test_source_larger_than_target(self):
        sig = Signature(predicates={"P": 1})
        rng = make_rng(37)
        source = random_structure(rng, sig, size=3)
        target = random_structure(rng, sig, size=2)
        assert search_embeddings(source, target, 1) == []

    def test_function_commutation_enforced(self):
        sig = Signature(functions={"f": 1}, predicates={"P": 1})
        source = Structure(sig, RAT, ("a", "b"),
                           {"f": {("a",): "b", ("b",): "a"}},
                           {"P": {("a",): INF, ("b",): INF}})
        target = Structure(sig, RAT, ("a", "b"),
                           {"f": {("a",): "a", ("b",): "b"}},
                           {"P": {("a",): INF, ("b",): INF}})
        cand = EmbeddingCandidate.make({"a": "a", "b": "b"})
        assert not check_embedding(source, target, cand, 0)
        assert check_embedding(source, source, cand, 2)

    def test_search_results_pass_check(self):
        rng = make_rng(41)
        sig = Signature(predicates={"P": 1, "Q": 0})
        for _ in range(20):
            source = random_structure(rng, sig, size=rng.randint(1, 2))
            target = random_structure(rng, sig, size=rng.randint(1, 3))
            for cand in search_embeddings(source, target, 1):
                assert check_embedding(source, target, cand, 1)
                # transport is monotone in depth: lower depths also pass
                assert check_embedding(source, target, cand, 0)

    def test_first_failing_comparison_decides(self):
        # P is compared before Q; Q's cofactor is past the trial-division bound
        big = rat(1000000000039 * 1000000000061)
        source = Structure(SIGPQ, RAT, ("m1",), {}, {"P": {(): rat(4)}, "Q": {(): big}})
        halved = EmbeddingCandidate.make({"m1": "m1"}, Fraction(1, 2))
        for p, outcome in ((rat(3), False), (rat(2), ResourceLimitError)):
            target = Structure(SIGPQ, RAT, ("m1",), {}, {"P": {(): p}, "Q": {(): rat(5)}})
            if outcome is False:
                assert not check_embedding(source, target, halved, 0)
            else:
                with pytest.raises(ResourceLimitError):
                    check_embedding(source, target, halved, 0)

    def test_lex2_identity_embedding(self):
        sig = Signature(predicates={"P": 0})
        struct = Structure(sig, LEX2, ("m1",), {}, {"P": {(): lex2(1, 2)}})
        assert check_embedding(struct, struct, EmbeddingCandidate.make({"m1": "m1"}), 2)
        with pytest.raises(UsageError):
            check_embedding(struct, struct,
                            EmbeddingCandidate.make({"m1": "m1"}, Fraction(2)), 1)


class TestEquivalence:
    def test_identical_structures(self):
        struct = single(rat(2))
        for depth in range(0, 4):
            assert bounded_elementary_equiv(struct, struct, depth)

    def test_crispness_separates_strata(self):
        m_elem, m_inf = single(rat(2)), single(INF)
        assert not bounded_elementary_equiv(m_elem, m_inf, 1)
        witness = separating_sentence(m_elem, m_inf, 1)
        assert witness is not None
        family = sentence_family(SIGP, 1)
        assert Delta(Atom("P")) in family
        assert satisfies(m_inf, Delta(Atom("P")))
        assert not satisfies(m_elem, Delta(Atom("P")))

    def test_isomorphic_pair_equivalence(self):
        # mutual embeddings with inverse transports force bounded equivalence
        sig = Signature(predicates={"P": 0, "Q": 0})
        a = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(2)}, "Q": {(): rat(8)}})
        b = Structure(sig, RAT, ("m1",), {}, {"P": {(): rat(4)}, "Q": {(): rat(64)}})
        fwd = search_embeddings(a, b, 2)
        back = search_embeddings(b, a, 2)
        assert fwd and back
        assert any(f.exponent * g.exponent == 1 for f in fwd for g in back)
        assert bounded_elementary_equiv(a, b, 2)

    def test_signature_mismatch(self):
        other = Structure(Signature(predicates={"R": 0}), RAT, ("m1",),
                          {}, {"R": {(): INF}})
        with pytest.raises(UsageError):
            bounded_elementary_equiv(single(rat(2)), other, 1)


class TestDiagram:
    def test_unary_inf_atom_in_depth_zero_diagram(self):
        sig = Signature(predicates={"P": 1})
        struct = Structure(sig, RAT, ("m1",), {}, {"P": {("m1",): INF}})
        diagram = bounded_ediag(struct, 0)
        assert Atom("P", (App("c_m1", ()),)) in diagram

    def test_diagram_sentences_hold_after_expansion(self):
        sig = Signature(predicates={"P": 1, "Q": 0})
        rng = make_rng(43)
        struct = random_structure(rng, sig, size=2)
        diagram = bounded_ediag(struct, 1)
        # re-check each sentence against an independently expanded structure
        from agodel.modeltheory import diagram_signature
        sig2, names = diagram_signature(struct)
        funcs = dict(struct.funcs)
        for element, cname in names.items():
            funcs[cname] = {(): element}
        expanded = Structure(sig2, struct.backend, struct.universe, funcs,
                             dict(struct.preds))
        for phi in diagram:
            assert satisfies(expanded, phi)

    def test_fresh_constant_names_avoid_collisions(self):
        sig = Signature(functions={"c_m1": 0}, predicates={"P": 1})
        struct = Structure(sig, RAT, ("m1",),
                           {"c_m1": {(): "m1"}},
                           {"P": {("m1",): INF}})
        from agodel.modeltheory import diagram_signature
        sig2, names = diagram_signature(struct)
        assert names["m1"] != "c_m1"
        assert names["m1"] in sig2.functions


# ---------------------------------------------------------------------------
# Family guards at every entry point

SIGPQ = Signature(predicates={"P": 0, "Q": 0})
# P < Q on one side, P > Q on the other: a depth-2 sentence separates them
LOW = Structure(SIGPQ, RAT, ("m1",), {}, {"P": {(): rat(2)}, "Q": {(): rat(3)}})
HIGH = Structure(SIGPQ, RAT, ("m1",), {}, {"P": {(): rat(3)}, "Q": {(): rat(2)}})
IDENTITY = EmbeddingCandidate.make({"m1": "m1"})

ENTRY_POINTS = {
    "check_embedding": lambda depth, budget: check_embedding(LOW, HIGH, IDENTITY, depth, budget),
    "search_embeddings": lambda depth, budget: search_embeddings(LOW, HIGH, depth, budget),
    "bounded_elementary_equiv": lambda depth, budget: bounded_elementary_equiv(
        LOW, HIGH, depth, budget),
    "separating_sentence": lambda depth, budget: separating_sentence(LOW, HIGH, depth, budget),
    "bounded_ediag": lambda depth, budget: bounded_ediag(LOW, depth, budget),
}


class TestFamilyGuard:
    def test_the_pair_is_separated_at_depth_two(self):
        assert not check_embedding(LOW, HIGH, IDENTITY, 2)
        assert search_embeddings(LOW, HIGH, 2) == []
        assert not bounded_elementary_equiv(LOW, HIGH, 2)
        assert bounded_ediag(LOW, 2)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("depth,budget", [(-1, 600), (2, 0), (2, -3)])
    def test_empty_family_refused(self, entry, depth, budget):
        with pytest.raises(UsageError):
            ENTRY_POINTS[entry](depth, budget)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_depth_limit(self, entry):
        with pytest.raises(ResourceLimitError):
            ENTRY_POINTS[entry](9, 600)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_budget_limit(self, entry):
        ENTRY_POINTS[entry](2, MAX_FAMILY_BUDGET)
        with pytest.raises(ResourceLimitError):
            ENTRY_POINTS[entry](2, MAX_FAMILY_BUDGET + 1)


# ---------------------------------------------------------------------------
# Value tables against per-assignment evaluation

ORACLE_SIG = Signature(functions={"c": 0, "f": 1}, predicates={"P": 1, "Q": 2, "R": 0})


def oracle_check_embedding(source, target, candidate, depth, budget):
    """check_embedding spelled as one evaluation per formula and assignment,
    after every atomic table entry, each transported on its own."""
    h = candidate.h
    for name, table in source.funcs.items():
        for args, out in table.items():
            if target.funcs[name][tuple(h[a] for a in args)] != h[out]:
                return False
    for name, table in source.preds.items():
        for args, tv in table.items():
            if candidate.transport(tv) != target.preds[name][tuple(h[a] for a in args)]:
                return False
    for phi in formula_family(source.signature, depth, budget):
        fv = sorted(free_vars(phi))
        for values in product(source.universe, repeat=len(fv)):
            env = dict(zip(fv, values))
            transported = candidate.transport(oracle(phi, source, env, set()))
            if transported is None:
                return False
            if transported != oracle(phi, target, {v: h[e] for v, e in env.items()}, set()):
                return False
    return True


def oracle_separating_sentence(a, b, depth, budget):
    for phi in sentence_family(a.signature, depth, budget):
        if satisfies(a, phi) != satisfies(b, phi):
            return phi
    return None


def expanded(struct):
    """struct over its diagram signature, each element named by its constant."""
    sig, names = diagram_signature(struct)
    funcs = dict(struct.funcs)
    for element, cname in names.items():
        funcs[cname] = {(): element}
    return Structure(sig, struct.backend, struct.universe, funcs, dict(struct.preds))


def oracle_ediag(struct, depth, budget):
    struct = expanded(struct)
    return [phi for phi in sentence_family(struct.signature, depth, budget)
            if satisfies(struct, phi)]


def squared(struct):
    """The copy with every group value squared: exponent 2 embeds it."""
    preds = {name: {args: tv_power(tv, 2) if tv.is_elem else tv for args, tv in table.items()}
             for name, table in struct.preds.items()}
    return Structure(struct.signature, struct.backend, struct.universe,
                     dict(struct.funcs), preds)


class TestTablesAgainstOracle:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           size=st.integers(1, 3))
    def test_every_cell_is_the_evaluated_value(self, seed, backend, size):
        # the oracle, not eval_formula, which runs the same pass as the tables
        struct = random_structure(make_rng(seed), ORACLE_SIG, size=size, backend=backend)
        members = modeltheory._family(ORACLE_SIG, 3, 1000).members
        # at budget 1,000 the family reaches every connective: at 600 it held no Tensor
        assert {type(m.formula) for m in members} >= {
            *modeltheory._UNARY_OPS, *modeltheory._BINARY_OPS, Forall, Exists}
        V = ranks_of(struct)
        checked = 0
        for member, table in zip(members, value_tables(struct, members)):
            cells = list(product(struct.universe, repeat=len(member.free)))
            assert len(table) == len(cells)
            for cell, elements in zip(table, cells):
                env = dict(zip(member.free, elements))
                assert V.decode(cell) == oracle(member.formula, struct, env, set()), \
                    member.formula
            checked += 1
        assert checked == len(members) == len(formula_family(ORACLE_SIG, 3, 1000))

    @settings(max_examples=120)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           depth=st.integers(0, 3), budget=st.sampled_from([40, 150, 600]))
    def test_checks_match_per_assignment_loops(self, seed, backend, depth, budget):
        rng = make_rng(seed)
        source = random_structure(rng, ORACLE_SIG, size=rng.randint(1, 3), backend=backend)
        other = random_structure(rng, ORACLE_SIG, size=rng.randint(1, 3), backend=backend)
        pairs = [(source, source, 1), (source, other, 1)]
        if backend is RAT:
            pairs += [(source, squared(source), Fraction(2)),
                      (squared(source), source, Fraction(1, 2)),
                      (source, other, Fraction(2))]
        for a, b, exponent in pairs:
            for image in permutations(b.universe, len(a.universe)):
                # failing injections included: every injection is tried
                candidate = EmbeddingCandidate.make(dict(zip(a.universe, image)), exponent)
                assert check_embedding(a, b, candidate, depth, budget) == \
                    oracle_check_embedding(a, b, candidate, depth, budget)
        search_depth = min(depth, 2)
        found = search_embeddings(source, squared(source) if backend is RAT else source,
                                  search_depth, budget)
        assert found and all(
            oracle_check_embedding(source, squared(source) if backend is RAT else source,
                                   c, search_depth, budget) for c in found)
        assert separating_sentence(source, other, depth, budget) == \
            oracle_separating_sentence(source, other, depth, budget)
        assert bounded_ediag(source, min(depth, 2), budget) == \
            oracle_ediag(source, min(depth, 2), budget)


def full_family_separating(a, b, depth, budget):
    """separating_sentence read off the tables of the whole family."""
    members = modeltheory._family(a.signature, depth, budget).members
    top_a, top_b = ranks_of(a).INF, ranks_of(b).INF
    for member, here, there in zip(members, value_tables(a, members),
                                   value_tables(b, members)):
        if not member.free and (here[0] == top_a) != (there[0] == top_b):
            return member.formula
    return None


def full_family_ediag(struct, depth, budget):
    """bounded_ediag read off the tables of the whole family."""
    struct = expanded(struct)
    top = ranks_of(struct).INF
    members = modeltheory._family(struct.signature, depth, budget).members
    return [member.formula for member, table in zip(members, value_tables(struct, members))
            if not member.free and table[0] == top]


SENTENCE_SIGS = [ORACLE_SIG, Signature(predicates={"P": 1, "Q": 0}),
                 Signature(predicates={"R": 2})]


class TestSentencePlanAgainstFullFamily:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           sig=st.sampled_from(SENTENCE_SIGS), size=st.integers(1, 3),
           depth=st.integers(0, 3), budget=st.sampled_from([4, 22, 61, 150, 600]))
    # forall y. forall x. R(x, y) is in this family: a kept open member's kids
    @example(seed=1, backend=RAT, sig=SENTENCE_SIGS[2], size=2, depth=2, budget=600)
    def test_sentence_checks_match_the_whole_family(self, seed, backend, sig, size,
                                                     depth, budget):
        # each budget stops the enumeration inside a layer, expansions included
        rng = make_rng(seed)
        a = random_structure(rng, sig, size=size, backend=backend)
        b = random_structure(rng, sig, size=size, backend=backend)
        for x, y in ((a, b), (a, a), (expanded(a), expanded(b))):
            expected = full_family_separating(x, y, depth, budget)
            assert separating_sentence(x, y, depth, budget) == expected
            assert bounded_elementary_equiv(x, y, depth, budget) == (expected is None)
            assert sentence_family(x.signature, depth, budget) == [
                phi for phi in formula_family(x.signature, depth, budget)
                if not free_vars(phi)]
        assert bounded_ediag(a, depth, budget) == full_family_ediag(a, depth, budget)


# ---------------------------------------------------------------------------
# The family up to proved equality


def check_representatives(struct, cut):
    """Every member's table in struct is its class representative's, and
    the representative is the class's first member, with its free variables."""
    reduced, classes = cut.classes
    tables = list(value_tables(struct, cut.members))
    reduced_tables = list(value_tables(struct, reduced))
    first = {}
    for i, (member, c) in enumerate(zip(cut.members, classes)):
        first.setdefault(c, i)
        assert member.free == reduced[c].free
        assert tables[i] == reduced_tables[c], member.formula
    assert [cut.members[i].formula for i in first.values()] == [s.formula for s in reduced]


@pytest.fixture
def fresh_family_cache():
    """A test that changes how classes are proved starts and ends with an
    empty family cache."""
    modeltheory._enumeration.cache_clear()
    yield
    modeltheory._enumeration.cache_clear()


def proofs_seen(monkeypatch):
    """(a, b, verdict) per proof tried from now on, as printed formulas."""
    seen = []
    prove = modeltheory._proved_equal

    def recorded(a, b):
        verdict = prove(a, b)
        seen.append((print_formula(a), print_formula(b), verdict))
        return verdict

    monkeypatch.setattr(modeltheory, "_proved_equal", recorded)
    return seen


class TestProvedClasses:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32), backend=st.sampled_from([RAT, LEX2]),
           size=st.integers(1, 4))
    def test_every_member_has_its_representatives_table(self, seed, backend, size):
        # over the family workload's equiv plan, its diagram plans (the
        # expansion's, at depth 1 and 2) and two budget-600 families
        rng = make_rng(seed)
        for sig, depth, sentences in ((SIGPQ1, 3, True), (SIGPQ1, None, False),
                                      (Signature(predicates={"P": 1, "R": 2}), None, False)):
            struct = random_structure(rng, sig, size=size, backend=backend)
            check_representatives(struct, modeltheory._family(sig, depth, 600, sentences))
        struct = expanded(random_structure(rng, SIGPQ1, size=size, backend=backend))
        for depth in (1, 2):
            check_representatives(struct, modeltheory._family(struct.signature, depth, 600,
                                                               sentences=True))

    def test_colliding_fingerprints_are_not_merged(self, monkeypatch, fresh_family_cache):
        # on crisp probes P(x) and P(x) * P(x) have one fingerprint, but
        # P(x) = 2 tells them apart, so the solver refuses the merge; the
        # classes are those of the default probes, found with more proofs
        cut = modeltheory._family(SIGPQ1, None, 600)
        expected = cut.classes.of
        modeltheory._enumeration.cache_clear()
        monkeypatch.setattr(modeltheory, "_PROBE_VALUES", (ZERO, INF))
        seen = proofs_seen(monkeypatch)
        cut = modeltheory._family(SIGPQ1, None, 600)
        assert cut.classes.of == expected
        assert ("P(x)", "P(x) * P(x)", False) in seen
        at = {m.formula: c for m, c in zip(cut.members, expected)}
        px = Atom("P", (Var("x"),))
        assert at[px] != at[Tensor(px, px)]
        assert at[px] == at[Inv(Inv(px))]

    def test_a_proof_over_the_budget_merges_nothing(self, monkeypatch, fresh_family_cache):
        # every proof joins a <-> b's two operands, so a budget of 0 branches
        # refuses them all and no member is merged; at 8 some proofs are
        # refused and others succeed.  The checks give the answers they give
        # with every merge, and no ResourceLimitError reaches them
        rng = make_rng(7)
        pairs = [(random_structure(rng, SIGPQ1, size=rng.randint(1, 3)),
                  random_structure(rng, SIGPQ1, size=rng.randint(1, 3))) for _ in range(20)]
        answers = [(separating_sentence(a, b, 3), bounded_ediag(a, 2)) for a, b in pairs]
        assert sum(sep is not None for sep, _ in answers) >= 10
        refused = []
        compile_inf = modeltheory.compile_inf

        def counted(*sentences):
            try:
                return compile_inf(*sentences)
            except ResourceLimitError:
                refused.append(sentences)
                raise

        monkeypatch.setattr(modeltheory, "compile_inf", counted)
        seen = proofs_seen(monkeypatch)
        for budget in (0, 8):
            modeltheory._enumeration.cache_clear()
            monkeypatch.setattr(solver, "MAX_BRANCHES", budget)
            refused.clear()
            seen.clear()
            assert [(separating_sentence(a, b, 3), bounded_ediag(a, 2))
                    for a, b in pairs] == answers
            merged = sum(verdict for _, _, verdict in seen)
            # a refused proof is one that does not merge
            assert refused and len(refused) + merged <= len(seen)
            cut = modeltheory._family(SIGPQ1, 3, 600, sentences=True)
            if budget == 0:
                assert len(refused) == len(seen) and merged == 0
                assert len(cut.classes.plan) == len(cut.members) == 336
            else:
                assert merged and 129 < len(cut.classes.plan) < 336


# ---------------------------------------------------------------------------
# Exponent pinning against a per-pair derivation


def oracle_candidate_exponent(source, target, h):
    """The exponent derived pair by pair: strata must match, and every
    non-identity pair's exponent vectors must be parallel with one common
    positive ratio."""
    exponent = None
    for name, table in source.preds.items():
        for args, tv in table.items():
            image = target.preds[name][tuple(h[a] for a in args)]
            if tv.kind != image.kind:
                return None
            if not tv.is_elem:
                continue
            vec_s = factor_positive(tv.payload)
            vec_t = factor_positive(image.payload)
            if not vec_s:
                if vec_t:
                    return None
                continue
            if not vec_t or set(vec_s) != set(vec_t):
                return None
            ratios = {Fraction(vec_t[p], vec_s[p]) for p in vec_s}
            if len(ratios) != 1:
                return None
            r = ratios.pop()
            if r <= 0 or (exponent is not None and exponent != r):
                return None
            exponent = r
    return exponent if exponent is not None else Fraction(1)


# identity values, both bounds, several primes, squares (for ratio 1/2)
EXPONENT_POOL = [ZERO, INF, rat(1), rat(2), rat(3), rat(4), rat(9), rat(1, 4), rat(6),
                 rat(36), rat(3, 2), rat(9, 4), rat(5)]
EXPONENT_SIG = Signature(predicates={"P": 1, "Q": 0})


def scaled(tv, r):
    """tv^r for a rational r of either sign; None when irrational."""
    if not tv.is_elem:
        return tv
    value = Fraction(1)
    for p, e in factor_positive(tv.payload).items():
        if (e * r).denominator != 1:
            return None
        value *= Fraction(p) ** int(e * r)
    return rat(value)


class TestCandidateExponent:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_matches_the_per_pair_derivation(self, data):
        # most target cells are the source's scaled by one ratio, the rest
        # drawn at random: strata, primes and ratios then mismatch at times
        size = data.draw(st.integers(1, 2))
        universe = tuple(f"m{i}" for i in range(1, size + 1))
        draw_value = st.sampled_from(EXPONENT_POOL)
        ratio = data.draw(st.sampled_from(
            [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)]))
        source_preds = {"P": {(m,): data.draw(draw_value) for m in universe},
                        "Q": {(): data.draw(draw_value)}}
        target_preds = {}
        for name, table in source_preds.items():
            target_preds[name] = {}
            for args, tv in table.items():
                image = scaled(tv, ratio) if data.draw(st.integers(0, 3)) else None
                target_preds[name][args] = image if image is not None else data.draw(draw_value)
        source = Structure(EXPONENT_SIG, RAT, universe, {}, source_preds)
        target = Structure(EXPONENT_SIG, RAT, universe, {}, target_preds)
        for image in permutations(universe):
            h = dict(zip(universe, image))
            assert modeltheory._atomic_step(source, target, h) == \
                oracle_candidate_exponent(source, target, h)

    def test_only_the_pinning_pair_is_factored(self):
        # an atomic value with a cofactor past the trial-division bound, after
        # the pair that pins the exponent, is compared, not factored: the
        # per-pair derivation refuses it, the pinned transport decides
        big = rat(1000000000039 * 1000000000061)
        h = {"m1": "m1"}
        # (source P, source Q, target P, target Q, exponent)
        for p, q, p_image, q_image, exponent in ((rat(2), rat(3), rat(4), big, None),
                                                 (rat(2), big, rat(2), big, Fraction(1))):
            source = Structure(SIGPQ, RAT, ("m1",), {}, {"P": {(): p}, "Q": {(): q}})
            target = Structure(SIGPQ, RAT, ("m1",), {}, {"P": {(): p_image}, "Q": {(): q_image}})
            with pytest.raises(ResourceLimitError):
                oracle_candidate_exponent(source, target, h)
            assert modeltheory._atomic_step(source, target, h) == exponent
            found = search_embeddings(source, target, 1)
            assert [c.exponent for c in found] == ([] if exponent is None else [exponent])


# ---------------------------------------------------------------------------
# One embedding definition: the check and the search share the atomic step

SIGT = Signature(predicates={"T": 3})
TERNARY = ("a", "b", "c")


def ternary(value):
    """T over a, b, c: the group identity everywhere except T(a, b, c) = value."""
    return Structure(SIGT, value.backend, TERNARY, {}, {"T": {
        args: value if args == TERNARY else one(value.backend)
        for args in product(TERNARY, repeat=3)}})


ONE_DEFINITION_SIG = Signature(predicates={"T": 3, "P": 1})
# the least budget whose family holds every connective and both quantifiers
# is 573, so the family reaches past the atomic step
ONE_DEFINITION_BUDGET = 600


def one_definition_pair(data, backend):
    """(source, target): a random source over T/3 and P/1 and a target
    that is a random structure, or the source with a clone or two added
    (each reading its original's values), its group values raised to a
    power (1 for lex2) and, at times, one entry redrawn."""
    seed = data.draw(st.integers(0, 2**32))
    rng = make_rng(seed)
    source = random_structure(rng, ONE_DEFINITION_SIG, size=rng.randint(1, 3), backend=backend)
    if data.draw(st.integers(0, 3)) == 0:
        return source, random_structure(rng, ONE_DEFINITION_SIG, size=rng.randint(1, 3),
                                        backend=backend)
    original = {m: m for m in source.universe}
    for i in range(rng.randint(0, 3 - len(source.universe))):
        original[f"clone{i}"] = rng.choice(source.universe)
    power = rng.randint(1, 3) if backend is RAT else 1
    target = substructure(source, original)
    preds = {name: {args: tv_power(tv, power) if tv.is_elem else tv
                    for args, tv in table.items()}
             for name, table in target.preds.items()}
    if rng.random() < 0.5:
        name = rng.choice(sorted(preds))
        preds[name][rng.choice(sorted(preds[name]))] = random_truth_value(rng, backend)
    return source, Structure(ONE_DEFINITION_SIG, backend, target.universe, {}, preds)


class TestOneEmbeddingDefinition:
    @pytest.mark.parametrize("here,there", [(rat(2), rat(3)), (lex2(2, 1), lex2(3, 1))],
                             ids=["rat", "lex2"])
    def test_ternary_entry_is_checked_exactly(self, here, there):
        # every atom of the family repeats a variable in T's three places,
        # so only the exact atomic check reads T(a, b, c)
        source, target = ternary(here), ternary(there)
        identity = EmbeddingCandidate.make({m: m for m in TERNARY})
        for depth in range(3):
            assert not check_embedding(source, target, identity, depth)
            assert identity.mapping not in {
                c.mapping for c in search_embeddings(source, target, depth)}
            assert check_embedding(source, source, identity, depth)

    @pytest.mark.parametrize("mapping", [(("a", "c"), ("b", "c")), (("a", "c"), ("a", "d"))],
                             ids=["repeated-target", "repeated-source"])
    def test_candidate_is_an_injective_function(self, mapping):
        # the only guard: a -> c, b -> c transports every value of {a, b}
        # (P = 2 on both) into {c} (P = 2), so a check would accept it
        with pytest.raises(UsageError, match="injective"):
            EmbeddingCandidate(mapping)

    def test_candidates_for_one_map_are_equal(self):
        # the mapping is stored sorted, whatever the order of its pairs
        given = EmbeddingCandidate((("b", "d"), ("a", "c")))
        made = EmbeddingCandidate.make({"a": "c", "b": "d"})
        assert given == made and given.mapping == (("a", "c"), ("b", "d"))
        assert len({given, made}) == 1

    def test_a_map_that_does_not_commute_factors_nothing(self):
        # big's cofactor is past the trial-division bound.  The identity does
        # not commute with c, so its pair (big, big) is never factored; the
        # swap commutes, and its first pair, big against 0, refuses it
        big = rat(1000000000039 * 1000000000061)
        sig = Signature(functions={"c": 0}, predicates={"P": 1})
        source = Structure(sig, RAT, ("a", "b"), {"c": {(): "a"}},
                           {"P": {("a",): big, ("b",): big}})
        target = Structure(sig, RAT, ("a", "b"), {"c": {(): "b"}},
                           {"P": {("a",): big, ("b",): ZERO}})
        for h in ({"a": "a", "b": "b"}, {"a": "b", "b": "a"}):
            assert not check_embedding(source, target, EmbeddingCandidate.make(h), 1)
        assert search_embeddings(source, target, 1) == []

    @settings(max_examples=150)
    @given(data=st.data(), backend=st.sampled_from([RAT, LEX2]), depth=st.integers(0, 2))
    def test_search_is_the_check_at_the_pinned_exponent(self, data, backend, depth):
        # (h, e) is found exactly when the atomic step gives e for h and the
        # check accepts h with e, for every injection h
        source, target = one_definition_pair(data, backend)
        budget = ONE_DEFINITION_BUDGET
        found = {c.mapping: c.exponent for c in search_embeddings(source, target, depth, budget)}
        fixed = None if backend is RAT else Fraction(1)
        for image in permutations(target.universe, len(source.universe)):
            h = dict(zip(source.universe, image))
            exponent = modeltheory._atomic_step(source, target, h, fixed)
            accepted = exponent is not None and check_embedding(
                source, target, EmbeddingCandidate.make(h, exponent), depth, budget)
            assert found.get(EmbeddingCandidate.make(h).mapping) == \
                (exponent if accepted else None), h


# ---------------------------------------------------------------------------
# The paper's AEC axioms as properties of the bounded checks

AEC_SIG = Signature(predicates={"P": 1, "R": 2})
# the least budget whose family holds every connective and both quantifiers is 297
AEC_BUDGET = 300


@pytest.mark.parametrize("sig, budget", [(AEC_SIG, AEC_BUDGET),
                                         (ONE_DEFINITION_SIG, ONE_DEFINITION_BUDGET)],
                         ids=["AEC", "one-definition"])
def test_property_budgets_reach_every_connective(sig, budget):
    # at depth 1, the least depth of the properties' tables
    assert {type(phi) for phi in formula_family(sig, 1, budget)} >= {
        *modeltheory._UNARY_OPS, *modeltheory._BINARY_OPS, Forall, Exists}


def extension(rng, struct, prefix, clones=1, most=4, power=None, redraw=0):
    """(copy, candidate): struct renamed onto fresh names in a random
    order, with up to clones clones of random elements added while it has
    fewer than most elements, and every group value raised to power (a
    random power of 1-3 when None).  A clone reads its original's entries
    and function images; then each entry that involves a clone is redrawn
    with probability redraw.  The candidate maps each element to its new
    name with that power as exponent: collapsing a clone onto its original
    preserves every formula's value, so with redraw 0 the candidate embeds
    struct into the copy at every depth, and without a clone it is an
    isomorphism."""
    order = rng.sample(range(len(struct.universe)), len(struct.universe))
    names = {m: f"{prefix}{i}" for i, m in zip(order, struct.universe)}
    original = {name: m for m, name in names.items()}
    for i in range(min(clones, most - len(struct.universe))):
        original[f"{prefix}clone{i}"] = rng.choice(struct.universe)
    if power is None:
        power = rng.randint(1, 3)
    funcs = {name: {args: names[struct.funcs[name][tuple(original[a] for a in args)]]
                    for args in product(original, repeat=arity)}
             for name, arity in struct.signature.functions.items()}
    preds = {}
    for name, arity in struct.signature.predicates.items():
        preds[name] = {}
        for args in product(original, repeat=arity):
            tv = struct.preds[name][tuple(original[a] for a in args)]
            if redraw and not set(args) <= set(names.values()) and rng.random() < redraw:
                tv = random_truth_value(rng, struct.backend)
            preds[name][args] = tv_power(tv, power) if tv.is_elem else tv
    copy = Structure(struct.signature, struct.backend, tuple(original), funcs, preds)
    return copy, EmbeddingCandidate.make(names, Fraction(power))


def substructure(struct, original):
    """The structure over the keys of original whose tables read each key
    as the element of struct it maps to: a restriction when original is
    the identity on a subset, an elementary extension when it adds clones."""
    preds = {name: {args: struct.preds[name][tuple(original[a] for a in args)]
                    for args in product(original, repeat=arity)}
             for name, arity in struct.signature.predicates.items()}
    return Structure(struct.signature, struct.backend, tuple(original), {}, preds)


class TestAECAxioms:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32), size=st.integers(1, 3), depth=st.integers(0, 2))
    def test_embeddings_compose(self, seed, size, depth):
        # h: M -> N and g: N -> K pass, so g o h passes with the product of
        # the exponents; every candidate the searches find is composed too
        rng = make_rng(seed)
        m = random_structure(rng, AEC_SIG, size=size)
        n, h0 = extension(rng, m, "n")
        k, g0 = extension(rng, n, "k")
        budget = AEC_BUDGET
        first = [h0] + search_embeddings(m, n, depth, budget)
        second = [g0] + search_embeddings(n, k, depth, budget)
        assert check_embedding(m, n, h0, depth, budget)
        assert check_embedding(n, k, g0, depth, budget)
        for h in first:
            for g in second:
                composite = EmbeddingCandidate.make(
                    {a: g.h[b] for a, b in h.h.items()}, h.exponent * g.exponent)
                assert check_embedding(m, k, composite, depth, budget), (h, g)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32), size=st.integers(1, 4), depth=st.integers(0, 2),
           cloned=st.booleans())
    def test_coherence(self, seed, size, depth, cloned):
        # M0 is a substructure of M1: the restriction of a random M1 to a
        # random subset, or a random M0 with clones added (an elementary
        # one).  Whenever f1: M1 -> M2 and its restriction f0 to M0, with
        # the same exponent, both pass, the inclusion passes with exponent 1
        rng = make_rng(seed)
        if cloned:
            m0 = random_structure(rng, AEC_SIG, size=size)
            clones = {f"c{i}": rng.choice(m0.universe) for i in range(4 - size)}
            m1 = substructure(m0, {**{m: m for m in m0.universe}, **clones})
        else:
            m1 = random_structure(rng, AEC_SIG, size=size)
            kept = rng.sample(m1.universe, rng.randint(1, size))
            m0 = substructure(m1, {m: m for m in m1.universe if m in kept})
        m2, g = extension(rng, m1, "k")
        budget = AEC_BUDGET
        inclusion = check_embedding(m0, m1, EmbeddingCandidate.make(
            {m: m for m in m0.universe}), depth, budget)
        for f1 in [g] + search_embeddings(m1, m2, depth, budget):
            f0 = EmbeddingCandidate.make({m: f1.h[m] for m in m0.universe}, f1.exponent)
            if check_embedding(m0, m2, f0, depth, budget):
                assert inclusion, (f0, f1)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32), size=st.integers(1, 4), other=st.integers(1, 4),
           depth=st.integers(0, 2))
    def test_isomorphism_invariance(self, seed, size, other, depth):
        # a renamed copy of A with every group value raised to a power gives
        # the verdicts of A: embed (the injections found, moved across the
        # isomorphism, and each candidate moved with its exponent divided or
        # multiplied by the power passes; a search pins the exponent, 1 when
        # only 0, 1 and inf occur), equiv and ediag (each sentence's element
        # constants renamed), with B an extension of A (which A embeds
        # into) and C a random structure
        rng = make_rng(seed)
        a = random_structure(rng, AEC_SIG, size=size)
        copy, iso = extension(rng, a, "n", clones=0)
        b = extension(rng, a, "k")[0]
        c = random_structure(rng, AEC_SIG, size=other)
        budget = AEC_BUDGET
        back = EmbeddingCandidate.make({t: s for s, t in iso.h.items()}, 1 / iso.exponent)
        assert check_embedding(a, copy, iso, depth, budget)
        assert check_embedding(copy, a, back, depth, budget)
        for d in (b, c):
            moved = [EmbeddingCandidate.make({iso.h[s]: t for s, t in f.h.items()},
                                             f.exponent / iso.exponent)
                     for f in search_embeddings(a, d, depth, budget)]
            assert {f.mapping for f in search_embeddings(copy, d, depth, budget)} == \
                {f.mapping for f in moved}
            assert all(check_embedding(copy, d, f, depth, budget) for f in moved)
            moved = [EmbeddingCandidate.make({s: iso.h[t] for s, t in f.h.items()},
                                             f.exponent * iso.exponent)
                     for f in search_embeddings(d, a, depth, budget)]
            assert {f.mapping for f in search_embeddings(d, copy, depth, budget)} == \
                {f.mapping for f in moved}
            assert all(check_embedding(d, copy, f, depth, budget) for f in moved)
            assert bounded_elementary_equiv(copy, d, depth, budget) == \
                bounded_elementary_equiv(a, d, depth, budget)
        assert bounded_elementary_equiv(a, copy, depth, budget)
        renamed = {f"c_{m}": f"c_{n}" for m, n in iso.h.items()}

        def moved_text(phi):
            return re.sub(r"\bc_\w+", lambda name: renamed[name.group()], print_formula(phi))

        # the diagram family lists the element constants in name order and
        # the budget can cut a layer of it, so renaming the elements can
        # change which sentences it holds: the diagrams agree on those that
        # both families hold
        both = set(map(print_formula, sentence_family(expanded(copy).signature, depth, budget)))
        both &= set(map(moved_text, sentence_family(expanded(a).signature, depth, budget)))
        assert sorted(p for p in map(print_formula, bounded_ediag(copy, depth, budget))
                      if p in both) == \
            sorted(p for p in map(moved_text, bounded_ediag(a, depth, budget)) if p in both)


# ---------------------------------------------------------------------------
# The embedding checks against the comparison of the whole family


def passes_atomic_step(source, target, candidate):
    return modeltheory._atomic_step(source, target, candidate.h,
                                    candidate.exponent) is not None


def full_comparison_pairs(source, target, depth, budget):
    """(members, source tables, target tables) of the whole family, built
    once per pair."""
    members = modeltheory._family(source.signature, depth, budget).members
    return members, list(value_tables(source, members)), list(value_tables(target, members))


def full_comparison_check(source, target, candidate, pairs):
    """check_embedding with every member of the family compared, onto maps
    included: the atomic step, then _transports over pairs."""
    return passes_atomic_step(source, target, candidate) and \
        modeltheory._transports(source, target, candidate.h, candidate.exponent, *pairs)


def full_comparison_search(source, target, pairs):
    """search_embeddings with full_comparison_check as its check."""
    fixed = None if source.backend is RAT else Fraction(1)
    found = []
    for image in permutations(sorted(target.universe), len(source.universe)):
        h = dict(zip(sorted(source.universe), image))
        exponent = modeltheory._atomic_step(source, target, h, fixed)
        if exponent is not None:
            candidate = EmbeddingCandidate.make(h, exponent)
            if full_comparison_check(source, target, candidate, pairs):
                found.append(candidate)
    return found


# Seeds per backend and depth.  Among them the full comparison accepts 59-97
# candidates of maps that are not onto, and at depth 1 or 2 refuses 32-35 such
# maps that pass the atomic step, so both outcomes of the comparison are drawn
# (floors below).
SHORTCUT_SEEDS = 80
SHORTCUT_ACCEPTED = 50
SHORTCUT_REFUTED = 25
# at budget 600 the family holds every connective, quantifiers included
SHORTCUT_SIG = Signature(functions={"f": 1}, predicates={"P": 1, "R": 2})


class TestEmbeddingShortcuts:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("backend", [RAT, LEX2], ids=["rat", "lex2"])
    def test_checks_match_the_full_comparison(self, backend, depth):
        # onto maps: renamed copies, scaled by 1, 2 or 1/2 for rat; other
        # maps: the source planted in a target 1-2 elements larger, its new
        # elements clones with none, some or all of their entries redrawn
        budget = 600
        accepted = 0  # candidates of maps that are not onto, accepted
        refuted = 0  # maps that are not onto, past the atomic step, then refused
        for seed in range(SHORTCUT_SEEDS):
            rng = make_rng(seed)
            source = random_structure(rng, SHORTCUT_SIG, size=rng.randint(1, 3),
                                      backend=backend)
            for extra in (0, rng.randint(1, 2)):
                scale = rng.choice([1, 2, Fraction(1, 2)]) if backend is RAT else 1
                redraw = rng.choice([0, 0, 0.25, 1])
                # exponent 1/2 maps the squared source into a copy of the source
                target, planted = extension(rng, source, "t", clones=extra, most=5,
                                            power=1 if scale < 1 else scale, redraw=redraw)
                here = squared(source) if scale < 1 else source
                exponent = Fraction(scale)
                pairs = full_comparison_pairs(here, target, depth, budget)
                for image in permutations(target.universe, len(here.universe)):
                    candidate = EmbeddingCandidate.make(dict(zip(here.universe, image)),
                                                        exponent)
                    verdict = full_comparison_check(here, target, candidate, pairs)
                    assert check_embedding(here, target, candidate, depth, budget) == verdict, \
                        (seed, extra, candidate)
                    if extra and not verdict and passes_atomic_step(here, target, candidate):
                        refuted += 1
                expected = full_comparison_search(here, target, pairs)
                assert search_embeddings(here, target, depth, budget) == expected, (seed, extra)
                if redraw == 0 or not extra:  # the planted map embeds
                    planted_map = EmbeddingCandidate.make(planted.h, exponent)
                    assert check_embedding(here, target, planted_map, depth, budget)
                    assert planted_map.mapping in [c.mapping for c in expected]
                if extra:
                    accepted += len(expected)
        assert accepted >= SHORTCUT_ACCEPTED
        assert refuted >= (SHORTCUT_REFUTED if depth else 0)

    def test_searches_above_the_injection_bound_are_refused(self, monkeypatch):
        # 3 into 3 is 3! = 6 injections, at the bound; 3 into 4 is 4 * 3 * 2 = 24
        monkeypatch.setattr(modeltheory, "MAX_INJECTIONS", 6)
        rng = make_rng(5)
        three = random_structure(rng, AEC_SIG, size=3)
        four = random_structure(rng, AEC_SIG, size=4)
        assert search_embeddings(three, three, 1) == \
            full_comparison_search(three, three, full_comparison_pairs(three, three, 1, 600))
        with pytest.raises(ResourceLimitError, match="24 injections exceeds 6"):
            search_embeddings(three, four, 1)
        assert search_embeddings(four, three, 1) == []


# ---------------------------------------------------------------------------
# Table reads: lazy in a check, shared across the maps of a search


def pq1(universe, p, q=rat(3)):
    """A structure over P/1, Q/0 with P(e) = p[k] for the k-th element e."""
    return Structure(SIGPQ1, RAT, universe, {}, {"P": {(e,): v for e, v in zip(universe, p)},
                                                  "Q": {(): q}})


class TestTableReads:
    @pytest.fixture
    def reads(self, monkeypatch):
        """The tables read per value_tables pass, in the order the passes
        are made.  The classes of the depth-2 cuts over P/1, Q/0 are built
        first, so the probes' passes are not counted."""
        for sentences in (False, True):
            modeltheory._family(SIGPQ1, 2, 600, sentences).classes
        counts = []
        real = modeltheory.value_tables

        def counting(tables, k):
            for table in tables:
                counts[k] += 1
                yield table

        def counted(struct, plan):
            counts.append(0)
            return counting(real(struct, plan), len(counts) - 1)

        monkeypatch.setattr(modeltheory, "value_tables", counted)
        return counts

    def test_a_failing_check_stops_reading(self, reads):
        # exists x. P(x) reads 2 in {a} and inf in {a, b}
        plan = modeltheory._family(SIGPQ1, 2, 600).classes.plan
        identity = EmbeddingCandidate.make({"a": "a"})
        assert not check_embedding(pq1(("a",), [rat(2)]), pq1(("a", "b"), [rat(2), INF]),
                                   identity, 2)
        assert reads == [17, 17] and 2 * len(plan) == 274

    def test_an_onto_map_reads_no_table(self, reads):
        assert check_embedding(pq1(("a",), [rat(2)]), pq1(("b",), [rat(4)], rat(9)),
                               EmbeddingCandidate.make({"a": "b"}, 2), 2)
        assert reads == []

    def test_a_search_reads_each_structure_once(self, reads):
        # all 6 injections of {a, b} into {a, b, c} embed, and share one pass each
        plan = modeltheory._family(SIGPQ1, 2, 600).classes.plan
        found = search_embeddings(pq1(("a", "b"), [rat(2)] * 2),
                                  pq1(("a", "b", "c"), [rat(2)] * 3), 2)
        assert len(found) == 6
        assert reads == [len(plan), len(plan)]

    def test_separating_sentence_stops_at_the_first(self, reads):
        plan = modeltheory._family(SIGPQ1, 2, 600, sentences=True).classes.plan
        phi = separating_sentence(pq1(("a",), [rat(2)]), pq1(("a",), [INF]), 2)
        k = [step.formula for step in plan].index(phi)
        assert print_formula(phi) == "forall x. P(x)"
        assert reads == [k + 1, k + 1] and k + 1 < len(plan)


# ---------------------------------------------------------------------------
# Robinson amalgamation over a common reduct, bounded

AMALGAM_L1 = Signature(predicates={"P": 1, "Q": 2})
AMALGAM_L2 = Signature(predicates={"P": 1, "R": 1})


class TestAmalgamation:
    @pytest.mark.parametrize("seed", range(20))
    def test_theories_of_two_models_with_isomorphic_reducts_are_jointly_satisfied(self, seed):
        # M1 over {P, Q} and M2 over {P, R} share their P up to a random
        # renaming; the amalgam N is M2 plus Q moved along an isomorphism
        # of the {P}-reducts, so its reducts carry M1's and M2's theories
        rng = make_rng(seed)
        m1 = random_structure(rng, AMALGAM_L1, size=2)
        renamed = dict(zip(m1.universe, rng.sample(m1.universe, 2)))
        m2 = Structure(AMALGAM_L2, RAT, m1.universe, {}, {
            "P": {(renamed[a],): tv for (a,), tv in m1.preds["P"].items()},
            "R": random_structure(rng, AMALGAM_L2, size=2).preds["R"]})
        found = search_embeddings(reduct(m1, ["P"]), reduct(m2, ["P"]), 2)
        h = next(c for c in found if c.exponent == 1)
        joint = Signature(predicates={**AMALGAM_L1.predicates, **AMALGAM_L2.predicates})
        n = Structure(joint, RAT, m2.universe, {}, {**m2.preds, "Q": {
            tuple(h.h[a] for a in args): h.transport(tv) for args, tv in m1.preds["Q"].items()}})
        assert check_embedding(m1, reduct(n, ["P", "Q"]), h, 2)
        t1 = [phi for phi in sentence_family(AMALGAM_L1, 2) if satisfies(m1, phi)]
        t2 = [phi for phi in sentence_family(AMALGAM_L2, 2) if satisfies(m2, phi)]
        assert t1 and t2
        assert all(satisfies(n, phi) for phi in t1 + t2)
        assert find_model(joint, t1 + t2, 2).sat
