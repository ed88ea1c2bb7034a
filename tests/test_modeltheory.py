"""Generated subgroups, canonical families, embeddings, equivalence, diagrams."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from agodel import (
    INF, LEX2, RAT, ZERO, Atom, Delta, EmbeddingCandidate, GeneratedSubgroup,
    ResourceLimitError, Signature, Structure, UsageError, bounded_ediag,
    bounded_elementary_equiv, check_embedding, eval_formula, factor_positive,
    formula_family, free_vars, generated_subgroup, is_exhaustive, lex2, rat,
    satisfies, search_embeddings, sentence_family, tv_power,
)
from agodel import modeltheory
from agodel.modeltheory import (
    FAMILY_CACHE_SIZE, MAX_FAMILY_BUDGET, diagram_signature, separating_sentence,
)
from agodel.semantics import ranks_of
from agodel.syntax import App
from conftest import formula_depth, make_rng, oracle, random_structure

SIGP = Signature(predicates={"P": 0})


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
    """check_embedding spelled as one evaluation per formula and assignment."""
    h = candidate.h
    for name, table in source.funcs.items():
        for args, out in table.items():
            if target.funcs[name][tuple(h[a] for a in args)] != h[out]:
                return False
    for phi in formula_family(source.signature, depth, budget):
        fv = sorted(free_vars(phi))
        for values in product(source.universe, repeat=len(fv)):
            env = dict(zip(fv, values))
            transported = candidate.transport(eval_formula(phi, source, env))
            if transported is None:
                return False
            if transported != eval_formula(phi, target, {v: h[e] for v, e in env.items()}):
                return False
    return True


def oracle_separating_sentence(a, b, depth, budget):
    for phi in sentence_family(a.signature, depth, budget):
        if satisfies(a, phi) != satisfies(b, phi):
            return phi
    return None


def oracle_ediag(struct, depth, budget):
    sig, names = diagram_signature(struct)
    funcs = dict(struct.funcs)
    for element, cname in names.items():
        funcs[cname] = {(): element}
    expanded = Structure(sig, struct.backend, struct.universe, funcs, dict(struct.preds))
    return [phi for phi in sentence_family(sig, depth, budget) if satisfies(expanded, phi)]


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
        members = modeltheory._family(ORACLE_SIG, 3, 600)
        V = ranks_of(struct)
        checked = 0
        for member, table in modeltheory._tables(struct, members):
            cells = list(product(struct.universe, repeat=len(member.free)))
            assert len(table) == len(cells)
            for cell, elements in zip(table, cells):
                env = dict(zip(member.free, elements))
                assert V.decode(cell) == oracle(member.formula, struct, env, set()), \
                    member.formula
            checked += 1
        assert checked == len(members) == len(formula_family(ORACLE_SIG, 3, 600))

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
