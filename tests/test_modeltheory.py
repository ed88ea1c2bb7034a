"""Generated subgroups, canonical families, embeddings, equivalence, diagrams."""

from fractions import Fraction
from itertools import product

import pytest

from agodel import (
    INF, LEX2, RAT, ZERO, Atom, Delta, EmbeddingCandidate, GeneratedSubgroup,
    ResourceLimitError, Signature, Structure, UsageError, bounded_ediag,
    bounded_elementary_equiv, check_embedding, factor_positive, formula_family,
    free_vars, generated_subgroup, is_exhaustive, lex2, rat, satisfies,
    search_embeddings, sentence_family,
)
from agodel.modeltheory import separating_sentence
from agodel.syntax import App, formula_depth
from conftest import make_rng, random_structure

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
