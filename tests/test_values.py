"""Carrier algebra: extension table, group laws, order interplay."""

from fractions import Fraction
from itertools import product

import pytest

from agodel import (
    INF, LEX2, RAT, ZERO, UsageError, format_truth_value, lex2, one,
    parse_truth_value, rat, tv_compare, tv_inv, tv_max, tv_min, tv_mul,
    tv_power, tv_resid,
)
from conftest import RAT_ELEMS, make_rng


class TestExtensionTable:
    def test_group_case(self):
        assert tv_mul(rat(2), rat(3)) == rat(6)

    def test_inf_times_zero_is_identity(self):
        assert tv_mul(INF, ZERO) == rat(1)
        assert tv_mul(ZERO, INF) == rat(1)
        assert tv_mul(ZERO, INF, LEX2) == one(LEX2)

    def test_absorption(self):
        assert tv_mul(rat(5), INF) == INF
        assert tv_mul(INF, rat(5)) == INF
        assert tv_mul(rat(5), ZERO) == ZERO
        assert tv_mul(ZERO, rat(5)) == ZERO

    def test_bounds_squared(self):
        assert tv_mul(INF, INF) == INF
        assert tv_mul(ZERO, ZERO) == ZERO

    def test_exhaustive_nine_cases(self):
        g = rat(3)
        expected = {
            (ZERO, ZERO): ZERO, (ZERO, g): ZERO, (ZERO, INF): rat(1),
            (g, ZERO): ZERO, (g, g): rat(9), (g, INF): INF,
            (INF, ZERO): rat(1), (INF, g): INF, (INF, INF): INF,
        }
        for (a, b), want in expected.items():
            assert tv_mul(a, b) == want, (a, b)

    def test_partial_associativity_at_bounds(self):
        # (0 * inf) * g = g  but  0 * (inf * g) = 1: the table is taken as is
        g = rat(5)
        assert tv_mul(tv_mul(ZERO, INF), g) == g
        assert tv_mul(ZERO, tv_mul(INF, g)) == rat(1)


class TestInverse:
    def test_bounds_swap(self):
        assert tv_inv(ZERO) == INF
        assert tv_inv(INF) == ZERO

    def test_group_inverse(self):
        assert tv_inv(rat(2)) == rat(1, 2)
        assert tv_inv(lex2(2, Fraction(1, 3))) == lex2(Fraction(1, 2), 3)

    def test_involution(self):
        rng = make_rng(7)
        for _ in range(2000):
            x = rng.choice([ZERO, INF, rat(rng.choice(RAT_ELEMS)),
                            lex2(rng.choice(RAT_ELEMS), rng.choice(RAT_ELEMS))])
            assert tv_inv(tv_inv(x)) == x


class TestGroupLaws:
    @pytest.mark.parametrize("backend,mk", [
        (RAT, lambda rng: rat(rng.choice(RAT_ELEMS))),
        (LEX2, lambda rng: lex2(rng.choice(RAT_ELEMS), rng.choice(RAT_ELEMS))),
    ])
    def test_randomized_axioms(self, backend, mk):
        rng = make_rng(11)
        for _ in range(10000):
            a, b, c = mk(rng), mk(rng), mk(rng)
            assert tv_mul(tv_mul(a, b), c) == tv_mul(a, tv_mul(b, c))
            assert tv_mul(a, b) == tv_mul(b, a)
            assert tv_mul(a, tv_inv(a)) == one(backend)
            assert tv_mul(a, one(backend)) == a

    @pytest.mark.parametrize("mk", [
        lambda rng: rat(rng.choice(RAT_ELEMS)),
        lambda rng: lex2(rng.choice(RAT_ELEMS), rng.choice(RAT_ELEMS)),
    ])
    def test_order_multiplication_compatibility(self, mk):
        rng = make_rng(13)
        for _ in range(10000):
            a, b, c = mk(rng), mk(rng), mk(rng)
            if tv_compare(a, b) <= 0:
                assert tv_compare(tv_mul(a, c), tv_mul(b, c)) <= 0


class TestOrderAndDerivedOps:
    def test_total_order_strata(self):
        assert tv_compare(ZERO, rat(1, 1000)) < 0
        assert tv_compare(rat(1000), INF) < 0
        assert tv_compare(ZERO, INF) < 0
        assert tv_compare(rat(2), rat(3)) < 0

    def test_resid_table(self):
        assert tv_resid(rat(3), rat(2)) == rat(2)
        assert tv_resid(ZERO, ZERO) == INF
        assert tv_resid(INF, rat(7)) == rat(7)

    def test_resid_iff_le(self):
        grid = [ZERO, rat(1, 2), rat(1), rat(2), INF]
        for a, b in product(grid, repeat=2):
            assert (tv_resid(a, b) == INF) == (tv_compare(a, b) <= 0)

    def test_min_max(self):
        assert tv_min(rat(2), INF) == rat(2)
        assert tv_max(ZERO, rat(2)) == rat(2)

    def test_power_matches_iterated_product(self):
        for base in (ZERO, INF, rat(2, 3), lex2(2, 3)):
            acc = base
            for n in range(2, 6):
                acc = tv_mul(acc, base)
                assert tv_power(base, n) == acc

    def test_power_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            tv_power(rat(2), 0)


class TestLex2NonArchimedean:
    def test_small_stays_below_big(self):
        small = lex2(1, 2)
        big = lex2(2, 1)
        acc = small
        for n in range(1, 10001):
            assert tv_compare(acc, big) < 0
            acc = tv_mul(acc, small)
        assert tv_power(small, 10000) == lex2(1, Fraction(2) ** 10000)


class TestHashing:
    @pytest.mark.parametrize("base", [rat(2), lex2(1, 2)])
    def test_powers_of_two_spread(self, base):
        # Python hashes rationals modulo 2^61 - 1, so 2^k by its payload alone
        # takes 61 hashes, and rank tables of remark_lab's powers probe chains
        hashes = {hash(tv_power(base, k)) for k in range(1, 2001)}
        assert len(hashes) > 1000

    def test_equal_values_hash_equal(self):
        assert hash(tv_mul(rat(2 ** 40), rat(2 ** 40))) == hash(rat(2 ** 80))
        assert hash(tv_inv(lex2(3, Fraction(1, 2 ** 70)))) == hash(lex2(Fraction(1, 3), 2 ** 70))
        assert hash(one(RAT)) == hash(rat(1)) and one(RAT) is one(RAT)


class TestBackendDiscipline:
    def test_mixing_is_an_error(self):
        with pytest.raises(UsageError):
            tv_mul(rat(2), lex2(1, 2))
        with pytest.raises(UsageError):
            tv_compare(rat(2), lex2(1, 2))

    def test_elem_must_be_positive(self):
        with pytest.raises(UsageError):
            rat(0)
        with pytest.raises(UsageError):
            rat(-3)
        with pytest.raises(UsageError):
            lex2(1, -1)


class TestTextSyntax:
    @pytest.mark.parametrize("text,backend", [
        ("0", RAT), ("inf", RAT), ("3/2", RAT), ("7", RAT),
        ("0", LEX2), ("inf", LEX2), ("(3/2, 1)", LEX2), ("(2, 5/3)", LEX2),
    ])
    def test_round_trip(self, text, backend):
        tv = parse_truth_value(text, backend)
        assert parse_truth_value(format_truth_value(tv), backend) == tv

    def test_canonical_forms(self):
        assert format_truth_value(rat(2)) == "2"
        assert format_truth_value(rat(3, 2)) == "3/2"
        assert format_truth_value(lex2(Fraction(1, 2), 3)) == "(1/2, 3)"

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_truth_value("three", RAT)
        with pytest.raises(UsageError):
            parse_truth_value("(1, 2", LEX2)
        with pytest.raises(UsageError):
            parse_truth_value("1/0", RAT)
