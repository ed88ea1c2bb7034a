"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line
per criterion.
"""

import time
from fractions import Fraction
from itertools import product

from agodel import (
    INF, LEX2, RAT, ZERO, Atom, DArrow, DDArrow, Delta,
    EmbeddingCandidate, Iff, LukImp, Not, Or, Power, Signature,
    Structure, Tensor, bounded_elementary_equiv, check_embedding,
    check_similarity, check_translation, check_ultrametric, compile_inf,
    eval_formula, expand_derived, find_model, free_vars, lex2,
    models_theory, rat, remark_lab, satisfies, search_embeddings,
    sentence_family, tv_compare, tv_inv, tv_mul, tv_power,
)
from agodel.errors import ResourceLimitError
from conftest import (
    RAT_POOL, holds_for, make_rng, random_core_sentence, random_formula,
    random_structure, similarity_closure,
)

GRID = [ZERO, rat(1, 2), rat(1), rat(2), INF]
SIG0 = Signature(predicates={"P": 0, "Q": 0})


def report(n, label, elapsed, budget):
    print(f"ACCEPTANCE {n} PASS: {label} ({elapsed:.2f}s < {budget}s)")


def grid_structure(p, q=None):
    preds = {"P": {(): p}, "Q": {(): q if q is not None else rat(1)}}
    return Structure(SIG0, RAT, ("m1",), {}, preds)


def test_criterion_1_connective_table_conformance():
    """Each derived connective agrees exactly with its expansion on the
    full value grid (all stratum pairs included). Exact, < 1 s."""
    start = time.perf_counter()
    binary_nodes = (Or, Iff, DArrow, DDArrow, LukImp)
    failures = 0
    for a, b in product(GRID, repeat=2):
        struct = grid_structure(a, b)
        for node in binary_nodes:
            phi = node(Atom("P"), Atom("Q"))
            if eval_formula(phi, struct) != eval_formula(expand_derived(phi), struct):
                failures += 1
    for a in GRID:
        struct = grid_structure(a)
        for phi in (Not(Not(Atom("P"))), Delta(Atom("P"))):
            if eval_formula(phi, struct) != eval_formula(expand_derived(phi), struct):
                failures += 1
        # the displayed composite tables, asserted directly
        assert eval_formula(Not(Not(Atom("P"))), struct) == \
            (ZERO if a == ZERO else INF)
        assert eval_formula(Delta(Atom("P")), struct) == \
            (INF if a == INF else ZERO)
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 1.0
    report(1, "connective tables match expansion on the value grid", elapsed, 1)


def test_criterion_2_extension_table():
    """Product and inverse on the carrier reproduce the extension table
    exhaustively, including inf * 0 = 0 * inf = identity. Exact, < 1 s."""
    start = time.perf_counter()
    g, h = rat(3), rat(5, 2)
    expected_mul = {
        (ZERO, ZERO): ZERO, (ZERO, g): ZERO, (ZERO, INF): rat(1),
        (g, ZERO): ZERO, (g, h): rat(15, 2), (g, INF): INF,
        (INF, ZERO): rat(1), (INF, g): INF, (INF, INF): INF,
    }
    for (a, b), want in expected_mul.items():
        assert tv_mul(a, b) == want, (a, b)
    assert tv_mul(ZERO, INF) == tv_mul(INF, ZERO) == rat(1)
    expected_inv = {ZERO: INF, INF: ZERO, g: rat(1, 3)}
    for a, want in expected_inv.items():
        assert tv_inv(a) == want
    # same table on the lexicographic backend
    lg = lex2(1, 2)
    assert tv_mul(lg, INF) == INF and tv_mul(lg, ZERO) == ZERO
    assert tv_mul(INF, ZERO, LEX2) == lex2(1, 1)
    assert tv_inv(lg) == lex2(1, Fraction(1, 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "carrier extension table exact over all variant pairs", elapsed, 1)


def test_criterion_3_translation_equivalence():
    """>= 1000 seeded random (sentence, structure) pairs check the
    classical-translation equivalence: 0 failures, and no pair refused
    on a resource limit. < 60 s."""
    start = time.perf_counter()
    rng = make_rng(33001)
    sig = Signature(predicates={"P": 1, "Q": 2})
    failures = 0
    samples = 0
    while samples < 1000:
        struct = random_structure(rng, sig, size=rng.randint(1, 3))
        phi = random_core_sentence(rng, sig, depth=4, qdepth=2)
        samples += 1
        if not check_translation(phi, struct):
            failures += 1
    elapsed = time.perf_counter() - start
    assert samples >= 1000
    assert failures == 0
    assert elapsed < 60.0
    report(3, f"translation equivalence on {samples} random pairs", elapsed, 60)


def test_criterion_4_solver_soundness_and_ground_completeness():
    """Every witness passes the evaluator; compiled branch unions match
    the evaluator exactly on the nullary-atom grid. < 60 s."""
    start = time.perf_counter()
    rng = make_rng(44001)

    # ground completeness over the value grid
    sig3 = Signature(predicates={"P": 0, "Q": 0, "R": 0})
    atoms = ["P", "Q", "R"]
    checked = 0
    sentences = [random_formula(rng, sig3, depth=rng.randint(1, 4), qdepth=0)
                 for _ in range(150)]
    sentences += [
        DDArrow(Atom("P"), Atom("Q")), Delta(Atom("P")),
        LukImp(Atom("P"), Atom("Q")), Power(Atom("P"), 3),
        Tensor(Atom("P"), Tensor(Atom("Q"), Atom("R"))),
    ]
    for phi in sentences:
        branches = compile_inf(phi)
        keys = [(name, ()) for name in atoms]
        for values in product(GRID, repeat=3):
            valuation = dict(zip(keys, values))
            preds = {name: {(): valuation[(name, ())]} for name in atoms}
            struct = Structure(sig3, RAT, ("m1",), {}, preds)
            in_union = any(holds_for(b, valuation) for b in branches)
            assert in_union == eval_formula(phi, struct).is_inf, (phi, values)
            checked += 1

    # witness soundness on a seeded theory suite
    sig = Signature(predicates={"P": 0, "Q": 0, "R": 1})
    sat = unsat = 0
    for _ in range(80):
        theory = []
        for _ in range(rng.randint(1, 3)):
            phi = random_formula(rng, sig, depth=rng.randint(1, 3), qdepth=1)
            if not free_vars(phi):
                theory.append(phi)
        if not theory:
            continue
        try:
            result = find_model(sig, theory, 2)
        except ResourceLimitError:
            continue
        if result.sat:
            sat += 1
            assert models_theory(result.structure, theory)
        else:
            unsat += 1
    elapsed = time.perf_counter() - start
    assert sat >= 20  # the suite actually exercises the witness path
    assert elapsed < 60.0
    report(4, f"solver sound on {sat} witnesses; {checked} grid points match",
           elapsed, 60)


def test_criterion_5_remark_reproduction():
    """Standard witness for every fragment size N <= 100, and the
    lexicographic witness for all axioms with n <= 10^4, all validated
    through the evaluator with exact arithmetic. < 60 s."""
    start = time.perf_counter()
    for n in range(1, 101):
        rep = remark_lab(n)
        assert rep.standard_ok, f"standard witness fails at N={n}"
        assert rep.lex_ok, f"lex witness fails at N={n}"
    big = remark_lab(10000)
    assert big.lex_ok and big.standard_ok
    # the non-archimedean inequality behind the lex witness, checked raw
    assert tv_compare(tv_power(lex2(1, 2), 10000), lex2(2, 1)) < 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "fragment witnesses validated (N<=100 standard, n<=10^4 lex)",
           elapsed, 60)


def test_criterion_6_ultrametric_property():
    """500 seeded random similarity-satisfying structures all pass the
    pseudo-ultrametric triple check. < 30 s."""
    start = time.perf_counter()
    rng = make_rng(66001)
    failures = 0
    for _ in range(500):
        struct = similarity_closure(rng, rng.randint(2, 4), RAT_POOL)
        assert check_similarity(struct)
        report_ = check_ultrametric(struct)
        if report_.symmetry_violations or report_.triangle_violations:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 30.0
    report(6, "500 similarity structures are pseudo-ultrametric", elapsed, 30)


def test_criterion_7_embedding_equivalence_sanity():
    """Identity embeddings verify at depth 3; the crispness pair is
    separated at depth 1; search and check agree on a 20-pair corpus.
    Exact, < 60 s."""
    start = time.perf_counter()
    rng = make_rng(77001)
    sig = Signature(predicates={"P": 1, "Q": 0})

    for _ in range(5):
        struct = random_structure(rng, sig, size=rng.randint(1, 3))
        identity = EmbeddingCandidate.make({m: m for m in struct.universe})
        assert check_embedding(struct, struct, identity, 3)

    sigp = Signature(predicates={"P": 0})
    m_elem = Structure(sigp, RAT, ("m1",), {}, {"P": {(): rat(2)}})
    m_inf = Structure(sigp, RAT, ("m1",), {}, {"P": {(): INF}})
    assert not bounded_elementary_equiv(m_elem, m_inf, 1)
    separator = Delta(Atom("P"))
    assert separator in sentence_family(sigp, 1)
    assert satisfies(m_inf, separator) and not satisfies(m_elem, separator)

    consistent = 0
    pairs = []
    for k in range(20):
        source = random_structure(rng, sig, size=rng.randint(1, 2))
        if k % 2 == 0:
            # half the corpus: targets built as exponent-scaled copies,
            # so the searched set is provably nonempty
            power = rng.choice([1, 2, 3])
            preds = {
                name: {args: tv_power(tv, power) if tv.kind == 1 else tv
                       for args, tv in table.items()}
                for name, table in source.preds.items()
            }
            target = Structure(sig, RAT, source.universe, {}, preds)
        else:
            target = random_structure(rng, sig, size=rng.randint(1, 3))
        pairs.append((source, target, k % 2 == 0))
    for source, target, constructed in pairs:
        found = search_embeddings(source, target, 1)
        if constructed:
            assert found, "scaled copy must embed"
        for cand in found:
            assert check_embedding(source, target, cand, 1)
            assert check_embedding(source, target, cand, 0)
            consistent += 1
    elapsed = time.perf_counter() - start
    assert consistent >= 10
    assert elapsed < 60.0
    report(7, f"identity depth-3 ok; crispness separation ok; "
              f"{consistent} searched candidates re-verified", elapsed, 60)
