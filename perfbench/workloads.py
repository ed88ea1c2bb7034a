"""The benchmark's four seeded workloads: inputs, queries, known answers.

Every query calls agodel through a public function looked up on the
package (or ``agodel.cli``) at call time, so a traced run sees the call.
Inputs come from the seeded generators of the test suite
(``tests/conftest.py``); the program only ever receives the generated
inputs.  Each workload is a list of queries that the closed loop cycles
through; a query returns ``(verdict, payload)``, where the verdict is a
short deterministic string and the payload is what the correctness
check needs (a witness structure, a candidate list, captured stdout).
"""

from __future__ import annotations

import hashlib
import io
import json
from bisect import bisect_right
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import agodel
import agodel.cli
from agodel import (
    INF, RAT, ZERO, EmbeddingCandidate, Exists, Forall, Signature, Structure,
    dump_structure, free_vars, one, parse, print_formula, rat, similarity_axioms,
    tv_power,
)

from conftest import (
    make_rng, random_core_sentence, random_formula, random_structure,
    similarity_closure,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the documented seeds; each has a holdout seed one above it, and both
# have committed references
DEFAULT_SEEDS = {"translate": 33001, "solve": 44001, "family": 77001, "eval": 66001}

Outcome = Tuple[str, object]


@dataclass(frozen=True)
class Query:
    qid: str
    run: Callable[[], Outcome]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """A cycled query list plus the check of each query's verdict."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.queries: List[Query] = []

    def check(self, i: int, verdict: str, payload, ref: Optional[str]) -> Optional[str]:
        """Why verdict is wrong for query i, or None when it is right."""
        if ref is not None and verdict != ref:
            return f"verdict {verdict!r} differs from reference {ref!r}"
        return None

    def reference_entry(self, i: int, verdict: str, payload) -> str:
        """What the committed reference records for query i."""
        return verdict

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}-{self.seed}.json"

    def load_reference(self) -> Optional[List[str]]:
        path = self.reference_path()
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        if len(data["verdicts"]) != len(self.queries):
            raise ValueError(f"{path.name}: reference covers {len(data['verdicts'])} "
                             f"queries, the workload has {len(self.queries)}")
        return data["verdicts"]


# ---------------------------------------------------------------------------
# translate: check_translation on the acceptance-criterion-3 corpus

TRANSLATE_SIG = Signature(predicates={"P": 1, "Q": 2})
TRANSLATE_PAIRS = 6000
TRANSLATE_STRATA = 100


def criterion3_stream(seed: int):
    """The (sentence, structure) stream of acceptance criterion 3."""
    rng = make_rng(seed)
    while True:
        struct = random_structure(rng, TRANSLATE_SIG, size=rng.randint(1, 3))
        phi = random_core_sentence(rng, TRANSLATE_SIG, depth=4, qdepth=2)
        yield phi, struct


def criterion3_pairs(seed: int, count: int):
    return list(islice(criterion3_stream(seed), count))


def evaluations(phi, n: int, bound: int = 0) -> int:
    """Subformula evaluations when every node is evaluated once per
    assignment of the variables bound above it, in a universe of n."""
    total = n ** bound
    inner = bound + isinstance(phi, (Forall, Exists))
    for name in ("left", "right", "body"):
        child = getattr(phi, name, None)
        if child is not None:
            total += evaluations(child, n, inner)
    return total


def predicted_cost(phi, struct: Structure) -> int:
    """Evaluations times the atomic value count: a syntactic stand-in for
    the cost of the classical check (it explains ~90% of the variance of
    log latency on this corpus)."""
    values = {ZERO, INF, one(struct.backend)}
    for table in struct.preds.values():
        values.update(table.values())
    return evaluations(phi, len(struct.universe)) * len(values)


def cost_bands(cost: list, strata: int):
    """Band edges cutting the costs into equal strata, and the number of
    costs in each band (ties fall into the upper band)."""
    ranked = sorted(cost)
    edges = sorted({ranked[b * len(cost) // strata] for b in range(1, strata)})
    return edges, Counter(bisect_right(edges, c) for c in cost)


def matched_pairs(seed: int, edges: list, quota: Counter, max_draws: int) -> list:
    """Pairs of the seed's criterion-3 stream, each taken while its cost
    band is below its quota: every seed gets the cost mix of the quotas.

    Without it, the cost mix a seed happened to draw moved p50 by 12%
    between seeds.  Stops after max_draws even if some band is short.
    """
    room = Counter(quota)
    wanted = sum(quota.values())
    pairs = []
    for phi, struct in islice(criterion3_stream(seed), max_draws):
        band = bisect_right(edges, predicted_cost(phi, struct))
        if room[band] > 0:
            room[band] -= 1
            pairs.append((phi, struct))
            if len(pairs) == wanted:
                break
    return pairs


def stratified_order(cost: list, strata: int, rng) -> list:
    """Indices sorted by cost into equal strata, then dealt in rounds of
    one per stratum (in shuffled order), so that every prefix of whole
    rounds samples each cost band equally.  A run sees a prefix; without
    this, how many of the rare heavy pairs fall into it would set the
    workload's figures."""
    ranked = sorted(range(len(cost)), key=lambda i: (cost[i], i))
    size = len(cost) // strata
    bands = [ranked[b * size:(b + 1) * size] for b in range(strata)]
    for band in bands:
        rng.shuffle(band)
    order = []
    for j in range(size):
        round_ = [band[j] for band in bands]
        rng.shuffle(round_)
        order += round_
    return order


class Translate(Workload):
    name = "translate"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        # the default seed's first pairs set the cost mix; for that seed the
        # corpus is exactly the first TRANSLATE_PAIRS pairs of the stream
        mix = criterion3_pairs(DEFAULT_SEEDS["translate"], TRANSLATE_PAIRS)
        edges, quota = cost_bands([predicted_cost(*pair) for pair in mix], TRANSLATE_STRATA)
        pairs = matched_pairs(seed, edges, quota, 4 * TRANSLATE_PAIRS)
        cost = [predicted_cost(phi, struct) for phi, struct in pairs]
        ids = stratified_order(cost, TRANSLATE_STRATA, make_rng(seed))
        self.pairs = [pairs[i] for i in ids]
        self.queries = [Query(f"pair:{i}", self._query(*pairs[i])) for i in ids]

    @staticmethod
    def _query(phi, struct):
        def run() -> Outcome:
            agrees = agodel.check_translation(phi, struct)
            return ("agrees" if agrees else "disagrees"), None
        return run

    def reference_entry(self, i, verdict, payload) -> str:
        phi, struct = self.pairs[i]
        return "1" if agodel.satisfies(struct, phi) else "0"

    def check(self, i, verdict, payload, ref):
        if verdict != "agrees":
            return f"translation check returned {verdict!r}"
        if ref is not None and self.reference_entry(i, verdict, payload) != ref:
            return "direct satisfaction differs from the reference"
        return None


# ---------------------------------------------------------------------------
# solve: find_model on random theories plus a fixed budget ladder

SOLVE_SIG = Signature(functions={"c": 0}, predicates={"P": 1, "Q": 1, "R": 2})
SOLVE_MAX_DOMAIN = 3
SOLVE_BLOCKS = 30
SOLVE_RANDOM_PER_BLOCK = 40

_SIG_P = Signature(predicates={"P": 1})
_SIG_R = Signature(predicates={"R": 2})
_SIG_E = Signature(predicates={"e": 2}, equality="e")

# name -> (signature, theory text, satisfiable at each n = 1, 2, 3)
LADDER = {
    "forall-exists-P": (_SIG_P, ["forall x. exists y. P(x) ==> P(y)"],
                        (False, False, False)),
    "forall-exists-R": (_SIG_R, ["forall x. exists y. R(x, y) ==> R(y, x)"],
                        (False, False, True)),
    "similarity-gap": (_SIG_E, ["exists x. exists y. ~delta(e(x, y)) /\\ (one ==> e(x, y))"],
                       (False, True, True)),
}


def random_theory(rng) -> list:
    """1-3 random sentences of depth <= 2 over SOLVE_SIG.

    Depth 3 would add rare theories that compile for a second or more
    without reaching the budget; their count per run, not the code,
    would then set the workload's throughput.
    """
    theory = []
    for _ in range(rng.randint(1, 3)):
        while True:
            phi = random_formula(rng, SOLVE_SIG, depth=rng.randint(1, 2), qdepth=2)
            if not free_vars(phi):
                theory.append(phi)
                break
    return theory


class Solve(Workload):
    name = "solve"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        rng = make_rng(seed)
        ladder = []
        for name, (sig, texts, truth) in LADDER.items():
            theory = [parse(t, sig) for t in texts]
            if sig.equality:
                theory = similarity_axioms(sig) + theory
            for n in (1, 2, 3):
                ladder.append((f"ladder:{name}:n{n}", sig, theory, n, truth[n - 1]))
        self.items = []  # (qid, sig, theory, max domain, known satisfiability)
        for block in range(SOLVE_BLOCKS):
            items = list(ladder)
            items += [(f"random:{block}:{k}", SOLVE_SIG, random_theory(rng),
                       SOLVE_MAX_DOMAIN, None)
                      for k in range(SOLVE_RANDOM_PER_BLOCK)]
            rng.shuffle(items)
            self.items += items
        self.queries = [Query(qid, self._query(sig, theory, n))
                        for qid, sig, theory, n, _ in self.items]

    @staticmethod
    def _query(sig, theory, n):
        def run() -> Outcome:
            result = agodel.find_model(sig, theory, n)
            if result.sat:
                return "sat", result.structure
            return "unsat", None
        return run

    def check(self, i, verdict, payload, ref):
        _, _, theory, _, truth = self.items[i]
        if verdict == "sat" and not agodel.models_theory(payload, theory):
            return "the witness does not model the theory"
        if truth is not None and verdict != ("sat" if truth else "unsat"):
            return f"{verdict} contradicts the known answer"
        if ref in ("sat", "unsat") and verdict != ref:
            return f"{verdict} contradicts the reference {ref}"
        return None

    def reference_entry(self, i, verdict, payload) -> str:
        return "limit" if verdict.startswith("limit") else verdict


# ---------------------------------------------------------------------------
# family: embedding, equivalence and diagram checks on small structures

FAMILY_SIG = Signature(predicates={"P": 1, "Q": 0})
FAMILY_BLOCKS = 500


def scaled_copy(source: Structure, power: int) -> Structure:
    """The target g -> g^power of every group value: it must embed."""
    preds = {name: {args: tv_power(tv, power) if tv.kind == 1 else tv
                    for args, tv in table.items()}
             for name, table in source.preds.items()}
    return Structure(source.signature, RAT, source.universe, {}, preds)


def renamed_copy(source: Structure, rng) -> Structure:
    """An isomorphic copy under a random bijection onto fresh names."""
    names = [f"k{i}" for i in range(1, len(source.universe) + 1)]
    rng.shuffle(names)
    h = dict(zip(source.universe, names))
    preds = {name: {tuple(h[a] for a in args): tv for args, tv in table.items()}
             for name, table in source.preds.items()}
    return Structure(source.signature, source.backend, tuple(sorted(names)), {}, preds)


def _identity(struct: Structure) -> EmbeddingCandidate:
    return EmbeddingCandidate.make({m: m for m in struct.universe})


class Family(Workload):
    name = "family"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        rng = make_rng(seed)

        def struct():
            return random_structure(rng, FAMILY_SIG, size=rng.randint(1, 3))

        for b in range(FAMILY_BLOCKS):
            source = struct()
            target = scaled_copy(source, rng.choice([1, 2, 3]))
            self.queries.append(Query(f"embed:{b}", self._search(source, target)))
            source = struct()
            copy = renamed_copy(source, rng)
            self.queries.append(Query(f"equiv:{b}", self._equiv(source, copy)))
            source = struct()
            self.queries.append(Query(f"ediag:{b}", self._ediag(source, rng.randint(1, 2))))
            source = struct()
            self.queries.append(Query(f"identity:{b}", self._identity_check(source)))

    @staticmethod
    def _search(source, target):
        def run() -> Outcome:
            found = agodel.search_embeddings(source, target, 2)
            text = ";".join(f"{c.mapping}^{c.exponent}" for c in found)
            return f"embeds:{len(found)}:{digest(text)}", found
        return run

    @staticmethod
    def _equiv(a, b):
        def run() -> Outcome:
            same = agodel.bounded_elementary_equiv(a, b, 3)
            return ("equivalent" if same else "separated"), None
        return run

    @staticmethod
    def _ediag(struct, depth):
        def run() -> Outcome:
            diagram = agodel.bounded_ediag(struct, depth)
            text = "\n".join(print_formula(phi) for phi in diagram)
            return f"ediag:{len(diagram)}:{digest(text)}", None
        return run

    @staticmethod
    def _identity_check(struct):
        def run() -> Outcome:
            ok = agodel.check_embedding(struct, struct, _identity(struct), 3)
            return ("embeds" if ok else "fails"), None
        return run

    def check(self, i, verdict, payload, ref):
        kind = self.queries[i].qid.split(":")[0]
        if kind == "embed" and not any(
                all(a == b for a, b in c.mapping) for c in payload):
            return "the scaled copy does not embed by the identity map"
        if kind == "equiv" and verdict != "equivalent":
            return "an isomorphic copy was separated"
        if kind == "identity" and verdict != "embeds":
            return "the identity embedding failed"
        return super().check(i, verdict, payload, ref)


# ---------------------------------------------------------------------------
# eval: the CLI in-process on similarity structures read from files

EVAL_SIZES = (10, 20, 30)
# structures per size: which query is the slowest but one (p95 falls
# there) depends on the table values, so a run averages over several
EVAL_COPIES = 3
# no inf off the diagonal, so d = e^-1 is an ultrametric, not only a pseudo one
EVAL_POOL = [ZERO, rat(1, 2), rat(1), rat(2), rat(3)]
EVAL_SYMMETRY = "forall x. forall y. e(x, y) -> e(y, x)"
EVAL_MIN = "forall x. forall y. e(x, y)"
EVAL_GAP = "exists x. exists y. ~delta(e(x, y)) /\\ e(x, y)"
EVAL_REFLEXIVE = "forall x. e(x, x)"
EVAL_TRIANGLE = "forall x. forall y. e(x, y) /\\ e(y, x) -> e(x, x)"
EVAL_PRODUCT = "forall x. forall y. e(x, y) * e(y, x)^-1"
EVAL_MAXMIN = "exists x. forall y. e(x, y)"
EVAL_MINMAX = "forall x. exists y. ~delta(e(x, y)) /\\ e(x, y)"


def _format(tv) -> str:
    """The CLI's text for a rat value, written out here so that the
    expected output does not come from the code under test."""
    if tv == ZERO:
        return "0"
    if tv == INF:
        return "inf"
    f = Fraction(tv.payload)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _order(tv):
    return (tv.kind, tv.payload if tv.kind == 1 else 0)


class Eval(Workload):
    name = "eval"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        rng = make_rng(seed)
        sig = Signature(predicates={"e": 2}, equality="e")
        axioms = [print_formula(phi) for phi in similarity_axioms(sig)]
        theory = workdir / "similarity.theory"
        theory.write_text("".join(f"{line}\n" for line in axioms))
        self.expected: List[Tuple[int, str]] = []
        per_struct = []
        for copy, n in ((c, n) for c in range(1, EVAL_COPIES + 1) for n in EVAL_SIZES):
            struct = similarity_closure(rng, n, EVAL_POOL)
            path = workdir / f"sim{n}-{copy}.struct"
            path.write_text(dump_structure(struct))
            s, t = str(path), str(theory)
            values = struct.preds["e"]
            off = [v for (a, b), v in values.items() if a != b]
            rows = [[values[(a, b)] for b in struct.universe] for a in struct.universe]
            rows_off = [[values[(a, b)] for b in struct.universe if b != a]
                        for a in struct.universe]
            cases = [
                ("check-model", ["check-model", "--theory", t, "--structure", s],
                 0, "".join(f"ok   {line}\n" for line in axioms)),
                ("similarity", ["similarity", "--structure", s], 0, "similarity: yes\n"),
                ("ultrametric", ["ultrametric", "--structure", s], 0, "ultrametric: yes\n"),
                ("entails", ["entails", "--theory", t, "--formula", EVAL_SYMMETRY,
                             "--pool", s], 0, "entails-over-pool(1): yes\n"),
                ("eval-min", ["eval", "--formula", EVAL_MIN, "--structure", s],
                 0, _format(min(values.values(), key=_order)) + "\n"),
                ("eval-gap", ["eval", "--formula", EVAL_GAP, "--structure", s],
                 0, _format(max(off, key=_order)) + "\n"),
                ("eval-reflexive", ["eval", "--formula", EVAL_REFLEXIVE,
                                    "--structure", s], 0, "inf\n"),
                ("eval-triangle", ["eval", "--formula", EVAL_TRIANGLE,
                                   "--structure", s], 0, "inf\n"),
                # e is symmetric, and inf * 0 = 0 * inf = 1 on the bounds
                ("eval-product", ["eval", "--formula", EVAL_PRODUCT,
                                  "--structure", s], 0, "1\n"),
                ("eval-maxmin", ["eval", "--formula", EVAL_MAXMIN, "--structure", s],
                 0, _format(max((min(r, key=_order) for r in rows), key=_order)) + "\n"),
                ("eval-minmax", ["eval", "--formula", EVAL_MINMAX, "--structure", s],
                 0, _format(min((max(r, key=_order) for r in rows_off), key=_order)) + "\n"),
            ]
            per_struct.append([(f"{name}:n{n}:{copy}", argv, code, out)
                               for name, argv, code, out in cases])
        # structures interleaved, so that a run ending mid-pass stops in a
        # representative mix rather than in the heavy n=30 stretch
        for qid, argv, code, out in (q for group in zip(*per_struct) for q in group):
            self.queries.append(Query(qid, self._query(argv)))
            self.expected.append((code, out))

    @staticmethod
    def _query(argv):
        def run() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = agodel.cli.main(argv)
            if code == agodel.cli.EXIT_RESOURCE:
                return "limit:cli.main", err.getvalue()
            text = out.getvalue()
            return f"{code}:{digest(text)}", text
        return run

    def check(self, i, verdict, payload, ref):
        code, text = self.expected[i]
        if verdict != f"{code}:{digest(text)}":
            return f"expected exit {code} and {text!r}, got {verdict} and {payload!r}"
        return super().check(i, verdict, payload, ref)


WORKLOADS = {w.name: w for w in (Translate, Solve, Family, Eval)}
