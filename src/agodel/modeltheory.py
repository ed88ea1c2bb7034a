"""Desk-scale model theory: generated subgroups, embeddings, equivalence.

The textbook notions quantify over all formulas; here they are replaced
by honest finite surrogates.  A canonical formula family is enumerated
deterministically (size-ordered, documented budget) so that
depth-bounded checks are reproducible and monotone in the depth bound.
The family is one list of ``syntax.Node`` (each member's kids are family
indices, its free variables a sorted subset of x and y), planned once
(``semantics.plan``), and the checks feed the plan to the evaluator's
bottom-up pass (``semantics.value_tables``): one table per member over
the assignments of its free variables, built from the tables of its
immediate subformulas.  The checks that read only sentences
(``separating_sentence``, ``bounded_ediag``, ``sentence_family``) take a
second plan of the same family, cut to its sentences and their
subformulas.  The embedding checks take the whole family and compare every
member, open ones included, except for a map onto the target, where the
atomic step decides and no table is built.

Most members are copies of earlier ones, so the tables are built per
class of proved-equal members.  A member joins an earlier class by
congruence (same type and bound variable, kids in the same classes) or,
when quantifier-free, by a solver proof that it equals the class's
representative (its first member); the fingerprints of ``_probes``
propose the pairs to prove.  Over P/1, Q/0 at budget 600, the 600
members fall into 209 classes, and the 336 of the depth-3 sentence cut
into 129.  The classes of a cut are found on its first use (5-14 ms for
each cut the benchmark meets, 0.5 s for the whole budget-10,000 family
over P/1, Q/0) and kept with it, so evicting an enumeration from the
cache also drops its proofs.  The checks build and compare the tables of
representatives only: a copy's table is its representative's in every
structure, so no verdict changes.

For the rational backend, the subgroup of truth values a structure can
realize is generated by its atomic table values: min, max, the
residuated implication and quantifiers only ever select among existing
values, while the group product and inverse generate the subgroup.
Membership in a finitely generated subgroup of the positive rationals
is decided exactly on prime-exponent vectors by integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, permutations, product
from math import perm
from random import Random
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import ResourceLimitError, UsageError
from .semantics import Step, Structure, plan, ranks_of, value_tables
from .solver import compile_inf, fm_solve
from .syntax import (
    QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, Delta, Exists, Forall, Formula, Iff, Imp,
    Inv, Node, Not, One, Signature, Tensor, Var, fresh_name, rebuild,
)
from .values import INF, RAT, K_ELEM, ZERO, TruthValue, rat

_FACTOR_LIMIT = 10 ** 6  # trial division bound; beyond this we refuse, never guess

DEFAULT_FAMILY_BUDGET = 600
MAX_FAMILY_DEPTH = 8
# An enumeration's memory grows with its budget, and FAMILY_CACHE_SIZE of them
# are kept, so a family is refused above this: over ten times the largest budget
# in the test suite and the benchmark (600).
MAX_FAMILY_BUDGET = 10_000
# The injections an embedding search may sweep, math.perm(|target|, |source|):
# over 4,000 times the largest count in the test suite (24) and the benchmark
# (6), and 12-19 microseconds each on a 2-vCPU host, so under 2 s in all.
MAX_INJECTIONS = 100_000


# ---------------------------------------------------------------------------
# Prime-exponent vectors


def factor_positive(q: Fraction) -> Dict[int, int]:
    """Prime factorization of a positive rational as prime -> exponent."""
    if q <= 0:
        raise UsageError(f"can only factor positive rationals, got {q}")
    out: Dict[int, int] = {}
    for value, sign in ((q.numerator, 1), (q.denominator, -1)):
        n = value
        p = 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1 if p == 2 else 2
            if p > _FACTOR_LIMIT:
                break
        if n > 1:
            if n > _FACTOR_LIMIT * _FACTOR_LIMIT:
                raise ResourceLimitError(
                    f"factorization cofactor {n} exceeds the trial-division bound"
                )
            out[n] = out.get(n, 0) + sign
    return {p: e for p, e in out.items() if e}


@dataclass
class GeneratedSubgroup:
    """Subgroup of the positive rationals generated by finitely many values.

    Internally a basis of integer exponent vectors over the primes that
    occur in the generators; membership reduces to integer solvability.
    """

    generators: Tuple[Fraction, ...]
    primes: Tuple[int, ...] = field(init=False)
    _echelon: List[Tuple[int, List[int]]] = field(init=False, repr=False)

    def __post_init__(self):
        self.generators = tuple(Fraction(g) for g in self.generators)
        factored = [factor_positive(g) for g in self.generators]
        primes = sorted({p for f in factored for p in f})
        self.primes = tuple(primes)
        columns = [[f.get(p, 0) for p in primes] for f in factored]
        self._echelon = _column_echelon(columns, len(primes))

    def member(self, value) -> bool:
        """Exact membership test for a positive rational (or ELEM value)."""
        q = _as_positive_fraction(value)
        vec_map = factor_positive(q)
        if any(p not in self.primes for p in vec_map):
            return False
        vec = [vec_map.get(p, 0) for p in self.primes]
        for row, column in self._echelon:
            if vec[row] == 0:
                continue
            pivot = column[row]
            if vec[row] % pivot != 0:
                return False
            k = vec[row] // pivot
            vec = [v - k * c for v, c in zip(vec, column)]
        return all(v == 0 for v in vec)

    def same_subgroup(self, other: "GeneratedSubgroup") -> bool:
        return (all(self.member(g) for g in other.generators)
                and all(other.member(g) for g in self.generators))


def _as_positive_fraction(value) -> Fraction:
    if isinstance(value, TruthValue):
        if value.kind != K_ELEM or value.backend is not RAT:
            raise UsageError("membership is defined for rat group elements only")
        return value.payload
    return Fraction(value)


def _column_echelon(columns: List[List[int]], rows: int) -> List[Tuple[int, List[int]]]:
    """Integer column echelon form via gcd column operations.

    Returns (pivot_row, column) pairs with strictly increasing pivot
    rows and zeros above each pivot, so forward reduction decides
    lattice membership.
    """
    cols = [list(c) for c in columns if any(c)]
    pivots: List[Tuple[int, List[int]]] = []
    for row in range(rows):
        active = [c for c in cols if c[row] != 0]
        if not active:
            continue
        # combine columns until a single one carries gcd of the row entries
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[row]))
            small, nxt = active[0], active[1]
            k = nxt[row] // small[row]
            for i in range(rows):
                nxt[i] -= k * small[i]
            active = [c for c in active if c[row] != 0]
        pivot = active[0]
        if pivot[row] < 0:
            for i in range(rows):
                pivot[i] = -pivot[i]
        cols = [c for c in cols if c is not pivot and any(c)]
        pivots.append((row, pivot))
    return pivots


def generated_subgroup(struct: Structure) -> GeneratedSubgroup:
    """The subgroup of truth values realizable by formulas over struct.

    Equals the subgroup generated by the atomic table values: the
    lattice connectives and quantifiers only select among values already
    present, and the group connectives generate the rest.
    """
    if struct.backend is not RAT:
        raise UsageError("generated subgroups are supported for the rat backend only")
    gens = [tv.payload for tv in struct.atomic_values() if tv.kind == K_ELEM]
    return GeneratedSubgroup(tuple(gens))


def is_exhaustive(struct: Structure, ambient: GeneratedSubgroup) -> bool:
    """True when the declared group equals the realizable subgroup."""
    return ambient.same_subgroup(generated_subgroup(struct))


# ---------------------------------------------------------------------------
# Canonical formula family

_FAMILY_VARS = ("x", "y")
_UNARY_OPS = (Inv, Not, Delta)
_BINARY_OPS = (And, Imp, Tensor)

# Enumerations kept, one per (predicates, constants, budget, depth): a diagram
# check adds one constant per element, so a session sees a few keys.
FAMILY_CACHE_SIZE = 16


def _atoms(predicates, constants):
    terms = [Var(v) for v in _FAMILY_VARS] + [App(c, ()) for c in constants]
    yield Node(Bot(), (), ())
    yield Node(One(), (), ())
    for pred, arity in predicates:
        for args in product(terms, repeat=arity):
            free = tuple(v for v in _FAMILY_VARS if Var(v) in args)
            yield Node(Atom(pred, args), (), free)


def _compounds(members: List[Node], layers: List[range]):
    """The members one size up from the last layer, in canonical order."""
    size = len(layers) + 1
    for op in _UNARY_OPS:
        for i in layers[size - 2]:
            m = members[i]
            yield Node(op(m.formula), (i,), m.free)
    for op in _BINARY_OPS:
        for left_size in range(1, size - 1):
            for i in layers[left_size - 1]:
                a = members[i]
                for j in layers[size - 2 - left_size]:
                    b = members[j]
                    free = tuple(v for v in _FAMILY_VARS if v in a.free or v in b.free)
                    yield Node(op(a.formula, b.formula), (i, j), free)
    for i in layers[size - 2]:
        body = members[i]
        for var in _FAMILY_VARS:
            if var in body.free:
                free = tuple(v for v in body.free if v != var)
                yield Node(Forall(var, body.formula), (i,), free)
                yield Node(Exists(var, body.formula), (i,), free)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _enumeration(predicates: Tuple[Tuple[str, int], ...], constants: Tuple[str, ...],
                 budget: int, depth: Optional[int]) -> Tuple["_Cut", "_Cut"]:
    """Two cuts of one family: the canonical enumeration cut to connective
    depth <= depth (depth None: whole), and that family cut to its
    sentences and their subformulas, in family order.  Both share the
    enumeration's cache entry, so each family is planned once and its
    classes are proved once; evicting the entry drops them all."""
    members: List[Node] = []
    layers: List[range] = []
    layer = _atoms(predicates, constants)
    while len(members) < budget:
        start = len(members)
        members.extend(islice(layer, budget - start))
        if len(members) == start:
            break
        layers.append(range(start, len(members)))
        layer = _compounds(members, layers)
    depths: List[int] = []
    for member in members:
        depths.append(max([depths[k] + 1 for k in member.kids], default=0))
    family = tuple(map(Step._make, plan(_kept(
        members, [depth is None or d <= depth for d in depths]))))
    # a member is kept iff it is a sentence or a kid of a kept member
    keep = [not step.free for step in family]
    for i in range(len(family) - 1, -1, -1):
        if keep[i]:
            for k in family[i].kids:
                keep[k] = True
    return (_Cut(family, predicates, constants),
            _Cut(tuple(_kept(family, keep)), predicates, constants))


def _kept(members, keep: List[bool]) -> list:
    """The members i with keep[i], their kids renumbered to index the
    result.  Kids come before their member, and every kept member's kids
    must be kept."""
    at: Dict[int, int] = {}  # index in members -> index in the result
    kept = []
    for i, member in enumerate(members):
        if keep[i]:
            at[i] = len(kept)
            kept.append(member._replace(kids=tuple([at[k] for k in member.kids])))
    return kept


class _Classes(NamedTuple):
    """A cut's members up to proved equality: ``plan`` holds one step per
    class, that of its representative (its first member) with kids
    renumbered to classes, in family order of the representatives; ``of``
    holds each member's class, its index in ``plan``."""

    plan: Tuple[Step, ...]
    of: Tuple[int, ...]


class _Cut:
    """A cut of the canonical family over predicates and constants:
    ``members`` holds its planned steps, one per member in family order,
    and ``classes`` its ``_Classes``, found on first use."""

    def __init__(self, members: Tuple[Step, ...], predicates, constants):
        self.members = members
        self.predicates = predicates
        self.constants = constants

    @cached_property
    def classes(self) -> _Classes:
        return _proved_classes(self.members, self.predicates, self.constants)


def _proved_classes(members: Tuple[Step, ...], predicates, constants) -> _Classes:
    """``_Cut.classes`` of members.

    Member i joins an earlier class by congruence (the same type and bound
    variable as a member of it, with kids in the same classes) or, when it
    is quantifier-free, by a solver proof that it equals a quantifier-free
    representative with the same free variables.  Only a representative
    whose fingerprint (its tables on ``_probes``) is i's is tried, so the
    probes only propose; the proof decides.  Every merge holds in every
    structure of either backend, so a member's table is its
    representative's; a proof that meets a resource limit merges nothing.
    """
    quantifier_free: List[bool] = []
    for phi, kids, *_ in members:
        quantifier_free.append(type(phi) not in QUANTIFIER_CONNECTIVE
                               and all([quantifier_free[k] for k in kids]))
    open_plan = _kept(members, quantifier_free)  # closed under kids
    fingerprints = zip(*[map(tuple, value_tables(probe, open_plan))
                         for probe in _probes(predicates, constants)])
    # x and y become fresh constants, so a proof's atoms are independent unknowns
    taken = {name for name, _ in predicates} | set(constants)
    named = {}
    for var in _FAMILY_VARS:
        named[var] = App(fresh_name(var, taken), ())
        taken.add(named[var].func)
    ground: Dict[int, Formula] = {}  # quantifier-free member -> it over the fresh constants
    classes: List[int] = []
    reps: List[int] = []
    congruent: Dict[object, int] = {}  # congruence key -> class
    proposed: Dict[tuple, List[int]] = {}  # (free, fingerprint) -> classes
    for i, (phi, kids, free, *_) in enumerate(members):
        key = (type(phi), getattr(phi, "var", None), tuple([classes[k] for k in kids])) \
            if kids else phi
        c = congruent.get(key)
        if quantifier_free[i]:
            if type(phi) is Atom:
                ground[i] = Atom(phi.pred, tuple([named.get(t.name, t) if type(t) is Var else t
                                                  for t in phi.args]))
            else:
                ground[i] = rebuild(phi, [ground[k] for k in kids])
            fingerprint = (free, next(fingerprints))
            if c is None:
                rivals = proposed.setdefault(fingerprint, [])
                c = next((d for d in rivals if _proved_equal(ground[reps[d]], ground[i])), None)
                if c is None:
                    rivals.append(len(reps))
        if c is None:
            c = len(reps)
            reps.append(i)
        congruent.setdefault(key, c)
        classes.append(c)
    return _Classes(tuple(members[r]._replace(kids=tuple([classes[k] for k in members[r].kids]))
                          for r in reps), tuple(classes))


def _proved_equal(a: Formula, b: Formula) -> bool:
    """True when the solver proves that the quantifier-free a and b take
    equal values under every valuation of their ground atoms: no branch
    where a <-> b is not inf is feasible over the rationals, so by the
    solver's soundness note none is over any totally ordered abelian
    group.  Valuations that tie atoms are among those.  A resource limit
    proves nothing."""
    try:
        return not any(fm_solve(system.lins).sat
                       for system in compile_inf(Not(Delta(Iff(a, b)))))
    except ResourceLimitError:
        return False


# The fingerprint probes: _PROBE_COUNT rat structures of _PROBE_SIZE elements,
# each entry drawn from _PROBE_VALUES: both bounds, whose mixes tell the crisp
# members apart, and two group values on either side of the identity, powers
# of distinct primes.  Of the proofs they propose, 98% succeed over the
# benchmark's families and 94% over the test suite's; more probes, or more
# values, cost more than the failed proofs they save.
_PROBE_VALUES = (ZERO, INF, rat(2), rat(1, 3))
_PROBE_COUNT = 12
_PROBE_SIZE = 3


def _probes(predicates, constants) -> List[Structure]:
    """Rat structures over predicates and constants, their entries and
    constants drawn with a fixed seed, so the fingerprints are reproducible."""
    rng = Random(31)
    sig = Signature({c: 0 for c in constants}, dict(predicates))
    universe = tuple(f"p{k}" for k in range(_PROBE_SIZE))
    out = []
    for _ in range(_PROBE_COUNT):
        funcs = {c: {(): rng.choice(universe)} for c in constants}
        preds = {name: {args: rng.choice(_PROBE_VALUES)
                        for args in product(universe, repeat=arity)}
                 for name, arity in predicates}
        out.append(Structure(sig, RAT, universe, funcs, preds))
    return out


def _family(sig: Signature, depth: Optional[int], budget: int,
            sentences: bool = False) -> _Cut:
    """The canonical enumeration over sig, cut to connective depth <= depth
    (depth None: whole), after the checks every family entry point shares;
    with sentences, only its sentences and their subformulas."""
    if budget < 1 or (depth is not None and depth < 0):
        raise UsageError(f"the formula family needs depth >= 0 and budget >= 1, "
                         f"got depth {depth} and budget {budget}")
    if depth is not None and depth > MAX_FAMILY_DEPTH:
        raise ResourceLimitError(f"formula-family depth {depth} exceeds {MAX_FAMILY_DEPTH}")
    if budget > MAX_FAMILY_BUDGET:
        raise ResourceLimitError(f"formula-family budget {budget} exceeds {MAX_FAMILY_BUDGET}")
    family, cut = _enumeration(tuple(sorted(sig.predicates.items())),
                               tuple(sig.constants()), budget, depth)
    return cut if sentences else family


def formula_family(sig: Signature, depth: Optional[int] = None,
                   budget: int = DEFAULT_FAMILY_BUDGET) -> List[Formula]:
    """Formulas of connective depth <= depth (depth None: all) from the
    canonical enumeration: size-major, deterministic within a size.

    Terms are variables and constants (no nested function applications;
    function-symbol behavior is checked exactly elsewhere).  Quantifiers
    are emitted only when they bind an occurring variable.  The budget
    caps the total enumeration so downstream checks stay desk-scale; the
    order never depends on a depth bound, which keeps depth-filtered
    families monotone.
    """
    return [m.formula for m in _family(sig, depth, budget).members]


def sentence_family(sig: Signature, depth: int,
                    budget: int = DEFAULT_FAMILY_BUDGET) -> List[Formula]:
    return [m.formula for m in _family(sig, depth, budget, sentences=True).members
            if not m.free]


# ---------------------------------------------------------------------------
# Value tables: the family evaluated bottom-up, once per structure


def _tables(struct: Structure, members: Tuple[Step, ...]):
    """Yield (member, table) per member, in family order: the table lists
    the member's values, as ranks of ``ranks_of(struct)``, over the
    assignments of its free variables in ``product`` order over the
    universe (cell i * n + j holds x = universe[i], y = universe[j])."""
    return zip(members, value_tables(struct, members))


# ---------------------------------------------------------------------------
# Value transport and embedding candidates


@dataclass(frozen=True)
class EmbeddingCandidate:
    """Universe injection, refused on a repeated source or target, plus a
    group transport: for rat the exponent scaling g -> g^exponent on the
    generated subgroup (exponent a positive rational); exponent 1 is the
    identity transport and the only one allowed for lex2 structures.
    """

    mapping: Tuple[Tuple[str, str], ...]  # (source, target) pairs, stored sorted
    exponent: Fraction = Fraction(1)

    def __post_init__(self):
        # sorted, so that candidates for one map compare and hash alike
        object.__setattr__(self, "mapping", tuple(sorted(self.mapping)))
        if self.exponent <= 0:
            raise UsageError("transport exponent must be positive")
        if any(len(set(side)) != len(self.mapping) for side in zip(*self.mapping)):
            raise UsageError("universe mapping must be an injective function")

    @staticmethod
    def make(h: Dict[str, str], exponent=Fraction(1)) -> "EmbeddingCandidate":
        return EmbeddingCandidate(tuple(h.items()), Fraction(exponent))

    @property
    def h(self) -> Dict[str, str]:
        return dict(self.mapping)

    def transport(self, tv: TruthValue) -> Optional[TruthValue]:
        """Apply the group transport; None when the image is irrational."""
        if tv.kind != K_ELEM:
            return tv
        if self.exponent == 1:
            return tv
        if tv.backend is not RAT:
            return None
        scaled = {p: e * self.exponent for p, e in factor_positive(tv.payload).items()}
        if any(e.denominator != 1 for e in scaled.values()):
            return None
        value = Fraction(1)
        for p, e in scaled.items():
            value *= Fraction(p) ** int(e)
        return TruthValue(K_ELEM, value, RAT)


def _require_common(source: Structure, target: Structure) -> None:
    if source.backend is not target.backend:
        raise UsageError("embedding checks need a common backend")
    if source.signature.predicates != target.signature.predicates or \
            source.signature.functions != target.signature.functions:
        raise UsageError("embedding checks need a common signature")


def check_embedding(
    source: Structure,
    target: Structure,
    candidate: EmbeddingCandidate,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> bool:
    """Verify function commutation and every atomic value's transport exactly,
    then value transport over the depth-bounded canonical family (surrogate
    for all formulas); the injection is checked when the candidate is built.

    The transport g -> g^k (k > 0) fixes 0, 1 and inf and is an
    order-preserving group automorphism, so it commutes with every family
    connective; by induction on formulas, every quantifier-free member
    transports once the atoms do and h commutes with the functions.  A map
    onto the target is an isomorphism up to the transport, so there the
    quantifiers transport too and no table is built; any other map compares
    the whole family, one representative per class of proved-equal members.
    """
    _require_common(source, target)
    cut = _family(source.signature, depth, budget)
    if source.backend is not RAT and candidate.exponent != 1:
        raise UsageError("non-identity transports are supported for rat only")
    h = candidate.h
    if set(h) != set(source.universe) or not set(h.values()) <= set(target.universe):
        return False
    if not _commutes(source, target, h) or \
            _candidate_exponent(source, target, h, candidate.exponent) is None:
        return False
    return len(h) == len(target.universe) or \
        _transports(source, target, candidate,
                    _paired_tables(source, target, cut.classes.plan))


def _commutes(source: Structure, target: Structure, h: Dict[str, str]) -> bool:
    for name, table in source.funcs.items():
        for args, out in table.items():
            image = tuple(h[a] for a in args)
            if target.funcs[name][image] != h[out]:
                return False
    return True


def _paired_tables(a: Structure, b: Structure, members: Tuple[Step, ...]):
    """((member, table in a), (member, table in b)) per member, built lazily."""
    here = _tables(a, members)
    if b is a:
        return ((entry, entry) for entry in here)
    return zip(here, _tables(b, members))


def _transports(source: Structure, target: Structure, candidate: EmbeddingCandidate,
                pairs) -> bool:
    """True when every source value, transported, equals the target value
    at the image assignment.

    ``pairs`` yields ((member, source table), (member, target table)) in
    enumeration order, per member or per class representative (a copy's
    tables are its representative's); within a member the assignments of
    its free variables run in ``product`` order over the source universe,
    so the first failing comparison is that of a member-by-member check.
    """
    n, m = len(source.universe), len(target.universe)
    at = {e: k for k, e in enumerate(target.universe)}
    h = candidate.h
    image = [at[h[e]] for e in source.universe]
    line = list(enumerate(image))
    cells = {  # free variables -> (source cell, target cell) per assignment
        (): [(0, 0)],
        ("x",): line,
        ("y",): line,
        ("x", "y"): [(i * n + j, image[i] * m + image[j])
                     for i in range(n) for j in range(n)],
    }
    Vs, Vt = ranks_of(source), ranks_of(target)
    # a source value -> its transport encoded in the target's ranks, so that
    # equal values are equal encodings
    transported: Dict[object, object] = {}
    for (member, here), (_, there) in pairs:
        for s, t in cells[member.free]:
            value = here[s]
            if value not in transported:
                moved = candidate.transport(Vs.decode(value))
                transported[value] = None if moved is None else Vt.encode(moved)
            if transported[value] != there[t]:  # None, an irrational image, is no cell
                return False
    return True


def _candidate_exponent(source: Structure, target: Structure, h: Dict[str, str],
                        exponent: Optional[Fraction] = None):
    """The exponent scaling under which every atomic table entry transports
    exactly through h, or None when there is none.

    A given exponent is checked as it is.  Without one (rat only), the
    first pair of group values whose source is not the identity pins it:
    the ratio of the two values' exponents of the source's least prime;
    pairs before the pinning one are checked under exponent 1, which any
    exponent maps alike.
    """
    candidate = EmbeddingCandidate.make(h, Fraction(1) if exponent is None else exponent)
    pinned = exponent is not None
    for name, table in source.preds.items():
        for args, tv in table.items():
            image = target.preds[name][tuple(h[a] for a in args)]
            if not pinned and tv.kind == image.kind == K_ELEM and tv.payload != 1:
                pinned = True
                vec_s = factor_positive(tv.payload)
                p = min(vec_s)
                r = Fraction(factor_positive(image.payload).get(p, 0), vec_s[p])
                if r <= 0:
                    return None
                candidate = EmbeddingCandidate(candidate.mapping, r)
            if candidate.transport(tv) != image:
                return None
    return candidate.exponent


def search_embeddings(
    source: Structure,
    target: Structure,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> List[EmbeddingCandidate]:
    """All (injection, exponent scaling) pairs that pass check_embedding.

    Injections are enumerated in lexicographic order, at most
    MAX_INJECTIONS of them; the exponent for each injection is pinned by
    the atomic value pairs (1 for lex2).  A source universe larger than
    the target yields no candidates.  As in check_embedding, the family is
    compared only when the injections are not onto: the atomic step
    decides an onto map, by induction on formulas.
    """
    _require_common(source, target)
    cut = _family(source.signature, depth, budget)
    if len(source.universe) > len(target.universe):
        return []
    injections = perm(len(target.universe), len(source.universe))
    if injections > MAX_INJECTIONS:
        raise ResourceLimitError(f"embedding search over {injections} injections "
                                 f"exceeds {MAX_INJECTIONS}")
    onto = len(source.universe) == len(target.universe)
    found = []
    pairs = None  # both structures' tables, built for the first candidate
    for image in permutations(sorted(target.universe), len(source.universe)):
        h = dict(zip(sorted(source.universe), image))
        exponent = _candidate_exponent(source, target, h,
                                       None if source.backend is RAT else Fraction(1))
        if exponent is None or not _commutes(source, target, h):
            continue
        candidate = EmbeddingCandidate.make(h, exponent)
        if pairs is None and not onto:
            pairs = list(_paired_tables(source, target, cut.classes.plan))
        if onto or _transports(source, target, candidate, pairs):
            found.append(candidate)
    return found


# ---------------------------------------------------------------------------
# Bounded equivalence and diagrams


def bounded_elementary_equiv(
    a: Structure,
    b: Structure,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> bool:
    """Same satisfied sentences over the canonical depth-bounded family."""
    return separating_sentence(a, b, depth, budget) is None


def separating_sentence(
    a: Structure,
    b: Structure,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> Optional[Formula]:
    """First family sentence the two structures disagree on, if any.

    Only class representatives are compared: a copy's tables are its
    representative's in both structures, and the representative comes
    first, so the first disagreeing member is one."""
    if a.signature.predicates != b.signature.predicates or \
            a.signature.functions != b.signature.functions:
        raise UsageError("equivalence needs a common signature")
    reduced = _family(a.signature, depth, budget, sentences=True).classes.plan
    top_a, top_b = ranks_of(a).INF, ranks_of(b).INF
    for (member, here), (_, there) in _paired_tables(a, b, reduced):
        if not member.free and (here[0] == top_a) != (there[0] == top_b):
            return member.formula
    return None


def diagram_signature(struct: Structure) -> Tuple[Signature, Dict[str, str]]:
    """Expand the signature with one fresh constant per universe element."""
    names = {}
    taken = set(struct.signature.functions) | set(struct.signature.predicates)
    for element in struct.universe:
        name = fresh_name(f"c_{element}", taken)
        taken.add(name)
        names[element] = name
    return struct.signature.with_constants(names.values()), names


def bounded_ediag(
    struct: Structure,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> List[Formula]:
    """All depth-bounded family sentences, over the element-constant
    expansion, that the structure satisfies, in family order: each is read
    off its class representative's table."""
    sig, names = diagram_signature(struct)
    funcs = dict(struct.funcs)
    for element, cname in names.items():
        funcs[cname] = {(): element}
    expanded = Structure(sig, struct.backend, struct.universe, funcs, dict(struct.preds))
    top = ranks_of(expanded).INF
    cut = _family(sig, depth, budget, sentences=True)
    tables = list(value_tables(expanded, cut.classes.plan))
    return [member.formula for member, c in zip(cut.members, cut.classes.of)
            if not member.free and tables[c][0] == top]
