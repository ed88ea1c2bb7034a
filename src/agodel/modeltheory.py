"""Desk-scale model theory: generated subgroups, embeddings, equivalence.

The textbook notions quantify over all formulas; here they are replaced
by honest finite surrogates.  A canonical formula family is enumerated
deterministically (size-ordered, documented budget) so that
depth-bounded checks are reproducible and monotone in the depth bound.

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
from itertools import permutations, product
from typing import Dict, List, Optional, Tuple

from .errors import ResourceLimitError, UsageError
from .semantics import Structure, eval_formula, satisfies
from .syntax import (
    And, App, Atom, Bot, Delta, Exists, Forall, Formula, Imp, Inv, Not, One,
    Signature, Tensor, Var, formula_depth, free_vars,
)
from .values import RAT, K_ELEM, TruthValue

_FACTOR_LIMIT = 10 ** 6  # trial division bound; beyond this we refuse, never guess

DEFAULT_FAMILY_BUDGET = 600
MAX_FAMILY_DEPTH = 8


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


def enumerate_formulas(sig: Signature, budget: int = DEFAULT_FAMILY_BUDGET) -> List[Formula]:
    """The canonical enumeration: size-major, deterministic within a size.

    Terms are variables and constants (no nested function applications;
    function-symbol behavior is checked exactly elsewhere).  Quantifiers
    are emitted only when they bind an occurring variable.  The budget
    caps the total enumeration so downstream checks stay desk-scale; the
    order never depends on a depth bound, which keeps depth-filtered
    families monotone.
    """
    terms: List = [Var(v) for v in _FAMILY_VARS]
    terms += [App(c, ()) for c in sig.constants()]
    size1: List[Formula] = [Bot(), One()]
    for pred in sorted(sig.predicates):
        arity = sig.predicates[pred]
        for args in product(terms, repeat=arity):
            size1.append(Atom(pred, tuple(args)))
    layers: List[List[Formula]] = [size1]
    out: List[Formula] = list(size1[:budget])
    while len(out) < budget:
        size = len(layers) + 1
        layer: List[Formula] = []
        for op in _UNARY_OPS:
            layer += [op(phi) for phi in layers[size - 2]]
        for op in _BINARY_OPS:
            for left_size in range(1, size - 1):
                right_size = size - 1 - left_size
                for left in layers[left_size - 1]:
                    for right in layers[right_size - 1]:
                        layer.append(op(left, right))
        for body in layers[size - 2]:
            fv = free_vars(body)
            for var in _FAMILY_VARS:
                if var in fv:
                    layer.append(Forall(var, body))
                    layer.append(Exists(var, body))
        if not layer:
            break
        layers.append(layer)
        out += layer[: budget - len(out)]
    return out[:budget]


def formula_family(sig: Signature, depth: int,
                   budget: int = DEFAULT_FAMILY_BUDGET) -> List[Formula]:
    """Formulas of connective depth <= depth from the canonical enumeration."""
    if depth > MAX_FAMILY_DEPTH:
        raise ResourceLimitError(f"formula-family depth {depth} exceeds {MAX_FAMILY_DEPTH}")
    return [phi for phi in enumerate_formulas(sig, budget)
            if formula_depth(phi) <= depth]


def sentence_family(sig: Signature, depth: int,
                    budget: int = DEFAULT_FAMILY_BUDGET) -> List[Formula]:
    return [phi for phi in formula_family(sig, depth, budget)
            if not free_vars(phi)]


# ---------------------------------------------------------------------------
# Value transport and embedding candidates


@dataclass(frozen=True)
class EmbeddingCandidate:
    """Universe injection plus a group transport.

    For the rat backend the transport is the exponent scaling
    g -> g^exponent on the generated subgroup (exponent a positive
    rational); exponent 1 is the identity transport and the only one
    allowed for lex2 structures.
    """

    mapping: Tuple[Tuple[str, str], ...]  # sorted (source, target) pairs
    exponent: Fraction = Fraction(1)

    def __post_init__(self):
        if self.exponent <= 0:
            raise UsageError("transport exponent must be positive")

    @staticmethod
    def make(h: Dict[str, str], exponent=Fraction(1)) -> "EmbeddingCandidate":
        if len(set(h.values())) != len(h):
            raise UsageError("universe mapping must be injective")
        return EmbeddingCandidate(tuple(sorted(h.items())), Fraction(exponent))

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
    """Verify function commutation exactly and value transport over the
    depth-bounded canonical family (surrogate for all formulas)."""
    _require_common(source, target)
    if source.backend is not RAT and candidate.exponent != 1:
        raise UsageError("non-identity transports are supported for rat only")
    h = candidate.h
    if set(h) != set(source.universe):
        return False
    if not set(h.values()) <= set(target.universe):
        return False
    for name, table in source.funcs.items():
        for args, out in table.items():
            image = tuple(h[a] for a in args)
            if target.funcs[name][image] != h[out]:
                return False
    family = formula_family(source.signature, depth, budget)
    for phi in family:
        fv = sorted(free_vars(phi))
        for values in product(source.universe, repeat=len(fv)):
            env = dict(zip(fv, values))
            transported = candidate.transport(eval_formula(phi, source, env))
            if transported is None:
                return False
            image_env = {v: h[e] for v, e in env.items()}
            if transported != eval_formula(phi, target, image_env):
                return False
    return True


def _candidate_exponent(source: Structure, target: Structure, h: Dict[str, str]):
    """Derive the unique exponent scaling compatible with the atomic tables.

    Returns a Fraction, or None when no exponent scaling can transport
    the atomic values (strata mismatch, non-parallel exponent vectors).
    """
    exponent: Optional[Fraction] = None
    for name, table in source.preds.items():
        for args, tv in table.items():
            image = target.preds[name][tuple(h[a] for a in args)]
            if tv.kind != image.kind:
                return None
            if tv.kind != K_ELEM:
                continue
            vec_s = factor_positive(tv.payload)
            vec_t = factor_positive(image.payload)
            if not vec_s:
                if vec_t:
                    return None
                continue
            if not vec_t:
                return None
            if set(vec_s) != set(vec_t):
                return None
            ratios = {Fraction(vec_t[p], vec_s[p]) for p in vec_s}
            if len(ratios) != 1:
                return None
            r = ratios.pop()
            if r <= 0:
                return None
            if exponent is None:
                exponent = r
            elif exponent != r:
                return None
    return exponent if exponent is not None else Fraction(1)


def search_embeddings(
    source: Structure,
    target: Structure,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> List[EmbeddingCandidate]:
    """All (injection, exponent scaling) pairs that pass check_embedding.

    Injections are enumerated in lexicographic order; the exponent for
    each injection is pinned by the atomic value pairs.  A source
    universe larger than the target yields no candidates.
    """
    _require_common(source, target)
    if len(source.universe) > len(target.universe):
        return []
    found = []
    for image in permutations(sorted(target.universe), len(source.universe)):
        h = dict(zip(sorted(source.universe), image))
        if source.backend is RAT:
            exponent = _candidate_exponent(source, target, h)
            if exponent is None:
                continue
        else:
            exponent = Fraction(1)
        candidate = EmbeddingCandidate.make(h, exponent)
        if check_embedding(source, target, candidate, depth, budget):
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
    """First family sentence the two structures disagree on, if any."""
    if a.signature.predicates != b.signature.predicates or \
            a.signature.functions != b.signature.functions:
        raise UsageError("equivalence needs a common signature")
    for phi in sentence_family(a.signature, depth, budget):
        if satisfies(a, phi) != satisfies(b, phi):
            return phi
    return None


def diagram_signature(struct: Structure) -> Tuple[Signature, Dict[str, str]]:
    """Expand the signature with one fresh constant per universe element."""
    names = {}
    taken = set(struct.signature.functions) | set(struct.signature.predicates)
    for element in struct.universe:
        name = f"c_{element}"
        while name in taken:
            name += "'"
        taken.add(name)
        names[element] = name
    return struct.signature.with_constants(names.values()), names


def bounded_ediag(
    struct: Structure,
    depth: int,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> List[Formula]:
    """All depth-bounded family sentences, over the element-constant
    expansion, that the structure satisfies."""
    sig, names = diagram_signature(struct)
    funcs = dict(struct.funcs)
    for element, cname in names.items():
        funcs[cname] = {(): element}
    expanded = Structure(sig, struct.backend, struct.universe, funcs, dict(struct.preds))
    return [phi for phi in sentence_family(sig, depth, budget)
            if satisfies(expanded, phi)]
