"""Finite-domain model finding for sentence sets.

Pipeline: ground all quantifiers over n named elements, compile the
condition "every sentence evaluates to absolute truth" into a
disjunction of constraint systems in one ``compile_inf`` call per
theory, and decide each system by Fourier-Motzkin elimination on
integer rows; rationals appear only in the rebuilt witness.  Each
sentence compiles bottom-up over its node list (``syntax.nodes``), so a
subformula object that recurs is compiled once, and the sentences'
branches are joined on their shared atoms.

Each ground atom is an unknown ranging over the three strata of the
carrier: a case tag picks the stratum (zero / group element / inf), and
group-element unknowns are compared through integer-coefficient linear
forms over formal exponents (the group is written multiplicatively, so
products become sums of exponents and inverses become negations).

A satisfiable system yields a rational exponent valuation; scaling all
exponents by the common denominator and raising 2 to them turns the
witness into an exact positive-rational structure, which is then
re-checked against the evaluator before being returned.  Soundness
note: a finite system of integer-coefficient strict and non-strict
linear comparisons is satisfiable in some totally ordered abelian group
iff it is satisfiable over the rationals (divisible hull), so UNSAT
verdicts hold over every totally ordered abelian group; NONE_UP_TO
only means no model with at most n_max elements was found.  The
records are NamedTuples, so a constraint is its own sort and dedupe key.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ResourceLimitError, UsageError
from .semantics import ORDERED, TRUTH, Structure, satisfies
from .syntax import (
    QUANTIFIER_CONNECTIVE, App, Atom, DDArrow, Formula, One, Power, Signature,
    Term, Top, Var, children, free_vars, nodes, print_formula, rebuild,
)
from .values import (
    K_ELEM, K_INF, K_ZERO, LEX2, MAX_POWER_BITS, RAT, TruthValue, lex2, rat,
)

AtomKey = Tuple[str, Tuple[str, ...]]

# Case branches multiply with the nesting of connectives and quantifiers, so
# compile_inf refuses to build more branches than this, for a subformula or
# a theory's join, and fm_solve refuses to derive more comparisons than
# MAX_FM_CONSTRAINTS in one elimination step.  find_model refuses to search
# a domain larger than MAX_DOMAIN elements: over 30 times the largest that
# the test suite or the benchmark reaches (3).
MAX_BRANCHES = 20000
MAX_FM_CONSTRAINTS = 100000
MAX_DOMAIN = 100


# ---------------------------------------------------------------------------
# Linear forms and constraint systems

# A linear form is a tuple of (variable, int coefficient) pairs in the
# variables' natural order, with no zero coefficient (exponent space); a
# constraint means  sum(coeffs) + const  REL  0  with REL in {<, <=, =}.


def _add_forms(f, g, sign: int = 1):
    """The linear form f + sign * g."""
    out = dict(f)
    for v, c in g:
        out[v] = out.get(v, 0) + sign * c
    return tuple(sorted(item for item in out.items() if item[1]))


class Constraint(NamedTuple):
    coeffs: Tuple[Tuple[object, int], ...]
    const: int
    rel: str


class ConstraintSystem(NamedTuple):
    """One case branch: stratum tags for atoms plus linear comparisons."""

    # an atom's tag is the value kind of its stratum, so tags sort in value
    # order (K_ZERO < K_ELEM < K_INF)
    tags: Dict[AtomKey, int]
    lins: List[Constraint]

    def canonical_key(self):
        return (tuple(sorted(self.tags.items())), tuple(sorted(self.lins)))


# ---------------------------------------------------------------------------
# Grounding


def _check_solver_signature(sig: Signature) -> None:
    bad = sorted(n for n, a in sig.functions.items() if a >= 1)
    if bad:
        raise UsageError(
            f"function symbols of positive arity are unsupported by the solver: {bad}"
        )


def element_names(sig: Signature, n: int) -> List[str]:
    """n fresh element names, avoiding collisions with declared symbols."""
    taken = set(sig.functions) | set(sig.predicates)
    prefix = "e"
    while any(f"{prefix}{i}" in taken for i in range(1, n + 1)):
        prefix += "_"
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def ground_sentence(
    phi: Formula, elements: Sequence[str], const_map: Optional[Dict[str, str]] = None
) -> Formula:
    """Replace quantifiers by explicit finite meets/joins over elements.

    Universal quantifiers become left-nested conjunctions, existential
    ones left-nested disjunctions.  Constants are replaced through
    ``const_map``; element occurrences are nullary term applications
    named after the element.
    """
    return _ground(phi, {}, const_map or {}, [App(el, ()) for el in elements])


def _ground(node: Formula, env: Dict[str, Term], const_map: Dict[str, str],
            instances: Sequence[Term]) -> Formula:
    # a module-level function: a nested one that calls itself would leave a
    # reference cycle on every call
    kind = type(node)
    if kind is Atom:
        return Atom(node.pred, tuple(_ground_term(t, const_map, env) for t in node.args))
    if kind in QUANTIFIER_CONNECTIVE:
        parts = [_ground(node.body, {**env, node.var: el}, const_map, instances)
                 for el in instances]
        return reduce(QUANTIFIER_CONNECTIVE[kind], parts)
    return rebuild(node, [_ground(kid, env, const_map, instances) for kid in children(node)])


def _ground_term(t: Term, const_map: Dict[str, str], env: Dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return env.get(t.name, t)
    if t.args:
        raise UsageError("function symbols of positive arity are unsupported by the solver")
    if t.func in const_map:
        return App(const_map[t.func], ())
    return t


# ---------------------------------------------------------------------------
# Compilation into case branches

# Symbolic values during compilation: (K_ZERO,) | (K_INF,) | (K_ELEM, form)
# where form is a linear form over the call's atom numbers (integer
# exponent coefficients).

_SYM_Z = (K_ZERO,)
_SYM_I = (K_INF,)


def _atom_key(phi: Atom) -> AtomKey:
    names = []
    for t in phi.args:
        if isinstance(t, App) and not t.args:
            names.append(t.func)
        else:
            raise UsageError(f"compile expects ground atoms, got argument {t!r}")
    return (phi.pred, tuple(names))


def _join(left, right):
    """(count, pairs): pairs yields (tags, a, b) for each pair of branches
    a in left, b in right whose tags agree on their shared atoms; tags is
    the union of both.

    A branch is a tuple (tags, lins, ...) whose tags are one int, the
    bitset form of a partial assignment (Knuth, TAOCP 4A, 7.1.3): atom
    number i holds its stratum kind + 1 in bits 2i and 2i + 1, and 0
    there means untagged.  Every branch of one side tags the same atoms
    (those of its subformula or sentences), so the bits of the shared
    atoms come from the first branch of each side.  The right side is
    grouped once by its tags on them (tags & shared), each left branch
    meets only its own group, and a pair's union is a | b: conflicting
    pairs are never visited.  With no shared atom the one group is all of
    ``right``.  Pairs come out left-major, each group in the order of
    ``right``.

    count is the number of pairs, summed from the group sizes before any
    pair is built (Selinger et al., SIGMOD 1979), when len(left) *
    len(right) exceeds MAX_BRANCHES, and that product otherwise: so
    count > MAX_BRANCHES exactly when the pairs are over the budget.
    """
    count = len(left) * len(right)
    if not count:
        return 0, ()
    shared = _tagged_bits(left[0][0]) & _tagged_bits(right[0][0])
    groups: Dict[int, list] = {}
    for b in right:
        groups.setdefault(b[0] & shared, []).append(b)
    if count > MAX_BRANCHES:
        count = sum(len(groups.get(a[0] & shared, ())) for a in left)
    return count, ((a[0] | b[0], a, b)
                   for a in left for b in groups.get(a[0] & shared, ()))


def _tagged_bits(tags: int) -> int:
    """Both bits of every atom that the packed tags tag."""
    low = (1 << (tags.bit_length() | 1) + 1) // 3  # bits 0, 2, 4, ... up to the top atom
    return ((tags | tags >> 1) & low) * 3


def _unpack(tags: int, atoms: Sequence[AtomKey]) -> Dict[AtomKey, int]:
    """Packed tags as a dict, atom number i being atoms[i]."""
    out = {}
    for key in atoms:
        if tags & 3:
            out[key] = (tags & 3) - 1
        tags >>= 2
    return out


class _Symbolic:
    """The algebra of symbolic values that the truth functions run on."""

    ZERO = _SYM_Z
    ONE = (K_ELEM, ())
    INF = _SYM_I

    @staticmethod
    def is_zero(v) -> bool:
        return v[0] == K_ZERO

    @staticmethod
    def is_inf(v) -> bool:
        return v[0] == K_INF

    @staticmethod
    def mul(a, b):
        kinds = {a[0], b[0]}
        if kinds == {K_ELEM}:
            return (K_ELEM, _add_forms(a[1], b[1]))
        if kinds == {K_ZERO, K_INF}:
            return (K_ELEM, ())  # inf * 0 = identity
        if K_ZERO in kinds:
            return _SYM_Z
        return _SYM_I

    @staticmethod
    def inv(v):
        if v == _SYM_Z:
            return _SYM_I
        if v == _SYM_I:
            return _SYM_Z
        return (K_ELEM, tuple((k, -c) for k, c in v[1]))

    @staticmethod
    def power(v, n: int):
        if v[0] != K_ELEM:
            return v
        return (K_ELEM, tuple((k, c * n) for k, c in v[1]))


# Order cases [(extra constraints, rel)], rel in {-1, 0, 1} the sign of v1 - v2
_UNSPLIT = [([], 0)]
_BELOW = [([], -1)]
_ABOVE = [([], 1)]


def compile_inf(*sentences: Formula) -> List[ConstraintSystem]:
    """Branches whose union of solution sets is exactly {valuations: every
    sentence = INF}, in canonical order (``ConstraintSystem.canonical_key``).

    The sentences compile in order, and one that is never INF ends the
    call with [] before a later one compiles; then their "= inf" branches
    are joined, starting from ``compile_inf()``'s one empty branch.
    Raises ResourceLimitError when a subformula has more than MAX_BRANCHES
    branches, or the join more pairs.  Each pair of operand branches
    makes at least one branch, so a binary node is refused on its pair
    count before its join is built; an ordered one is also checked per
    pair, for its order splits.
    """
    # Each node's branches are [(tags, lins, sym_value)].  A connective's
    # value is its truth function from semantics.TRUTH, run on the symbolic
    # algebra once per joined pair of operand branches and, for an ORDERED
    # connective, once per case of the order between its two operands.
    # A subformula that recurs in a sentence is compiled once.  An atom is
    # its number in the sorted list of the call's atoms, so a form over
    # numbers lists its atoms in key order too, and tags are packed in one
    # int by those numbers (see _join); only the returned branches get dict
    # tags.  A sentence's "= inf" branches all tag its atoms, so their kinds
    # in number order sort the branches as canonical_key does.
    node_lists = [nodes(phi) for phi in sentences]
    atom_at = [{k: _atom_key(node) for k, (node, _, _) in enumerate(node_list)
                if type(node) is Atom} for node_list in node_lists]
    atoms = sorted({key for at in atom_at for key in at.values()})
    number = {key: i for i, key in enumerate(atoms)}
    pairs: Dict[tuple, list] = {}   # (form1, form2) -> order cases
    splits: Dict[tuple, tuple] = {}  # reduced difference -> its cases, both signs

    def order_cases(v1, v2):
        """Disjoint exhaustive cases for the order between two symbolic
        values: strata order the kinds outright; two group-element forms
        split on the sign of their difference d.  d is divided by the gcd
        of its coefficients and made sign-canonical (first coefficient
        positive), so d, -d and their multiples share one set of
        constraints."""
        k1, k2 = v1[0], v2[0]
        if k1 != k2:
            return _BELOW if k1 < k2 else _ABOVE
        if k1 != K_ELEM:
            return _UNSPLIT
        cases = pairs.get((v1[1], v2[1]))
        if cases is not None:
            return cases
        diff = _add_forms(v1[1], v2[1], -1)
        if not diff:
            cases = _UNSPLIT
        else:
            g = gcd(*(c for _, c in diff))
            if diff[0][1] < 0:
                g = -g
            reduced = tuple((v, c // g) for v, c in diff)
            both = splits.get(reduced)
            if both is None:
                form = tuple((atoms[v], c) for v, c in reduced)
                below = Constraint(form, 0, "<")
                equal = Constraint(form, 0, "=")
                above = Constraint(tuple((v, -c) for v, c in form), 0, "<")
                both = splits[reduced] = (
                    [([below], -1), ([equal], 0), ([above], 1)],
                    [([above], -1), ([equal], 0), ([below], 1)],
                )
            cases = both[g < 0]
        pairs[v1[1], v2[1]] = cases
        return cases

    per_sentence = []
    for node_list, at in zip(node_lists, atom_at):
        compiled: List[list] = []
        for k, (node, kids, _) in enumerate(node_list):
            kind = type(node)
            if kind is Atom:
                i = number[at[k]]
                out = [
                    (K_ZERO + 1 << 2 * i, [], _SYM_Z),
                    (K_ELEM + 1 << 2 * i, [], (K_ELEM, ((i, 1),))),
                    (K_INF + 1 << 2 * i, [], _SYM_I),
                ]
            elif kind in QUANTIFIER_CONNECTIVE:
                raise UsageError("compile expects a ground sentence; run ground_sentence() first")
            elif len(kids) < 2:
                truth = TRUTH[kind]
                out = [(tags, lins, truth(_Symbolic, node, 0, *v))
                       for tags, lins, *v in (compiled[kids[0]] if kids else [(0, [])])]
            else:
                truth = TRUTH[kind]
                ordered = kind in ORDERED
                out = []
                left, right = kids
                count, joined = _join(compiled[left], compiled[right])
                if count > MAX_BRANCHES:
                    raise ResourceLimitError(f"case-branch count exceeds budget {MAX_BRANCHES}: "
                                             f"{kind.__name__} with {count} operand pairs")
                for tags, (_, lins1, v1), (_, lins2, v2) in joined:
                    lins = lins1 + lins2
                    for extra, rel in order_cases(v1, v2) if ordered else _UNSPLIT:
                        out.append((tags, lins + extra, truth(_Symbolic, node, rel, v1, v2)))
                    if len(out) > MAX_BRANCHES:
                        raise ResourceLimitError(
                            f"case-branch count exceeds budget {MAX_BRANCHES}: "
                            f"{kind.__name__} with at least {len(out)} branches")
            compiled.append(out)

        shifts = sorted({2 * number[key] for key in at.values()})
        systems = {}
        for tags, lins, v in compiled[-1]:
            if v == _SYM_I:
                lins = list(dict.fromkeys(lins))
                key = (tuple(tags >> shift & 3 for shift in shifts),
                       tuple(sorted((c.coeffs, c.const, c.rel) for c in lins)))
                systems.setdefault(key, (tags, lins))
        if not systems:
            return []
        per_sentence.append([systems[key] for key in sorted(systems)])

    # one combined branch per pair, so the pair count is the branch count
    merged = [(0, [])]
    for branches in per_sentence:
        count, joined = _join(merged, branches)
        if count > MAX_BRANCHES:
            raise ResourceLimitError(f"combined case-branch count exceeds budget "
                                     f"{MAX_BRANCHES}: {count} branch pairs")
        merged = [(tags, list(dict.fromkeys(a[1] + b[1]))) for tags, a, b in joined]
    return sorted((ConstraintSystem(_unpack(tags, atoms), lins) for tags, lins in merged),
                  key=ConstraintSystem.canonical_key)


# ---------------------------------------------------------------------------
# Fourier-Motzkin on integer rows


class FMResult(NamedTuple):
    sat: bool
    witness: Optional[Dict[object, Fraction]] = None
    certificate: Optional[str] = None


def fm_solve(constraints: Sequence[Constraint]) -> FMResult:
    """Decide a conjunction of linear comparisons over the rationals.

    Rows stay integer (Schrijver, Theory of Linear and Integer
    Programming, 1986, section 12.2).  An equality c*x + e = 0 is removed
    by multiplying every other row through by |c| and substituting; a
    variable x is then eliminated by combining each lower bound
    a*x + l REL 0 (a < 0) with each upper bound b*x + u REL 0 (b > 0)
    into b*l - a*u REL 0, strict if either is.  Every derived row is
    divided by the gcd of its coefficients and constant.  SAT returns a
    concrete rational valuation (reconstructed by walking the
    elimination stack backwards); UNSAT is certified by a contradictory
    constant comparison.
    """
    work = [(dict(c.coeffs), c.const, c.rel) for c in constraints]
    substitutions: List[Tuple[object, Dict, int]] = []  # var, an equality row
    eliminations: List[Tuple[object, List, List]] = []  # var, lowers, uppers

    # equality substitution pass
    while True:
        eq_index = next(
            (i for i, (coeffs, _, rel) in enumerate(work) if rel == "=" and coeffs),
            None,
        )
        if eq_index is None:
            break
        eq = coeffs, cst, _ = work.pop(eq_index)
        var = min(coeffs)
        sign = 1 if coeffs[var] > 0 else -1
        substitutions.append((var, coeffs, cst))
        # |c| * row - sign(c) * a * eq, with c and a the coefficients of var
        work = [_combine(var, abs(coeffs[var]), row, -sign * row[0][var], eq, row[2])
                if var in row[0] else row for row in work]

    # the equalities left are constant rows, checked with the inequalities
    def constant_check(items):
        for coeffs, cst, rel in items:
            if coeffs:
                continue
            if rel == "=" and cst:
                return f"0 = {cst} is false"
            if rel == "<" and not cst < 0:
                return f"0 < {-cst} is false" if cst else "0 < 0 is false"
            if rel == "<=" and not cst <= 0:
                return f"0 <= {-cst} is false"
        return None

    while True:
        cert = constant_check(work)
        if cert is not None:
            return FMResult(False, certificate=cert)
        lower_count, upper_count = Counter(), Counter()
        for coeffs, _, _ in work:
            for v, c in coeffs.items():
                (upper_count if c > 0 else lower_count)[v] += 1
        variables = lower_count.keys() | upper_count.keys()
        if not variables:
            break
        # eliminate the variable with the cheapest lower*upper product
        var = min(variables, key=lambda v: (lower_count[v] * upper_count[v], v))
        lowers, uppers, new = [], [], []
        for row in work:
            c = row[0].get(var, 0)
            (new if c == 0 else uppers if c > 0 else lowers).append(row)
        eliminations.append((var, lowers, uppers))
        for lo in lowers:
            for hi in uppers:
                rel = "<" if "<" in (lo[2], hi[2]) else "<="
                new.append(_combine(var, hi[0][var], lo, -lo[0][var], hi, rel))
        if len(new) > MAX_FM_CONSTRAINTS:
            raise ResourceLimitError(
                f"Fourier-Motzkin constraint count exceeds budget {MAX_FM_CONSTRAINTS}"
            )
        work = new

    # feasible: rebuild a witness, last eliminated variable first; variables
    # that dropped out unconstrained default to 0 and are overwritten below
    witness: Dict[object, Fraction] = {}
    for c in constraints:
        for v, _ in c.coeffs:
            witness.setdefault(v, Fraction(0))
    for var, lowers, uppers in reversed(eliminations):
        lo = None
        lo_strict = False
        for coeffs, cst, rel in lowers:
            value = _solve_for(var, coeffs, cst, witness)
            if lo is None or value > lo or (value == lo and rel == "<"):
                lo, lo_strict = value, rel == "<"
        hi = None
        hi_strict = False
        for coeffs, cst, rel in uppers:
            value = _solve_for(var, coeffs, cst, witness)
            if hi is None or value < hi or (value == hi and rel == "<"):
                hi, hi_strict = value, rel == "<"
        witness[var] = _pick_in_interval(lo, lo_strict, hi, hi_strict)
    for var, coeffs, cst in reversed(substitutions):
        witness[var] = _solve_for(var, coeffs, cst, witness)
    return FMResult(True, witness=witness)


def _solve_for(var, coeffs, cst, witness) -> Fraction:
    """The value of var that makes sum(coeffs) + cst zero at witness."""
    rest = sum((k * witness[v] for v, k in coeffs.items() if v != var), Fraction(cst))
    return rest / -coeffs[var]


def _combine(var, m1, row1, m2, row2, rel):
    """The row m1 * row1 + m2 * row2, in which var cancels, divided by the
    gcd of its coefficients and constant."""
    coeffs = {v: m1 * k for v, k in row1[0].items() if v != var}
    for v, k in row2[0].items():
        if v != var:
            coeffs[v] = coeffs.get(v, 0) + m2 * k
    coeffs = {v: k for v, k in coeffs.items() if k}
    cst = m1 * row1[1] + m2 * row2[1]
    g = gcd(cst, *coeffs.values())
    if g > 1:
        coeffs = {v: k // g for v, k in coeffs.items()}
        cst //= g
    return coeffs, cst, rel


def _pick_in_interval(lo, lo_strict, hi, hi_strict) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if hi is None:
        return lo + 1
    if lo is None:
        return hi - 1
    if lo == hi:
        if lo_strict or hi_strict:
            raise AssertionError("elimination left an empty interval")
        return lo
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Model search


class SolveStats(NamedTuple):
    """Search counters.  Each examined branch is one fm_solve call, each
    constant map is one up to renaming of elements (``_constant_maps``),
    and the domain sizes tried run up to the model's size, or n_max
    without one."""

    constant_maps_tried: int = 0
    branches_examined: int = 0


class FindResult(NamedTuple):
    structure: Optional[Structure]
    stats: SolveStats

    @property
    def sat(self) -> bool:
        return self.structure is not None


def find_model(sig: Signature, theory: Sequence[Formula], n_max: int) -> FindResult:
    """Iterative-deepening search for a finite rational-backend model.

    Per domain size, the constants take one map per orbit under renaming
    of elements.  Per map, one ``compile_inf`` call compiles and joins
    the ground theory, and its branches are examined in their canonical
    order, so the witness is reproducible.  A NONE result is not a proof
    of unsatisfiability beyond n_max elements.  Raises ResourceLimitError
    when the search reaches a size above MAX_DOMAIN, so a model smaller than
    that is found whatever n_max is.
    """
    _check_solver_signature(sig)
    for phi in theory:
        if free_vars(phi):
            raise UsageError(f"theory contains a non-sentence: {print_formula(phi)}")
    maps = branches = 0
    constants = sig.constants()
    for n in range(1, n_max + 1):
        if n > MAX_DOMAIN:
            raise ResourceLimitError(f"domain size {n} exceeds the bound {MAX_DOMAIN}")
        elements = element_names(sig, n)
        for values in _constant_maps(elements, len(constants)):
            maps += 1
            const_map = dict(zip(constants, values))
            grounded = [ground_sentence(phi, elements, const_map) for phi in theory]
            for system in compile_inf(*grounded):
                branches += 1
                result = fm_solve(system.lins)
                if not result.sat:
                    continue
                struct = _witness_structure(sig, elements, const_map, system, result.witness)
                for phi in theory:
                    if not satisfies(struct, phi):
                        raise AssertionError(
                            f"solver produced a non-model for {print_formula(phi)}"
                        )
                return FindResult(struct, SolveStats(maps, branches))
    return FindResult(None, SolveStats(maps, branches))


def _constant_maps(elements, k: int, used: int = 0):
    """The maps of k constants into elements up to renaming of elements, in
    lexicographic order: the first constant goes to the first element and
    each further one to an element already used or to the next unused one
    (a restricted-growth string).  Each is the lexicographically first map
    of its orbit, so a sweep over them meets its first model or budget hit
    where the sweep over all maps does."""
    if k == 0:
        yield ()
        return
    for i in range(min(used + 1, len(elements))):
        for rest in _constant_maps(elements, k - 1, max(used, i + 1)):
            yield (elements[i],) + rest


def _witness_structure(sig, elements, const_map, system, witness) -> Structure:
    # scale exponents to integers; constraints are homogeneous, so a
    # uniform positive scaling preserves them, and base 2 keeps values rational
    denominators = [v.denominator for v in witness.values()]
    scale = lcm(*denominators) if denominators else 1
    exponents = {var: int(v * scale) for var, v in witness.items()}
    # 2 ** e has |e| + 1 bits: refuse an exponent past the bound before any value is built
    largest = max(map(abs, exponents.values()), default=0)
    if largest > MAX_POWER_BITS:
        raise ResourceLimitError(f"witness exponent {largest} would exceed {MAX_POWER_BITS} bits")

    # equal values share one object, so the witness re-check hashes each once
    made: Dict[Tuple[int, int], TruthValue] = {}

    def atom_value(key: AtomKey) -> TruthValue:
        # an atom no sentence mentions is unconstrained: it becomes 2**0 = 1
        kind = system.tags.get(key, K_ELEM)
        exponent = exponents.get(key, 0) if kind == K_ELEM else 0
        got = made.get((kind, exponent))
        if got is None:
            got = made[kind, exponent] = (
                rat(Fraction(2) ** exponent) if kind == K_ELEM else TruthValue(kind))
        return got

    preds = {}
    for name, arity in sig.predicates.items():
        table = {}
        for args in product(elements, repeat=arity):
            table[args] = atom_value((name, tuple(args)))
        preds[name] = table
    funcs = {name: {(): const_map[name]} for name in sig.functions}
    return Structure(sig, RAT, tuple(elements), funcs, preds)


# ---------------------------------------------------------------------------
# The non-archimedean reproduction lab


class RemarkLabReport(NamedTuple):
    n: int
    standard_ok: bool
    lex_ok: bool
    standard_structure: Structure
    lex_structure: Structure
    failures: List[str]


def remark_theory_fragment(n: int) -> Tuple[Signature, List[Formula]]:
    """The finite fragment {one ==> rho, eps ==> top} + {rho^k ==> eps}, k <= n."""
    sig = Signature(predicates={"rho": 0, "eps": 0})
    rho, eps = Atom("rho"), Atom("eps")
    axioms: List[Formula] = [DDArrow(One(), rho), DDArrow(eps, Top())]
    axioms += [DDArrow(Power(rho, k), eps) for k in range(1, n + 1)]
    return sig, axioms


def remark_lab(n: int) -> RemarkLabReport:
    """Build and validate the two witnesses for the n-axiom fragment.

    The rational structure rho=2, eps=2^(n+1) shows the fragment is
    satisfiable by a standard model for every finite n, while the
    lexicographic-pair structure rho=(1,2), eps=(2,1) satisfies every
    axiom uniformly: (1,2)^k = (1,2^k) stays below (2,1) for all k.
    Every axiom is re-checked through the evaluator, exactly.

    Raises ResourceLimitError when n > MAX_POWER_BITS: rho^n has n bits.
    """
    if n < 1:
        raise UsageError("remark_lab needs n >= 1")
    if n > MAX_POWER_BITS:
        raise ResourceLimitError(f"the power rho^n would exceed {MAX_POWER_BITS} bits")
    sig, axioms = remark_theory_fragment(n)
    standard = Structure(sig, RAT, ("m1",), {}, {
        "rho": {(): rat(2)},
        "eps": {(): rat(Fraction(2) ** (n + 1))},
    })
    lex_struct = Structure(sig, LEX2, ("m1",), {}, {
        "rho": {(): lex2(1, 2)},
        "eps": {(): lex2(2, 1)},
    })
    failures = []
    standard_ok = True
    lex_ok = True
    for phi in axioms:
        if not satisfies(standard, phi):
            standard_ok = False
            failures.append(f"standard model fails {print_formula(phi)}")
        if not satisfies(lex_struct, phi):
            lex_ok = False
            failures.append(f"lex model fails {print_formula(phi)}")
    return RemarkLabReport(n, standard_ok, lex_ok, standard, lex_struct, failures)
