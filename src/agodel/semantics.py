"""Finite structures and exact formula evaluation.

A structure interprets every function symbol by a total table over a
finite nonempty universe and every predicate symbol by a total table of
truth values.  Finiteness makes every structure safe: quantifier values
are finite minima and maxima, so evaluation is exact and total.

Every connective, core or derived, is defined once, as the text of one
expression over a small algebra interface; its truth function in
``TRUTH``, the set ``ORDERED`` and its rank kernel are compiled from that
text at import.  The one evaluator runs in two steps over a formula's DAG
node list (``syntax.nodes``): ``plan`` picks each node's kernel once per
list, and ``value_tables`` runs the kernels on value ranks, one table per
subformula over the assignments of its free variables; the solver runs
the truth functions on symbolic values over the same list.  ``Ranks``,
the one interned value sort, which the classical companion's evaluator
(``translation``) runs on too, encodes every value so that it orders
natively.  So a quantifier is min or max of each run of cells, and the
connectives that only choose among their operands, 0 and inf (And and Or
among them) get one comprehension each: their definition read on ranks,
where the algebra's tests are comparisons.  The rest run their truth
function per cell.
``syntax.expand_derived`` gives derived connectives by definition, and
the test suite checks the two agree.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import UsageError
from .syntax import (
    QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, DArrow, DDArrow, Delta,
    Forall, Formula, Iff, Imp, Inv, LukImp, Node, Not, One, Or, Power, Signature,
    Tensor, Term, Top, Var, content_lines, nodes,
)
from .values import (
    INF, K_ELEM, ZERO, GroupBackend, TruthValue, backend_by_name,
    format_truth_value, one, order_key, parse_truth_value, tv_inv, tv_mul,
    tv_power,
)

Assignment = Dict[str, str]


@dataclass
class Structure:
    """Finite interpretation of a signature over one group backend."""

    signature: Signature
    backend: GroupBackend
    universe: Tuple[str, ...]
    funcs: Dict[str, Dict[Tuple[str, ...], str]] = field(default_factory=dict)
    preds: Dict[str, Dict[Tuple[str, ...], TruthValue]] = field(default_factory=dict)
    _ranks: Optional["Ranks"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.universe = tuple(self.universe)
        if not self.universe:
            raise UsageError("universe must be nonempty")
        if len(set(self.universe)) != len(self.universe):
            raise UsageError("duplicate universe elements")
        members = set(self.universe)
        for name, arity in self.signature.functions.items():
            table = self.funcs.get(name)
            if table is None:
                raise UsageError(f"missing table for function {name!r}")
            self._check_total(name, table, arity)
            for args, out in table.items():
                if out not in members:
                    raise UsageError(f"function {name!r} maps {args} outside the universe")
        for name, arity in self.signature.predicates.items():
            table = self.preds.get(name)
            if table is None:
                raise UsageError(f"missing table for predicate {name!r}")
            self._check_total(name, table, arity)
            for args, tv in table.items():
                if tv.kind == K_ELEM and tv.backend is not self.backend:
                    raise UsageError(
                        f"predicate {name!r} at {args} uses backend "
                        f"{tv.backend.name}, structure is {self.backend.name}"
                    )
        extra = set(self.funcs) - set(self.signature.functions)
        extra |= set(self.preds) - set(self.signature.predicates)
        if extra:
            raise UsageError(f"tables for undeclared symbols: {sorted(extra)}")

    def _check_total(self, name: str, table: Mapping, arity: int) -> None:
        # as many keys as the product has tuples, and every tuple among them
        if len(table) == len(self.universe) ** arity and all(
                map(table.__contains__, product(self.universe, repeat=arity))):
            return
        expected = set(product(self.universe, repeat=arity))
        keys = set(table)
        missing = sorted(expected - keys)[:3]
        alien = sorted(keys - expected)[:3]
        detail = []
        if missing:
            detail.append(f"missing entries e.g. {missing}")
        if alien:
            detail.append(f"unknown entries e.g. {alien}")
        raise UsageError(f"table for {name!r} is not total: " + "; ".join(detail))

    def atomic_values(self) -> List[TruthValue]:
        """All truth values realized in predicate tables, deduplicated."""
        return list(dict.fromkeys(chain.from_iterable(t.values() for t in self.preds.values())))


# ---------------------------------------------------------------------------
# Truth functions

# The truth function of every connective, written once, as an expression
# over its operands a and b (one per Formula field of its node), the node
# phi, rel -- the sign (-1, 0 or 1) of a against b for an ORDERED
# connective, 0 for the others -- and an algebra V: the constants ZERO, ONE
# and INF, the stratum tests is_zero and is_inf, and mul, inv and power.
# TRUTH compiles each to a function of (V, phi, rel, *operands), which the
# evaluator runs on value ranks and the solver on symbolic values, once per
# order case; ORDERED holds the connectives that read rel; ``_kernel``
# reads each on ranks.
_TRUTH_TEXT = {
    Bot: "V.ZERO",
    One: "V.ONE",
    Top: "V.INF",
    And: "a if rel <= 0 else b",
    Or: "b if rel < 0 else a",
    Imp: "V.INF if rel <= 0 else b",
    Iff: "V.INF if rel == 0 else a if rel < 0 else b",
    DArrow: "V.INF if rel < 0 and not V.is_inf(b) else b",
    DDArrow: "V.INF if rel < 0 else V.ZERO if rel == 0 and V.is_inf(a) else b",
    LukImp: "V.INF if rel <= 0 else V.mul(b, V.inv(a))",
    Tensor: "V.mul(a, b)",
    Inv: "V.inv(a)",
    Not: "V.INF if V.is_zero(a) else V.ZERO",
    Delta: "V.INF if V.is_inf(a) else V.ZERO",
    Power: "V.power(a, phi.n)",
}


def _operands(kind) -> Tuple[str, ...]:
    """a, then b: one per Formula field of kind's declaration."""
    return ("a", "b")[:[kind.__annotations__[f] for f in kind._fields].count("Formula")]


TRUTH = {kind: eval(f"lambda {', '.join(('V', 'phi', 'rel', *_operands(kind)))}: {text}")
         for kind, text in _TRUTH_TEXT.items()}
ORDERED = frozenset(kind for kind, text in _TRUTH_TEXT.items() if re.search(r"\brel\b", text))


class Between:
    """A value outside a ``Ranks`` sort, placed strictly between the ranks
    ``lo`` and ``lo + 1``: ``tv`` is the value, a group element.  It
    orders natively with ranks, and with another value of its sort by
    ``key``: lo, then the payload, whose order is that of ``tv_compare``
    on one backend.  Its sort interns it, so ``==`` (identity) holds
    exactly for equal values."""

    __slots__ = ("lo", "tv", "key")

    def __init__(self, lo: int, tv: TruthValue):
        self.lo = lo
        self.tv = tv
        self.key = (lo, tv.payload)

    # against a rank k: below k iff lo < k, above it iff lo >= k, never equal
    def __lt__(self, other) -> bool:
        return self.lo < other if type(other) is int else self.key < other.key

    def __le__(self, other) -> bool:
        return self.lo < other if type(other) is int else self.key <= other.key

    def __gt__(self, other) -> bool:
        return self.lo >= other if type(other) is int else self.key > other.key

    def __ge__(self, other) -> bool:
        return self.lo >= other if type(other) is int else self.key >= other.key

    def __repr__(self) -> str:
        return f"Between({self.lo}, {format_truth_value(self.tv)!r})"


class Ranks:
    """An algebra of truth values as ranks: the one interned value sort.

    The sort is 0 and inf plus ``values``, deduplicated and sorted; a value
    of the sort is its rank there, an int, so rank order is value order.
    ``ONE`` or a product, inverse or power outside the sort (a group
    element, as 0 and inf are in every sort) is its ``Between``, interned
    here for the life of the sort.  ``row`` lists a table of ``preds``
    (whose values must be in the sort) as ranks in ``product`` order over
    ``universe``, and ``index`` gives each element's position there.  The
    direct evaluator runs on ``ranks_of(struct)``, built once per
    structure; the classical evaluator runs on the companion's value sort.
    """

    __slots__ = ("values", "rank", "INF", "ONE", "backend", "preds", "universe", "rows", "index")
    ZERO = 0

    def __init__(self, values: Iterable[TruthValue], backend: GroupBackend,
                 preds: Mapping[str, Mapping[Tuple[str, ...], TruthValue]],
                 universe: Sequence[str] = ()):
        self.backend = backend
        self.values: Tuple[TruthValue, ...] = tuple(sorted(
            map(self._own, {ZERO, INF, *values}), key=order_key))
        # each value -> its rank, or its Between once ``encode`` has met it
        self.rank: Dict[TruthValue, object] = {v: i for i, v in enumerate(self.values)}
        self.INF = len(self.values) - 1
        self.ONE = self.encode(one(backend))
        self.preds = preds
        self.universe = universe
        self.index: Dict[str, int] = dict(zip(universe, range(len(universe))))
        self.rows: Dict[Tuple[str, int], list] = {}  # filled by row on first use

    def row(self, name: str, arity: int) -> Optional[list]:
        """The ranks of predicate name's table in ``product`` order over
        the universe, built in one walk on first use; None when it has no
        table of that arity."""
        got = self.rows.get((name, arity))
        if got is None:
            table = self.preds.get(name)
            if table is None or len(next(iter(table))) != arity:  # tables are total
                return None
            got = self.rows[name, arity] = list(map(self.rank.__getitem__, map(
                table.__getitem__, product(self.universe, repeat=arity))))
        return got

    def _own(self, v: TruthValue) -> TruthValue:
        """v, refused as ``tv_compare`` would when of another backend."""
        if v.backend is not None and v.backend is not self.backend:
            raise UsageError(f"backend mismatch: {v.backend.name} vs {self.backend.name}")
        return v

    def encode(self, v: TruthValue):
        """v's rank, or, for a value outside the sort, its interned ``Between``."""
        got = self.rank.get(v)
        if got is None:
            lo = bisect_right(self.values, order_key(self._own(v)), key=order_key) - 1
            # setdefault keeps one object per value when threads share the sort
            got = self.rank.setdefault(v, Between(lo, v))
        return got

    def decode(self, v) -> TruthValue:
        return self.values[v] if type(v) is int else v.tv

    def is_zero(self, a) -> bool:
        return a == 0

    def is_inf(self, a) -> bool:
        return a == self.INF

    def mul(self, a, b):
        return self.encode(tv_mul(self.decode(a), self.decode(b), self.backend))

    def inv(self, a):
        return self.encode(tv_inv(self.decode(a)))

    def power(self, a, n: int):
        return self.encode(tv_power(self.decode(a), n))


def ranks_of(struct: Structure) -> Ranks:
    """The rank algebra of struct, built on first use and kept on it."""
    got = struct._ranks
    if got is None:
        got = struct._ranks = Ranks(struct.atomic_values(), struct.backend, struct.preds,
                                    struct.universe)
    return got


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t: Term, struct: Structure, env: Assignment) -> str:
    kind = type(t)
    if kind is Var:
        try:
            return env[t.name]
        except KeyError:
            raise UsageError(f"unbound variable {t.name!r}") from None
    if kind is App:
        args = tuple([eval_term(a, struct, env) for a in t.args]) if t.args else ()
        try:
            return struct.funcs[t.func][args]
        except KeyError:
            raise UsageError(f"no interpretation for {t.func!r} at {args}") from None
    raise UsageError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Rank kernels, read off the truth table

# the rank algebra's definitions: rel is the sign of a against b, I the rank of inf
_ON_RANKS = (
    (r"rel (<=|<|==) 0", r"a \1 b"),
    (r"V\.is_inf\((\w+)\)", r"\1 == I"),
    (r"V\.is_zero\((\w+)\)", r"\1 == 0"),
    (r"V\.INF\b", "I"),
    (r"V\.ZERO\b", "0"),
)


def _memoized(truth, kind):
    def run(P, phi, free, *operands):
        # only Power reads phi (its exponent keys its memo): one memo per kind serves all
        V = P.V
        known = P.memo.setdefault(phi.n if kind is Power else kind, {})
        values = []
        for args in zip(*operands):
            value = known.get(args)
            if value is None:
                rel = (args[0] > args[1]) - (args[0] < args[1]) if kind in ORDERED else 0
                value = known[args] = truth(V, phi, rel, *args)
            values.append(value)
        return values
    return run


def _constant(truth):
    def run(P, phi, free):
        return [truth(P.V, phi, 0)]
    return run


def _lattice_fold(pick):
    """A quantifier: pick (min or max) of each run of n cells."""
    def run(P, phi, free, body):
        return list(map(pick, zip(*[iter(body)] * P.n)))
    return run


def _kernel(kind):
    """The kernel of a node of type kind.  A truth function that only
    chooses among its operands, 0 and inf reads no V once ``_ON_RANKS``
    is inlined into its text, and is compiled, once, into one list
    comprehension; one that leaves the sort or reads its node (the
    exponent of Power) runs per cell."""
    lattice = QUANTIFIER_CONNECTIVE.get(kind)
    if lattice:
        return _lattice_fold(min if lattice is And else max)  # the chain's inf and sup
    operands = _operands(kind)
    expression = _TRUTH_TEXT[kind]
    for pattern, replacement in _ON_RANKS:
        expression = re.sub(pattern, replacement, expression)
    if re.search(r"\b(V|phi|rel)\b", expression):
        return _memoized(TRUTH[kind], kind) if operands else _constant(TRUTH[kind])
    tables = "".join(", " + x.upper() for x in operands)
    loop = ("", " for a in A", " for a, b in zip(A, B)")[len(operands)]
    name = f"{kind.__name__}_kernel"
    namespace: Dict[str, object] = {}
    exec(f"def {name}(P, phi, free{tables}):\n    I = P.I\n    return [{expression}{loop}]\n",
         namespace)
    return namespace[name]


_KERNELS = {kind: _kernel(kind) for kind in (*TRUTH, *QUANTIFIER_CONNECTIVE)}


def _flat_atom(steps):
    """The kernel of an atom over distinct variables: its predicate's
    ``Ranks.row``, laid out over the node's axes by ``_layout_steps``
    (steps is None when its arguments are in axis order)."""
    def run(P, phi, free):
        row = P.V.row(phi.pred, len(phi.args))
        if row is None:
            return _term_atom(P, phi, free)  # which names what has no interpretation
        return row if steps is None else _relayout(row, steps, P.n)
    return run


def _term_atom(P, phi, axes):
    """An atom over constants, function terms or a repeated variable: its
    argument terms evaluated under every assignment of its axes, and the
    cell they name read off its predicate's ``Ranks.row``."""
    struct, n = P.struct, P.n
    row = P.V.row(phi.pred, len(phi.args))
    index = P.V.index
    scope = {}
    values = []
    # a ground atom (the solver's witness checks) has one cell and binds nothing
    for assignment in product(struct.universe, repeat=len(axes)) if axes else ((),):
        if axes:
            scope.update(zip(axes, assignment))
        if row is None:
            key = tuple([eval_term(t, struct, scope) for t in phi.args])
            raise UsageError(f"structure has no interpretation for {phi.pred!r} at {key}")
        cell = 0
        for t in phi.args:
            cell = cell * n + index[eval_term(t, struct, scope)]
        values.append(row[cell])
    return values


# ---------------------------------------------------------------------------
# Plan and pass


class Step(NamedTuple):
    """The fields of a planned node: those of its ``syntax.Node``, the
    kernel that computes its table, and its moves: None when every kid's
    table is over the node's order already, else per kid None or the
    ``_layout_steps`` that lay the kid's table out over that order.
    ``plan`` returns plain tuples, since a NamedTuple is built in Python;
    ``Step._make`` names them."""

    formula: Formula
    kids: Tuple[int, ...]
    free: Tuple[str, ...]
    run: Callable
    moves: Optional[Tuple[Optional[Tuple[tuple, ...]], ...]]


def plan(nodes: Sequence[Node]) -> List[tuple]:
    """Plan a ``syntax.nodes`` list for ``value_tables``: one step (the
    fields of ``Step``) per node.

    Each node's step is decided from its type and its kids' steps alone:
    its order (its axes, then a quantifier's variable) and its kernel.  A
    quantifier is min or max of each run of n cells, a connective whose
    truth function only chooses runs its comprehension (``_kernel``: And
    keeps the smaller operand, Or the larger), and an atom over distinct
    variables reads its predicate's row off ``Ranks.row``.  Every other
    node runs its truth function per cell.
    """
    steps: List[tuple] = []
    for phi, kids, free in nodes:
        kind = type(phi)
        if kind is Atom:  # distinct variables are as many as the arguments
            run = _term_atom
            if len(free) == len(phi.args) and all([type(t) is Var for t in phi.args]):
                at = tuple([t.name for t in phi.args])
                run = _flat_atom(None if at == free else _layout_steps(at, free))
            steps.append((phi, kids, free, run, None))
            continue
        run = _KERNELS[kind]
        order = free + (phi.var,) if kind in QUANTIFIER_CONNECTIVE else free
        moves = None
        for k in kids:
            if nodes[k][2] != order:
                moves = tuple([None if nodes[j][2] == order else _layout_steps(nodes[j][2], order)
                               for j in kids])
                break
        steps.append((phi, kids, free, run, moves))
    return steps


class _Pass:
    """What the kernels of one pass share: the structure, its ranks, the
    rank of inf, the universe size and the memo of the connectives that
    run their truth function per cell."""

    __slots__ = ("struct", "V", "I", "n", "memo")

    def __init__(self, struct: Structure):
        self.struct = struct
        self.V = ranks_of(struct)
        self.I = self.V.INF
        self.n = len(struct.universe)
        self.memo: Dict[object, dict] = {}


def value_tables(struct: Structure, plan: Sequence[tuple]):
    """Yield the value table of every step of a ``plan``, in order.

    A table lists the node's values, encoded by ``ranks_of(struct)``,
    over the assignments of its free variables (its axes) in ``product``
    order over the universe.  Each step's kernel reads its kids' tables
    laid out over the step's order (a quantifier's body with its variable
    last, folded run by run) by ``_relayout``.  The pass keeps every
    table until it ends; a table may be shared with ``Ranks.row``, so it
    is read-only.
    """
    P = _Pass(struct)
    tables: List[list] = []
    table_at = tables.__getitem__
    for phi, kids, free, run, moves in plan:
        if moves is None:
            values = run(P, phi, free, *map(table_at, kids))
        else:
            operands = []
            for k, move in zip(kids, moves):
                values = tables[k]
                if move is not None:
                    values = _relayout(values, move, P.n)
                operands.append(values)
            values = run(P, phi, free, *operands)
        tables.append(values)
        yield values


def _layout_steps(axes: Tuple[str, ...], order: Tuple[str, ...]) -> Tuple[tuple, ...]:
    """The list operations that lay a table over axes out over order,
    which holds every axis: (op, a, b) each, run as op(t, n ** a, n ** b)
    by ``_relayout``.  Axes out of the sequence of order are moved to the
    end one by one (``_move``); then each run of order's variables that
    axes lack is filled in by repetition (``_repeat``)."""
    steps = []
    ranked = sorted(axes, key=order.index)
    # keep the longest prefix of ranked that axes already hold in sequence
    kept = 0
    for v in axes:
        if v == ranked[kept]:
            kept += 1
    current = list(axes)
    for v in ranked[kept:]:
        k = current.index(v)
        inner = len(current) - k - 1  # the axes after v
        steps.append((_move, inner, inner + 1))
        current.append(current.pop(k))
    present = run = 0  # axes before the current variable of order, and the run missing there
    for v in order:
        if v in axes:
            if run:
                steps.append((_repeat, len(axes) - present, run))
                run = 0
            present += 1
        else:
            run += 1
    if run:
        steps.append((_repeat, 0, run))
    return tuple(steps)


def _relayout(t: list, steps: Tuple[tuple, ...], n: int) -> list:
    """Run ``_layout_steps`` on t, a table over n elements: by slicing
    and repetition alone, with no per-cell index."""
    for op, a, b in steps:
        t = op(t, n ** a, n ** b)
    return t


def _move(t: list, inner: int, block: int) -> list:
    """t with the axis whose cells lie inner apart moved to the end: each
    block of cells that share the axes before it is read as inner strided
    slices, so e(y, x) under (x, y) is the rows t[j::n]."""
    return list(chain.from_iterable([t[b + r:b + block:inner]
                                     for b in range(0, len(t), block) for r in range(inner)]))


def _repeat(t: list, block: int, count: int) -> list:
    """t with each run of block cells repeated count times: the whole
    list for missing axes at the front, each cell at the end, each block
    between."""
    if block == len(t):
        return t * count
    if block == 1:
        return list(chain.from_iterable(zip(*[t] * count)))
    return list(chain.from_iterable([t[s:s + block] * count for s in range(0, len(t), block)]))


def eval_formula(phi: Formula, struct: Structure) -> TruthValue:
    """Exact truth value of the sentence phi in struct; an open phi is
    refused before any value is computed.  ``value_tables`` gives the
    values of an open formula under every assignment."""
    flat = nodes(phi)
    if flat[-1].free:
        raise UsageError(f"unbound variables {list(flat[-1].free)}")
    for table in value_tables(struct, plan(flat)):
        pass
    return ranks_of(struct).decode(table[0])


# ---------------------------------------------------------------------------
# Satisfaction and entailment


def satisfies(struct: Structure, phi: Formula) -> bool:
    """True when the sentence evaluates to absolute truth."""
    return eval_formula(phi, struct).is_inf


def models_theory(struct: Structure, theory: Iterable[Formula]) -> bool:
    return all(satisfies(struct, phi) for phi in theory)


def entails_over(
    pool: Sequence[Structure], theory: Sequence[Formula], chi: Formula
) -> bool:
    """Entailment relativized to a finite pool of structures.

    Checks that every pool member modeling the theory also models chi.
    This is a desk-scale surrogate; full entailment quantifies over all
    structures and is not decidable.
    """
    for struct in pool:
        if models_theory(struct, theory) and not satisfies(struct, chi):
            return False
    return True


# ---------------------------------------------------------------------------
# Similarity and ultrametric checks


def similarity_axioms(sig: Signature) -> List[Formula]:
    """Reflexivity, symmetry and min-transitivity for the equality surrogate."""
    e = sig.equality
    if e is None:
        raise UsageError("signature declares no equality predicate")
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        Forall("x", Atom(e, (x, x))),
        Forall("x", Forall("y", Imp(Atom(e, (x, y)), Atom(e, (y, x))))),
        Forall("x", Forall("y", Forall("z", Imp(
            And(Atom(e, (x, y)), Atom(e, (y, z))), Atom(e, (x, z)))))),
    ]


def check_similarity(struct: Structure) -> bool:
    """True when all three similarity axioms hold to value INF."""
    return all(satisfies(struct, ax) for ax in similarity_axioms(struct.signature))


@dataclass
class UltrametricReport:
    """Pointwise verdicts for d = e^-1 over all pairs and triples."""

    identity_violations: List[Tuple[str, str]]
    symmetry_violations: List[Tuple[str, str]]
    triangle_violations: List[Tuple[str, str, str]]

    @property
    def ok(self) -> bool:
        return not (self.identity_violations or self.symmetry_violations
                    or self.triangle_violations)

    @property
    def pseudo_ok(self) -> bool:
        """Pseudo-ultrametric: symmetry and strong triangle only."""
        return not (self.symmetry_violations or self.triangle_violations)


def check_ultrametric(struct: Structure) -> UltrametricReport:
    """Check the three d = e^-1 clauses pointwise and report violations."""
    e = struct.signature.equality
    if e is None:
        raise UsageError("signature declares no equality predicate")
    # d = e^-1 reverses the order, so each clause on d is read off the
    # ranks r of e: d(a, b) = 0 iff r[a][b] is top, and the strong triangle
    # d(a, b) <= max(d(a, c), d(b, c)) iff r[a][b] >= min(r[a][c], r[b][c])
    V = ranks_of(struct)
    r = V.row(e, 2)  # r[i * n + j] is the rank of e(a_i, a_j)
    universe = struct.universe
    n = len(universe)
    identity = []
    symmetry = []
    triangle = []
    for i, a in enumerate(universe):
        for j, b in enumerate(universe):
            r_ab = r[i * n + j]
            if (r_ab == V.INF) != (a == b):
                identity.append((a, b))
            if r_ab != r[j * n + i]:
                symmetry.append((a, b))
    for i, a in enumerate(universe):
        row_a = r[i * n:i * n + n]
        for j, b in enumerate(universe):
            r_ab = row_a[j]
            for c, r_ac, r_bc in zip(universe, row_a, r[j * n:j * n + n]):
                if r_ab < r_ac and r_ab < r_bc:
                    triangle.append((a, b, c))
    return UltrametricReport(identity, symmetry, triangle)


# ---------------------------------------------------------------------------
# Structure files

# Line-oriented format:
#   backend rat|lex2
#   universe m1 m2 ...
#   fn f m1 m2 -> m1         (one line per tuple; constants: fn c -> m1)
#   pred P m1 m2 = 3/2       (nullary: pred P = 3/2)


def load_structure(text: str, sig: Optional[Signature] = None) -> Structure:
    """Parse a structure file; infers the signature when none is given.

    Inference takes each symbol's arity from its table lines and marks a
    binary predicate named ``e`` as the equality surrogate.  Each line is
    read once: a table line is split and stored in its symbol's table,
    whose first line fixes an inferred arity.
    """
    backend: Optional[GroupBackend] = None
    universe: List[str] = []
    headers = set()
    # name -> (table, arity) per kind; a table maps args to an output or a value text
    funcs: Dict[str, Tuple[dict, int]] = {}
    preds: Dict[str, Tuple[dict, int]] = {}
    if sig is not None:
        funcs = {name: ({}, arity) for name, arity in sig.functions.items()}
        preds = {name: ({}, arity) for name, arity in sig.predicates.items()}
    value_lines: Dict[str, int] = {}  # each value text -> the first line that holds it
    for lineno, line in content_lines(text):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "pred":
                sep, known = "=", preds
            elif kind == "fn":
                sep, known = "->", funcs
            elif kind in headers:
                raise UsageError(f"duplicate {kind!r} line")
            elif kind == "backend":
                headers.add(kind)
                backend = backend_by_name(parts[1])
                continue
            elif kind == "universe":
                headers.add(kind)
                universe = parts[1:]
                continue
            else:
                raise UsageError(f"unrecognized line {line!r}")
            try:
                at = parts.index(sep)
            except ValueError:
                at = 0
            if at < 2 or kind == "fn" and len(parts) != at + 2:
                raise UsageError(f"expected '{kind} name args... {sep} value'")
            name, args = parts[1], tuple(parts[2:at])
            entry = known.get(name)
            if entry is None:
                if sig is not None:
                    word = "predicate" if kind == "pred" else "function"
                    raise UsageError(f"undeclared {word} {name!r}")
                entry = known[name] = ({}, len(args))
            elif sig is None and entry[1] != len(args):
                raise UsageError(f"inconsistent arity for {name!r}")
            table = entry[0]
            size = len(table)
            out = table[args] = parts[-1] if at + 2 == len(parts) else " ".join(parts[at + 1:])
            if len(table) == size:
                raise UsageError(f"duplicate entry for {name!r} {args}")
            if kind == "pred" and out not in value_lines:
                value_lines[out] = lineno
        except (IndexError, UsageError) as exc:
            raise UsageError(f"structure line {lineno}: {exc}") from None
    if backend is None:
        raise UsageError("structure file missing 'backend' line")
    if not universe:
        raise UsageError("structure file missing 'universe' line")
    if sig is None:
        predicates = {name: arity for name, (_, arity) in preds.items()}
        sig = Signature({name: arity for name, (_, arity) in funcs.items()}, predicates,
                        "e" if predicates.get("e") == 2 else None)
    # a table of n^2 lines holds a few distinct values: parse each text once
    parsed: Dict[str, TruthValue] = {}
    for value_text, lineno in value_lines.items():
        try:
            parsed[value_text] = parse_truth_value(value_text, backend)
        except UsageError as exc:
            raise UsageError(f"structure line {lineno}: {exc}") from None
    return Structure(sig, backend, tuple(universe),
                     {name: table for name, (table, _) in funcs.items()},
                     {name: dict(zip(table, map(parsed.__getitem__, table.values())))
                      for name, (table, _) in preds.items()})


def dump_structure(struct: Structure) -> str:
    lines = [f"backend {struct.backend.name}", "universe " + " ".join(struct.universe)]
    for name in sorted(struct.funcs):
        for args in sorted(struct.funcs[name]):
            head = " ".join((name,) + args)
            lines.append(f"fn {head} -> {struct.funcs[name][args]}")
    for name in sorted(struct.preds):
        for args in sorted(struct.preds[name]):
            head = " ".join((name,) + args)
            lines.append(f"pred {head} = {format_truth_value(struct.preds[name][args])}")
    return "\n".join(lines) + "\n"
