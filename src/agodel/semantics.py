"""Finite structures and exact formula evaluation.

A structure interprets every function symbol by a total table over a
finite nonempty universe and every predicate symbol by a total table of
truth values.  Finiteness makes every structure safe: quantifier values
are finite minima and maxima, so evaluation is exact and total.

Every connective, core or derived, has one truth function in ``TRUTH``,
written against a small algebra interface.  The one evaluator,
``value_tables``, runs it bottom-up on value ranks; the solver runs it on
symbolic values.  ``Ranks`` is the one interned value sort: the direct
evaluator and the classical companion's evaluator (``translation``) both
run on it.  ``syntax.expand_derived`` gives derived
connectives by definition, and the test suite checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import UsageError
from .syntax import (
    QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, DArrow, DDArrow, Delta,
    Forall, Formula, Iff, Imp, Inv, LukImp, Not, One, Or, Power, Signature,
    Tensor, Term, Top, Var, children, content_lines, term_vars,
)
from .values import (
    INF, K_ELEM, ZERO, GroupBackend, TruthValue, backend_by_name,
    format_truth_value, one, order_key, parse_truth_value, tv_compare, tv_inv,
    tv_mul, tv_power,
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
        expected = set(product(self.universe, repeat=arity))
        keys = set(table.keys())
        if keys != expected:
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

# The truth function of every connective, written once.  Each one reads its
# operands only through an algebra V -- the constants ZERO, ONE and INF, the
# stratum tests is_zero and is_inf, and mul, inv and power -- and through
# rel, the sign (-1, 0 or 1) of the comparison between the two operands of
# an ORDERED connective (0 for the others).  The evaluator runs them on value
# ranks; the solver runs them on symbolic values, once per order case.
TRUTH = {
    Bot: lambda V, phi, rel: V.ZERO,
    One: lambda V, phi, rel: V.ONE,
    Top: lambda V, phi, rel: V.INF,
    And: lambda V, phi, rel, a, b: a if rel <= 0 else b,
    Or: lambda V, phi, rel, a, b: b if rel < 0 else a,
    Imp: lambda V, phi, rel, a, b: V.INF if rel <= 0 else b,
    Iff: lambda V, phi, rel, a, b: V.INF if rel == 0 else a if rel < 0 else b,
    DArrow: lambda V, phi, rel, a, b: V.INF if rel < 0 and not V.is_inf(b) else b,
    DDArrow: lambda V, phi, rel, a, b: (
        V.INF if rel < 0 else V.ZERO if rel == 0 and V.is_inf(a) else b),
    LukImp: lambda V, phi, rel, a, b: V.INF if rel <= 0 else V.mul(b, V.inv(a)),
    Tensor: lambda V, phi, rel, a, b: V.mul(a, b),
    Inv: lambda V, phi, rel, a: V.inv(a),
    Not: lambda V, phi, rel, a: V.INF if V.is_zero(a) else V.ZERO,
    Delta: lambda V, phi, rel, a: V.INF if V.is_inf(a) else V.ZERO,
    Power: lambda V, phi, rel, a: V.power(a, phi.n),
}
ORDERED = frozenset((And, Or, Imp, Iff, DArrow, DDArrow, LukImp))


class Ranks:
    """An algebra of truth values as ranks: the one interned value sort.

    The sort is 0 and inf plus ``values``, deduplicated and sorted; a value
    of the sort is its rank there, an int, so rank order is value order and
    the ordered connectives compare ints.  ``ONE`` or a product, inverse or
    power outside the sort stays a TruthValue; 0 and inf are in every sort,
    so such a value is a group element.  ``tables`` holds ``preds`` with
    each value encoded so.  The direct evaluator runs on ``ranks_of(struct)``,
    built once per structure; the classical evaluator runs on the
    companion's value sort.
    """

    __slots__ = ("values", "rank", "INF", "ONE", "backend", "tables")
    ZERO = 0

    def __init__(self, values: Iterable[TruthValue], backend: GroupBackend,
                 preds: Mapping[str, Mapping[Tuple[str, ...], TruthValue]]):
        self.values: Tuple[TruthValue, ...] = tuple(sorted({ZERO, INF, *values}, key=order_key))
        self.rank: Dict[TruthValue, int] = {v: i for i, v in enumerate(self.values)}
        self.INF = len(self.values) - 1
        self.backend = backend
        self.ONE = self.encode(one(backend))
        rank = self.rank
        self.tables: Dict[str, Dict[Tuple[str, ...], object]] = {
            name: {args: rank.get(v, v) for args, v in table.items()}
            for name, table in preds.items()}

    def encode(self, v: TruthValue):
        return self.rank.get(v, v)

    def decode(self, v) -> TruthValue:
        return self.values[v] if type(v) is int else v

    def is_zero(self, a) -> bool:
        return a == 0

    def is_inf(self, a) -> bool:
        return a == self.INF

    def compare(self, a, b) -> int:
        if type(a) is int and type(b) is int:
            return (a > b) - (a < b)
        return tv_compare(self.decode(a), self.decode(b))

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
        got = struct._ranks = Ranks(struct.atomic_values(), struct.backend, struct.preds)
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
        args = tuple([eval_term(a, struct, env) for a in t.args])
        try:
            return struct.funcs[t.func][args]
        except KeyError:
            raise UsageError(f"no interpretation for {t.func!r} at {args}") from None
    raise UsageError(f"not a term: {t!r}")


def value_tables(struct: Structure, nodes: Sequence[tuple], env: Assignment):
    """Yield the value table of every node, in order.

    A node is (formula, kids, axes): kids are the positions in ``nodes``
    of its immediate subformulas, which come before it; axes are its free
    variables that range over the universe, sorted, and env holds the
    others.  A table lists the formula's values, as ranks of
    ``ranks_of(struct)``, over the assignments of the axes, row-major.
    The truth function reads the kids' tables laid out over the node's
    axes; a quantifier lays its body out with its variable last and folds
    each run of n cells.  A pass memoizes the connectives that do not
    compare their operands, and keeps every table until it ends.
    """
    V = ranks_of(struct)
    universe = struct.universe
    n = len(universe)
    compare = V.compare
    tables: List[Tuple[Tuple[str, ...], list]] = []  # (axes, values) per node so far
    layouts: Dict[tuple, List[int]] = {}
    memo: Dict[object, dict] = {}
    for phi, kids, axes in nodes:
        kind = type(phi)
        quantifier = QUANTIFIER_CONNECTIVE.get(kind)
        order = axes + (phi.var,) if quantifier else axes
        operands = []
        for k in kids:
            at, values = tables[k]
            if at != order:
                index = layouts.get((at, order)) or layouts.setdefault(
                    (at, order), _layout(at, order, n))
                values = [values[i] for i in index]
            operands.append(values)
        truth = TRUTH.get(quantifier or kind)
        if kind is Atom:
            rows = V.tables.get(phi.pred, {})
            scope = dict(env)
            values = []
            for assignment in product(*[universe] * len(axes)):
                scope.update(zip(axes, assignment))
                key = tuple([eval_term(t, struct, scope) for t in phi.args])
                try:
                    values.append(rows[key])
                except KeyError:
                    raise UsageError(
                        f"structure has no interpretation for {phi.pred!r} at {key}") from None
        elif quantifier:
            body = operands[0]
            values = []
            for start in range(0, len(body), n):
                result = body[start]
                for v in body[start + 1:start + n]:
                    result = truth(V, phi, compare(result, v), result, v)
                values.append(result)
        elif kind in ORDERED:
            values = [truth(V, phi, compare(a, b), a, b) for a, b in zip(*operands)]
        elif kids:
            # only Power reads phi (its exponent keys its memo): one memo per kind serves all
            known = memo.setdefault(phi.n if kind is Power else kind, {})
            values = []
            for args in zip(*operands):
                value = known.get(args)
                if value is None:
                    value = known[args] = truth(V, phi, 0, *args)
                values.append(value)
        else:
            values = [truth(V, phi, 0)]
        tables.append((axes, values))
        yield values


def _layout(axes: Tuple[str, ...], order: Tuple[str, ...], n: int) -> List[int]:
    """For each cell, row-major, of a table over order, the cell with the
    same assignment in a table over axes, a subset of order."""
    stride = {v: n ** k for k, v in enumerate(reversed(axes))}
    index = [0]
    for v in order:
        step = stride.get(v, 0)
        index = [i + k * step for i in index for k in range(n)]
    cells = list(range(n ** len(axes)))  # the pass keeps the index: share one int per cell
    return [cells[i] for i in index]


def _nodes(phi: Formula, env: Assignment, nodes: List[tuple]) -> Tuple[str, ...]:
    """Append the nodes of phi's subformulas to nodes, in post-order, for
    ``value_tables`` under env; return phi's axes.  A variable bound by a
    quantifier is an axis below it, where it shadows env; a variable that
    is neither bound nor in env is an axis of phi itself."""
    kind = type(phi)
    if kind is Atom:
        names = set()
        for t in phi.args:
            names |= term_vars(t)
        kids: Tuple[int, ...] = ()
        axes = tuple(sorted(names - env.keys())) if names else ()
    elif kind in QUANTIFIER_CONNECTIVE:
        inner = {v: e for v, e in env.items() if v != phi.var} if phi.var in env else env
        below = _nodes(phi.body, inner, nodes)
        kids = (len(nodes) - 1,)
        axes = tuple(v for v in below if v != phi.var)
    else:
        kids = ()
        axes = ()
        for kid in children(phi):
            below = _nodes(kid, env, nodes)
            kids += (len(nodes) - 1,)
            if not axes:
                axes = below
            elif below and below != axes:
                axes = tuple(sorted(set(axes).union(below)))
    nodes.append((phi, kids, axes))
    return axes


def eval_formula(
    phi: Formula,
    struct: Structure,
    env: Optional[Assignment] = None,
    on_value: Optional[Callable[[TruthValue], None]] = None,
) -> TruthValue:
    """Exact truth value of phi in struct under env.

    ``on_value``, when given, is called with every value some subformula
    takes under some assignment reached during evaluation; the
    classical-translation check uses it to collect witness values.
    """
    return ranks_of(struct).decode(_rank(phi, struct, env or {}, on_value))


def _rank(phi, struct, env, on_value=None):
    """phi's rank in struct under env, from one ``value_tables`` pass."""
    nodes: List[tuple] = []
    unbound = _nodes(phi, env, nodes)
    if unbound:
        raise UsageError(f"unbound variables {list(unbound)}")
    for values in value_tables(struct, nodes, env):
        if on_value is not None:
            for value in set(values):
                on_value(ranks_of(struct).decode(value))
    return values[0]


# ---------------------------------------------------------------------------
# Satisfaction and entailment


def satisfies(struct: Structure, phi: Formula) -> bool:
    """True when the sentence evaluates to absolute truth."""
    return _rank(phi, struct, {}) == ranks_of(struct).INF


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
    table = V.tables[e]
    universe = struct.universe
    r = [[table[a, b] for b in universe] for a in universe]
    identity = []
    symmetry = []
    triangle = []
    for i, a in enumerate(universe):
        for j, b in enumerate(universe):
            if (r[i][j] == V.INF) != (a == b):
                identity.append((a, b))
            if r[i][j] != r[j][i]:
                symmetry.append((a, b))
    for i, a in enumerate(universe):
        row_a = r[i]
        for j, b in enumerate(universe):
            r_ab = row_a[j]
            for c, r_ac, r_bc in zip(universe, row_a, r[j]):
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
    binary predicate named ``e`` as the equality surrogate.
    """
    backend: Optional[GroupBackend] = None
    universe: List[str] = []
    fn_lines: List[Tuple[int, str, Tuple[str, ...], str]] = []
    pred_lines: List[Tuple[int, str, Tuple[str, ...], str]] = []
    headers = set()
    for lineno, line in content_lines(text):
        parts = line.split()
        kind = parts[0]
        try:
            if kind in ("backend", "universe"):
                if kind in headers:
                    raise UsageError(f"duplicate {kind!r} line")
                headers.add(kind)
            if kind == "backend":
                backend = backend_by_name(parts[1])
            elif kind == "universe":
                universe = parts[1:]
            elif kind == "fn":
                if "->" not in parts:
                    raise UsageError("expected 'fn name args... -> value'")
                arrow = parts.index("->")
                if arrow < 2 or len(parts) != arrow + 2:
                    raise UsageError("expected 'fn name args... -> value'")
                fn_lines.append((lineno, parts[1], tuple(parts[2:arrow]), parts[arrow + 1]))
            elif kind == "pred":
                if "=" not in parts:
                    raise UsageError("expected 'pred name args... = value'")
                eq = parts.index("=")
                if eq < 2:
                    raise UsageError("expected 'pred name args... = value'")
                value_text = " ".join(parts[eq + 1:])
                pred_lines.append((lineno, parts[1], tuple(parts[2:eq]), value_text))
            else:
                raise UsageError(f"unrecognized line {line!r}")
        except (IndexError, UsageError) as exc:
            raise UsageError(f"structure line {lineno}: {exc}") from None
    if backend is None:
        raise UsageError("structure file missing 'backend' line")
    if not universe:
        raise UsageError("structure file missing 'universe' line")

    if sig is None:
        functions = {}
        predicates = {}
        for lineno, name, args, _ in fn_lines:
            functions.setdefault(name, len(args))
            if functions[name] != len(args):
                raise UsageError(f"structure line {lineno}: inconsistent arity for {name!r}")
        for lineno, name, args, _ in pred_lines:
            predicates.setdefault(name, len(args))
            if predicates[name] != len(args):
                raise UsageError(f"structure line {lineno}: inconsistent arity for {name!r}")
        equality = "e" if predicates.get("e") == 2 else None
        sig = Signature(functions, predicates, equality)

    funcs: Dict[str, Dict[Tuple[str, ...], str]] = {n: {} for n in sig.functions}
    preds: Dict[str, Dict[Tuple[str, ...], TruthValue]] = {n: {} for n in sig.predicates}
    # a table of n^2 lines holds a few distinct values: parse each text once
    parsed: Dict[str, TruthValue] = {}
    for lineno, name, args, out in fn_lines:
        if name not in funcs:
            raise UsageError(f"structure line {lineno}: undeclared function {name!r}")
        if args in funcs[name]:
            raise UsageError(f"structure line {lineno}: duplicate entry for {name!r} {args}")
        funcs[name][args] = out
    for lineno, name, args, value_text in pred_lines:
        if name not in preds:
            raise UsageError(f"structure line {lineno}: undeclared predicate {name!r}")
        if args in preds[name]:
            raise UsageError(f"structure line {lineno}: duplicate entry for {name!r} {args}")
        value = parsed.get(value_text)
        if value is None:
            try:
                value = parsed[value_text] = parse_truth_value(value_text, backend)
            except UsageError as exc:
                raise UsageError(f"structure line {lineno}: {exc}") from None
        preds[name][args] = value
    return Structure(sig, backend, tuple(universe), funcs, preds)


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
