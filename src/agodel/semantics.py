"""Finite structures and exact formula evaluation.

A structure interprets every function symbol by a total table over a
finite nonempty universe and every predicate symbol by a total table of
truth values.  Finiteness makes every structure safe: quantifier values
are finite minima and maxima, so evaluation is exact and total.

Every connective, core or derived, has one truth function in ``TRUTH``,
written against a small algebra interface.  The evaluator runs it on
``TruthValue``s and the solver runs the same function on symbolic values.
``syntax.expand_derived`` provides the definitional route for derived
connectives, and the test suite checks the two agree everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import UsageError
from .syntax import (
    CHILDREN, QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, DArrow, DDArrow,
    Delta, Forall, Formula, Iff, Imp, Inv, LukImp, Not, One, Or, Power,
    Signature, Tensor, Term, Top, Var, children, free_vars, is_sentence,
)
from .values import (
    INF, K_ELEM, K_INF, K_ZERO, ZERO, GroupBackend, TruthValue,
    backend_by_name, format_truth_value, one, parse_truth_value, tv_compare,
    tv_inv, tv_max, tv_mul, tv_power,
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
        return list(dict.fromkeys(tv for table in self.preds.values() for tv in table.values()))


# ---------------------------------------------------------------------------
# Truth functions

# The truth function of every connective, written once.  Each one reads its
# operands only through an algebra V -- the constants ZERO, ONE and INF, the
# stratum tests is_zero and is_inf, and mul, inv and power -- and through
# rel, the sign (-1, 0 or 1) of the comparison between the two operands of
# an ORDERED connective (0 for the others).  The evaluator runs them on
# TruthValues; the solver runs them on symbolic values, once per order case.
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


class TruthValues:
    """The algebra of concrete truth values over one group backend."""

    ZERO = ZERO
    INF = INF

    def __init__(self, backend: GroupBackend):
        self.backend = backend

    @property
    def ONE(self) -> TruthValue:
        return one(self.backend)

    @staticmethod
    def is_zero(a: TruthValue) -> bool:
        return a.kind == K_ZERO

    @staticmethod
    def is_inf(a: TruthValue) -> bool:
        return a.kind == K_INF

    def mul(self, a: TruthValue, b: TruthValue) -> TruthValue:
        return tv_mul(a, b, self.backend)

    @staticmethod
    def inv(a: TruthValue) -> TruthValue:
        return tv_inv(a)

    @staticmethod
    def power(a: TruthValue, n: int) -> TruthValue:
        return tv_power(a, n)


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t: Term, struct: Structure, env: Assignment) -> str:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UsageError(f"unbound variable {t.name!r}") from None
    if isinstance(t, App):
        args = tuple(eval_term(a, struct, env) for a in t.args)
        try:
            return struct.funcs[t.func][args]
        except KeyError:
            raise UsageError(f"no interpretation for {t.func!r} at {args}") from None
    raise UsageError(f"not a term: {t!r}")


def eval_formula(
    phi: Formula,
    struct: Structure,
    env: Optional[Assignment] = None,
    on_value: Optional[Callable[[TruthValue], None]] = None,
) -> TruthValue:
    """Exact truth value of phi in struct under env.

    ``on_value``, when given, is called with the value of every
    subformula under every assignment reached during evaluation; the
    classical-translation check uses it to collect witness values.
    """
    env = dict(env) if env else {}
    missing = free_vars(phi) - set(env)
    if missing:
        raise UsageError(f"unbound variables {sorted(missing)}")
    return _eval(phi, struct, TruthValues(struct.backend), env, on_value)


def _eval(phi, struct, V, env, sink) -> TruthValue:
    kind = type(phi)
    if kind is Atom:
        args = tuple(eval_term(t, struct, env) for t in phi.args)
        try:
            value = struct.preds[phi.pred][args]
        except KeyError:
            raise UsageError(
                f"structure has no interpretation for {phi.pred!r} at {args}"
            ) from None
    elif kind in QUANTIFIER_CONNECTIVE:
        value = _quantify(phi, struct, V, env, sink, TRUTH[QUANTIFIER_CONNECTIVE[kind]])
    elif kind in ORDERED:
        left, right = CHILDREN[kind](phi)
        a = _eval(left, struct, V, env, sink)
        b = _eval(right, struct, V, env, sink)
        value = TRUTH[kind](V, phi, tv_compare(a, b), a, b)
    else:
        args = []
        for kid in children(phi):
            args.append(_eval(kid, struct, V, env, sink))
        value = TRUTH[kind](V, phi, 0, *args)
    if sink is not None:
        sink(value)
    return value


def _quantify(phi, struct, V, env, sink, combine) -> TruthValue:
    saved = env.get(phi.var)
    had = phi.var in env
    result = None
    for element in struct.universe:
        env[phi.var] = element
        v = _eval(phi.body, struct, V, env, sink)
        result = v if result is None else combine(V, phi, tv_compare(result, v), result, v)
    if had:
        env[phi.var] = saved
    else:
        del env[phi.var]
    return result


# ---------------------------------------------------------------------------
# Satisfaction and entailment


def satisfies(struct: Structure, phi: Formula) -> bool:
    """True when the sentence evaluates to absolute truth."""
    if not is_sentence(phi):
        raise UsageError(f"not a sentence (free: {sorted(free_vars(phi))})")
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
    d = {pair: tv_inv(v) for pair, v in struct.preds[e].items()}
    identity = []
    symmetry = []
    triangle = []
    for a in struct.universe:
        for b in struct.universe:
            if (d[a, b].is_zero) != (a == b):
                identity.append((a, b))
            if tv_compare(d[a, b], d[b, a]) != 0:
                symmetry.append((a, b))
    for a, b, c in product(struct.universe, repeat=3):
        if tv_compare(d[a, b], tv_max(d[a, c], d[b, c])) > 0:
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
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
        try:
            preds[name][args] = parse_truth_value(value_text, backend)
        except UsageError as exc:
            raise UsageError(f"structure line {lineno}: {exc}") from None
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
