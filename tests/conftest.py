"""Shared generators for the seeded randomized suites."""

import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

from agodel import (
    INF, RAT, ZERO, And, App, Atom, Bot, DArrow, DDArrow, Delta, Exists,
    Forall, Iff, Imp, Inv, LukImp, Not, One, Or, Power, Signature, Structure,
    Tensor, Top, Var, elem, eval_term, free_vars, lex2, one, rat, tv_compare,
    tv_inv, tv_max, tv_min, tv_mul, tv_power, tv_resid,
)
from agodel.syntax import children

# values used by grid checks and random tables
RAT_POOL = [ZERO, rat(1, 2), rat(1), rat(2), INF]
RAT_ELEMS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
             Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]


def make_rng(seed):
    return random.Random(seed)


def random_truth_value(rng, backend=RAT):
    roll = rng.random()
    if roll < 0.15:
        return ZERO
    if roll < 0.3:
        return INF
    if backend is RAT:
        return elem(rng.choice(RAT_ELEMS), RAT)
    return lex2(rng.choice(RAT_ELEMS), rng.choice(RAT_ELEMS))


def random_structure(rng, sig, size=None, backend=RAT):
    size = size or rng.randint(1, 3)
    universe = tuple(f"m{i}" for i in range(1, size + 1))
    funcs = {}
    for name, arity in sig.functions.items():
        funcs[name] = {
            args: rng.choice(universe)
            for args in product(universe, repeat=arity)
        }
    preds = {}
    for name, arity in sig.predicates.items():
        preds[name] = {
            args: random_truth_value(rng, backend)
            for args in product(universe, repeat=arity)
        }
    return Structure(sig, backend, universe, funcs, preds)


def random_term(rng, sig, variables):
    choices = list(variables) + sig.constants()
    if not choices:
        raise ValueError("no terms available")
    pick = rng.choice(choices)
    return Var(pick) if pick in variables else App(pick, ())


CORE_LEAVES = ("atom", "bot", "one")
CORE_OPS = ("and", "imp", "tensor", "inv", "forall", "exists")
DERIVED_OPS = ("or", "not", "iff", "power", "darrow", "ddarrow", "delta", "lukimp", "top")


def random_formula(rng, sig, depth, bound=(), allow_derived=True, qdepth=None):
    """Random formula over sig; closed when all atom args can be bound."""
    if qdepth is None:
        qdepth = depth
    bound = tuple(bound)

    def atom():
        preds = list(sig.predicates)
        usable = [p for p in preds if sig.predicates[p] == 0 or bound or sig.constants()]
        if not usable:
            return rng.choice([Bot(), One()])
        name = rng.choice(usable)
        arity = sig.predicates[name]
        try:
            args = tuple(random_term(rng, sig, bound) for _ in range(arity))
        except ValueError:
            return rng.choice([Bot(), One()])
        return Atom(name, args)

    if depth <= 0:
        return rng.choice([atom(), atom(), atom(), Bot(), One()])
    ops = list(CORE_OPS) + (list(DERIVED_OPS) if allow_derived else [])
    if qdepth <= 0:
        ops = [o for o in ops if o not in ("forall", "exists")]
    op = rng.choice(ops + ["leaf"])
    if op == "leaf":
        return atom()
    if op in ("forall", "exists"):
        var = f"x{len(bound) + 1}"
        body = random_formula(rng, sig, depth - 1, bound + (var,), allow_derived,
                              qdepth - 1)
        return (Forall if op == "forall" else Exists)(var, body)
    if op in ("inv", "not", "delta"):
        node = {"inv": Inv, "not": Not, "delta": Delta}[op]
        return node(random_formula(rng, sig, depth - 1, bound, allow_derived, qdepth))
    if op == "power":
        return Power(random_formula(rng, sig, depth - 1, bound, allow_derived, qdepth),
                     rng.randint(1, 3))
    if op == "top":
        return Top()
    node = {"and": And, "imp": Imp, "tensor": Tensor, "or": Or, "iff": Iff,
            "darrow": DArrow, "ddarrow": DDArrow, "lukimp": LukImp}[op]
    return node(
        random_formula(rng, sig, depth - 1, bound, allow_derived, qdepth),
        random_formula(rng, sig, depth - 1, bound, allow_derived, qdepth),
    )


def random_core_sentence(rng, sig, depth=4, qdepth=2):
    """Closed core-connective formula (for the translation suites)."""
    for _ in range(50):
        phi = random_formula(rng, sig, depth, bound=(), allow_derived=False,
                             qdepth=qdepth)
        if not free_vars(phi):
            return phi
    return Bot()


def similarity_closure(rng, size, value_pool):
    """Random e-table satisfying the similarity axioms by construction:
    reflexive INF diagonal, symmetrized, then max-min transitive closure."""
    universe = tuple(f"m{i}" for i in range(1, size + 1))
    sig = Signature(predicates={"e": 2}, equality="e")
    table = {}
    for i, a in enumerate(universe):
        for j, b in enumerate(universe):
            if i == j:
                table[(a, b)] = INF
            elif i < j:
                table[(a, b)] = rng.choice(value_pool)
            else:
                table[(a, b)] = table[(b, a)]
    changed = True
    while changed:
        changed = False
        for a in universe:
            for b in universe:
                for c in universe:
                    through = tv_min(table[(a, c)], table[(c, b)])
                    better = tv_max(table[(a, b)], through)
                    if better != table[(a, b)]:
                        table[(a, b)] = better
                        changed = True
    return Structure(sig, RAT, universe, {}, {"e": table})


def subformulas(phi):
    """Yield phi and all its subformulas, prefix order."""
    yield phi
    for kid in children(phi):
        yield from subformulas(kid)


def formula_depth(phi):
    """Connective nesting depth; atoms and constants are depth 0."""
    depth = 0
    for kid in children(phi):
        depth = max(depth, 1 + formula_depth(kid))
    return depth


def tv_dmin(a, b):
    """Biconditional value: INF when a = b, otherwise min(a, b)."""
    c = tv_compare(a, b)
    if c == 0:
        return INF
    return a if c < 0 else b


def oracle(phi, struct, env, seen):
    """Recursive evaluation on TruthValues with the value functions, the
    quantifiers as min/max over the universe; every value goes to seen."""
    kind = type(phi)
    backend = struct.backend
    if kind is Atom:
        value = struct.preds[phi.pred][tuple(eval_term(t, struct, env) for t in phi.args)]
    elif kind in (Forall, Exists):
        value = reduce(tv_min if kind is Forall else tv_max,
                       [oracle(phi.body, struct, {**env, phi.var: m}, seen)
                        for m in struct.universe])
    elif kind in (Bot, One, Top):
        value = {Bot: ZERO, One: one(backend), Top: INF}[kind]
    elif kind in (Inv, Not, Delta, Power):
        a = oracle(phi.body, struct, env, seen)
        value = {Inv: lambda: tv_inv(a),
                 Not: lambda: tv_resid(a, ZERO),
                 Delta: lambda: INF if a.is_inf else ZERO,
                 Power: lambda: tv_power(a, phi.n)}[kind]()
    else:
        a = oracle(phi.left, struct, env, seen)
        b = oracle(phi.right, struct, env, seen)
        order = tv_compare(a, b)
        value = {
            And: lambda: tv_min(a, b),
            Or: lambda: tv_max(a, b),
            Imp: lambda: tv_resid(a, b),
            Iff: lambda: tv_dmin(a, b),
            DArrow: lambda: INF if order < 0 else b,
            DDArrow: lambda: INF if order < 0 else ZERO if order == 0 and a.is_inf else b,
            LukImp: lambda: INF if order <= 0 else tv_mul(b, tv_inv(a), backend),
            Tensor: lambda: tv_mul(a, b, backend),
        }[kind]()
    seen.add(value)
    return value


@pytest.fixture
def rng():
    return make_rng(20260810)


def pytest_configure(config):
    """One Hypothesis profile for the suite: derandomized, no example
    database, no deadline; each property sets only its max_examples.
    Imported here, not at module level: the benchmark imports this module
    for its generators and should not pay for importing hypothesis."""
    from hypothesis import settings

    settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
    settings.load_profile("tier1")
