"""Two-sorted classical companions of finite structures.

Every structure M over a group G has a classical first-order companion
with an object sort (the universe of M) and a value sort (a finite
slice of the truth-value carrier).  Relation symbols become graphs
R(a..., g) holding exactly when the source table assigns g; the value
sort carries the order, the product, the inverse and the constants
0, 1, inf.  Every formula phi translates to a classical formula
phi_G(g) with one distinguished value variable such that

    M satisfies phi  iff  the companion satisfies  exists g (phi_G(g) and g = inf)

``check_translation`` machine-checks that equivalence instance by
instance.  The companion's value sort must contain every witness the
equivalence needs, i.e. the value of every subformula of phi under
every assignment; ``check_translation`` collects that exact set through
an evaluator hook and seeds the sort with it, so the check never
reports a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter, itemgetter
from typing import (
    Callable, Dict, Iterable, NamedTuple, Optional, Set, Tuple, Union, get_args,
)

from .errors import ResourceLimitError, UsageError
from .semantics import Ranks, Structure, eval_formula, eval_term
from .syntax import (
    QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, Forall, Formula, Imp, Inv, One,
    Tensor, Term, Var, children, expand_derived, free_vars, is_core, is_sentence,
    print_term, term_vars,
)
from .values import INF, ZERO, TruthValue, one, order_key

# ---------------------------------------------------------------------------
# Classical (two-sorted) formulas

# Value-sort terms


@dataclass(frozen=True)
class VVar:
    name: str


@dataclass(frozen=True)
class VConst:
    which: str  # "0" | "1" | "inf"


@dataclass(frozen=True)
class VMul:
    left: "ValueTerm"
    right: "ValueTerm"


@dataclass(frozen=True)
class VInv:
    arg: "ValueTerm"


ValueTerm = Union[VVar, VConst, VMul, VInv]


@dataclass(frozen=True)
class CRel:
    """Graph atom R(args..., value): the table of R maps args to value."""

    pred: str
    args: Tuple[Term, ...]
    value: ValueTerm


@dataclass(frozen=True)
class CLe:
    left: ValueTerm
    right: ValueTerm


@dataclass(frozen=True)
class CEqV:
    left: ValueTerm
    right: ValueTerm


@dataclass(frozen=True)
class CAnd:
    left: "ClassicalFormula"
    right: "ClassicalFormula"


@dataclass(frozen=True)
class CImp:
    left: "ClassicalFormula"
    right: "ClassicalFormula"


@dataclass(frozen=True)
class CNot:
    body: "ClassicalFormula"


@dataclass(frozen=True)
class CForallObj:
    var: str
    body: "ClassicalFormula"


@dataclass(frozen=True)
class CExistsObj:
    var: str
    body: "ClassicalFormula"


@dataclass(frozen=True)
class CForallVal:
    var: str
    body: "ClassicalFormula"


@dataclass(frozen=True)
class CExistsVal:
    var: str
    body: "ClassicalFormula"


ClassicalFormula = Union[
    CRel, CLe, CEqV, CAnd, CImp, CNot, CForallObj, CExistsObj, CForallVal, CExistsVal,
]


class _Shape(NamedTuple):
    """How one classical node type is printed, traversed and evaluated."""

    keyword: str                 # print keyword; empty for a leaf, printed as its label
    parts: Callable              # node -> its subformulas and terms, in print order
    case: str                    # the _ClassicalEvaluator method that evaluates it
    param: object = None         # that method's parameter
    label: Optional[str] = None  # field holding a name, printed before the parts


def _no_parts(node):
    return ()


def _body(node):
    return (node.body,)


_pair = attrgetter("left", "right")

# The companion's product and inverse on the classical evaluator's values,
# ranks of its value sort ev.V, memoized per call: the clause g = g1 * g2 is
# evaluated k^3 times over a sort of k values.
def _mul(ev, s, t):
    key = (s, t)
    got = ev.products.get(key)
    if got is None:
        got = ev.products[key] = ev.V.mul(s, t)
    return got


def _inv(ev, s):
    got = ev.inverses.get(s)
    if got is None:
        got = ev.inverses[s] = ev.V.inv(s)
    return got


# One row per classical node type.  The parameter of a quantifier is its
# domain (a _ClassicalEvaluator attribute) and whether every instance must
# hold; of CAnd and CImp, the verdict when the left side is false; of the other
# inner nodes, the operation on the evaluator and the values of the parts.
_SHAPES = {
    CRel: _Shape("rel", lambda n: (*n.args, n.value), "_rel", label="pred"),
    CLe: _Shape("le", _pair, "_apply", lambda ev, s, t: ev.V.compare(s, t) <= 0),
    CEqV: _Shape("eqv", _pair, "_apply", lambda ev, s, t: s == t),
    CAnd: _Shape("and", _pair, "_connective", False),
    CImp: _Shape("imp", _pair, "_connective", True),
    CNot: _Shape("not", _body, "_not"),
    CForallObj: _Shape("forall-obj", _body, "_quantifier", ("objects", True), "var"),
    CExistsObj: _Shape("exists-obj", _body, "_quantifier", ("objects", False), "var"),
    CForallVal: _Shape("forall-val", _body, "_quantifier", ("values", True), "var"),
    CExistsVal: _Shape("exists-val", _body, "_quantifier", ("values", False), "var"),
    VVar: _Shape("", _no_parts, "_var", label="name"),
    VConst: _Shape("", _no_parts, "_const", label="which"),
    VMul: _Shape("mul", _pair, "_apply", _mul),
    VInv: _Shape("inv", lambda t: (t.arg,), "_apply", _inv),
}


def _shape(node) -> _Shape:
    try:
        return _SHAPES[type(node)]
    except KeyError:
        raise UsageError(f"not a classical formula: {node!r}") from None


# ---------------------------------------------------------------------------
# Translation


@dataclass
class Translation:
    """A classical formula with its distinguished free value variable."""

    formula: ClassicalFormula
    value_var: str


_CONSTANT_VALUES = {Bot: "0", One: "1"}

# The clauses that pin g, the value of a connective, to a, b, its operands' values.
_SIDE_CLAUSES = {
    And: lambda g, a, b: (CImp(CLe(a, b), CEqV(g, a)), CImp(CLe(b, a), CEqV(g, b))),
    Imp: lambda g, a, b: (CImp(CLe(a, b), CEqV(g, VConst("inf"))),
                          CImp(CNot(CLe(a, b)), CEqV(g, b))),
    Tensor: lambda g, a, b: (CEqV(g, VMul(a, b)),),
    Inv: lambda g, a: (CEqV(g, VInv(a)),),
}


def translate(phi: Formula) -> Translation:
    """Translate a core-only formula into its classical companion form.

    The result has the object free variables of phi plus one free value
    variable naming the truth value of phi.  Value variables are
    allocated per subformula, so they never collide: the variable of a
    node is bound strictly inside its parent's clause.
    """
    if not is_core(phi):
        raise UsageError("translate requires a core-only formula; run expand_derived first")
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"g{counter[0]}"

    def go(node: Formula, g: str) -> ClassicalFormula:
        kind = type(node)
        if kind in _CONSTANT_VALUES:
            return CEqV(VVar(g), VConst(_CONSTANT_VALUES[kind]))
        if kind is Atom:
            return CRel(node.pred, node.args, VVar(g))
        if kind in QUANTIFIER_CONNECTIVE:
            # g is the greatest lower bound (forall) or the least upper bound
            # (exists) of the instance values g1; only the order flips.
            order = CLe if kind is Forall else (lambda s, t: CLe(t, s))
            g1, g2 = fresh(), fresh()
            v, v1, v2 = VVar(g), VVar(g1), VVar(g2)
            body = go(node.body, g1)  # shared by both clauses below
            bound = CForallObj(node.var, CForallVal(g1, CImp(body, order(v, v1))))
            approx = CForallVal(g2, CImp(order(v, v2), CExistsObj(
                node.var, CExistsVal(g1, CAnd(body, order(v1, v2))))))
            return CAnd(bound, approx)
        kids = children(node)
        names = [fresh() for _ in kids]
        parts = []
        for kid, name in zip(kids, names):
            parts.append(go(kid, name))
        parts.extend(_SIDE_CLAUSES[kind](VVar(g), *map(VVar, names)))
        out = reduce(CAnd, parts)
        for name in reversed(names):
            out = CExistsVal(name, out)
        return out

    g0 = "g"
    return Translation(go(phi, g0), g0)


def holds_sentence(trans: Translation) -> ClassicalFormula:
    """exists g (phi_G(g) and g = inf): the satisfaction form of a translation."""
    g = trans.value_var
    return CExistsVal(g, CAnd(trans.formula, CEqV(VVar(g), VConst("inf"))))


# ---------------------------------------------------------------------------
# Classical structures


@dataclass
class ClassicalStructure:
    """Finite two-sorted companion: object sort, value sort, graphs.

    ``to_classical`` gives ``values`` sorted ascending with 0, 1 and inf
    in it; the evaluator sorts the value sort itself and adds 0 and inf,
    so a hand-built companion needs neither.  Graphs are stored
    functionally (args -> value), which both enforces and witnesses their
    functionality.
    """

    backend: object
    objects: Tuple[str, ...]
    values: Tuple[TruthValue, ...]
    relations: Dict[str, Dict[Tuple[str, ...], TruthValue]]
    funcs: Dict[str, Dict[Tuple[str, ...], str]]


def to_classical(
    struct: Structure,
    extra_values: Iterable[TruthValue] = (),
) -> ClassicalStructure:
    """Materialize the companion of a finite structure.

    The value sort is the set of truth values realized in the tables,
    plus 0, 1, inf and ``extra_values``.
    """
    values: Set[TruthValue] = {ZERO, one(struct.backend), INF}
    values.update(struct.atomic_values())
    values.update(extra_values)
    ordered = tuple(sorted(values, key=order_key))
    return ClassicalStructure(
        backend=struct.backend,
        objects=struct.universe,
        values=ordered,
        relations={name: dict(table) for name, table in struct.preds.items()},
        funcs={name: dict(table) for name, table in struct.funcs.items()},
    )


# ---------------------------------------------------------------------------
# Classical evaluation (two-valued Tarskian semantics)

# The memo grows with the formula and the value sort, so eval_classical refuses
# to build more entries than this: over ten times the largest in the test suite
# and the benchmark's translate corpus (119,694 entries).
MAX_CLASSICAL_MEMO = 2_000_000


def _no_names(env):
    return ()


class _ClassicalEvaluator:
    """Evaluator with per-call memoization keyed on (node, free-var values).

    Translations share subtrees, so memoizing on object identity plus
    the projection of the assignment onto the node's free variables
    turns the naive exponential evaluation into one pass per node and
    assignment.

    Inside one call a value is a rank of ``V``, the companion's value sort
    interned as ``semantics.Ranks``, so memo keys hold small ints.
    Objects are their names.
    """

    def __init__(self, companion: ClassicalStructure):
        self.c = companion
        V = self.V = Ranks(companion.values, companion.backend, companion.relations)
        # the quantifier domains, by sort
        self.objects = companion.objects
        self.values = range(len(V.values))
        self.constants = {"0": V.ZERO, "1": V.ONE, "inf": V.INF}
        self.products: Dict[Tuple, object] = {}
        self.inverses: Dict[object, object] = {}
        self.memo: Dict[Tuple[int, object], bool] = {}
        self.fv_cache: Dict[int, Tuple[str, ...]] = {}
        # id of a formula node -> the projection of an assignment onto its free variables
        self.projections: Dict[int, Callable] = {}

    # free variables (both sorts) of a classical node or value term, cached by identity
    def free(self, node) -> Tuple[str, ...]:
        key = id(node)
        got = self.fv_cache.get(key)
        if got is not None:
            return got
        shape = _shape(node)
        names: Set[str] = set()
        for part in shape.parts(node):
            names.update(term_vars(part) if isinstance(part, (Var, App)) else self.free(part))
        if shape.case == "_var":
            names.add(node.name)
        elif shape.case == "_quantifier":
            names.discard(node.var)
        result = tuple(sorted(names))
        self.fv_cache[key] = result
        return result

    def eval(self, node, env: Dict[str, object]) -> bool:
        node_id = id(node)
        project = self.projections.get(node_id)
        if project is None:
            names = self.free(node)
            project = self.projections[node_id] = itemgetter(*names) if names else _no_names
        key = (node_id, project(env))
        got = self.memo.get(key)
        if got is not None:
            return got
        case, shape = _FORMULA_CASES.get(type(node), _NOT_A_FORMULA)
        result = case(self, node, env, shape)
        if len(self.memo) >= MAX_CLASSICAL_MEMO:
            raise ResourceLimitError(
                f"classical evaluation exceeds {MAX_CLASSICAL_MEMO} memo entries")
        self.memo[key] = result
        return result

    # The cases below look up the case of a value-term part themselves, so
    # that a level of nesting costs as few frames as possible.

    def _ill_sorted(self, node, env, sort: str):
        raise UsageError(f"not a {sort}: {node!r}")

    def _rel(self, node: CRel, env, shape) -> bool:
        # the companion's function tables are the structure's, so eval_term
        # applies; a value-sort item never names an object
        args = tuple(eval_term(t, self.c, env) for t in node.args)
        for t, arg in zip(node.args, args):
            if not isinstance(arg, str):
                raise UsageError(f"sort violation: {print_term(t)!r} holds a value-sort item")
        case, value_shape = _TERM_CASES.get(type(node.value), _NOT_A_TERM)
        value = case(self, node.value, env, value_shape)
        table = self.V.tables.get(node.pred)
        if table is None or args not in table:
            raise UsageError(f"no graph entry for {node.pred!r} at {args}")
        return table[args] == value

    def _apply(self, node, env, shape):
        values = []
        for part in shape.parts(node):
            case, part_shape = _TERM_CASES.get(type(part), _NOT_A_TERM)
            values.append(case(self, part, env, part_shape))
        return shape.param(self, *values)

    def _connective(self, node, env, shape) -> bool:
        if self.eval(node.left, env):
            return self.eval(node.right, env)
        return shape.param

    def _not(self, node: CNot, env, shape) -> bool:
        return not self.eval(node.body, env)

    def _quantifier(self, node, env, shape) -> bool:
        sort, want_all = shape.param
        domain = getattr(self, sort)
        saved = env.get(node.var)
        had = node.var in env
        try:
            for item in domain:
                env[node.var] = item
                truth = self.eval(node.body, env)
                if want_all and not truth:
                    return False
                if not want_all and truth:
                    return True
            return want_all
        finally:
            if had:
                env[node.var] = saved
            else:
                env.pop(node.var, None)

    def _var(self, t: VVar, env, shape):
        try:
            v = env[t.name]
        except KeyError:
            raise UsageError(f"unbound value variable {t.name!r}") from None
        if isinstance(v, str):
            raise UsageError(f"sort violation: {t.name!r} holds an object-sort item")
        return v

    def _const(self, t: VConst, env, shape):
        try:
            return self.constants[t.which]
        except KeyError:
            raise UsageError(f"unknown value constant {t.which!r}") from None


# The cases are looked up as plain functions: an evaluator holding its own
# bound methods would be a reference cycle, keeping its memo alive after the
# call until the cyclic garbage collector runs.
def _cases(sort) -> Dict[type, Tuple[Callable, _Shape]]:
    """node type -> (evaluation case, shape) for the node types of one sort."""
    return {kind: (getattr(_ClassicalEvaluator, _SHAPES[kind].case), _SHAPES[kind])
            for kind in get_args(sort)}


_FORMULA_CASES = _cases(ClassicalFormula)
_TERM_CASES = _cases(ValueTerm)
_NOT_A_FORMULA = (_ClassicalEvaluator._ill_sorted, "classical formula")
_NOT_A_TERM = (_ClassicalEvaluator._ill_sorted, "value term")


def eval_classical(
    psi: ClassicalFormula,
    companion: ClassicalStructure,
    env: Optional[Dict[str, object]] = None,
) -> bool:
    """Two-valued satisfaction; value quantifiers range over the finite sort.

    Raises ResourceLimitError when the evaluation needs more than
    MAX_CLASSICAL_MEMO memo entries.
    """
    evaluator = _ClassicalEvaluator(companion)
    scope = dict(env) if env else {}
    names = evaluator.free(psi)
    missing = set(names) - set(scope)
    if missing:
        raise UsageError(f"unbound variables {sorted(missing)}")
    for name in names:
        item = scope[name]
        if isinstance(item, TruthValue):
            scope[name] = evaluator.V.encode(item)
        elif not isinstance(item, str):
            raise UsageError(f"sort violation: {name!r} holds neither an object nor a truth value")
    return evaluator.eval(psi, scope)


# ---------------------------------------------------------------------------
# The equivalence check


def check_translation(phi: Formula, struct: Structure) -> bool:
    """Machine-check the translation equivalence for one sentence.

    Returns whether direct satisfaction and classical satisfaction of
    the translated sentence agree, over a value sort seeded with every
    value a subformula of phi takes under an assignment.
    """
    if not is_sentence(phi):
        raise UsageError(f"not a sentence (free: {sorted(free_vars(phi))})")
    core = phi if is_core(phi) else expand_derived(phi)
    needed: Set[TruthValue] = set()
    direct = eval_formula(core, struct, on_value=needed.add).is_inf
    companion = to_classical(struct, needed)
    return direct == eval_classical(holds_sentence(translate(core)), companion)


# ---------------------------------------------------------------------------
# Text form (parenthesized prefix, emitted by the CLI)


def _print_obj_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"({t.func} {' '.join(_print_obj_term(a) for a in t.args)})"


def print_classical(psi: ClassicalFormula) -> str:
    """Parenthesized prefix form, one token per operator.

    Grammar: (rel P a... g) | (le s t) | (eqv s t)
           | (and A B) | (imp A B) | (not A)
           | (forall-obj x A) | (exists-obj x A)
           | (forall-val g A) | (exists-val g A)
    with value terms  g | 0 | 1 | inf | (mul s t) | (inv s),
    which print_classical prints too.
    """
    shape = _shape(psi)
    words = [] if shape.label is None else [getattr(psi, shape.label)]
    for part in shape.parts(psi):
        words.append(_print_obj_term(part) if isinstance(part, (Var, App))
                     else print_classical(part))
    if not shape.keyword:
        return words[0]
    return f"({shape.keyword} {' '.join(words)})"
