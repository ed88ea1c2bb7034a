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
reports a wrong answer.  When a caller forces a fixed closure depth
instead, a missing witness raises ClosureExhausted rather than
returning an unsound verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, NamedTuple, Optional, Set, Tuple, Union, get_args,
)

from .errors import ClosureExhausted, ResourceLimitError, UsageError
from .semantics import Structure, eval_formula, eval_term
from .syntax import (
    QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, Forall, Formula, Imp, Inv, One,
    Tensor, Term, Var, children, expand_derived, free_vars, is_core, is_sentence,
    print_term, term_vars,
)
from .values import INF, ZERO, TruthValue, one, tv_compare, tv_inv, tv_mul

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

# One row per classical node type.  The parameter of a quantifier is its
# domain (a ClassicalStructure field) and whether every instance must hold; of
# CAnd and CImp, the verdict when the left side is false; of the other inner
# nodes, the function of the companion and the values of the parts.
_SHAPES = {
    CRel: _Shape("rel", lambda n: (*n.args, n.value), "_rel", label="pred"),
    CLe: _Shape("le", _pair, "_apply", lambda c, s, t: tv_compare(s, t) <= 0),
    CEqV: _Shape("eqv", _pair, "_apply", lambda c, s, t: s == t),
    CAnd: _Shape("and", _pair, "_connective", False),
    CImp: _Shape("imp", _pair, "_connective", True),
    CNot: _Shape("not", _body, "_not"),
    CForallObj: _Shape("forall-obj", _body, "_quantifier", ("objects", True), "var"),
    CExistsObj: _Shape("exists-obj", _body, "_quantifier", ("objects", False), "var"),
    CForallVal: _Shape("forall-val", _body, "_quantifier", ("values", True), "var"),
    CExistsVal: _Shape("exists-val", _body, "_quantifier", ("values", False), "var"),
    VVar: _Shape("", _no_parts, "_var", label="name"),
    VConst: _Shape("", _no_parts, "_const", label="which"),
    VMul: _Shape("mul", _pair, "_apply", lambda c, s, t: tv_mul(s, t, c.backend)),
    VInv: _Shape("inv", lambda t: (t.arg,), "_apply", lambda c, s: tv_inv(s)),
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

    ``values`` is sorted ascending and always contains 0, 1 and inf.
    Graphs are stored functionally (args -> value), which both enforces
    and witnesses their functionality.
    """

    backend: object
    objects: Tuple[str, ...]
    values: Tuple[TruthValue, ...]
    relations: Dict[str, Dict[Tuple[str, ...], TruthValue]]
    funcs: Dict[str, Dict[Tuple[str, ...], str]]

    def constant(self, which: str) -> TruthValue:
        if which == "0":
            return ZERO
        if which == "inf":
            return INF
        if which == "1":
            return one(self.backend)
        raise UsageError(f"unknown value constant {which!r}")


def to_classical(
    struct: Structure,
    closure_depth: int = 2,
    extra_values: Iterable[TruthValue] = (),
    max_values: int = 5000,
) -> ClassicalStructure:
    """Materialize the companion of a finite structure.

    The value sort is the set of truth values realized in the tables,
    plus 0, 1, inf and ``extra_values``, closed under product and
    inverse to ``closure_depth`` rounds.  Exceeding ``max_values``
    raises a resource error rather than silently truncating.
    """
    values: Set[TruthValue] = {ZERO, one(struct.backend), INF}
    values.update(struct.atomic_values())
    values.update(extra_values)
    for _ in range(closure_depth):
        new: Set[TruthValue] = set()
        current = list(values)
        for a in current:
            inv = tv_inv(a)
            if inv not in values:
                new.add(inv)
        for a in current:
            for b in current:
                p = tv_mul(a, b, struct.backend)
                if p not in values:
                    new.add(p)
                if len(values) + len(new) > max_values:
                    raise ResourceLimitError(
                        f"value-sort closure exceeds {max_values} elements"
                    )
        if not new:
            break
        values |= new
    ordered = tuple(sorted(values, key=_sort_key))
    return ClassicalStructure(
        backend=struct.backend,
        objects=struct.universe,
        values=ordered,
        relations={name: dict(table) for name, table in struct.preds.items()},
        funcs={name: dict(table) for name, table in struct.funcs.items()},
    )


def _sort_key(tv: TruthValue):
    return (tv.kind, tv.payload if tv.kind == 1 else 0)


# ---------------------------------------------------------------------------
# Classical evaluation (two-valued Tarskian semantics)


class _ClassicalEvaluator:
    """Evaluator with per-call memoization keyed on (node, free-var values).

    Translations share subtrees, so memoizing on object identity plus
    the projection of the assignment onto the node's free variables
    turns the naive exponential evaluation into one pass per node and
    assignment.
    """

    def __init__(self, companion: ClassicalStructure):
        self.c = companion
        self.memo: Dict[Tuple[int, Tuple], bool] = {}
        self.fv_cache: Dict[int, Tuple[str, ...]] = {}

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
        key = (id(node), tuple(env[v] for v in self.free(node)))
        got = self.memo.get(key)
        if got is not None:
            return got
        case, shape = _FORMULA_CASES.get(type(node), _NOT_A_FORMULA)
        result = case(self, node, env, shape)
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
        table = self.c.relations.get(node.pred)
        if table is None or args not in table:
            raise UsageError(f"no graph entry for {node.pred!r} at {args}")
        return table[args] == value

    def _apply(self, node, env, shape):
        values = []
        for part in shape.parts(node):
            case, part_shape = _TERM_CASES.get(type(part), _NOT_A_TERM)
            values.append(case(self, part, env, part_shape))
        return shape.param(self.c, *values)

    def _connective(self, node, env, shape) -> bool:
        if self.eval(node.left, env):
            return self.eval(node.right, env)
        return shape.param

    def _not(self, node: CNot, env, shape) -> bool:
        return not self.eval(node.body, env)

    def _quantifier(self, node, env, shape) -> bool:
        sort, want_all = shape.param
        domain = getattr(self.c, sort)
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

    def _var(self, t: VVar, env, shape) -> TruthValue:
        try:
            v = env[t.name]
        except KeyError:
            raise UsageError(f"unbound value variable {t.name!r}") from None
        if not isinstance(v, TruthValue):
            raise UsageError(f"sort violation: {t.name!r} holds an object-sort item")
        return v

    def _const(self, t: VConst, env, shape) -> TruthValue:
        return self.c.constant(t.which)


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
    """Two-valued satisfaction; value quantifiers range over the finite sort."""
    evaluator = _ClassicalEvaluator(companion)
    scope = dict(env) if env else {}
    missing = set(evaluator.free(psi)) - set(scope)
    if missing:
        raise UsageError(f"unbound variables {sorted(missing)}")
    return evaluator.eval(psi, scope)


# ---------------------------------------------------------------------------
# The equivalence check


def check_translation(
    phi: Formula,
    struct: Structure,
    closure_depth: Optional[int] = None,
    max_values: int = 5000,
) -> bool:
    """Machine-check the translation equivalence for one sentence.

    Returns whether direct satisfaction and classical satisfaction of
    the translated sentence agree.  With the default witness-seeded
    value sort the verdict is always meaningful; with an explicit
    ``closure_depth`` a value sort too shallow for the needed witnesses
    raises ClosureExhausted instead of producing a wrong answer.
    """
    if not is_sentence(phi):
        raise UsageError(f"not a sentence (free: {sorted(free_vars(phi))})")
    core = phi if is_core(phi) else expand_derived(phi)
    needed: Set[TruthValue] = set()
    value = eval_formula(core, struct, on_value=needed.add)
    direct = value.is_inf

    if closure_depth is None:
        companion = to_classical(struct, closure_depth=0, extra_values=needed,
                                 max_values=max_values)
    else:
        companion = to_classical(struct, closure_depth=closure_depth,
                                 max_values=max_values)
        missing = needed - set(companion.values)
        if missing:
            shown = sorted(missing, key=_sort_key)[:3]
            raise ClosureExhausted(
                f"value sort (closure depth {closure_depth}) lacks "
                f"{len(missing)} needed witness value(s), e.g. {shown}"
            )
    classical = eval_classical(holds_sentence(translate(core)), companion)
    return direct == classical


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
