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
every assignment; ``check_translation`` reads that exact set off the
direct evaluator's value tables and seeds the sort with it, so the
check never reports a wrong answer.  ``Translation`` and
``ClassicalStructure`` are NamedTuples.
"""

from __future__ import annotations

from functools import reduce
from itertools import count
from operator import eq, itemgetter, le
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, NamedTuple, Optional, Sequence, Set, Tuple,
    Union, get_args,
)

from .errors import ResourceLimitError, UsageError
from .semantics import Ranks, Structure, eval_term, plan, ranks_of, value_tables
from .syntax import (
    CORE_NODES, QUANTIFIER_CONNECTIVE, And, App, Atom, Bot, Forall, Formula, Imp, Inv,
    One, Tensor, Term, Var, children, declare, expand_derived, nodes, print_term,
    term_vars,
)
from .values import INF, ZERO, TruthValue, one, order_key

# ---------------------------------------------------------------------------
# Classical (two-sorted) formulas

# A companion node's field that holds a str names it; its other fields, in
# order, are its parts, which it is printed and compiled from.

# Value-sort terms
VVar = declare("VVar", name="str")
VConst = declare("VConst", which="str")  # "0" | "1" | "inf"
VMul = declare("VMul", left="ValueTerm", right="ValueTerm")
VInv = declare("VInv", arg="ValueTerm")

ValueTerm = Union[VVar, VConst, VMul, VInv]

CRel = declare("CRel", "Graph atom R(args..., value): the table of R maps args to value.",
               pred="str", args="Tuple[Term, ...]", value="ValueTerm")
CLe = declare("CLe", left="ValueTerm", right="ValueTerm")
CEqV = declare("CEqV", left="ValueTerm", right="ValueTerm")
CAnd = declare("CAnd", left="ClassicalFormula", right="ClassicalFormula")
CImp = declare("CImp", left="ClassicalFormula", right="ClassicalFormula")
CNot = declare("CNot", body="ClassicalFormula")
CForallObj = declare("CForallObj", var="str", body="ClassicalFormula")
CExistsObj = declare("CExistsObj", var="str", body="ClassicalFormula")
CForallVal = declare("CForallVal", var="str", body="ClassicalFormula")
CExistsVal = declare("CExistsVal", var="str", body="ClassicalFormula")

ClassicalFormula = Union[
    CRel, CLe, CEqV, CAnd, CImp, CNot, CForallObj, CExistsObj, CForallVal, CExistsVal,
]


class _Shape(NamedTuple):
    """How one classical node type is printed and compiled."""

    keyword: str                 # print keyword; empty for a leaf, printed as its name
    build: Callable              # (node, param, closures of its parts, runtime) -> closure
    param: object = None         # build's parameter


def _declared(kind: type) -> Tuple[Optional[str], Callable]:
    """(name field or None, node -> its parts) of a companion node type,
    generated from its declaration; a tuple of terms is spread."""
    types = kind.__annotations__
    label = next((f for f in kind._fields if types[f] == "str"), None)
    parts = "".join(f"*node.{f}, " if types[f].startswith("Tuple") else f"node.{f}, "
                    for f in kind._fields if f != label)
    env: Dict[str, Callable] = {}
    exec(f"def parts(node):\n    return ({parts})\n", env)
    return label, env["parts"]


# ---------------------------------------------------------------------------
# Translation


class Translation(NamedTuple):
    """A classical formula with its distinguished free value variable."""

    formula: ClassicalFormula
    value_var: str


# Each value constant is one node, shared by every companion.
_INF = VConst("inf")
_CONSTANT_VALUES = {Bot: VConst("0"), One: VConst("1")}

# The clauses that pin g, the value of a connective, to a, b, its operands' values.
_SIDE_CLAUSES = {
    And: lambda g, a, b: (CImp(CLe(a, b), CEqV(g, a)), CImp(CLe(b, a), CEqV(g, b))),
    Imp: lambda g, a, b: (CImp(CLe(a, b), CEqV(g, _INF)), CImp(CNot(CLe(a, b)), CEqV(g, b))),
    Tensor: lambda g, a, b: (CEqV(g, VMul(a, b)),),
    Inv: lambda g, a: (CEqV(g, VInv(a)),),
}


def translate(phi: Formula) -> Translation:
    """Translate a core-only formula into its classical companion form.

    The result has the object free variables of phi plus one free value
    variable naming the truth value of phi.  Value variables are
    allocated per subformula node on its first visit, so they never
    collide: the variable of a node is bound strictly inside each of its
    parents' clauses.  A node that recurs in phi (``expand_derived``
    shares repeated operands) is translated once and its translation
    recurs, so the companion of a DAG is a DAG of the same order of size.
    Each value variable and each constant is one ``VVar`` or ``VConst``
    object wherever it occurs, so the evaluator compiles one leaf per name.
    A derived node anywhere in phi raises UsageError.
    """
    return Translation(_Translator(phi).go(phi), "g")


class _Translator:
    """One translate call: the value variable and the translation of each
    node met so far.  Its methods call each other through self, so a call
    leaves no reference cycle behind."""

    __slots__ = ("names", "done", "counter")

    def __init__(self, root: Formula):
        self.names: Dict[int, VVar] = {id(root): VVar("g")}  # id of a node -> its variable
        self.done: Dict[int, ClassicalFormula] = {}           # id of a node -> its translation
        self.counter = count(1)

    def fresh(self) -> VVar:
        return VVar(f"g{next(self.counter)}")

    def var_of(self, node: Formula) -> VVar:
        got = self.names.get(id(node))
        if got is None:
            got = self.names[id(node)] = self.fresh()
        return got

    def go(self, node: Formula) -> ClassicalFormula:
        key = id(node)
        got = self.done.get(key)
        if got is None:
            got = self.done[key] = self.clause(node, self.names[key])
        return got

    def clause(self, node: Formula, v: VVar) -> ClassicalFormula:
        kind = type(node)
        if kind in _CONSTANT_VALUES:
            return CEqV(v, _CONSTANT_VALUES[kind])
        if kind is Atom:
            return CRel(node.pred, node.args, v)
        if kind in QUANTIFIER_CONNECTIVE:
            # v is the greatest lower bound (forall) or the least upper bound
            # (exists) of the instance values v1; only the order flips.
            order = CLe if kind is Forall else (lambda s, t: CLe(t, s))
            v1, v2 = self.var_of(node.body), self.fresh()
            body = self.go(node.body)  # shared by both clauses below
            bound = CForallObj(node.var, CForallVal(v1.name, CImp(body, order(v, v1))))
            approx = CForallVal(v2.name, CImp(order(v, v2), CExistsObj(
                node.var, CExistsVal(v1.name, CAnd(body, order(v1, v2))))))
            return CAnd(bound, approx)
        if kind not in _SIDE_CLAUSES:
            raise UsageError("translate requires a core-only formula; run expand_derived first")
        kids = children(node)
        kid_vars = [self.var_of(kid) for kid in kids]
        parts = [self.go(kid) for kid in kids]
        parts.extend(_SIDE_CLAUSES[kind](v, *kid_vars))
        out = reduce(CAnd, parts)
        for kid_var in reversed(dict.fromkeys(kid_vars)):
            out = CExistsVal(kid_var.name, out)
        return out


def holds_sentence(trans: Translation) -> ClassicalFormula:
    """exists g (phi_G(g) and g = inf): the satisfaction form of a translation."""
    g = trans.value_var
    return CExistsVal(g, CAnd(trans.formula, CEqV(VVar(g), _INF)))


# ---------------------------------------------------------------------------
# Classical structures


class ClassicalStructure(NamedTuple):
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
#
# eval_classical compiles the companion formula, a DAG, into one closure per
# distinct node (closure generation: Feeley & Lapalme, Computer Languages
# 1987) and runs the root's closure once.  A closure reads and binds the
# variables of one assignment dict.

# The memo grows with the formula and the value sort, so eval_classical refuses
# to build more memo and support entries than this: over 1,000 times the
# largest in the test suite (1,802 entries) and the benchmark's translate
# corpora of seeds 33001 and 33002 (1,189).
MAX_CLASSICAL_MEMO = 2_000_000

_UNSET = object()
_NO_NAMES: FrozenSet[str] = frozenset()


class _Runtime(NamedTuple):
    """What the closures of one eval_classical call read.

    Inside one call a value is encoded by ``V``, the companion's value sort
    interned as ``semantics.Ranks``, and orders natively; objects are their
    names.  ``tick`` numbers the memo and support entries as they are made.
    """

    companion: ClassicalStructure
    V: Ranks
    graphs: Dict[str, Dict[Tuple[str, ...], object]]  # each graph, its values encoded
    domains: Dict[str, Sequence]                       # sort -> quantifier domain
    constants: Dict[str, object]
    tick: Iterator[int]
    limit: int
    # the names that some object quantifier or the assignment binds to an
    # object: only a value variable of such a name checks its sort
    object_names: FrozenSet[str]
    # each product and inverse computed so far: a guard tries every value of
    # the sort with the same operands, which would recompute them each time
    products: Dict[Tuple[object, object], object]
    inverses: Dict[object, object]


def _over(limit: int) -> ResourceLimitError:
    return ResourceLimitError(f"classical evaluation exceeds {limit} memo entries")


def _no_key(env):
    return ()


def _projection(names) -> Callable:
    """An assignment -> its values at names: the key of a memo entry."""
    return itemgetter(*names) if names else _no_key


def _ill_sorted(node, sort: str) -> Callable:
    def run(env):
        raise UsageError(f"not a {sort}: {node!r}")
    return run


# Builders: (node, param, closures of its parts, runtime) -> the node's closure.


def _rel(node: CRel, param, kids, rt: _Runtime) -> Callable:
    value, = kids
    pred, terms, companion = node.pred, node.args, rt.companion
    table = rt.graphs.get(pred)

    def checked(env):  # every case, and every error
        # the companion's function tables are the structure's, so eval_term
        # applies; a value-sort item never names an object
        args = tuple([eval_term(t, companion, env) for t in terms])
        for t, arg in zip(terms, args):
            if not isinstance(arg, str):
                raise UsageError(f"sort violation: {print_term(t)!r} holds a value-sort item")
        v = value(env)
        if table is None or args not in table:
            raise UsageError(f"no graph entry for {pred!r} at {args}")
        return table[args] == v

    if table is None or any(type(t) is not Var for t in terms):
        return checked
    # Arguments that are variables, looked up directly.  The graph is keyed
    # by object names, so an entry found means every argument is an object;
    # checked raises on the rest.
    pick = _projection([t.name for t in terms])
    # keyed as pick gives them: one name's value alone, not in a tuple
    entries = {args[0]: v for args, v in table.items() if len(args) == 1} \
        if len(terms) == 1 else table

    def run(env):
        got = entries.get(pick(env))
        return checked(env) if got is None else got == value(env)
    return run


def _compare(node, op, kids, rt: _Runtime) -> Callable:
    left, right = kids
    return lambda env: op(left(env), right(env))


def _and(node, param, kids, rt) -> Callable:
    left, right = kids
    return lambda env: left(env) and right(env)


def _imp(node, param, kids, rt) -> Callable:
    left, right = kids
    return lambda env: not left(env) or right(env)


def _not(node, param, kids, rt) -> Callable:
    body, = kids
    return lambda env: not body(env)


def _var(node: VVar, param, kids, rt: _Runtime) -> Callable:
    name = node.name
    if name not in rt.object_names:
        return itemgetter(name)  # bound, and never to an object

    def checked(env):
        v = env[name]
        if isinstance(v, str):
            raise UsageError(f"sort violation: {name!r} holds an object-sort item")
        return v
    return checked


def _const(node: VConst, param, kids, rt: _Runtime) -> Callable:
    which = node.which
    value = rt.constants.get(which)
    if value is not None:
        return lambda env: value

    def unknown(env):
        raise UsageError(f"unknown value constant {which!r}")
    return unknown


def _mul(node, param, kids, rt: _Runtime) -> Callable:
    left, right = kids
    mul, products = rt.V.mul, rt.products

    def run(env):
        a, b = left(env), right(env)
        got = products.get((a, b))
        if got is None:
            got = products[a, b] = mul(a, b)
        return got
    return run


def _inv(node, param, kids, rt: _Runtime) -> Callable:
    arg, = kids
    inv, inverses = rt.V.inv, rt.inverses

    def run(env):
        a = arg(env)
        got = inverses.get(a)
        if got is None:
            got = inverses[a] = inv(a)
        return got
    return run


def _memoized(compute: Callable, project: Callable, rt: _Runtime) -> Callable:
    """compute, memoized on the projection of the assignment."""
    memo, tick, limit = {}, rt.tick, rt.limit

    def run(env):
        key = project(env)
        got = memo.get(key)
        if got is None:
            got = compute(env)
            if next(tick) >= limit:
                raise _over(limit)
            memo[key] = got
        return got
    return run


def _quantifier(var: str, body: Callable, want_all: bool, domain, support: Optional[Callable],
                project: Callable, rt: _Runtime) -> Callable:
    """A quantifier over domain, or over support(env) when it has a guard;
    memoized on the projection of the assignment."""
    memo, tick, limit = {}, rt.tick, rt.limit

    def run(env):
        key = project(env)
        got = memo.get(key)
        if got is None:
            saved = env.get(var, _UNSET)
            got = want_all
            for item in domain if support is None else support(env):
                env[var] = item
                if body(env) is not want_all:
                    got = not want_all
                    break
            if saved is _UNSET:
                env.pop(var, None)
            else:
                env[var] = saved
            if next(tick) >= limit:
                raise _over(limit)
            memo[key] = got
        return got
    return run


def _guard(node, free: Dict[int, FrozenSet[str]]):
    """(the conjuncts left of the guard, the guard, its other free variables)
    of a value quantifier, or None; see eval_classical for the rule."""
    var, part = node.var, node.body
    if type(node) is CForallVal:
        part = part.left if type(part) is CImp else None
    bound = set()  # the variables of the stripped existential prefix
    while type(part) in (CExistsVal, CExistsObj):
        bound.add(part.var)
        part = part.body
    lefts, todo = [], [] if part is None else [part]
    while todo:
        conjunct = todo.pop()
        if type(conjunct) is CAnd:
            todo += (conjunct.right, conjunct.left)
            continue
        names = free.get(id(conjunct))
        if names is None:  # an object term: ill-sorted, so evaluate it first
            return [], conjunct, ()
        if not bound.isdisjoint(names):
            return None
        if var in names:
            return lefts, conjunct, names - {var}
        lefts.append(conjunct)
    return None


def _support(var: str, lefts, guard: Callable, project: Callable, rt: _Runtime) -> Callable:
    """env -> the ranks where guard holds, in rank order, memoized on project;
    none when a conjunct left of it fails."""
    values, supports, tick, limit = rt.domains["values"], {}, rt.tick, rt.limit

    def support(env):
        for left in lefts:
            if not left(env):
                return ()
        key = project(env)
        got = supports.get(key)
        if got is None:
            got = []
            for item in values:
                env[var] = item
                if guard(env):
                    got.append(item)
            if next(tick) >= limit:
                raise _over(limit)
            supports[key] = got
        return got
    return support


# One row per classical node type.  The parameter of a quantifier is its
# sort and whether every instance must hold; of a comparison, its operator.
_SHAPES = {
    CRel: _Shape("rel", _rel),
    CLe: _Shape("le", _compare, le),
    CEqV: _Shape("eqv", _compare, eq),
    CAnd: _Shape("and", _and),
    CImp: _Shape("imp", _imp),
    CNot: _Shape("not", _not),
    CForallObj: _Shape("forall-obj", _quantifier, ("objects", True)),
    CExistsObj: _Shape("exists-obj", _quantifier, ("objects", False)),
    CForallVal: _Shape("forall-val", _quantifier, ("values", True)),
    CExistsVal: _Shape("exists-val", _quantifier, ("values", False)),
    VVar: _Shape("", _var),
    VConst: _Shape("", _const),
    VMul: _Shape("mul", _mul),
    VInv: _Shape("inv", _inv),
}
_PARTS = {kind: _declared(kind) for kind in _SHAPES}  # node type -> (name field, parts)
_FORMULAS = frozenset(get_args(ClassicalFormula))
_TERMS = frozenset(get_args(ValueTerm))
_LEAVES = frozenset((VVar, VConst))
_INNER = frozenset(_SHAPES) - _LEAVES  # the nodes of the compile walk
_ON_TERMS = frozenset((CRel, CLe, CEqV, VMul, VInv))  # whose operands are value terms


def _leaf_names(leaf) -> FrozenSet[str]:
    return frozenset((leaf.name,)) if type(leaf) is VVar else _NO_NAMES


def _closure(part, closures: Dict[int, Callable], rt: _Runtime, kinds=_FORMULAS,
             sort: str = "classical formula") -> Callable:
    """The closure of part where a node of kinds is expected: a value-term
    leaf's is built on first use, and one that raises on a part of another
    sort."""
    fn = closures.get(id(part))
    if fn is None and type(part) in _LEAVES:
        fn = closures[id(part)] = _SHAPES[type(part)].build(part, None, (), rt)
    return fn if fn is not None and type(part) in kinds else _ill_sorted(part, sort)


class _Program(NamedTuple):
    """A classical formula compiled over one companion."""

    rt: _Runtime
    free: Dict[int, FrozenSet[str]]  # id of a node -> its free variables
    closures: Dict[int, Callable]    # id of a node -> its closure
    supports: Dict[int, Callable]    # id of a guarded value quantifier -> its support


def _compile(psi, companion: ClassicalStructure, objects: Iterable[str] = ()) -> _Program:
    """One closure per distinct node of psi, children first; objects are
    the names the assignment binds to objects.

    One iterative post-order walk reads each inner node's parts once and
    finds its free variables and its number of parents; the build loop then
    builds the closures in the walk's order from the parts it recorded, and
    a value-term leaf's closure when it first meets that leaf object
    (``translate`` shares one leaf per name, so one closure per name).

    A quantifier and a formula node with more than one parent memoize their
    verdicts on the projection of the assignment onto their free variables;
    every other node has one parent, so each memoized evaluation runs each
    node below it at most once per evaluation of that parent.
    """
    V = Ranks(companion.values, companion.backend, {})
    encode = V.encode  # a hand-built companion's graphs may hold values off its sort
    graphs = {name: {args: encode(v) for args, v in table.items()}
              for name, table in companion.relations.items()}

    # One iterative post-order walk: free variables and parent counts.  A
    # node is pushed once per parent until it is done.  Its first pop reads
    # its parts into parts_of and pushes it again above them; the second,
    # once every part is done, makes it done.  Value-term leaves are no
    # nodes of the walk: their parents read them.
    free, parts_of, order = {}, {}, []
    parents, todo, object_names = {id(psi): 0}, [psi], set(objects)
    while todo:
        node = todo.pop()
        key = id(node)
        if key in free:
            continue
        parts = parts_of.get(key)
        if parts is None:
            declared = _PARTS.get(type(node))
            if declared is None:
                raise UsageError(f"not a classical formula: {node!r}")
            parts = parts_of[key] = declared[1](node)
            todo.append(node)
            for part in parts:
                if type(part) in _INNER:
                    part_key = id(part)
                    parents[part_key] = parents.get(part_key, 0) + 1
                    if part_key not in free:
                        todo.append(part)
            continue
        names = _NO_NAMES
        for part in parts:
            got = free.get(id(part))
            if got is None:
                kind = type(part)
                if kind is VVar or kind is VConst:
                    got = free[id(part)] = _leaf_names(part)
                elif isinstance(part, (Var, App)):
                    got = frozenset(term_vars(part))
                else:
                    raise UsageError(f"not a classical formula: {part!r}")
            names = names | got if names else got
        shape = _SHAPES[type(node)]
        if shape.build is _quantifier:
            names = names - {node.var}
            if shape.param[0] == "objects":
                object_names.add(node.var)
        elif type(node) in _LEAVES:  # psi itself
            names = _leaf_names(node)
        free[key] = names
        order.append(node)

    rt = _Runtime(companion, V, graphs,
                  {"objects": companion.objects, "values": range(len(V.values))},
                  {"0": V.ZERO, "1": V.ONE, "inf": V.INF}, count(), MAX_CLASSICAL_MEMO,
                  frozenset(object_names), {}, {})
    closures: Dict[int, Callable] = {}
    supports: Dict[int, Callable] = {}
    for node in order:
        kind, key = type(node), id(node)
        shape = _SHAPES[kind]
        kinds, sort = (_TERMS, "value term") if kind in _ON_TERMS else (_FORMULAS, "classical formula")
        kids = []
        for part in (node.value,) if kind is CRel else parts_of[key]:
            fn = closures.get(id(part))
            kids.append(fn if fn is not None and type(part) in kinds
                        else _closure(part, closures, rt, kinds, sort))
        if shape.build is not _quantifier:
            fn = shape.build(node, shape.param, kids, rt)
            if parents[key] > 1 and kind in _FORMULAS:
                fn = _memoized(fn, _projection(free[key]), rt)
        else:
            domain, want_all = shape.param
            support = None
            found = _guard(node, free) if domain == "values" else None
            if found is not None:
                lefts, guard, others = found
                support = supports[key] = _support(
                    node.var, [_closure(left, closures, rt) for left in lefts],
                    _closure(guard, closures, rt), _projection(others), rt)
            fn = _quantifier(node.var, kids[0], want_all, rt.domains[domain], support,
                             _projection(free[key]), rt)
        closures[key] = fn
    return _Program(rt, free, closures, supports)


def eval_classical(
    psi: ClassicalFormula,
    companion: ClassicalStructure,
    env: Optional[Dict[str, object]] = None,
) -> bool:
    """Two-valued satisfaction; value quantifiers range over the finite sort.

    psi is compiled once per call, in one walk and one build loop, into one
    closure per distinct node (see _compile), and the root's closure runs
    once.  Quantifiers and formula nodes shared by several parents memoize
    their verdicts per assignment of their free variables, so a DAG costs
    one evaluation per node and assignment, not one per path.

    A value quantifier loops over the support of its guard, not the whole
    sort (safe-range evaluation).  Let A be the body of exists-val v, or the
    antecedent of forall-val v whose body is an implication; strip from A
    its prefix of object and value existentials.  The guard is the first
    conjunct of the rest that mentions v, provided neither it nor a conjunct
    left of it mentions a stripped variable (so a prefix that binds v again
    leaves no guard).  Where those left conjuncts hold, an instance off the
    support makes A false, so it can neither witness the exists nor refute
    the forall.  The support is memoized on the guard's other free
    variables; a quantifier with no guard loops over the whole sort.

    A guarded quantifier evaluates its guard at every value of the sort
    before it tries an instance, so a hand-built formula whose guard raises
    UsageError at some value raises it even where a witness at an earlier
    value would have decided the quantifier; no companion that ``translate``
    builds raises there.  Raises ResourceLimitError when the evaluation
    needs more than MAX_CLASSICAL_MEMO memo and support entries.
    """
    scope = dict(env) if env else {}
    program = _compile(psi, companion, [name for name, item in scope.items()
                                        if isinstance(item, str)])
    names = sorted(program.free[id(psi)])
    missing = set(names) - set(scope)
    if missing:
        raise UsageError(f"unbound variables {sorted(missing)}")
    for name in names:
        item = scope[name]
        if isinstance(item, TruthValue):
            scope[name] = program.rt.V.encode(item)
        elif not isinstance(item, str):
            raise UsageError(f"sort violation: {name!r} holds neither an object nor a truth value")
    run = program.closures[id(psi)] if type(psi) in _FORMULAS else \
        _ill_sorted(psi, "classical formula")
    return run(scope)


# ---------------------------------------------------------------------------
# The equivalence check


def check_translation(phi: Formula, struct: Structure) -> bool:
    """Machine-check the translation equivalence for one sentence.

    Returns whether direct satisfaction and classical satisfaction of
    the translated sentence agree, over a value sort seeded with every
    value a subformula of phi takes under an assignment: the cells of
    the value tables of one direct evaluation pass.  Only that sort comes
    from the direct evaluator; ``eval_classical`` compiles and runs the
    companion formula on its own, so a wrong translation clause shows as
    a disagreement.
    """
    flat = nodes(phi)
    if flat[-1].free:
        raise UsageError(f"not a sentence (free: {list(flat[-1].free)})")
    if not all(type(node.formula) in CORE_NODES for node in flat):
        phi = expand_derived(phi)
        flat = nodes(phi)
    V = ranks_of(struct)
    needed: Set[object] = set()
    for table in value_tables(struct, plan(flat)):
        needed.update(table)
    companion = to_classical(struct, map(V.decode, needed))
    direct = V.is_inf(table[0])  # the last table is phi's, a sentence: one cell
    return direct == eval_classical(holds_sentence(translate(phi)), companion)


# ---------------------------------------------------------------------------
# Text form (parenthesized prefix, emitted by the CLI)


def _print_obj_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"({t.func} {' '.join(_print_obj_term(a) for a in t.args)})"


# The text prints the companion's DAG as a tree, and each quantifier's two
# clauses hold its body, so the text doubles with each nested quantifier;
# print_classical refuses a text longer than this: over 10 times the longest
# the test suite prints (66,326 characters).
MAX_PRINTED_CHARS = 1_000_000


def print_classical(psi: ClassicalFormula) -> str:
    """Parenthesized prefix form, one token per operator.

    Grammar: (rel P a... g) | (le s t) | (eqv s t)
           | (and A B) | (imp A B) | (not A)
           | (forall-obj x A) | (exists-obj x A)
           | (forall-val g A) | (exists-val g A)
    with value terms  g | 0 | 1 | inf | (mul s t) | (inv s),
    which print_classical prints too.  Raises ResourceLimitError, before
    any text is built, when the text would be longer than
    MAX_PRINTED_CHARS.
    """
    if _printed_size(psi, {}) > MAX_PRINTED_CHARS:
        raise ResourceLimitError(f"companion text exceeds {MAX_PRINTED_CHARS} characters")
    return _print(psi)


def _print(psi) -> str:
    shape = _SHAPES[type(psi)]  # _printed_size has checked every node
    label, parts = _PARTS[type(psi)]
    words = [] if label is None else [getattr(psi, label)]
    for part in parts(psi):
        words.append(_print_obj_term(part) if isinstance(part, (Var, App)) else _print(part))
    return f"({shape.keyword} {' '.join(words)})" if shape.keyword else words[0]


def _printed_size(psi, sizes: Dict[int, int]) -> int:
    """len(_print(psi)), each distinct node sized once (sizes: id -> size)."""
    got = sizes.get(id(psi))
    if got is None:
        shape = _SHAPES.get(type(psi))
        if shape is None:
            raise UsageError(f"not a classical formula: {psi!r}")
        label, parts = _PARTS[type(psi)]
        lengths = [] if label is None else [len(getattr(psi, label))]
        for part in parts(psi):
            lengths.append(len(_print_obj_term(part)) if isinstance(part, (Var, App))
                           else _printed_size(part, sizes))
        got = sizes[id(psi)] = (len(shape.keyword) + sum(lengths) + len(lengths) + 2
                                if shape.keyword else lengths[0])
    return got
