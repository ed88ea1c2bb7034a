"""Signatures, terms and formulas, with a concrete text grammar.

Connectives
-----------
Core: bot, one, atoms, /\\ (meet), -> (residuated implication),
* (group product), ^-1 (inverse), forall, exists.

Derived (first-class AST nodes, expandable to core on demand):
top, \\/ , ~ (negation), <->, ^n (n-th power), => , ==> , delta(.),
->l (shifted implication).  The definitions are:

    phi^1        = phi                 phi^n = phi^(n - n//2) * phi^(n//2)
    phi \\/ psi  = ((phi->psi)->psi) /\\ ((psi->phi)->phi)
    ~phi         = phi -> bot
    phi <-> psi  = (phi->psi) /\\ (psi->phi)
    top          = ~bot
    phi => psi   = (psi->phi) -> psi
    phi ==> psi  = ((phi=>psi) /\\ ~~psi^-1) \\/ (psi /\\ ~~phi^-1)
    delta(phi)   = ~(phi ==> top)
    phi ->l psi  = one -> (psi * phi^-1)

Precedence, tightest first: postfix ^-1 and ^n, prefix ~, *, /\\, \\/,
-> and ->l (right associative), <-> => ==> (right associative),
quantifiers loosest (the body extends as far right as possible).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
    get_args,
)

from .errors import (
    ArityError, FormulaSyntaxError, ParseError, ResourceLimitError, UnknownSymbolError, UsageError,
)

# ---------------------------------------------------------------------------
# Signatures


@dataclass
class Signature:
    """Function and predicate symbols with fixed arities.

    ``equality`` optionally names a distinguished binary predicate that
    plays the role of the equality relation (conventionally ``e``).
    """

    functions: Dict[str, int] = field(default_factory=dict)
    predicates: Dict[str, int] = field(default_factory=dict)
    equality: Optional[str] = None

    def __post_init__(self):
        overlap = set(self.functions) & set(self.predicates)
        if overlap:
            raise UsageError(f"symbols declared both as function and predicate: {sorted(overlap)}")
        for name, arity in list(self.functions.items()) + list(self.predicates.items()):
            if arity < 0:
                raise UsageError(f"negative arity for {name}")
            if not _IDENT_RE.fullmatch(name) or name in KEYWORDS:
                raise UsageError(f"bad symbol name {name!r}")
        if self.equality is not None:
            if self.predicates.get(self.equality) != 2:
                raise UsageError(
                    f"equality predicate {self.equality!r} must be declared with arity 2"
                )

    def constants(self) -> List[str]:
        return sorted(n for n, a in self.functions.items() if a == 0)

    def with_constants(self, names: Iterable[str]) -> "Signature":
        funcs = dict(self.functions)
        for n in names:
            if n in funcs and funcs[n] != 0:
                raise UsageError(f"cannot add constant {n!r}: already a function of arity {funcs[n]}")
            if n in self.predicates:
                raise UsageError(f"cannot add constant {n!r}: already a predicate")
            funcs[n] = 0
        return Signature(funcs, dict(self.predicates), self.equality)


def content_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line of a signature, theory or structure
    file, with the ``#`` comment stripped; blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:  # most lines have none: skip the split
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if line:
            yield lineno, line


def parse_signature(text: str) -> Signature:
    """Line format: ``fn name/arity``, ``pred name/arity``, ``equality name``."""
    functions: Dict[str, int] = {}
    predicates: Dict[str, int] = {}
    equality = None
    for lineno, line in content_lines(text):
        parts = line.split()
        try:
            if parts[0] in ("fn", "pred") and len(parts) == 2 and "/" in parts[1]:
                name, arity_text = parts[1].rsplit("/", 1)
                arity = int(arity_text)
                table = functions if parts[0] == "fn" else predicates
                if name in functions or name in predicates:
                    raise UsageError(f"duplicate symbol {name!r}")
                table[name] = arity
            elif parts[0] == "equality" and len(parts) == 2:
                if equality is not None:
                    raise UsageError("duplicate 'equality' line")
                equality = parts[1]
            else:
                raise UsageError(f"unrecognized declaration {line!r}")
        except (ValueError, UsageError) as exc:
            raise UsageError(f"signature line {lineno}: {exc}") from None
    return Signature(functions, predicates, equality)


# ---------------------------------------------------------------------------
# Nodes
#
# Each term, formula and companion node type is declared once, by ``declare``:
# its fields in order, each with the type it holds, named as an annotation
# would name it.  Those types are read: ``children`` and ``rebuild`` take a
# formula's fields that hold a Formula as its subformulas, and the companion
# reads its nodes' names and parts off theirs.


class Syntax:
    """The base of every node type.  Nodes are immutable, so they can be
    dict keys and be shared between formulas."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: nodes are immutable")

    def __repr__(self):
        shown = []
        for name in self._fields:
            shown.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):  # copy and pickle rebuild a node through its __init__
        return type(self), tuple([getattr(self, name) for name in self._fields])


def declare(name: str, doc: Optional[str] = None, /, *, defaults: tuple = (),
            check: Optional[Callable] = None, **fields: str) -> type:
    """The node type name, with a slot for each of fields, in order, and an
    ``__init__`` (positional; defaults for the last fields; check(node)
    runs last), ``__eq__`` and ``__hash__`` generated for them.  Equality
    keeps class identity and the hash is the field tuple's, as for a frozen
    dataclass; each adds one frame per nesting level."""
    kind = type(name, (Syntax,), {
        "__slots__": tuple(fields), "__doc__": doc, "__annotations__": fields,
        # the caller's module, where pickle looks the type up (as for namedtuple)
        "__module__": sys._getframe(1).f_globals["__name__"], "_fields": tuple(fields)})
    # the slots' own setters: a node refuses assignment through setattr
    env = {f"_set_{f}": getattr(kind, f).__set__ for f in fields}
    env.update(_defaults=defaults, _check=check)
    params = [f", {f}" for f in fields]
    for i in range(1, len(defaults) + 1):
        params[-i] += f"=_defaults[{-i}]"
    body = "".join(f"    _set_{f}(self, {f})\n" for f in fields)
    mine, theirs = (" ".join(f"{who}.{f}," for f in fields) for who in ("self", "other"))
    exec(f"def __init__(self{''.join(params)}):\n{body}"
         f"    {'_check(self)' if check else 'pass'}\n"
         f"def __eq__(self, other):\n"
         f"    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         f"    return NotImplemented\n"
         f"def __hash__(self):\n"
         f"    return hash(({mine}))\n", env)
    kind.__init__, kind.__eq__, kind.__hash__ = env["__init__"], env["__eq__"], env["__hash__"]
    return kind


# ---------------------------------------------------------------------------
# Terms

Var = declare("Var", name="str")
App = declare("App", func="str", args="Tuple[Term, ...]", defaults=((),))

Term = Union[Var, App]


def term_vars(t: Term) -> Set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: Set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


# ---------------------------------------------------------------------------
# Formulas: an atom is a leaf, whose arguments are terms


def _positive_exponent(phi) -> None:
    if phi.n < 1:
        raise UsageError(f"power exponent must be >= 1, got {phi.n}")


Bot = declare("Bot")
One = declare("One")
Top = declare("Top")
Atom = declare("Atom", pred="str", args="Tuple[Term, ...]", defaults=((),))
And = declare("And", left="Formula", right="Formula")
Imp = declare("Imp", left="Formula", right="Formula")
Tensor = declare("Tensor", left="Formula", right="Formula")
Inv = declare("Inv", body="Formula")
Or = declare("Or", left="Formula", right="Formula")
Not = declare("Not", body="Formula")
Iff = declare("Iff", left="Formula", right="Formula")
Power = declare("Power", body="Formula", n="int", check=_positive_exponent)
DArrow = declare("DArrow", "The => connective: INF when left < right < INF, otherwise right.",
                 left="Formula", right="Formula")
DDArrow = declare("DDArrow", "The ==> connective: asserts strict order between the sides.",
                  left="Formula", right="Formula")
Delta = declare("Delta", "Crispness projection: INF when the body is INF, otherwise ZERO.",
                body="Formula")
LukImp = declare("LukImp", "The ->l connective: INF when left <= right, else right * left^-1.",
                 left="Formula", right="Formula")
Forall = declare("Forall", var="str", body="Formula")
Exists = declare("Exists", var="str", body="Formula")

Formula = Union[
    Bot, One, Top, Atom, And, Imp, Tensor, Inv, Or, Not, Iff, Power,
    DArrow, DDArrow, Delta, LukImp, Forall, Exists,
]

CORE_NODES = (Bot, One, Atom, And, Imp, Tensor, Inv, Forall, Exists)

# Precedence levels of the grammar; larger binds tighter.
_LEVEL_QUANT = 0
_LEVEL_IFF = 1
_LEVEL_ARROW = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_TENSOR = 5
_LEVEL_NOT = 6
_LEVEL_POSTFIX = 7
_RIGHT_ASSOCIATIVE = (_LEVEL_IFF, _LEVEL_ARROW)

# Binary connectives: token and precedence level, read by parser and printer.
BINARY_SYNTAX = {
    Iff: ("<->", _LEVEL_IFF), DArrow: ("=>", _LEVEL_IFF), DDArrow: ("==>", _LEVEL_IFF),
    Imp: ("->", _LEVEL_ARROW), LukImp: ("->l", _LEVEL_ARROW),
    Or: ("\\/", _LEVEL_OR), And: ("/\\", _LEVEL_AND), Tensor: ("*", _LEVEL_TENSOR),
}
_BINARY_TOKENS = {token: (node, level) for node, (token, level) in BINARY_SYNTAX.items()}
_CONSTANT_KEYWORDS = {Bot: "bot", One: "one", Top: "top"}
_KEYWORD_CONSTANTS = {kw: node for node, kw in _CONSTANT_KEYWORDS.items()}

# Over a finite domain a quantifier is the finite meet or join of its instances.
QUANTIFIER_CONNECTIVE = {Forall: And, Exists: Or}


# ---------------------------------------------------------------------------
# Generic traversal: which fields of a node are subformulas
#
# The recursive traversals here and in the solver's grounding collect children in
# plain loops: on Python 3.11 a comprehension adds a frame per level, which
# would halve the nesting depth that fits under the recursion limit.


def _traversal(kind: type) -> Tuple[Callable, Callable]:
    """(children, rebuild) of a formula type, generated from its declaration."""
    kids = [f for f in kind._fields if kind.__annotations__[f] == "Formula"]
    args = ", ".join(f"kids[{kids.index(f)}]" if f in kids else f"phi.{f}" for f in kind._fields)
    env = {"kind": kind}
    exec(f"def children(phi):\n    return ({''.join(f'phi.{f}, ' for f in kids)})\n"
         f"def rebuild(phi, kids):\n    return {f'kind({args})' if kids else 'phi'}\n", env)
    return env["children"], env["rebuild"]


# formula type -> (children, rebuild)
_TRAVERSAL = {kind: _traversal(kind) for kind in get_args(Formula)}


def children(phi: Formula) -> Tuple[Formula, ...]:
    """The immediate subformulas of phi, left to right."""
    try:
        return _TRAVERSAL[type(phi)][0](phi)
    except KeyError:
        raise UsageError(f"not a formula: {phi!r}") from None


def rebuild(phi: Formula, kids: Sequence[Formula]) -> Formula:
    """phi with its immediate subformulas replaced by kids, in children order."""
    return _TRAVERSAL[type(phi)][1](phi, kids)


class Node(NamedTuple):
    """One subformula in a list of ``nodes``: the formula, the positions in
    the list of its immediate subformulas, and its free variables, sorted."""

    formula: Formula
    kids: Tuple[int, ...]
    free: Tuple[str, ...]


def nodes(phi: Formula) -> List[Node]:
    """phi's subformulas in post-order, so each comes after its immediate
    subformulas and phi is last.  A subformula object that recurs in phi
    (``expand_derived`` shares repeated operands) is listed once, so the
    list is as long as phi is as a DAG.  Every bottom-up pass reads it."""
    out: List[Node] = []
    _list(phi, out, {})
    return out


def _list(phi: Formula, out: List[Node], at: Dict[int, int]) -> int:
    """Append phi's unlisted subformulas to out, in post-order; return
    phi's position.  at maps the id of each listed formula to its
    position (out keeps the formula alive, so the id is not reused)."""
    key = id(phi)
    got = at.get(key)
    if got is None:
        kind = type(phi)
        traversal = _TRAVERSAL.get(kind)
        if traversal is None:
            raise UsageError(f"not a formula: {phi!r}")
        kids: Tuple[int, ...] = ()
        free: Tuple[str, ...] = ()
        if kind is Atom:  # a leaf: its arguments are terms
            names: Set[str] = set()
            for t in phi.args:
                names |= term_vars(t)
            if names:
                free = tuple(sorted(names))
        else:
            for kid in traversal[0](phi):
                k = _list(kid, out, at)
                kids += (k,)
                below = out[k][2]
                if below and below != free:
                    free = tuple(sorted({*free, *below})) if free else below
            if kind in QUANTIFIER_CONNECTIVE and phi.var in free:
                free = tuple([v for v in free if v != phi.var])
        got = at[key] = len(out)
        out.append(Node(phi, kids, free))
    return got


# ---------------------------------------------------------------------------
# Derived-connective expansion


# Expansion grows exponentially with the nesting of derived connectives (each
# ==> repeats its operands several times), so expand_derived refuses results
# larger than this: over ten times the largest in the test suite (70,985 nodes).
MAX_EXPANDED_NODES = 750_000


def expand_derived(phi: Formula, _done: Optional[Dict[int, tuple]] = None) -> Formula:
    """Rewrite every derived node by its definition; the result is core-only.

    Expansion is purely syntactic and idempotent; the evaluator uses the
    truth functions of ``semantics.TRUTH`` directly, and the test suite
    checks the two agree.  The definitions repeat operands; the result
    shares the expansion of each repeated operand, so it is built in time
    linear in phi.  A result of more than MAX_EXPANDED_NODES nodes, counted
    as a tree, raises ResourceLimitError.  The recursive calls share
    ``_done``: (formula, expansion, tree size) by id of the formula, which
    the entry keeps alive so that the id is not reused.
    """
    done = {} if _done is None else _done
    got = done.get(id(phi))
    if got is None:
        kind = type(phi)
        if kind in CORE_NODES:
            kids, size = [], 1
            for kid in children(phi):
                kids.append(expand_derived(kid, done))
                size += done[id(kid)][2]
            got = (phi, rebuild(phi, kids), size)
        elif kind in _DEFINITIONS:
            step = _DEFINITIONS[kind](phi)
            got = (phi, expand_derived(step, done), done[id(step)][2])
        else:
            raise UsageError(f"not a formula: {phi!r}")
        done[id(phi)] = got
    if _done is None and got[2] > MAX_EXPANDED_NODES:
        raise ResourceLimitError(
            f"derived-connective expansion exceeds {MAX_EXPANDED_NODES} nodes")
    return got[1]


def _balanced_power(body: Formula, n: int) -> Formula:
    """body^n as Tensor(body^(n - n//2), body^(n//2)), down to body^1 = body.

    All operands are equal, so the bracketing cannot change the value even at
    the bounds, where * is not associative.  The tree is ceil(log2 n) deep
    and equal exponents are one shared node, so it is built in O(log n) steps.
    """
    return _power(n, {1: body})


def _power(k: int, powers: Dict[int, Formula]) -> Formula:
    # a module-level function: a nested one that calls itself would leave a
    # reference cycle on every call
    if k not in powers:
        powers[k] = Tensor(_power(k - k // 2, powers), _power(k // 2, powers))
    return powers[k]


# One definitional step per derived connective (see the module docstring).
_DEFINITIONS = {
    Top: lambda phi: Not(Bot()),
    Not: lambda phi: Imp(phi.body, Bot()),
    Or: lambda phi: And(Imp(Imp(phi.left, phi.right), phi.right),
                        Imp(Imp(phi.right, phi.left), phi.left)),
    Iff: lambda phi: And(Imp(phi.left, phi.right), Imp(phi.right, phi.left)),
    Power: lambda phi: _balanced_power(phi.body, phi.n),
    DArrow: lambda phi: Imp(Imp(phi.right, phi.left), phi.right),
    DDArrow: lambda phi: Or(And(DArrow(phi.left, phi.right), Not(Not(Inv(phi.right)))),
                            And(phi.right, Not(Not(Inv(phi.left))))),
    Delta: lambda phi: Not(DDArrow(phi.body, Top())),
    LukImp: lambda phi: Imp(One(), Tensor(phi.right, Inv(phi.left))),
}


# ---------------------------------------------------------------------------
# Free variables and substitution


def free_vars(phi: Formula) -> Set[str]:
    kind = type(phi)
    out: Set[str] = set()
    if kind is Atom:
        for t in phi.args:
            out |= term_vars(t)
        return out
    for kid in children(phi):
        out |= free_vars(kid)
    if kind in QUANTIFIER_CONNECTIVE:
        out.discard(phi.var)
    return out


def fresh_name(base: str, taken: Set[str]) -> str:
    """base, primed until it is not in taken."""
    name = base
    while name in taken:
        name += "'"
    return name


def substitute_term(t: Term, x: str, s: Term) -> Term:
    if isinstance(t, Var):
        return s if t.name == x else t
    return App(t.func, tuple(substitute_term(a, x, s) for a in t.args))


def substitute(phi: Formula, x: str, s: Term) -> Formula:
    """Capture-avoiding substitution of term s for free occurrences of x."""
    kind = type(phi)
    if kind is Atom:
        return Atom(phi.pred, tuple(substitute_term(a, x, s) for a in phi.args))
    if kind in QUANTIFIER_CONNECTIVE:
        if phi.var == x:
            return phi
        if phi.var in term_vars(s) and x in free_vars(phi.body):
            taken = free_vars(phi.body) | term_vars(s) | {x}
            fresh = fresh_name(phi.var, taken)
            body = substitute(phi.body, phi.var, Var(fresh))
            return kind(fresh, substitute(body, x, s))
        return kind(phi.var, substitute(phi.body, x, s))
    kids = []
    for kid in children(phi):
        kids.append(substitute(kid, x, s))
    return rebuild(phi, kids)


# ---------------------------------------------------------------------------
# Tokenizer

KEYWORDS = {"bot", "one", "top", "forall", "exists", "delta"}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<OP>==>|<->|->l|->|=>|\^-1|/\\|\\/|[*~().,^])
  | (?P<INT>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # OP | INT | IDENT | EOF
    text: str
    line: int
    column: int
    offset: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}",
                line, pos - line_start + 1, pos,
            )
        kind = m.lastgroup
        value = m.group()
        if kind == "WS":
            line += value.count("\n")
            if "\n" in value:
                line_start = m.start() + value.rfind("\n") + 1
        else:
            tokens.append(Token(kind, value, line, m.start() - line_start + 1, m.start()))
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1, pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence climbing over the binary connectives)


class _Parser:
    def __init__(self, tokens: List[Token], sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None, cls=FormulaSyntaxError):
        tok = tok or self.peek()
        raise cls(message, tok.line, tok.column, tok.offset)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            shown = tok.text or "end of input"
            self.error(f"expected {text!r}, found {shown!r}")
        return self.advance()

    # formula := ~* postfix (binop formula)*, by precedence climbing: a right
    # operand takes the connectives that bind tighter (or, right-associative,
    # as tight); a quantifier is a primary whose body extends right
    def formula(self, level: int = _LEVEL_IFF) -> Formula:
        nots = 0
        while self.peek().text == "~":
            self.advance()
            nots += 1
        node = self.postfix()
        for _ in range(nots):
            node = Not(node)
        while True:
            op = _BINARY_TOKENS.get(self.peek().text)
            if op is None or op[1] < level:
                return node
            self.advance()
            node = op[0](node, self.formula(op[1] + (op[1] not in _RIGHT_ASSOCIATIVE)))

    def quantified(self) -> Formula:
        """A quantifier prefix and its body, read in a loop so that a long
        prefix costs no stack."""
        prefix = []
        while self.peek().text in ("forall", "exists"):
            tok = self.advance()
            var_tok = self.peek()
            if var_tok.kind != "IDENT" or var_tok.text in KEYWORDS:
                self.error("expected a variable name after quantifier")
            if var_tok.text in self.sig.functions or var_tok.text in self.sig.predicates:
                self.error(
                    f"{var_tok.text!r} is a declared symbol and cannot be a bound variable",
                    var_tok, cls=UnknownSymbolError,
                )
            self.advance()
            self.expect(".")
            prefix.append((Forall if tok.text == "forall" else Exists, var_tok.text))
        body = self.formula()
        for node, var in reversed(prefix):
            body = node(var, body)
        return body

    def postfix(self) -> Formula:
        node = self.primary()
        while True:
            tok = self.peek()
            if tok.text == "^-1":
                self.advance()
                node = Inv(node)
            elif tok.text == "^":
                self.advance()
                num = self.peek()
                if num.kind != "INT":
                    self.error("expected an integer exponent after '^'")
                try:
                    n = int(num.text)
                except ValueError:  # past sys.get_int_max_str_digits()
                    self.error("power exponent has too many digits")
                if n < 1:
                    self.error("power exponent must be >= 1")
                self.advance()
                node = Power(node, n)
            else:
                return node

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            node = self.formula()
            self.expect(")")
            return node
        if tok.kind == "IDENT":
            if tok.text in _KEYWORD_CONSTANTS:
                self.advance()
                return _KEYWORD_CONSTANTS[tok.text]()
            if tok.text == "delta":
                self.advance()
                self.expect("(")
                body = self.formula()
                self.expect(")")
                return Delta(body)
            if tok.text in ("forall", "exists"):
                return self.quantified()
            return self.atom()
        shown = tok.text or "end of input"
        self.error(f"expected a formula, found {shown!r}")

    def atom(self) -> Formula:
        tok = self.advance()
        name = tok.text
        if name not in self.sig.predicates:
            self.error(f"unknown predicate {name!r}", tok, cls=UnknownSymbolError)
        arity = self.sig.predicates[name]
        if arity == 0:
            if self.peek().text == "(":
                self.error(f"nullary predicate {name!r} takes no argument list", tok, cls=ArityError)
            return Atom(name, ())
        return Atom(name, self.arguments(tok, "predicate", arity))

    def arguments(self, tok: Token, what: str, arity: int) -> Tuple[Term, ...]:
        """The parenthesized argument list of the symbol at tok, of arity >= 1."""
        self.expect("(")
        args = [self.term()]
        while self.peek().text == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        if len(args) != arity:
            self.error(f"{what} {tok.text!r} expects {arity} arguments, got {len(args)}",
                       tok, cls=ArityError)
        return tuple(args)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in KEYWORDS:
            shown = tok.text or "end of input"
            self.error(f"expected a term, found {shown!r}")
        self.advance()
        name = tok.text
        if name in self.sig.predicates:
            self.error(f"predicate {name!r} used as a term", tok, cls=UnknownSymbolError)
        if name in self.sig.functions:
            arity = self.sig.functions[name]
            return App(name, self.arguments(tok, "function", arity) if arity else ())
        return Var(name)


def parse(text: str, sig: Signature) -> Formula:
    """Parse one formula; raises a ParseError subclass with position info."""
    parser = _Parser(tokenize(text), sig)
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.error(f"unexpected trailing input {tok.text!r}")
    return phi


def parse_theory(text: str, sig: Signature) -> List[Formula]:
    """One sentence per line; blank lines and # comments are skipped."""
    out = []
    for lineno, line in content_lines(text):
        try:
            out.append(parse(line, sig))
        except ParseError as exc:
            raise type(exc)(f"theory line {lineno}: {exc.message}", lineno, exc.column, exc.offset) from None
    return out


# ---------------------------------------------------------------------------
# Pretty printer

def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(print_term(a) for a in t.args)})"


def _wrap(text: str, level: int, context: int) -> str:
    return f"({text})" if level < context else text


def _print(phi: Formula, context: int) -> str:
    kind = type(phi)
    if kind in BINARY_SYNTAX:
        token, level = BINARY_SYNTAX[kind]
        right = level in _RIGHT_ASSOCIATIVE  # the tighter side takes level + 1
        left_text = _print(phi.left, level + right)
        text = f"{left_text} {token} {_print(phi.right, level + (not right))}"
        return _wrap(text, level, context)
    if kind in _CONSTANT_KEYWORDS:
        return _CONSTANT_KEYWORDS[kind]
    if kind is Atom:
        if not phi.args:
            return phi.pred
        return f"{phi.pred}({', '.join(print_term(a) for a in phi.args)})"
    if kind is Delta:
        return f"delta({_print(phi.body, _LEVEL_QUANT)})"
    if kind in QUANTIFIER_CONNECTIVE:
        kw = "forall" if kind is Forall else "exists"
        text = f"{kw} {phi.var}. {_print(phi.body, _LEVEL_QUANT)}"
        return _wrap(text, _LEVEL_QUANT, context)
    if kind is Not:
        return _wrap(f"~{_print(phi.body, _LEVEL_NOT)}", _LEVEL_NOT, context)
    if kind is Inv:
        return _wrap(f"{_print(phi.body, _LEVEL_POSTFIX)}^-1", _LEVEL_POSTFIX, context)
    if kind is Power:
        return _wrap(f"{_print(phi.body, _LEVEL_POSTFIX)}^{phi.n}", _LEVEL_POSTFIX, context)
    raise UsageError(f"not a formula: {phi!r}")


def print_formula(phi: Formula) -> str:
    """Inverse of parse up to whitespace: parse(print_formula(phi)) == phi."""
    return _print(phi, _LEVEL_QUANT)
