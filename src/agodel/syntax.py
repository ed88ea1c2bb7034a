"""Signatures, terms and formulas, with a concrete text grammar.

Connectives
-----------
Core: bot, one, atoms, /\\ (meet), -> (residuated implication),
* (group product), ^-1 (inverse), forall, exists.

Derived (first-class AST nodes, expandable to core on demand):
top, \\/ , ~ (negation), <->, ^n (n-th power), => , ==> , delta(.),
->l (shifted implication).  The definitions are:

    phi^1        = phi                 phi^n = phi^(n-1) * phi
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
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

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


def parse_signature(text: str) -> Signature:
    """Line format: ``fn name/arity``, ``pred name/arity``, ``equality name``."""
    functions: Dict[str, int] = {}
    predicates: Dict[str, int] = {}
    equality = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
                equality = parts[1]
            else:
                raise UsageError(f"unrecognized declaration {line!r}")
        except (ValueError, UsageError) as exc:
            raise UsageError(f"signature line {lineno}: {exc}") from None
    return Signature(functions, predicates, equality)


def format_signature(sig: Signature) -> str:
    lines = [f"fn {n}/{a}" for n, a in sorted(sig.functions.items())]
    lines += [f"pred {n}/{a}" for n, a in sorted(sig.predicates.items())]
    if sig.equality:
        lines.append(f"equality {sig.equality}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: Tuple["Term", ...] = ()


Term = Union[Var, App]


def const(name: str) -> App:
    return App(name, ())


def term_vars(t: Term) -> Set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: Set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Atom:
    pred: str
    args: Tuple[Term, ...] = ()


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Tensor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Inv:
    body: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Power:
    body: "Formula"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"power exponent must be >= 1, got {self.n}")


@dataclass(frozen=True)
class DArrow:
    """The => connective: INF when left < right < INF, otherwise right."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class DDArrow:
    """The ==> connective: asserts strict order between the sides."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Delta:
    """Crispness projection: INF when the body is INF, otherwise ZERO."""

    body: "Formula"


@dataclass(frozen=True)
class LukImp:
    """The ->l connective: INF when left <= right, else right * left^-1."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


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
# The recursive traversals here and in semantics/solver collect children in
# plain loops: on Python 3.11 a comprehension adds a frame per level, which
# would halve the nesting depth that fits under the recursion limit.


def _no_children(phi):
    return ()


def _body(phi):
    return (phi.body,)


def _unchanged(phi, kids):
    return phi


def _retyped(phi, kids):
    return type(phi)(*kids)


def _rebuild_power(phi, kids):
    return Power(kids[0], phi.n)


def _rebuild_quantifier(phi, kids):
    return type(phi)(phi.var, kids[0])


# node type -> (children, rebuild).  Atoms are leaves: their arguments are terms.
_SHAPES = {
    **dict.fromkeys((Bot, One, Top, Atom), (_no_children, _unchanged)),
    **dict.fromkeys(BINARY_SYNTAX, (attrgetter("left", "right"), _retyped)),
    **dict.fromkeys((Inv, Not, Delta), (_body, _retyped)),
    Power: (_body, _rebuild_power),
    Forall: (_body, _rebuild_quantifier),
    Exists: (_body, _rebuild_quantifier),
}
# ``children`` is the checked form of CHILDREN; an evaluator that has already
# dispatched on the node type may index CHILDREN directly.
CHILDREN = {node: shape[0] for node, shape in _SHAPES.items()}
_REBUILD = {node: shape[1] for node, shape in _SHAPES.items()}


def children(phi: Formula) -> Tuple[Formula, ...]:
    """The immediate subformulas of phi, left to right."""
    try:
        return CHILDREN[type(phi)](phi)
    except KeyError:
        raise UsageError(f"not a formula: {phi!r}") from None


def rebuild(phi: Formula, kids: Sequence[Formula]) -> Formula:
    """phi with its immediate subformulas replaced by kids, in children order."""
    return _REBUILD[type(phi)](phi, kids)


def is_core(phi: Formula) -> bool:
    """True when no derived node occurs anywhere in the formula."""
    if type(phi) not in CORE_NODES:
        return False
    for kid in children(phi):
        if not is_core(kid):
            return False
    return True


def subformulas(phi: Formula):
    """Yield phi and all its subformulas, prefix order."""
    yield phi
    for kid in children(phi):
        yield from subformulas(kid)


def formula_depth(phi: Formula) -> int:
    """Connective nesting depth; atoms and constants are depth 0."""
    depth = 0
    for kid in children(phi):
        depth = max(depth, 1 + formula_depth(kid))
    return depth


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


# One definitional step per derived connective (see the module docstring).
_DEFINITIONS = {
    Top: lambda phi: Not(Bot()),
    Not: lambda phi: Imp(phi.body, Bot()),
    Or: lambda phi: And(Imp(Imp(phi.left, phi.right), phi.right),
                        Imp(Imp(phi.right, phi.left), phi.left)),
    Iff: lambda phi: And(Imp(phi.left, phi.right), Imp(phi.right, phi.left)),
    Power: lambda phi: (
        phi.body if phi.n == 1 else Tensor(Power(phi.body, phi.n - 1), phi.body)),
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


def is_sentence(phi: Formula) -> bool:
    return not free_vars(phi)


def _fresh(base: str, taken: Set[str]) -> str:
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
            fresh = _fresh(phi.var, taken)
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


@dataclass(frozen=True)
class Token:
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
# Parser (recursive descent over the precedence levels)


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

    # formula := quantified | binary(_LEVEL_IFF)
    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in ("forall", "exists"):
            return self.quantified()
        return self.binary(_LEVEL_IFF)

    def quantified(self) -> Formula:
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
        body = self.formula()
        node = Forall if tok.text == "forall" else Exists
        return node(var_tok.text, body)

    def binary(self, level: int) -> Formula:
        """Operands joined by the binary connectives of one precedence level."""
        tighter = partial(self.binary, level + 1) if level < _LEVEL_TENSOR else self.unary
        node = tighter()
        while True:
            op = _BINARY_TOKENS.get(self.peek().text)
            if op is None or op[1] != level:
                return node
            self.advance()
            if level in _RIGHT_ASSOCIATIVE:
                return op[0](node, self.binary(level))
            node = op[0](node, tighter())

    def unary(self) -> Formula:
        if self.peek().text == "~":
            self.advance()
            return Not(self.unary())
        return self.postfix()

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
                n = int(num.text)
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
        self.expect("(")
        args = [self.term()]
        while self.peek().text == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        if len(args) != arity:
            self.error(f"predicate {name!r} expects {arity} arguments, got {len(args)}", tok, cls=ArityError)
        return Atom(name, tuple(args))

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
            if arity == 0:
                return App(name, ())
            self.expect("(")
            args = [self.term()]
            while self.peek().text == ",":
                self.advance()
                args.append(self.term())
            self.expect(")")
            if len(args) != arity:
                self.error(f"function {name!r} expects {arity} arguments, got {len(args)}", tok, cls=ArityError)
            return App(name, tuple(args))
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
