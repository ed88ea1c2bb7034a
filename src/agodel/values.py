"""Truth values over totally ordered abelian groups.

The carrier is {0} u G u {inf} for a group G written multiplicatively:
0 is absolute falsity, inf absolute truth, and the group part sits
strictly between them.  The extension of * to the bounds is

    inf * 0 = 0 * inf = 1   (the group identity)
    a * inf = inf * a = inf     and  a * 0 = 0 * a = 0   for a in G
    inf * inf = inf,  0 * 0 = 0
    0^-1 = inf,  inf^-1 = 0

Note this extension is deliberately not associative at the bounds
((0 * inf) * g = g while 0 * (inf * g) = 1); it is implemented exactly
as defined, not repaired.  Associativity holds inside G and the
property suite checks the 9-entry bound table verbatim.

Two exact backends are provided:

* ``rat``  — positive rationals under multiplication (the "standard"
  case: a subgroup of the positive reals, kept exact via Fraction).
* ``lex2`` — pairs of positive rationals under componentwise
  multiplication, ordered lexicographically.  This group is
  non-archimedean: (1,2)^n < (2,1) for every n.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import ResourceLimitError, UsageError

RatPayload = Fraction
Lex2Payload = Tuple[Fraction, Fraction]
Payload = Union[RatPayload, Lex2Payload]

# TruthValue strata, ordered: ZERO < ELEM(...) < INF
K_ZERO = 0
K_ELEM = 1
K_INF = 2

# Largest power tv_power computes, as n * backend.bits(payload), a lower
# bound on the bits of the result: twenty times the largest the test suite
# builds (10,000 by that bound, the lex witness of remark_lab(10000)).
MAX_POWER_BITS = 200_000


class GroupBackend:
    """Operation suite for one totally ordered abelian group.

    A backend provides ``identity()``, ``mul(a, b)``, ``inv(a)``,
    ``power(a, n)``, ``validate(a)`` (the canonical payload, or
    UsageError), ``parse(text)``, ``format(a)`` and ``bits(a)``: a lower
    bound on log2 of the numerators and denominators, so that
    ``n * bits(a)`` bounds the size of ``power(a, n)`` from below.
    Python's order on payloads is the group order of both backends
    (tuples compare lexicographically).
    """

    name: str = "?"

    def __repr__(self) -> str:
        return f"<backend {self.name}>"


def _positive_fraction(x) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise UsageError(f"group elements must be strictly positive, got {f}")
    return f


def _format_fraction(f: Fraction) -> str:
    try:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ResourceLimitError("value has too many digits to print") from None


def _fraction_bits(f: Fraction) -> int:
    return f.numerator.bit_length() + f.denominator.bit_length() - 2


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    # Fraction would build 10**exponent for a decimal such as 1e30000000
    exponent = text.upper().partition("E")[2]
    try:
        if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
            raise ValueError("decimal exponent exceeds the int-to-str digit limit")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


class RatBackend(GroupBackend):
    """Positive rationals under multiplication; Fraction keeps lowest terms."""

    name = "rat"

    def identity(self) -> Fraction:
        return Fraction(1)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def power(self, a, n):
        return a ** n

    def validate(self, a):
        return _positive_fraction(a)

    def parse(self, text):
        return self.validate(_parse_fraction(text))

    def format(self, a):
        return _format_fraction(a)

    def bits(self, a):
        return _fraction_bits(a)


class Lex2Backend(GroupBackend):
    """Pairs of positive rationals, componentwise product, lexicographic order."""

    name = "lex2"

    def identity(self):
        return (Fraction(1), Fraction(1))

    def mul(self, a, b):
        return (a[0] * b[0], a[1] * b[1])

    def inv(self, a):
        return (1 / a[0], 1 / a[1])

    def power(self, a, n):
        return (a[0] ** n, a[1] ** n)

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise UsageError(f"lex2 elements are pairs, got {a!r}")
        return (_positive_fraction(a[0]), _positive_fraction(a[1]))

    def parse(self, text):
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise UsageError(f"bad lex2 value {text!r}: expected (p/q, r/s)")
        parts = t[1:-1].split(",")
        if len(parts) != 2:
            raise UsageError(f"bad lex2 value {text!r}: expected two components")
        return self.validate((_parse_fraction(parts[0]), _parse_fraction(parts[1])))

    def format(self, a):
        return f"({_format_fraction(a[0])}, {_format_fraction(a[1])})"

    def bits(self, a):
        return _fraction_bits(a[0]) + _fraction_bits(a[1])


RAT = RatBackend()
LEX2 = Lex2Backend()
BACKENDS = {"rat": RAT, "lex2": LEX2}


def backend_by_name(name: str) -> GroupBackend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise UsageError(f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}") from None


@dataclass(frozen=True, slots=True)
class TruthValue:
    """One element of {0} u G u {inf}.

    ``kind`` is the stratum (K_ZERO / K_ELEM / K_INF); ``payload`` and
    ``backend`` are set exactly when kind == K_ELEM.
    """

    kind: int
    payload: Optional[Payload] = field(default=None)
    backend: Optional[GroupBackend] = field(default=None)
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == K_ELEM:
            if self.backend is None:
                raise UsageError("ELEM truth value needs a backend")
            object.__setattr__(self, "payload", self.backend.validate(self.payload))
        elif self.payload is not None or self.backend is not None:
            raise UsageError("only ELEM truth values carry a payload")

    def __hash__(self) -> int:
        # kept on first use: rank tables and value sorts hash the same few
        # values over and over, and a Fraction's hash takes a modular inverse.
        # Python hashes rationals modulo 2^61 - 1, so 2^k and 2^(k+61) would
        # collide; the payload's size, which the value determines, tells them
        # apart.
        got = self._hash
        if got is None:
            payload = self.payload
            got = hash((self.kind, payload) if payload is None
                       else (self.kind, payload, self.backend.bits(payload)))
            object.__setattr__(self, "_hash", got)
        return got

    @property
    def is_zero(self) -> bool:
        return self.kind == K_ZERO

    @property
    def is_elem(self) -> bool:
        return self.kind == K_ELEM

    @property
    def is_inf(self) -> bool:
        return self.kind == K_INF

    def __repr__(self) -> str:
        return f"TruthValue({format_truth_value(self)!r})"


ZERO = TruthValue(K_ZERO)
INF = TruthValue(K_INF)


_ONES = {}  # backend -> its identity as a truth value


def one(backend: GroupBackend = RAT) -> TruthValue:
    """The group identity of backend, one interned value per backend."""
    got = _ONES.get(backend)
    if got is None:
        got = _ONES.setdefault(backend, TruthValue(K_ELEM, backend.identity(), backend))
    return got


def rat(p, q=1) -> TruthValue:
    """Shorthand for a rat-backend element p/q."""
    return TruthValue(K_ELEM, Fraction(p, q), RAT)


def lex2(a, b) -> TruthValue:
    """Shorthand for a lex2-backend element (a, b)."""
    return TruthValue(K_ELEM, (Fraction(a), Fraction(b)), LEX2)


def _common_backend(a: TruthValue, b: TruthValue) -> Optional[GroupBackend]:
    if a.kind == K_ELEM and b.kind == K_ELEM and a.backend is not b.backend:
        raise UsageError(
            f"backend mismatch: {a.backend.name} vs {b.backend.name}"
        )
    if a.kind == K_ELEM:
        return a.backend
    if b.kind == K_ELEM:
        return b.backend
    return None


def tv_compare(a: TruthValue, b: TruthValue) -> int:
    """Total order on the carrier: ZERO < every ELEM < INF."""
    _common_backend(a, b)
    if a.kind != b.kind:
        return (a.kind > b.kind) - (a.kind < b.kind)
    if a.kind == K_ELEM:
        return (a.payload > b.payload) - (a.payload < b.payload)
    return 0


def order_key(tv: TruthValue):
    """Sort key giving the order of tv_compare on values of one backend."""
    return (tv.kind, tv.payload) if tv.kind == K_ELEM else (tv.kind,)


def tv_min(a: TruthValue, b: TruthValue) -> TruthValue:
    return a if tv_compare(a, b) <= 0 else b


def tv_max(a: TruthValue, b: TruthValue) -> TruthValue:
    return a if tv_compare(a, b) >= 0 else b


def tv_mul(a: TruthValue, b: TruthValue, backend: Optional[GroupBackend] = None) -> TruthValue:
    """Product on the carrier, bound cases exactly per the extension table.

    ``backend`` names the ambient group; it is needed only to type the
    identity produced by inf * 0 when neither argument is a group element
    (defaults to rat).  ELEM arguments must agree with it.
    """
    common = _common_backend(a, b)
    if backend is not None and common is not None and backend is not common:
        raise UsageError(f"backend mismatch: {common.name} vs {backend.name}")
    backend = common or backend or RAT
    if a.kind == K_ELEM and b.kind == K_ELEM:
        return TruthValue(K_ELEM, backend.mul(a.payload, b.payload), backend)
    if {a.kind, b.kind} == {K_ZERO, K_INF}:
        # inf * 0 = 0 * inf = the group identity
        return one(backend)
    if a.kind == K_ZERO or b.kind == K_ZERO:
        return ZERO
    return INF


def tv_inv(a: TruthValue) -> TruthValue:
    """Inverse: swaps the bounds, group inverse inside G."""
    if a.kind == K_ZERO:
        return INF
    if a.kind == K_INF:
        return ZERO
    return TruthValue(K_ELEM, a.backend.inv(a.payload), a.backend)


def tv_power(a: TruthValue, n: int) -> TruthValue:
    """n-th power, n >= 1.  Equals the n-fold product for every stratum.

    Raises ResourceLimitError when the result would exceed MAX_POWER_BITS.
    """
    if n < 1:
        raise UsageError(f"power exponent must be >= 1, got {n}")
    if a.kind != K_ELEM:
        return a
    if n * a.backend.bits(a.payload) > MAX_POWER_BITS:
        raise ResourceLimitError(f"the power ^{n} would exceed {MAX_POWER_BITS} bits")
    return TruthValue(K_ELEM, a.backend.power(a.payload, n), a.backend)


def tv_resid(a: TruthValue, b: TruthValue) -> TruthValue:
    """Residuated implication: INF when a <= b, otherwise b."""
    return INF if tv_compare(a, b) <= 0 else b


def format_truth_value(tv: TruthValue) -> str:
    """Textual syntax shared by all file formats: 0, inf, p/q, (p/q, r/s)."""
    if tv.kind == K_ZERO:
        return "0"
    if tv.kind == K_INF:
        return "inf"
    return tv.backend.format(tv.payload)


def parse_truth_value(text: str, backend: GroupBackend) -> TruthValue:
    t = text.strip()
    if t == "0":
        return ZERO
    if t == "inf":
        return INF
    return TruthValue(K_ELEM, backend.parse(t), backend)
