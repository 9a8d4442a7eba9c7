"""Exact rational scalars, extended reals and symbolic -sqrt values.

Everything on the certification path computes exactly.  Q is gmpy2.mpq when
gmpy2 is installed and fractions.Fraction otherwise.  The exact kernels
do not compute with Q: they scale a rational vector to integers over one
common denominator (`scaled_ints`), work on Python ints and build Q results
at the end.  That holds for the simplex in `lp`, the elimination in `cones`,
and the dot products and linear combinations here: `qdot` is one integer dot
product over the lcm-scaled numerators of its two vectors, and `lincomb` one
integer combination per coordinate, each made one Q at the end.
`scaled_ints` is the one door from Q to integers: no other module reads a
numerator or a denominator.  It reads each entry's denominator and
numerator once.  On the `fractions` backend these already are Python ints,
as an int's are, so they pass through; gmpy2's are mpz, and `_python_ints`
turns them into ints in one step, the only line that depends on the backend.
Floats are rejected at the boundary: callers that have float data must
rationalize it explicitly and own the rounding decision.  In JSON a rational
is a [numerator, denominator] pair: `q_pair` and `jsonify` write them,
`q_from_pair` reads one.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from typing import Iterable, Sequence, Union

from .errors import ModelError, ParseError

# `_python_ints` makes a list of Q's numerators Python ints: gmpy2's are mpz,
# Fraction's already are ints.
try:  # pragma: no cover - exercised implicitly by the whole suite
    from gmpy2 import mpq as Q

    def _python_ints(values: list) -> list:
        return list(map(int, values))

except ImportError:  # pragma: no cover
    from fractions import Fraction as Q  # type: ignore[assignment]

    def _python_ints(values: list) -> list:
        return values

QLike = Union[int, str, tuple, list, "Q"]

ZERO = Q(0)
ONE = Q(1)

# the decimal exponent of a rational string, e.g. the "-3" of "1.5e-3"
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")

# str() of an int, and so every output format, stops at this many digits
_MAX_DIGITS = sys.int_info.default_max_str_digits
_TOO_LONG = 10**_MAX_DIGITS


def as_q(value: QLike) -> Q:
    """Coerce ints, strings, [num, den] pairs and rationals to Q. Floats are
    refused, and so is a string whose decimal exponent is too large to
    expand or whose value has a numerator or denominator too long to print.
    A value that already is a Q is returned as it is: Q is immutable, so
    rebuilding it would only cost time."""
    if type(value) is Q:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r}; rationalize explicitly")
    if isinstance(value, (tuple, list)):
        num, den = value
        if isinstance(num, float) or isinstance(den, float):
            raise TypeError(f"refusing to coerce float pair {value!r}")
        num, den = int(num), int(den)
        if den == 0:
            raise ParseError(f"zero denominator in {value!r}")
        return Q(num, den)
    if isinstance(value, str):
        _check_exponent(value)
        q = Q(value)
        if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
            raise ParseError(
                f"{value[:40]!r} has a numerator or denominator of more than "
                f"{_MAX_DIGITS} digits, which cannot be printed"
            )
        return q
    return Q(value)


def _check_exponent(text: str) -> None:
    """Refuse a decimal exponent of more than sys.int_info.default_max_str_digits
    in magnitude, the bound Python puts on the digits of an int literal:
    "1e99999999" would otherwise build a hundred-million-digit integer."""
    match = _EXPONENT.search(text)
    if match is None:
        return
    digits = match.group(1).replace("_", "").lstrip("0")
    if len(digits) > len(str(_MAX_DIGITS)) or int(digits or "0") > _MAX_DIGITS:
        raise ParseError(f"decimal exponent of {text[:40]!r} exceeds {_MAX_DIGITS} in magnitude")


def json_int(value, what: str) -> int:
    """An integer field of a JSON document: an int, never a float (which
    int() would truncate), a bool or a string."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, keys, what: str) -> dict:
    """An object of a JSON document that holds no key outside `keys`: a key
    the reader does not read is refused, listed, so a misspelled one is not
    silently ignored."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, not {type(value).__name__}")
    unknown = set(value) - keys
    if unknown:
        raise ModelError(f"unknown {what} keys: {sorted(unknown)}")
    return value


def q_pair(value) -> list:
    """Serialize a rational as a [numerator, denominator] pair of plain ints."""
    q = as_q(value)
    return [int(q.numerator), int(q.denominator)]


def jsonify(obj):
    """Recursive JSON form: rationals become [num, den] pairs."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, Q):
        return q_pair(obj)
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def q_from_pair(obj) -> Q:
    """Read a rational serialized as a [numerator, denominator] pair."""
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"expected a [num, den] pair, got {obj!r}")
    return as_q(obj)


def vec_q(values: Iterable[QLike]) -> tuple:
    return tuple(as_q(v) for v in values)


def scaled_ints(values) -> tuple:
    """(ints, k): the rationals (or ints) times k, the lcm of their
    denominators, so that ints / k are the values exactly.  Each entry's
    denominator and numerator are read once; the ints and k are Python
    ints."""
    dens = [v.denominator for v in values]
    k = math.lcm(*dens)
    nums = [v.numerator for v in values]
    if k == 1:
        return _python_ints(nums), 1
    return _python_ints([x * (k // d) for x, d in zip(nums, dens)]), k


def lincomb(coeffs: Sequence, vectors: Sequence, n: int) -> tuple:
    """sum_j coeffs_j * vectors_j, coordinate by coordinate, over n
    coordinates (the zero vector when there are no terms): one integer
    combination over the common denominators of the coefficients and of the
    vectors, and one Q per coordinate."""
    terms = list(zip(coeffs, vectors))
    if not terms:
        return (ZERO,) * n
    cs, kc = scaled_ints([c for c, _ in terms])
    flat, kv = scaled_ints([v[k] for _, v in terms for k in range(n)])
    den = kc * kv
    return tuple(
        Q(sum(map(operator.mul, cs, flat[k::n])), den) for k in range(n)
    )


def qdot(a: Sequence, b: Sequence) -> Q:
    """a'b as one integer dot product over the common denominators of a and
    of b, made one Q at the end."""
    if len(a) != len(b):
        raise ValueError(f"dot of length {len(a)} vs {len(b)}")
    xs, ka = scaled_ints(a)
    ys, kb = scaled_ints(b)
    return Q(sum(map(operator.mul, xs, ys)), ka * kb)


class _Infinity:
    """Signed infinity singleton, comparable with rationals and NegSqrt values."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("mosipcert-inf", self.sign))

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __float__(self):
        return math.inf if self.sign > 0 else -math.inf


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)


class NegSqrt:
    """The exact value -sqrt(radicand) for a rational radicand >= 0.

    Only comparisons against rationals, zero and other NegSqrt values are
    needed (feasibility and slack checks), and all of them reduce to rational
    comparisons by squaring.  Collapses to a plain rational when the radicand
    is a perfect square.
    """

    __slots__ = ("radicand",)

    def __new__(cls, radicand):
        r = as_q(radicand)
        if r < 0:
            raise ValueError(f"negative radicand {r}")
        exact = sqrt_exact(r)
        if exact is not None:
            return -exact
        obj = object.__new__(cls)
        obj.radicand = r
        return obj

    def __repr__(self):
        return f"-sqrt({self.radicand})"

    def __float__(self):
        return -math.sqrt(float(self.radicand))

    def __eq__(self, other):
        if isinstance(other, NegSqrt):
            return self.radicand == other.radicand
        if isinstance(other, _Infinity):
            return False
        # A non-collapsed NegSqrt is irrational, never equal to a rational.
        return False

    def __hash__(self):
        return hash(("mosipcert-negsqrt", self.radicand))

    def __lt__(self, other):
        if isinstance(other, NegSqrt):
            return self.radicand > other.radicand
        if isinstance(other, _Infinity):
            return other.sign > 0
        q = as_q(other)
        if q >= 0:
            return True  # strictly negative < nonnegative
        return self.radicand > q * q

    def __gt__(self, other):
        if isinstance(other, NegSqrt):
            return self.radicand < other.radicand
        if isinstance(other, _Infinity):
            return other.sign < 0
        q = as_q(other)
        if q >= 0:
            return False
        return self.radicand < q * q

    def __le__(self, other):
        return not self.__gt__(other)

    def __ge__(self, other):
        return not self.__lt__(other)

    def __neg__(self):
        raise TypeError("positive square roots are not modeled; compare against the negative")


def is_finite(value) -> bool:
    return not isinstance(value, _Infinity)


def sqrt_exact(q):
    """Exact rational sqrt of q, or None if irrational."""
    q = as_q(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    num, den = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Q(rn, rd)
    return None


def sqrt_lower_bound(q, bits: int = 40):
    """Largest convenient rational lb with lb <= sqrt(q); exact when sqrt(q) is rational."""
    q = as_q(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    exact = sqrt_exact(q)
    if exact is not None:
        return exact
    num, den = int(q.numerator), int(q.denominator)
    scale = 1 << bits
    s = math.isqrt(num * den * scale * scale)
    return Q(s, den * scale)


def float_to_q(x: float, max_den: int = 10**6):
    """Deliberate float -> rational conversion (for oracle-suggested points only)."""
    from fractions import Fraction

    return as_q(
        [Fraction(x).limit_denominator(max_den).numerator,
         Fraction(x).limit_denominator(max_den).denominator]
    )
