"""Exact Gaussian-rational scalars used for all Holant arithmetic.

A value is re + im*i with both parts arbitrary-precision ``Fraction``s.
Real values keep a fast path through every arithmetic operation, so purely
rational instances pay almost nothing for the complex support.  Irrational
model parameters (e.g. tanh(beta)) must be supplied as rational approximants
at whatever precision the caller chooses.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction

from .errors import InvalidArgumentError

_ZERO_F = Fraction(0)


class GaussianRational:
    """An exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=_ZERO_F):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def real(self):
        return self.re

    def as_fraction(self):
        """Return the value as a Fraction; error if the imaginary part is nonzero."""
        if self.im:
            raise InvalidArgumentError(f"value {self} is not real")
        return self.re

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero value")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        if not self.im:
            return GaussianRational(self.re ** k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __abs__(self):
        if self.im:
            raise InvalidArgumentError("no exact absolute value for non-real values")
        return GaussianRational(abs(self.re))

    # -- equality / ordering --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __lt__(self, other):
        other = _coerce(other)
        if self.im or other.im:
            raise InvalidArgumentError("no ordering on non-real values")
        return self.re < other.re

    def __le__(self, other):
        other = _coerce(other)
        if self.im or other.im:
            raise InvalidArgumentError("no ordering on non-real values")
        return self.re <= other.re

    # -- formatting -----------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_value(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


def as_value(x) -> GaussianRational:
    """Coerce an int, Fraction, numeric string, or value to a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return parse_value(x)
    raise InvalidArgumentError(f"cannot interpret {x!r} as an exact value")


_RAT = r"-?\d+(?:/\d+)?"
_VALUE_RE = _re.compile(rf"^({_RAT})(?:(?:\s*([+-])\s*|([+-]))(\d+(?:/\d+)?)i)?$")
_LOG10_2 = 0.30103  # log10(2), rounded up


# CPython refuses int <-> str conversions past sys.get_int_max_str_digits()
# digits (4,300 by default).  An exact value can be longer, so the two
# conversions below split a long number in halves until each part fits.

def _int_of_digits(digits: str) -> int:
    """int(digits) for an unsigned decimal digit string of any length."""
    limit = sys.get_int_max_str_digits()
    if not limit or len(digits) <= limit:
        return int(digits)
    k = len(digits) // 2
    return _int_of_digits(digits[:-k]) * 10 ** k + _int_of_digits(digits[-k:])


def _digits_of_int(n: int) -> str:
    """str(n) for an int of any length."""
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() * _LOG10_2 < limit - 1:
        return str(n)
    if n < 0:
        return "-" + _digits_of_int(-n)
    k = int(n.bit_length() * _LOG10_2) // 2
    high, low = divmod(n, 10 ** k)
    return _digits_of_int(high) + _digits_of_int(low).zfill(k)


def _parse_rational(text: str) -> Fraction:
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    num, _, den = digits.partition("/")
    value = Fraction(_int_of_digits(num), _int_of_digits(den) if den else 1)
    return -value if sign else value


def excerpt(text: str, limit: int = 40) -> str:
    """repr(text), cut to its first ``limit`` characters when longer."""
    return repr(text) if len(text) <= limit else f"{text[:limit]!r}... ({len(text)} characters)"


# Fraction's string forms: a sign, then a/b or a decimal with an exponent;
# underscores may group digits, and whitespace may surround the number
_FRACTION_RE = _re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)|"
                           r"(?:\.(\d*|\d+(?:_\d+)*))?(?:E([-+]?\d+(?:_\d+)*))?)\s*", _re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` with numbers of any length: the same forms, and
    ValueError or ZeroDivisionError where ``Fraction`` raises them, with a
    message that quotes at most a prefix of the literal."""
    m = _FRACTION_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational literal {excerpt(text)}")
    sign, num, den, decimal, exp = ((g or "").replace("_", "") for g in m.groups())
    num = _int_of_digits(num + decimal or "0")
    den = _int_of_digits(den) if den else 10 ** len(decimal)
    if not den:
        raise ZeroDivisionError(f"zero denominator in {excerpt(text)}")
    exp = int(exp or 0)
    value = Fraction(num * 10 ** max(exp, 0), den * 10 ** max(-exp, 0))
    return -value if sign == "-" else value


def _format_rational(x: Fraction) -> str:
    """str(x), at any length."""
    if x.denominator == 1:
        return _digits_of_int(x.numerator)
    return f"{_digits_of_int(x.numerator)}/{_digits_of_int(x.denominator)}"


def parse_value(token: str) -> GaussianRational:
    """Parse ``a/b`` or ``a/b+c/di`` (also ``-``, integers, optional space
    before the sign), with numbers of any length."""
    m = _VALUE_RE.match(token.strip())
    if m is None:
        raise InvalidArgumentError(f"malformed value {excerpt(token)}")
    try:
        re_part = _parse_rational(m.group(1))
        if m.group(4) is None:
            return GaussianRational(re_part)
        sign = -1 if (m.group(2) or m.group(3)) == "-" else 1
        return GaussianRational(re_part, sign * _parse_rational(m.group(4)))
    except ZeroDivisionError:
        raise InvalidArgumentError(f"zero denominator in value {excerpt(token)}") from None


def format_value(v) -> str:
    """Canonical token form of a value, an int or a Fraction, with numbers of
    any length: no spaces, real part always present when imaginary is."""
    v = _coerce(v)
    re_s = _format_rational(v.re)
    if not v.im:
        return re_s
    if v.im < 0:
        return f"{re_s}-{_format_rational(-v.im)}i"
    return f"{re_s}+{_format_rational(v.im)}i"
