"""Exact arithmetic: rationals, dense polynomials, rational functions, series.

Everything in this module is exact.  Rationals are ``fractions.Fraction``
throughout; polynomials carry dense coefficient tuples (degrees in this
package stay below ~60, so sparsity buys nothing).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


# ---------------------------------------------------------------------------
# combinatorial primitives
# ---------------------------------------------------------------------------

def factorial(n: int) -> int:
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, generalized to any integer upper argument.

    ``k < 0`` gives 0, and for ``0 <= n < k`` the falling factorial crosses
    zero, so the usual "lower index greater than the upper one" convention
    comes out automatically.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    num = 1
    for j in range(k):
        num *= n - j
    return num // math.factorial(k)


def multinomial(parts: Iterable[int]) -> int:
    """Multinomial coefficient (n1+...+nr)! / (n1! ... nr!)."""
    total = 0
    denom = 1
    for p in parts:
        if p < 0:
            raise ValueError("multinomial parts must be nonnegative")
        total += p
        denom *= math.factorial(p)
    return math.factorial(total) // denom


def pochhammer(z, n: int) -> Fraction:
    """Rising factorial z(z+1)...(z+n-1), with (z)_0 = 1.

    Negative lengths follow the reciprocal convention
    (z)_{-k} = 1 / ((z-k)(z-k+1)...(z-1)), which is what the closed-form
    Laguerre moments below require.
    """
    z = Fraction(z)
    if n >= 0:
        out = Fraction(1)
        for j in range(n):
            out *= z + j
        return out
    return 1 / pochhammer(z + n, -n)


# ---------------------------------------------------------------------------
# rational serialization helpers
# ---------------------------------------------------------------------------

def format_rational(q) -> str:
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal: {text!r}") from exc


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial over Fraction, lowest degree first.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial is the empty tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # noqa: D107
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        return self * (1 / Fraction(scalar))

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def antiderivative(self, constant=0) -> "Polynomial":
        """Antiderivative with the given constant term (the caller fixes it)."""
        out = [Fraction(constant)]
        out.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return Polynomial(out)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_neg(self) -> "Polynomial":
        """p(-X)."""
        return Polynomial(
            -c if i % 2 else c for i, c in enumerate(self.coeffs)
        )

    # -- euclidean structure ----------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lead
            quot[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return Polynomial(quot), Polynomial(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic-free gcd: returns the primitive, positive-leading gcd."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1].content_normalized()
        if a.is_zero():
            return a
        return a.content_normalized()

    def content(self) -> Fraction:
        """The positive rational c with self = c * (primitive integer poly)."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def content_normalized(self) -> "Polynomial":
        """Divide out the content and make the leading coefficient positive.

        This is the canonical representative used whenever two polynomials
        are compared "up to a constant factor".
        """
        if self.is_zero():
            return self
        c = self.content()
        if self.leading() < 0:
            c = -c
        return self * (1 / c)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficients as rational strings, index = degree."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Polynomial":
        return cls(parse_rational(str(c)) for c in data)

    def pretty(self, var: str = "X") -> str:
        """Human form, highest degree first: ``1/2·X^3 + 11/2·X^2 + 13·X + 5``."""
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if i == 0:
                term = mag
            elif i == 1:
                term = f"{mag}·{var}" if abs(c) != 1 else var
            else:
                term = f"{mag}·{var}^{i}" if abs(c) != 1 else f"{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    raise TypeError(f"cannot coerce {type(value).__name__} to Polynomial")


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def monomial(degree: int, coeff=1) -> Polynomial:
    return Polynomial([0] * degree + [coeff])


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                num = num * (1 / lead)
                den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self!r}")
        return self.num

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Polynomial, int, Fraction)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rf(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )


def _as_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(value)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Power series known exactly through X^order (order+1 coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if i > self.order:
            raise IndexError(f"series only known through order {self.order}")
        return self.coeffs[i]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            self.coeffs[i] + other.coeffs[i] for i in range(n + 1)
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            self.coeffs[i] - other.coeffs[i] for i in range(n + 1)
        )

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(c * other for c in self.coeffs)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the truncation order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            (i + 1) * self.coeffs[i + 1] for i in range(self.order)
        )


def poly_to_series(p: Polynomial, order: int) -> TruncatedSeries:
    return TruncatedSeries(p.coefficient(i) for i in range(order + 1))


def exp_series(c, order: int) -> TruncatedSeries:
    """MacLaurin prefix of exp(c*X)."""
    c = Fraction(c)
    return TruncatedSeries(c**i / math.factorial(i) for i in range(order + 1))


def bessel_i_series(m: int, k, order: int) -> TruncatedSeries:
    """Prefix of the modified Bessel function I_m(k*X).

    The X^(m+2s) coefficient is k^(m+2s) / (2^(m+2s) s! (m+s)!).
    """
    if m < 0:
        raise ValueError("Bessel index must be nonnegative")
    k = Fraction(k)
    out = [Fraction(0)] * (order + 1)
    s = 0
    while m + 2 * s <= order:
        e = m + 2 * s
        out[e] = k**e / (2**e * math.factorial(s) * math.factorial(m + s))
        s += 1
    return TruncatedSeries(out)


def series_from_counters(values: Sequence) -> TruncatedSeries:
    """Exponential generating series of a counter sequence: sum v_i X^i / i!."""
    return TruncatedSeries(
        Fraction(v) / math.factorial(i) for i, v in enumerate(values)
    )


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

_laguerre_lock = threading.Lock()
_laguerre_cache: list[Polynomial] = [ONE]


def laguerre(n: int) -> Polynomial:
    """Laguerre polynomial L_n.

    Built from the Sheffer-sequence recurrence L_0 = 1,
    L_j' = L_{j-1}' - L_{j-1} with L_j(0) = 1; the antiderivative constant 0
    keeps the value at the origin equal to 1 automatically.
    """
    if n < 0:
        raise ValueError("Laguerre index must be nonnegative")
    with _laguerre_lock:
        while len(_laguerre_cache) <= n:
            prev = _laguerre_cache[-1]
            _laguerre_cache.append(prev - prev.antiderivative(0))
        return _laguerre_cache[n]


def generalized_laguerre(n: int, alpha: int) -> Polynomial:
    """Generalized Laguerre polynomial L_n^(alpha) by the three-term recurrence

    (n+1) L_{n+1} = (2n+1+alpha-X) L_n - (n+alpha) L_{n-1}.
    """
    if n < 0:
        raise ValueError("Laguerre index must be nonnegative")
    prev, cur = ONE, Polynomial((1 + alpha, -1))
    if n == 0:
        return prev
    for j in range(1, n):
        nxt = (Polynomial((2 * j + 1 + alpha, -1)) * cur - (j + alpha) * prev) / (j + 1)
        prev, cur = cur, nxt
    return cur
