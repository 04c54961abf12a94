"""Exact arithmetic: rationals, dense polynomials and truncated series.

Everything in this module is exact.  Rationals are ``fractions.Fraction``;
a polynomial is a dense tuple of integer numerators over one common
denominator (degrees in this package stay below ~200, so sparsity buys
nothing).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .combinatorics import binomial, multinomial  # noqa: F401


# ---------------------------------------------------------------------------
# combinatorial primitives (the integer ones live in .combinatorics)
# ---------------------------------------------------------------------------

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

# a shorter factor below this length multiplies schoolbook: packing pays
# off from about 10 terms with coefficients of up to 128 bits and from
# about 20 with 300 bits or more (CPython 3.11)
_SCHOOLBOOK_LENGTH = 16
# the primes of the coprimality test in Polynomial.gcd.  A Mersenne prime
# 2^q - 1 divides 2^(2n) - 1, a factor of the tangent numbers, whenever q
# divides 2n, so 2^61 - 1 fails on the zigzag data at n = 121..123;
# 2^62 - 57 divides no 2^k - 1 for k < 400
_PRIMES = ((1 << 61) - 1, (1 << 62) - 57)


class Polynomial:
    """Dense univariate polynomial over the rationals, lowest degree first.

    Stored as integer numerators ``num`` over one positive denominator
    ``den``, in canonical form: no trailing zero numerator, and
    ``gcd(den, *num) == 1``; the zero polynomial is ``((), 1)``.  So equal
    polynomials have equal ``(num, den)``.  ``coeffs`` is the read-only
    ``Fraction`` view.  Instances are immutable and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):  # noqa: D107
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            num, den = cs, 1
        else:
            fs = [Fraction(c) for c in cs]
            den = math.lcm(*(f.denominator for f in fs))
            num = [f.numerator * (den // f.denominator) for f in fs]
        _canonical(self, num, den)

    @classmethod
    def from_numerators(cls, num: Iterable[int], den: int = 1) -> "Polynomial":
        """The polynomial sum num[i]/den X^i, for integers num and den != 0."""
        return _canonical(object.__new__(cls), list(num), den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basics ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        return _add(self, _as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "Polynomial":
        return _add(self, _as_poly(other), -1)

    def __rsub__(self, other) -> "Polynomial":
        return _add(_as_poly(other), self, -1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial.from_numerators(
                _mul_vectors(self.num, other.num), self.den * other.den)
        if isinstance(other, int):
            return Polynomial.from_numerators(
                [c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return Polynomial.from_numerators(
                [c * p for c in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        return self * (1 / Fraction(scalar))

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial.from_numerators(
            [i * c for i, c in enumerate(self.num) if i], self.den)

    def __call__(self, x) -> Fraction:
        """The value at a rational x, by Horner's rule on the numerators."""
        acc = 0
        for c in reversed(self.num):
            acc = acc * x + c
        return Fraction(acc, self.den)

    def compose_neg(self) -> "Polynomial":
        """p(-X)."""
        return _raw(tuple(-c if i % 2 else c for i, c in enumerate(self.num)),
                    self.den)

    # -- euclidean structure ----------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # m A = Q B + R with A = self.num, B = other.num, so
        # self = (Q other.den / (m self.den)) other + R / (m self.den)
        quot, rem, m = _pseudo_divmod(self.num, other.num)
        return (Polynomial.from_numerators([q * other.den for q in quot],
                                           m * self.den),
                Polynomial.from_numerators(rem, m * self.den))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic-free gcd: returns the primitive, positive-leading gcd.

        The common power of X comes out first.  When the rest is coprime
        modulo one of two large primes it is coprime; otherwise a primitive
        pseudo-remainder sequence on the integer numerators finds it.
        """
        a, b = _primitive(self.num), _primitive(other.num)
        if a and b:
            low_a = next(i for i, c in enumerate(a) if c)
            low_b = next(i for i, c in enumerate(b) if c)
            a, b = a[low_a:], b[low_b:]
            if any(_coprime_modulo(a, b, p) for p in _PRIMES):
                a, b = [1], []
            elif len(a) < len(b):
                a, b = b, a
            while b:
                a, b = b, _primitive(_pseudo_divmod(a, b)[1])
            a = [0] * min(low_a, low_b) + a
        else:
            a = a or b
        if a and a[-1] < 0:
            a = [-c for c in a]
        return _raw(tuple(a), 1)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficients as rational strings, index = degree."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Polynomial":
        return cls(parse_rational(str(c)) for c in data)

    def pretty(self) -> str:
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
                term = f"{mag}·X" if abs(c) != 1 else "X"
            else:
                term = f"{mag}·X^{i}" if abs(c) != 1 else f"X^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _raw(num: tuple[int, ...], den: int) -> Polynomial:
    """A Polynomial from numerators already in canonical form."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)
    return p


def _canonical(p: Polynomial, num: list[int], den: int) -> Polynomial:
    """Fill p with num/den in canonical form; num is consumed."""
    if not den:
        raise ZeroDivisionError("polynomial with zero denominator")
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    else:
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    object.__setattr__(p, "num", tuple(num))
    object.__setattr__(p, "den", den)
    return p


def _add(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """a + sign * b over the lcm of the denominators."""
    x, y = a.num, b.num
    if a.den == b.den:
        den = a.den
    else:
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        x = [c * sa for c in x]
        y = [c * sb for c in y]
    if len(x) < len(y):
        out = [c * sign for c in y]
        for i, c in enumerate(x):
            out[i] += c
    else:
        out = list(x)
        for i, c in enumerate(y):
            out[i] += sign * c
    return Polynomial.from_numerators(out, den)


def _mul_vectors(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient vectors.

    Kronecker substitution: each vector becomes one integer, its digits
    the coefficients in base 2^k, where k bounds every product coefficient
    with room for a sign; one integer product (Karatsuba in CPython) then
    holds the product's coefficients as digits.  Digits are offset by
    2^(k-1) in byte form, so packing and unpacking are single
    ``to_bytes``/``from_bytes`` passes.
    """
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    if len(b) < _SCHOOLBOOK_LENGTH:
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a):
                    out[i + j] += x * y
        return out
    bits = (max(max(a), -min(a)).bit_length()
            + max(max(b), -min(b)).bit_length()
            + len(b).bit_length() + 1)
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    length = len(a) + len(b) - 1
    packed_a = _pack(a, width, half)
    packed_b = packed_a if b is a else _pack(b, width, half)
    digits = (packed_a * packed_b + _offset(length, width)).to_bytes(
        width * length, "little")
    return [int.from_bytes(digits[i:i + width], "little") - half
            for i in range(0, width * length, width)]


def _offset(length: int, width: int) -> int:
    """sum of 2^(8 width - 1) 2^(8 width i) for i < length."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")


def _pack(v: Sequence[int], width: int, half: int) -> int:
    """sum v[i] 2^(8 width i), for |v[i]| < half = 2^(8 width - 1)."""
    return int.from_bytes(
        b"".join((c + half).to_bytes(width, "little") for c in v),
        "little") - _offset(len(v), width)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]
                   ) -> tuple[list[int], list[int], int]:
    """Integer (Q, R, m) with m a = Q b + R, deg R < deg b and m != 0.

    Each step scales by the leading coefficient of b divided by its gcd
    with the term it removes, so exact divisions scale by nothing.
    """
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * max(0, len(rem) - db)
    m = 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        if not c:
            continue
        g = math.gcd(c, lead)
        scale, q = lead // g, c // g
        if scale != 1:
            rem = [x * scale for x in rem]
            quot = [x * scale for x in quot]
            m *= scale
        quot[i - db] = q
        base = i - db
        for j in range(db):
            rem[base + j] -= q * b[j]
    return quot, rem, m


def _coprime_modulo(a: list[int], b: list[int], p: int) -> bool:
    """True when a and b, reduced modulo the prime p, have a constant gcd
    and p does not divide the leading coefficient of a or of b.

    Then a and b are coprime over the rationals: their gcd g divides that
    leading coefficient, so g keeps its degree modulo p and divides the
    gcd there.
    """
    if not a[-1] % p:
        a, b = b, a
        if not a[-1] % p:
            return False
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a.pop() * inverse % p
            base = len(a) - len(b) + 1
            for j in range(len(b) - 1):
                a[base + j] = (a[base + j] - q * b[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _primitive(v: Sequence[int]) -> list[int]:
    """v divided by the gcd of its entries, trailing zeros dropped."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    g = math.gcd(*v)
    return [c // g for c in v] if g > 1 else v


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    raise TypeError(f"cannot coerce {type(value).__name__} to Polynomial")


ZERO = Polynomial()
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def monomial(degree: int) -> Polynomial:
    return Polynomial([0] * degree + [1])


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """A name with no arithmetic: no library code builds one.

    ``bench/tracer.py`` patches this class to count its constructions
    (``algebra.rf_new``, 0 on every workload); delete it together with
    that metric (ROADMAP item 6).
    """


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

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"

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

def laguerre(n: int) -> Polynomial:
    """Laguerre polynomial L_n = L_n^(0)."""
    return generalized_laguerre(n, 0)


def generalized_laguerre(n: int, alpha: int) -> Polynomial:
    """Generalized Laguerre polynomial, for an integer alpha, from the
    closed form L_n^(alpha) = sum_k (-1)^k C(n+alpha, n-k) X^k / k!.

    Built over the denominator n!, where the X^k numerator is
    (-1)^k C(n+alpha, n-k) n!/k!; ``binomial`` covers n + alpha < 0.
    """
    if n < 0:
        raise ValueError("Laguerre index must be nonnegative")
    if type(alpha) is not int:
        raise ValueError(f"Laguerre parameter must be an integer, got {alpha!r}")
    return Polynomial.from_numerators(
        [(-1) ** k * binomial(n + alpha, n - k) * math.perm(n, n - k)
         for k in range(n + 1)], math.factorial(n))
