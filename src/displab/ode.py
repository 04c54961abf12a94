"""Second-order ODEs with polynomial coefficients and their constructions.

The central construction: any degree-n polynomial P decomposes uniquely
against the basis X^i d^i L_n(X), with coefficients read off one closed
form, and Horner's rule in the Euler operator theta = X d turns them into
polynomials Q, R with P = Q L_n + R L_n'.  Repeated differentiation inside
the rank-2 module spanned by (L_n, L_n'), using
X L_n'' = -n L_n + (X - 1) L_n', expresses P, P', P'' in module
coordinates.  Every denominator there is a power of X, so a coordinate
pair is carried as two polynomials (a, b) over X^k and no rational
function is ever normalized.  Eliminating L_n, L_n' by 2x2 minors
produces an ODE U Y'' + V Y' + W Y = 0 satisfied by P.  Every equation
family here, the zigzag, two-row and Catalan ones alike, is this
elimination at reflected argument; the paper's printed closed forms of
the two-row equations are checked against it in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import Polynomial, TruncatedSeries, X, ZERO


# ---------------------------------------------------------------------------
# the ODE value type
# ---------------------------------------------------------------------------

class Ode2:
    """U(X) Y'' + V(X) Y' + W(X) Y = 0, stored in canonical form.

    Normalization divides out the common polynomial gcd and the joint
    rational content, then fixes the sign so that the first nonzero of
    (U, V, W) has a positive leading coefficient.  Equality of Ode2 values
    is therefore equality "up to a nonzero rational (or polynomial common)
    factor" of the raw triples.
    """

    __slots__ = ("u", "v", "w")

    def __init__(self, u: Polynomial, v: Polynomial, w: Polynomial):
        if u.is_zero() and v.is_zero() and w.is_zero():
            raise ValueError("U, V, W cannot all be zero")
        g = u.gcd(v).gcd(w)
        if g.degree > 0:
            u = u.divmod(g)[0]
            v = v.divmod(g)[0]
            w = w.divmod(g)[0]
        # the joint content is gcd(numerators) / lcm(denominators)
        top = math.gcd(*u.num, *v.num, *w.num)
        den = math.lcm(u.den, v.den, w.den)
        first = next(p for p in (u, v, w) if not p.is_zero())
        if first.num[-1] < 0:
            top = -top
        u, v, w = (Polynomial.from_numerators(
            [c // top * (den // p.den) for c in p.num]) for p in (u, v, w))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):
        raise AttributeError("Ode2 is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, Ode2):
            return (self.u, self.v, self.w) == (other.u, other.v, other.w)
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.w))

    def __repr__(self):
        return f"Ode2({self.u!r}, {self.v!r}, {self.w!r})"

    def reflect(self) -> "Ode2":
        """The equation satisfied by Y(-X) whenever Y satisfies self."""
        return Ode2(self.u.compose_neg(), -self.v.compose_neg(),
                    self.w.compose_neg())

    def to_json(self) -> dict:
        return {"U": self.u.to_json(), "V": self.v.to_json(),
                "W": self.w.to_json()}

    def pretty(self) -> str:
        def wrap(p: Polynomial) -> str:
            return f"({p.pretty()})"

        out = f"{wrap(self.u)}Y'' + {wrap(self.v)}Y'"
        if self.w.leading() < 0:
            out += f" - {wrap(-self.w)}Y"
        else:
            out += f" + {wrap(self.w)}Y"
        return out + " = 0"


def laguerre_equation(n: int) -> Ode2:
    """X Y'' + (1 - X) Y' + n Y = 0, satisfied by L_n."""
    return Ode2(X, Polynomial((1, -1)), Polynomial((n,)))


def _residual(ode: Ode2, p: Polynomial) -> Polynomial:
    """U p'' + V p' + W p."""
    dp = p.derivative()
    return ode.u * dp.derivative() + ode.v * dp + ode.w * p


def verify_ode(ode: Ode2, p: Polynomial) -> bool:
    """Exact check that U p'' + V p' + W p vanishes identically."""
    return _residual(ode, p).is_zero()


def verify_ode_on_series(ode: Ode2, s: TruncatedSeries,
                         inhomogeneous: Polynomial = ZERO) -> bool:
    """Check U s'' + V s' + W s + inhomogeneous = 0 through order N-2.

    The X^k coefficient of the residual of the polynomial
    s_0 + ... + s_N X^N reads no coefficient of s past X^(k+2), so it is
    the series' own coefficient for every k <= N-2.
    """
    if s.order < 4:
        raise ValueError("series order must be at least 4")
    res = _residual(ode, Polynomial(s.coeffs)) + inhomogeneous
    return not any(res.num[:s.order - 1])


# ---------------------------------------------------------------------------
# decomposition against X^i d^i L_n and the (Q, R) pair, in theta = X d
# ---------------------------------------------------------------------------

def _scaled_basis_coefficients(p: Polynomial, n: int) -> list[int]:
    """The integers n! den c_i, i = 0..n, where p = num / den and
    p = sum c_i X^i d^i L_n(X).

    X^i d^i sends X^k to k(k-1)...(k-i+1) X^k, and L_n has X^k
    coefficient (-1)^k C(n, k) / k!, so sum_i c_i / (k-i)! =
    (-1)^k p_k / C(n, k); inverting that convolution with the series of
    exp gives n! c_i = (-1)^i sum_{k<=i} p_k k! (n-k)! / (i-k)!.
    """
    tops = [c * math.factorial(k) for k, c in enumerate(p.num)]
    return [(-1) ** i * sum(t * math.perm(n - k, n - i)
                            for k, t in enumerate(tops[:i + 1]))
            for i in range(n + 1)]


def laguerre_basis_decompose(p: Polynomial, n: int) -> tuple[Fraction, ...]:
    """Unique coefficients (c_0..c_n) with p = sum c_i X^i d^i L_n(X)."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if p.degree > n:
        raise ValueError(f"degree {p.degree} exceeds basis index {n}")
    scale = math.factorial(n) * p.den
    return tuple(Fraction(e, scale)
                 for e in _scaled_basis_coefficients(p, n))


def _step(a: Polynomial, b: Polynomial, k: int,
          n: int) -> tuple[Polynomial, Polynomial]:
    """d/dX inside the (L_n, L_n') module, on scaled coordinates.

    (a L_n + b L_n') / X^k has derivative (a+ L_n + b+ L_n') / X^(k+1)
    with a+ = X a' - k a - n b and b+ = X a + X b' + (X - 1 - k) b.
    Equally, (a+, b+) are the coordinates of (theta - k)(a L_n + b L_n')
    for the Euler operator theta = X d.
    """
    return (X * a.derivative() - k * a - n * b,
            X * a + X * b.derivative() + Polynomial((-1 - k, 1)) * b)


def reduce_to_QR(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Polynomials (Q, R) with p = Q L_n + R L_n', n = deg p.

    X^i d^i = theta (theta - 1) ... (theta - i + 1), so
    p = sum c_i X^i d^i L_n is, by Horner's rule,
    (c_0 + theta (c_1 + (theta - 1) (c_2 + ... (theta - n + 1) c_n))) L_n,
    run on integer coordinates over the common denominator n! den.
    deg Q <= n-1 (for n >= 1) and deg R <= n.
    """
    n = p.degree
    if n < 0:
        raise ValueError("cannot reduce the zero polynomial")
    q = r = ZERO
    for i, e in reversed(list(enumerate(_scaled_basis_coefficients(p, n)))):
        q, r = _step(q, r, i, n)
        q = q + e
    scale = math.factorial(n) * p.den
    return q / scale, r / scale


# ---------------------------------------------------------------------------
# the laguerrean of a polynomial
# ---------------------------------------------------------------------------

def laguerrean(p: Polynomial) -> Ode2:
    """The ODE obtained by eliminating L_n, L_n' from p, p', p''.

    p has module coordinates (Q, R); two module derivatives give p' and
    p'' as (a1, b1) / X and (a2, b2) / X^2.  The 2x2 minors of the stacked
    coordinates, scaled by X^3 to polynomials, are the (U, V, W) triple.
    For p = L_n this is Laguerre's equation.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no laguerrean")
    n = p.degree
    a0, b0 = reduce_to_QR(p)
    a1, b1 = _step(a0, b0, 0, n)
    a2, b2 = _step(a1, b1, 1, n)
    u = X * X * (a1 * b0 - a0 * b1)
    v = X * (a0 * b2 - a2 * b0)
    w = a2 * b1 - a1 * b2
    if u.is_zero() and v.is_zero() and w.is_zero():
        # p, p', p'' are module-proportional; one derivative suffices
        v, w = X * a0, -a1
        if v.is_zero() and w.is_zero():
            v, w = X * b0, -b1
    ode = Ode2(u, v, w)
    if not verify_ode(ode, p):
        raise AssertionError("elimination produced an equation p fails")
    return ode


def laguerrean_reflected(p: Polynomial) -> Ode2:
    """The laguerrean built at reflected argument and mapped back.

    Counter-derived polynomials (all coefficients nonnegative) decompose
    naturally against Laguerre data at -X; building the elimination there
    and reflecting the equation back is what yields the low-degree
    published forms for the zigzag family.
    """
    return laguerrean(p.compose_neg()).reflect()


# ---------------------------------------------------------------------------
# the equation families of the two-row digraphs
# ---------------------------------------------------------------------------

def two_row_ode(n1: int, n2: int, r: int) -> Ode2:
    """The ODE satisfied by the two-row companion polynomial at v_r,
    r in {2, 3}: its laguerrean built at reflected argument."""
    from .companion import two_row_companion  # companion imports ode

    if not (0 <= n1 <= n2):
        raise ValueError("need 0 <= n1 <= n2")
    if r not in (2, 3):
        raise ValueError("closed-form equations exist for r in {2, 3} only")
    if n2 < r:
        raise ValueError(f"r = {r} needs n2 >= {r}")
    return laguerrean_reflected(two_row_companion(n1, n2, r))


def catalan_ode(n: int, r: int) -> Ode2:
    """The equal-rows case n1 = n2 = n of :func:`two_row_ode`."""
    if r not in (2, 3):
        raise ValueError("simplified equations exist for r in {2, 3} only")
    if n < r:
        raise ValueError(f"r = {r} needs n >= {r}")
    return two_row_ode(n, n, r)
