"""Companion polynomials of digraphs and the two-row / zigzag data around them.

Attaching longer and longer directed paths at a vertex v of a digraph G
produces a counter sequence sigma(G_0), sigma(G_1), ...; its exponential
generating series equals T(X) exp(X) for a unique polynomial T of degree
at most n-1, the companion polynomial of G at v.  Two independent routes
compute it here: series deconvolution of the counter sequence by exp(-X),
and the height distribution of v, N_k = the number of dispositions with
f(v) = k, counted by the shared subset kernel of ``counting``.  A path
attached below v fits C(k-1+i, i) ways, and by Kummer's transformation
sum_i C(k-1+i, i) X^i/i! = exp(X) L_{k-1}(-X), so T = sum_k N_k L_{k-1}(-X).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import Polynomial, binomial, laguerre, monomial, pochhammer
from .counting import CounterTable
from .errors import DeconvolutionTailError
from .families import staircase_counter, two_row_counter
from .graph import SimpleDigraph, full_mask, iter_mask, mask_size
from .ode import laguerre_basis_decompose


# ---------------------------------------------------------------------------
# counters along an attached path
# ---------------------------------------------------------------------------

def counters_along_path(d: SimpleDigraph, v: int, horizon: int,
                        reverse: bool = False) -> list[int]:
    """[sigma(d with a length-i path attached at v) for i = 0..horizon].

    The digraph with a length-i path is the subgraph of the one with the
    full horizon induced on its first n + i vertices, so one table serves
    every i.
    """
    g = d.attach_path(v, horizon, reverse=reverse)
    if g.had_loop:
        return [0] * (horizon + 1)
    table = CounterTable(g)
    if not g.is_acyclic():
        return [0] * (horizon + 1)
    return [table._count(full_mask(d.n + i)) for i in range(horizon + 1)]


def counter_minus_one(d: SimpleDigraph, v: int) -> int:
    """The index -1 convention of the counter recurrence:

    sigma(G_{-1}) = sigma(G - v) when v is a sink, else 0; that is N_1,
    the number of dispositions with f(v) = 1.
    """
    return height_counts(d, v)[0]


# ---------------------------------------------------------------------------
# the height distribution of v
# ---------------------------------------------------------------------------

class _HeightTable(CounterTable):
    """CounterTable plus the height distribution of one vertex v.

    ``heights(mask)`` is N for the subgraph induced by a mask holding v:
    entry k - 1 counts its dispositions with f(v) = k.  Like ``sigma`` it
    splits off weak components, memoizes only connected subsets and peels
    the side in use, and both memos charge the same budget of states.
    """

    def __init__(self, d: SimpleDigraph, v: int):
        super().__init__(d)
        self.v = v
        self.heights_memo: dict[int, tuple[int, ...]] = {}

    def heights(self, mask: int) -> tuple[int, ...]:
        got = self.heights_memo.get(mask)
        if got is not None:
            return got
        v = self.v
        size = mask_size(mask)
        comps = self._components(mask)
        if len(comps) > 1:
            # interleave v's component C with the rest R: v at height j + 1
            # of C and k + 1 of S leaves C(k, j) C(|S|-1-k, |C|-1-j) ways
            comp = next(c for c in comps if c >> v & 1)
            inner = self.heights(comp)
            m = len(inner)
            rest = self.sigma(mask ^ comp)
            return tuple(
                rest * sum(inner[j] * math.comb(k, j)
                           * math.comb(size - 1 - k, m - 1 - j)
                           for j in range(m))
                for k in range(size))
        self._spend()
        blocked = self._blocked
        # a peeled sink takes the lowest value and lifts the others by one;
        # a peeled source takes the highest
        shift = 1 if blocked is self.out else 0
        total = [0] * size
        for w in iter_mask(mask):
            if blocked[w] & mask == 0:
                sub = mask & ~(1 << w)
                if w == v:
                    total[0 if shift else size - 1] += self.sigma(sub)
                else:
                    for k, x in enumerate(self.heights(sub), shift):
                        total[k] += x
        result = tuple(total)
        self.heights_memo[mask] = result
        return result


def height_counts(d: SimpleDigraph, v: int) -> tuple[int, ...]:
    """(N_1, ..., N_n), where N_k dispositions of d have f(v) = k.

    All zeros when a loop was normalized away or a directed cycle exists.
    """
    if not (0 <= v < d.n):
        raise ValueError(f"vertex {v} out of range")
    if d.had_loop or not d.is_acyclic():
        return (0,) * d.n
    table = _HeightTable(d, v)
    return table._either_side(table.heights, full_mask(d.n))


# ---------------------------------------------------------------------------
# the companion polynomial
# ---------------------------------------------------------------------------

class CompanionResult(NamedTuple):
    """Companion polynomial plus the counter sequence that produced it."""

    poly: Polynomial
    counters: tuple[int, ...]
    vertex: int
    dual: bool = False

    def to_json(self) -> dict:
        return {"vertex": self.vertex, "counters": list(self.counters),
                "poly": self.poly.to_json(), "dual": self.dual}


def companion_from_counters(d: SimpleDigraph, v: int,
                            reverse: bool = False,
                            horizon: int | None = None) -> CompanionResult:
    """Companion polynomial by series deconvolution.

    t_i = sum_{j<=i} sigma_j/j! * (-1)^{i-j}/(i-j)! for i < n, and the same
    expression must vanish for i = n..horizon; running the deconvolution
    past the degree bound turns the uniqueness argument into a self-test.
    """
    n = d.n
    if n < 1:
        raise ValueError("companion polynomials need at least one vertex")
    if horizon is None:
        horizon = 2 * n - 1
    if horizon < n - 1:
        raise ValueError("horizon must be at least n - 1")
    counters = counters_along_path(d, v, horizon, reverse=reverse)
    coeffs = []
    for i in range(horizon + 1):
        t = Fraction(0)
        for j in range(i + 1):
            t += (Fraction(counters[j], math.factorial(j))
                  * Fraction((-1) ** (i - j), math.factorial(i - j)))
        coeffs.append(t)
    for i in range(n, horizon + 1):
        if coeffs[i] != 0:
            raise DeconvolutionTailError(
                f"deconvolution coefficient {i} = {coeffs[i]} should vanish")
    return CompanionResult(Polynomial(coeffs[:n]), tuple(counters), v,
                           dual=reverse)


def companion_by_heights(d: SimpleDigraph, v: int,
                         reverse: bool = False) -> CompanionResult:
    """Companion polynomial and counters sigma(G_0..G_{n-1}) from N.

    sigma(G_i) = sum_k N_k C(k-1+i, i), and the X^i coefficient of
    T = sum_k N_k L_{k-1}(-X) is sum_k N_k C(k-1, i) / i!.  Reversal maps
    f to n + 1 - f, so reversed paths read N backwards.
    """
    heights = height_counts(d, v)
    if reverse:
        heights = heights[::-1]
    n = len(heights)
    poly = Polynomial(
        Fraction(sum(c * math.comb(k, i) for k, c in enumerate(heights)),
                 math.factorial(i))
        for i in range(n))
    counters = tuple(sum(c * math.comb(k + i, i)
                         for k, c in enumerate(heights))
                     for i in range(n))
    return CompanionResult(poly, counters, v, dual=reverse)


def companion_by_recurrence(d: SimpleDigraph, v: int) -> Polynomial:
    """Companion polynomial from the height distribution of v."""
    return companion_by_heights(d, v).poly


def companion_dual(d: SimpleDigraph, v: int) -> Polynomial:
    """Companion polynomial along reversed attached paths.

    Equals the plain companion of the reversed digraph at v, because
    reversal swaps sinks and sources and keeps every counter.
    """
    return companion_by_heights(d, v, reverse=True).poly


# ---------------------------------------------------------------------------
# two-row digraphs: weights and companion polynomials at v_r
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def two_row_weight(n1: int, n2: int, r: int, i: int) -> Fraction:
    """The weight of X^i d^i L_{n1+n2-r}(-X) in the two-row companion.

    Five mutually exclusive recurrence cases, keyed on where (n1, n2) sits
    relative to the diagonal and to n2 = r; every branch lowers n1 or n2.
    """
    if not (0 <= n1 <= n2 and 1 <= r <= n2):
        raise ValueError(f"bad two-row parameters ({n1},{n2},{r})")
    if i > min(n1, r - 1):
        return Fraction(0)
    if n1 == 0:
        return Fraction(1)  # i = 0 is the only surviving index
    if n2 == r:
        den = r * r + r + n1 * (1 - n1)
        return (Fraction((i - n1) * (n1 - r - 2), den)
                * two_row_weight(n1 - 1, r, r, i)
                + Fraction(r * r + (1 - n1) * r - n1,
                           math.factorial(i) * den))
    if n1 == n2:
        return (Fraction(2 * n1 - r - i, 2 * n1 - r)
                * two_row_weight(n1 - 1, n1, r, i))
    den = (n1 - n2 - 1) * (n1 + n2) * (n1 + n2 - r)
    return (Fraction(n1 * (n1 - n2 - 2) * (n1 + n2 - r - i), den)
            * two_row_weight(n1 - 1, n2, r, i)
            + Fraction((n1 - n2) * (n2 + 1) * (n1 + n2 - r - i), den)
            * two_row_weight(n1, n2 - 1, r, i))


class TwoRowDecomposition(NamedTuple):
    """The weight row f(n1, n2, r, i) for i = 0..min(n1, r-1)."""

    n1: int
    n2: int
    r: int
    weights: tuple[Fraction, ...]


def two_row_decomposition(n1: int, n2: int, r: int) -> TwoRowDecomposition:
    weights = tuple(two_row_weight(n1, n2, r, i)
                    for i in range(min(n1, r - 1) + 1))
    return TwoRowDecomposition(n1, n2, r, weights)


def two_row_companion(n1: int, n2: int, r: int) -> Polynomial:
    """Companion polynomial of the two-row digraph at vertex v_r:

    sigma * sum_i f(n1,n2,r,i) X^i (d^i L_{n1+n2-r})(-X).
    """
    if not (0 <= n1 <= n2 and 1 <= r <= n2):
        raise ValueError(f"bad two-row parameters ({n1},{n2},{r})")
    m = n1 + n2 - r
    sigma = two_row_counter(n1, n2)
    deriv = laguerre(m)
    total = Polynomial()
    for i in range(min(n1, r - 1) + 1):
        f = two_row_weight(n1, n2, r, i)
        if f:
            total = total + f * (monomial(i) * deriv.compose_neg())
        deriv = deriv.derivative()
    return sigma * total


def catalan_polynomial(n: int) -> Polynomial:
    """C*_n: the two-row companion at the second lower-row vertex, with
    C*_1 = 1 adjoined; the constant term is the n-th Catalan number."""
    if n < 1:
        raise ValueError("Catalan polynomials start at index 1")
    if n == 1:
        return Polynomial((1,))
    return two_row_companion(n, n, 2)


def catalan_polynomial_r3(n: int) -> Polynomial:
    """The order-3 variant: two-row companion at v_3 on equal rows."""
    if n < 3:
        raise ValueError("the order-3 family starts at index 3")
    return two_row_companion(n, n, 3)


# closed forms used as validators (the recurrence above is the primary path)

def two_row_companion_closed(n1: int, n2: int, r: int) -> Polynomial:
    """Printed closed forms for r in {2, 3}, small cases included."""
    if r == 2:
        if (n1, n2) == (0, 2):
            return Polynomial((1,))
        if n2 < 2:
            raise ValueError("closed form needs n2 >= 2")
        s = n1 + n2
        sigma = two_row_counter(n1, n2)
        lag = laguerre(s - 2)
        f1 = Fraction(n1 * n2 + n1, s * (s - 1) * (s - 2))
        return sigma * (lag.compose_neg()
                        + f1 * (monomial(1) * lag.derivative().compose_neg()))
    if r == 3:
        if (n1, n2) == (0, 3):
            return Polynomial((1,))
        if (n1, n2) == (0, 4):
            return Polynomial((1, 1))
        if (n1, n2) == (1, 3):
            return Polynomial((3, 1))
        if n2 < 3:
            raise ValueError("closed form needs n2 >= 3")
        s = n1 + n2
        sigma = two_row_counter(n1, n2)
        lag = laguerre(s - 3)
        f1 = Fraction(
            2 * n1 * (n2 + 1)
            * (n1**2 + 3 * n1 * n2 + n2**2 - 5 * n1 - 6 * n2 + 6)) / (
                pochhammer(s - 3, 4) * (s - 3))
        f2 = Fraction(2) * pochhammer(n1 - 1, 2) * pochhammer(n2, 2) / (
            pochhammer(s - 4, 5) * (s - 3))
        d1 = lag.derivative()
        d2 = d1.derivative()
        return sigma * (lag.compose_neg()
                        + f1 * (monomial(1) * d1.compose_neg())
                        + f2 * (monomial(2) * d2.compose_neg()))
    raise ValueError("closed forms exist for r in {2, 3} only")


# ---------------------------------------------------------------------------
# zigzag (staircase) data
# ---------------------------------------------------------------------------

def staircase_path_counter(n: int, i: int) -> int:
    """f(n, i) = sigma(S_n with a length-i path attached at v1), by the
    halving recurrence

    f(n,i) = (f(n,i-1) + sum_j C(n+i-1, i+j) f(j,i) s_{n-1-j}) / 2

    with f(0,i) = f(1,i) = 1 and f(n,0) = s_n.
    """
    if n < 0 or i < 0:
        raise ValueError("indices must be nonnegative")
    # filling the i direction in order finds every f(., i-1) cached, so the
    # recursion only runs down n
    for k in range(i):
        _path_counter(n, k)
    return _path_counter(n, i)


@lru_cache(maxsize=None)
def _path_counter(n: int, i: int) -> int:
    if n <= 1:
        return 1
    if i == 0:
        return staircase_counter(n)
    total = _path_counter(n, i - 1)
    for j in range(n):
        total += (binomial(n + i - 1, i + j) * _path_counter(j, i)
                  * staircase_counter(n - 1 - j))
    half, rem = divmod(total, 2)
    if rem:
        raise AssertionError(f"halving recurrence broke at f({n},{i})")
    return half


def staircase_path_counter_closed(n: int, i: int) -> int:
    """Alternating closed form for f(n, i) in terms of zigzag numbers."""
    half = i // 2
    total = (-1) ** half * staircase_counter(n + i)
    for j in range(half):
        total += ((-1) ** j * binomial(n + i, i - 2 * j - 1)
                  * staircase_counter(n + 2 * j + 1))
    return total


class StaircaseData(NamedTuple):
    """Per-order zigzag data: attached-path counters f(n, i), the companion
    coefficients a(n, i), the generalized zigzag numbers i! a(n, i), and the
    Laguerre-pair weights g(n, i)."""

    n: int
    f_row: tuple[int, ...]
    a: tuple[Fraction, ...]
    s_gen: tuple[int, ...]
    g: tuple[Fraction, ...]


def staircase_companion(n: int) -> Polynomial:
    """Companion polynomial of the zigzag digraph S_n at v1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Polynomial(_staircase_coefficients(n, n - 1))


def _staircase_coefficients(n: int, horizon: int) -> list[Fraction]:
    """a(n, i) for i = 0..horizon by deconvolution of the f(n, .) row."""
    coeffs: list[Fraction] = []
    for i in range(horizon + 1):
        t = Fraction(staircase_path_counter(n, i), math.factorial(i))
        for k in range(i):
            t -= coeffs[k] / math.factorial(i - k)
        coeffs.append(t)
    return coeffs


def staircase_data(n: int, horizon: int | None = None) -> StaircaseData:
    if n < 0:
        raise ValueError("order must be nonnegative")
    if horizon is None:
        horizon = max(2 * n - 1, 0)
    # the weight tuple needs the full companion even when the caller asks
    # for a short row
    full = _staircase_coefficients(n, max(horizon, n - 1))
    f_row = tuple(staircase_path_counter(n, i) for i in range(horizon + 1))
    a = tuple(full[: horizon + 1])
    s_gen = []
    for i, ai in enumerate(a):
        value = ai * math.factorial(i)
        if value.denominator != 1:
            raise AssertionError(f"i! a({n},{i}) = {value} is not integral")
        s_gen.append(int(value))
    if n >= 1:
        poly = Polynomial(full[:n])
        raw = laguerre_basis_decompose(poly.compose_neg(), n - 1)
        g = tuple((-1) ** i * c for i, c in enumerate(raw))
    else:
        g = ()
    return StaircaseData(n, f_row, a, tuple(s_gen), g)


def generalized_zigzag(i: int, count_values: int) -> list[int]:
    """The order-i generalized zigzag numbers i! a(n, i) for n = 0..count-1."""
    out = []
    for n in range(count_values):
        a = _staircase_coefficients(n, i)
        value = a[i] * math.factorial(i)
        if value.denominator != 1:
            raise AssertionError("generalized zigzag number is not integral")
        out.append(int(value))
    return out
