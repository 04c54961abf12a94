"""Companion polynomials of digraphs and the two-row / zigzag data around them.

Attaching longer and longer directed paths at a vertex v of a digraph G
produces a counter sequence sigma(G_0), sigma(G_1), ...; its exponential
generating series equals T(X) exp(X) for a unique polynomial T of degree
at most n-1, the companion polynomial of G at v.  Both come from the
height distribution of v, N_k = the number of dispositions with f(v) = k,
counted by the shared subset kernel of ``counting``: a path of length i
attached below v fits C(k-1+i, i) ways, and by Kummer's transformation
sum_i C(k-1+i, i) X^i/i! = exp(X) L_{k-1}(-X), so T = sum_k N_k L_{k-1}(-X).
On the zigzag S_n, N of v1 is a row of the Seidel-Entringer triangle, and
on the two-row grid N of v_r counts ballot words.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import Polynomial, _mul_vectors
from .combinatorics import binomial
from .counting import CounterTable
from .families import _seidel_entringer_row
from .graph import SimpleDigraph
from .ode import laguerre_basis_decompose


# ---------------------------------------------------------------------------
# the height distribution of v
# ---------------------------------------------------------------------------

class _HeightTable(CounterTable):
    """CounterTable plus the height distribution of one vertex v.

    In ``memo`` a mask without v holds its counter, and a mask with v holds
    N for the subgraph it induces: entry k - 1 counts its dispositions with
    f(v) = k.
    """

    def __init__(self, d: SimpleDigraph, v: int):
        super().__init__(d)
        self.v = v

    def _join(self, mask: int, comps: list[int]):
        v = self.v
        if not mask >> v & 1:
            return super()._join(mask, comps)
        # interleave v's component C with the rest R: v at height j + 1 of
        # C and k + 1 of S leaves C(k, j) C(s-1-k, m-1-j) ways, which is
        # C(m-1, j) C(s-m, k-j) C(s-1, m-1) / C(s-1, k), so N_S is one
        # product of coefficient vectors, rescaled
        comp = next(c for c in comps if c >> v & 1)
        inner = self._value(comp, True)
        rest = super()._join(mask ^ comp, [c for c in comps if c != comp])
        m, s = len(inner), mask.bit_count()
        w = _mul_vectors(
            [x * math.comb(m - 1, j) for j, x in enumerate(inner)],
            [math.comb(s - m, i) for i in range(s - m + 1)])
        return tuple(rest * math.comb(s - 1, m - 1) * x // math.comb(s - 1, k)
                     for k, x in enumerate(w))

    def _peel(self, mask: int):
        v = self.v
        if not mask >> v & 1:
            return super()._peel(mask)
        size = mask.bit_count()
        # a peeled sink takes the lowest value and lifts the others by one;
        # a peeled source takes the highest
        shift = 1 if self._blocked is self.out else 0
        total = [0] * size
        for w, x in self._children(mask):
            if w == v:
                total[0 if shift else size - 1] += x
            else:
                for k, y in enumerate(x, shift):
                    total[k] += y
        return tuple(total)


def height_counts(d: SimpleDigraph, v: int) -> tuple[int, ...]:
    """(N_1, ..., N_n), where N_k dispositions of d have f(v) = k.

    All zeros when a loop or a directed cycle exists.
    """
    if not (0 <= v < d.n):
        raise ValueError(f"vertex {v} out of range")
    if not d.is_acyclic():
        return (0,) * d.n
    return _HeightTable(d, v)._count((1 << d.n) - 1)


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
                            reverse: bool = False) -> CompanionResult:
    """Companion polynomial and counters sigma(G_0..G_{2n-1}) from one
    height distribution N, read backwards for reversed paths, since
    reversal maps f to n + 1 - f.  With no vertex, v is out of range."""
    heights = height_counts(d, v)
    if reverse:
        heights = heights[::-1]
    counters = tuple(_attached_counter(heights, i) for i in range(2 * d.n))
    return CompanionResult(_companion_poly(heights), counters, v,
                           dual=reverse)


def _taylor_numerator(heights: Sequence[int], i: int) -> int:
    """i! T_i = sum_k N_k C(k-1, i); zero once i >= len(N)."""
    return sum(c * math.comb(k, i) for k, c in enumerate(heights) if c)


def _attached_counter(heights: Sequence[int], i: int) -> int:
    """sigma(G_i) = sum_k N_k C(k-1+i, i)."""
    return sum(c * math.comb(k + i, i) for k, c in enumerate(heights) if c)


def _companion_poly(heights: Sequence[int]) -> Polynomial:
    """T = sum_i T_i X^i from the height row N, over the one denominator
    (n-1)!, n = len(N)."""
    top = len(heights) - 1
    return Polynomial.from_numerators(
        [_taylor_numerator(heights, i) * math.perm(top, top - i)
         for i in range(len(heights))], math.factorial(max(top, 0)))


def _laguerre_weights(poly: Polynomial, m: int) -> tuple[Fraction, ...]:
    """(-1)^i c_i, where T(-X) = sum_i c_i X^i d^i L_m(X) for T = poly."""
    return tuple((-1) ** i * c for i, c in
                 enumerate(laguerre_basis_decompose(poly.compose_neg(), m)))


def companion_by_recurrence(d: SimpleDigraph, v: int) -> Polynomial:
    """Companion polynomial from the height distribution of v."""
    return companion_from_counters(d, v).poly


# ---------------------------------------------------------------------------
# two-row digraphs: weights and companion polynomials at v_r
# ---------------------------------------------------------------------------

def _two_row_heights(n1: int, n2: int, r: int) -> list[int]:
    """N of v_r in the two-row grid of n = n1 + n2 vertices.

    Read from the top value down, a disposition is a ballot word in the
    rows, the v-row letter never behind the u-row letter.  With a of the
    u-vertices above it, v_r lands at value n + 1 - r - a; the r - 1 + a
    letters above form a ballot word, and the low = n - r - a below one
    that starts r - a letters ahead, counted by reflection.
    """
    if not (0 <= n1 <= n2 and 1 <= r <= n2):
        raise ValueError(f"bad two-row parameters ({n1},{n2},{r})")
    heights = [0] * (n1 + n2)
    for a in range(min(r - 1, n1) + 1):
        low = n1 + n2 - r - a
        heights[low] = ((binomial(r - 1 + a, a) - binomial(r - 1 + a, a - 1))
                        * (binomial(low, n1 - a) - binomial(low, n1 - r - 1)))
    return heights


class TwoRowDecomposition(NamedTuple):
    """The weight row f(n1, n2, r, i) for i = 0..min(n1, r-1)."""

    n1: int
    n2: int
    r: int
    weights: tuple[Fraction, ...]


def two_row_decomposition(n1: int, n2: int, r: int) -> TwoRowDecomposition:
    """f_i = (-1)^i c_i / sigma, where T(-X) = sum_i c_i X^i d^i L_m(X) for
    the two-row companion T, m = n1 + n2 - r and sigma = T(0); c_i vanishes
    past min(n1, r-1)."""
    poly = two_row_companion(n1, n2, r)
    weights = _laguerre_weights(poly, n1 + n2 - r)
    top = min(n1, r - 1) + 1
    if any(weights[top:]):
        raise AssertionError(f"two-row weight past index {top - 1}")
    sigma = poly(0)
    return TwoRowDecomposition(n1, n2, r,
                               tuple(w / sigma for w in weights[:top]))


def two_row_companion(n1: int, n2: int, r: int) -> Polynomial:
    """Companion polynomial of the two-row digraph at vertex v_r:

    sigma * sum_i f(n1,n2,r,i) X^i (d^i L_{n1+n2-r})(-X).
    """
    return _companion_poly(_two_row_heights(n1, n2, r))


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


# ---------------------------------------------------------------------------
# zigzag (staircase) data
# ---------------------------------------------------------------------------

def staircase_path_counter(n: int, i: int) -> int:
    """f(n, i) = sigma(S_n with a length-i path attached at v1), from the
    height row of v1.  It satisfies the halving recurrence
    2 f(n,i) = f(n,i-1) + sum_j C(n+i-1, i+j) f(j,i) s_{n-1-j}."""
    if n < 0 or i < 0:
        raise ValueError("indices must be nonnegative")
    return _attached_counter(_seidel_entringer_row(n), i)


class StaircaseData(NamedTuple):
    """The Laguerre-pair weights g(n, i) of the zigzag S_n at v1."""

    n: int
    g: tuple[Fraction, ...]


def staircase_companion(n: int) -> Polynomial:
    """Companion polynomial of the zigzag digraph S_n at v1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _companion_poly(_seidel_entringer_row(n))


def staircase_data(n: int) -> StaircaseData:
    """g(n, i) = (-1)^i c_i, where T(-X) = sum_i c_i X^i d^i L_{n-1}(X)
    for the zigzag companion T; empty for n = 0."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return StaircaseData(
        n, _laguerre_weights(staircase_companion(n), n - 1) if n else ())


def generalized_zigzag(i: int, count_values: int) -> list[int]:
    """The order-i generalized zigzag numbers i! a(n, i) for n = 0..count-1."""
    if i < 0 or count_values < 0:
        raise ValueError("order and count must be nonnegative")
    return [_taylor_numerator(_seidel_entringer_row(n), i)
            for n in range(count_values)]
