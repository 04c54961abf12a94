"""Non-strict disposition counters: maps into {1..i} weakly decreasing on arcs.

Directed cycles no longer kill the count, they force equality, so the
counter factors through the strong-component quotient.  On the quotient
P the counter is Stanley's order polynomial Omega(P, i), of degree |P| in
the size i: ``order_polynomial`` computes it once, in the binomial basis,
by the subset recursion of the strict counter (weak components split at
every state, peel side chosen per call, the same state cap) with an
inclusion-exclusion over peelable subsets in place of single peels, and
every size is a value of it.  Its top coefficient times |P|! is the strict
counter, and (-1)^|P| Omega(P, -i) counts the strictly decreasing maps
into {1..i} (reciprocity).  ``nonstrict_bruteforce`` is the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .algebra import Polynomial, TruncatedSeries, binomial
from .counting import _PeelTable
from .errors import SizeLimitError
from .graph import SimpleDigraph, full_mask, iter_mask, mask_size

BRUTE_FORCE_BUDGET = 10_000_000
CONDENSED_ORDER_LIMIT = 20


def nonstrict_bruteforce(d: SimpleDigraph, i: int) -> int:
    """Oracle: check all i^n maps directly.

    Loops impose f(v) >= f(v), which always holds, so had_loop is ignored.
    """
    if i < 0:
        raise ValueError("size must be nonnegative")
    if d.n == 0:
        return 1
    if i == 0:
        return 0
    if i**d.n > BRUTE_FORCE_BUDGET:
        raise SizeLimitError(
            f"brute force would scan {i**d.n} maps, over the budget")
    arcs = tuple(d.arcs)
    total = 0
    for f in product(range(1, i + 1), repeat=d.n):
        if all(f[u] >= f[v] for u, v in arcs):
            total += 1
    return total


class NonStrictCounter(_PeelTable):
    """Order polynomials of the induced subgraphs of one acyclic digraph.

    ``coefficients(mask)`` is the order polynomial of the subgraph induced
    by ``mask`` in the binomial basis: integers c with
    Omega_S(i) = sum_k c_k C(i, k).  A disconnected S is the product of
    its weak components.  For a connected S, inclusion-exclusion over the
    nonempty subsets T of the sinks of S gives

        Omega_S(i) = sum_{1<=j<=i} sum_T (-1)^(|T|+1) Omega_{S-T}(j),

    and the sum over j maps C(j, k) to C(i, k+1) + C(i, k) - [k=0], so each
    state costs one pass over integer coefficient tuples, whatever the size.
    Omega_S is also the order polynomial of the reversal of S, so the same
    recurrence over sources gives the same values, and ``order_polynomial``
    picks the side per call as ``count`` does, under the same state cap.
    The empty set has Omega = 1.
    """

    def __init__(self, d: SimpleDigraph):
        if not d.is_acyclic():
            raise ValueError("NonStrictCounter needs an acyclic digraph")
        super().__init__(d)
        self.memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def coefficients(self, mask: int) -> tuple[int, ...]:
        got = self.memo.get(mask)
        if got is not None:
            return got
        comps = self._components(mask)
        if len(comps) > 1:
            result = (1,)
            for c in comps:
                result = _binomial_basis_product(result, self.coefficients(c))
            return result
        self._spend()
        blocked = self._blocked
        peelable = [u for u in iter_mask(mask) if blocked[u] & mask == 0]
        # diff[k] is the C(j, k) coefficient of the inner sum over T
        diff = [0] * (mask_size(mask) + 1)
        for size, sub in _subsets_with_size(peelable):
            sign = 1 if size % 2 == 1 else -1
            for k, c in enumerate(self.coefficients(mask & ~sub)):
                diff[k] += sign * c
        # Omega_S(0) = 0, and C(i, k+1) collects diff[k] + diff[k+1]
        result = (0,) + tuple(a + b for a, b in zip(diff, diff[1:]))
        self.memo[mask] = result
        return result


def _binomial_basis_product(p: tuple[int, ...],
                            q: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two polynomials given in the binomial basis, by

        C(X, a) C(X, b) = sum_{max(a,b) <= k <= a+b} C(k, a) C(a, k-b) C(X, k).
    """
    out = [0] * (len(p) + len(q) - 1)
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            if pa and qb:
                for k in range(max(a, b), a + b + 1):
                    out[k] += pa * qb * math.comb(k, a) * math.comb(a, k - b)
    return tuple(out)


def _subsets_with_size(vertices: list[int]):
    """Nonempty subsets of a vertex list as (popcount, mask) pairs."""
    k = len(vertices)
    for bits in range(1, 1 << k):
        sub = 0
        size = 0
        b = bits
        while b:
            low = b & -b
            sub |= 1 << vertices[low.bit_length() - 1]
            size += 1
            b ^= low
        yield size, sub


def order_polynomial(d: SimpleDigraph) -> Polynomial:
    """Stanley's order polynomial Omega of any digraph: Omega(i) is the
    non-strict counter of size i for every i >= 0.

    Condenses first (quotient invariance); Omega has degree equal to the
    order of the condensation.
    """
    cond = d.condense()
    if cond.n > CONDENSED_ORDER_LIMIT:
        raise SizeLimitError(
            f"condensed order {cond.n} exceeds the cap {CONDENSED_ORDER_LIMIT}")
    counter = NonStrictCounter(cond)
    return _from_binomial_basis(
        counter._either_side(counter.coefficients, full_mask(cond.n)))


def _from_binomial_basis(coeffs: tuple[int, ...]) -> Polynomial:
    """sum_k c_k C(X, k) in the power basis, in integers until the end."""
    n = len(coeffs) - 1
    scaled = [0] * (n + 1)  # n! times the power-basis coefficients
    falling = [1]  # X(X-1)...(X-k+1), lowest degree first
    for k, c in enumerate(coeffs):
        weight = c * (math.factorial(n) // math.factorial(k))
        for j, f in enumerate(falling):
            scaled[j] += weight * f
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return Polynomial(Fraction(x, math.factorial(n)) for x in scaled)


def nonstrict_count(d: SimpleDigraph, i: int) -> int:
    """Non-strict counter of size i: the order polynomial's value at i."""
    if i < 0:
        raise ValueError("size must be nonnegative")
    value = order_polynomial(d)(i)
    if value.denominator != 1:
        raise AssertionError(f"order polynomial gave non-integer {value}")
    return int(value)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def nonstrict_path(n: int, i: int) -> int:
    """sigma^ns_i of a directed path: combinations with repetition
    C(i+n-1, n)."""
    if n < 0 or i < 0:
        raise ValueError("arguments must be nonnegative")
    return binomial(i + n - 1, n)


def nonstrict_empty(n: int, i: int) -> int:
    return i**n


def nonstrict_two_row(n1: int, n2: int, i: int) -> int:
    """Closed form for the two-row grid:

    (1 + n1 (1-i) / ((n2+1) i)) CR_{i,n1} CR_{i,n2};
    the value must be an integer, which is asserted.
    """
    if not (0 <= n1 <= n2):
        raise ValueError("need 0 <= n1 <= n2")
    if i < 1:
        raise ValueError("size must be at least 1")
    value = ((1 + Fraction(n1 * (1 - i), (n2 + 1) * i))
             * nonstrict_path(n1, i) * nonstrict_path(n2, i))
    if value.denominator != 1:
        raise AssertionError(f"two-row closed form gave non-integer {value}")
    return int(value)


# ---------------------------------------------------------------------------
# generating series
# ---------------------------------------------------------------------------

def nonstrict_path_series_fixed_size(j: int, order: int) -> TruncatedSeries:
    """EGF over growing paths at fixed size j: coefficients C(j+i-1, i)/i!.

    Equals exp(X) L_{j-1}(-X) as a series.
    """
    if j < 1:
        raise ValueError("size must be at least 1")
    return TruncatedSeries(
        Fraction(binomial(j + i - 1, i), math.factorial(i))
        for i in range(order + 1))


def nonstrict_path_series(order: int) -> TruncatedSeries:
    """EGF over growing paths with size = order: coefficients C(2i-1, i)/i!.

    The i = 0 term is 1 (order-0 convention); the series equals
    (1 + exp(2X) I_0(2X)) / 2.
    """
    return TruncatedSeries(
        Fraction(binomial(2 * i - 1, i), math.factorial(i))
        for i in range(order + 1))
