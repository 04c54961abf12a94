"""Non-strict disposition counters: maps into {1..i} weakly decreasing on arcs.

Directed cycles no longer kill the count, they force equality, so the
counter factors through the strong-component quotient.  On the quotient
P the counter is Stanley's order polynomial Omega(P, i), of degree |P| in
the size i.  ``order_polynomial`` computes its values at 0..|P| by the
subset recursion of the strict counter (weak components split at every
state and joined by pointwise products, peel side chosen per component,
the same state cap) with an inclusion-exclusion over peelable subsets in
place of single peels; their forward differences are its coefficients in
the binomial basis, and every size is a value of it.  Its top coefficient
times |P|! is the strict counter, and (-1)^|P| Omega(P, -i) counts the
strictly decreasing maps into {1..i} (reciprocity).
``nonstrict_bruteforce`` is the oracle.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, product
from typing import Iterable

from .combinatorics import binomial, forward_differences
from .counting import _PeelTable, _peelable
from .errors import SizeLimitError
from .graph import SimpleDigraph

BRUTE_FORCE_BUDGET = 10_000_000
CONDENSED_ORDER_LIMIT = 20


def nonstrict_bruteforce(d: SimpleDigraph, i: int) -> int:
    """Oracle: check all i^n maps directly.

    A loop asks f(v) >= f(v), which always holds.
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

    ``memo`` maps a mask to the values Omega_S(0), ..., Omega_S(n) of the
    order polynomial of the subgraph it induces, where n is the order of
    the digraph; they fix Omega_S, whose degree |S| is at most n.  The
    empty set has Omega = 1, and a disconnected S multiplies the values of
    its weak components pointwise.  For a connected S, inclusion-exclusion
    over the nonempty subsets T of the sinks of S gives

        Omega_S(i) = sum_{1<=j<=i} sum_T (-1)^(|T|+1) Omega_{S-T}(j),

    so each state costs one signed sum of value tuples and one prefix sum.
    Omega_S is also the order polynomial of the reversal of S, so the same
    recurrence over sources gives the same values, and ``order_polynomial``
    picks the side per component as ``count`` does, under the same state
    cap.
    """

    def __init__(self, d: SimpleDigraph):
        if not d.is_acyclic():
            raise ValueError("NonStrictCounter needs an acyclic digraph")
        super().__init__(d, (1,) * (d.n + 1))

    def _join(self, mask: int, comps: list[int]) -> tuple[int, ...]:
        values = [self._value(c, True) for c in comps]
        return tuple(map(math.prod, zip(*values)))

    def _peel(self, mask: int) -> tuple[int, ...]:
        peelable = _peelable(self._blocked, mask)
        # diff[j] is the inner sum over nonempty T at size j; the subsets T
        # come one at a time, so a try out of states stops at once
        diff = [0] * len(self.memo[0])
        sub = peelable & -peelable
        while sub:
            add = operator.add if sub.bit_count() & 1 else operator.sub
            diff = list(map(add, diff, self._value(mask & ~sub)))
            sub = (sub - peelable) & peelable
        # Omega_S(0) = 0, and Omega_S(i) sums diff over 1 <= j <= i
        return tuple(accumulate(diff[1:], initial=0))


def order_polynomial(d: SimpleDigraph) -> Polynomial:
    """Stanley's order polynomial Omega of any digraph: Omega(i) is the
    non-strict counter of size i for every i >= 0.

    Condenses first (quotient invariance); Omega has degree equal to the
    order of the condensation.
    """
    from .algebra import X

    top, (value,) = _scaled_values(d, (X,))
    return value / top


def nonstrict_counts(d: SimpleDigraph, sizes: Iterable[int]) -> list[int]:
    """Non-strict counters Omega(i) for each size i >= 0, in integers."""
    top, values = _scaled_values(d, sizes)
    return [value // top for value in values]


def _scaled_values(d: SimpleDigraph, xs) -> tuple[int, list]:
    """m! and m! Omega(x) for each integer or polynomial x, where m is the
    order of the condensation.  The forward differences c_k of Omega at 0
    give Omega(x) = sum_k c_k C(x, k), so m! Omega(x) is the sum of
    c_k m!/k! x(x-1)...(x-k+1), by Horner's rule."""
    cond = d.condense()
    if cond.n > CONDENSED_ORDER_LIMIT:
        raise SizeLimitError(
            f"condensed order {cond.n} exceeds the cap {CONDENSED_ORDER_LIMIT}")
    m = cond.n
    weights = [c * math.perm(m, m - k) for k, c in enumerate(
        forward_differences(NonStrictCounter(cond)._count((1 << m) - 1)))]
    values = []
    for x in xs:
        acc = 0
        for k in range(m, -1, -1):
            acc = acc * (x - k) + weights[k]
        values.append(acc)
    return math.factorial(m), values


def nonstrict_count(d: SimpleDigraph, i: int) -> int:
    """Non-strict counter of size i: the order polynomial's value at i."""
    if i < 0:
        raise ValueError("size must be nonnegative")
    return nonstrict_counts(d, (i,))[0]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def nonstrict_path(n: int, i: int) -> int:
    """sigma^ns_i of a directed path: combinations with repetition
    C(i+n-1, n)."""
    if n < 0 or i < 0:
        raise ValueError("arguments must be nonnegative")
    return binomial(i + n - 1, n)


def nonstrict_two_row(n1: int, n2: int, i: int) -> int:
    """Closed form for the two-row grid:

    (1 + n1 (1-i) / ((n2+1) i)) CR_{i,n1} CR_{i,n2};
    the value must be an integer, which is asserted.
    """
    if not (0 <= n1 <= n2):
        raise ValueError("need 0 <= n1 <= n2")
    if i < 1:
        raise ValueError("size must be at least 1")
    value, rem = divmod(((n2 + 1) * i + n1 * (1 - i)) * nonstrict_path(n1, i)
                        * nonstrict_path(n2, i), (n2 + 1) * i)
    if rem:
        raise AssertionError("two-row closed form gave a non-integer")
    return value


# ---------------------------------------------------------------------------
# generating series
# ---------------------------------------------------------------------------

def nonstrict_path_series_fixed_size(j: int, order: int) -> TruncatedSeries:
    """EGF over growing paths at fixed size j: coefficients C(j+i-1, i)/i!.

    Equals exp(X) L_{j-1}(-X) as a series.
    """
    from .algebra import series_from_counters

    if j < 1:
        raise ValueError("size must be at least 1")
    return series_from_counters(
        [binomial(j + i - 1, i) for i in range(order + 1)])


def nonstrict_path_series(order: int) -> TruncatedSeries:
    """EGF over growing paths with size = order: coefficients C(2i-1, i)/i!.

    The i = 0 term is 1 (order-0 convention); the series equals
    (1 + exp(2X) I_0(2X)) / 2.
    """
    from .algebra import series_from_counters

    return series_from_counters(
        [binomial(2 * i - 1, i) for i in range(order + 1)])
