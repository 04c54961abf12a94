"""Integer combinatorial primitives.

Kept apart from ``algebra`` so that the integer counting paths load no
``fractions`` (nor the ``decimal`` and ``numbers`` modules it pulls in).
"""

from __future__ import annotations

import math
from typing import Iterable


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


def forward_differences(values: Iterable[int]) -> list[int]:
    """Delta^i v(0) = sum_j (-1)^(i-j) C(i, j) v_j for i = 0..len-1: the
    inverse binomial transform, by repeated differencing."""
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out
