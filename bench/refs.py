"""Reference values the benchmark checks CLI output against.

Written from the mathematics, not from the library: nothing here imports
``displab``, so a defect in the library cannot also hide in its reference.
"""

from __future__ import annotations

from math import comb, factorial, prod


def zigzag(n: int) -> int:
    """Euler zigzag number E_n (1, 1, 1, 2, 5, 16, 61, ...), the counter of
    the staircase digraph, by the Seidel-Entringer boustrophedon."""
    row = [1]
    for _ in range(n):
        nxt = [0]
        for value in reversed(row):
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def ballot(n1: int, n2: int) -> int:
    """Counter of the two-row grid with rows n1 <= n2: standard Young
    tableaux of shape (n2, n1)."""
    return comb(n1 + n2, n1) - (comb(n1 + n2, n1 - 1) if n1 else 0)


def hook_length(parents: list[int]) -> int:
    """Linear extensions of a rooted forest: n! over the product of subtree
    orders (Knuth's hook-length formula for trees)."""
    sizes = [1] * len(parents)
    children: list[list[int]] = [[] for _ in parents]
    roots = []
    for v, p in enumerate(parents):
        (children[p] if p >= 0 else roots).append(v)
    order = []
    stack = list(roots)
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    for v in reversed(order):
        sizes[v] += sum(sizes[c] for c in children[v])
    return factorial(len(parents)) // prod(sizes)


def multinomial(parts: list[int]) -> int:
    return factorial(sum(parts)) // prod(factorial(k) for k in parts)


def nonstrict_path(n: int, i: int) -> int:
    """Weakly decreasing maps of a directed path of order n into {1..i}."""
    return comb(i + n - 1, n)


def nonstrict_empty(n: int, i: int) -> int:
    return i ** n


def nonstrict_two_row(n1: int, n2: int, i: int) -> int:
    """Weakly decreasing maps of the two-row grid (rows n1 <= n2) into
    {1..i}, by a transfer over columns: column j holds the long-row value a
    and, while j <= n1, the short-row value b <= a; both rows decrease
    weakly from column to column."""
    # ways[a][b]: maps of columns 1..j ending with values (a, b); b = 0
    # stands for "no short-row vertex in this column"
    ways = [[1 if (0 < a and b <= a and (b > 0) == (n1 > 0)) else 0
             for b in range(i + 1)] for a in range(i + 1)]
    for j in range(2, n2 + 1):
        # suffix sums over a' >= a and b' >= b
        suffix = [[0] * (i + 2) for _ in range(i + 2)]
        for a in range(i, 0, -1):
            for b in range(i, -1, -1):
                suffix[a][b] = (ways[a][b] + suffix[a + 1][b]
                                + suffix[a][b + 1] - suffix[a + 1][b + 1])
        has_short = j <= n1
        ways = [[0] * (i + 1) for _ in range(i + 1)]
        for a in range(1, i + 1):
            if has_short:
                for b in range(1, a + 1):
                    ways[a][b] = suffix[a][b]
            else:
                ways[a][0] = suffix[a][0]
    return sum(map(sum, ways))
