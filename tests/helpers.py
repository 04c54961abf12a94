"""Shared helpers for the test suite."""

from fractions import Fraction
from math import comb, factorial, gcd, prod

from displab import counting
from displab.algebra import (ONE, ZERO, Polynomial, binomial, laguerre,
                             monomial, multinomial, pochhammer)
from displab.families import staircase_counter, two_row_counter
from displab.graph import SimpleDigraph, _weak_components, iter_mask
from displab.ode import Ode2, _step


def random_simple_digraph(rng, n, p=None):
    """Random loop-free digraph on n vertices with arc probability p."""
    if p is None:
        p = rng.choice((0.1, 0.2, 0.35, 0.5))
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return SimpleDigraph(n, arcs)


def random_acyclic_digraph(rng, n, p=None):
    """Random DAG: arcs only from smaller to larger index, then shuffled."""
    if p is None:
        p = rng.choice((0.2, 0.35, 0.5))
    relabel = list(range(n))
    rng.shuffle(relabel)
    arcs = [(relabel[u], relabel[v]) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]
    return SimpleDigraph(n, arcs)


def random_tree_parents(rng, n):
    """Uniformly random parent array: parent of v is drawn from 0..v-1."""
    return [-1] + [rng.randrange(v) for v in range(1, n)]


def all_digraphs(n):
    """Every loop-free digraph on n vertices (2^(n(n-1)) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        arcs = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield SimpleDigraph(n, arcs)


def disjoint_union(*digraphs):
    """The digraphs side by side, each relabeled after the ones before."""
    arcs = []
    n = 0
    for d in digraphs:
        arcs += [(u + n, v + n) for u, v in d.arcs]
        n += d.n
    return SimpleDigraph(n, arcs)


def zigzag_by_source_peeling(count):
    """Oracle: the zigzag numbers s_0, ..., s_{count-1} by the source-peeling
    recurrence s_n = sum over 0 <= i <= (n-1)//2 of C(n-1, 2i) s_{2i}
    s_{n-2i-1}, each read off the list of those before it."""
    s = [1, 1][:count]
    for n in range(2, count):
        s.append(sum(comb(n - 1, 2 * i) * s[2 * i] * s[n - 2 * i - 1]
                     for i in range((n - 1) // 2 + 1)))
    return s


def laguerre_basis_polys(n):
    """Oracle: [X^i d^i/dX^i L_n(X) for i = 0..n], by differentiating L_n."""
    out = []
    p = laguerre(n)
    for i in range(n + 1):
        out.append(monomial(i) * p)
        p = p.derivative()
    return out


def decompose_by_triangular_solve(p, n):
    """Oracle: (c_0..c_n) with p = sum c_i X^i d^i L_n, solved degree by
    degree; the i-th basis polynomial starts at X^i with coefficient
    (-1)^i C(n, i)."""
    basis = laguerre_basis_polys(n)
    coeffs = []
    rem = p
    for i in range(n + 1):
        c = rem.coefficient(i) / basis[i].coefficient(i)
        coeffs.append(c)
        if c:
            rem = rem - c * basis[i]
    assert rem.is_zero(), "triangular solve left a nonzero remainder"
    return tuple(coeffs)


def ab_reduction(n):
    """Oracle: polynomials with X^i d^i L_n = a[i] L_n + b[i] L_n' for
    i = 0..n, one module derivative ``ode._step`` at a time from
    (a[0], b[0]) = (1, 0)."""
    a, b = [ONE], [ZERO]
    for i in range(n):
        next_a, next_b = _step(a[-1], b[-1], i, n)
        a.append(next_a)
        b.append(next_b)
    return a, b


def mask_from(vertices):
    return sum(1 << v for v in set(vertices))


def underlying_components(d):
    """Weak components of d as masks, ordered by least vertex."""
    nbr = [a | b for a, b in zip(d.out_masks(), d.in_masks())]
    return _weak_components(nbr, (1 << d.n) - 1)


def induced_subgraph(d, keep):
    """The subgraph on a vertex set or mask, renumbered in increasing order."""
    old = sorted(iter_mask(keep) if isinstance(keep, int) else keep)
    renum = {v: i for i, v in enumerate(old)}
    return SimpleDigraph(len(old), [(renum[u], renum[v]) for u, v in d.arcs
                                    if u in renum and v in renum])


def sinks_and_sources(d):
    """(sinks, sources) as masks: no out-arc, and no in-arc."""
    full = (1 << d.n) - 1
    return (full & ~mask_from(u for u, _ in d.arcs),
            full & ~mask_from(v for _, v in d.arcs))


def attach_path(d, v, length, reverse=False):
    """d with v -> z1 -> ... -> z_length attached, reversed with `reverse`."""
    chain = [v, *range(d.n, d.n + length)]
    path = {(b, a) if reverse else (a, b) for a, b in zip(chain, chain[1:])}
    return SimpleDigraph(d.n + length, d.arcs | path)


def tree_refusal(parents):
    """Oracle: None when the parent array encodes a rooted tree, that is,
    when it has exactly one root and each vertex's parent chain reaches
    that root within n steps; otherwise the message ``make_rooted_tree``
    refuses it with.  A self-parent is a loop, and so a cycle."""
    n = len(parents)
    roots = [v for v, p in enumerate(parents) if p < 0]
    if len(roots) != 1:
        return "parent array must have exactly one root"
    high = [p for p in parents if p >= n]
    if high:
        return f"parent {high[0]} out of range"
    root = roots[0]
    for v in range(n):
        for _ in range(n):
            v = root if v == root else parents[v]
        if v != root:
            return "parent array does not encode a tree"
    return None


def antiderivative(p, constant=0):
    """The antiderivative of p with the given constant term."""
    return Polynomial([constant, *(c / i for i, c in enumerate(p.coeffs, 1))])


def content_normalized(p):
    """p over its content, with a positive leading coefficient."""
    g = gcd(*p.num) or 1
    return Polynomial.from_numerators(p.num, g if p.leading() > 0 else -g)


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


def staircase_path_counter_closed(n: int, i: int) -> int:
    """Alternating closed form for f(n, i) in terms of zigzag numbers."""
    half = i // 2
    total = (-1) ** half * staircase_counter(n + i)
    for j in range(half):
        total += ((-1) ** j * binomial(n + i, i - 2 * j - 1)
                  * staircase_counter(n + 2 * j + 1))
    return total


def two_row_ode_closed(n1: int, n2: int, r: int) -> Ode2:
    """Oracle: the printed closed forms of the two-row equations at v_r,
    r in {2, 3}; they vanish identically at four small triples."""
    if r not in (2, 3):
        raise ValueError("closed-form equations exist for r in {2, 3} only")
    s = n1 + n2
    if r == 2:
        alpha = pochhammer(s - 2, 3) * pochhammer(s - 1, 2)
        beta = n1 * (n2 + 1) * (n1**2 + n2**2 + n1 * n2 - 2 * n1 - n2)
        gamma = pochhammer(s - 2, 3) * (
            n1**3 + n2**3 + 3 * n1**2 * n2 + 3 * n1 * n2**2
            - 3 * n1**2 - 3 * n2**2 - 7 * n1 * n2 + n1 + 2 * n2)
        u = Polynomial((0, alpha, beta))
        v = Polynomial((alpha, alpha, beta))
        w = -Polynomial((gamma, (s - 2) * beta))
    else:
        alpha = pochhammer(s - 4, 5) * pochhammer(s - 3, 4)
        beta = 2 * n1 * (n2 + 1) * (
            n1**6 + 7 * n1**5 * (n2 - 2)
            + n1**4 * (15 * n2**2 - 72 * n2 + 77)
            + n1**3 * (16 * n2**3 - 119 * n2**2 + 279 * n2 - 208)
            + n1**2 * (15 * n2**4 - 107 * n2**3 + 333 * n2**2 - 490 * n2 + 276)
            + n1 * (7 * n2**5 - 67 * n2**4 + 227 * n2**3 - 384 * n2**2
                    + 352 * n2 - 144)
            + n2 * (n2**5 - 15 * n2**4 + 74 * n2**3 - 156 * n2**2
                    + 144 * n2 - 48))
        gamma = 2 * pochhammer(n1 - 1, 2) * pochhammer(n2, 2) * (s - 2) * (
            -3 * n1 + n1**2 + (n2 - 1) * n2)
        delta = 2 * n1 * (n2 + 1) * (
            n1**6 + 7 * n1**5 * (n2 - 2)
            + n1**4 * (15 * n2**2 - 73 * n2 + 77)
            + n1**3 * (16 * n2**3 - 120 * n2**2 + 285 * n2 - 208)
            + n1**2 * (15 * n2**4 - 108 * n2**3 + 338 * n2**2 - 501 * n2 + 276)
            + n1 * (7 * n2**5 - 68 * n2**4 + 231 * n2**3 - 390 * n2**2
                    + 358 * n2 - 144)
            + n2 * (n2**5 - 15 * n2**4 + 75 * n2**3 - 159 * n2**2
                    + 146 * n2 - 48))
        epsilon = pochhammer(s - 4, 5) * (
            6 * n1 - 29 * n1**2 + 27 * n1**3 - 9 * n1**4 + n1**5
            + 18 * n2 - 78 * n1 * n2 + 91 * n1**2 * n2 - 38 * n1**3 * n2
            + 5 * n1**4 * n2 - 39 * n2**2 + 97 * n1 * n2**2
            - 60 * n1**2 * n2**2 + 10 * n1**3 * n2**2 + 29 * n2**3
            - 38 * n1 * n2**3 + 10 * n1**2 * n2**3 - 9 * n2**4
            + 5 * n1 * n2**4 + n2**5)
        zeta = 2 * n1 * (n2 + 1) * (s - 4) * (
            n1**6 + n1**5 * (7 * n2 - 13)
            + n1**4 * (15 * n2**2 - 68 * n2 + 67)
            + n1**3 * (16 * n2**3 - 114 * n2**2 + 249 * n2 - 171)
            + n1**2 * (15 * n2**4 - 102 * n2**3 + 302 * n2**2 - 414 * n2 + 216)
            + n1 * (7 * n2**5 - 63 * n2**4 + 203 * n2**3 - 327 * n2**2
                    + 282 * n2 - 108)
            + n2 * (n2**5 - 14 * n2**4 + 65 * n2**3 - 130 * n2**2
                    + 114 * n2 - 36))
        u = Polynomial((0, alpha, beta, gamma))
        v = Polynomial((alpha, alpha, delta, gamma))
        w = -Polynomial((epsilon, zeta, (s - 3) * gamma))
    if u.is_zero() and v.is_zero() and w.is_zero():
        raise ValueError(f"the closed-form two-row equation vanishes "
                         f"identically at n1={n1}, n2={n2}, r={r}")
    return Ode2(u, v, w)


def catalan_ode_closed(n: int, r: int) -> Ode2:
    """Oracle: the printed equal-rows forms of the two-row equations,
    simplified at n1 = n2 = n, for r in {2, 3}."""
    if r == 2:
        c = 8 * (2 * n - 1) ** 2
        u = Polynomial((0, c, 3 * (n + 1)))
        v = Polynomial((c, c, 3 * (n + 1)))
        w = Polynomial((-4 * (2 * n - 1) * (8 * n**2 - 13 * n + 3),
                        6 * (n + 1) * (1 - n)))
        return Ode2(u, v, w)
    if r == 3:
        quart = 72 - 384 * n + 704 * n**2 - 512 * n**3 + 128 * n**4
        u = Polynomial((0, quart, 48 - 25 * n - 42 * n**2 + 31 * n**3,
                        2 * n + 2 * n**2))
        v = Polynomial((quart, quart, 48 - 27 * n - 44 * n**2 + 31 * n**3,
                        2 * n + 2 * n**2))
        w = -2 * Polynomial((
            -72 + 558 * n - 1438 * n**2 + 1560 * n**3 - 744 * n**4 + 128 * n**5,
            -72 + 90 * n + 37 * n**2 - 94 * n**3 + 31 * n**4,
            -3 * n - n**2 + 2 * n**3))
        return Ode2(u, v, w)
    raise ValueError("simplified equations exist for r in {2, 3} only")


def tree_counter(parents: list[int]) -> int:
    """Oracle: the counter of a rooted tree on n vertices, n! over the
    product of its subtree orders (the hook-length formula)."""
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    root = -1
    for v, p in enumerate(parents):
        if p < 0:
            root = v
        elif p < n:
            children[p].append(v)
        else:
            raise ValueError(f"parent {p} out of range")
    if root < 0:
        raise ValueError("no root in parent array")
    # breadth-first from the root, so every child comes after its parent
    order = [root]
    for v in order:
        order.extend(children[v])
    if len(order) != n:
        raise ValueError("parent array is not a single tree")
    sizes = [1] * n
    for v in reversed(order[1:]):
        sizes[parents[v]] += sizes[v]
    return factorial(n) // prod(sizes)


def qary_level_counter(q: int, level: int) -> int:
    """Oracle: the counter of the complete q-ary tree of `level` levels,
    sigma(level 1) = 1 and sigma(level n+1) = multinomial(q equal parts) *
    sigma(level n)^q, each part of size (q^n - 1)/(q - 1)."""
    if q < 2 or level < 1:
        raise ValueError("need q >= 2 and level >= 1")
    value = 1
    for m in range(1, level):
        part = (q**m - 1) // (q - 1)
        value = multinomial([part] * q) * value**q
    return value


def nonstrict_empty(n: int, i: int) -> int:
    """Oracle: the arcless digraph on n vertices takes any of i values at
    each vertex, so sigma^ns_i = i^n."""
    return i**n


def charged_steps(monkeypatch) -> list[int]:
    """Patch the subset kernel to list the steps that each try charges,
    STATE_LIMIT + 1 for a try that refuses."""
    steps = []
    try_ = counting._PeelTable._try

    def spy(self, mask):
        try:
            return try_(self, mask)
        finally:
            steps.append(counting.STATE_LIMIT - self._left)

    monkeypatch.setattr(counting._PeelTable, "_try", spy)
    return steps
