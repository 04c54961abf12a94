"""Shared helpers for the test suite."""

from math import comb

from displab.algebra import ONE, ZERO, laguerre, monomial
from displab.graph import SimpleDigraph
from displab.ode import _step


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
