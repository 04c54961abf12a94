"""Seeded generator of the digraph files the benchmark hands to the CLI.

Everything here is derived from a ``random.Random`` seeded by the caller, so
one seed always yields byte-identical files.  The program under test never
sees the seed, only the files.

Input classes and why each is in the benchmark:

* Random rooted trees, written in both orientations.  The strict counter's
  subset memo on a tree holds one state per ancestor-closed vertex set, so
  bushy and thin trees of the same order differ by orders of magnitude in
  work; drawing the shape at random and keeping it only when its state count
  falls in a scheduled band varies the shape while keeping every seed's total
  kernel work the same.  Away-from-root trees are the case where peeling
  sources (root first) splits the tree into components and peeling sinks
  never does; the reversed trees are the opposite case.
* Sparse random DAGs made of several weak components, written together with
  their reversal and their parts.  They exercise the component split and
  give two reference checks that need no oracle: reversal keeps the counter,
  and a disjoint union counts the multinomial of the part orders times the
  product of the part counters.
* Cyclic digraphs made by blowing up a path, an arcless digraph or a two-row
  grid: every base vertex becomes a strongly connected cluster, and every
  base arc becomes one or more arcs between clusters.  The non-strict
  counter only sees the condensation, which is the base digraph, so its
  closed forms are the reference, while the program has to find and
  collapse the cycles first.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Digraph:
    """A generated digraph: ``n`` vertices and arcs as (u, v) pairs.

    ``arcs`` may repeat a pair or contain loops; the file writer passes
    them through unchanged because the CLI accepts multigraphs.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]

    def reversed(self) -> "Digraph":
        return Digraph(self.n, tuple((v, u) for u, v in self.arcs))


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------

def relabel(d: Digraph, rng: random.Random) -> Digraph:
    """Same digraph under a random vertex permutation, arcs shuffled."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    arcs = [(perm[u], perm[v]) for u, v in d.arcs]
    rng.shuffle(arcs)
    return Digraph(d.n, tuple(arcs))


def disjoint_union(parts: list[Digraph]) -> Digraph:
    arcs = []
    offset = 0
    for p in parts:
        arcs.extend((u + offset, v + offset) for u, v in p.arcs)
        offset += p.n
    return Digraph(offset, tuple(arcs))


def ideal_count(d: Digraph) -> int:
    """Number of predecessor-closed vertex sets of an acyclic digraph.

    This is the number of subset states the sink-peeling counter visits on
    a connected digraph (the empty set included).  Counted by the
    split N(S) = N(S minus everything x reaches) + N(S minus everything
    reaching x), memoized on the surviving set.
    """
    succ = [0] * d.n
    pred = [0] * d.n
    for u, v in d.arcs:
        if u != v:
            succ[u] |= 1 << v
            pred[v] |= 1 << u
    reach = [_closure(x, succ) for x in range(d.n)]
    above = [_closure(x, pred) for x in range(d.n)]
    memo = {0: 1}

    def count(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            x = (mask & -mask).bit_length() - 1
            got = count(mask & ~reach[x]) + count(mask & ~above[x])
            memo[mask] = got
        return got

    return count((1 << d.n) - 1)


def _closure(x: int, nbr: list[int]) -> int:
    seen = 1 << x
    frontier = nbr[x] & ~seen
    while frontier:
        seen |= frontier
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= nbr[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
    return seen


def tree_states(parents: list[int]) -> int:
    """Ancestor-closed vertex sets of a tree, the empty set included: the
    subset states the sink-peeling counter visits, in either orientation."""
    rooted = [1] * len(parents)
    for v in range(len(parents) - 1, 0, -1):
        rooted[parents[v]] *= 1 + rooted[v]
    return 1 + rooted[0]


# ---------------------------------------------------------------------------
# random classes
# ---------------------------------------------------------------------------

def random_tree(rng: random.Random, lo_states: int, hi_states: int,
                orders: tuple[int, int]) -> tuple[list[int], int]:
    """Random rooted tree whose state count lies in [lo_states, hi_states).

    Vertex v > 0 takes its parent among the `window` vertices before it, so
    a window of 1 gives a path and a window of v a random recursive tree;
    the window is drawn per tree, which spreads the shapes from thin to
    bushy.  Parents precede children in the returned array.
    """
    for _ in range(100_000):
        n = rng.randint(*orders)
        window = rng.randint(1, n)
        parents = [-1] + [rng.randrange(max(0, v - window), v)
                          for v in range(1, n)]
        states = tree_states(parents)
        if lo_states <= states < hi_states:
            return parents, states
    raise RuntimeError("no tree in the state band; widen the band")


def tree_digraph(parents: list[int]) -> Digraph:
    """Arcs point away from the root, as the CLI's ``tree:`` family does."""
    return Digraph(len(parents),
                   tuple((p, v) for v, p in enumerate(parents) if p >= 0))


def random_dag_component(rng: random.Random, order: int,
                         extra_arcs: int) -> Digraph:
    """Weakly connected sparse DAG: a random spanning tree whose arcs follow
    a hidden topological order, plus `extra_arcs` forward arcs."""
    pairs = {frozenset((rng.randrange(v), v)) for v in range(1, order)}
    while len(pairs) < order - 1 + extra_arcs:
        pairs.add(frozenset(rng.sample(range(order), 2)))
    # orient every pair along a hidden random order so the result is acyclic
    rank = list(range(order))
    rng.shuffle(rank)
    arcs = sorted(tuple(sorted(p, key=rank.__getitem__)) for p in pairs)
    return Digraph(order, tuple(arcs))


def random_dag_in_band(rng: random.Random, orders: tuple[int, int],
                       lo_states: int, hi_states: int) -> tuple[Digraph, int]:
    """Random weakly connected DAG whose state count lies in
    [lo_states, hi_states)."""
    for _ in range(10_000):
        order = rng.randint(*orders)
        d = random_dag_component(rng, order, rng.randint(0, order // 3))
        states = ideal_count(d)
        if lo_states <= states < hi_states:
            return d, states
    raise RuntimeError("no DAG in the state band; widen the band")


def attach_path(d: Digraph, v: int, length: int, reverse: bool) -> Digraph:
    """`d` with a directed path of `length` new vertices hung at v, pointing
    away from v (or into v when `reverse`), as the companion routes build."""
    arcs = list(d.arcs)
    prev = v
    for z in range(d.n, d.n + length):
        arcs.append((z, prev) if reverse else (prev, z))
        prev = z
    return Digraph(d.n + length, tuple(arcs))


def random_companion_input(rng: random.Random, orders: tuple[int, int],
                           lo_states: int, hi_states: int,
                           reverse: bool) -> tuple[Digraph, int, int]:
    """Random connected DAG and attachment vertex for ``companion``.

    The counters route counts the digraph with paths of length 0..2n-1
    attached at the vertex, so its kernel work is the sum of their state
    counts; the pair is kept when that sum lies in [lo_states, hi_states).
    """
    for _ in range(10_000):
        order = rng.randint(*orders)
        d = random_dag_component(rng, order, rng.randint(0, order // 3))
        v = rng.randrange(order)
        states = sum(ideal_count(attach_path(d, v, i, reverse))
                     for i in range(2 * order))
        if lo_states <= states < hi_states:
            return d, v, states
    raise RuntimeError("no DAG in the state band; widen the band")


def two_row_grid(n1: int, n2: int) -> Digraph:
    """The CLI's ``tworow:n1,n2``: long row v1..v{n2} and short row
    u1..u{n1} are directed paths, and v_j -> u_j for every shared column.
    Short row first, as the CLI numbers it."""
    short = list(range(n1))
    long = list(range(n1, n1 + n2))
    arcs = [(short[j], short[j + 1]) for j in range(n1 - 1)]
    arcs += [(long[j], long[j + 1]) for j in range(n2 - 1)]
    arcs += [(long[j], short[j]) for j in range(n1)]
    return Digraph(n1 + n2, tuple(arcs))


def blow_up(base: Digraph, rng: random.Random, max_cluster: int) -> Digraph:
    """Replace each base vertex by a strongly connected cluster (a directed
    cycle plus chords) and each base arc by one to three arcs between its
    clusters; sprinkle a few loops.  The condensation is the base digraph."""
    clusters = []
    arcs = []
    n = 0
    for _ in range(base.n):
        size = rng.randint(1, max_cluster)
        members = list(range(n, n + size))
        n += size
        clusters.append(members)
        if size > 1:
            arcs += [(members[k], members[(k + 1) % size]) for k in range(size)]
            for _ in range(rng.randint(0, size - 1)):
                arcs.append(tuple(rng.sample(members, 2)))
        if rng.random() < 0.2:
            v = rng.choice(members)
            arcs.append((v, v))
    for u, v in base.arcs:
        for _ in range(rng.randint(1, 3)):
            arcs.append((rng.choice(clusters[u]), rng.choice(clusters[v])))
    return relabel(Digraph(n, tuple(arcs)), rng)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def write_digraph(path: Path, d: Digraph, fmt: str) -> Path:
    """Write `d` as a text edge list ("text") or as JSON ("json")."""
    if fmt == "json":
        body = json.dumps({"n": d.n, "arcs": [list(a) for a in d.arcs]})
    elif fmt == "text":
        body = "\n".join([f"n {d.n}"] + [f"{u} {v}" for u, v in d.arcs])
    else:
        raise ValueError(f"unknown digraph format {fmt!r}")
    path.write_text(body + "\n")
    return path
