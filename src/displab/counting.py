"""Strict disposition counting: the counter sigma and the dispositions themselves.

A disposition is a bijection f: V -> {1..n} with f(u) > f(v) on every arc
(u, v); sigma counts them.  The counter of an induced subgraph depends only
on its vertex set, so the kernel is a recursion over vertex subsets, with
the recursive decomposition of Kangas, Hankala, Niinimaki and Koivisto
(Counting linear extensions of sparse posets, IJCAI 2016):

* a subset whose underlying graph is disconnected splits into its weak
  components, and its counter is the multinomial of their sizes times
  theirs; only connected subsets are memoized;
* a connected subset sums the counters left after deleting each of its
  peelable vertices: every sink, or every source.

``_PeelTable`` is this recursion for every kind of value it computes: the
counter here, the height distribution in ``companion`` and the order
polynomial in ``nonstrict``.

Which side visits fewer subsets depends on the digraph: a star whose
leaves are sinks needs 2^(n-1) states peeling sinks, and n peeling
sources (the star, then each leaf on its own).  Mixing the sides from
state to state makes the states stop being down-sets and multiplies them,
so ``_count`` peels each weak component of its input from one side, read
off the component's layers.  Peeling sinks strips the sinks, then the
sinks of what is left, and so on; the sizes of these layers are the
side's profile, and a wide early layer leaves many partly peeled subsets.
The side with the lexicographically smaller profile goes first, sinks on
a tie.  Only if it needs more than STATE_LIMIT new states does the other
side get a try, under a fresh STATE_LIMIT.  The memo is shared between
the tries, because an entry is right whichever side computed it.
Counting linear extensions is #P-complete (Brightwell and Winkler, 1991),
so a component that needs more than STATE_LIMIT new states on both sides
refuses with SizeLimitError.
"""

from __future__ import annotations

from itertools import permutations

from .combinatorics import multinomial
from .errors import SizeLimitError
from .graph import (SimpleDigraph, _weak_components, check_mask_limit,
                    iter_mask)

BRUTE_FORCE_LIMIT = 9
ENUMERATION_ORDER_LIMIT = 12
# new memo states each try of a component may add: a random 63-vertex DAG
# that needs more refuses within about 2 s and 21 MB, or 4.5 s at arc
# probability 0.04 (2-vCPU Xeon VM, CPython 3.11)
STATE_LIMIT = 1 << 15


def _layers(blocked: list[int], mask: int):
    """The sizes of the peel layers of mask, u peelable once blocked[u]
    misses what is left: the peelable vertices, then those peelable once
    they are gone, and so on, up to a subset with none: the empty set, or
    one holding a loop or a directed cycle."""
    while layer := sum(1 << u for u in iter_mask(mask)
                       if blocked[u] & mask == 0):
        yield layer.bit_count()
        mask ^= layer


class _PeelTable:
    """The subset recursion that the strict, height and non-strict counters
    share, over the arc and neighbour masks of one acyclic digraph.

    ``memo`` maps the empty set to the value a subclass passes in, and
    every connected subset visited to its value.  ``_value`` hands a
    disconnected subset and its weak components to the subclass's
    ``_join``; a connected subset costs one state of the budget and gets
    its value from the subclass's ``_peel``.
    """

    def __init__(self, d: SimpleDigraph, empty):
        self.out = d.out_masks()
        self._inc = d.in_masks()
        self._nbr = [a | b for a, b in zip(self.out, self._inc)]
        # a vertex u of subset S may be peeled when blocked[u] & S == 0
        self._blocked = self.out
        self._left = STATE_LIMIT
        self.memo: dict = {0: empty}

    def _value(self, mask: int, connected: bool = False):
        """The value of mask; ``connected`` skips the component search."""
        got = self.memo.get(mask)
        if got is not None:
            return got
        if not connected:
            comps = _weak_components(self._nbr, mask)
            if len(comps) > 1:
                return self._join(mask, comps)
        self._left -= 1
        if self._left < 0:
            raise SizeLimitError(
                f"counting needs more than {STATE_LIMIT} subset "
                "states peeling either sinks or sources")
        value = self._peel(mask)
        self.memo[mask] = value
        return value

    def _children(self, mask: int):
        """(u, value of mask - u) for every peelable u of a connected mask.
        Deleting a leaf leaves the rest connected, so its child skips the
        component search."""
        blocked, nbr = self._blocked, self._nbr
        for u in iter_mask(mask):
            if blocked[u] & mask == 0:
                child = mask & ~(1 << u)
                near = nbr[u] & child
                yield u, self._value(child, not near & (near - 1))

    def _count(self, mask: int):
        """The value of mask.  Each weak component peels the side with the
        smaller layer profile, sinks on a tie, and the other side only if
        the first needs more than STATE_LIMIT new states."""
        for comp in _weak_components(self._nbr, mask):
            first, second = sorted((self.out, self._inc),
                                   key=lambda side: [*_layers(side, comp)])
            self._blocked, self._left = first, STATE_LIMIT
            try:
                self._value(comp, True)
            except SizeLimitError:
                self._blocked, self._left = second, STATE_LIMIT
                self._value(comp, True)
        return self._value(mask)


class CounterTable(_PeelTable):
    """Memoized sigma over vertex subsets of one fixed acyclic digraph.

    ``sigma(mask)`` is the counter of the subgraph induced by ``mask``; on
    its own it peels sinks, and refuses past STATE_LIMIT new states.  The
    table is confined to a single counting call; the empty set counts 1
    (the void disposition).
    """

    def __init__(self, d: SimpleDigraph):
        check_mask_limit(d.n, "subset-memoized counting")
        super().__init__(d, 1)

    def _join(self, mask: int, comps: list[int]) -> int:
        total = multinomial(c.bit_count() for c in comps)
        for c in comps:
            total *= self._value(c, True)
        return total

    def _peel(self, mask: int) -> int:
        total = 0
        for _, x in self._children(mask):
            total += x
        return total


def count(d: SimpleDigraph) -> int:
    """Number of dispositions of d.

    Zero when a loop or a directed cycle exists, at any order.
    """
    if not d.is_acyclic():
        return 0
    check_mask_limit(d.n, "count")
    return CounterTable(d)._count((1 << d.n) - 1)


def count_bruteforce(d: SimpleDigraph) -> int:
    """Oracle: check every bijection directly.  Only for tiny digraphs."""
    if d.n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute-force counting is capped at {BRUTE_FORCE_LIMIT} vertices")
    arcs = tuple(d.arcs)
    total = 0
    for perm in permutations(range(1, d.n + 1)):
        if all(perm[u] > perm[v] for u, v in arcs):
            total += 1
    return total


def enumerate_dispositions(d: SimpleDigraph,
                           cap: int) -> list[tuple[int, ...]]:
    """All dispositions, built by peeling maximum points.

    The vertex receiving the largest remaining value must be a source of the
    surviving subgraph, and every disposition arises exactly once this way.
    Output is sorted by the value tuple (mapping[0], ..., mapping[n-1]).
    """
    if d.n > ENUMERATION_ORDER_LIMIT:
        raise SizeLimitError(
            f"disposition enumeration is capped at {ENUMERATION_ORDER_LIMIT} vertices")
    total = count(d)
    if total > cap:
        raise SizeLimitError(
            f"digraph has {total} dispositions, more than the cap {cap}")
    if total == 0:
        return []
    inc = d.in_masks()
    results: list[tuple[int, ...]] = []
    values = [0] * d.n

    def peel(mask: int, value: int) -> None:
        if mask == 0:
            results.append(tuple(values))
            return
        for v in iter_mask(mask):
            if inc[v] & mask == 0:
                values[v] = value
                peel(mask & ~(1 << v), value - 1)

    peel((1 << d.n) - 1, d.n)
    results.sort()
    return results
