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

Which side visits fewer subsets depends on the digraph: a star whose
leaves are sinks needs 2^(n-1) states peeling sinks, and n peeling
sources (the star, then each leaf on its own).  Mixing the sides from
state to state makes the states stop being down-sets and multiplies them,
so the side is fixed per call: sinks, then sources, each under a budget
of new states that starts at FIRST_BUDGET and grows fourfold per round.
The memo is shared between tries, because an entry is right whichever
side computed it, so an aborted try loses no finished entry.  Counting
linear extensions is #P-complete (Brightwell and Winkler, 1991), so a
call that needs more than STATE_LIMIT new states on both sides refuses
with SizeLimitError.
"""

from __future__ import annotations

from itertools import permutations

from .algebra import multinomial
from .errors import CapExceededError, SizeLimitError
from .graph import (SimpleDigraph, check_mask_limit, full_mask, iter_mask,
                    mask_size)

BRUTE_FORCE_LIMIT = 9
ENUMERATION_ORDER_LIMIT = 12
DEFAULT_ENUMERATION_CAP = 100_000
# new memo states each peel side may add in the first round of the search
FIRST_BUDGET = 64
STATE_LIMIT = 1 << 21


class _OutOfStates(SizeLimitError):
    """A subset recursion used up its budget of new states."""


class _PeelTable:
    """What the strict and non-strict subset recursions share: the arc
    masks of one acyclic digraph, its weak components within a subset, the
    peel side in use and the budget of new memo states left.
    """

    def __init__(self, d: SimpleDigraph):
        self.out = d.out_masks()
        self._inc = d.in_masks()
        self._nbr = [a | b for a, b in zip(self.out, self._inc)]
        # a vertex u of subset S may be peeled when blocked[u] & S == 0
        self._blocked = self.out
        self._left = STATE_LIMIT

    def _components(self, mask: int) -> list[int]:
        """Weak components of the subgraph induced by a nonempty mask."""
        nbr = self._nbr
        comps = []
        rest = mask
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & rest & ~comp
                comp |= frontier
            comps.append(comp)
            rest ^= comp
        return comps

    def _spend(self) -> None:
        """Charge one new memo state to the budget."""
        self._left -= 1
        if self._left < 0:
            raise _OutOfStates(
                "the subset recursion ran past its budget of states")

    def _either_side(self, solve, mask: int):
        """solve(mask), peeling whichever side finishes first under budgets
        that grow fourfold; refuses past STATE_LIMIT on both sides."""
        budget = FIRST_BUDGET
        try:
            while True:
                for blocked in (self.out, self._inc):
                    self._blocked = blocked
                    self._left = min(budget, STATE_LIMIT)
                    try:
                        return solve(mask)
                    except _OutOfStates:
                        pass
                if budget >= STATE_LIMIT:
                    raise SizeLimitError(
                        f"counting needs more than {STATE_LIMIT} subset "
                        "states peeling either sinks or sources")
                budget *= 4
        finally:
            self._blocked = self.out
            self._left = STATE_LIMIT


class CounterTable(_PeelTable):
    """Memoized sigma over vertex subsets of one fixed acyclic digraph.

    ``sigma(mask)`` is the counter of the subgraph induced by ``mask``; on
    its own it peels sinks, and refuses past STATE_LIMIT new states.  The
    table is confined to a single counting call; the empty set counts 1
    (the void disposition).
    """

    def __init__(self, d: SimpleDigraph):
        check_mask_limit(d.n, "subset-memoized counting")
        super().__init__(d)
        self.memo: dict[int, int] = {0: 1}

    def sigma(self, mask: int) -> int:
        got = self.memo.get(mask)
        if got is not None:
            return got
        comps = self._components(mask)
        if len(comps) > 1:
            total = multinomial(mask_size(c) for c in comps)
            for c in comps:
                total *= self.sigma(c)
            return total
        self._spend()
        blocked = self._blocked
        total = 0
        for u in iter_mask(mask):
            if blocked[u] & mask == 0:
                total += self.sigma(mask & ~(1 << u))
        self.memo[mask] = total
        return total

    def _count(self, mask: int) -> int:
        """sigma(mask), with the peel side chosen for this call."""
        return self._either_side(self.sigma, mask)


def count(d: SimpleDigraph) -> int:
    """Number of dispositions of d.

    Zero when a loop was normalized away or when a directed cycle exists.
    """
    if d.had_loop:
        return 0
    check_mask_limit(d.n, "count")
    if not d.is_acyclic():
        return 0
    return CounterTable(d)._count(full_mask(d.n))


def count_bruteforce(d: SimpleDigraph) -> int:
    """Oracle: check every bijection directly.  Only for tiny digraphs."""
    if d.n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute-force counting is capped at {BRUTE_FORCE_LIMIT} vertices")
    if d.had_loop:
        return 0
    arcs = tuple(d.arcs)
    total = 0
    for perm in permutations(range(1, d.n + 1)):
        if all(perm[u] > perm[v] for u, v in arcs):
            total += 1
    return total


def enumerate_dispositions(d: SimpleDigraph,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
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
        raise CapExceededError(
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

    peel(full_mask(d.n), d.n)
    results.sort()
    return results
