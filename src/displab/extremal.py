"""Exhaustive search over connected row-grid digraphs of a given order.

Connectivity pins each shift into a finite window (consecutive rows must
share at least one column, since vertical arcs are the only arcs between
rows), so the enumeration is finite without losing any connected spec:

  row i-1 occupies columns [c, c + a_{i-1} - 1] and row i starts at
  c + b_i, so overlap means 1 - a_i <= b_i <= a_{i-1} - 1.

The certified statement: over all connected specs of order m the counter
maxes out exactly at the zigzag number s_m, attained only by digraphs
isomorphic to the zigzag or its reverse.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .counting import count
from .errors import SizeLimitError
from .families import DispositionalSpec, make_dispositional
from .graph import SimpleDigraph

SEARCH_ORDER_LIMIT = 8
ISO_ORDER_LIMIT = 8


class SearchReport(NamedTuple):
    order: int
    max_counter: int
    argmax_specs: tuple[DispositionalSpec, ...]
    total_enumerated: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "max_counter": self.max_counter,
            "argmax_specs": [s.to_json() for s in self.argmax_specs],
            "total_enumerated": self.total_enumerated,
        }


def _compositions(m: int) -> Iterator[tuple[int, ...]]:
    """Compositions of m into positive parts, lexicographic."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in _compositions(m - first):
            yield (first,) + rest


def enumerate_connected_dispositional(m: int) -> Iterator[DispositionalSpec]:
    """All connected row-grid specs of order m, deduplicated by arc set.

    Distinct specs can produce identical labeled digraphs (a single row of
    two and two overlapping rows of one both give the same path), so
    deduplication fingerprints the digraph, not the spec text.
    """
    for spec, _ in _connected_digraphs(m):
        yield spec


def _connected_digraphs(m: int
                        ) -> Iterator[tuple[DispositionalSpec, SimpleDigraph]]:
    """Each spec of enumerate_connected_dispositional(m) with its digraph."""
    if m < 1:
        raise ValueError(f"order must be at least 1, got {m}")
    if m > SEARCH_ORDER_LIMIT:
        raise SizeLimitError(
            f"dispositional enumeration is capped at order {SEARCH_ORDER_LIMIT}")
    seen: set[frozenset] = set()
    for lengths in _compositions(m):
        windows = [range(1 - lengths[i], lengths[i - 1])
                   for i in range(1, len(lengths))]
        for shifts in product(*windows):
            spec = DispositionalSpec(
                tuple((lengths[i], 0 if i == 0 else shifts[i - 1])
                      for i in range(len(lengths))))
            digraph = make_dispositional(spec)
            key = digraph.arcs
            if key in seen:
                continue
            seen.add(key)
            yield spec, digraph


def max_counter_search(m: int, parallel: bool = False) -> SearchReport:
    """Maximize the counter over all connected specs of order m.

    ``parallel`` is accepted and ignored: counting is pure Python, so a
    thread pool under the interpreter lock only added time.
    """
    specs = []
    counters = []
    for spec, digraph in _connected_digraphs(m):
        specs.append(spec)
        counters.append(count(digraph))
    best = max(counters)
    argmax = tuple(s for s, c in zip(specs, counters) if c == best)
    return SearchReport(order=m, max_counter=best, argmax_specs=argmax,
                        total_enumerated=len(specs))


def iso_check(d1: SimpleDigraph, d2: SimpleDigraph) -> bool:
    """Arc-preserving bijection test, brute force with degree pruning."""
    if max(d1.n, d2.n) > ISO_ORDER_LIMIT:
        raise SizeLimitError(
            f"isomorphism check is capped at order {ISO_ORDER_LIMIT}")
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False

    def signature(d: SimpleDigraph) -> list[tuple[int, int]]:
        out = [0] * d.n
        inc = [0] * d.n
        for u, v in d.arcs:
            out[u] += 1
            inc[v] += 1
        return list(zip(out, inc))

    sig1, sig2 = signature(d1), signature(d2)
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = [[w for w in range(d2.n) if sig2[w] == sig1[v]]
                  for v in range(d1.n)]
    arcs2 = d2.arcs

    def extend(v: int, image: list[int], used: set[int]) -> bool:
        if v == d1.n:
            return True
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u in range(v):
                if ((u, v) in d1.arcs) != ((image[u], w) in arcs2):
                    ok = False
                    break
                if ((v, u) in d1.arcs) != ((w, image[u]) in arcs2):
                    ok = False
                    break
            if ok:
                image.append(w)
                used.add(w)
                if extend(v + 1, image, used):
                    return True
                image.pop()
                used.discard(w)
        return False

    return extend(0, [], set())
