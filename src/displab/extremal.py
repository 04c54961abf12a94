"""Exhaustive search over connected row-grid digraphs of a given order.

Connectivity pins each shift into a finite window (consecutive rows must
share at least one column, since vertical arcs are the only arcs between
rows), so the enumeration is finite without losing any connected spec:

  row i-1 occupies columns [c, c + a_{i-1} - 1] and row i starts at
  c + b_i, so overlap means 1 - a_i <= b_i <= a_{i-1} - 1.

The certified statement: over all connected specs of order m the counter
maxes out exactly at the zigzag number s_m, attained only by digraphs
isomorphic to the zigzag or its reverse.  The grids are counted on the
subset kernel of ``counting`` (``_PeelTable``), under its state budget.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, NamedTuple

from . import counting
from .errors import SizeLimitError
from .families import DispositionalSpec
from .graph import SimpleDigraph

SEARCH_ORDER_LIMIT = 11
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
    """All connected row-grid specs of order m.

    No two give the same labeled digraph: the arcs u -> v with u < v are
    the ones inside rows, so they fix the row lengths, and with them the
    vertex numbering; each pair of consecutive rows has a vertical arc,
    which pins the shift between them.
    """
    for rows, _ in _row_grids(m):
        yield DispositionalSpec(rows)


def _check_order(m: int) -> None:
    if m < 1:
        raise ValueError(f"order must be at least 1, got {m}")
    if m > SEARCH_ORDER_LIMIT:
        raise SizeLimitError(
            f"dispositional enumeration is capped at order {SEARCH_ORDER_LIMIT}")


def _row_grids(m: int) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """The rows of each connected spec of order m, with its cell mask.

    Cell (r, c), in row r and absolute column c, is bit r*(m+1) + c.  A
    connected grid of m cells occupies at most m consecutive columns, all
    in [-(m-1), m-1], and row 0 starts at column 0, so cell (0, 0) is the
    lowest bit, bit 0, every bit is below m*(m+1), and bit b+1 is the cell
    right of b and bit b+m+1 the cell below it, whenever those bits are in
    the grid.
    """
    _check_order(m)
    step = m + 1
    for lengths in _compositions(m):
        windows = [range(1 - lengths[i], lengths[i - 1])
                   for i in range(1, len(lengths))]
        for shifts in product(*windows):
            shifts = (0,) + shifts
            cells = 0
            start = 0
            for r, (a, b) in enumerate(zip(lengths, shifts)):
                start += b
                cells |= ((1 << a) - 1) << (r * step + start)
            yield tuple(zip(lengths, shifts)), cells


class _GridCounter(counting.CounterTable):
    """The counter of the row-grid cell sets of one order m (see _row_grids).

    Arcs run from each cell to the cells right of it and below it, so the
    sinks of a set S are S & ~(S >> 1) & ~(S >> (m+1)), and the subset
    kernel needs no digraph, only neighbour masks for its component split.
    The counter of a set does not change under translation, so the memo
    holds each set shifted down to bit 0 and serves every grid of one
    search: every grid holds bit 0, and ``_join`` shifts each component.
    """

    def __init__(self, m: int):
        self.step = step = m + 1
        self._nbr = [c << 1 | c >> 1 | c << step | c >> step
                     for c in (1 << b for b in range(m * step))]
        self.memo = {0: 1}

    def _join(self, mask: int, comps: list[int]) -> int:
        return super()._join(
            mask, [c >> (c & -c).bit_length() - 1 for c in comps])

    def _peel(self, mask: int) -> int:
        # mask holds bit 0, a cell with no neighbour left of it or above
        # it; so it is a sink only when alone, and every child holds bit 0
        # too, or is empty, and needs no shift
        step, memo = self.step, self.memo
        total = 0
        sinks = mask & ~(mask >> 1) & ~(mask >> step)
        while sinks:
            low = sinks & -sinks
            sinks ^= low
            rest = mask ^ low
            got = memo.get(rest)
            if got is None:
                # the set stays connected when the sink had one neighbour,
                # or two (left and above) joined by the cell above-left
                near = rest & (low >> 1 | low >> step)
                got = self._value(rest, not near & (near - 1)
                                  or rest & low >> step + 1)
            total += got
        return total


def max_counter_search(m: int) -> SearchReport:
    """Maximize the counter over all connected specs of order m; each grid
    is one try of the subset kernel, as each component is in ``count``."""
    _check_order(m)
    grid = _GridCounter(m)
    best = 0
    argmax = []
    total = 0
    for rows, cells in _row_grids(m):
        total += 1
        value = grid._try(cells)
        if value > best:
            best = value
            argmax = []
        if value == best:
            argmax.append(DispositionalSpec(rows))
    return SearchReport(order=m, max_counter=best, argmax_specs=tuple(argmax),
                        total_enumerated=total)


def iso_check(d1: SimpleDigraph, d2: SimpleDigraph) -> bool:
    """Arc-preserving bijection test, brute force over the vertex
    permutations: with equal arc counts, a permutation that maps every arc
    of d1 into d2's arc set is a bijection on arcs."""
    if max(d1.n, d2.n) > ISO_ORDER_LIMIT:
        raise SizeLimitError(
            f"isomorphism check is capped at order {ISO_ORDER_LIMIT}")
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False
    return any(all((p[u], p[v]) in d2.arcs for u, v in d1.arcs)
               for p in permutations(range(d1.n)))
