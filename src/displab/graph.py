"""Digraph values and the structural queries every counting routine uses.

Vertices are dense 0-based indices.  Vertex subsets travel as int bitmasks,
which is what makes the subset-memoized counters cheap; algorithms that key
on subsets refuse digraphs with more than 63 vertices.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ParseError, SizeLimitError

MASK_VERTEX_LIMIT = 63


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_mask(mask: int) -> Iterator[int]:
    """Yield the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_size(mask: int) -> int:
    return mask.bit_count()


def check_mask_limit(n: int, what: str = "subset-memoized operation") -> None:
    if n > MASK_VERTEX_LIMIT:
        raise SizeLimitError(
            f"{what} supports at most {MASK_VERTEX_LIMIT} vertices, got {n}"
        )


def check_order(order: int, max_order: int | None, more: bool = False) -> None:
    """Refuse a digraph of `order` vertices (at least that many, with
    `more`) above the CLI's order cap; None means no cap."""
    if max_order is not None and order > max_order:
        size = f"at least {order}" if more else order
        raise SizeLimitError(
            f"digraph order {size} exceeds --max-order {max_order}")


# ---------------------------------------------------------------------------
# multidigraphs and simple digraphs
# ---------------------------------------------------------------------------

class Multidigraph:
    """Raw input digraph: parallel arcs and loops allowed.

    Arcs are stored as a tuple of ordered pairs; repetitions encode
    multiplicity.
    """

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcs = tuple((int(u), int(v)) for u, v in arcs)
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)

    def __setattr__(self, name, value):
        raise AttributeError("Multidigraph is immutable")

    def multiplicity(self, u: int, v: int) -> int:
        return sum(1 for a in self.arcs if a == (u, v))


class SimpleDigraph:
    """Loop-free digraph with at most one arc per ordered pair.

    ``had_loop`` is sticky metadata recorded by :func:`normalize`: a loop
    forces the strict counter to zero, and keeping the flag lets the counting
    modules short-circuit without rescanning the arc multiset.
    """

    __slots__ = ("n", "arcs", "had_loop")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = (),
                 had_loop: bool = False):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcset = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arcset:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop ({u},{u}) not allowed in SimpleDigraph")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcset)
        object.__setattr__(self, "had_loop", bool(had_loop))

    def __setattr__(self, name, value):
        raise AttributeError("SimpleDigraph is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, SimpleDigraph):
            return (self.n, self.arcs, self.had_loop) == (
                other.n, other.arcs, other.had_loop)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.arcs, self.had_loop))

    def __repr__(self):
        arcs = sorted(self.arcs)
        return f"SimpleDigraph({self.n}, {arcs})"

    # -- adjacency --------------------------------------------------------

    def out_masks(self) -> list[int]:
        """out_masks()[u] = bitmask of successors of u."""
        out = [0] * self.n
        for u, v in self.arcs:
            out[u] |= 1 << v
        return out

    def in_masks(self) -> list[int]:
        inc = [0] * self.n
        for u, v in self.arcs:
            inc[v] |= 1 << u
        return inc

    # -- structural queries -------------------------------------------------

    def reverse(self) -> "SimpleDigraph":
        return SimpleDigraph(self.n, ((v, u) for u, v in self.arcs),
                             had_loop=self.had_loop)

    def induced_subgraph(self, keep: int | Iterable[int]) -> "SimpleDigraph":
        """Subgraph on the given vertices, reindexed in increasing order.

        Loop provenance is not tracked per vertex, so the flag resets.
        """
        mask = keep if isinstance(keep, int) else mask_from(keep)
        if mask & ~full_mask(self.n):
            raise ValueError("keep set is not a subset of the vertex range")
        old = list(iter_mask(mask))
        renum = {v: i for i, v in enumerate(old)}
        arcs = [(renum[u], renum[v]) for u, v in self.arcs
                if u in renum and v in renum]
        return SimpleDigraph(len(old), arcs)

    def sinks_and_sources(self) -> tuple[int, int]:
        """(sinks, sources) as bitmasks.

        Sinks are the minimum points (out-degree 0) and sources the maximum
        points (in-degree 0).
        """
        sinks = full_mask(self.n)
        sources = full_mask(self.n)
        for u, v in self.arcs:
            sinks &= ~(1 << u)
            sources &= ~(1 << v)
        return sinks, sources

    def underlying_components(self) -> list[int]:
        """Weakly connected components as bitmasks, ordered by least vertex."""
        nbr = [a | b for a, b in zip(self.out_masks(), self.in_masks())]
        return _weak_components(nbr, full_mask(self.n))

    def is_acyclic(self) -> bool:
        indeg = [0] * self.n
        out = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            indeg[v] += 1
            out[u].append(v)
        queue = [v for v in range(self.n) if indeg[v] == 0]
        removed = 0
        while queue:
            v = queue.pop()
            removed += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return removed == self.n

    def condense(self) -> "SimpleDigraph":
        """Strong-component quotient: always acyclic, loops and duplicate
        arcs created by the quotient removed.  Components are numbered by
        their least original vertex so the result is deterministic.
        """
        comp = _strong_components(self)
        comps = sorted(set(comp.values()), key=lambda c: min(
            v for v, cid in comp.items() if cid == c))
        renum = {cid: i for i, cid in enumerate(comps)}
        arcs = set()
        for u, v in self.arcs:
            cu, cv = renum[comp[u]], renum[comp[v]]
            if cu != cv:
                arcs.add((cu, cv))
        return SimpleDigraph(len(comps), arcs)

    def attach_path(self, v: int, length: int,
                    reverse: bool = False) -> "SimpleDigraph":
        """Append a directed path of `length` new vertices at v.

        Forward: v -> z1 -> z2 -> ...; reverse: ... -> z2 -> z1 -> v.
        length = 0 returns the digraph unchanged.
        """
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")
        if length < 0:
            raise ValueError("path length must be nonnegative")
        if length == 0:
            return self
        arcs = set(self.arcs)
        prev = v
        for k in range(length):
            z = self.n + k
            arcs.add((z, prev) if reverse else (prev, z))
            prev = z
        return SimpleDigraph(self.n + length, arcs, had_loop=self.had_loop)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "arcs": [list(a) for a in sorted(self.arcs)]}


def _weak_components(nbr: list[int], mask: int) -> list[int]:
    """Weak components of the subgraph induced by a mask, ordered by least
    vertex, where nbr[u] is the mask of u's neighbours either way."""
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


def _strong_components(d: SimpleDigraph) -> dict[int, int]:
    """Iterative Tarjan; returns vertex -> component id (ids arbitrary)."""
    out = [[] for _ in range(d.n)]
    for u, v in sorted(d.arcs):
        out[u].append(v)
    index = {}
    lowlink = {}
    on_stack = set()
    stack: list[int] = []
    comp: dict[int, int] = {}
    counter = 0
    next_comp = 0
    for root in range(d.n):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while pi < len(out[v]):
                w = out[v][pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = next_comp
                    if w == v:
                        break
                next_comp += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return comp


# ---------------------------------------------------------------------------
# normalization and parsing
# ---------------------------------------------------------------------------

def normalize(g: Multidigraph) -> SimpleDigraph:
    """Collapse parallel arcs and strip loops, remembering that a loop existed.

    Replacing parallel arcs by a single arc never changes any counter; a loop
    makes the strict counter zero, which the flag records.
    """
    had_loop = any(u == v for u, v in g.arcs)
    arcs = {(u, v) for u, v in g.arcs if u != v}
    return SimpleDigraph(g.n, arcs, had_loop=had_loop)


def parse_digraph_text(text: str) -> Multidigraph:
    """Text format: first line "n <count>", then one arc "u v" per line.

    Duplicate lines encode multiplicity.  Blank lines and lines starting
    with '#' are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty digraph description")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ParseError(f'first line must be "n <count>", got {lines[0]!r}')
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad vertex count {head[1]!r}") from exc
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad arc line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad arc line {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc ({u},{v}) out of range for n={n}")
        arcs.append((u, v))
    return Multidigraph(n, arcs)


def parse_digraph_json(data) -> Multidigraph:
    """JSON format: {"n": int, "arcs": [[u, v], ...]}."""
    if isinstance(data, (str, bytes)):
        import json

        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad digraph JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError('digraph JSON must be an object with an "n" key')
    try:
        n = int(data["n"])
        arcs = [(int(u), int(v)) for u, v in data.get("arcs", [])]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad digraph JSON: {exc}") from exc
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc ({u},{v}) out of range for n={n}")
    return Multidigraph(n, arcs)
