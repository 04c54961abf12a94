"""Digraph values and the structural queries every counting routine uses.

Vertices are dense 0-based indices.  Vertex subsets travel as int bitmasks,
which is what makes the subset-memoized counters cheap.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ParseError, SizeLimitError, _decimal


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def iter_mask(mask: int) -> Iterator[int]:
    """Yield the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(order: int, max_order: int, more: bool = False) -> None:
    """Refuse a digraph of `order` vertices (at least that many, with
    `more`) above the CLI's order cap."""
    if order > max_order:
        size = f"at least {order}" if more else order
        raise SizeLimitError(
            f"digraph order {size} exceeds --max-order {max_order}")


# ---------------------------------------------------------------------------
# simple digraphs
# ---------------------------------------------------------------------------

def _check_count(n) -> None:
    if type(n) is not int:
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")


def _check_arc(u, v, n: int) -> None:
    if type(u) is not int or type(v) is not int:
        raise ValueError(f"arc endpoints must be integers, got ({u!r}, {v!r})")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"arc ({u},{v}) out of range for n={n}")


class SimpleDigraph:
    """Digraph with at most one arc per ordered pair.

    A loop (u, u) is an arc like any other: it asks f(u) > f(u) of a
    disposition, which no map meets, and f(u) >= f(u) of a non-strict one,
    which every map meets.
    """

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        _check_count(n)
        arcset = frozenset((u, v) for u, v in arcs)
        for u, v in arcset:
            _check_arc(u, v, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcset)

    def __setattr__(self, name, value):
        raise AttributeError("SimpleDigraph is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, SimpleDigraph):
            return (self.n, self.arcs) == (other.n, other.arcs)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.arcs))

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
        return SimpleDigraph(self.n, ((v, u) for u, v in self.arcs))

    def is_acyclic(self) -> bool:
        """No loop, and every strong component is a single vertex."""
        return (all(u != v for u, v in self.arcs)
                and len(set(_strong_components(self))) == self.n)

    def condense(self) -> "SimpleDigraph":
        """Strong-component quotient, always acyclic: loops, and duplicate
        arcs the quotient creates, are removed.  Components are numbered by
        their least original vertex so the result is deterministic.
        """
        renum: dict[int, int] = {}
        comp = [renum.setdefault(c, len(renum))
                for c in _strong_components(self)]
        arcs = {(comp[u], comp[v]) for u, v in self.arcs if comp[u] != comp[v]}
        return SimpleDigraph(len(renum), arcs)

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


def _strong_components(d: SimpleDigraph) -> list[int]:
    """Strong component of each vertex, named by one of its vertices, by
    Kosaraju-Sharir (Sharir, 1981).

    A depth-first walk of d lists the vertices by finishing time.  Walking
    the reversal from each unnamed vertex, latest finisher first, then
    names exactly one strong component.  Both walks keep explicit stacks,
    so a long path costs no recursion.
    """
    out: list[list[int]] = [[] for _ in range(d.n)]
    inc: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in d.arcs:
        out[u].append(v)
        inc[v].append(u)
    seen = [False] * d.n
    finished = []
    # a virtual root -1, with an arc to every vertex, starts the walk and
    # finishes last
    walk = [(-1, iter(range(d.n)))]
    while walk:
        v, succ = walk[-1]
        for w in succ:
            if not seen[w]:
                seen[w] = True
                walk.append((w, iter(out[w])))
                break
        else:
            walk.pop()
            finished.append(v)
    finished.pop()  # the virtual root
    comp = [-1] * d.n
    for root in reversed(finished):
        if comp[root] < 0:
            comp[root] = root
            todo = [root]
            while todo:
                for u in inc[todo.pop()]:
                    if comp[u] < 0:
                        comp[u] = root
                        todo.append(u)
    return comp


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_digraph_text(text, max_order: int) -> SimpleDigraph:
    """Text format: first line "n <count>", then one arc "u v" per line.

    ``text`` is a string or an iterable of lines, such as an open file,
    which is read one line at a time: only the set of arcs is kept, and a
    count above ``max_order`` is refused before any arc line is read.
    Duplicate lines collapse into one arc, which never changes a counter.
    Blank lines and lines starting with '#' are ignored.
    """
    # a file's line may still hold separators that str.splitlines breaks
    # at, such as form feeds, so a file splits as its whole text would
    lines = (ln.strip() for raw in ([text] if isinstance(text, str) else text)
             for ln in raw.splitlines())
    lines = (ln for ln in lines if ln and not ln.startswith("#"))
    first = next(lines, None)
    if first is None:
        raise ParseError("empty digraph description")
    head = first.split()
    if len(head) != 2 or head[0] != "n":
        raise ParseError(f'first line must be "n <count>", got {first!r}')
    try:
        n = _decimal(head[1])
    except ValueError as exc:
        raise ParseError(f"bad vertex count {head[1]!r}") from exc
    check_order(n, max_order)
    arcs = set()
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad arc line {ln!r}")
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad arc line {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc ({u},{v}) out of range for n={n}")
        arcs.add((u, v))
    return SimpleDigraph(n, arcs)


def parse_digraph_json(data, max_order: int) -> SimpleDigraph:
    """JSON format: {"n": int, "arcs": [[u, v], ...]}, with "arcs" optional.

    "n" and every endpoint must be JSON integers (not booleans), and every
    arc a two-element array.  Repeated arcs collapse into one.  An "n"
    above ``max_order`` is refused before the arcs are looked at.
    """
    if isinstance(data, (str, bytes)):
        import json

        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad digraph JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError('digraph JSON must be an object with an "n" key')
    n, arcs = data["n"], data.get("arcs", [])
    if type(n) is not int:
        raise ParseError(f'bad digraph JSON: "n" must be an integer, got {n!r}')
    check_order(n, max_order)
    if not isinstance(arcs, list):
        raise ParseError(f'bad digraph JSON: "arcs" must be a list, got {arcs!r}')
    for arc in arcs:
        if not (isinstance(arc, list) and len(arc) == 2
                and all(type(x) is int for x in arc)):
            raise ParseError(
                f"bad digraph JSON: arc {arc!r} is not a pair of integers")
        u, v = arc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc ({u},{v}) out of range for n={n}")
    return SimpleDigraph(n, arcs)
