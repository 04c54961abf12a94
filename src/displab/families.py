"""Named digraph families and their closed-form or recurrence counters.

Every family the counting and polynomial machinery cares about is built
here with a fixed canonical vertex numbering, so golden tests can compare
arc sets literally.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .combinatorics import binomial
from .errors import ParseError, _decimal
from .graph import SimpleDigraph, check_order


# ---------------------------------------------------------------------------
# dispositional digraphs
# ---------------------------------------------------------------------------

class _SpecFields(NamedTuple):
    rows: tuple[tuple[int, int], ...]


class DispositionalSpec(_SpecFields):
    """Row lengths and shifts of a grid-of-rows digraph.

    ``rows[i] = (length, shift)``: row i+1 sits ``shift`` columns to the
    right of row i (negative = left); the first shift must be 0.  Arcs run
    rightward inside a row and from each vertex to the vertex of the next
    row in the same absolute column, when it exists.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple((a, b) for a, b in rows)
        # only ints, not bools or other numbers, as in the digraph classes
        for a, b in rows:
            if type(a) is not int or type(b) is not int:
                raise ValueError("row lengths and shifts must be integers, "
                                 f"got ({a!r}, {b!r})")
        if rows:
            if rows[0][1] != 0:
                raise ValueError("first row shift must be 0")
            if any(a < 0 for a, _ in rows):
                raise ValueError("row lengths must be nonnegative")
        return super().__new__(cls, rows)

    @property
    def order(self) -> int:
        return sum(a for a, _ in self.rows)

    def to_json(self) -> dict:
        return {"rows": [{"len": a, "shift": b} for a, b in self.rows]}


def make_dispositional(spec: DispositionalSpec) -> SimpleDigraph:
    """Build the grid digraph of a spec.

    Cell (r, c) is row r at absolute column c; row r starts at the sum of
    the first r + 1 shifts.  Vertices number the cells from the *last* row
    up, left to right inside each row, the numbering under which the zigzag
    digraphs come out with their canonical vertex order.  Each cell has an
    arc to (r, c + 1) and to (r + 1, c) when that cell exists.
    """
    starts = list(accumulate(b for _, b in spec.rows))
    cells = [(r, c) for r in reversed(range(len(starts)))
             for c in range(starts[r], starts[r] + spec.rows[r][0])]
    index = {cell: v for v, cell in enumerate(cells)}
    arcs = [(index[r, c], w) for r, c in cells
            for w in (index.get((r, c + 1)), index.get((r + 1, c)))
            if w is not None]
    return SimpleDigraph(len(cells), arcs)


def staircase_spec(n: int) -> DispositionalSpec:
    """The zigzag digraph of order n as a dispositional spec.

    Even n = 2k: rows [2,0] then [2,-1] repeated k-1 times; odd n = 2k+1:
    [1,0] then [2,-1] repeated k times.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        return DispositionalSpec(())
    if n % 2 == 0:
        rows = [(2, 0)] + [(2, -1)] * (n // 2 - 1)
    else:
        rows = [(1, 0)] + [(2, -1)] * (n // 2)
    return DispositionalSpec(tuple(rows))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_path(n: int) -> SimpleDigraph:
    return SimpleDigraph(n, ((i, i + 1) for i in range(n - 1)))


def make_empty(n: int) -> SimpleDigraph:
    return SimpleDigraph(n, ())


def make_star(n: int) -> SimpleDigraph:
    """Star digraph: arcs from vertex 0 to each of n-1 leaves."""
    if n < 1:
        raise ValueError("star needs at least the center")
    return SimpleDigraph(n, ((0, i) for i in range(1, n)))


def make_staircase(n: int) -> SimpleDigraph:
    """Zigzag digraph S_n: arcs v1->v2, v3->v2, v3->v4, v5->v4, ...

    0-based: (2i, 2i+1) for the down-steps and (2i, 2i-1) for the up-steps.
    """
    return make_dispositional(staircase_spec(n))


def make_two_row(n1: int, n2: int) -> SimpleDigraph:
    """Two-row grid digraph with rows of lengths n1 <= n2.

    Equals the dispositional digraph with rows [n2, 0], [n1, 0]: the
    length-n2 row (vertices v1..vn2, indices n1..n1+n2-1) sends a vertical
    arc into the length-n1 row (u1..un1, indices 0..n1-1) in each shared
    column, and both rows are directed paths.
    """
    if not (0 <= n1 <= n2):
        raise ValueError("need 0 <= n1 <= n2")
    return make_dispositional(DispositionalSpec(((n2, 0), (n1, 0))))


def two_row_labels(n1: int, n2: int) -> dict[str, int]:
    """Vertex labels for make_two_row: u1..u{n1} then v1..v{n2}."""
    labels = {f"u{i + 1}": i for i in range(n1)}
    labels.update({f"v{j + 1}": n1 + j for j in range(n2)})
    return labels


def make_rooted_tree(parents: list[int]) -> SimpleDigraph:
    """Digraph of a rooted tree given parents (root has parent -1).

    Arcs are oriented away from the root.
    """
    n = len(parents)
    if sum(p < 0 for p in parents) != 1:
        raise ValueError("parent array must have exactly one root")
    for p in parents:
        if p >= n:
            raise ValueError(f"parent {p} out of range")
    # one root and n - 1 parent arcs: a tree exactly when acyclic
    d = SimpleDigraph(n, [(p, v) for v, p in enumerate(parents) if p >= 0])
    if not d.is_acyclic():
        raise ValueError("parent array does not encode a tree")
    return d


def qary_level_parents(q: int, level: int) -> list[int]:
    """Parent array of the complete q-ary tree with `level` levels."""
    if q < 2 or level < 1:
        raise ValueError("need q >= 2 and level >= 1")
    return [-1] + [(v - 1) // q for v in range(1, (q**level - 1) // (q - 1))]


def make_qary_level(q: int, level: int) -> SimpleDigraph:
    return make_rooted_tree(qary_level_parents(q, level))


# ---------------------------------------------------------------------------
# analytic counters
# ---------------------------------------------------------------------------

def _seidel_entringer_row(n: int) -> list[int]:
    """Row n-1 of the Seidel-Entringer triangle (Entringer, 1966), each row
    the running sums of the one before, reversed; [1] for n = 0 as for
    n = 1.  Entry k - 1 counts the dispositions of the zigzag digraph S_n
    with f(v1) = k, so the row sums to the zigzag number s_n."""
    row = [1]
    for _ in range(n - 1):
        row = list(accumulate(reversed(row), initial=0))
    return row


def staircase_counter(n: int) -> int:
    """Euler zigzag number s_n = sigma(S_n), the sum of the Seidel-Entringer
    row of v1."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return sum(_seidel_entringer_row(n))


def two_row_counter(n1: int, n2: int) -> int:
    """sigma of the two-row grid: C(n1+n2, n1) - C(n1+n2, n1-1).

    At n1 = n2 = n this is the n-th Catalan number.
    """
    if not (0 <= n1 <= n2):
        raise ValueError("need 0 <= n1 <= n2")
    return binomial(n1 + n2, n1) - binomial(n1 + n2, n1 - 1)


# ---------------------------------------------------------------------------
# family strings ("staircase:7", "tworow:2,3", ...)
# ---------------------------------------------------------------------------

# families whose one parameter is their order
_BY_ORDER = {"path": make_path, "empty": make_empty, "star": make_star,
             "staircase": make_staircase}


def build_family(text: str, max_order: int
                 ) -> tuple[SimpleDigraph, dict[str, int]]:
    """Parse a family string and return (digraph, vertex labels).

    Most families label vertices v1..vn in index order; the two-row family
    labels its rows u1..u{n1} / v1..v{n2} instead.  A family of more than
    ``max_order`` vertices is refused with ``SizeLimitError`` before
    anything is built; malformed parameters stay ``ParseError``.
    """
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name in _BY_ORDER:
            n = _decimal(arg)
            check_order(n, max_order)
            return _BY_ORDER[name](n), _index_labels(n)
        if name == "tworow":
            n1, n2 = (_decimal(x) for x in arg.split(","))
            if 0 <= n1 <= n2:  # make_two_row refuses the rest as malformed
                check_order(n1 + n2, max_order)
            return make_two_row(n1, n2), two_row_labels(n1, n2)
        if name == "qary":
            q, level = (_decimal(x) for x in arg.split(","))
            if q >= 2:
                # sum the levels only until they pass the cap
                order = 0
                for m in range(level):
                    order += q**m
                    check_order(order, max_order, more=m < level - 1)
            d = make_qary_level(q, level)
            return d, _index_labels(d.n)
        if name == "tree":
            # the parent array is as long as the text, so build, then check
            parents = [_decimal(x) for x in arg.split(",")]
            d = make_rooted_tree(parents)
            check_order(d.n, max_order)
            return d, _index_labels(d.n)
        if name == "dispositional":
            rows = []
            for part in arg.split(";"):
                a, b = (_decimal(x) for x in part.split(","))
                rows.append((a, b))
            spec = DispositionalSpec(tuple(rows))
            check_order(spec.order, max_order)
            d = make_dispositional(spec)
            return d, _index_labels(d.n)
    except ParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad family string {text!r}: {exc}") from exc
    raise ParseError(f"unknown family {name!r}")


def _index_labels(n: int) -> dict[str, int]:
    return {f"v{i + 1}": i for i in range(n)}
