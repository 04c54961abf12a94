"""Structural digraph queries."""

import random
import tracemalloc

import pytest

import displab
from displab.cli import _read_digraph, main
from displab.errors import ParseError
from displab.families import make_empty, make_path, make_staircase
from displab.graph import (SimpleDigraph, iter_mask,
                           parse_digraph_json, parse_digraph_text)
from helpers import (attach_path, induced_subgraph, mask_from,
                     random_simple_digraph, sinks_and_sources,
                     underlying_components)


def test_parse_text_collapses_repeated_lines():
    d = parse_digraph_text("n 2\n0 1\n0 1\n0 1\n", 20)
    assert d.arcs == frozenset({(0, 1)})


def test_parse_json_keeps_loop_as_arc():
    d = parse_digraph_json('{"n": 1, "arcs": [[0, 0], [0, 0]]}', 20)
    assert d == SimpleDigraph(1, [(0, 0)])


def test_parse_text_header_alone_is_empty():
    assert parse_digraph_text("n 3\n", 20) == make_empty(3)


def test_reverse_path():
    d = make_path(3).reverse()
    assert d.arcs == frozenset({(1, 0), (2, 1)})


def test_reverse_fixes_empty():
    assert make_empty(4).reverse() == make_empty(4)


def test_reverse_swaps_sinks_and_sources_on_staircase():
    d = make_staircase(3)
    sinks, sources = sinks_and_sources(d)
    rsinks, rsources = sinks_and_sources(d.reverse())
    assert sinks == rsources and sources == rsinks


def test_induced_path_prefix():
    assert induced_subgraph(make_path(3), {0, 1}) == make_path(2)


def test_induced_identity():
    d = make_staircase(5)
    assert induced_subgraph(d, 0b11111) == d


def test_staircase4_sink_removal_components():
    # arcs of S4 are (0,1), (2,1), (2,3): deleting the sink at index 1
    # splits the rest, deleting the one at index 3 does not
    d = make_staircase(4)
    assert d.arcs == frozenset({(0, 1), (2, 1), (2, 3)})
    split = induced_subgraph(d, {0, 2, 3})
    assert len(underlying_components(split)) == 2
    joined = induced_subgraph(d, {0, 1, 2})
    assert len(underlying_components(joined)) == 1


def test_sinks_and_sources_path():
    sinks, sources = sinks_and_sources(make_path(3))
    assert sinks == mask_from([2])
    assert sources == mask_from([0])


def test_sinks_and_sources_staircase5():
    # minimum points are the even-indexed vertices v2, v4 (0-based 1, 3)
    sinks, sources = sinks_and_sources(make_staircase(5))
    assert sinks == mask_from([1, 3])
    assert sources == mask_from([0, 2, 4])


def test_sinks_and_sources_empty():
    sinks, sources = sinks_and_sources(make_empty(3))
    assert sinks == sources == 0b111


def test_condense_two_cycle():
    d = SimpleDigraph(2, [(0, 1), (1, 0)])
    c = d.condense()
    assert c.n == 1 and not c.arcs


def test_condense_drops_loops():
    d = SimpleDigraph(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
    assert d.reverse() == SimpleDigraph(3, [(0, 0), (1, 0), (2, 1), (2, 2)])
    assert d.condense() == make_path(3)


def test_condense_identity_on_dag():
    d = make_staircase(6)
    c = d.condense()
    assert c.n == d.n and len(c.arcs) == len(d.arcs)


def test_condense_path_with_cycle_gives_path():
    # a three-step chain whose middle segment is blown up into a 2-cycle
    d = SimpleDigraph(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
    assert d.condense() == make_path(3)


def test_condense_numbers_by_least_vertex():
    # three 2-cycles {0,3} <- {1,4} <- {2,5}: the walk finishes {0,3}
    # first, so the reversal's walk meets it last, yet it is still 0
    d = SimpleDigraph(6, [(0, 3), (3, 0), (1, 4), (4, 1), (2, 5), (5, 2),
                          (4, 3), (5, 4)])
    assert d.condense() == SimpleDigraph(3, [(1, 0), (2, 1)])
    assert not d.is_acyclic()


def test_condense_matches_mutual_reachability():
    rng = random.Random(19)
    for _ in range(200):
        d = random_simple_digraph(rng, rng.randint(0, 9))
        reach = [1 << v for v in range(d.n)]
        for _ in range(d.n):
            for u, v in d.arcs:
                reach[u] |= reach[v]
        # u and v share a component when each reaches the other
        comps = []
        for v in range(d.n):
            comp = mask_from(u for u in range(d.n)
                             if reach[u] >> v & 1 and reach[v] >> u & 1)
            if comp not in comps:
                comps.append(comp)
        index = {v: i for i, c in enumerate(comps) for v in iter_mask(c)}
        arcs = {(index[u], index[v]) for u, v in d.arcs
                if index[u] != index[v]}
        assert d.condense() == SimpleDigraph(len(comps), arcs), d
        assert d.is_acyclic() == (len(comps) == d.n), d


def test_components_empty_and_path():
    assert underlying_components(make_empty(3)) == [1, 2, 4]
    assert underlying_components(make_path(4)) == [0b1111]


def test_components_disjoint_union():
    d = SimpleDigraph(5, [(0, 1), (2, 3), (3, 4)])
    comps = underlying_components(d)
    assert sorted(c.bit_count() for c in comps) == [2, 3]


def test_attach_path_examples():
    assert attach_path(make_path(1), 0, 2) == make_path(3)
    d = make_staircase(4)
    assert attach_path(d, 2, 0) == d
    e = attach_path(make_empty(2), 0, 1)
    assert e.n == 3 and e.arcs == frozenset({(0, 2)})


def test_attach_path_reversed():
    d = attach_path(make_path(1), 0, 2, reverse=True)
    assert d.arcs == frozenset({(1, 0), (2, 1)})


def test_attach_path_increments():
    rng = random.Random(5)
    for _ in range(20):
        d = random_simple_digraph(rng, rng.randint(1, 6))
        v = rng.randrange(d.n)
        i = rng.randint(0, 3)
        step = attach_path(d, v, i)
        tip = v if i == 0 else d.n + i - 1
        assert attach_path(d, v, i + 1) == attach_path(step, tip, 1)


def test_is_acyclic():
    assert make_path(5).is_acyclic()
    assert not SimpleDigraph(2, [(0, 1), (1, 0)]).is_acyclic()
    assert not SimpleDigraph(2, [(0, 1), (1, 1)]).is_acyclic()


def test_staircase6_acyclic_by_independent_toposort():
    d = make_staircase(6)
    order = []
    remaining = set(range(d.n))
    arcs = set(d.arcs)
    while remaining:
        ready = [v for v in remaining
                 if not any(u in remaining and (u, v) in arcs
                            for u in remaining)]
        assert ready, "cycle found"
        for v in ready:
            remaining.discard(v)
        order.extend(ready)
    assert d.is_acyclic()


def test_parse_text_roundtrip():
    d = parse_digraph_text("n 3\n0 1\n0 1\n1 2\n", 20)
    assert d == make_path(3)


def test_parse_text_rejects_out_of_range():
    with pytest.raises(ParseError):
        parse_digraph_text("n 2\n0 5\n", 20)


@pytest.mark.parametrize("text, message", [
    ("n 1_0\n", "bad vertex count '1_0'"),
    ("n +3\n", "bad vertex count '+3'"),
    ("n \uff14\n", "bad vertex count '\uff14'"),
    ("n -\n", "bad vertex count '-'"),
    ("n 3\n0 +1\n", "bad arc line '0 +1'"),
    ("n 3\n0 1_0\n", "bad arc line '0 1_0'"),
    ("n 3\n\u0660 1\n", "bad arc line '\u0660 1'"),
    ("n -1\n", "vertex count must be nonnegative"),
    ("n 2\n0 5\n", "arc (0,5) out of range for n=2"),
    ("n 3\n-1 2\n", "arc (-1,2) out of range for n=3"),
])
def test_text_file_takes_only_ascii_decimals(tmp_path, capsys, text, message):
    path = tmp_path / "digraph.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["count", "--file", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("cls", [SimpleDigraph])
@pytest.mark.parametrize("n, arcs", [
    (2.5, []), (3.0, []), ("3", []), (True, []),
    (3, [(0, 1.9)]), (3, [(0.0, 1)]), (3, [(0, True)]), (3, [("0", 1)]),
])
def test_constructors_refuse_non_integers(cls, n, arcs):
    with pytest.raises(ValueError, match="must be an integer|must be integers"):
        cls(n, arcs)


@pytest.mark.parametrize("name", ["Multidigraph", "normalize"])
def test_simple_digraph_is_the_only_digraph_type(name):
    with pytest.raises(AttributeError):
        getattr(displab, name)


def test_parse_json():
    assert parse_digraph_json('{"n": 2, "arcs": [[0, 1]]}', 20) == make_path(2)
    with pytest.raises(ParseError):
        parse_digraph_json('{"n": 1, "arcs": [[0, 3]]}', 20)
    with pytest.raises(ParseError):
        parse_digraph_json("[1, 2]", 20)


@pytest.mark.parametrize("text", [
    '{"n": 2.5, "arcs": []}',
    '{"n": 3.0}',
    '{"n": "3"}',
    '{"n": true}',
    '{"n": null}',
    '{"n": 3, "arcs": [[0, 1.9]]}',
    '{"n": 3, "arcs": [[0, true]]}',
    '{"n": 3, "arcs": ["12"]}',
    '{"n": 3, "arcs": [[0, 1, 2]]}',
    '{"n": 3, "arcs": [[0]]}',
    '{"n": 3, "arcs": [{"0": 1}]}',
    '{"n": 3, "arcs": null}',
    '{"n": 3, "arcs": "01"}',
])
def test_json_file_takes_only_integers_and_pairs(tmp_path, capsys, text):
    path = tmp_path / "digraph.json"
    path.write_text(text)
    assert main(["count", "--file", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad digraph JSON: ")


@pytest.mark.parametrize("text, message", [
    ('{"n": 3, "arcs": [[0, 5]]}', "arc (0,5) out of range for n=3"),
    ('{"n": -1}', "vertex count must be nonnegative"),
    ('{"arcs": []}', 'digraph JSON must be an object with an "n" key'),
])
def test_json_file_keeps_its_range_messages(tmp_path, capsys, text, message):
    path = tmp_path / "digraph.json"
    path.write_text(text)
    assert main(["count", "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, text, tree", [
    ("digraph.txt", "n 5000\n0 1\nnot an arc\n", "0,0,0"),
    ("digraph.json", '{"n": 5000, "arcs": "01"}', "-1,5,0"),
    ("digraph.json", '{"n": 5000, "arcs": [[0, 1], [2]]}', "-1,-1,0"),
])
def test_order_cap_comes_before_a_later_malformed_part(tmp_path, capsys,
                                                       name, text, tree):
    # the order is read first and decides the refusal: exit 1, not the
    # exit 2 that the malformed rest would give under the cap
    path = tmp_path / name
    path.write_text(text)
    assert main(["count", "--file", str(path), "--max-order", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: digraph order 5000 exceeds --max-order 2\n")
    assert main(["count", "--family", f"tree:{tree}", "--max-order", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: digraph order 3 exceeds --max-order 2\n")


def _peak_reading(path) -> int:
    tracemalloc.start()
    try:
        assert _read_digraph(str(path), 20)[0].n == 20
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_text_file_is_read_in_memory_of_its_digraph(tmp_path):
    # the arcs of a 20-vertex digraph are at most 400, however many lines
    # repeat them, so ten times the lines may not double the peak
    rng = random.Random(24)
    arcs = [f"{u} {v}\n" for v in range(20) for u in range(v)]
    peaks = []
    for lines in (20_000, 200_000):
        path = tmp_path / f"arcs{lines}.txt"
        path.write_text("n 20\n" + "".join(rng.choices(arcs, k=lines)))
        peaks.append(_peak_reading(path))
    assert peaks[1] <= 2 * peaks[0]


def test_structural_properties_random_corpus():
    """Reverse duality, condensation acyclicity, component partition."""
    rng = random.Random(99)
    for _ in range(60):
        d = random_simple_digraph(rng, rng.randint(1, 8))
        sinks, sources = sinks_and_sources(d)
        rsinks, rsources = sinks_and_sources(d.reverse())
        assert sinks == rsources and sources == rsinks
        assert d.reverse().reverse() == d
        assert d.condense().is_acyclic()
        comps = underlying_components(d)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == (1 << d.n) - 1
        assert induced_subgraph(d, (1 << d.n) - 1) == d


def test_iter_mask_order():
    assert list(iter_mask(0b101001)) == [0, 3, 5]
