"""Search over connected row-grid digraphs and the zigzag extremality."""

import random

import pytest

from displab import counting
from displab.counting import count
from displab.errors import SizeLimitError
from displab.extremal import (_GridCounter, _row_grids,
                              enumerate_connected_dispositional, iso_check,
                              max_counter_search)
from displab.families import (DispositionalSpec, make_dispositional,
                              make_empty, make_path, make_staircase, make_star,
                              staircase_counter, staircase_spec)
from helpers import random_simple_digraph, underlying_components


def test_enumerate_order_one():
    specs = list(enumerate_connected_dispositional(1))
    assert specs == [DispositionalSpec(((1, 0),))]


def test_enumerate_order_two():
    specs = list(enumerate_connected_dispositional(2))
    digraphs = [make_dispositional(s) for s in specs]
    # the path appears twice: once inside a row, once across two rows
    assert len(specs) == 2
    assert all(d.n == 2 and len(d.arcs) == 1 for d in digraphs)
    assert {tuple(sorted(d.arcs)) for d in digraphs} == {((0, 1),), ((1, 0),)}


def test_enumerate_contains_staircase_spec():
    specs = set(enumerate_connected_dispositional(5))
    assert staircase_spec(5) in specs


def test_enumerate_all_connected_and_deduplicated():
    for m in (3, 4, 5):
        digraphs = [make_dispositional(s)
                    for s in enumerate_connected_dispositional(m)]
        assert len({d.arcs for d in digraphs}) == len(digraphs)
        assert all(len(underlying_components(d)) == 1 for d in digraphs)


def test_enumerate_size_cap():
    with pytest.raises(SizeLimitError):
        list(enumerate_connected_dispositional(12))


def _grid_states(grid, m):
    """Memo states of grid, the empty set aside, once every grid of order m
    is counted."""
    for _, cells in _row_grids(m):
        grid._try(cells)
    return len(grid.memo) - 1


def test_grid_counter_matches_count():
    for m in range(1, 9):
        grid = _GridCounter(m)
        for rows, cells in _row_grids(m):
            d = make_dispositional(DispositionalSpec(rows))
            assert grid._try(cells) == count(d), rows
    # every translate of a connected set shares one memo entry
    assert len(grid.memo) - 1 == 2931
    assert _grid_states(_GridCounter(9), 9) == 9397
    assert _grid_states(_GridCounter(10), 10) == 30124


def test_search_charges_each_grid_to_the_budget(monkeypatch):
    # the first grid of order 6 is a column of 6 cells, and no grid adds
    # more new states than that, though the search adds 285 in all
    monkeypatch.setattr(counting, "STATE_LIMIT", 6)
    assert max_counter_search(6).max_counter == staircase_counter(6)
    monkeypatch.setattr(counting, "STATE_LIMIT", 5)
    with pytest.raises(SizeLimitError,
                       match="^counting needs more than 5 new subset states$"):
        max_counter_search(6)


def _cells(spec):
    cells, start = set(), 0
    for r, (length, shift) in enumerate(spec.rows):
        start += shift
        cells |= {(r, c) for c in range(start, start + length)}
    return cells


def _spec_of(cells):
    """The spec of a set of cells whose rows are runs of columns."""
    rows, prev = [], None
    for r in sorted({r for r, _ in cells}):
        cols = sorted(c for row, c in cells if row == r)
        assert cols == list(range(cols[0], cols[-1] + 1))
        rows.append((len(cols), 0 if prev is None else cols[0] - prev))
        prev = cols[0]
    return DispositionalSpec(tuple(rows))


@pytest.mark.parametrize("m", [9, 10])
def test_search_beyond_iso_limit(m):
    report = max_counter_search(m)
    assert report.max_counter == staircase_counter(m)
    stair = _cells(staircase_spec(m))
    # a half turn of the grid gives the reversed digraph, a mirror image in
    # the main diagonal the same digraph; the zigzag of odd order is its own
    # mirror image, that of even order its own half turn
    turned = _spec_of({(-r, -c) for r, c in stair})
    mirrored = _spec_of({(c, r) for r, c in stair})
    assert (set(report.argmax_specs)
            == {staircase_spec(m), turned, mirrored})
    assert len(report.argmax_specs) == 2


def test_search_small_orders():
    for m in range(1, 7):
        report = max_counter_search(m)
        assert report.max_counter == staircase_counter(m)
        stair = make_staircase(m)
        for spec in report.argmax_specs:
            d = make_dispositional(spec)
            assert iso_check(d, stair) or iso_check(d, stair.reverse())


def test_search_inequality_holds_everywhere():
    for m in range(1, 7):
        bound = staircase_counter(m)
        for spec in enumerate_connected_dispositional(m):
            assert count(make_dispositional(spec)) <= bound


def test_search_equality_only_at_staircases():
    for m in (4, 5, 6):
        bound = staircase_counter(m)
        stair = make_staircase(m)
        for spec in enumerate_connected_dispositional(m):
            d = make_dispositional(spec)
            if count(d) == bound:
                assert iso_check(d, stair) or iso_check(d, stair.reverse())


def test_report_json():
    report = max_counter_search(3)
    data = report.to_json()
    assert data["order"] == 3 and data["max_counter"] == 2
    assert data["total_enumerated"] >= len(data["argmax_specs"]) >= 1
    rebuilt = [DispositionalSpec((r["len"], r["shift"]) for r in s["rows"])
               for s in data["argmax_specs"]]
    assert tuple(rebuilt) == report.argmax_specs


def test_counterexamples_outside_hypotheses():
    # dispositional but not connected: the arcless digraph beats the bound
    assert count(make_empty(5)) == 120 > staircase_counter(5)
    # connected but not dispositional: the star digraph beats the bound
    assert count(make_star(5)) == 24 > staircase_counter(5)


def test_factorial_upper_bound():
    import math
    rng = random.Random(81)
    for _ in range(60):
        d = random_simple_digraph(rng, rng.randint(1, 6))
        c = count(d)
        assert c <= math.factorial(d.n)
        assert (c == math.factorial(d.n)) == (not d.arcs)


def test_iso_relabeled_staircase():
    d = make_staircase(4)
    relabel = [2, 0, 3, 1]
    arcs = [(relabel[u], relabel[v]) for u, v in d.arcs]
    from displab.graph import SimpleDigraph
    assert iso_check(d, SimpleDigraph(4, arcs))


def test_iso_staircase_reverse_parity():
    # even zigzags are isomorphic to their reverses (mirror the path);
    # odd ones are not (source and sink counts differ)
    assert iso_check(make_staircase(4), make_staircase(4).reverse())
    assert not iso_check(make_staircase(5), make_staircase(5).reverse())
    assert not iso_check(make_staircase(7), make_staircase(7).reverse())


def test_iso_rejects_obvious_mismatches():
    assert not iso_check(make_path(3), make_empty(3))
    assert not iso_check(make_path(3), make_path(4))


def test_iso_tells_apart_equal_degree_sequences():
    # one 8-cycle and two 4-cycles: every vertex has in- and out-degree 1
    from displab.graph import SimpleDigraph
    cycle = SimpleDigraph(8, [(v, (v + 1) % 8) for v in range(8)])
    halves = SimpleDigraph(8, [(v, v - v % 4 + (v + 1) % 4) for v in range(8)])
    assert not iso_check(cycle, halves)
    relabel = list(range(8))
    random.Random(83).shuffle(relabel)
    assert iso_check(halves, SimpleDigraph(
        8, [(relabel[u], relabel[v]) for u, v in halves.arcs]))


def test_iso_size_cap():
    with pytest.raises(SizeLimitError):
        iso_check(make_empty(9), make_empty(9))


def test_iso_is_sound_on_random_relabelings():
    rng = random.Random(82)
    from displab.graph import SimpleDigraph
    for _ in range(40):
        d = random_simple_digraph(rng, rng.randint(1, 7))
        relabel = list(range(d.n))
        rng.shuffle(relabel)
        e = SimpleDigraph(d.n, [(relabel[u], relabel[v]) for u, v in d.arcs])
        assert iso_check(d, e)
