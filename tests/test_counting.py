"""Strict counters against the brute-force oracle and each other."""

import json
import math
import random
import signal
from itertools import permutations

import pytest

from displab.algebra import multinomial
from displab import counting
from displab.cli import main
from displab.companion import _HeightTable
from displab.counting import (CounterTable, count, count_bruteforce,
                              enumerate_dispositions)
from displab.errors import SizeLimitError
from displab.families import (make_empty, make_path, make_staircase, make_star,
                              make_two_row, staircase_counter)
from displab.graph import SimpleDigraph, iter_mask
from displab.nonstrict import NonStrictCounter
from helpers import (all_digraphs, disjoint_union, induced_subgraph,
                     random_acyclic_digraph, random_simple_digraph,
                     underlying_components)


def count_by_peeling(d, sources=False):
    """Test-only oracle: the plain one-sided peel recursion, memoized on
    every subset it reaches, with no component split and no state budget."""
    blocked = d.in_masks() if sources else d.out_masks()
    memo = {0: 1}

    def sigma(mask):
        if mask in memo:
            return memo[mask]
        total = 0
        for v in iter_mask(mask):
            if blocked[v] & mask == 0:
                total += sigma(mask & ~(1 << v))
        memo[mask] = total
        return total

    return sigma((1 << d.n) - 1)


def peeled_table(d):
    """The table ``count`` fills for an acyclic d."""
    table = CounterTable(d)
    table._count((1 << d.n) - 1)
    return table


def test_bruteforce_examples():
    assert count_bruteforce(make_path(4)) == 1
    assert count_bruteforce(make_empty(4)) == 24
    assert count_bruteforce(SimpleDigraph(2, [(0, 1), (1, 0)])) == 0


def test_bruteforce_size_cap():
    with pytest.raises(SizeLimitError):
        count_bruteforce(make_empty(10))


def test_count_examples():
    assert count(make_staircase(5)) == 16
    assert count(make_star(5)) == 24
    assert count(make_two_row(2, 3)) == 5


def test_count_zero_on_loop_and_cycle():
    assert count(SimpleDigraph(1, [(0, 0)])) == 0
    assert count(SimpleDigraph(3, [(0, 1), (1, 2), (2, 0)])) == 0
    # past the 63-vertex limit of the subset kernel, too
    assert count(SimpleDigraph(64, [(0, 0)])) == 0
    assert count(SimpleDigraph(64, [(0, 1), (1, 0)])) == 0


def test_kernel_stops_on_a_subset_it_cannot_peel():
    # without count's acyclicity check, the kernel peels a loop, or a
    # directed cycle with a tail, down to a subset with no peelable vertex,
    # whose value is 0
    def alarm(signum, frame):
        pytest.fail("the kernel did not stop within 1 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        for d in (SimpleDigraph(1, [(0, 0)]),
                  SimpleDigraph(2, [(0, 0), (0, 1)]),
                  SimpleDigraph(3, [(0, 1), (1, 0), (1, 2)])):
            full = (1 << d.n) - 1
            assert CounterTable(d)._count(full) == 0, d
            assert _HeightTable(d, 0)._count(full) == (0,) * d.n, d
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_count_order_zero_is_one():
    assert count(make_empty(0)) == 1


def test_count_size_cap():
    with pytest.raises(SizeLimitError):
        count(make_empty(64))


def test_counter_table_conventions():
    d = make_staircase(4)
    table = CounterTable(d)
    assert table._value(0b1111) == 5
    assert table.memo[0] == 1


def test_enumerate_path():
    assert enumerate_dispositions(make_path(3), cap=10**6) == [(3, 2, 1)]


def test_enumerate_empty_and_staircase():
    assert len(enumerate_dispositions(make_empty(2), cap=10**6)) == 2
    dispositions = enumerate_dispositions(make_staircase(3), cap=10**6)
    assert len(dispositions) == 2
    assert dispositions == sorted(dispositions)
    # every result really is a disposition
    for f in dispositions:
        assert sorted(f) == [1, 2, 3]
        assert all(f[u] > f[v] for u, v in make_staircase(3).arcs)


def test_enumerate_matches_counter():
    rng = random.Random(11)
    for _ in range(25):
        d = random_simple_digraph(rng, rng.randint(1, 6))
        assert len(enumerate_dispositions(d, cap=10**6)) == count(d)


def test_enumerate_cap():
    with pytest.raises(SizeLimitError, match="more than the cap 10"):
        enumerate_dispositions(make_empty(6), cap=10)


def test_enumerate_size_cap():
    with pytest.raises(SizeLimitError):
        enumerate_dispositions(make_empty(13), cap=10**6)


def test_oracle_exhaustive_small_orders():
    for n in range(4):
        for d in all_digraphs(n):
            assert count(d) == count_bruteforce(d)


def test_oracle_random_medium_orders():
    rng = random.Random(2024)
    for _ in range(300):
        d = random_simple_digraph(rng, rng.randint(4, 7))
        assert count(d) == count_bruteforce(d)


def test_oracle_on_family_instances():
    from displab.families import (make_dispositional, make_qary_level,
                                  make_rooted_tree, staircase_spec)
    corpus = []
    for n in range(1, 8):
        corpus += [make_path(n), make_empty(n), make_staircase(n), make_star(n)]
    corpus += [make_two_row(n1, n2) for n1 in range(4)
               for n2 in range(max(n1, 1), 5)]
    corpus += [make_qary_level(2, 2), make_qary_level(3, 2),
               make_qary_level(2, 3),
               make_rooted_tree([-1, 0, 0, 1, 1, 2]),
               make_dispositional(staircase_spec(7))]
    for d in corpus:
        if d.n <= 9:
            assert count(d) == count_bruteforce(d), d


def test_thread_safety_of_counters():
    """Concurrent strict, height and non-strict counting on distinct
    digraphs, beside zigzag numbers and Laguerre polynomials, all equal to
    their serial values."""
    import sys
    import threading
    from displab.algebra import generalized_laguerre, laguerre
    from displab.companion import height_counts
    from displab.nonstrict import order_polynomial
    orders = (10, 11, 12)
    serial = {n: (height_counts(make_staircase(n), 0),
                  order_polynomial(make_staircase(n))) for n in orders}
    serial_laguerre = [generalized_laguerre(40, idx) for idx in range(8)]
    serial_l60 = laguerre(60)
    results = {}

    def worker(idx):
        d = make_staircase(orders[idx % 3])
        results[idx] = (count(d), staircase_counter(40 + idx),
                        height_counts(d, 0), order_polynomial(d),
                        generalized_laguerre(40, idx), laguerre(60))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(8))
    for idx, (c, s, heights, omega, lag, l60) in results.items():
        n = orders[idx % 3]
        assert c == staircase_counter(n)
        assert s == staircase_counter(40 + idx)
        assert (heights, omega) == serial[n]
        assert sum(heights) == c
        assert lag == serial_laguerre[idx]
        assert l60 == serial_l60


def test_reverse_invariance():
    rng = random.Random(21)
    for _ in range(80):
        d = random_simple_digraph(rng, rng.randint(1, 8))
        assert count(d) == count(d.reverse())


def test_subdigraph_monotonicity():
    rng = random.Random(22)
    for _ in range(40):
        d = random_simple_digraph(rng, rng.randint(2, 7))
        base = count(d)
        for arc in d.arcs:
            smaller = SimpleDigraph(d.n, d.arcs - {arc})
            assert count(smaller) >= base


def test_sink_vs_source_recursion():
    rng = random.Random(23)
    for _ in range(60):
        d = random_simple_digraph(rng, rng.randint(1, 7))
        assert count_by_peeling(d, sources=True) == CounterTable(d)._value(
            (1 << d.n) - 1)


def test_component_law():
    rng = random.Random(24)
    for _ in range(40):
        d = random_simple_digraph(rng, rng.randint(2, 8))
        comps = underlying_components(d)
        expected = multinomial([c.bit_count() for c in comps])
        for c in comps:
            expected *= count(induced_subgraph(d, c))
        assert count(d) == expected
        # whole-graph recursion without factorization agrees
        assert CounterTable(d)._value((1 << d.n) - 1) == count(d)


def test_positivity_iff_acyclic():
    rng = random.Random(25)
    for _ in range(80):
        d = random_simple_digraph(rng, rng.randint(1, 7))
        assert (count(d) > 0) == d.is_acyclic()


def test_dispositions_definition_bruteforce_cross():
    """The enumerated set equals the set found by scanning all bijections."""
    rng = random.Random(26)
    for _ in range(10):
        d = random_simple_digraph(rng, rng.randint(1, 5))
        direct = sorted(
            perm for perm in permutations(range(1, d.n + 1))
            if all(perm[u] > perm[v] for u, v in d.arcs))
        assert enumerate_dispositions(d, cap=10**6) == direct


def test_kernel_matches_plain_sink_peeling():
    rng = random.Random(31)
    for _ in range(20):
        d = random_acyclic_digraph(rng, rng.randint(15, 22),
                                   rng.choice((0.1, 0.2, 0.35)))
        assert count(d) == count_by_peeling(d), d


def test_kernel_matches_bruteforce_with_cycles_and_loops():
    rng = random.Random(32)
    for k in range(60):
        n = 9 if k % 30 == 0 else rng.randint(1, 8)
        if k % 3 == 0:
            d = random_acyclic_digraph(rng, n)
        else:
            d = random_simple_digraph(rng, n)
        if k % 3 == 2:
            loop = rng.randrange(n)
            d = SimpleDigraph(n, d.arcs | {(loop, loop)})
        assert count(d) == count_bruteforce(d), d


def test_stars_of_forty_in_both_orientations():
    assert count(make_star(40)) == math.factorial(39)
    assert count(make_star(40).reverse()) == math.factorial(39)


def test_staircase_of_forty_is_zigzag_number():
    assert count(make_staircase(40)) == staircase_counter(40)


def test_memo_states_stay_below_order_squared():
    for d in (make_star(17), make_star(17).reverse(),
              make_staircase(22)):
        assert len(peeled_table(d).memo) <= d.n ** 2


def test_leaf_peels_keep_the_memo_states():
    # a leaf's child skips the component search but is the same state
    for d, states in ((make_two_row(28, 30), 437), (make_star(17), 18),
                      (make_staircase(22), 78)):
        assert len(peeled_table(d).memo) == states


def test_nonstrict_peels_keep_the_memo_states():
    for d, states in ((make_staircase(20), 66),
                      (make_staircase(20).reverse(), 66),
                      (make_star(20), 21), (make_star(20).reverse(), 21),
                      (make_two_row(5, 6), 22)):
        table = NonStrictCounter(d)
        table._count((1 << d.n) - 1)
        assert len(table.memo) == states


def test_other_side_finishes_when_the_chosen_side_runs_out(monkeypatch):
    # the layer profiles choose sinks, which need 24 states here, where
    # sources need 15
    d = random_acyclic_digraph(random.Random(13), 9, 0.3)
    full = (1 << d.n) - 1
    table = CounterTable(d)
    assert [*counting._layers(table.out, full)] < [
        *counting._layers(table._inc, full)]
    monkeypatch.setattr(counting, "STATE_LIMIT", 16)
    with pytest.raises(SizeLimitError):
        CounterTable(d)._value(full)
    table = CounterTable(d)
    assert table._count(full) == count_bruteforce(d)
    assert table._blocked is table._inc


def test_reversal_mirrors_the_peel():
    # reversal swaps the two layer profiles of each component, so it peels
    # the mirrored side and fills as many states; only a tie, which goes
    # to sinks either way, can peel the two the same way round
    rng = random.Random(35)
    mirrored = 0
    for _ in range(40):
        d = disjoint_union(*(random_acyclic_digraph(rng, rng.randint(4, 14))
                             for _ in range(3)))
        table, reverse = peeled_table(d), peeled_table(d.reverse())
        assert count(d) == count(d.reverse())
        if all([*counting._layers(table.out, c)]
               != [*counting._layers(table._inc, c)]
               for c in underlying_components(d) if c.bit_count() > 2):
            mirrored += 1
            assert len(table.memo) == len(reverse.memo)
    assert mirrored >= 25


def test_state_cap_refuses(tmp_path, capsys, monkeypatch):
    d = random_acyclic_digraph(random.Random(33), 30, 0.2)
    assert len(peeled_table(d).memo) > 64
    monkeypatch.setattr(counting, "STATE_LIMIT", 16)
    with pytest.raises(SizeLimitError):
        count(d)
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(d.to_json()))
    code = main(["count", "--file", str(path), "--max-order", "30"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("error:")


def test_random_dag_of_63_vertices_refuses_at_the_state_limit():
    # at the real STATE_LIMIT, unpatched: about 2 s and 21 MB
    d = random_acyclic_digraph(random.Random(1), 63, 0.08)
    with pytest.raises(SizeLimitError):
        count(d)
