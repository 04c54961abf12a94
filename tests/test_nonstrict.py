"""Non-strict counters: weak inequalities, cycles allowed."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from displab.algebra import (binomial, bessel_i_series, exp_series, laguerre,
                             poly_to_series)
from displab import counting
from displab.cli import main
from displab.counting import count
from displab.errors import SizeLimitError
from displab.families import (build_family, make_empty, make_path, make_star,
                              make_two_row)
from displab.graph import SimpleDigraph
from displab.nonstrict import (NonStrictCounter, nonstrict_bruteforce, nonstrict_count,
                               nonstrict_counts, nonstrict_path,
                               nonstrict_path_series,
                               nonstrict_path_series_fixed_size,
                               nonstrict_two_row, order_polynomial)
from helpers import (charged_steps, disjoint_union, induced_subgraph,
                     nonstrict_empty, random_acyclic_digraph,
                     random_simple_digraph, underlying_components)


def test_bruteforce_examples():
    assert nonstrict_bruteforce(make_empty(3), 2) == 8
    assert nonstrict_bruteforce(make_path(2), 3) == 6
    assert nonstrict_bruteforce(SimpleDigraph(2, [(0, 1), (1, 0)]), 5) == 5


def test_bruteforce_budget():
    with pytest.raises(SizeLimitError):
        nonstrict_bruteforce(make_empty(10), 10)


def test_count_examples():
    assert nonstrict_count(make_two_row(1, 1), 2) == 3
    assert nonstrict_count(SimpleDigraph(2, [(0, 1), (1, 0)]), 5) == 5
    for n in range(6):
        for i in range(1, 7):
            assert nonstrict_count(make_empty(n), i) == i**n


def test_count_path_with_cycle_collapses():
    d = SimpleDigraph(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
    for i in range(1, 7):
        assert nonstrict_count(d, i) == binomial(i + 2, 3)


def test_count_order_zero():
    assert nonstrict_count(make_empty(0), 4) == 1
    assert nonstrict_count(make_empty(0), 0) == 1
    assert nonstrict_count(make_path(2), 0) == 0


def test_oracle_equivalence_including_cycles():
    rng = random.Random(71)
    for _ in range(250):
        d = random_simple_digraph(rng, rng.randint(1, 5))
        i = rng.randint(1, 5)
        assert nonstrict_count(d, i) == nonstrict_bruteforce(d, i), (d, i)


def test_quotient_invariance():
    rng = random.Random(72)
    for _ in range(60):
        d = random_simple_digraph(rng, rng.randint(1, 5))
        i = rng.randint(1, 4)
        assert nonstrict_count(d, i) == nonstrict_count(d.condense(), i)


def test_component_product_law():
    rng = random.Random(73)
    for _ in range(40):
        d = random_simple_digraph(rng, rng.randint(2, 5))
        i = rng.randint(1, 4)
        cond = d.condense()
        product = 1
        for comp in underlying_components(cond):
            product *= nonstrict_count(induced_subgraph(cond, comp), i)
        assert nonstrict_count(d, i) == product


def test_monotone_in_size():
    rng = random.Random(74)
    for _ in range(40):
        d = random_simple_digraph(rng, rng.randint(1, 5))
        values = [nonstrict_count(d, i) for i in range(1, 7)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_order_polynomial_top_coefficient_is_strict_count():
    rng = random.Random(75)
    for _ in range(60):
        d = random_simple_digraph(rng, rng.randint(0, 7))
        cond = d.condense()
        omega = order_polynomial(d)
        assert omega.degree == cond.n
        assert math.factorial(cond.n) * omega.leading() == count(cond), d


def _strict_bruteforce(d, i):
    """Maps into {1..i} strictly decreasing along every arc."""
    return sum(all(f[u] > f[v] for u, v in d.arcs)
               for f in product(range(1, i + 1), repeat=d.n))


def test_order_polynomial_reciprocity():
    rng = random.Random(76)
    for _ in range(60):
        d = random_simple_digraph(rng, rng.randint(0, 5))
        cond = d.condense()
        omega = order_polynomial(d)
        for i in range(5):
            assert ((-1) ** cond.n * omega(-i)
                    == _strict_bruteforce(cond, i)), (d, i)


def test_order_polynomial_at_large_size():
    assert nonstrict_count(make_path(20), 10**6) == nonstrict_path(20, 10**6)


def test_loops_do_not_zero_nonstrict():
    from displab.graph import parse_digraph_text
    d = parse_digraph_text("n 2\n0 0\n0 1\n", 20)
    assert (0, 0) in d.arcs
    for i in range(1, 5):
        assert nonstrict_count(d, i) == nonstrict_path(2, i)
        assert nonstrict_count(SimpleDigraph(1, [(0, 0)]), i) == i


def _complete_bipartite(a, b):
    return SimpleDigraph(a + b,
                         [(u, a + v) for u in range(a) for v in range(b)])


def _diamond(n):
    """Vertex 0 with an arc to each of 1..n-2, each with an arc to n-1."""
    middle = range(1, n - 1)
    return SimpleDigraph(n, [(0, v) for v in middle]
                         + [(v, n - 1) for v in middle])


def test_order_polynomial_past_twenty_vertices():
    # orders up to the mask cap answer when their work fits the budget
    def star(i):
        return sum(j**62 for j in range(1, i + 1))

    def k_10_10(i):
        # t is the largest value on the sink side
        return sum((t**10 - (t - 1)**10) * (i - t + 1)**10
                   for t in range(1, i + 1))

    for d, closed in ((make_path(63), lambda i: nonstrict_path(63, i)),
                      (make_star(63), star), (make_star(63).reverse(), star),
                      (make_empty(63), lambda i: nonstrict_empty(63, i)),
                      (make_two_row(31, 32),
                       lambda i: nonstrict_two_row(31, 32, i)),
                      (_complete_bipartite(10, 10), k_10_10)):
        omega = order_polynomial(d)
        for i in (1, 2, 3, 7):
            assert omega(i) == closed(i), (d.n, i)


def test_cli_answers_past_twenty_vertices(capsys):
    code = main(["nonstrict", "--family", "path:40", "--max-order", "40",
                 "--max-size", "3"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.splitlines()[-1] == "path:40,1,41,861"


def test_wide_diamond_refuses_within_its_steps(monkeypatch):
    # each inclusion-exclusion term is a step, so a refusal reads at most
    # as many values as its two tries have steps
    d = _diamond(18)
    monkeypatch.setattr(counting, "STATE_LIMIT", 1 << 10)
    reads = []
    value = counting._PeelTable._value

    def spy(self, mask, connected=False):
        reads.append(mask)
        return value(self, mask, connected)

    monkeypatch.setattr(counting._PeelTable, "_value", spy)
    with pytest.raises(SizeLimitError,
                       match="^counting needs more than 1024 steps$"):
        order_polynomial(d)
    assert len(reads) <= 2 * counting.STATE_LIMIT + d.n


def test_cli_refuses_the_wide_diamond(tmp_path, capsys):
    # 16 middle vertices give each state up to 2^16 - 1 terms
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(_diamond(18).to_json()))
    code = main(["nonstrict", "--file", str(path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1


@pytest.mark.parametrize("d, steps", [
    (_complete_bipartite(10, 10), 61113),
    (build_family("staircase:24", 24)[0], 32647)])
def test_budget_margin_of_the_largest_accepted_order_polynomials(
        monkeypatch, d, steps):
    tries = charged_steps(monkeypatch)
    order_polynomial(d)
    assert max(tries) == steps < counting.STATE_LIMIT


def test_long_path_refuses_in_linear_time():
    # a quadratic numbering of the components took 13-16 s at this order
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="at most 63 vertices, got 20000"):
        nonstrict_counts(make_path(20000), [1])
    assert time.perf_counter() - start < 5


def test_order_polynomial_of_stars():
    # given the center's value, the 19 leaves choose theirs independently
    for d in (make_star(20), make_star(20).reverse()):
        omega = order_polynomial(d)
        for i in (1, 2, 3, 7, 30):
            assert omega(i) == sum(j**19 for j in range(1, i + 1))


def test_star_sink_peel_lists_no_subsets_ahead(monkeypatch):
    # the 19 leaves are the sinks: a sinks try runs out of states, and
    # must stop without first listing all 2^19 leaf subsets (about 100 MB)
    monkeypatch.setattr(counting, "STATE_LIMIT", 64)
    table = NonStrictCounter(make_star(20))
    assert table._blocked is table.out
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            table._try((1 << 20) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_memo_holds_order_polynomial_values():
    # the recursion's value of a set is Omega at sizes 0..n, so the full
    # set's value is the counter at every size up to the order
    rng = random.Random(77)
    digraphs = [random_acyclic_digraph(rng, rng.randint(0, 6))
                for _ in range(40)]
    digraphs += [disjoint_union(random_acyclic_digraph(rng, rng.randint(1, 3)),
                                random_acyclic_digraph(rng, rng.randint(1, 3)))
                 for _ in range(20)]
    digraphs.append(disjoint_union(make_path(2), make_star(3), make_empty(1)))
    for d in digraphs:
        values = NonStrictCounter(d)._count((1 << d.n) - 1)
        assert values == tuple(nonstrict_bruteforce(d, i)
                               for i in range(d.n + 1)), sorted(d.arcs)


@pytest.mark.parametrize("spec, states", [("staircase:14", 36),
                                          ("tworow:8,9", 46)])
def test_memo_states(spec, states):
    d, _ = build_family(spec, 64)
    table = NonStrictCounter(d)
    table._count((1 << d.n) - 1)
    assert len(table.memo) == states


def test_state_cap_refuses(monkeypatch):
    d = random_acyclic_digraph(random.Random(34), 20, 0.15)
    monkeypatch.setattr(counting, "STATE_LIMIT", 16)
    with pytest.raises(SizeLimitError):
        order_polynomial(d)


# -- closed forms -------------------------------------------------------------


def test_closed_forms():
    assert nonstrict_path(2, 3) == 6
    assert nonstrict_empty(3, 2) == 8
    assert nonstrict_two_row(1, 1, 2) == 3


def test_path_closed_form_vs_count():
    for n in range(6):
        for i in range(1, 6):
            assert nonstrict_count(make_path(n), i) == nonstrict_path(n, i)


def test_two_row_closed_form_vs_count():
    for n1 in range(5):
        for n2 in range(max(n1, 1), 5):
            for i in range(1, 6):
                assert (nonstrict_two_row(n1, n2, i)
                        == nonstrict_count(make_two_row(n1, n2), i)), (n1, n2, i)


# -- generating series -----------------------------------------------------------


def test_fixed_size_series_is_exp_times_laguerre():
    for j in range(1, 7):
        series = nonstrict_path_series_fixed_size(j, 12)
        product = exp_series(1, 12) * poly_to_series(
            laguerre(j - 1).compose_neg(), 12)
        assert series == product


def test_size_one_series_is_exp():
    assert nonstrict_path_series_fixed_size(1, 10) == exp_series(1, 10)


def test_growing_path_series_is_half_bessel_form():
    series = nonstrict_path_series(16)
    bessel = exp_series(2, 16) * bessel_i_series(0, 2, 16)
    for i in range(17):
        expected = Fraction(1, 2) * (bessel.coefficient(i) + (1 if i == 0 else 0))
        assert series.coefficient(i) == expected


def test_half_bessel_coefficient_identity():
    for i in range(13):
        total = sum(
            Fraction(2 ** (i - 2 * s),
                     math.factorial(i - 2 * s) * math.factorial(s) ** 2)
            for s in range(i // 2 + 1)) / 2
        if i == 0:
            assert total == Fraction(1, 2)
        else:
            assert total == Fraction(binomial(2 * i - 1, i),
                                     math.factorial(i))


def test_series_coefficients_match_counters():
    # the growing-path series literally tabulates the counters
    for order in range(8):
        value = nonstrict_count(make_path(order), order) if order else 1
        assert nonstrict_path_series(8).coefficient(order) == Fraction(
            value, math.factorial(order))
