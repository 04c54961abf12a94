"""Digraph families: constructors versus their analytic counters."""

import math
import random
import tracemalloc
from itertools import product

import pytest

from displab.algebra import binomial, multinomial
from displab.counting import count, count_bruteforce
from displab.errors import ParseError
from displab.families import (DispositionalSpec, build_family,
                              make_dispositional, make_empty, make_path,
                              make_qary_level, make_rooted_tree,
                              make_staircase, make_star, make_two_row,
                              qary_level_parents, staircase_counter,
                              staircase_spec, two_row_counter, two_row_labels)
from displab.graph import SimpleDigraph
from helpers import (qary_level_counter, random_tree_parents,
                     sinks_and_sources, tree_counter, tree_refusal,
                     underlying_components, zigzag_by_source_peeling)


@pytest.mark.parametrize("n", range(13))
def test_staircase_arcs(n):
    # the docstring's arcs: (2i, 2i+1) down and (2i, 2i-1) up, 0-based
    down = {(2 * i, 2 * i + 1) for i in range(n) if 2 * i + 1 < n}
    up = {(2 * i, 2 * i - 1) for i in range(1, n) if 2 * i < n}
    d = make_staircase(n)
    assert d.n == n and d.arcs == frozenset(down | up)


def test_staircase_small_orders():
    assert make_staircase(0).n == 0
    assert make_staircase(1).arcs == frozenset()
    assert make_staircase(2).arcs == frozenset({(0, 1)})


def test_two_row_2_3_structure():
    d = make_two_row(2, 3)
    labels = two_row_labels(2, 3)
    u1, u2 = labels["u1"], labels["u2"]
    v1, v2, v3 = labels["v1"], labels["v2"], labels["v3"]
    assert d.n == 5
    # row arcs u1->u2 and v1->v2->v3; column arcs from the long row into
    # the short one (that orientation is what the ballot count certifies)
    assert d.arcs == frozenset(
        {(u1, u2), (v1, v2), (v2, v3), (v1, u1), (v2, u2)})


def test_two_row_matches_dispositional_spec():
    for n1 in range(4):
        for n2 in range(n1, 5):
            spec = DispositionalSpec(((n2, 0), (n1, 0)))
            assert make_two_row(n1, n2) == make_dispositional(spec)


def test_staircase_even_spec_shape():
    assert staircase_spec(6).rows == ((2, 0), (2, -1), (2, -1))
    assert staircase_spec(7).rows == ((1, 0), (2, -1), (2, -1), (2, -1))


def test_zigzag_numbers():
    assert [staircase_counter(n) for n in range(7)] == [1, 1, 1, 2, 5, 16, 61]
    assert staircase_counter(7) == 272


def test_zigzag_against_seidel_triangle():
    """Independent oracle: the boustrophedon triangle
    T(n,k) = T(n,k-1) + T(n-1,n-k), whose diagonal is the zigzag sequence."""
    prev = [1]
    assert staircase_counter(0) == 1
    for n in range(1, 21):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        assert staircase_counter(n) == row[n]
        prev = row


def test_two_row_min_points():
    # the sinks of the two-row grid are u_{n1} and v_{n2} (only u_{n1} on
    # the diagonal), which pins the vertical arc orientation
    for n1 in range(1, 5):
        for n2 in range(n1, 6):
            d = make_two_row(n1, n2)
            labels = two_row_labels(n1, n2)
            sinks, _ = sinks_and_sources(d)
            expected = {labels[f"u{n1}"]}
            if n1 < n2:
                expected.add(labels[f"v{n2}"])
            assert {v for v in range(d.n) if sinks >> v & 1} == expected


def test_both_zigzag_recurrences_agree():
    assert ([staircase_counter(n) for n in range(60)]
            == zigzag_by_source_peeling(60))


def test_zigzag_sink_peeling_recurrence():
    # s_n = sum over 1 <= i <= n//2 of C(n-1, 2i-1) s_{2i-1} s_{n-2i},
    # checked on the Seidel-Entringer row sums
    s = [staircase_counter(n) for n in range(81)]
    for n in range(2, 81):
        assert s[n] == sum(binomial(n - 1, 2 * i - 1) * s[2 * i - 1] * s[n - 2 * i]
                           for i in range(1, n // 2 + 1)), n


def test_zigzag_doubling_identity():
    for n in range(1, 15):
        lhs = 2 * staircase_counter(n + 1)
        rhs = sum(binomial(n, k) * staircase_counter(k) * staircase_counter(n - k)
                  for k in range(n + 1))
        assert lhs == rhs


def test_zigzag_split_bound():
    # s_j <= C(j, i) s_i s_{j-i}: deleting an arc splits the zigzag
    for j in range(13):
        for i in range(j + 1):
            assert staircase_counter(j) <= (
                binomial(j, i) * staircase_counter(i) * staircase_counter(j - i))


def test_tree_counter_examples():
    assert tree_counter([-1, 0, 1, 2, 3]) == 1          # path-shaped
    assert tree_counter([-1, 0, 0, 0, 0]) == 24         # star-shaped
    assert tree_counter([-1, 0, 0]) == 2                # binary, level 2
    assert tree_counter([-1, 0, 0]) == count_bruteforce(
        make_rooted_tree([-1, 0, 0]))


def test_tree_counter_random_vs_count():
    rng = random.Random(31)
    for _ in range(30):
        parents = random_tree_parents(rng, rng.randint(1, 7))
        assert tree_counter(parents) == count(make_rooted_tree(parents))


def test_tree_counter_rejects_garbage():
    with pytest.raises(ValueError):
        make_rooted_tree([0, 1])  # no root
    with pytest.raises(ValueError):
        tree_counter([-1, -1])
    with pytest.raises(ValueError, match="not a single tree"):
        tree_counter([-1, 2, 1])  # a cycle beside the root
    with pytest.raises(ValueError, match="parent 5 out of range"):
        tree_counter([-1, 5])


def test_make_rooted_tree_on_every_small_parent_array():
    # every array over {-1, ..., n-1}^n, self-parents included; a one-root
    # array with in-range, non-self parents is a tree exactly when it is
    # acyclic, so acyclicity is the only whole-graph check
    for n in range(6):
        accepted = 0
        for parents in map(list, product(range(-1, n), repeat=n)):
            refusal = tree_refusal(parents)
            if refusal is None:
                accepted += 1
                arcs = [(p, v) for v, p in enumerate(parents) if p >= 0]
                assert make_rooted_tree(parents) == SimpleDigraph(n, arcs)
                continue
            with pytest.raises(ValueError) as info:
                make_rooted_tree(parents)
            assert str(info.value) == refusal, parents
        # Cayley: n^(n-1) rooted trees on n labelled vertices
        assert accepted == (n ** (n - 1) if n else 0)


def test_qary_tree_memory_grows_linearly():
    # four times the vertices in about four times the memory; one n-bit
    # neighbour mask per vertex took about twelve times
    peaks = []
    for level in (12, 14):
        tracemalloc.start()
        try:
            make_qary_level(2, level)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 6, peaks

def test_tree_counter_takes_deep_and_wide_trees():
    # iterative, so a 2,000-deep path costs no recursion
    assert tree_counter([-1] + list(range(1999))) == 1
    assert tree_counter([-1] + [0] * 1999) == math.factorial(1999)


def test_qary_counters():
    assert qary_level_counter(2, 2) == 2
    assert qary_level_counter(2, 3) == 80
    assert qary_level_counter(3, 2) == 6
    assert qary_level_counter(2, 3) == count_bruteforce(make_qary_level(2, 3))
    assert qary_level_counter(3, 2) == count_bruteforce(make_qary_level(3, 2))
    assert qary_level_counter(2, 4) == count(make_qary_level(2, 4))


def test_qary_parents_shape():
    assert qary_level_parents(2, 3) == [-1, 0, 0, 1, 1, 2, 2]


def test_two_row_counter_values():
    assert two_row_counter(2, 3) == 5
    assert two_row_counter(2, 2) == 2
    assert two_row_counter(6, 6) == 132


def test_two_row_counter_vs_count():
    for n1 in range(6):
        for n2 in range(n1, 6):
            assert two_row_counter(n1, n2) == count(make_two_row(n1, n2))


def test_star_orientations():
    assert count(make_star(5)) == 24
    assert count(make_star(5).reverse()) == 24


def test_family_constructors_match_counters_small():
    for n in range(1, 8):
        assert count(make_path(n)) == 1
        assert count(make_empty(n)) == multinomial([1] * n)
        assert count(make_staircase(n)) == staircase_counter(n)


def test_dispositional_connected():
    def dispositional_connected(spec):
        return len(underlying_components(make_dispositional(spec))) <= 1

    assert dispositional_connected(staircase_spec(5))
    assert not dispositional_connected(DispositionalSpec(((1, 0), (1, 5))))
    empty_like = DispositionalSpec(((1, 0),) + tuple((1, 9) for _ in range(4)))
    assert not dispositional_connected(empty_like)
    d = make_dispositional(empty_like)
    assert d == make_empty(5)
    assert count(d) == 120


def test_dispositional_spec_validation():
    with pytest.raises(ValueError):
        DispositionalSpec(((2, 1),))
    with pytest.raises(ValueError):
        DispositionalSpec(((-1, 0),))


@pytest.mark.parametrize("rows", [
    ((2.9, 0),), ((2, 0), (True, -1)), ((2, 0.0),), (("3", 0),),
    ((2, 0), (2, False))])
def test_dispositional_spec_takes_only_ints(rows):
    with pytest.raises(ValueError, match="must be integers"):
        DispositionalSpec(rows)


def test_build_family_strings():
    d, labels = build_family("staircase:5", 20)
    assert d == make_staircase(5) and labels["v1"] == 0
    d, labels = build_family("tworow:2,3", 20)
    assert d == make_two_row(2, 3) and labels["v2"] == 3
    d, _ = build_family("dispositional:2,0;2,-1", 20)
    assert d == make_staircase(4)
    d, _ = build_family("tree:-1,0,0,1", 20)
    assert d.n == 4
    for bad in ("unknown:3", "tworow:2", "staircase:x", "tworow"):
        with pytest.raises(ParseError):
            build_family(bad, 20)
