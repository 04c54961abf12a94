"""Companion polynomials: both computation routes and the printed data."""

import json
import math
import random
from fractions import Fraction

import pytest

from displab.algebra import (Polynomial, TruncatedSeries, binomial,
                             exp_series, generalized_laguerre, laguerre,
                             pochhammer, poly_to_series,
                             series_from_counters)
from displab import counting
from displab.cli import main
from displab.companion import (CompanionResult, _HeightTable,
                               _attached_counter, _two_row_heights,
                               companion_by_recurrence,
                               companion_from_counters, height_counts,
                               catalan_polynomial, catalan_polynomial_r3,
                               generalized_zigzag, staircase_companion,
                               staircase_data, staircase_path_counter,
                               two_row_companion, two_row_decomposition)
from displab.counting import count, count_bruteforce, enumerate_dispositions
from displab.errors import SizeLimitError
from displab.families import (build_family, make_empty, make_path,
                              make_rooted_tree,
                              make_staircase, make_star, make_two_row,
                              staircase_counter, two_row_counter)
from displab.graph import SimpleDigraph
from helpers import (antiderivative, attach_path, disjoint_union,
                     induced_subgraph, random_acyclic_digraph,
                     random_simple_digraph, random_tree_parents,
                     sinks_and_sources, staircase_path_counter_closed,
                     two_row_companion_closed)

from displab import golden


# -- counters along the attached path ----------------------------------------

def path_counters(heights, horizon):
    """sigma(G_0..G_horizon), read off the height distribution N of v."""
    return tuple(_attached_counter(heights, i) for i in range(horizon + 1))


def test_counters_along_path_on_paths():
    for j in range(5):
        d = make_path(j + 1)
        counters = path_counters(height_counts(d, 0), 6)
        assert counters == tuple(binomial(i + j, i) for i in range(7))


def test_counters_along_path_on_empty():
    for j in range(4):
        d = make_empty(j + 1)
        counters = path_counters(height_counts(d, 0), 5)
        expected = tuple(math.factorial(i + j + 1) // math.factorial(i + 1)
                         for i in range(6))
        assert counters == expected


def test_counters_along_path_staircase2():
    d = make_staircase(2)
    assert path_counters(height_counts(d, 0), 1)[1] == 2
    assert count_bruteforce(attach_path(d, 0, 1)) == 2


def test_counters_along_path_match_separate_counts():
    rng = random.Random(41)
    for k in range(40):
        n = rng.randint(1, 7)
        d = random_simple_digraph(rng, n)
        if k % 4 == 0:
            loop = rng.randrange(n)
            d = SimpleDigraph(n, d.arcs | {(loop, loop)})
        v = rng.randrange(n)
        reverse = k % 2 == 1
        expected = tuple(count(attach_path(d, v, i, reverse=reverse))
                         for i in range(2 * n + 1))
        # reversal maps f to n + 1 - f, so N reads backwards
        heights = height_counts(d, v)[::-1 if reverse else 1]
        assert path_counters(heights, 2 * n) == expected
        assert (companion_from_counters(d, v, reverse).counters
                == expected[:2 * n])


def test_counter_minus_one_convention():
    # sigma(G_{-1}) = sigma(G - v) when v is a sink, else 0: that is N_1,
    # the number of dispositions with f(v) = 1
    d = make_staircase(3)
    # v1 (index 0) is a source, not a sink: the convention gives 0
    assert height_counts(d, 0)[0] == 0
    # index 1 is a sink: the convention gives the counter without it
    assert height_counts(d, 1)[0] == count(induced_subgraph(d, {0, 2}))
    # a loop anywhere leaves no disposition, so no counter either
    looped = SimpleDigraph(3, [(0, 1), (2, 2)])
    assert height_counts(looped, 1)[0] == 0


def test_counter_recurrence_identity_with_minus_one():
    """sigma(G_j) = sigma(G_{j-1}) + sum over other sinks w of
    sigma((G - w) + path), with the -1 convention at j = 0."""
    rng = random.Random(41)
    for _ in range(15):
        d = random_acyclic_digraph(rng, rng.randint(1, 5))
        v = rng.randrange(d.n)
        sinks, _ = sinks_and_sources(d)
        rest = (1 << d.n) - 1
        counters = path_counters(height_counts(d, v), 4)
        for j in range(5):
            prev = counters[j - 1] if j else height_counts(d, v)[0]
            total = prev
            for w in range(d.n):
                if w != v and sinks >> w & 1:
                    sub = induced_subgraph(d, rest & ~(1 << w))
                    nv = v if v < w else v - 1
                    total += count(attach_path(sub, nv, j))
            assert counters[j] == total


# -- the companion polynomial itself ------------------------------------------

def test_companion_path_two_vertices():
    d = make_path(2)
    assert companion_from_counters(d, 1).poly == Polynomial((1,))
    assert companion_from_counters(d, 0).poly == Polynomial((1, 1))


def test_companion_two_row_2_3():
    expected = Polynomial.from_json(golden.TWO_ROW_2_3_POLY)
    d = make_two_row(2, 3)
    assert companion_from_counters(d, 3).poly == expected  # v2 = index 3
    assert companion_by_recurrence(d, 3) == expected


def test_companion_staircase_printed():
    assert companion_by_recurrence(make_staircase(3), 0) == Polynomial(
        (2, 3, Fraction(1, 2)))
    assert companion_by_recurrence(make_staircase(6), 0) == Polynomial(
        (61, 211, 154, Fraction(119, 3), 4, Fraction(2, 15)))


def test_companion_empty_printed():
    # degree-2 instance of the a(j,k) = C(j,k) C(j+1,k+1) (j-k)! family
    assert companion_by_recurrence(make_empty(3), 0) == Polynomial((6, 6, 1))


def test_companion_routes_agree_on_corpus():
    rng = random.Random(42)
    for _ in range(60):
        d = random_acyclic_digraph(rng, rng.randint(1, 7))
        v = rng.randrange(d.n)
        result = companion_from_counters(d, v)
        assert result.poly == companion_by_recurrence(d, v)


def test_companion_degree_bound_and_constant_term():
    rng = random.Random(43)
    for _ in range(40):
        d = random_acyclic_digraph(rng, rng.randint(1, 7))
        v = rng.randrange(d.n)
        result = companion_from_counters(d, v)
        assert result.poly.degree <= d.n - 1
        assert result.poly(0) == result.counters[0] == count(d)


def test_companion_cyclic_digraph_is_zero():
    d = SimpleDigraph(3, [(0, 1), (1, 2), (2, 0)])
    assert companion_from_counters(d, 0).poly.is_zero()
    assert companion_by_recurrence(d, 0).is_zero()


def test_companion_path_is_reflected_laguerre():
    for j in range(13):
        d = make_path(j + 1)
        assert companion_by_recurrence(d, 0) == laguerre(j).compose_neg()


def test_companion_empty_closed_form():
    for j in range(11):
        d = make_empty(j + 1)
        poly = companion_by_recurrence(d, 0)
        expected = Polynomial(
            binomial(j, k) * binomial(j + 1, k + 1) * math.factorial(j - k)
            for k in range(j + 1))
        assert poly == expected
        # equivalently j! L_j^(1) at reflected argument
        assert poly.compose_neg() == math.factorial(j) * generalized_laguerre(j, 1)


def test_companion_rooted_tree_identity():
    rng = random.Random(44)
    for _ in range(25):
        parents = random_tree_parents(rng, rng.randint(1, 8))
        d = make_rooted_tree(parents)
        sigma = count(d)
        assert companion_by_recurrence(d, 0) == sigma * laguerre(
            d.n - 1).compose_neg()


def test_tabloidal_series_identity():
    """counters-series times exp(-X) truncates to the companion polynomial."""
    rng = random.Random(45)
    for _ in range(20):
        d = random_acyclic_digraph(rng, rng.randint(1, 6))
        v = rng.randrange(d.n)
        order = 2 * d.n + 2
        egf = series_from_counters(
            [count(attach_path(d, v, i)) for i in range(order + 1)])
        prod = egf * exp_series(-1, order)
        poly = companion_from_counters(d, v).poly
        for i in range(order + 1):
            assert prod.coefficient(i) == poly.coefficient(i)


def test_tabloidal_characterizations_of_laguerre():
    """L_j and L_j^(1) as (binomial counter series at -X) times exp(X)."""
    order = 16
    for j in range(8):
        lhs = poly_to_series(laguerre(j), order)
        rhs = TruncatedSeries(
            Fraction(binomial(i + j, i) * (-1) ** i, math.factorial(i))
            for i in range(order + 1)) * exp_series(1, order)
        assert lhs == rhs, j
        lhs1 = poly_to_series(
            generalized_laguerre(j, 1), order)
        rhs1 = TruncatedSeries(
            Fraction(binomial(i + j + 1, j) * (-1) ** i, math.factorial(i))
            for i in range(order + 1)) * exp_series(1, order)
        assert lhs1 == rhs1, j


def test_companion_dual():
    # v1 is the maximum point of the path
    d = make_path(2)
    assert companion_from_counters(d, 0, reverse=True).poly == Polynomial((1,))
    for n in range(1, 5):
        e = make_empty(n)
        assert (companion_from_counters(e, 0, reverse=True).poly
                == companion_by_recurrence(e, 0))
    rng = random.Random(46)
    for _ in range(25):
        d = random_acyclic_digraph(rng, rng.randint(1, 6))
        v = rng.randrange(d.n)
        dual = companion_from_counters(d, v, reverse=True).poly
        assert dual(0) == count(d)
        # reversed-path attachment is the same polynomial
        assert companion_from_counters(d, v, reverse=True).poly == dual


def test_companion_dual_by_direct_source_recurrence():
    """Independent route: peel sources with the mirrored derivative
    recurrence instead of delegating to the reversed digraph."""
    from displab.algebra import Polynomial as P
    from displab.counting import CounterTable
    from displab.graph import iter_mask

    def dual_direct(d, v):
        table = CounterTable(d)
        inc = d.in_masks()
        memo = {1 << v: P((1,))}

        def comp(mask):
            if mask in memo:
                return memo[mask]
            deriv = P()
            for w in iter_mask(mask):
                if w != v and inc[w] & mask == 0:
                    sub = comp(mask & ~(1 << w))
                    deriv = deriv + sub + sub.derivative()
            poly = antiderivative(deriv, table._count(mask))
            memo[mask] = poly
            return poly

        return comp((1 << d.n) - 1)

    rng = random.Random(47)
    for _ in range(25):
        d = random_acyclic_digraph(rng, rng.randint(1, 6))
        v = rng.randrange(d.n)
        assert (companion_from_counters(d, v, reverse=True).poly
                == dual_direct(d, v))


# -- the height distribution of v ---------------------------------------------

def test_height_counts_match_enumeration():
    rng = random.Random(48)
    for k in range(80):
        n = rng.randint(1, 7)
        if k % 4 == 0:
            d = random_simple_digraph(rng, n)
        else:
            d = random_acyclic_digraph(rng, n)
        if k % 5 == 0:
            loop = rng.randrange(n)
            d = SimpleDigraph(n, d.arcs | {(loop, loop)})
        v = rng.randrange(n)
        expected = [0] * n
        for f in enumerate_dispositions(d, cap=10**6):
            expected[f[v] - 1] += 1
        assert height_counts(d, v) == tuple(expected), (sorted(d.arcs), v)


@pytest.mark.parametrize("specs", [
    ("staircase:5", "tworow:2,3"),
    ("staircase:4", "tworow:1,2", "path:2"),
    ("path:5", "path:4", "path:3"),
    ("star:3", "empty:1", "path:8")])
def test_height_counts_of_disjoint_unions(specs):
    # v's component is interleaved with a rest of up to 10 vertices
    d = disjoint_union(*(build_family(spec, 64)[0] for spec in specs))
    dispositions = enumerate_dispositions(d, cap=10**6)
    for v in range(d.n):
        expected = [0] * d.n
        for f in dispositions:
            expected[f[v] - 1] += 1
        assert height_counts(d, v) == tuple(expected), (specs, v)


@pytest.mark.parametrize("spec, vertex, states", [
    ("staircase:22", "v1", 78), ("tworow:20,22", "v2", 233),
    ("tworow:28,30", "v30", 437), ("star:17", "v2", 18)])
def test_height_memo_states(spec, vertex, states):
    # one memo: counters of the masks without v, N of the masks with v
    d, labels = build_family(spec, 64)
    table = _HeightTable(d, labels[vertex])
    table._count((1 << d.n) - 1)
    assert len(table.memo) == states


def test_companion_closed_forms_on_stars_of_forty():
    """At the maximum point N is 39! at k = 40; at a leaf it is 38! at
    each k <= 39, and sum_{m<=38} L_m = L_38^(1)."""
    at_center = math.factorial(39) * laguerre(39).compose_neg()
    at_leaf = (math.factorial(38)
               * generalized_laguerre(38, 1).compose_neg())
    out_star = make_star(40)
    assert companion_by_recurrence(out_star, 0) == at_center
    assert companion_by_recurrence(out_star, 1) == at_leaf
    in_star = make_star(40).reverse()
    assert companion_from_counters(in_star, 0, reverse=True).poly == at_center
    assert companion_from_counters(in_star, 1, reverse=True).poly == at_leaf


def test_routes_agree_on_star_of_twenty_one(capsys):
    # both routes read one result; the recurrence route keeps the first n
    # counters of the counters route
    for vertex in ("v1", "v2"):
        for dual in ((), ("--dual",)):
            argv = ["companion", "--family", "star:21", "--vertex", vertex,
                    "--format", "json", "--max-order", "21", *dual]
            outs = []
            for route in ("counters", "recurrence"):
                assert main([*argv, "--route", route]) == 0
                outs.append(json.loads(capsys.readouterr().out))
            full, short = outs
            assert short["poly"] == full["poly"]
            assert short["counters"] == full["counters"][:21]
            assert len(full["counters"]) == 42


def test_height_state_cap_refuses(capsys, monkeypatch):
    monkeypatch.setattr(counting, "STATE_LIMIT", 16)
    with pytest.raises(SizeLimitError):
        companion_by_recurrence(make_staircase(16), 0)
    for dual in ((), ("--dual",)):
        code = main(["companion", "--family", "staircase:16", "--vertex",
                     "v1", "--route", "recurrence", *dual])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err.startswith("error:")


def test_companion_result_json():
    res = CompanionResult(Polynomial((1, 1)), (1, 2), 0)
    data = res.to_json()
    assert data["poly"] == ["1", "1"] and data["vertex"] == 0
    assert data["counters"] == [1, 2]


# -- two-row weights and polynomials -----------------------------------------

def _weight(n1, n2, r, i):
    """f(n1, n2, r, i), zero past the weight row."""
    weights = two_row_decomposition(n1, n2, r).weights
    return weights[i] if i < len(weights) else 0


def test_two_row_weight_normalization():
    for n1 in range(5):
        for n2 in range(max(n1, 1), 6):
            for r in range(1, n2 + 1):
                decomp = two_row_decomposition(n1, n2, r)
                assert decomp.weights[0] == 1
                assert len(decomp.weights) == min(n1, r - 1) + 1


def test_two_row_weight_vanishes_high(monkeypatch):
    assert len(two_row_decomposition(2, 3, 2).weights) == 2
    assert len(two_row_decomposition(0, 4, 3).weights) == 1
    # a companion with weight on X^2 d^2 L_3 breaks the row of (2, 3, 2)
    monkeypatch.setattr("displab.companion.two_row_companion",
                        lambda n1, n2, r: Polynomial((0, 0, 1)))
    with pytest.raises(AssertionError):
        two_row_decomposition(2, 3, 2)


def test_two_row_heights_match_the_subset_kernel():
    for n1 in range(10):
        for n2 in range(max(n1, 1), 10):
            d = make_two_row(n1, n2)
            for r in range(1, n2 + 1):
                assert tuple(_two_row_heights(n1, n2, r)) == height_counts(
                    d, n1 + r - 1), (n1, n2, r)


def test_two_row_weights_satisfy_the_five_case_recurrence():
    """The paper's recurrence for f(n1, n2, r, i), keyed on where (n1, n2)
    sits relative to the diagonal and to n2 = r, on the derived weights."""
    rows = {(n1, n2, r): two_row_decomposition(n1, n2, r).weights
            for n2 in range(1, 11) for n1 in range(n2 + 1)
            for r in range(1, n2 + 1)}

    def weight(n1, n2, r, i):
        row = rows[n1, n2, r]
        return row[i] if i < len(row) else 0

    for n1, n2, r in rows:
        for i, f in enumerate(rows[n1, n2, r]):
            if n1 == 0:
                expected = 1
            elif n2 == r:
                den = r * r + r + n1 * (1 - n1)
                expected = (
                    Fraction((i - n1) * (n1 - r - 2), den)
                    * weight(n1 - 1, r, r, i)
                    + Fraction(r * r + (1 - n1) * r - n1,
                               math.factorial(i) * den))
            elif n1 == n2:
                expected = (Fraction(2 * n1 - r - i, 2 * n1 - r)
                            * weight(n1 - 1, n1, r, i))
            else:
                den = (n1 - n2 - 1) * (n1 + n2) * (n1 + n2 - r)
                expected = (
                    Fraction(n1 * (n1 - n2 - 2) * (n1 + n2 - r - i), den)
                    * weight(n1 - 1, n2, r, i)
                    + Fraction((n1 - n2) * (n2 + 1) * (n1 + n2 - r - i), den)
                    * weight(n1, n2 - 1, r, i))
            assert f == expected, (n1, n2, r, i)


def test_two_row_companion_examples():
    assert two_row_companion(2, 3, 2) == Polynomial.from_json(
        golden.TWO_ROW_2_3_POLY)
    assert two_row_companion(2, 2, 2) == Polynomial(
        (2, 3, Fraction(1, 2)))
    assert two_row_companion(0, 2, 2) == Polynomial((1,))


def test_two_row_companion_r3_small_cases():
    assert two_row_companion(0, 3, 3) == Polynomial((1,))
    assert two_row_companion(0, 4, 3) == Polynomial((1, 1))
    assert two_row_companion(1, 3, 3) == Polynomial((3, 1))


def test_two_row_companion_matches_definitional_route():
    """The ballot height row against the subset kernel's."""
    for n1 in range(5):
        for n2 in range(max(n1, 1), 5):
            d = make_two_row(n1, n2)
            for r in range(1, min(n2, 3) + 1):
                vertex = n1 + r - 1
                assert two_row_companion(n1, n2, r) == companion_by_recurrence(
                    d, vertex), (n1, n2, r)


def test_two_row_weight_level_closed_forms():
    """The first-order weights in the two-row expansion, directly."""
    for n1 in range(6):
        for n2 in range(max(n1, 1), 7):
            s = n1 + n2
            if n2 >= 2 and s >= 3:
                expected = Fraction(n1 * n2 + n1, s * (s - 1) * (s - 2))
                assert _weight(n1, n2, 2, 1) == expected, (n1, n2)
            if n2 >= 3 and s >= 5:
                f1 = Fraction(2 * n1 * (n2 + 1) * (
                    n1**2 + 3 * n1 * n2 + n2**2 - 5 * n1 - 6 * n2 + 6)) / (
                        pochhammer(s - 3, 4) * (s - 3))
                assert _weight(n1, n2, 3, 1) == f1, (n1, n2)
                f2 = (2 * pochhammer(n1 - 1, 2) * pochhammer(n2, 2)
                      / (pochhammer(s - 4, 5) * (s - 3)))
                assert _weight(n1, n2, 3, 2) == f2, (n1, n2)


def test_two_row_closed_forms_match_recurrence():
    cases = [(0, 2, 2), (1, 2, 2), (2, 2, 2), (2, 3, 2), (1, 4, 2), (3, 5, 2),
             (4, 4, 2), (0, 3, 3), (0, 4, 3), (1, 3, 3), (2, 3, 3), (3, 3, 3),
             (2, 5, 3), (4, 6, 3), (5, 5, 3)]
    for n1, n2, r in cases:
        assert two_row_companion(n1, n2, r) == two_row_companion_closed(
            n1, n2, r), (n1, n2, r)


def test_catalan_polynomials_printed():
    for n, coeffs in golden.CATALAN_POLYNOMIALS.items():
        assert catalan_polynomial(n) == Polynomial.from_json(coeffs)
    assert catalan_polynomial(1) == Polynomial((1,))


def test_catalan_constant_terms_are_catalan_numbers():
    for n in range(1, 9):
        assert catalan_polynomial(n)(0) == two_row_counter(n, n)


def test_catalan_r3_constant_terms():
    for n in range(3, 7):
        assert catalan_polynomial_r3(n)(0) == two_row_counter(n, n)


def test_two_row_parameter_validation():
    with pytest.raises(ValueError):
        two_row_companion(3, 2, 2)
    with pytest.raises(ValueError):
        two_row_companion(1, 2, 5)
    with pytest.raises(ValueError):
        catalan_polynomial(0)


# -- zigzag data --------------------------------------------------------------

def test_staircase_path_counter_initials():
    for i in range(6):
        assert staircase_path_counter(0, i) == 1
        assert staircase_path_counter(1, i) == 1
    for n in range(9):
        assert staircase_path_counter(n, 0) == staircase_counter(n)


def test_staircase_path_counter_vs_direct_count():
    for n in range(9):
        for i in range(9 - n):
            d = make_staircase(n) if n else make_empty(0)
            if n == 0:
                # order-0 head: the attached path alone, counter 1
                assert staircase_path_counter(0, i) == 1
                continue
            value = count(attach_path(d, 0, i))
            assert staircase_path_counter(n, i) == value, (n, i)


def test_staircase_path_counter_closed_form():
    for n in range(10):
        for i in range(8):
            assert (staircase_path_counter(n, i)
                    == staircase_path_counter_closed(n, i)), (n, i)


def test_staircase_path_counter_long_path():
    # S_3 with an i-vertex path at v1: place v2 among the path below v1,
    # then v3 anywhere above v2, for C(i+3, 2) - 1 orderings; a path this
    # long must not deepen the recursion
    assert staircase_path_counter(3, 1200) == binomial(1203, 2) - 1


def test_staircase_companion_matches_recurrence_route():
    # the subset kernel is the independent oracle for the Entringer row
    for n in range(1, 41):
        d = make_staircase(n)
        assert staircase_companion(n) == companion_by_recurrence(d, 0), n
        assert (tuple(staircase_path_counter(n, i) for i in range(2 * n))
                == path_counters(height_counts(d, 0), 2 * n - 1)), n


def test_staircase_path_counter_halving_identity():
    # 2 f(n,i) = f(n,i-1) + sum_j C(n+i-1, i+j) f(j,i) s_{n-1-j}
    f, s = staircase_path_counter, staircase_counter
    for n in range(2, 13):
        for i in range(1, 13):
            assert 2 * f(n, i) == f(n, i - 1) + sum(
                binomial(n + i - 1, i + j) * f(j, i) * s(n - 1 - j)
                for j in range(n)), (n, i)


def test_staircase_coefficient_closed_forms():
    """The printed a(n, i) expressions for i <= 5 in zigzag numbers."""
    s = staircase_counter
    rows = [generalized_zigzag(i, 13) for i in range(6)]
    for n in range(13):
        a = [Fraction(row[n], math.factorial(i)) for i, row in enumerate(rows)]
        assert a[0] == s(n)
        assert a[1] == s(n + 1) - s(n)
        assert a[2] == Fraction(s(n) + n * s(n + 1) - s(n + 2), 2)
        assert a[3] == Fraction(
            (n * n - n) * s(n + 1) - 2 * s(n) + 6 * s(n + 2) - 2 * s(n + 3), 12)
        assert a[4] == Fraction(
            (n**3 - 3 * n**2 + 2 * n) * s(n + 1) + 6 * s(n) - 36 * s(n + 2)
            - 6 * n * s(n + 3) + 6 * s(n + 4), 144)
        assert a[5] == Fraction(
            (12 * n - 12 * n**2) * s(n + 3)
            + (n**4 - 6 * n**3 + 11 * n**2 - 6 * n) * s(n + 1)
            - 24 * s(n) + 240 * s(n + 2) - 120 * s(n + 4) + 24 * s(n + 5), 2880)


def test_generalized_zigzag_rows():
    for i, expected in golden.GENERALIZED_ZIGZAG.items():
        if i == 0:
            continue
        assert generalized_zigzag(i, 15) == expected


def test_staircase_data_fields():
    data = staircase_data(5)
    assert data.n == 5
    assert generalized_zigzag(0, 6)[5] == 16
    assert staircase_path_counter(5, 0) == 16
    assert [str(x) for x in data.g] == golden.STAIRCASE_G_TUPLES[5]
    # first nonzero entry of the order-5 row
    assert generalized_zigzag(5, 7)[6] == 16
    assert staircase_data(0) == (0, ())


def test_staircase_data_tail_vanishes():
    # coefficients past degree n-1 must be zero: the degree bound in action
    assert all(generalized_zigzag(i, 5)[4] == 0 for i in range(4, 10))


@pytest.mark.parametrize("call", [
    lambda: generalized_zigzag(-1, 3),
    lambda: generalized_zigzag(2, -1),
    lambda: staircase_data(-1),
])
def test_zigzag_negative_index_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
