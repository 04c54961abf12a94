"""Exact arithmetic layer."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from displab import algebra
from displab.algebra import (Polynomial, RationalFunction, TruncatedSeries,
                             bessel_i_series, binomial, exp_series, factorial,
                             format_rational, generalized_laguerre, laguerre,
                             monomial, multinomial, parse_rational, pochhammer,
                             poly_to_series, series_from_counters, X)


def rand_poly(rng, max_deg=6, zero_ok=True):
    deg = rng.randint(-1 if zero_ok else 0, max_deg)
    if deg < 0:
        return Polynomial()
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 9)))
    return Polynomial(coeffs)


# -- combinatorics ----------------------------------------------------------

def test_multinomial():
    assert multinomial([2, 3]) == 10
    assert multinomial([1, 1, 1]) == 6


def test_pochhammer_product():
    assert pochhammer(2, 3) == 24  # (n-2)_3 at n = 4
    assert pochhammer(5, 0) == 1
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)


def test_pochhammer_negative_length():
    # (z)_{-k} = 1 / (z-k)_k
    assert pochhammer(3, -2) == Fraction(1, 2)
    assert pochhammer(3, -2) * pochhammer(1, 2) == 1


def test_binomial_conventions():
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(-1, 0) == 1
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4


def test_chu_vandermonde():
    for a in range(13):
        for b in range(13):
            assert sum(binomial(a, s) * binomial(b, s)
                       for s in range(max(a, b) + 1)) == binomial(a + b, b)


# -- polynomials ------------------------------------------------------------

def test_derivative():
    assert Polynomial((2, 3, 1)).derivative() == Polynomial((3, 2))


def test_compose_neg():
    assert Polynomial((1, -1)).compose_neg() == Polynomial((1, 1))


def test_content_normalize():
    p = 48 * Polynomial((0, 25, 2))
    assert p.content_normalized() == Polynomial((0, 25, 2))
    assert Polynomial((0, -25, -2)).content_normalized() == Polynomial((0, 25, 2))


def test_antiderivative_inverts_derivative():
    rng = random.Random(1)
    for _ in range(40):
        p = rand_poly(rng)
        c = p.coefficient(0)
        assert p.derivative().antiderivative(c) == p


def test_divmod_and_gcd():
    a = Polynomial((1, 2, 1))   # (X+1)^2
    b = Polynomial((1, 1))
    q, r = a.divmod(b)
    assert q == b and r.is_zero()
    assert a.gcd(Polynomial((2, 2))) == b
    rng = random.Random(2)
    for _ in range(30):
        p = rand_poly(rng, 4, zero_ok=False)
        q = rand_poly(rng, 3, zero_ok=False)
        g = rand_poly(rng, 2, zero_ok=False)
        common = (p * g).gcd(q * g)
        assert common.divmod(g.content_normalized())[1].is_zero()


def test_gcd_matches_plain_euclid():
    def plain_gcd(a, b):
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.content_normalized()

    rng = random.Random(5)
    for _ in range(40):
        g = rand_poly(rng, 3, zero_ok=False)
        p = rand_poly(rng, 6) * g
        q = rand_poly(rng, 6) * g
        assert p.gcd(q) == plain_gcd(p, q), (p, q)
    assert Polynomial().gcd(Polynomial()).is_zero()


def test_reduced_rationals_after_arithmetic():
    rng = random.Random(3)
    for _ in range(60):
        p, q = rand_poly(rng), rand_poly(rng)
        for c in (p + q).coeffs + (p * q).coeffs + (p - q).coeffs:
            # Fractions normalize themselves; make the invariant explicit
            import math
            assert math.gcd(c.numerator, c.denominator) == 1
            assert c.denominator > 0


def test_eval_and_pretty():
    p = Polynomial((5, 13, Fraction(11, 2), Fraction(1, 2)))
    assert p(1) == 24
    assert p.pretty() == "1/2·X^3 + 11/2·X^2 + 13·X + 5"
    assert Polynomial((0, -1, 1)).pretty() == "X^2 - X"
    assert Polynomial().pretty() == "0"


def test_json_roundtrip():
    p = Polynomial((Fraction(1, 2), 0, 3))
    assert p.to_json() == ["1/2", "0", "3"]
    assert Polynomial.from_json(p.to_json()) == p


def test_rational_strings():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational("7/3") == Fraction(7, 3)
    with pytest.raises(ValueError):
        parse_rational("nope")


# -- rational functions -----------------------------------------------------

def test_rational_function_reduction():
    rf = RationalFunction(Polynomial((0, 2)), Polynomial((0, 0, 2)))
    assert rf.num == Polynomial((1,)) and rf.den == X


def test_rational_function_arithmetic():
    rng = random.Random(4)
    for _ in range(25):
        a = RationalFunction(rand_poly(rng, 3), rand_poly(rng, 2, zero_ok=False))
        b = RationalFunction(rand_poly(rng, 3), rand_poly(rng, 2, zero_ok=False))
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a


def test_rational_function_derivative():
    rf = RationalFunction(Polynomial((1,)), X)       # 1/X
    assert rf.derivative() == RationalFunction(Polynomial((-1,)),
                                               Polynomial((0, 0, 1)))


# -- Laguerre polynomials ---------------------------------------------------

def test_laguerre_small():
    assert laguerre(0) == Polynomial((1,))
    assert laguerre(1) == Polynomial((1, -1))
    assert laguerre(2) == Polynomial((1, -2, Fraction(1, 2)))


def test_laguerre_satisfies_its_equation():
    for n in range(16):
        p = laguerre(n)
        residual = (X * p.derivative().derivative()
                    + Polynomial((1, -1)) * p.derivative() + n * p)
        assert residual.is_zero()


def test_generalized_laguerre_alpha_zero():
    for n in range(11):
        assert generalized_laguerre(n, 0) == laguerre(n)


def test_laguerre_cache_fill_is_thread_safe(monkeypatch):
    monkeypatch.setattr(algebra, "_laguerre_cache", [Polynomial((1,))])
    start = threading.Barrier(4)

    def worker(_):
        start.wait()
        return laguerre(40)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(worker, range(4)))
    finally:
        sys.setswitchinterval(interval)
    cache = algebra._laguerre_cache
    assert [p.degree for p in cache] == list(range(len(cache)))
    assert results == [generalized_laguerre(40, 0)] * 4


def test_generalized_laguerre_alpha_one_values():
    # L_1^(1) = 2 - X, L_2^(1) = 3 - 3X + X^2/2
    assert generalized_laguerre(1, 1) == Polynomial((2, -1))
    assert generalized_laguerre(2, 1) == Polynomial((3, -3, Fraction(1, 2)))


# -- series -----------------------------------------------------------------

def test_exp_series():
    s = exp_series(1, 4)
    assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))


def test_bessel_exp_product_coefficients():
    n = 12
    prod = exp_series(2, n) * bessel_i_series(0, 2, n)
    import math
    for i in range(n + 1):
        expected = sum(Fraction(2 ** (i - 2 * s),
                                math.factorial(i - 2 * s) * math.factorial(s) ** 2)
                       for s in range(i // 2 + 1))
        assert prod.coefficient(i) == expected


def test_series_from_counters_exp_prefix():
    assert series_from_counters([1] * 8) == exp_series(1, 7)


def test_series_ring_laws_at_fixed_truncation():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(4, 9)
        a = TruncatedSeries(rng.randint(-5, 5) for _ in range(n + 1))
        b = TruncatedSeries(rng.randint(-5, 5) for _ in range(n + 1))
        c = TruncatedSeries(rng.randint(-5, 5) for _ in range(n + 1))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_series_derivative_and_truncate():
    s = poly_to_series(Polynomial((1, 2, 3)), 5)
    assert s.derivative().coeffs[:2] == (2, 6)
    assert s.truncate(2).order == 2
    with pytest.raises(ValueError):
        s.truncate(9)


def test_monomial_and_factorial():
    assert monomial(3, 2) == Polynomial((0, 0, 0, 2))
    assert factorial(5) == 120
