"""Exact arithmetic layer."""

import random
from fractions import Fraction

import pytest

from displab.algebra import (Polynomial, TruncatedSeries, bessel_i_series,
                             binomial, exp_series, format_rational,
                             generalized_laguerre, laguerre, monomial,
                             multinomial, parse_rational, pochhammer,
                             series_from_counters, X)
from helpers import antiderivative, content_normalized


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
    assert content_normalized(p) == Polynomial((0, 25, 2))
    assert content_normalized(Polynomial((0, -25, -2))) == Polynomial((0, 25, 2))


def test_antiderivative_inverts_derivative():
    rng = random.Random(1)
    for _ in range(40):
        p = rand_poly(rng)
        c = p.coefficient(0)
        assert antiderivative(p.derivative(), c) == p


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
        assert common.divmod(content_normalized(g))[1].is_zero()


def test_gcd_matches_plain_euclid():
    def plain_gcd(a, b):
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return content_normalized(a)

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


def test_generalized_laguerre_three_term_recurrence():
    # (n+1) L_{n+1} = (2n+1+alpha-X) L_n - (n+alpha) L_{n-1}, checked on
    # the closed form
    for alpha in range(-45, 12):
        prev, cur = generalized_laguerre(0, alpha), generalized_laguerre(1, alpha)
        assert prev == Polynomial((1,))
        assert cur == Polynomial((1 + alpha, -1))
        for n in range(1, 41):
            nxt = generalized_laguerre(n + 1, alpha)
            assert (n + 1) * nxt == (Polynomial((2 * n + 1 + alpha, -1)) * cur
                                     - (n + alpha) * prev), (n, alpha)
            prev, cur = cur, nxt


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1.0, "1", True])
def test_generalized_laguerre_refuses_a_non_integer_parameter(alpha):
    with pytest.raises(ValueError, match="must be an integer"):
        generalized_laguerre(2, alpha)


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


def test_monomial():
    assert monomial(3) == Polynomial((0, 0, 0, 1))


# -- the integer representation ---------------------------------------------

def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rand_vector(rng, length, bits):
    v = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits))
         for _ in range(length)]
    if length > 2 and rng.random() < 0.3:
        # a run of zeros in the middle
        lo = rng.randrange(1, length - 1)
        hi = rng.randrange(lo, length - 1)
        v[lo:hi + 1] = [0] * (hi + 1 - lo)
    if not v[-1]:
        v[-1] = rng.choice((-1, 1))
    return v


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(7)
    for trial in range(300):
        a = rand_vector(rng, rng.randint(1, 70), rng.choice((1, 8, 64, 2000)))
        b = rand_vector(rng, rng.randint(1, 70), rng.choice((1, 8, 64, 2000)))
        p, q = Polynomial.from_numerators(a), Polynomial.from_numerators(b)
        assert list((p * q).num) == schoolbook(a, b), trial
        assert list((p * p).num) == schoolbook(a, a), trial
    # extreme coefficients reach the digit bound for every byte alignment
    for length in (16, 31, 63, 70):
        for bits in range(1, 41):
            top = (1 << bits) - 1
            for a, b in (([top] * length, [top] * length),
                         ([-top] * length, [top] * 17)):
                p, q = Polynomial.from_numerators(a), Polynomial.from_numerators(b)
                assert list((p * q).num) == schoolbook(a, b), (length, bits)


def test_products_over_denominators():
    rng = random.Random(8)
    for _ in range(60):
        p, q = rand_poly(rng, 12), rand_poly(rng, 12)
        expected = [sum((p.coefficient(i) * q.coefficient(k - i)
                         for i in range(k + 1)), Fraction(0))
                    for k in range(p.degree + q.degree + 1)]
        assert p * q == Polynomial(expected)


def assert_canonical(p):
    import math
    assert p.den > 0
    assert all(type(c) is int for c in p.num)
    if p.num:
        assert p.num[-1] != 0
        assert math.gcd(p.den, *p.num) == 1
    else:
        assert p.den == 1
    assert Polynomial(p.coeffs) == p
    assert hash(Polynomial(p.coeffs)) == hash(p)


def test_canonical_form_on_every_path():
    rng = random.Random(9)
    for _ in range(60):
        p, q = rand_poly(rng), rand_poly(rng)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for r in (p, p + q, p - q, p * q, c * p, p * 6, -p, p - p,
                  p.derivative(), antiderivative(p, c), p.compose_neg(),
                  content_normalized(p), q.gcd(p)):
            assert_canonical(r)
    assert Polynomial().num == () and Polynomial().den == 1


def test_equal_values_from_different_paths_compare_and_hash_equal():
    half = Polynomial((Fraction(1, 2), Fraction(3, 2)))
    paths = [
        half,
        Polynomial(("1/2", "3/2", 0, 0)),
        Polynomial((1, 3)) * Fraction(1, 2),
        Polynomial((1, 3)) / 2,
        Polynomial.from_numerators([3, 9], 6),
        Polynomial.from_numerators([-1, -3, 0], -2),
        (Polynomial((Fraction(1, 2), 5, Fraction(1, 3)))
         - Polynomial((0, Fraction(7, 2), Fraction(1, 3)))),
        Polynomial((0, Fraction(1, 2), Fraction(3, 4))).derivative(),
        Polynomial((Fraction(1, 4), Fraction(3, 4))) * 2,
    ]
    for p in paths:
        assert p == half and hash(p) == hash(half), p
        assert (p.num, p.den) == ((1, 3), 2)
    zero = Polynomial((Fraction(1, 3),)) - Polynomial((Fraction(2, 6),))
    assert zero == Polynomial() and hash(zero) == hash(Polynomial())
    assert (zero.num, zero.den) == ((), 1)
    assert half * Fraction(0) == Polynomial()


def test_polynomial_holds_no_fraction():
    p = Polynomial((Fraction(1, 2), 3))
    assert set(Polynomial.__slots__) == {"num", "den"}
    assert p.num == (1, 6) and p.den == 2
    with pytest.raises(AttributeError):
        p.num = (1,)


def fraction_euclid_gcd(a, b):
    """Euclid's algorithm on Fraction coefficient lists, highest degree last,
    made primitive with a positive leading coefficient at the end."""
    import math

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            q = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for j, y in enumerate(b):
                rem[shift + j] -= q * y
            rem.pop()
            trim(rem)
        a, b = b, rem
    if not a:
        return []
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def test_gcd_agrees_with_fraction_euclid():
    rng = random.Random(10)
    for trial in range(120):
        # planted factors of degree 0 to 4, times powers of X
        g = rand_poly(rng, 4, zero_ok=False) * monomial(rng.randint(0, 2))
        p = rand_poly(rng, 8) * g * monomial(rng.randint(0, 2))
        q = rand_poly(rng, 8) * g
        got = p.gcd(q)
        assert got.den == 1, trial
        assert list(got.num) == fraction_euclid_gcd(p.coeffs, q.coeffs), trial
        # the planted factor divides the result
        assert p.is_zero() and q.is_zero() or got.divmod(g)[1].is_zero()


def test_gcd_of_polynomials_equal_modulo_the_first_prime():
    # X + 1 and X + 2^61 agree modulo 2^61 - 1 but are coprime
    assert Polynomial((1, 1)).gcd(Polynomial((1 << 61, 1))) == Polynomial((1,))
    assert Polynomial((2, 1)).gcd(Polynomial((2, 1)) * (1 << 61)) == Polynomial((2, 1))


def test_divmod_reconstructs_the_dividend():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng, 9)
        b = rand_poly(rng, 5, zero_ok=False)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_eval_at_rationals_matches_fraction_horner():
    rng = random.Random(12)
    for _ in range(60):
        p = rand_poly(rng, 8)
        for x in (rng.randint(-20, 20),
                  Fraction(rng.randint(-20, 20), rng.randint(1, 9))):
            expected = Fraction(0)
            for c in reversed(p.coeffs):
                expected = expected * x + c
            assert p(x) == expected and type(p(x)) is Fraction


def test_laguerre_closed_form_matches_antiderivative_recurrence():
    # L_j' = L_{j-1}' - L_{j-1} with L_j(0) = 1
    prev = Polynomial((1,))
    assert laguerre(0) == prev
    for n in range(1, 41):
        prev = prev - antiderivative(prev, 0)
        assert laguerre(n) == prev, n


def test_inner_products_match_the_explicit_product():
    import math

    from displab.orthogonality import gram, laguerre_inner

    def explicit(p, q):
        return sum((c * math.factorial(k) for k, c in enumerate((p * q).coeffs)),
                   Fraction(0))

    rng = random.Random(13)
    polys = [rand_poly(rng, 9) for _ in range(8)] + [laguerre(5), Polynomial()]
    for p in polys:
        for q in polys:
            assert laguerre_inner(p, q) == explicit(p, q)
    for flip in (False, True):
        matrix = gram(polys, flip_sign=flip)
        ps = [p.compose_neg() if flip else p for p in polys]
        assert matrix.entries == tuple(tuple(explicit(p, q) for q in ps)
                                       for p in ps)
