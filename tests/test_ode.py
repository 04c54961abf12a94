"""Laguerre-pair decompositions and the equation constructions."""

import random
import time
from fractions import Fraction

import pytest

from displab.algebra import (Polynomial, TruncatedSeries, X, ZERO, laguerre,
                             monomial, exp_series, bessel_i_series,
                             poly_to_series)
from displab.companion import (catalan_polynomial, catalan_polynomial_r3,
                               staircase_companion, two_row_companion)
from displab.families import make_empty
from displab.companion import companion_by_recurrence
from displab.nonstrict import nonstrict_path_series
from displab.ode import (Ode2, catalan_ode, laguerre_basis_decompose,
                         laguerre_equation, laguerrean, laguerrean_reflected,
                         reduce_to_QR, two_row_ode, verify_ode,
                         verify_ode_on_series)

from displab import golden

from helpers import (ab_reduction, catalan_ode_closed,
                     decompose_by_triangular_solve, laguerre_basis_polys,
                     two_row_ode_closed)


def rand_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
    return Polynomial(coeffs)


def golden_ode(triple):
    u, v, w = triple
    return Ode2(Polynomial.from_json(u), Polynomial.from_json(v),
                Polynomial.from_json(w))


# -- Ode2 value type ----------------------------------------------------------

def test_ode2_normalization():
    a = Ode2(Polynomial((0, 0, 9, 72))[::1] if False else Polynomial((0, 72, 9)),
             Polynomial((72, 72, 9)), Polynomial((-108, -18)))
    b = Ode2(Polynomial((0, 8, 1)), Polynomial((8, 8, 1)),
             Polynomial((-12, -2)))
    assert a == b


def test_ode2_divides_polynomial_common_factor():
    # X * (Laguerre equation) normalizes back to the Laguerre equation
    lag = laguerre_equation(3)
    scaled = Ode2(X * lag.u, X * lag.v, X * lag.w)
    assert scaled == lag


def test_ode2_sign_convention():
    flipped = Ode2(Polynomial((0, -1)), Polynomial((-1, 1)), Polynomial((-3,)))
    assert flipped == laguerre_equation(3)


def test_ode2_rejects_zero_triple():
    with pytest.raises(ValueError):
        Ode2(Polynomial(), Polynomial(), Polynomial())


def test_ode2_reflect_roundtrip():
    ode = catalan_ode(3, 2)
    assert ode.reflect().reflect() == ode


def test_ode2_reflect_equals_normalized_reflection():
    # reflecting a normalized equation and normalizing the reflected raw
    # triple give the same coefficients, and reflection is an involution
    rng = random.Random(65)
    odes = [laguerrean(staircase_companion(n).compose_neg())
            for n in range(1, 21)]
    for _ in range(60):
        common = rand_poly(rng, 2) * rng.choice((-1, 1))
        triple = [common * rand_poly(rng, 5) * rng.choice((-1, 1))
                  if rng.random() < 0.8 else Polynomial() for _ in range(3)]
        if any(triple):
            odes.append(Ode2(*triple))
    for ode in odes:
        expected = Ode2(ode.u.compose_neg(), -ode.v.compose_neg(),
                        ode.w.compose_neg())
        assert ode.reflect() == expected
        assert ode.reflect().reflect() == ode


# -- verify_ode ----------------------------------------------------------------

def test_verify_ode_examples():
    assert verify_ode(laguerre_equation(4), laguerre(4))
    assert verify_ode(catalan_ode(4, 2), catalan_polynomial(4))
    assert not verify_ode(laguerre_equation(4), laguerre(3))


# -- basis decomposition ---------------------------------------------------------

def test_decompose_basis_element():
    assert laguerre_basis_decompose(laguerre(5), 5) == (1, 0, 0, 0, 0, 0)


def test_decompose_staircase4_flipped():
    """T(S4) at reflected argument decomposes into the printed tuple after
    the alternating sign twist."""
    p = staircase_companion(4).compose_neg()
    raw = laguerre_basis_decompose(p, 3)
    twisted = tuple((-1) ** i * c for i, c in enumerate(raw))
    assert twisted == (5, Fraction(4, 3), Fraction(1, 6), 0)


def test_decompose_staircase6():
    p = staircase_companion(6).compose_neg()
    raw = laguerre_basis_decompose(p, 5)
    twisted = [str((-1) ** i * c) for i, c in enumerate(raw)]
    assert twisted == golden.STAIRCASE_G_TUPLES[6]


def test_decompose_reconstruction_random():
    rng = random.Random(51)
    for _ in range(30):
        p = rand_poly(rng, 7)
        coeffs = laguerre_basis_decompose(p, p.degree)
        basis = laguerre_basis_polys(p.degree)
        rebuilt = Polynomial()
        for c, b in zip(coeffs, basis):
            rebuilt = rebuilt + c * b
        assert rebuilt == p


def test_decompose_rejects_zero():
    with pytest.raises(ValueError):
        laguerre_basis_decompose(Polynomial(), 0)


def test_decompose_rejects_degree_above_index():
    with pytest.raises(ValueError, match="degree 3 exceeds basis index 2"):
        laguerre_basis_decompose(laguerre(3), 2)


def test_closed_forms_match_the_oracles():
    """The closed-form coefficients equal the triangular solve for every
    basis index from deg p to deg p + 3, and (Q, R) equals the sum of
    c_i (a[i], b[i]) over the step-by-step module pairs."""
    rng = random.Random(53)
    for deg in range(13):
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                      for _ in range(deg)]
            coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.randint(2, 12)))
            p = Polynomial(coeffs)
            assert p.den > 1
            for n in range(deg, deg + 4):
                assert (laguerre_basis_decompose(p, n)
                        == decompose_by_triangular_solve(p, n)), (p, n)
            a, b = ab_reduction(deg)
            q = r = Polynomial()
            for c, a_i, b_i in zip(laguerre_basis_decompose(p, deg), a, b):
                q = q + c * a_i
                r = r + c * b_i
            assert reduce_to_QR(p) == (q, r), p


# -- A/B reduction oracle ----------------------------------------------------------

def test_ab_first_steps():
    a, b = ab_reduction(4)
    assert a[0] == Polynomial((1,)) and b[0].is_zero()
    assert a[1].is_zero() and b[1] == X
    assert a[2] == Polynomial((0, -4))
    assert b[2] == Polynomial((0, -1, 1))


def test_ab_reconstruction_exact():
    for n in range(3, 9):
        a, b = ab_reduction(n)
        lag = laguerre(n)
        deriv = lag
        for i in range(n + 1):
            assert monomial(i) * deriv == a[i] * lag + b[i] * lag.derivative(), (n, i)
            deriv = deriv.derivative()


def test_ab_denominators_divide_power_of_x():
    """a[i] = X^i A_i is a polynomial, so X^i clears A_i's denominator;
    the degree bounds are the ones reduce_to_QR relies on."""
    for n in (2, 4, 6, 9):
        a, b = ab_reduction(n)
        assert len(a) == len(b) == n + 1
        assert a[0] == Polynomial((1,)) and b[0].is_zero()
        for i in range(1, n + 1):
            assert a[i].degree <= i - 1 and b[i].degree <= i, (n, i)


# -- Q/R reduction ----------------------------------------------------------------

def test_qr_of_laguerre():
    q, r = reduce_to_QR(laguerre(6))
    assert q == Polynomial((1,)) and r.is_zero()


def test_qr_printed_pairs():
    for n, (q_str, r_str) in golden.STAIRCASE_QR.items():
        q, r = reduce_to_QR(staircase_companion(n).compose_neg())
        assert q == Polynomial.from_json(q_str), n
        assert r == Polynomial.from_json(r_str), n


def test_qr_reconstruction_random():
    rng = random.Random(52)
    for _ in range(30):
        p = rand_poly(rng, 7)
        n = p.degree
        q, r = reduce_to_QR(p)
        assert q * laguerre(n) + r * laguerre(n).derivative() == p
        assert q.degree <= max(n - 1, 0) and r.degree <= n


# -- the laguerrean ----------------------------------------------------------------

def test_laguerrean_of_laguerre_is_laguerre_equation():
    for n in range(11):
        assert laguerrean(laguerre(n)) == laguerre_equation(n)


def test_laguerrean_satisfied_by_random_polynomials():
    rng = random.Random(53)
    for _ in range(40):
        p = rand_poly(rng, 8)
        assert verify_ode(laguerrean(p), p)


def test_laguerrean_printed_example():
    ode = laguerrean_reflected(staircase_companion(3))
    assert ode == golden_ode(golden.STAIRCASE_EQUATIONS[3])


def test_staircase_equations_printed():
    for n, triple in golden.STAIRCASE_EQUATIONS.items():
        ode = laguerrean_reflected(staircase_companion(n))
        assert ode == golden_ode(triple), n
        assert verify_ode(ode, staircase_companion(n))


def test_staircase_equations_near_order_122_finish():
    # 2^61 - 1 divides the tangent numbers here, so the first coprimality
    # prime of Polynomial.gcd fails; the pseudo-remainder sequence it fell
    # back to had not finished after 7 CPU minutes
    start = time.perf_counter()
    for n in (121, 122, 123):
        p = staircase_companion(n)
        assert verify_ode(laguerrean_reflected(p), p), n
    assert time.perf_counter() - start < 20


def test_reflected_laguerrean_satisfied_random():
    rng = random.Random(54)
    for _ in range(25):
        p = rand_poly(rng, 7)
        assert verify_ode(laguerrean_reflected(p), p)


def _qr_equation_expanded(p):
    """Independently expanded single-expression form of the elimination.

    Serves as a transcription cross-check of the minor computation for
    small degrees.
    """
    n = p.degree
    q, r = reduce_to_QR(p)
    qp, rp = q.derivative(), r.derivative()
    qpp, rpp = qp.derivative(), rp.derivative()
    xm1 = Polynomial((-1, 1))
    xm2 = Polynomial((-2, 1))
    u = X * (r * (n * r - X * qp) + q * (X * rp + xm1 * r) + X * q * q)
    v = (r * (X * (X * qpp - 2 * n * rp) - n * xm2 * r)
         - q * (X * (2 * X * qp + X * rpp + 2 * xm1 * rp)
                + Polynomial((2, -2, 1)) * r)
         + Polynomial((0, 1, -1)) * q * q)
    w = (q * (X * (3 * n * rp - X * qpp + xm1 * qp) + n * xm2 * r)
         + r * (X * (Polynomial((1, -1)) * qpp - n * rpp)
                + Polynomial((2, -(3 * n + 2), 1)) * qp + n * xm2 * rp)
         + X * (rp * (2 * n * rp - X * qpp) + qp * (X * rpp + 2 * xm1 * rp)
                + 2 * X * qp * qp)
         + n * X * q * q + (n - 1) * n * r * r)
    return Ode2(u, v, w)


def test_elimination_matches_expanded_formula_small_degrees():
    rng = random.Random(55)
    cases = [laguerre(k) for k in range(1, 5)]
    cases += [staircase_companion(k).compose_neg() for k in range(2, 6)]
    cases += [rand_poly(rng, 4) for _ in range(12)]
    for p in cases:
        if p.degree < 1:
            continue
        assert laguerrean(p) == _qr_equation_expanded(p), p.to_json()


def test_elimination_matches_expanded_formula_larger_degrees():
    rng = random.Random(56)
    cases = [staircase_companion(k).compose_neg() for k in range(2, 18)]
    cases += [rand_poly(rng, 10) for _ in range(15)]
    for p in cases:
        if p.degree < 1:
            continue
        lag = laguerre(p.degree)
        q, r = reduce_to_QR(p)
        assert q * lag + r * lag.derivative() == p
        assert laguerrean(p) == _qr_equation_expanded(p), p.to_json()


# -- the two-row and Catalan equation families ------------------------------------

def test_two_row_ode_printed_2_3():
    assert two_row_ode(2, 3, 2) == golden_ode(golden.TWO_ROW_2_3_EQUATION)


def test_catalan_ode_printed():
    for n, triple in golden.CATALAN_EQUATIONS.items():
        assert catalan_ode(n, 2) == golden_ode(triple), n


def test_catalan_ode_equals_two_row_ode_on_diagonal():
    # the printed simplified forms are the equal-rows two-row forms, and
    # the elimination finds them
    for r in (2, 3):
        for n in range(r, 201):
            assert catalan_ode_closed(n, r) == two_row_ode_closed(n, n, r), (
                n, r)
        for n in range(r, 61):
            assert catalan_ode(n, r) == catalan_ode_closed(n, r), (n, r)


def test_two_row_ode_satisfied_by_companions():
    for r in (2, 3):
        for n2 in range(r, 7):
            for n1 in range(n2 + 1):
                assert verify_ode(two_row_ode(n1, n2, r),
                                  two_row_companion(n1, n2, r)), (n1, n2, r)


def test_two_row_ode_is_the_elimination_of_the_companion():
    """The elimination finds the printed closed forms wherever they do not
    vanish, and an equation the companion satisfies where they do."""
    vanishing = {(0, 2, 2), (0, 3, 3), (1, 3, 3), (0, 4, 3)}
    checked = 0
    for r in (2, 3):
        for n2 in range(r, 16):
            for n1 in range(n2 + 1):
                if (n1, n2, r) in vanishing:
                    with pytest.raises(ValueError, match="vanishes"):
                        two_row_ode_closed(n1, n2, r)
                    assert verify_ode(two_row_ode(n1, n2, r),
                                      two_row_companion(n1, n2, r))
                    continue
                assert two_row_ode(n1, n2, r) == two_row_ode_closed(
                    n1, n2, r), (n1, n2, r)
                checked += 1
    assert checked == 259


def test_two_row_ode_coefficients_have_small_degree():
    # the paper's low-degree forms: deg U, deg V <= r and deg W <= r - 1
    checked = 0
    for r in (2, 3):
        for n2 in range(r, 31):
            for n1 in range(n2 + 1):
                ode = two_row_ode(n1, n2, r)
                assert (ode.u.degree <= r and ode.v.degree <= r
                        and ode.w.degree <= r - 1), (n1, n2, r)
                checked += 1
    assert checked == 983


def test_two_row_ode_reduces_to_laguerre_at_zero_rows():
    for n2 in range(3, 9):
        assert two_row_ode(0, n2, 2).reflect() == laguerre_equation(n2 - 2)


def test_catalan_ode_satisfied_through_8():
    for n in range(2, 9):
        assert verify_ode(catalan_ode(n, 2), catalan_polynomial(n))
    for n in range(3, 8):
        assert verify_ode(catalan_ode(n, 3), catalan_polynomial_r3(n))


def test_empty_family_generalized_laguerre_equation():
    # X Y'' + (2 + X) Y' - j Y = 0 for the arcless-digraph companions
    for j in range(11):
        poly = companion_by_recurrence(make_empty(j + 1), 0)
        ode = Ode2(X, Polynomial((2, 1)), Polynomial((-j,)))
        assert verify_ode(ode, poly), j


def test_ode_parameter_validation():
    with pytest.raises(ValueError):
        catalan_ode(1, 2)
    with pytest.raises(ValueError):
        catalan_ode(2, 3)
    with pytest.raises(ValueError):
        two_row_ode(2, 1, 2)
    with pytest.raises(ValueError):
        two_row_ode(3, 3, 4)


# -- series-level verification ----------------------------------------------------

def test_series_ode_nonstrict_paths():
    ode = Ode2(X, Polynomial((1, -4)), Polynomial((-2,)))
    series = nonstrict_path_series(14)
    assert verify_ode_on_series(ode, series, inhomogeneous=Polynomial((1,)))


def test_series_ode_bessel_exp_product():
    ode = Ode2(X, Polynomial((1, -4)), Polynomial((-2,)))
    series = exp_series(2, 14) * bessel_i_series(0, 2, 14)
    assert verify_ode_on_series(ode, series)


def test_series_ode_general_family():
    n, m, k = 3, 1, 2
    ode = Ode2(monomial(2), Polynomial((0, 1, -2 * n)),
               Polynomial((-m * m, -n, n * n - k * k)))
    series = exp_series(n, 14) * bessel_i_series(m, k, 14)
    assert verify_ode_on_series(ode, series)


def test_series_ode_sees_each_checked_coefficient():
    # the non-strict path equation, with and without its right-hand side;
    # the residual through X^(N-2) reads every coefficient through X^(N-2)
    ode = Ode2(X, Polynomial((1, -4)), Polynomial((-2,)))
    for series, rhs in ((nonstrict_path_series(14), Polynomial((1,))),
                        (exp_series(2, 14) * bessel_i_series(0, 2, 14), ZERO)):
        coeffs = series.coeffs
        for k in range(series.order - 1):
            changed = TruncatedSeries(
                coeffs[:k] + (coeffs[k] + 1,) + coeffs[k + 1:])
            assert not verify_ode_on_series(ode, changed, rhs), k
        for order in range(4, series.order):
            assert verify_ode_on_series(
                ode, TruncatedSeries(coeffs[:order + 1]), rhs), order


def test_series_ode_rejects_short_series():
    ode = laguerre_equation(2)
    with pytest.raises(ValueError):
        verify_ode_on_series(ode, poly_to_series(laguerre(2), 3))
