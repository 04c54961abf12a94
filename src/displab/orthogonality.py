"""Exact inner products against the weight exp(-x) on [0, inf).

The monomial moments are factorials, so every integral here is a finite
rational sum; no numerics anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import Polynomial, format_rational, laguerre, monomial, pochhammer


def laguerre_inner(p: Polynomial, q: Polynomial) -> Fraction:
    """<p, q> = integral of p q exp(-x) over [0, inf) = sum c_k k!.

    With p = P/d and q = Q/e this is sum_j Q_j m_j / (d e), where
    m_j = sum_i P_i (i+j)! is p's moment vector, so the product p q is
    never formed.
    """
    moments = _moments(p, len(q.num))
    return Fraction(sum(map(operator.mul, q.num, moments)), p.den * q.den)


def _moments(p: Polynomial, count: int) -> list[int]:
    """[sum_i P_i (i+j)! for j < count], P the numerators of p.

    Each is j! S(j) with S(j) = sum_i P_i (j+1)(j+2)...(j+i), and S(j) by
    Horner's rule multiplies only by the small integers j+i.
    """
    num = p.num
    out = []
    factorial = 1  # j!
    for j in range(count):
        acc = 0
        for i in range(len(num) - 1, 0, -1):
            acc = (acc + num[i]) * (j + i)
        out.append((acc + num[0]) * factorial if num else 0)
        factorial *= j + 1
    return out


def moment_xi_djLn(i: int, j: int, n: int) -> Fraction:
    """<X^i, d^j L_n>: (-1)^n (n-j+1)_j (i-n+1)_{n-j} (n+1)_{i-n} for j <= n,
    zero otherwise.  Negative-length rising factorials follow the reciprocal
    convention, which is exactly what makes the i < n cases come out right.
    """
    if min(i, j, n) < 0:
        raise ValueError("indices must be nonnegative")
    if j > n:
        return Fraction(0)
    return ((-1) ** n * pochhammer(n - j + 1, j)
            * pochhammer(i - n + 1, n - j) * pochhammer(n + 1, i - n))


class GramMatrix(NamedTuple):
    entries: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...]

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + list(self.labels))
        for label, row in zip(self.labels, self.entries):
            writer.writerow([label] + [format_rational(x) for x in row])
        return buf.getvalue()

    def is_diagonal(self) -> bool:
        return all(x == 0
                   for i, row in enumerate(self.entries)
                   for j, x in enumerate(row) if i != j)


def gram(polys: Sequence[Polynomial], flip_sign: bool = False,
         labels: Sequence[str] | None = None) -> GramMatrix:
    """Matrix of <p_i(+-X), p_j(+-X)> under the exp(-x) weight."""
    ps = [p.compose_neg() if flip_sign else p for p in polys]
    if labels is None:
        labels = [f"p{i + 1}" for i in range(len(ps))]
    # each member's moment vector once, then one dot product per entry
    # on and above the diagonal
    longest = max((len(p.num) for p in ps), default=0)
    moments = [_moments(p, longest) for p in ps]
    rows = [[Fraction(0)] * len(ps) for _ in ps]
    for i, p in enumerate(ps):
        for j in range(i, len(ps)):
            q = ps[j]
            rows[i][j] = rows[j][i] = Fraction(
                sum(map(operator.mul, q.num, moments[i])), p.den * q.den)
    return GramMatrix(tuple(map(tuple, rows)), tuple(labels))


def maximality_witness(family: Sequence[Polynomial], odd_degree: int) -> Fraction:
    """Nonzero inner product blocking any odd-degree extension of the family.

    ``family`` holds the sign-flipped polynomials (degrees 0, 2, 4, ...);
    for odd degree 2n+1 the witness is <X^{2n+1}, family[n+1]>, which is
    provably nonzero: no odd-degree polynomial can be orthogonal to the
    whole family.
    """
    if odd_degree < 1 or odd_degree % 2 == 0:
        raise ValueError("witness degree must be odd and positive")
    n = (odd_degree - 1) // 2
    if n + 1 >= len(family):
        raise ValueError(f"family too short for degree {odd_degree}")
    value = laguerre_inner(monomial(odd_degree), family[n + 1])
    if value == 0:
        raise AssertionError("maximality witness vanished; family is wrong")
    return value


def gram_projection(family: Sequence[Polynomial],
                    p: Polynomial) -> list[Fraction]:
    """Solve the Gram system <sum c_i e_i, e_j> = <p, e_j> for c.

    For an orthogonal family the Gram matrix is diagonal with positive
    entries, so the system always has the unique solution
    c_i = <p, e_i> / <e_i, e_i>; the leftover p - sum c_i e_i is then
    orthogonal to every family member.
    """
    coords = []
    for e in family:
        norm = laguerre_inner(e, e)
        if norm == 0:
            raise ValueError("family member with zero norm")
        coords.append(laguerre_inner(p, e) / norm)
    return coords


def laguerre_gram(count: int) -> GramMatrix:
    """Gram matrix of L_0..L_{count-1}; the diagonal is all ones."""
    return gram([laguerre(k) for k in range(count)],
                labels=[f"L{k}" for k in range(count)])
