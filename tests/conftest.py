import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from crnregions import parse_network
from crnregions.unipoly import ZeroPolynomialError

NETS = Path(__file__).parent / "nets"
GOLDEN = Path(__file__).parent / "golden"

RUNNING = NETS / "running.crn"
PROP51 = NETS / "prop51.crn"
ACR = NETS / "acr.crn"
JOSHI_N2 = NETS / "joshi_n2.crn"
JOSHI_N3L2 = NETS / "joshi_n3l2.crn"
EX53 = NETS / "ex53.crn"
EQ19 = NETS / "eq19.crn"


def load(path: Path):
    return parse_network(path.read_text())


def exact_terms(poly, point, first=0):
    """Reference for SymPoly.term_values: (exponents of the symbols before
    first, exact value) per term, with symbols first, first + 1, ... bound
    to point and every value computed on Fractions."""
    for e, c in poly.terms.items():
        v = Fraction(c)
        for base, x in zip(point, e[first:]):
            v *= Fraction(base) ** x
        yield e[:first], v


def exact_value(poly, point) -> Fraction:
    """The exact value of poly at point, term by term on Fractions."""
    return sum((v for _, v in exact_terms(poly, point)), Fraction(0))


# References for Swan's closed-form trinomial discriminant: Sylvester
# resultants on Fractions.


def _rationals(coeffs: Sequence) -> list[Fraction]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def sylvester_matrix(f: Sequence, g: Sequence) -> list[list[Fraction]]:
    """Sylvester matrix of two polynomials given by rational coefficients
    (ascending degree)."""
    f, g = _rationals(f), _rationals(g)
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    fm = f[::-1]
    gm = g[::-1]
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + fm + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gm + [Fraction(0)] * (size - n - 1 - i))
    return rows


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] * inv
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return det


def resultant(f: Sequence, g: Sequence) -> Fraction:
    """Res(f, g) of two polynomials given by rational coefficients (ascending
    degree); not invariant under scaling, so it takes no UniPoly."""
    f, g = _rationals(f), _rationals(g)
    if not f or not g:
        raise ZeroPolynomialError("resultant of zero polynomial")
    if len(f) == 1:
        return f[0] ** (len(g) - 1)
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    return _det(sylvester_matrix(f, g))


def discriminant_via_resultant(p: Sequence) -> Fraction:
    """Standard discriminant (-1)^(n(n-1)/2) Res(p, p') / lc(p) of the
    polynomial with rational coefficients p (ascending degree)."""
    p = _rationals(p)
    n = len(p) - 1
    sign = Fraction(-1) ** (n * (n - 1) // 2)
    return sign * resultant(p, [i * c for i, c in enumerate(p)][1:]) / p[-1]


def trinomial_discriminant(n: int, k: int, a, b) -> Fraction:
    """Discriminant of x^n + a*x^k + b via Swan's closed form."""
    if not 0 < k < n:
        raise ValueError("trinomial requires 0 < k < n")
    a, b = Fraction(a), Fraction(b)
    d = math.gcd(n, k)
    N, K = n // d, k // d
    sign = Fraction(-1) ** (n * (n - 1) // 2)
    inner = (
        Fraction(n) ** N * b ** (N - K)
        - Fraction(-1) ** N * Fraction(n - k) ** (N - K) * Fraction(k) ** K * a**N
    )
    return sign * b ** (k - 1) * inner**d


@pytest.fixture
def running_net():
    return load(RUNNING)


@pytest.fixture
def prop51_net():
    return load(PROP51)


@pytest.fixture
def acr_net():
    return load(ACR)


@pytest.fixture
def ex53_net():
    return load(EX53)
