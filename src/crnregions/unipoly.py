"""Exact univariate polynomial toolkit over the integers.

Provides Descartes' rule of signs, Sturm-sequence root counting on
intervals of the positive axis, and isolation and refinement of the
positive roots.

Counting on (0, inf) tries Descartes' rule before any Sturm chain.  The
number of sign changes V in the coefficients bounds the positive roots
counted with multiplicity and has their parity, so V = 0 means no positive
root and V = 1 exactly one, which is simple.  Only V >= 2 builds a chain
(Collins and Akritas, 1976, use the same rule to stop their bisection).

UniPoly holds integer coefficients.  A polynomial with rational
coefficients enters through UniPoly.from_rationals, which scales it by the
positive lcm of its denominators: roots, Descartes counts and Sturm counts
are unchanged.  Root counting runs on integer Sturm chains (primitive
remainder sequences) and root refinement on exact dyadic bisection; no
floating point is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


class ZeroPolynomialError(ValueError):
    """Raised when an operation is undefined for the zero polynomial."""


def _integer(c) -> int:
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise ValueError(
        f"UniPoly coefficient {c!r} is not an integer; use UniPoly.from_rationals"
    )


class UniPoly:
    """Dense univariate polynomial with int coefficients (ascending degree)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = [_integer(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_rationals(cls, coeffs: Iterable) -> "UniPoly":
        """The polynomial with rational coefficients coeffs, times the
        positive lcm of their denominators."""
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return cls(c.numerator * (den // c.denominator) for c in cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("degree of zero polynomial is undefined")
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        result = UniPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Greatest common divisor by a primitive remainder sequence: primitive
        with a positive leading coefficient, zero when both are zero."""
        a, b = list(self.coeffs), list(other.coeffs)
        while b:
            a, b = b, _neg_remainder(a, b)
        return UniPoly(_positive_primitive(a) if a else a)

    def squarefree_part(self) -> "UniPoly":
        """self / gcd(self, self'), with coprime integer coefficients and a
        positive leading one."""
        if self.is_zero:
            raise ZeroPolynomialError("squarefree part of zero polynomial")
        cs = _primitive(list(self.coeffs))
        if len(cs) == 1:
            return UniPoly([1])
        return UniPoly(_exact_quotient(cs, _sturm_chain(cs)[-1]))

    def strip_root_at_zero(self) -> tuple["UniPoly", int]:
        """Divide out the largest power of x; returns (quotient, multiplicity)."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial")
        v = 0
        while self.coeffs[v] == 0:
            v += 1
        return UniPoly(self.coeffs[v:]), v

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


def descartes_sign_changes(p: UniPoly) -> int:
    """Sign changes in the coefficient list, zeros removed."""
    if p.is_zero:
        raise ZeroPolynomialError("Descartes' rule requires a nonzero polynomial")
    return _variations(p.coeffs)


# ---------------------------------------------------------------------------
# Integer core: Sturm chains as primitive remainder sequences
#
# A polynomial here is a list of Python ints, ascending degree.  Chains are
# built from coprime integer coefficients with sign-corrected
# pseudo-remainders (Brown-Traub primitive PRS), so no Fraction is created
# while counting.  For a p that is not squarefree the chain of (p, p') ends
# in gcd(p, p'), and its sign variations still count the distinct roots of p
# between two points that are not roots (Basu-Pollack-Roy, Algorithms in
# Real Algebraic Geometry, Thm 2.50).


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _positive_primitive(cs: list[int]) -> list[int]:
    """cs over its content, with a positive leading coefficient."""
    cs = _primitive(cs)
    return cs if cs[-1] > 0 else [-c for c in cs]


def _neg_remainder(a: list[int], b: list[int]) -> list[int]:
    """-rem(a, b) times a positive rational, primitive; [] when b divides a.

    Pseudo-division multiplies the running remainder by lc(b) once per
    eliminated term; an odd number of negative factors flips the sign back.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    negate = True
    while len(r) > db:
        c = r.pop()
        if c:
            shift = len(r) - db
            r = [x * lb for x in r]
            for j in range(db):
                r[shift + j] -= c * b[j]
            if lb < 0:
                negate = not negate
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return r
    return _primitive([-x for x in r] if negate else r)


def _sturm_chain(cs: list[int]) -> list[list[int]]:
    """Signed remainder sequence of cs and cs'; the last entry is gcd(cs, cs')."""
    chain = [cs]
    if len(cs) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(cs)][1:]))
    while len(chain[-1]) > 1:
        r = _neg_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sign_at(cs: list[int], num: int, den: int) -> int:
    """Sign of cs at num/den (den > 0), by homogeneous integer Horner."""
    acc = cs[-1]
    scale = 1
    for c in reversed(cs[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def _variations(values: Iterable[int]) -> int:
    """Sign changes along the values, zeros skipped."""
    changes = last = 0
    for v in values:
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _variations_at(chain: list[list[int]], x: Fraction | None) -> int:
    """Sign variations of the chain at x; x = None means +inf."""
    if x is None:
        return _variations(q[-1] for q in chain)
    if x == 0:
        return _variations(q[0] for q in chain)
    return _variations(_sign_at(q, x.numerator, x.denominator) for q in chain)


def _strip_root(cs: list[int], x: Fraction) -> list[int]:
    """Divide cs by (den*X - num), x = num/den, while x is a root.  Gauss's
    lemma keeps the quotient integral."""
    num, den = x.numerator, x.denominator
    while len(cs) > 1 and _sign_at(cs, num, den) == 0:
        q = [0] * (len(cs) - 1)
        q[-1] = cs[-1] // den
        for i in range(len(cs) - 2, 0, -1):
            q[i - 1] = (cs[i] + num * q[i]) // den
        cs = q
    return cs


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for b dividing a, primitive with a positive leading coefficient."""
    db, lb = len(b) - 1, b[-1]
    r = [x * lb ** (len(a) - db) for x in a]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] // lb
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    return _positive_primitive(q)


def sturm_count_open_interval(p: UniPoly, a: Fraction, b: Fraction | None) -> int:
    """Distinct roots of p in the open interval (a, b); b = None means +inf.

    On (0, inf) Descartes' rule of signs comes first: at most one sign
    change in the coefficients means no positive root or exactly one.
    Otherwise roots at the endpoints are divided out, so the Sturm chain is
    evaluated at two non-roots.
    """
    if p.is_zero:
        raise ZeroPolynomialError("Sturm count requires a nonzero polynomial")
    if b is None and not a:
        changes = _variations(p.coeffs)
        if changes <= 1:
            return changes
    cs = _primitive(list(p.coeffs))
    for x in (a, b):
        if x is not None:
            cs = _strip_root(cs, x)
    if len(cs) == 1:
        return 0
    chain = _sturm_chain(cs)
    return _variations_at(chain, a) - _variations_at(chain, b)


def sturm_count_positive(p: UniPoly) -> int:
    """Number of distinct roots in (0, inf): Descartes' rule, else one
    integer Sturm chain."""
    return sturm_count_open_interval(p, Fraction(0), None)


def root_upper_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    m = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return 1 + Fraction(m, abs(p.leading()))


# rational_roots skips its divisor search above this constant or leading
# coefficient; refine_root bisects down to this width relative to the root
DIVISOR_BOUND = 10**7
REL_WIDTH = Fraction(1, 10**12)


def rational_roots(p: UniPoly) -> list[Fraction]:
    """Rational roots of p (without multiplicity), by the rational root test.

    Degrees 1 and 2 (after dividing out x) are solved in closed form.  From
    degree 3 on, the divisor search is skipped when the constant or leading
    coefficient exceeds DIVISOR_BOUND, and the list holds at most 0
    (callers fall back to isolating intervals).
    """
    q, v = p.strip_root_at_zero()
    cs = _primitive(list(q.coeffs))
    roots = [Fraction(0)] if v else []
    if len(cs) == 1:
        return roots
    if len(cs) == 2:
        roots.append(Fraction(-cs[0], cs[1]))
        return roots
    if len(cs) == 3:
        c0, c1, c2 = cs
        disc = c1 * c1 - 4 * c0 * c2
        if disc < 0:
            return roots
        s = math.isqrt(disc)
        if s * s != disc:
            return roots
        roots.extend({Fraction(-c1 + s, 2 * c2), Fraction(-c1 - s, 2 * c2)})
        return roots
    a0, an = abs(cs[0]), abs(cs[-1])
    if a0 > DIVISOR_BOUND or an > DIVISOR_BOUND:
        return roots
    for s in _divisors(a0):
        for t in _divisors(an):
            for cand in (Fraction(s, t), Fraction(-s, t)):
                if _sign_at(cs, cand.numerator, cand.denominator) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def isolate_positive_roots(p: UniPoly,
                           squarefree: UniPoly | None = None) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, each holding exactly one positive root.

    The rational roots that rational_roots finds are returned as degenerate
    intervals (r, r).  It finds all of them unless it skips its divisor
    search (see there); a rational root it misses stays in the polynomial
    that is bisected, and gets an interval like an irrational root.  The
    closure of every other interval holds no other root of p, 0 included,
    so refine_root(p, a, b) converges to the root it isolates.
    squarefree, when given, is the squarefree part of p with its root at 0
    divided out, which is otherwise computed here.
    """
    q, v = p.strip_root_at_zero()
    sf = q.squarefree_part() if squarefree is None else squarefree
    rational = sorted(r for r in rational_roots(sf) if r > 0)
    work = list(sf.coeffs)
    for r in rational:
        work = _strip_root(work, r)
    intervals: list[tuple[Fraction, Fraction]] = [(r, r) for r in rational]
    if len(work) == 1:
        return intervals
    chain = _sturm_chain(work)
    others = rational + ([Fraction(0)] if v else [])

    def split(a: Fraction, b: Fraction) -> tuple[Fraction, int]:
        """A midpoint of (a, b) that is not a root of work, and the roots left
        of it.  The midpoint can be a root only when rational_roots skipped
        its search and left a rational root in work; then it moves towards a
        until it is not one, so no interval end is ever a root."""
        mid = (a + b) / 2
        while _sign_at(work, mid.numerator, mid.denominator) == 0:
            mid = (a + mid) / 2
        return mid, _variations_at(chain, a) - _variations_at(chain, mid)

    lo, hi = Fraction(0), root_upper_bound(UniPoly(work))
    stack = [(lo, hi, _variations_at(chain, lo) - _variations_at(chain, hi))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            while any(a <= r <= b for r in others):
                mid, left = split(a, b)
                a, b = (a, mid) if left else (mid, b)
            intervals.append((a, b))
            continue
        mid, left = split(a, b)
        stack.append((a, mid, left))
        stack.append((mid, b, cnt - left))
    intervals.sort(key=lambda iv: iv[0])
    return intervals


def refine_root(p: UniPoly, a: Fraction, b: Fraction,
                squarefree: UniPoly | None = None) -> Fraction:
    """Bisect the isolating interval (a, b) down to relative width REL_WIDTH.

    Neither end may be a root, as in the intervals of isolate_positive_roots;
    a ValueError says so otherwise.  A midpoint that is a root is returned
    exactly: that happens only for a rational root that rational_roots left
    to bisection (see isolate_positive_roots).

    Bisects the squarefree part of p on dyadic midpoints, held as integer
    numerators over one common denominator; the result is the same rational
    that halving Fractions would give.  squarefree may stand in for that
    part: isolate_positive_roots's differs by a factor x when 0 is a root,
    and then a > 0, so the bisection takes the same steps.
    """
    sf = list((p.squarefree_part() if squarefree is None else squarefree).coeffs)
    den = math.lcm(a.denominator, b.denominator)
    an, bn = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    sa = _sign_at(sf, an, den)
    if sa == 0 or _sign_at(sf, bn, den) == 0:
        raise ValueError(f"an end of ({a}, {b}) is a root, so this is not an isolating interval")
    rn, rd = REL_WIDTH.numerator, REL_WIDTH.denominator
    while (bn - an) * rd > rn * max(abs(an), abs(bn), den):
        mn = an + bn
        an, bn, den = 2 * an, 2 * bn, 2 * den
        sm = _sign_at(sf, mn, den)
        if sm == 0:
            return Fraction(mn, den)
        if sm == sa:
            an = mn
        else:
            bn = mn
    return Fraction(an + bn, 2 * den)


def positive_roots(p: UniPoly) -> list[Fraction]:
    """The distinct positive roots of p in increasing order: the rational
    roots that rational_roots finds exactly, the others refined by
    refine_root on their isolating intervals.  Where rational_roots skips
    its search, a rational root is exact only if a bisection midpoint lands
    on it.  The squarefree part is computed once, for both."""
    sf = p.strip_root_at_zero()[0].squarefree_part()
    return [
        a if a == b else refine_root(p, a, b, squarefree=sf)
        for a, b in isolate_positive_roots(p, sf)
    ]
