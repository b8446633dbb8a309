import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnregions import unipoly
from crnregions.regions import trinomial_D
from crnregions.unipoly import (
    UniPoly,
    ZeroPolynomialError,
    descartes_sign_changes,
    isolate_positive_roots,
    positive_roots,
    rational_roots,
    refine_root,
    root_upper_bound,
    sturm_count_open_interval,
    sturm_count_positive,
)

from conftest import discriminant_via_resultant, resultant, trinomial_discriminant


def poly(*coeffs):
    return UniPoly.from_rationals(coeffs)


class TestArithmetic:
    def test_add_mul_degree(self):
        p = poly(1, 2)  # 1 + 2x
        q = poly(0, 0, 3)  # 3x^2
        assert (p * q).coeffs == (0, 0, 3, 6)
        assert (p + q).degree() == 2

    def test_rejects_non_integral_coefficients(self):
        for bad in (Fraction(1, 2), 0.5, 2.0, "3"):
            with pytest.raises(ValueError):
                UniPoly([1, bad])
        assert UniPoly([Fraction(4, 2), 3]).coeffs == (2, 3)

    def test_from_rationals_scales_by_the_denominators(self):
        assert UniPoly.from_rationals([Fraction(1, 2), Fraction(-2, 3), 0]).coeffs == (3, -4)
        assert UniPoly.from_rationals([Fraction(-4, 6), 2]).coeffs == (-2, 6)
        assert UniPoly.from_rationals([]).is_zero

    def test_gcd_is_primitive_with_positive_leading_coefficient(self):
        p = poly(-1, 1) ** 2 * poly(3, 1)
        q = poly(-1, 1) * poly(-2, 1)
        assert (p * poly(-6)).gcd(q * poly(4)) == poly(-1, 1)
        assert poly(2, 0, -2).gcd(poly(6)) == poly(1)
        assert poly(4, -6).gcd(UniPoly.zero()) == poly(-2, 3)
        assert UniPoly.zero().gcd(poly(-4, 6)) == poly(-2, 3)
        assert UniPoly.zero().gcd(UniPoly.zero()).is_zero

    def test_eval_horner(self):
        p = poly(2, -3, 1)  # (x-1)(x-2)
        assert p(Fraction(1)) == 0
        assert p(Fraction(3)) == 2

    def test_squarefree_part_drops_multiplicity(self):
        p = poly(-1, 1) ** 3 * poly(-2, 1)
        sf = p.squarefree_part()
        assert sf.degree() == 2
        assert sf(Fraction(1)) == 0 and sf(Fraction(2)) == 0


class TestRootCounting:
    def test_descartes_simple(self):
        assert descartes_sign_changes(poly(2, -3, 1)) == 2
        assert descartes_sign_changes(poly(1, 1, 1)) == 0

    def test_sturm_exact_counts(self):
        assert sturm_count_positive(poly(2, -3, 1)) == 2
        assert sturm_count_positive(poly(-1, 1)) == 1
        assert sturm_count_positive(poly(1, 1)) == 0

    def test_sturm_ignores_multiplicity(self):
        p = poly(-1, 1) ** 2
        assert sturm_count_positive(p) == 1

    def test_sturm_open_interval_excludes_endpoints(self):
        p = poly(2, -3, 1)
        assert sturm_count_open_interval(p, Fraction(1), Fraction(2)) == 0
        assert sturm_count_open_interval(p, Fraction(0), Fraction(3)) == 2
        assert sturm_count_open_interval(p, Fraction(1), Fraction(3)) == 1

    def test_descartes_only_on_the_whole_positive_axis(self):
        # x - 1 has one sign change, but no root in (2, inf)
        assert sturm_count_open_interval(poly(-1, 1), Fraction(2), None) == 0
        assert sturm_count_open_interval(poly(-1, 1), Fraction(0), None) == 1

    def test_zero_poly_raises(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_count_positive(UniPoly.zero())

    def test_rational_roots_quadratic_exact(self):
        p = poly(1, Fraction(-5, 2), 1)  # (x - 1/2)(x - 2)
        roots = rational_roots(p)
        assert Fraction(1, 2) in roots and Fraction(2) in roots

    def test_rational_roots_huge_coefficients_skip(self):
        # divisor enumeration is skipped; irrational roots are simply absent
        p = poly(-(10**9 + 7), 0, 0, 1)
        assert rational_roots(p) == []

    def test_isolate_and_refine(self):
        p = poly(-2, 0, 1)  # sqrt(2)
        (a, b), = isolate_positive_roots(p)
        r = refine_root(p, a, b)
        assert abs(float(r) - 2**0.5) < 1e-9

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_sturm_never_exceeds_descartes(self, roots_free_coeffs):
        p = UniPoly.from_rationals(roots_free_coeffs + [Fraction(1)])
        assert sturm_count_positive(p) <= descartes_sign_changes(p)

    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_sturm_counts_constructed_roots(self, roots):
        distinct = sorted(set(roots))
        p = poly(1)
        for r in distinct:
            p = p * poly(-r, 1)
        assert sturm_count_positive(p) == len(distinct)


def _fraction_bisection(p, a, b, rel_width=Fraction(1, 10**12)):
    """Reference: refine_root's bisection carried out on Fractions."""
    sf = p.squarefree_part()
    fa = sf(a)
    if fa == 0:
        return a
    if sf(b) == 0:
        return b
    while (b - a) > rel_width * max(abs(a), abs(b), Fraction(1)):
        mid = (a + b) / 2
        fm = sf(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a = mid
        else:
            b = mid
    return (a + b) / 2


class TestIntegerCore:
    def test_multiple_roots_count_once(self):
        # distinct roots: a multiple root counts once, and a plain int
        for p, want in [
            (poly(-1, 1) ** 2 * poly(-3, 1), 2),
            (poly(1, 1) ** 2 * poly(-3, 1), 1),
            (poly(0, 0, -3, 1), 1),
        ]:
            got = sturm_count_positive(p)
            assert type(got) is int and got == want
        # a double root at an endpoint of the interval is outside it
        p = poly(-2, 1) ** 2 * poly(-1, 1)
        assert sturm_count_open_interval(p, Fraction(0), Fraction(2)) == 1

    @pytest.mark.parametrize(
        "p, count",
        [
            (poly(5, 2, 0, 1), 0),  # no sign change
            (poly(-3, -5, -1, 1), 1),  # (x + 1)^2 (x - 3)
            (poly(0, 0, -2, 1), 1),  # x^2 (x - 2): the root at 0 is not positive
            (poly(-1, 0, 0, 0, 0, 1), 1),  # x^5 - 1
        ],
    )
    def test_descartes_settles_at_most_one_sign_change(self, p, count, monkeypatch):
        # at most one sign change: that many positive roots, and no Sturm
        # chain is built
        monkeypatch.setattr(unipoly, "_sturm_chain", None)
        assert sturm_count_positive(p) == count

    def test_two_sign_changes_take_the_sturm_chain(self, monkeypatch):
        chains = []
        real = unipoly._sturm_chain
        monkeypatch.setattr(unipoly, "_sturm_chain", lambda cs: chains.append(cs) or real(cs))
        assert sturm_count_positive(poly(-1, 1) ** 2) == 1
        assert chains

    def test_interval_never_holds_zero_root(self):
        # x (x - 2) (x^2 + 2x - 4): the roots 0 and 2 are rational
        p = poly(0, 1) * poly(-2, 1) * poly(-4, 2, 1)
        intervals = isolate_positive_roots(p)
        assert len(intervals) == 2
        (a, b), (r, s) = intervals
        assert 0 < a < b < 2 and r == s == 2
        assert abs(float(positive_roots(p)[0]) - (5**0.5 - 1)) < 1e-11

    def test_positive_roots_takes_one_squarefree_part(self, monkeypatch):
        # x^2 (x^2 - 2)^2 (x^2 - 3): a root at 0 and a double irrational root
        p = poly(0, 0, 1) * poly(-2, 0, 1) ** 2 * poly(-3, 0, 1)
        expected = [refine_root(p, a, b) for a, b in isolate_positive_roots(p)]
        calls = []
        real = UniPoly.squarefree_part
        monkeypatch.setattr(UniPoly, "squarefree_part", lambda q: calls.append(q) or real(q))
        assert positive_roots(p) == expected
        assert len(expected) == 2 and len(calls) == 1

    def test_rational_roots_beyond_the_divisor_search(self):
        # (x - 1)(x^2 - 2)(2x - (2^24 - 3)): the constant term is above
        # DIVISOR_BOUND, so rational_roots skips its search and 1 and
        # 16777213/2 stay in the bisected polynomial.  split must step off
        # the midpoint 1, and refine_root returns the midpoint 16777213/2.
        p = poly(-1, 1) * poly(-2, 0, 1) * poly(-(2**24 - 3), 2)
        assert abs(p.coeffs[0]) > unipoly.DIVISOR_BOUND
        assert rational_roots(p.squarefree_part()) == []
        assert isolate_positive_roots(p) == [
            (Fraction(1, 2), Fraction(5, 4)),
            (Fraction(5, 4), Fraction(2)),
            (Fraction(4194304), Fraction(8388608)),
        ]
        one, sqrt2, last = positive_roots(p)
        assert abs(one - 1) <= unipoly.REL_WIDTH
        assert abs(float(sqrt2) - 2**0.5) < 1e-11
        assert last == Fraction(16777213, 2)

    @pytest.mark.parametrize("a, b", [(Fraction(2), Fraction(5, 2)), (Fraction(5, 2), Fraction(3))])
    def test_refine_rejects_a_root_at_an_end(self, a, b):
        with pytest.raises(ValueError, match="not an isolating interval"):
            refine_root(poly(6, -5, 1), a, b)  # (x - 2)(x - 3)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_refine_matches_fraction_bisection(self, coeffs, roots):
        p = UniPoly(coeffs) * poly(-2, 0, 1)
        for r in roots:
            p = p * poly(-r, 1)
        for a, b in isolate_positive_roots(p):
            if a != b:
                assert refine_root(p, a, b) == _fraction_bisection(p, a, b)


@st.composite
def _factored_polys(draw):
    """Integer polynomials from factors: a power of x, repeated rational
    roots, and quadratics that are mostly irreducible."""
    p = poly(draw(st.sampled_from([1, -1, 3, -6])))
    p = p * poly(0, 1) ** draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        p = p * poly(-r.numerator, r.denominator) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        b, c = draw(st.integers(-7, 7)), draw(st.integers(-7, 7))
        p = p * poly(c, b, 1) ** draw(st.integers(1, 2))
    return p


class TestAgainstSympy:
    """The integer core against sympy's exact real roots."""

    @given(_factored_polys(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_and_roots(self, p, data):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        ref = sympy.Poly([int(c) for c in reversed(p.coeffs)], x)
        real = ref.real_roots(multiple=False) if ref.degree() > 0 else []
        positive = [(r, m) for r, m in real if r.is_positive]

        assert sturm_count_positive(p) == len(positive)

        ends = [Fraction(0)] + [Fraction(int(r.p), int(r.q)) for r, _ in positive if r.is_Rational]
        lo = data.draw(st.sampled_from(ends) | st.fractions(0, 3, max_denominator=4))
        hi = data.draw(
            st.none() | st.sampled_from(ends) | st.fractions(0, 5, max_denominator=4)
        )
        if hi is not None and hi <= lo:
            hi = None
        inside = [
            r for r, _ in real
            if r > sympy.Rational(lo.numerator, lo.denominator)
            and (hi is None or r < sympy.Rational(hi.numerator, hi.denominator))
        ]
        assert sturm_count_open_interval(p, lo, hi) == len(inside)

        roots = positive_roots(p)
        assert len(roots) == len(positive)
        for ours, (theirs, _) in zip(roots, positive):
            if theirs.is_Rational:
                assert ours == Fraction(int(theirs.p), int(theirs.q))
            else:
                value = float(theirs.evalf(30))
                assert abs(float(ours) - value) <= 1e-12 * max(value, 1) + 1e-15

    @given(_factored_polys(), _factored_polys(), _factored_polys())
    @settings(max_examples=150, deadline=None)
    def test_gcd(self, p, q, common):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        p, q = p * common, q * common
        ref = sympy.gcd(*(sympy.Poly(list(reversed(f.coeffs)), x) for f in (p, q)))
        want = [int(c) for c in reversed(ref.all_coeffs())]
        # sympy's gcd up to sign and content
        unit = math.gcd(*want) * (1 if want[-1] > 0 else -1)
        g = p.gcd(q)
        assert g.coeffs == tuple(c // unit for c in want)
        assert g == q.gcd(p)


class TestExactReturnTypes:
    """Closed forms on int coefficients must build Fractions, never floats."""

    @given(_factored_polys())
    @settings(max_examples=100, deadline=None)
    def test_fractions_only(self, p):
        assert type(root_upper_bound(p)) is Fraction
        assert all(type(r) is Fraction for r in rational_roots(p))
        for a, b in isolate_positive_roots(p):
            assert type(a) is Fraction and type(b) is Fraction

    def test_closed_forms(self):
        assert rational_roots(poly(-1, 3)) == [Fraction(1, 3)]
        assert sorted(rational_roots(poly(1, -3, 2))) == [Fraction(1, 2), Fraction(1)]
        assert all(type(r) is Fraction for r in rational_roots(poly(1, -3, 2)))
        assert root_upper_bound(poly(1, -3, 2)) == Fraction(5, 2)


class TestResultantAndSwan:
    def test_resultant_of_coprime(self):
        f = (-1, 1)
        g = (-2, 1)
        assert abs(resultant(f, g)) == 1
        assert resultant(f, f) == 0

    def test_discriminant_quadratic(self):
        # disc(x^2 + bx + c) = b^2 - 4c
        assert discriminant_via_resultant((3, -4, 1)) == 16 - 12
        # not invariant under scaling: disc(k p) = k^(2n-2) disc(p)
        assert discriminant_via_resultant((Fraction(3, 2), -2, Fraction(1, 2))) == 1

    def test_swan_matches_resultant_quadratic(self):
        t = trinomial_discriminant(2, 1, Fraction(-3), Fraction(2))
        assert t == discriminant_via_resultant((2, -3, 1))

    def test_swan_matches_resultant_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            if a == 0 or b == 0:
                continue
            coeffs = [Fraction(0)] * (n + 1)
            coeffs[0], coeffs[k], coeffs[n] = b, a, Fraction(1)
            assert trinomial_discriminant(n, k, a, b) == discriminant_via_resultant(coeffs)


def trichotomy(n, k, b, c):
    """Positive roots of x^n - c x^k + b by the sign of regions.trinomial_D."""
    D = trinomial_D(b, c, 1, n, k)
    return 2 if D < 0 else 1 if D == 0 else 0


class TestTrichotomy:
    def test_known_quadratic(self):
        assert trinomial_D(Fraction(2), Fraction(3), 1, 2, 1) == -1
        assert trichotomy(2, 1, Fraction(2), Fraction(3)) == 2

    def test_boundary_double_root(self):
        # x^2 - 2x + 1 = (x-1)^2: D = 0, one distinct positive root
        assert trinomial_D(Fraction(1), Fraction(2), 1, 2, 1) == 0
        assert trichotomy(2, 1, Fraction(1), Fraction(2)) == 1

    def test_no_roots(self):
        assert trichotomy(2, 1, Fraction(4), Fraction(1)) == 0

    def test_matches_sturm_small_grid(self):
        vals = [Fraction(1, 2), Fraction(1), Fraction(2)]
        for n in range(2, 6):
            for k in range(1, n):
                for b in vals:
                    for c in vals:
                        coeffs = [Fraction(0)] * (n + 1)
                        coeffs[0], coeffs[k], coeffs[n] = b, -c, Fraction(1)
                        assert trichotomy(n, k, b, c) == sturm_count_positive(
                            UniPoly.from_rationals(coeffs)
                        )
