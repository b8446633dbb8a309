"""Sparse integer polynomials, mass-action ODEs and a steady-state oracle.

SymPoly is the one sparse multivariate type: region conditions over the rates
and totals, and ODEs over the concentrations followed by the rates.  Its one
exact evaluator, SymPoly.term_values, binds trailing symbols to rationals.

The oracle handles networks with at most two species, reducing every case
to exact univariate root counting:

* one species: substitute rates, Sturm-count positive roots;
* two species with a conservation law: substitute the compatibility-class
  line into one ODE and count on the segment where both coordinates are
  positive;
* two species, full dimensional: two reactions have independent reaction
  vectors and no positive steady state.  Otherwise one ODE must pin a
  coordinate, either one: it is a monomial times a polynomial in that
  coordinate whose positive roots are all rational.  Each root is
  substituted into the other ODE, whose positive roots are Sturm-counted.
  Where no coordinate is pinned this way the oracle raises
  UnsupportedFamilyError instead of approximating.

Counts are exact and without multiplicity.  Multiple roots and steady-state
continua are reported through flags instead of being folded into the count.

The oracle substitutes and counts on Python integers: the rates go in through
term_values, and each univariate polynomial it counts is the exact one times
a positive integer that clears the denominators of the rates, totals or
pinned coordinate, so its roots are unchanged.  Every count goes through
_count: a UniPoly on those integers, Sturm-counted on an open interval,
whose steady states are found only when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .classify import UnsupportedFamilyError
from .network import ConservationMatrix, ReactionNetwork, conservation_matrix
from .unipoly import (
    UniPoly,
    isolate_positive_roots,
    positive_roots,
    sturm_count_open_interval,
)

Term = tuple[int, tuple[int, ...]]


class SymPoly:
    """Sparse polynomial with integer coefficients over a fixed symbol list."""

    __slots__ = ("nsym", "terms", "_float_terms", "_degrees")

    def __init__(self, nsym: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nsym = nsym
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        self._float_terms: list[tuple[float, list[tuple[int, int]]]] | None = None
        self._degrees: list[tuple[int, int]] | None = None

    @classmethod
    def const(cls, nsym: int, c: int) -> "SymPoly":
        return cls(nsym, {(0,) * nsym: int(c)})

    @classmethod
    def symbol(cls, nsym: int, idx: int, coeff: int = 1) -> "SymPoly":
        e = tuple(1 if i == idx else 0 for i in range(nsym))
        return cls(nsym, {e: int(coeff)})

    @classmethod
    def monomial(cls, nsym: int, coeff: int, exps: Sequence[int]) -> "SymPoly":
        return cls(nsym, {tuple(exps): int(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymPoly") -> "SymPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SymPoly(self.nsym, out)

    def __neg__(self) -> "SymPoly":
        return SymPoly(self.nsym, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return SymPoly(self.nsym, out)

    def __pow__(self, n: int) -> "SymPoly":
        result = SymPoly.const(self.nsym, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, k: int) -> "SymPoly":
        return SymPoly(self.nsym, {e: c * k for e, c in self.terms.items()})

    def normalized(self) -> "SymPoly":
        """Divide out the common monomial factor and integer content.

        Both are strictly positive on the positive orthant, so sign
        conditions are unchanged; this makes emitted polynomials canonical.
        """
        if self.is_zero():
            return self
        mins = [min(e[i] for e in self.terms) for i in range(self.nsym)]
        g = math.gcd(*(abs(c) for c in self.terms.values()))
        return SymPoly(
            self.nsym,
            {
                tuple(x - m for x, m in zip(e, mins)): c // g
                for e, c in self.terms.items()
            },
        )

    def term_values(
        self, point: Sequence, first: int = 0
    ) -> Iterator[tuple[tuple[int, ...], int]]:
        """(exponents of the symbols before first, integer value) per term,
        with symbols first, first + 1, ... bound to the rationals of point.

        At x_i = n_i/d_i a term k x^e is valued k prod n_i^e_i d_i^(deg_i - e_i),
        deg_i the largest exponent of x_i in this polynomial: its exact value
        times prod d_i^deg_i, one positive integer for every term, so sums
        keep their signs, their ratios and their roots in the free symbols.
        """
        degrees = self._degrees
        if degrees is None:
            # (i, deg_i) for each symbol that occurs
            degrees = self._degrees = [
                (i, deg)
                for i in range(self.nsym)
                if (deg := max((e[i] for e in self.terms), default=0))
            ]
        # (i, powers) per bound symbol i at n/d, powers[x] = n^x d^(deg - x)
        live = []
        for i, deg in degrees:
            if i >= first:
                n, d = point[i - first].as_integer_ratio()
                p = (d, n) if deg == 1 else [n**x * d ** (deg - x) for x in range(deg + 1)]
                live.append((i, p))
        for e, c in self.terms.items():
            for i, p in live:
                c *= p[e[i]]
            yield e[:first], c

    def evaluate_float(self, point: Sequence[float]) -> float:
        # (coefficient, nonzero exponents) per term, compiled on first use;
        # the products and sums run in the same order as over self.terms
        terms = self._float_terms
        if terms is None:
            terms = self._float_terms = [
                (float(c), [(i, x) for i, x in enumerate(e) if x])
                for e, c in self.terms.items()
            ]
        total = 0.0
        for v, exps in terms:
            for i, x in exps:
                v *= point[i] ** x
            total += v
        return total

    def sorted_terms(self) -> list[Term]:
        return [(c, e) for e, c in sorted(self.terms.items())]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"SymPoly({self.nsym}, {self.terms!r})"


def ode_rhs(net: ReactionNetwork) -> list[SymPoly]:
    """Mass-action right-hand side, one SymPoly per species, over the
    concentrations x_1..x_n followed by the rates kappa_1..kappa_r."""
    n, r = net.num_species, net.num_reactions
    out: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
    for i, rxn in enumerate(net.reactions):
        # one rate symbol per reaction, so no two reactions share a monomial
        ke = tuple(1 if j == i else 0 for j in range(r))
        for j, delta in enumerate(rxn.vector()):
            out[j][rxn.reactant.coeffs + ke] = delta
    return [SymPoly(n + r, terms) for terms in out]


@dataclass(frozen=True)
class SteadyStateSystem:
    network: ReactionNetwork
    odes: tuple[SymPoly, ...]
    cons: ConservationMatrix
    total_symbols: tuple[str, ...]


def steady_state_system(net: ReactionNetwork) -> SteadyStateSystem:
    cons = conservation_matrix(net)
    symbols = tuple(f"c{i + 1}" for i in range(cons.dim)) if cons.dim > 1 else (
        ("c",) if cons.dim == 1 else ()
    )
    return SteadyStateSystem(net, tuple(ode_rhs(net)), cons, symbols)


@dataclass
class SteadyStateCount:
    """The oracle's answer.  The count is exact; the steady states behind
    ``witnesses`` are found on first access, because isolating and refining
    roots costs far more than counting them and most callers read only
    ``count``.  ``certified`` is always True: every branch counts exactly
    or refuses."""

    certified = True

    count: int
    find_witnesses: Callable[[], list[tuple[Fraction, ...]]] = field(repr=False, compare=False)
    boundary: bool = False  # a multiple positive root exists
    continuum: bool = False  # positive steady states form a continuum

    @cached_property
    def witnesses(self) -> list[tuple[Fraction, ...]]:
        return self.find_witnesses()


def _coefficients(sub: dict[tuple[int, ...], int], axis: int) -> list[int]:
    """Coefficients in x_axis, ascending, summed over the other exponent."""
    cs = [0] * (max((xe[axis] for xe in sub), default=-1) + 1)
    for xe, c in sub.items():
        cs[xe[axis]] += c
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def count_positive_steady_states(
    sys: SteadyStateSystem, kappa: tuple, c: tuple = ()
) -> SteadyStateCount:
    """Count positive steady states in the compatibility class fixed by c.

    kappa entries must be positive rationals; c has one entry per
    conservation law (in the rows' RREF order).
    """
    net = sys.network
    n = net.num_species
    if n > 2:
        raise ValueError("oracle supports at most two species")
    kappa = tuple(Fraction(v) for v in kappa)
    if len(kappa) != net.num_reactions:
        raise ValueError(f"expected {net.num_reactions} rate constant(s), got {len(kappa)}")
    if any(v <= 0 for v in kappa):
        raise ValueError("rate constants must be positive")
    c = tuple(Fraction(v) for v in c)
    if len(c) != sys.cons.dim:
        raise ValueError(
            f"expected {sys.cons.dim} total-constant value(s), got {len(c)}"
        )

    subs = [_substitute_rates(f, kappa, n) for f in sys.odes]
    if n == 1:
        return _count(_coefficients(subs[0], 0), Fraction(0), None, lambda r: (r,))
    if sys.cons.dim == 2:
        # rank-0 stoichiometric matrix cannot happen: reactions are nonzero
        raise ValueError("two conserved quantities with two species is impossible")
    if sys.cons.dim == 1:
        return _count_on_line(sys, subs, c[0])
    return _count_full_dimensional(net, subs)


def _substitute_rates(f: SymPoly, kappa: tuple[Fraction, ...], n: int) -> dict:
    """f with the rates at kappa, keyed by concentration exponents: the
    exact polynomial in x times a positive integer (SymPoly.term_values)."""
    sub: dict[tuple[int, ...], int] = {}
    for xe, v in f.term_values(kappa, n):
        sub[xe] = sub.get(xe, 0) + v
    return {xe: v for xe, v in sub.items() if v}


def _count(
    cs: Sequence[int], lo: Fraction, hi: Fraction | None, point: Callable[[Fraction], tuple]
) -> SteadyStateCount:
    """Steady states point(r) for the distinct roots r of the integer
    polynomial cs in (lo, hi), hi = None meaning +inf.  A zero cs leaves the
    coordinate free: a continuum, sampled at the midpoint of (lo, hi) and at
    the midpoint of the half above it."""
    if not cs:
        mid = _segment_midpoint(lo, hi)
        mid2 = _segment_midpoint(mid, hi)
        return SteadyStateCount(2, lambda: [point(mid), point(mid2)], continuum=True)
    p = UniPoly(cs)
    count = sturm_count_open_interval(p, lo, hi)
    return SteadyStateCount(
        int(count),
        lambda: [point(r) for r in positive_roots(p) if r > lo and (hi is None or r < hi)],
        boundary=count.multiple_positive,
    )


def _count_on_line(sys: SteadyStateSystem, subs, cval: Fraction) -> SteadyStateCount:
    w = sys.cons.rows[0]  # RREF: leading entry is 1
    # pick an ODE that is not identically zero, if there is one
    idx = 0 if subs[0] else 1
    if w[1] != 0:
        # x2 = (c - w1*x1)/w2; both coordinates positive on an open x1-interval
        a0, b0 = cval / w[1], -w[0] / w[1]
        lo, hi = _positive_segment(w, cval)
        if lo is None:
            return SteadyStateCount(0, list)
        cs = _substitute_line(subs[idx], a0, b0)
        return _count(cs, lo, hi, lambda r: (r, a0 + b0 * r))
    # w = [1, 0]: class fixes x1 = c; reduce to a univariate in x2
    if cval <= 0:
        return SteadyStateCount(0, list)
    cs = _substitute_axis(subs[idx], axis=0, value=cval)
    return _count(cs, Fraction(0), None, lambda r: (cval, r))


def _segment_midpoint(lo: Fraction, hi: Fraction | None) -> Fraction:
    return lo + 1 if hi is None else (lo + hi) / 2


def _positive_segment(w, cval: Fraction):
    """Open x1-interval where x1 > 0 and x2 = (c - w1 x1)/w2 > 0; (None, None) if empty."""
    w1, w2 = w
    lo, hi = Fraction(0), None
    # constraint: (c - w1*x1)/w2 > 0
    if w1 == 0:
        if (cval / w2) <= 0:
            return None, None
    else:
        bound = cval / w1
        if (w1 / w2) > 0:
            # x1 < c/w1 required (dividing flips nothing: w2>0*...)
            if bound <= 0:
                return None, None
            hi = bound
        else:
            lo = max(lo, bound)
    return lo, hi


def _substitute_line(sub: dict[tuple[int, ...], int], a0: Fraction, b0: Fraction) -> list[int]:
    """Integer coefficients in x1 of sub at x2 = a0 + b0*x1.

    With a0 + b0*x1 = (A + B*x1)/M, a term c x1^i x2^j becomes
    c x1^i (A + B*x1)^j M^(E-j), E the largest j: the polynomial times M^E.
    """
    if not sub:
        return []
    M = math.lcm(a0.denominator, b0.denominator)
    A, B = a0.numerator * (M // a0.denominator), b0.numerator * (M // b0.denominator)
    E = max(xe[1] for xe in sub)
    powers = [[1]]  # (A + B*x1)^j
    for _ in range(E):
        prev = powers[-1]
        powers.append([A * u + B * v for u, v in zip(prev + [0], [0] + prev)])
    cs = [0] * (max(i + j for i, j in sub) + 1)
    for (i, j), c in sub.items():
        f = c * M ** (E - j)
        for k, v in enumerate(powers[j]):
            cs[i + k] += f * v
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _substitute_axis(sub: dict[tuple[int, ...], int], axis: int, value: Fraction) -> list[int]:
    """Integer coefficients in the other coordinate of sub at x_axis = value."""
    if axis == 0:
        sub = {(x2, x1): c for (x1, x2), c in sub.items()}
    return _substitute_line(sub, value, Fraction(0))


def _count_full_dimensional(net: ReactionNetwork, subs) -> SteadyStateCount:
    if net.num_reactions == 2:
        # linearly independent reaction vectors: f = N diag(kappa) x^Y with N
        # invertible vanishes only where some monomial does, never at x > 0
        return SteadyStateCount(0, list)
    for axis in (0, 1):
        other = 1 - axis
        # an ODE x_other^s * p(x_axis) pins x_axis to the positive roots of p
        pins = [j for j in (0, 1) if len({xe[other] for xe in subs[j]}) <= 1]
        if len(pins) == 2:
            # both ODEs pin x_axis: x_other is free at each common positive root
            g = UniPoly(_coefficients(subs[0], axis)).gcd(
                UniPoly(_coefficients(subs[1], axis))
            )
            # pin x_axis at the first common positive root; a zero g (both
            # ODEs vanish) frees x_axis too, and _count samples it first at 1
            common = _count(g.coeffs, Fraction(0), None, lambda r: r)
            if not common.count:
                return SteadyStateCount(0, list)
            return _count(
                (), Fraction(0), None, lambda r: _point(axis, common.witnesses[0], r)
            )
        if not pins or not subs[pins[0]]:
            continue
        roots = isolate_positive_roots(UniPoly(_coefficients(subs[pins[0]], axis)))
        if any(a != b for a, b in roots):
            continue  # an irrational pin: try the other coordinate
        g = subs[1 - pins[0]]
        parts = []
        for a, _ in roots:
            part = _count(
                _substitute_axis(g, axis=axis, value=a),
                Fraction(0),
                None,
                lambda r, a=a: _point(axis, a, r),
            )
            if part.continuum:
                return part
            parts.append(part)
        return SteadyStateCount(
            sum(part.count for part in parts),
            lambda: [w for part in parts for w in part.witnesses],
            boundary=any(part.boundary for part in parts),
        )
    raise UnsupportedFamilyError(
        "no ODE pins a coordinate to rational values; the oracle does not cover this network"
    )


def _point(axis: int, pinned: Fraction, free: Fraction) -> tuple[Fraction, Fraction]:
    """(x1, x2) from the pinned coordinate x_axis and the other one."""
    return (pinned, free) if axis == 0 else (free, pinned)
