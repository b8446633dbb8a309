"""Sparse integer polynomials, mass-action ODEs and a steady-state oracle.

SymPoly is the one sparse multivariate type: region conditions over the rates
and totals, and ODEs over the concentrations followed by the rates.  Its one
exact evaluator, SymPoly.term_values, binds trailing symbols to rationals:
ints, floats and Fractions, each read once through as_integer_ratio, so a
float counts as its exact binary rational.  Each polynomial compiles its term
plan (free exponents, coefficient, bound symbols' exponents per term) on
first use, so importing this module and building polynomials costs nothing
extra.

The oracle handles networks with at most two species.  Every count it
makes is a Sturm count of one ODE along one rational line, x_axis = t > 0
and x_other = a + b*t > 0 (_on_line, _count_line):

* one species: substitute rates, Sturm-count positive roots in x;
* two species with a conservation law: the compatibility class is the line,
  counted on the t-interval where both coordinates are positive;
* two species, full dimensional: two reactions have independent reaction
  vectors and no positive steady state.  Otherwise one ODE must pin a
  coordinate, either one: it is a monomial times a polynomial in that
  coordinate whose positive roots are all rational.  Each root r gives the
  line x_pinned = r, along which the other ODE's positive roots are
  Sturm-counted.  Where no coordinate is pinned this way the oracle raises
  UnsupportedFamilyError instead of approximating.

Counts are exact and without multiplicity: a double root is one steady
state.  A continuum of steady states is flagged, and the count is then 2.

The oracle substitutes and counts on Python integers: the rates go in through
term_values, ints, floats and Fractions as they are, and each univariate
polynomial it counts is the exact one times a positive integer that clears
the denominators of the rates, totals or pinned coordinate, so its roots are
unchanged.  Where a conservation law fixes the line, only the ODE that is
counted is substituted: the second one only when the first is zero.  Every
count goes through _count: a UniPoly on those integers, counted on an open
interval by unipoly.sturm_count_open_interval (Descartes' rule first on
(0, inf)), whose steady states are found only when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .classify import UnsupportedFamilyError
from .network import ConservationMatrix, ReactionNetwork, conservation_matrix
from .unipoly import (
    UniPoly,
    isolate_positive_roots,
    positive_roots,
    sturm_count_open_interval,
)

Term = tuple[int, tuple[int, ...]]
# the values that SymPoly.term_values reads exactly, through as_integer_ratio
EXACT_TYPES = (int, float, Fraction)


class SymPoly:
    """Sparse polynomial with integer coefficients over a fixed symbol list."""

    __slots__ = ("nsym", "terms", "_float_eval", "_degrees")

    def __init__(self, nsym: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nsym = nsym
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        self._float_eval: Callable[[Sequence], list[float]] | None = None
        self._degrees: tuple | None = None  # term_values's compiled plan

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

    def __mul__(self, other: "SymPoly | int") -> "SymPoly":
        if isinstance(other, int):
            return SymPoly(self.nsym, {e: c * other for e, c in self.terms.items()})
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

    def term_values(self, point: Sequence, first: int = 0) -> list[tuple[tuple[int, ...], int]]:
        """(exponents of the symbols before first, integer value) per term,
        with symbols first, first + 1, ... bound to the values of point.

        Each value is read once, as value.as_integer_ratio(), so point may
        hold ints, floats or Fractions: a float is its exact binary rational.
        At x_i = n_i/d_i a term k x^e is valued k prod n_i^e_i d_i^(deg_i - e_i),
        deg_i the largest exponent of x_i in this polynomial: its exact value
        times prod d_i^deg_i, one positive integer for every term, so sums
        keep their signs, their ratios and their roots in the free symbols.

        The plan is compiled on first use, and again when first changes:
        (index in point, deg_i, the exponents of x_i that occur) for each
        bound symbol that occurs, and per term (free exponents, k, (slot,
        e_i) per bound symbol, slot indexing that first list).
        """
        plan = self._degrees
        if plan is None or plan[0] != first:
            cols = list(zip(*self.terms)) or [()] * self.nsym  # exponents per symbol
            slots = list(enumerate(i for i in range(first, self.nsym) if any(cols[i])))
            plan = self._degrees = (
                first,
                [(i - first, max(cols[i]), set(cols[i])) for _, i in slots],
                [(e[:first], c, [(s, e[i]) for s, i in slots]) for e, c in self.terms.items()],
            )
        _, bound, terms = plan
        # powers[slot][x] = n^x d^(deg - x) for the bound symbol at n/d, for
        # the exponents x that occur
        powers = []
        for i, deg, exps in bound:
            n, d = point[i].as_integer_ratio()
            powers.append((d, n) if deg == 1 else {x: n**x * d ** (deg - x) for x in exps})
        out = []
        for free, c, pairs in terms:
            for s, x in pairs:
                c *= powers[s][x]
            out.append((free, c))
        return out

    def evaluate_floats(self, points: Sequence[Sequence[float]]) -> list[float]:
        """The float value at each point of a batch.

        At each point the value is that of the term loop over self.terms:
        v = float(c), then v *= x_i ** e_i over the nonzero exponents in
        symbol order, then total += v from 0.0.  The loop is compiled on first
        use into one function, as dataclasses compiles its methods, that runs
        v = v + c * x_i ** e_i * ... + ... at each point (x_i ** 1 is written
        x_i, the same float): the same operations in the same order, bit for
        bit, in one interpreter pass per point.
        A statement adds at most 100 terms, within the compiler's nesting limit.
        """
        fn = self._float_eval
        if fn is None:
            names = [f"x{i}" for i in range(self.nsym)]
            terms = [
                " * ".join([f"({float(c)!r})"]
                           + [names[i] if x == 1 else f"{names[i]} ** {x}"
                              for i, x in enumerate(e) if x])
                for e, c in self.terms.items()
            ]
            lines = [
                "def fn(points):",
                "    out = []",
                f"    for ({''.join(name + ', ' for name in names)}) in points:",
                "        v = 0.0",
                *(f"        v = v + {' + '.join(terms[k:k + 100])}"
                  for k in range(0, len(terms), 100)),
                "        out.append(v)",
                "    return out",
            ]
            namespace: dict = {}
            exec("\n".join(lines), namespace)
            fn = self._float_eval = namespace["fn"]
        return fn(points)

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


def steady_state_system(net: ReactionNetwork) -> SteadyStateSystem:
    return SteadyStateSystem(net, tuple(ode_rhs(net)), conservation_matrix(net))


@dataclass
class SteadyStateCount:
    """The oracle's answer: ``count`` distinct positive steady states, a
    double root counted once, or 2 with ``continuum`` set when they form a
    continuum.  The steady states behind ``witnesses`` are found on first
    access, because isolating and refining roots costs far more than
    counting them and most callers read only ``count``.  ``certified`` is
    always True: every branch counts exactly or refuses."""

    certified = True

    count: int
    find_witnesses: Callable[[], list[tuple[Fraction, ...]]] = field(repr=False, compare=False)
    continuum: bool = False  # positive steady states form a continuum

    @cached_property
    def witnesses(self) -> list[tuple[Fraction, ...]]:
        return self.find_witnesses()


def count_positive_steady_states(
    sys: SteadyStateSystem, kappa: Sequence, c: Sequence = ()
) -> SteadyStateCount:
    """Count positive steady states in the compatibility class fixed by c.

    kappa entries must be positive rationals; c has one entry per
    conservation law (in the rows' RREF order).  Ints, floats and Fractions
    are taken at their exact values as they are; other values, such as
    strings, are read through Fraction.
    """
    net = sys.network
    n = net.num_species
    if n > 2:
        raise ValueError("oracle supports at most two species")
    if not all(isinstance(v, EXACT_TYPES) for v in kappa):
        kappa = [Fraction(v) for v in kappa]
    if len(kappa) != net.num_reactions:
        raise ValueError(f"expected {net.num_reactions} rate constant(s), got {len(kappa)}")
    if any(v <= 0 for v in kappa):
        raise ValueError("rate constants must be positive")
    c = tuple(Fraction(v) for v in c)
    if len(c) != sys.cons.dim:
        raise ValueError(
            f"expected {sys.cons.dim} total-constant value(s), got {len(c)}"
        )

    odes = sys.odes
    if n == 1:
        sub = _substitute_rates(odes[0], kappa, n)
        return _count(_on_line(sub, 0, 1, 0), Fraction(0), None, lambda r: (r,))
    if sys.cons.dim == 1:
        # the class w.x = c of the RREF row w, on an ODE that is not zero if
        # one is: x2 = (c - w1 x1)/w2, or x1 = c when w = (1, 0)
        w1, w2 = sys.cons.rows[0]
        sub = _substitute_rates(odes[0], kappa, n) or _substitute_rates(odes[1], kappa, n)
        if w2:
            return _count_line(sub, 0, c[0] / w2, -w1 / w2)
        return _count_line(sub, 1, c[0], 0)
    return _count_full_dimensional(net, [_substitute_rates(f, kappa, n) for f in odes])


def _substitute_rates(f: SymPoly, kappa: Sequence, n: int) -> dict:
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
        mid = lo + 1 if hi is None else (lo + hi) / 2
        mid2 = mid + 1 if hi is None else (mid + hi) / 2
        return SteadyStateCount(2, lambda: [point(mid), point(mid2)], continuum=True)
    p = UniPoly(cs)
    return SteadyStateCount(
        sturm_count_open_interval(p, lo, hi),
        lambda: [point(r) for r in positive_roots(p) if r > lo and (hi is None or r < hi)],
    )


def _on_line(sub: dict[tuple[int, ...], int], axis: int, a: Fraction, b: Fraction) -> list[int]:
    """Integer coefficients in t, ascending, of sub at x_axis = t and
    x_other = a + b*t.

    A term's exponent of x_other is sum(xe) - xe[axis], 0 for one species.
    With a + b*t = (A + B*t)/M, a term c t^i x_other^j becomes
    c t^i (A + B*t)^j M^(E-j), E the largest j: the polynomial times M^E.
    """
    if not sub:
        return []
    M = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (M // a.denominator), b.numerator * (M // b.denominator)
    terms = []  # (i, j, c)
    E = top = 0
    for xe, c in sub.items():
        i = xe[axis]
        j = sum(xe) - i
        terms.append((i, j, c))
        if j > E:
            E = j
        if i + j > top:
            top = i + j
    scaled = [[M**E]]  # M^(E-j) (A + B*t)^j, ascending in t
    for _ in range(E):
        prev = scaled[-1]
        scaled.append([(A * u + B * v) // M for u, v in zip(prev + [0], [0] + prev)])
    cs = [0] * (top + 1)
    for i, j, c in terms:
        for k, v in enumerate(scaled[j], i):
            cs[k] += c * v
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _count_line(
    sub: dict[tuple[int, ...], int], axis: int, a: Fraction, b: Fraction
) -> SteadyStateCount:
    """Steady states of the ODE sub with x_axis = t > 0 and x_other = a + b*t > 0."""
    if a <= 0 and b <= 0:
        return SteadyStateCount(0, list)  # x_other <= 0 for every t > 0
    lo = max(Fraction(0), -a / b) if b > 0 else Fraction(0)
    hi = -a / b if b < 0 else None
    point = (lambda t: (t, a + b * t)) if axis == 0 else (lambda t: (a + b * t, t))
    return _count(_on_line(sub, axis, a, b), lo, hi, point)


def _count_full_dimensional(net: ReactionNetwork, subs) -> SteadyStateCount:
    if net.num_reactions == 2:
        # linearly independent reaction vectors: f = N diag(kappa) x^Y with N
        # invertible vanishes only where some monomial does, never at x > 0
        return SteadyStateCount(0, list)
    for axis in (0, 1):
        other = 1 - axis
        # an ODE x_other^s * p(x_axis) pins x_axis to the positive roots of
        # p, the ODE at x_other = 1
        pins = [j for j in (0, 1) if len({xe[other] for xe in subs[j]}) <= 1]
        if len(pins) == 2:
            # both ODEs pin x_axis: x_other is free at each common positive root
            g = UniPoly(_on_line(subs[0], axis, 1, 0)).gcd(UniPoly(_on_line(subs[1], axis, 1, 0)))
            # pin x_axis at the first common positive root; a zero g (both
            # ODEs vanish) frees x_axis too, and _count samples it first at 1
            common = _count(g.coeffs, Fraction(0), None, lambda r: r)
            if not common.count:
                return SteadyStateCount(0, list)
            return _count_line({}, other, common.witnesses[0], 0)
        if not pins or not subs[pins[0]]:
            continue
        roots = isolate_positive_roots(UniPoly(_on_line(subs[pins[0]], axis, 1, 0)))
        if any(a != b for a, b in roots):
            continue  # an irrational pin: try the other coordinate
        g = subs[1 - pins[0]]
        parts = []
        for r, _ in roots:
            part = _count_line(g, other, r, 0)
            if part.continuum:
                return part
            parts.append(part)
        return SteadyStateCount(
            sum(part.count for part in parts),
            lambda: [w for part in parts for w in part.witnesses],
        )
    raise UnsupportedFamilyError(
        "no ODE pins a coordinate to rational values; the oracle does not cover this network"
    )
