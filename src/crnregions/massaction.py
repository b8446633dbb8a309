"""Mass-action ODE construction and an independent steady-state counting oracle.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .classify import UnsupportedFamilyError
from .network import ConservationMatrix, ReactionNetwork, conservation_matrix
from .unipoly import (
    UniPoly,
    isolate_positive_roots,
    positive_roots,
    sturm_count_open_interval,
    sturm_count_positive,
)

Monomial = tuple[tuple[int, ...], tuple[int, ...]]  # (x exponents, kappa exponents)


class ParamPoly:
    """Sparse polynomial over Q in concentration variables and rate symbols."""

    __slots__ = ("nx", "nk", "terms")

    def __init__(self, nx: int, nk: int, terms: dict[Monomial, Fraction] | None = None):
        self.nx = nx
        self.nk = nk
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    self.terms[mono] = c

    @classmethod
    def term(cls, nx: int, nk: int, coeff, xe: tuple[int, ...], ke: tuple[int, ...]):
        return cls(nx, nk, {(xe, ke): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return ParamPoly(self.nx, self.nk, out)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.nx, self.nk, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def scale(self, k) -> "ParamPoly":
        k = Fraction(k)
        return ParamPoly(self.nx, self.nk, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        out: dict[Monomial, Fraction] = {}
        for (xa, ka), ca in self.terms.items():
            for (xb, kb), cb in other.terms.items():
                mono = (
                    tuple(a + b for a, b in zip(xa, xb)),
                    tuple(a + b for a, b in zip(ka, kb)),
                )
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return ParamPoly(self.nx, self.nk, out)

    def substitute_rates(self, kappa: tuple) -> dict[tuple[int, ...], Fraction]:
        """Collapse rate symbols at a numeric point; keys are x exponents."""
        out: dict[tuple[int, ...], Fraction] = {}
        for (xe, ke), c in self.terms.items():
            v = c
            for base, e in zip(kappa, ke):
                if e:
                    v *= base**e
            if v:
                out[xe] = out.get(xe, Fraction(0)) + v
        return {xe: v for xe, v in out.items() if v != 0}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParamPoly)
            and self.terms == other.terms
            and self.nx == other.nx
            and self.nk == other.nk
        )

    def __repr__(self) -> str:
        return f"ParamPoly(nx={self.nx}, nk={self.nk}, {self.terms!r})"


def ode_rhs(net: ReactionNetwork) -> list[ParamPoly]:
    """Mass-action right-hand side, one ParamPoly per species."""
    n, r = net.num_species, net.num_reactions
    out = [ParamPoly(n, r) for _ in range(n)]
    for i, rxn in enumerate(net.reactions):
        ke = tuple(1 if j == i else 0 for j in range(r))
        xe = rxn.reactant.coeffs
        for j, delta in enumerate(rxn.vector()):
            if delta:
                out[j] = out[j] + ParamPoly.term(n, r, delta, xe, ke)
    return out


@dataclass(frozen=True)
class SteadyStateSystem:
    network: ReactionNetwork
    odes: tuple[ParamPoly, ...]
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


def _univariate(sub: dict[tuple[int, ...], Fraction], axis: int) -> UniPoly:
    coeffs: list[Fraction] = []
    for xe, c in sub.items():
        e = xe[axis]
        if len(coeffs) <= e:
            coeffs.extend([Fraction(0)] * (e + 1 - len(coeffs)))
        coeffs[e] += c
    return UniPoly(coeffs)


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
    if any(v <= 0 for v in kappa):
        raise ValueError("rate constants must be positive")
    c = tuple(Fraction(v) for v in c)
    if len(c) != sys.cons.dim:
        raise ValueError(
            f"expected {sys.cons.dim} total-constant value(s), got {len(c)}"
        )

    if n == 1:
        p = _univariate(sys.odes[0].substitute_rates(kappa), 0)
        if p.is_zero:
            return SteadyStateCount(
                2, lambda: [(Fraction(1),), (Fraction(2),)], continuum=True
            )
        count = sturm_count_positive(p)
        return SteadyStateCount(
            int(count),
            lambda: [(r,) for r in positive_roots(p)],
            boundary=count.multiple_positive,
        )

    subs = [sys.odes[j].substitute_rates(kappa) for j in range(2)]
    if sys.cons.dim == 2:
        # rank-0 stoichiometric matrix cannot happen: reactions are nonzero
        raise ValueError("two conserved quantities with two species is impossible")
    if sys.cons.dim == 1:
        return _count_on_line(sys, subs, c[0])
    return _count_full_dimensional(net, subs)


def _count_on_line(sys: SteadyStateSystem, subs, cval: Fraction) -> SteadyStateCount:
    w = sys.cons.rows[0]  # RREF: leading entry is 1
    # pick an ODE that is not identically zero, if there is one
    idx = 0 if subs[0] else 1
    if w[1] != 0:
        # x2 = (c - w1*x1)/w2; both coordinates positive on an open x1-interval
        line = UniPoly([cval / w[1], -w[0] / w[1]])
        p = _compose_line(subs[idx], axis=0, line=line)
        lo, hi = _positive_segment(w, cval)
        if lo is None:
            return SteadyStateCount(0, list)
        if p.is_zero:
            mid = _segment_midpoint(lo, hi)
            mid2 = _segment_midpoint(mid, hi)
            return SteadyStateCount(
                2,
                lambda: [_line_point(line, mid), _line_point(line, mid2)],
                continuum=True,
            )
        count = sturm_count_open_interval(p, lo, hi)
        return SteadyStateCount(
            int(count),
            lambda: [
                _line_point(line, r)
                for r in positive_roots(p)
                if r > lo and (hi is None or r < hi)
            ],
            boundary=count.multiple_positive,
        )
    # w = [1, 0]: class fixes x1 = c; reduce to a univariate in x2
    if cval <= 0:
        return SteadyStateCount(0, list)
    q = _substitute_axis(subs[idx], axis=0, value=cval)
    if q.is_zero:
        return SteadyStateCount(
            2, lambda: [(cval, Fraction(1)), (cval, Fraction(2))], continuum=True
        )
    count = sturm_count_positive(q)
    return SteadyStateCount(
        int(count),
        lambda: [(cval, r) for r in positive_roots(q)],
        boundary=count.multiple_positive,
    )


def _line_point(line: UniPoly, x1: Fraction) -> tuple[Fraction, Fraction]:
    return (x1, line(x1))


def _segment_midpoint(lo: Fraction, hi: Fraction | None) -> Fraction:
    return lo + Fraction(1) if hi is None else (lo + hi) / 2


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


def _compose_line(sub: dict[tuple[int, ...], Fraction], axis: int, line: UniPoly) -> UniPoly:
    """Substitute x_other = line(x_axis) into a bivariate polynomial."""
    out = UniPoly.zero()
    other = 1 - axis
    for xe, c in sub.items():
        term = UniPoly.monomial(c, xe[axis]) * line ** xe[other]
        out = out + term
    return out


def _substitute_axis(sub, axis: int, value: Fraction) -> UniPoly:
    out: dict[int, Fraction] = {}
    other = 1 - axis
    for xe, c in sub.items():
        e = xe[other]
        out[e] = out.get(e, Fraction(0)) + c * value ** xe[axis]
    coeffs = [Fraction(0)] * (max(out) + 1 if out else 0)
    for e, v in out.items():
        coeffs[e] = v
    return UniPoly(coeffs)


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
            g = _univariate(subs[0], axis).gcd(_univariate(subs[1], axis))
            if g.is_zero:
                return _free_continuum(axis, lambda: Fraction(1))
            if g.degree() >= 1 and sturm_count_positive(g) > 0:
                return _free_continuum(axis, lambda: positive_roots(g)[0])
            return SteadyStateCount(0, list)
        if not pins or not subs[pins[0]]:
            continue
        roots = isolate_positive_roots(_univariate(subs[pins[0]], axis))
        if any(a != b for a, b in roots):
            continue  # an irrational pin: try the other coordinate
        g = subs[1 - pins[0]]
        total = 0
        boundary = False
        partners: list[tuple[Fraction, UniPoly]] = []
        for a, _ in roots:
            q = _substitute_axis(g, axis=axis, value=a)
            if q.is_zero:
                return _free_continuum(axis, lambda: a)
            cnt = sturm_count_positive(q)
            total += cnt
            partners.append((a, q))
            boundary = boundary or cnt.multiple_positive
        return SteadyStateCount(
            total,
            lambda: [_point(axis, a, r) for a, q in partners for r in positive_roots(q)],
            boundary=boundary,
        )
    raise UnsupportedFamilyError(
        "no ODE pins a coordinate to rational values; the oracle does not cover this network"
    )


def _free_continuum(axis: int, pinned: Callable[[], Fraction]) -> SteadyStateCount:
    """A continuum: x_axis at pinned(), the other coordinate free."""

    def states():
        r = pinned()
        return [_point(axis, r, Fraction(1)), _point(axis, r, Fraction(2))]

    return SteadyStateCount(2, states, continuum=True)


def _point(axis: int, pinned: Fraction, free: Fraction) -> tuple[Fraction, Fraction]:
    """(x1, x2) from the pinned coordinate x_axis and the other one."""
    return (pinned, free) if axis == 0 else (free, pinned)
