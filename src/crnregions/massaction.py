"""Mass-action ODE construction and an independent steady-state counting oracle.

The oracle handles networks with at most two species, reducing every case
to exact univariate root counting:

* one species: substitute rates, Sturm-count positive roots;
* two species with a conservation law: substitute the compatibility-class
  line into one ODE and count on the segment where both coordinates are
  positive;
* two species, full dimensional: eliminate x2 by a Sylvester resultant and
  count matching positive partners for each positive x1 root.

Counts are without multiplicity.  Multiple roots and steady-state continua
are reported through flags instead of being folded into the count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .network import (
    ConservationMatrix,
    ReactionNetwork,
    conservation_matrix,
    matrix_rank,
    rref,
    stoichiometric_matrix,
)
from .unipoly import (
    UniPoly,
    isolate_positive_roots,
    positive_roots,
    refine_root,
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

    def evaluate(self, x: tuple, kappa: tuple) -> Fraction:
        total = Fraction(0)
        for (xe, ke), c in self.terms.items():
            v = c
            for base, e in zip(x, xe):
                v *= Fraction(base) ** e
            for base, e in zip(kappa, ke):
                v *= Fraction(base) ** e
            total += v
        return total

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

    def partial_x(self, j: int) -> "ParamPoly":
        out: dict[Monomial, Fraction] = {}
        for (xe, ke), c in self.terms.items():
            if xe[j] == 0:
                continue
            nxe = list(xe)
            nxe[j] -= 1
            mono = (tuple(nxe), ke)
            out[mono] = out.get(mono, Fraction(0)) + c * xe[j]
        return ParamPoly(self.nx, self.nk, out)

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
    ``count``."""

    count: int
    find_witnesses: Callable[[], list[tuple[Fraction, ...]]] = field(repr=False, compare=False)
    certified: bool
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
                2, lambda: [(Fraction(1),), (Fraction(2),)], True, continuum=True
            )
        count = sturm_count_positive(p)
        return SteadyStateCount(
            int(count),
            lambda: [(r,) for r in positive_roots(p)],
            True,
            boundary=count.multiple_positive,
        )

    subs = [sys.odes[j].substitute_rates(kappa) for j in range(2)]
    if sys.cons.dim == 2:
        # rank-0 stoichiometric matrix cannot happen: reactions are nonzero
        raise ValueError("two conserved quantities with two species is impossible")
    if sys.cons.dim == 1:
        return _count_on_line(sys, subs, c[0])
    return _count_full_dimensional(subs)


def _count_on_line(sys: SteadyStateSystem, subs, cval: Fraction) -> SteadyStateCount:
    w = sys.cons.rows[0]  # RREF: leading entry is 1
    # pick an ODE that is not identically zero
    idx = 0 if subs[0] else 1
    if not subs[idx]:
        return SteadyStateCount(2, lambda: [], True, continuum=True)
    if w[1] != 0:
        # x2 = (c - w1*x1)/w2; both coordinates positive on an open x1-interval
        line = UniPoly([cval / w[1], -w[0] / w[1]])
        p = _compose_line(subs[idx], axis=0, line=line)
        lo, hi = _positive_segment(w, cval)
        if lo is None:
            return SteadyStateCount(0, lambda: [], True)
        if p.is_zero:
            mid = _segment_midpoint(lo, hi)
            mid2 = _segment_midpoint(mid, hi)
            return SteadyStateCount(
                2,
                lambda: [_line_point(line, mid), _line_point(line, mid2)],
                True,
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
            True,
            boundary=count.multiple_positive,
        )
    # w = [1, 0]: class fixes x1 = c; reduce to a univariate in x2
    if cval <= 0:
        return SteadyStateCount(0, lambda: [], True)
    q = _substitute_axis(subs[idx], axis=0, value=cval)
    if q.is_zero:
        return SteadyStateCount(
            2, lambda: [(cval, Fraction(1)), (cval, Fraction(2))], True, continuum=True
        )
    count = sturm_count_positive(q)
    return SteadyStateCount(
        int(count),
        lambda: [(cval, r) for r in positive_roots(q)],
        True,
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


def _as_poly_in_x2(sub) -> list[UniPoly]:
    """Coefficients (in x2-degree order) as polynomials in x1."""
    deg2 = max((xe[1] for xe in sub), default=0)
    coeffs = [UniPoly.zero() for _ in range(deg2 + 1)]
    for xe, c in sub.items():
        coeffs[xe[1]] = coeffs[xe[1]] + UniPoly.monomial(c, xe[0])
    while len(coeffs) > 1 and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _poly_resultant_x2(f: list[UniPoly], g: list[UniPoly]) -> UniPoly:
    """Resultant of two polynomials in x2 with UniPoly(x1) coefficients (Bareiss)."""
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        raise ValueError("both polynomials constant in x2")
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows: list[list[UniPoly]] = []
    frev, grev = list(reversed(f)), list(reversed(g))
    zero = UniPoly.zero()
    for i in range(n):
        rows.append([zero] * i + frev + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + grev + [zero] * (size - n - 1 - i))
    # Bareiss fraction-free elimination over Q[x1]
    prev = UniPoly([1])
    sign = 1
    for k in range(size - 1):
        if rows[k][k].is_zero:
            piv = next((r for r in range(k + 1, size) if not rows[r][k].is_zero), None)
            if piv is None:
                return UniPoly.zero()
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = num // prev
            rows[i][k] = zero
        prev = rows[k][k]
    det = rows[size - 1][size - 1]
    return det if sign == 1 else -det


def _count_full_dimensional(subs) -> SteadyStateCount:
    f1, f2 = subs
    if not f1 or not f2:
        # one ODE identically zero: cannot happen for full-dimensional nets
        return SteadyStateCount(0, lambda: [], False)
    deg1 = max(xe[1] for xe in f1)
    deg2 = max(xe[1] for xe in f2)
    if deg1 == 0 and deg2 == 0:
        # both ODEs univariate in x1: positive steady states need a common
        # positive x1 root and any x2 > 0, which is a continuum if nonempty
        p1, p2 = _univariate(f1, 0), _univariate(f2, 0)
        g = p1.gcd(p2)
        if g.degree() >= 1 and sturm_count_positive(g) > 0:

            def states():
                r = positive_roots(g)[0]
                return [(r, Fraction(1)), (r, Fraction(2))]

            return SteadyStateCount(2, states, True, continuum=True)
        return SteadyStateCount(0, lambda: [], True)
    if deg1 == 0 or deg2 == 0:
        # one ODE univariate in x1 (absolute concentration robustness shape);
        # its x1 roots are needed to count partners, so they are found here
        uni, other = (f1, f2) if deg1 == 0 else (f2, f1)
        p = _univariate(uni, 0)
        total = 0
        partners: list[tuple[Fraction, UniPoly]] = []
        boundary = False
        certified = True
        for a, b in isolate_positive_roots(p):
            if a == b:
                q = _substitute_axis(other, axis=0, value=a)
                if q.is_zero:
                    return SteadyStateCount(
                        2,
                        lambda: [(a, Fraction(1)), (a, Fraction(2))],
                        True,
                        continuum=True,
                    )
                cnt = sturm_count_positive(q)
                total += cnt
                partners.append((a, q))
                boundary = boundary or cnt.multiple_positive
            else:
                # irrational x1 root: count partners at a refined approximation
                certified = False
                approx = refine_root(p, a, b)
                q = _substitute_axis(other, axis=0, value=approx)
                if not q.is_zero:
                    total += sturm_count_positive(q)
        return SteadyStateCount(
            total,
            lambda: [(x1, r) for x1, q in partners for r in positive_roots(q)],
            certified,
            boundary=boundary,
        )

    fc = _as_poly_in_x2(f1)
    gc = _as_poly_in_x2(f2)
    res = _poly_resultant_x2(fc, gc)
    if res.is_zero:
        return SteadyStateCount(0, lambda: [], False)
    boundary = sturm_count_positive(res).multiple_positive
    total = 0
    # per x1 root, in order: exact partners (found on first access) or the
    # states the irrational path already had to find to count them
    parts: list[Callable[[], list[tuple[Fraction, Fraction]]]] = []
    certified = not boundary
    for a, b in isolate_positive_roots(res):
        if a == b:
            g1 = _substitute_axis(f1, axis=0, value=a)
            g2 = _substitute_axis(f2, axis=0, value=a)
            if g1.is_zero and g2.is_zero:
                return SteadyStateCount(2, lambda: [], False, continuum=True)
            if g1.is_zero or g2.is_zero:
                q = g2 if g1.is_zero else g1
            else:
                q = g1.gcd(g2)
            if q.is_zero or q.degree() < 1:
                continue
            cnt = sturm_count_positive(q)
            total += cnt
            parts.append(lambda a=a, q=q: [(a, r) for r in positive_roots(q)])
        else:
            certified = False
            approx = refine_root(res, a, b)
            g1 = _substitute_axis(f1, axis=0, value=approx)
            g2 = _substitute_axis(f2, axis=0, value=approx)
            # near-common positive roots of g1 confirmed by a small g2 residual
            found = []
            for r in positive_roots(g1):
                scale = sum(abs(v) * abs(r) ** xe[1] for xe, v in f2.items()) or Fraction(1)
                if abs(g2(r)) / scale < Fraction(1, 10**6):
                    total += 1
                    found.append((approx, r))
            parts.append(lambda found=found: found)
    return SteadyStateCount(
        total,
        lambda: [w for part in parts for w in part()],
        certified,
        boundary=boundary,
    )


def jacobian_restricted_rank(
    sys: SteadyStateSystem, kappa: tuple, xstar: tuple
) -> int:
    """Rank of the Jacobian of f restricted to the stoichiometric subspace."""
    net = sys.network
    n = net.num_species
    kappa = tuple(Fraction(v) for v in kappa)
    xstar = tuple(Fraction(v) for v in xstar)
    if any(v <= 0 for v in xstar):
        raise ValueError("steady state must be strictly positive")
    J = [
        [sys.odes[i].partial_x(j).evaluate(xstar, kappa) for j in range(n)]
        for i in range(n)
    ]
    S = stoichiometric_matrix(net)
    basis_rows = rref([[Fraction(S[j][i]) for j in range(n)] for i in range(net.num_reactions)])
    if not basis_rows:
        return 0
    # columns of J * B^T for each basis vector b of S
    prod = [
        [sum(J[i][j] * b[j] for j in range(n)) for i in range(n)] for b in basis_rows
    ]
    return matrix_rank(prod)
