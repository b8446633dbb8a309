"""Exact semialgebraic multistationarity regions for the covered families.

Regions are finite unions of conjunctions of polynomial sign conditions
with integer coefficients over the network's rate symbols (and a
total-constant symbol c when the network has a conservation law).  All
open regions use strict inequalities; degenerate families yield equality
conditions on measure-zero sets.  Every allowing region is the projection
of its enabling region onto the rate symbols (project_to_allowing).

Enabling regions for two-species networks are stated with respect to the
canonical RREF conservation-law matrix produced by the network module.

Every trinomial condition (one-species nets, ACR reductions) comes from
_trinomial_conjunct, through trinomial_D, the one copy of the trinomial
discriminant formula (count-roots reads it too).  Every stored witness comes
from _scale_into, so it is a rational point where each condition of its own
conjunct holds exactly, or None.

The self-check, oracle_sweep, draws seeded points whose coordinates are
exact rationals and compares membership with the oracle's count at each:
both sides are exact, so no point is skipped and no disagreement forgiven.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Sequence

from .classify import (
    BoxDiagram,
    Case,
    Family,
    UnsupportedFamilyError,
    build_box_diagram,
    classify_box,
    exponent_groups,
    feasible_patterns,
    one_species_verdict,
)
from .massaction import (
    EXACT_TYPES,
    SymPoly,
    count_positive_steady_states,
    ode_rhs,
    steady_state_system,
)
from .network import ReactionNetwork, conservation_matrix

_SIGNS = {"<0": -1, "=0": 0, ">0": 1}
# v < 0, v == 0 and v > 0 for a float v
_FLOAT_TESTS = {"<0": (0.0).__gt__, "=0": (0.0).__eq__, ">0": (0.0).__lt__}


@dataclass(frozen=True)
class SignCondition:
    poly: SymPoly
    rel: str  # "<0", "=0", ">0"

    def __post_init__(self) -> None:
        if self.rel not in ("<0", "=0", ">0"):
            raise ValueError(f"bad relation {self.rel!r}")
        if self.poly.is_zero():
            raise ValueError("sign condition on the zero polynomial")

    def holds(self, point: Sequence) -> bool:
        """Exact test at a point of ints, floats or Fractions."""
        v = sum(t for _, t in self.poly.term_values(point))
        return (v > 0) - (v < 0) == _SIGNS[self.rel]

    def holds_float(self, point: Sequence[float]) -> bool:
        return next(self.holds_floats((point,)))

    def holds_floats(self, points: Sequence[Sequence[float]]) -> Iterator[bool]:
        """The float test at each point of a batch (SymPoly.evaluate_floats)."""
        return map(_FLOAT_TESTS[self.rel], self.poly.evaluate_floats(points))


@dataclass(frozen=True)
class Region:
    """Union of conjunctions of sign conditions over the positive parameters.

    kind is "allowing" (ambient: rate constants) or "enabling" (rate
    constants plus total-constant symbols).  An empty tuple of conjuncts is
    the empty region; a conjunct that is itself empty is the full positive
    orthant.  witnesses optionally stores one validated interior rational
    point per conjunct.  case_tag is the Case the region was built for.
    totals is the number of trailing ambient symbols that are total
    constants: they may take either sign, every other symbol is a positive
    rate constant.
    """

    kind: str
    ambient: tuple[str, ...]
    conjuncts: tuple[tuple[SignCondition, ...], ...]
    case_tag: Case
    witnesses: tuple[tuple[Fraction, ...] | None, ...] = field(default=None)
    totals: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("allowing", "enabling"):
            raise ValueError("kind must be 'allowing' or 'enabling'")
        if self.witnesses is None:
            object.__setattr__(self, "witnesses", (None,) * len(self.conjuncts))
        if len(self.witnesses) != len(self.conjuncts):
            raise ValueError("one witness slot per conjunct required")

    @property
    def is_empty(self) -> bool:
        return not self.conjuncts


def membership(region: Region, point: Sequence) -> bool:
    """Exact membership test; point follows region.ambient order.

    Ints, floats and Fractions are taken at their exact values as they are
    (SymPoly.term_values); other values, such as strings, are read through
    Fraction.
    """
    if not all(isinstance(v, EXACT_TYPES) for v in point):
        point = tuple(Fraction(v) for v in point)
    if len(point) != len(region.ambient):
        raise ValueError(
            f"point has {len(point)} coordinates, ambient is {len(region.ambient)}"
        )
    return any(all(cond.holds(point) for cond in conj) for conj in region.conjuncts)


def membership_float(region: Region, point: Sequence[float]) -> bool:
    """Fast floating-point membership.  The probe filters its draws through
    SignCondition.holds_floats instead; the benchmark's probe check and the
    tests call this."""
    return any(
        all(cond.holds_float(point) for cond in conj) for conj in region.conjuncts
    )


# ---------------------------------------------------------------------------
# One-species regions


def region_one_species_net_trinomial(net: ReactionNetwork) -> Region:
    """Region for one-species networks whose net ODE has at most 3 exponents.

    The region is a union of one conjunct per feasible alternating sign
    pattern of the coefficients a0, a1, a2 (linear forms in the rates, each
    signed by the pattern), built by _trinomial_conjunct.
    """
    groups = exponent_groups(net)
    # no pattern is feasible without three exponents: a binomial or monomial
    # has at most one positive root for every kappa
    patterns = feasible_patterns(groups)
    conjuncts, witnesses = [], []
    r = net.num_reactions
    for pattern in patterns:
        # the witness starts at rates 1, one rate per group shifted so that
        # the group's total lands at the pattern's sign (totals may be 0)
        kappa, signed = [Fraction(1)] * r, []
        for steps, want in zip(groups.values(), pattern):
            terms = {tuple(int(j == i) for j in range(r)): want * s for i, s in steps}
            signed.append(SymPoly(r, terms))
            total = sum(s for _, s in steps)
            if total * want <= 0:
                i, s = next((i, s) for i, s in steps if s * want > 0)
                kappa[i] = Fraction(want - total + s, s)
        e0, e1, e2 = groups
        conj = _trinomial_conjunct(signed, e2 - e0, e1 - e0)
        # the signed forms are positive from the start, and doubling a rate
        # that grows the signed middle form drives D below 0
        i_mid = next(i for i, s in groups[e1] if s * pattern[1] > 0)
        conjuncts.append(conj)
        witnesses.append(_scale_into(conj, kappa, i_mid, True))
    case = Case(Family.ONE_SPECIES, one_species_verdict(patterns))
    return Region("allowing", net.rate_labels, tuple(conjuncts), case, tuple(witnesses))


def trinomial_D(s0, s1, s2, n: int, k: int):
    """n^N s0^(N-K) s2^K - (n-k)^(N-K) k^K s1^N, N = n/g, K = k/g, g = gcd(n, k),
    over ints, Fractions or SymPolys.

    For s0, s1, s2 > 0 and 0 < k < n, s2 x^n - s1 x^k + s0 has two positive
    roots when D < 0, one (a double root) when D = 0 and none when D > 0.
    D is homogeneous of degree N in (s0, s1, s2), so a common positive
    factor of the three changes no sign.
    """
    g = math.gcd(n, k)
    N, K = n // g, k // g
    return s0 ** (N - K) * s2**K * n**N - s1**N * ((n - k) ** (N - K) * k**K)


def _trinomial_conjunct(signed, n: int, k: int) -> tuple[SignCondition, ...]:
    """Conditions for two positive roots of a0 + a1 x^k + a2 x^n, 0 < k < n.

    signed holds the coefficients times an alternating sign pattern, all
    three times one positive factor.  The roots exist exactly when every
    signed form is positive and trinomial_D(*signed, n, k) < 0.  A form
    without a negative coefficient is positive on the orthant and gets no
    condition.
    """
    conds = [SignCondition(a.normalized(), ">0") for a in signed if min(a.terms.values()) < 0]
    dpoly = trinomial_D(*signed, n, k)
    return (*conds, SignCondition(dpoly.normalized(), "<0"))


# ---------------------------------------------------------------------------
# Two-species, two-reaction regions


def region_two_species_two_reactions(net: ReactionNetwork) -> tuple[Region, Region]:
    """(enabling, allowing) regions of a two-species, two-reaction network.

    The enabling region is w.r.t. the RREF conservation-law matrix; its
    ambient symbols are the two rate labels followed by the total constant
    "c", which a full-dimensional network (never multistationary) lacks.
    The allowing region is its projection.
    """
    box = build_box_diagram(net)
    verdict = classify_box(box)
    conjuncts, witnesses = (), None
    if verdict.multistationary:
        if verdict.nondegenerate:
            conj, start, up = _nondegenerate_enabling(net, box)
        else:
            (conj, start), up = _degenerate_enabling(box, verdict.number), True
        conjuncts, witnesses = (conj,), (_scale_into(conj, start, 2, up),)
    totals = 0 if _full_dimensional(net) else 1
    ambient = net.rate_labels + ("c",) * totals
    case = Case(Family.TWO_SPECIES, verdict)
    enabling = Region("enabling", ambient, conjuncts, case, witnesses, totals)
    return enabling, project_to_allowing(enabling)


def _degenerate_enabling(box: BoxDiagram, case: int):
    """Enabling conjunct of degenerate case 1-4 over (kappa, kappa_tilde, c),
    with a rational point of it: (gamma^a2 / lam, 1, 0) in case 1 and
    (1, lam, 1) in cases 2-4."""
    kap, kapt, c = (SymPoly.symbol(3, i) for i in range(3))
    ln, ld = box.lam.numerator, box.lam.denominator
    one = Fraction(1)
    u1 = box.y_prime[0] - box.y[0]
    u2 = box.y_prime[1] - box.y[1]
    if case == 2:
        # with y' - y = -lam (y~' - y~), steady states exist iff kappa_tilde = lam
        # kappa; they fill the class, which is empty for c <= 0 when the
        # conservation law (orthogonal to y' - y) has no negative weight
        eq = SignCondition((kapt * ld - kap * ln).normalized(), "=0")
        mixed = u1 * u2 > 0
        return ((eq,) if mixed else (SignCondition(c, ">0"), eq)), (one, box.lam, one)
    if case == 1:
        a2 = box.y_tilde[1] - box.y[1]
        # slopes coincide iff lam * kappa = kappa_tilde * gamma^a2, gamma = u2/u1 > 0
        if a2 >= 0:
            lhs = kap * (ln * u1**a2)
            rhs = kapt * (ld * u2**a2)
        else:
            lhs = kap * (ln * u2 ** (-a2))
            rhs = kapt * (ld * u1 ** (-a2))
        conj = (SignCondition(c, "=0"), SignCondition((lhs - rhs).normalized(), "=0"))
        return conj, (box.gamma**a2 / box.lam, one, Fraction(0))
    # cases 3 and 4: the steady-state set is an axis-parallel line matching
    # exactly one compatibility class, x1 = c in case 3 and x2 = c in case 4:
    # c^e = kappa_tilde / (lam * kappa) with e = y_i - y~_i
    e = box.y[case - 3] - box.y_tilde[case - 3]
    if e > 0:
        poly = kap * c**e * ln - kapt * ld
    else:
        poly = kapt * c ** (-e) * ld - kap * ln
    conj = (SignCondition(c, ">0"), SignCondition(poly.normalized(), "=0"))
    return conj, (one, box.lam, one)


def _nondegenerate_enabling(net, box: BoxDiagram):
    """Enabling conjunct from the cutoff case analysis, in RREF-c coordinates,
    with a float guess (1, 1, c) for a point inside it and whether c must
    grow (else shrink) to enter it.

    The cutoff c* = u1 K (1 + 1/alpha) (-gamma alpha / K)^(1/(1+alpha)),
    K = (lam kappa / kappa_tilde)^(1/a2), has the rational power
    (c*/u1)^m = rho kappa / kappa_tilde, m = a1 + a2.  The guess takes
    t* = +-|u1| |rho|^(1/m) at kappa = kappa_tilde = 1 and t = 2 t* (or t*/2
    when the region is |t| < |t*|), rounded.
    """
    u1 = box.y_prime[0] - box.y[0]
    a1 = box.y_tilde[0] - box.y[0]
    a2 = box.y_tilde[1] - box.y[1]
    w = conservation_matrix(net).rows[0]
    u2 = int(box.gamma * u1)
    # normalized row [-u2, u1] = s * w
    s = Fraction(-u2) / w[0] if w[0] != 0 else Fraction(u1) / w[1]
    mu = s / u1  # t = mu * c_rref
    m = a1 + a2
    M = abs(m)
    alpha = box.alpha
    s_t = 1 if (Fraction(m) / a2) > 0 else -1  # sign of t*
    # dir: True means |t| > |t*| inside the region
    bigger = alpha > 0
    s_c = s_t * (1 if mu > 0 else -1)
    # R = (t*)^m = rho * kappa / kappa_tilde
    G = -box.gamma * alpha
    rho = Fraction(m, a2) ** m * G**a1 * box.lam
    rho_abs = abs(rho)
    nsym = 3
    mu_absM = abs(mu) ** M
    sgnM = s_c**M
    if m > 0:
        # |mu|^M * s_c^M * c^M * kappa_tilde  cmp  |rho| * kappa
        a = mu_absM
        b = rho_abs
        den = (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator)
        lhs = SymPoly.monomial(nsym, sgnM * int(a * den), (0, 1, M))
        rhs = SymPoly.monomial(nsym, int(b * den), (1, 0, 0))
    else:
        # |t|^M * |rho| * kappa / kappa_tilde cmp 1
        # => |mu|^M * s_c^M * c^M * |rho| * kappa cmp kappa_tilde
        a = mu_absM * rho_abs
        den = a.denominator
        lhs = SymPoly.monomial(nsym, sgnM * int(a * den), (1, 0, M))
        rhs = SymPoly.monomial(nsym, den, (0, 1, 0))
    diff = (lhs - rhs).normalized()
    rel = ">0" if bigger else "<0"
    main = SignCondition(diff, rel)
    c_cond = SignCondition(
        SymPoly.symbol(nsym, 2, 1 if s_c > 0 else -1), ">0"
    )
    tstar = s_t * abs(u1) * float(rho_abs) ** (1.0 / m)  # at kappa = kappa_tilde = 1
    t = tstar * 2 if bigger else tstar / 2
    c = Fraction(t / float(mu)).limit_denominator(10**6)
    return (c_cond, main), (Fraction(1), Fraction(1), c), bigger


def _scale_into(conj, point, i: int, up: bool):
    """point with coordinate i doubled (up) or halved until every condition
    of conj holds exactly, or None after 200 steps."""
    point = list(point)
    for _ in range(200):
        if all(cond.holds(point) for cond in conj):
            return tuple(point)
        point[i] = point[i] * 2 if up else point[i] / 2
    return None


# ---------------------------------------------------------------------------
# Absolute-concentration-robustness reduction (Eq-(8)-shaped networks)


def region_acr_reduction(net: ReactionNetwork) -> Region:
    """Region for 2-species networks where one ODE fixes x1 as a rate ratio.

    Requires one ODE of the form x_i^s (p - q x_i) with single-rate
    monomials p, q, and the other ODE reducing to an alternating trinomial
    at the fixed coordinate.
    """
    if net.num_species != 2:
        raise UnsupportedFamilyError("ACR reduction requires two species")
    odes = ode_rhs(net)
    r = net.num_reactions
    case = Case(Family.ACR_REDUCTION)
    for axis in (0, 1):
        other_axis = 1 - axis
        f = odes[axis]
        # ODE keys: x exponents e[:2], then rate exponents e[2:]
        if any(e[other_axis] for e in f.terms):
            continue
        terms = sorted(f.terms.items(), key=lambda t: t[0][axis])
        if len(terms) != 2:
            continue
        (e_lo, c_lo), (e_hi, c_hi) = terms
        if e_hi[axis] - e_lo[axis] != 1:
            continue
        if c_lo <= 0 or c_hi >= 0:
            continue
        # x_axis* = (c_lo/(-c_hi)) * kappa^(e_lo[2:] - e_hi[2:]), a monomial
        star_coeff = Fraction(c_lo, -c_hi)
        star_exps = tuple(a - b for a, b in zip(e_lo[2:], e_hi[2:]))
        g = odes[other_axis]
        reduced: dict[int, tuple[Fraction, tuple[int, ...]]] = {}
        ok = True
        for e, coeff in g.terms.items():
            e_star = e[axis]
            mono_coeff = coeff * star_coeff**e_star
            mono_exps = tuple(
                k + e_star * se for k, se in zip(e[2:], star_exps)
            )
            key = e[other_axis]
            if key in reduced:
                prev_c, prev_e = reduced[key]
                if prev_e != mono_exps:
                    ok = False
                    break
                reduced[key] = (prev_c + mono_coeff, prev_e)
            else:
                reduced[key] = (mono_coeff, mono_exps)
        if not ok:
            continue
        reduced = {k: v for k, v in reduced.items() if v[0] != 0}
        exps = sorted(reduced)
        if len(exps) != 3 or exps[0] != 0:
            continue
        signs = [1 if reduced[e][0] > 0 else -1 for e in exps]
        if signs not in ([1, -1, 1], [-1, 1, -1]):
            return Region("allowing", net.rate_labels, (), case)
        # |a_e| kappa^x_e over a common positive factor: integer
        # coefficients and nonnegative exponents
        den = math.lcm(*(reduced[e][0].denominator for e in exps))
        low = [min(col) for col in zip(*(reduced[e][1] for e in exps))]
        signed = [
            SymPoly(r, {tuple(x - m for x, m in zip(xs, low)): int(abs(c) * den)})
            for c, xs in map(reduced.get, exps)
        ]
        (cond,) = _trinomial_conjunct(signed, exps[2], exps[1])
        # D never collapses to one monomial: the two reactions fixing x_axis
        # have no other species in their reactants, so they feed only the
        # constant coefficient, and the x^k and x^n coefficients carry a rate
        # each of their own.  So D is two distinct monomials of opposite sign;
        # scale the first rate where they differ towards the negative one
        (pos, _), (neg, _) = sorted(cond.poly.terms.items(), key=lambda t: -t[1])
        i = next((i for i in range(r) if pos[i] != neg[i]), 0)
        witness = _scale_into((cond,), (Fraction(1),) * r, i, pos[i] < neg[i])
        return Region("allowing", net.rate_labels, ((cond,),), case, (witness,))
    raise UnsupportedFamilyError("network does not match the ACR reduction shape")


def _full_dimensional(net: ReactionNetwork) -> bool:
    """True when some two reaction vectors of a two-species network have a
    nonzero determinant: they span the plane, so no conservation law holds."""
    pairs = itertools.combinations([rxn.vector() for rxn in net.reactions], 2)
    return any(v1 * w2 != v2 * w1 for (v1, v2), (w1, w2) in pairs)


def regions_for_network(net: ReactionNetwork) -> tuple[Region, Region]:
    """Dispatch to the covered family; returns (enabling, allowing).

    Full-dimensional networks have identical regions up to kind; networks
    with a conservation law get the case-analytic enabling description.
    """
    if net.num_species == 1:
        allowing = region_one_species_net_trinomial(net)
        return replace(allowing, kind="enabling"), allowing
    if net.num_species == 2:
        if net.num_reactions == 2:
            return region_two_species_two_reactions(net)
        allowing = region_acr_reduction(net)
        if not _full_dimensional(net):
            raise UnsupportedFamilyError(
                "ACR-shaped network with a conservation law is not covered"
            )
        return replace(allowing, kind="enabling"), allowing
    raise UnsupportedFamilyError(
        f"{net.num_species}-species networks are not covered"
    )


# ---------------------------------------------------------------------------
# Projection and connectivity verdicts


def project_to_allowing(region: Region) -> Region:
    """Project an enabling region onto its rate symbols.

    Drops the total-constant symbols and every condition that mentions one.
    This is the exact projection under the hypothesis that, in each
    conjunct, the conditions on the totals c are solvable for c at every
    rate point that satisfies the remaining conditions.  It holds for every
    enabling region built here: in the nondegenerate case the conditions on
    c are a sign and a monomial inequality in the signed c; in degenerate
    cases 3 and 4 they are c > 0 and c^e equal to a positive rational
    function of the rates; in case 1 it is c = 0, in case 2 c > 0 or
    nothing.  A region without totals is only relabelled; an allowing
    region is returned as is.
    """
    if region.kind == "allowing":
        return region
    if not region.totals:
        return replace(region, kind="allowing")
    n = len(region.ambient) - region.totals
    conjuncts = tuple(
        tuple(
            SignCondition(
                SymPoly(n, {e[:n]: c for e, c in cond.poly.terms.items()}), cond.rel
            )
            for cond in conj
            if not any(any(e[n:]) for e in cond.poly.terms)
        )
        for conj in region.conjuncts
    )
    return Region("allowing", region.ambient[:n], conjuncts, region.case_tag)


@dataclass(frozen=True)
class ConnectivityVerdict:
    value: str  # "Connected", "Disconnected", "Unknown"
    justification: str
    witnesses: tuple[tuple[Fraction, ...], ...] = ()


def _one_negative_coefficient(cond: SignCondition) -> bool:
    """True when the condition is {g < 0} with exactly one negative coefficient."""
    return cond.rel == "<0" and sum(1 for c in cond.poly.terms.values() if c < 0) == 1


def connectivity_verdict(region: Region) -> ConnectivityVerdict:
    """Analytic connectivity verdict for regions produced by this module.

    Each justification is given only where the hypothesis it cites holds.
    Reach, measured on all one-species nets of 1-6 reactions over 0, ..., 4A,
    all two-species two-reaction nets over complexes up to 2A + 2B, random
    two-species nets of 3-5 reactions and a grid of ACR-shaped nets:
      EmptyRegion: every family;
      FullPositiveOrthant: allowing regions of nondegenerate two-species nets;
      FeliuTelek_one_negative: every nonempty ACR region and one-species
        region of at most three rates (each signed form is one rate, so D < 0
        is the only condition: the paper's theorem for them is met here), and
        154 one-species nets of 4-6 reactions whose D has one negative term;
      PaperTheorem(two_species_two_reactions): the other two-species regions;
      OneSignPattern: the other one-species regions of one conjunct;
      SignPatternSplit: one-species regions with both alternating patterns.
    Unknown (ProbeOnly) is left only for a split whose witness search
    returned None, which none of those nets reaches.
    """
    if region.is_empty:
        return ConnectivityVerdict("Connected", "EmptyRegion")
    family = region.case_tag.family
    if len(region.conjuncts) == 1:
        conj = region.conjuncts[0]
        if len(conj) == 0:
            return ConnectivityVerdict("Connected", "FullPositiveOrthant")
        # Feliu-Telek is stated on the positive orthant: totals may be negative
        if len(conj) == 1 and region.totals == 0 and _one_negative_coefficient(conj[0]):
            return ConnectivityVerdict("Connected", "FeliuTelek_one_negative")
        if family is Family.TWO_SPECIES and len(region.ambient) - region.totals == 2:
            return ConnectivityVerdict("Connected", "PaperTheorem(two_species_two_reactions)")
        if family is Family.ONE_SPECIES:
            # kappa -> (a0, a1, a2) is linear, open and has convex fibres; it
            # maps the conjunct onto {a > 0 : D < 0}, each a_i being a form in
            # rates of its own.  With a0, a2 fixed, D < 0 leaves a half-line
            # in a1, so that image is connected, and so is the conjunct.
            return ConnectivityVerdict("Connected", "OneSignPattern")
    elif all(w is not None for w in region.witnesses) and _disjoint_sign_conjuncts(region):
        # the conjuncts sit in disjoint sign orthants of the coefficient
        # forms, each certified nonempty by a stored witness
        return ConnectivityVerdict("Disconnected", "SignPatternSplit", region.witnesses)
    return ConnectivityVerdict("Unknown", "ProbeOnly")


def _disjoint_sign_conjuncts(region: Region) -> bool:
    """Check pairwise that conjuncts impose contradictory strict sign conditions."""

    def opposed(ci: SignCondition, cj: SignCondition) -> bool:
        return "=0" not in (ci.rel, cj.rel) and (
            (ci.poly == cj.poly and ci.rel != cj.rel)
            or (ci.poly == -cj.poly and ci.rel == cj.rel)
        )

    return all(
        any(opposed(ci, cj) for ci in a for cj in b)
        for a, b in itertools.combinations(region.conjuncts, 2)
    )


# ---------------------------------------------------------------------------
# Self-check against the root-counting oracle


def _sweep_points(enabling: Region, seed: int, samples: int) -> Iterator[tuple[float, ...]]:
    """The self-check's samples seeded points: each coordinate has a
    log-uniform magnitude in [2^-6, 2^6], and totals take either sign."""
    rng = random.Random(seed)
    n = len(enabling.ambient) - enabling.totals
    span = 6 * math.log(2)
    for _ in range(samples):
        pt = []
        for i in range(len(enabling.ambient)):
            mag = math.exp(rng.uniform(-span, span))
            if i >= n and rng.random() < 0.5:
                mag = -mag
            pt.append(mag)
        yield tuple(pt)


def oracle_sweep(
    net: ReactionNetwork, enabling: Region, seed: int, samples: int
) -> list[tuple[Fraction, ...]]:
    """Sampled points where enabling-region membership disagrees with the oracle.

    Draws the samples points of _sweep_points, each coordinate taken as the
    exact rational value of the float drawn.  The floats go to membership and
    the oracle as they are, since both read a float as its exact binary
    rational; only the points reported are converted to Fractions.  A point
    disagrees when membership says it is inside the region and the oracle
    counts fewer than two positive steady states there, or the reverse.  Both
    sides are exact, so every disagreement is a fault.

    The oracle counts 2 where the steady states form a continuum, as for
    prop51 at rates (1, ..., 1), which lies in neither of its conjuncts
    (but in the closure of both).  Such a set has measure zero, so a float
    draw does not land on it; if one did, the sweep would report the point,
    not skip it.
    """
    sys_ = steady_state_system(net)
    n = len(enabling.ambient) - enabling.totals
    bad = []
    for pt in _sweep_points(enabling, seed, samples):
        result = count_positive_steady_states(sys_, pt[:n], pt[n:])
        if membership(enabling, pt) != (result.count >= 2):
            bad.append(tuple(map(Fraction, pt)))
    return bad


# ---------------------------------------------------------------------------
# Serialization


def condition_to_json(cond: SignCondition) -> dict:
    return {
        "poly": [[c, list(e)] for c, e in cond.poly.sorted_terms()],
        "rel": cond.rel,
    }


def region_to_json(region: Region, verdict: ConnectivityVerdict | None = None) -> dict:
    out = {
        "kind": region.kind,
        "ambient": list(region.ambient),
        "conjuncts": [
            [condition_to_json(c) for c in conj] for conj in region.conjuncts
        ],
        "case_tag": str(region.case_tag),
    }
    if len(region.conjuncts) == 1:
        out["conditions"] = out["conjuncts"][0]
    if verdict is not None:
        out["connectivity"] = {
            "value": verdict.value,
            "justification": verdict.justification,
            "witnesses": [[str(v) for v in w] for w in verdict.witnesses],
        }
    return out
