"""Exact semialgebraic multistationarity regions for the covered families.

Regions are finite unions of conjunctions of polynomial sign conditions
with integer coefficients over the network's rate symbols (and a
total-constant symbol c when the network has a conservation law).  All
open regions use strict inequalities; degenerate families yield equality
conditions on measure-zero sets.  Every allowing region is the projection
of its enabling region onto the rate symbols (project_to_allowing).

Enabling regions for two-species networks are stated with respect to the
canonical RREF conservation-law matrix produced by the network module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .classify import UnsupportedFamilyError, build_box_diagram, classify_two_species
from .massaction import SymPoly, count_positive_steady_states, ode_rhs, steady_state_system
from .network import ReactionNetwork, conservation_matrix, is_full_dimensional
from .unipoly import TrinomialForm, trinomial_D

_SIGNS = {"<0": -1, "=0": 0, ">0": 1}


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
        """Exact test at a point of rationals (Fraction or int)."""
        v = sum(t for _, t in self.poly.term_values(point))
        return (v > 0) - (v < 0) == _SIGNS[self.rel]

    def holds_float(self, point: Sequence[float]) -> bool:
        v = self.poly.evaluate_float(point)
        if self.rel == "<0":
            return v < 0
        if self.rel == ">0":
            return v > 0
        return v == 0


@dataclass(frozen=True)
class Region:
    """Union of conjunctions of sign conditions over the positive parameters.

    kind is "allowing" (ambient: rate constants) or "enabling" (rate
    constants plus total-constant symbols).  An empty tuple of conjuncts is
    the empty region; a conjunct that is itself empty is the full positive
    orthant.  witnesses optionally stores one validated interior rational
    point per conjunct.  totals is the number of trailing ambient symbols
    that are total constants: they may take either sign, every other
    symbol is a positive rate constant.
    """

    kind: str
    ambient: tuple[str, ...]
    conjuncts: tuple[tuple[SignCondition, ...], ...]
    case_tag: str
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
    """Exact rational membership test; point follows region.ambient order."""
    pt = tuple(Fraction(v) for v in point)
    if len(pt) != len(region.ambient):
        raise ValueError(
            f"point has {len(pt)} coordinates, ambient is {len(region.ambient)}"
        )
    return any(all(cond.holds(pt) for cond in conj) for conj in region.conjuncts)


def membership_float(region: Region, point: Sequence[float]) -> bool:
    """Fast floating-point membership; used by the sampling probe."""
    return any(
        all(cond.holds_float(point) for cond in conj) for conj in region.conjuncts
    )


# ---------------------------------------------------------------------------
# One-species regions


def one_species_coefficient_forms(net: ReactionNetwork) -> dict[int, SymPoly]:
    """Coefficient of x^m as a linear form in the rate symbols."""
    r = net.num_reactions
    forms: dict[int, SymPoly] = {}
    for i, rxn in enumerate(net.reactions):
        m = rxn.reactant.coeffs[0]
        step = rxn.product.coeffs[0] - m
        forms.setdefault(m, SymPoly(r))
        forms[m] = forms[m] + SymPoly.symbol(r, i, step)
    return {m: f for m, f in forms.items() if not f.is_zero()}


def _forced_sign(form: SymPoly) -> int:
    """+1/-1 if the linear form has a fixed sign on the positive orthant, else 0."""
    s = form.signs()
    if all(v > 0 for v in s):
        return 1
    if all(v < 0 for v in s):
        return -1
    return 0


def region_one_species_net_trinomial(net: ReactionNetwork) -> Region:
    """Region for one-species networks whose net ODE has at most 3 exponents.

    The region is a union of at most two conjuncts, one per alternating
    sign pattern of the coefficient linear forms; each conjunct pairs the
    pattern's strict sign conditions with the trinomial condition D < 0.
    """
    if net.num_species != 1:
        raise UnsupportedFamilyError("requires one species")
    forms = one_species_coefficient_forms(net)
    exps = sorted(forms)
    if len(exps) > 3:
        raise UnsupportedFamilyError("net ODE has more than 3 distinct exponents")
    ambient = net.rate_labels
    if len(exps) < 3:
        # a binomial or monomial has at most one positive root for every kappa
        return Region("allowing", ambient, (), "one_species_net_trinomial")
    k = exps[1] - exps[0]
    n = exps[2] - exps[0]
    d = math.gcd(n, k)
    N, K = n // d, k // d
    L = [forms[e] for e in exps]
    conjuncts: list[tuple[SignCondition, ...]] = []
    witnesses: list[tuple[Fraction, ...] | None] = []
    for pattern in ((1, -1, 1), (-1, 1, -1)):
        conds: list[SignCondition] = []
        feasible = True
        signed: list[SymPoly] = []
        for form, want in zip(L, pattern):
            forced = _forced_sign(form)
            a = form if want > 0 else -form
            signed.append(a)
            if forced == want:
                continue
            if forced == -want:
                feasible = False
                break
            conds.append(SignCondition(a.normalized(), ">0"))
        if not feasible:
            continue
        a0, a1, a2 = signed
        dpoly = (
            a0 ** (N - K) * a2**K
        ).scale(n**N) - (a1**N).scale((n - k) ** (N - K) * k**K)
        conds.append(SignCondition(dpoly.normalized(), "<0"))
        witness = _pattern_witness(net, exps, pattern, n, k, N, K)
        if witness is None:
            continue  # pattern is unreachable with positive rates
        conjuncts.append(tuple(conds))
        witnesses.append(witness)
    return Region(
        "allowing",
        ambient,
        tuple(conjuncts),
        "one_species_net_trinomial",
        tuple(witnesses),
    )


def _pattern_witness(net, exps, pattern, n, k, N, K):
    """Construct a rational kappa inside one sign-pattern conjunct.

    Sets every rate to 1, adjusts one reaction per exponent group so the
    coefficient has the pattern's sign, then scales the middle group until
    the trinomial D is negative.  Returns None when a group cannot take
    the required sign with positive rates.
    """
    groups: dict[int, list[tuple[int, int]]] = {e: [] for e in exps}
    for i, rxn in enumerate(net.reactions):
        m = rxn.reactant.coeffs[0]
        groups[m].append((i, rxn.product.coeffs[0] - m))
    kappa = [Fraction(1)] * net.num_reactions
    for e, want in zip(exps, pattern):
        steps = groups[e]
        if not any((s > 0) == (want > 0) for _, s in steps):
            return None
        total = sum(Fraction(s) for _, s in steps)
        if (total > 0) == (want > 0) and total != 0:
            continue
        i, s = next((i, s) for i, s in steps if (s > 0) == (want > 0))
        # shift this rate so the group total lands at want * 1
        rest = total - s * kappa[i]
        kappa[i] = (Fraction(want) - rest) / s

    def coeff(e) -> Fraction:
        return sum(s * kappa[i] for i, s in groups[e])

    middle_idx, middle_step = next(
        (i, s)
        for i, s in groups[exps[1]]
        if (s > 0) == (pattern[1] > 0)
    )
    for _ in range(200):
        b = abs(coeff(exps[0]) / coeff(exps[2]))
        c = abs(coeff(exps[1]) / coeff(exps[2]))
        t = TrinomialForm(n, k, b, c)
        if trinomial_D(t) < 0:
            return tuple(kappa)
        kappa[middle_idx] *= 2
    return None


# ---------------------------------------------------------------------------
# Two-species, two-reaction regions


@dataclass(frozen=True)
class CutoffFunction:
    """The tangency cutoff c* as a function of the two rate constants.

    c* = u1 * K * (1 + 1/alpha) * (-gamma*alpha/K)^(1/(1+alpha)) with
    K = (lam * kappa / kappa_tilde)^(1/a2), expressed through exact
    rational data; evaluate() uses floating point for the radicals.
    """

    u1: int
    a1: int
    a2: int
    gamma: Fraction
    alpha: Fraction
    lam: Fraction

    @property
    def m(self) -> int:
        return self.a1 + self.a2

    def evaluate(self, kappa: Fraction, kappa_tilde: Fraction) -> float:
        """The tangency value t*; its sign is the sign of m/a2."""
        pm = self.power_m(kappa, kappa_tilde)
        mag = abs(self.u1) * float(abs(pm)) ** (1.0 / self.m)
        return mag if Fraction(self.m, self.a2) > 0 else -mag

    def power_m(self, kappa: Fraction, kappa_tilde: Fraction) -> Fraction:
        """Exact value of (c*/u1)^m, rational for rational inputs."""
        G = -self.gamma * self.alpha
        return (
            Fraction(self.m, self.a2) ** self.m
            * (self.lam * Fraction(kappa) / Fraction(kappa_tilde))
            * G**self.a1
        )


def cutoff_c_star(net: ReactionNetwork) -> CutoffFunction:
    """Cutoff function for a nondegenerately multistationary 2x2 network."""
    verdict = classify_two_species(net)
    if not verdict.nondegenerate:
        raise UnsupportedFamilyError("cutoff defined only for the nondegenerate case")
    box = build_box_diagram(net)
    u1 = box.y_prime[0] - box.y[0]
    a1 = box.y_tilde[0] - box.y[0]
    a2 = box.y_tilde[1] - box.y[1]
    return CutoffFunction(u1, a1, a2, box.gamma, box.alpha, box.lam)


def region_two_species_two_reactions(net: ReactionNetwork) -> tuple[Region, Region]:
    """(enabling, allowing) regions of a two-species, two-reaction network.

    The enabling region is w.r.t. the RREF conservation-law matrix; its
    ambient symbols are the two rate labels followed by the total constant
    "c", which a full-dimensional network (never multistationary) lacks.
    The allowing region is its projection.
    """
    verdict = classify_two_species(net)
    tag = f"two_species_{verdict.matched_case.value}_{verdict.detail}".replace(" ", "_")
    witnesses = None
    if not verdict.multistationary:
        conjuncts = ()
    else:
        if verdict.nondegenerate:
            conj, witness = _nondegenerate_enabling(net, cutoff_c_star(net))
        else:
            conj, witness = _degenerate_enabling(net, verdict.detail)
        conjuncts, witnesses = (conj,), (witness,)
    (v1, v2), (w1, w2) = (rxn.vector() for rxn in net.reactions)
    totals = 0 if v1 * w2 != v2 * w1 else 1  # full dimensional: no conservation law
    enabling = Region(
        "enabling", net.rate_labels + ("c",) * totals, conjuncts, tag, witnesses, totals
    )
    return enabling, project_to_allowing(enabling)


def _degenerate_enabling(net, detail: str):
    """Enabling conjunct of degenerate case 1-4 over (kappa, kappa_tilde, c),
    with a rational point of it: (gamma^a2 / lam, 1, 0) in case 1 and
    (1, lam, 1) in cases 2-4."""
    box = build_box_diagram(net)
    kap, kapt, c = (SymPoly.symbol(3, i) for i in range(3))
    ln, ld = box.lam.numerator, box.lam.denominator
    one = Fraction(1)
    if detail == "case 2":
        # with y' - y = -lam (y~' - y~), steady states exist iff kappa_tilde = lam
        # kappa; they fill the class, which is empty for c <= 0 when the
        # conservation law has no negative weight
        eq = SignCondition((kapt.scale(ld) - kap.scale(ln)).normalized(), "=0")
        mixed = min(conservation_matrix(net).rows[0]) < 0
        return ((eq,) if mixed else (SignCondition(c, ">0"), eq)), (one, box.lam, one)
    if detail == "case 1":
        u1 = box.y_prime[0] - box.y[0]
        u2 = box.y_prime[1] - box.y[1]
        a2 = box.y_tilde[1] - box.y[1]
        # slopes coincide iff lam * kappa = kappa_tilde * gamma^a2, gamma = u2/u1 > 0
        if a2 >= 0:
            lhs = kap.scale(ln * u1**a2)
            rhs = kapt.scale(ld * u2**a2)
        else:
            lhs = kap.scale(ln * u2 ** (-a2))
            rhs = kapt.scale(ld * u1 ** (-a2))
        conj = (SignCondition(c, "=0"), SignCondition((lhs - rhs).normalized(), "=0"))
        return conj, (box.gamma**a2 / box.lam, one, Fraction(0))
    # cases 3 and 4: the steady-state set is an axis-parallel line matching
    # exactly one compatibility class
    if detail == "case 3":
        e = box.y[0] - box.y_tilde[0]
    else:
        e = box.y[1] - box.y_tilde[1]
    # steady-state line: c^e = kappa_tilde / (lam * kappa), e = y_i - y~_i
    if e > 0:
        poly = (kap * c**e).scale(ln) - kapt.scale(ld)
    else:
        poly = (kapt * c ** (-e)).scale(ld) - kap.scale(ln)
    conj = (SignCondition(c, ">0"), SignCondition(poly.normalized(), "=0"))
    return conj, (one, box.lam, one)


def _nondegenerate_enabling(net, cut: CutoffFunction):
    """Enabling conjunct from the cutoff case analysis, in RREF-c coordinates,
    with a witness inside it."""
    w = conservation_matrix(net).rows[0]
    u1 = cut.u1
    u2 = int(cut.gamma * u1)
    # normalized row [-u2, u1] = s * w
    s = Fraction(-u2) / w[0] if w[0] != 0 else Fraction(u1) / w[1]
    mu = s / u1  # t = mu * c_rref
    m = cut.m
    M = abs(m)
    alpha = cut.alpha
    s_t = 1 if (Fraction(m) / cut.a2) > 0 else -1  # sign of t*
    # dir: True means |t| > |t*| inside the region
    bigger = alpha > 0
    s_c = s_t * (1 if mu > 0 else -1)
    # R = (t*)^m = rho * kappa / kappa_tilde
    G = -cut.gamma * alpha
    rho = Fraction(m, cut.a2) ** m * G**cut.a1 * cut.lam
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
    conj = (c_cond, main)
    return conj, _nondeg_enabling_witness(cut, mu, conj, bigger)


def _nondeg_enabling_witness(cut: CutoffFunction, mu, conj, bigger):
    """A rational (1, 1, c) strictly inside the conjunct, or None.

    Starts from the floating-point guess t = 2 t* (or t*/2 when the region
    is |t| < |t*|) and doubles (or halves) c until every condition holds
    exactly: the float t* can round onto or past the boundary.
    """
    one = Fraction(1)
    tstar = cut.evaluate(one, one)
    t = tstar * 2 if bigger else tstar / 2
    c = Fraction(t / float(mu)).limit_denominator(10**6)
    return _scale_into(conj, (one, one, c), 2, bigger)


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
        k_exp, n_exp = exps[1], exps[2]
        signs = [1 if reduced[e][0] > 0 else -1 for e in exps]
        if signs not in ([1, -1, 1], [-1, 1, -1]):
            return Region("allowing", net.rate_labels, (), "acr_reduction")
        d = math.gcd(n_exp, k_exp)
        N, K = n_exp // d, k_exp // d
        # b = a0/a2, ctri = a1/a2 as monomials (magnitudes)
        a = {e: (abs(reduced[e][0]), reduced[e][1]) for e in exps}
        # D < 0: n^N b^(N-K) - (n-k)^(N-K) k^K ctri^N < 0; clear a2 powers
        t1_c = Fraction(n_exp) ** N * a[0][0] ** (N - K) * a[n_exp][0] ** K
        t1_e = tuple(
            (N - K) * x + K * y for x, y in zip(a[0][1], a[n_exp][1])
        )
        t2_c = (
            Fraction(n_exp - k_exp) ** (N - K)
            * Fraction(k_exp) ** K
            * a[k_exp][0] ** N
        )
        t2_e = tuple(N * x for x in a[k_exp][1])
        # clear negative exponents and rational coefficients
        min_e = [min(x, y, 0) for x, y in zip(t1_e, t2_e)]
        t1_e = tuple(x - mn for x, mn in zip(t1_e, min_e))
        t2_e = tuple(x - mn for x, mn in zip(t2_e, min_e))
        den = (t1_c.denominator * t2_c.denominator) // math.gcd(
            t1_c.denominator, t2_c.denominator
        )
        poly = SymPoly(
            r, {t1_e: int(t1_c * den), t2_e: -int(t2_c * den)}
        ).normalized()
        cond = SignCondition(poly, "<0")
        # t1 < t2 holds once the rate where their exponents differ is
        # scaled far enough towards the side of t2
        i = next((i for i in range(r) if t1_e[i] != t2_e[i]), 0)
        witness = _scale_into((cond,), (Fraction(1),) * r, i, t1_e[i] < t2_e[i])
        return Region(
            "allowing", net.rate_labels, ((cond,),), "acr_reduction", (witness,)
        )
    raise UnsupportedFamilyError("network does not match the ACR reduction shape")


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
        if not is_full_dimensional(net):
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
    poly = cond.poly if cond.rel == "<0" else -cond.poly if cond.rel == ">0" else None
    if poly is None:
        return False
    return sum(1 for c in poly.terms.values() if c < 0) == 1


def connectivity_verdict(region: Region) -> ConnectivityVerdict:
    """Analytic connectivity verdict for regions produced by this module."""
    if region.is_empty:
        return ConnectivityVerdict("Connected", "EmptyRegion")
    tag = region.case_tag
    # Feliu-Telek is stated on the positive orthant: totals may be negative
    orthant = region.totals == 0
    if len(region.conjuncts) == 1:
        conj = region.conjuncts[0]
        if len(conj) == 0:
            return ConnectivityVerdict("Connected", "FullPositiveOrthant")
        if len(conj) == 1 and orthant and _one_negative_coefficient(conj[0]):
            return ConnectivityVerdict("Connected", "FeliuTelek_one_negative")
        if tag.startswith("two_species"):
            return ConnectivityVerdict(
                "Connected", "PaperTheorem(two_species_two_reactions)"
            )
        if tag == "one_species_net_trinomial":
            return ConnectivityVerdict(
                "Connected", "PaperTheorem(one_species_up_to_three_reactions)"
            )
        if tag == "acr_reduction" and orthant and _one_negative_coefficient(conj[-1]):
            return ConnectivityVerdict("Connected", "FeliuTelek_one_negative")
        return ConnectivityVerdict("Unknown", "ProbeOnly")
    # multiple conjuncts: disconnected when they sit in disjoint sign orthants
    # of the coefficient forms, each certified nonempty by a stored witness
    if all(w is not None for w in region.witnesses) and _disjoint_sign_conjuncts(
        region
    ):
        return ConnectivityVerdict(
            "Disconnected", "SignPatternSplit", tuple(region.witnesses)
        )
    return ConnectivityVerdict("Unknown", "ProbeOnly")


def _disjoint_sign_conjuncts(region: Region) -> bool:
    """Check pairwise that conjuncts impose contradictory strict sign conditions."""
    for i in range(len(region.conjuncts)):
        for j in range(i + 1, len(region.conjuncts)):
            opposed = False
            for ci in region.conjuncts[i]:
                for cj in region.conjuncts[j]:
                    if ci.rel == "=0" or cj.rel == "=0":
                        continue
                    if ci.poly == cj.poly and ci.rel != cj.rel:
                        opposed = True
                    if ci.poly == -cj.poly and ci.rel == cj.rel:
                        opposed = True
            if not opposed:
                return False
    return True


# ---------------------------------------------------------------------------
# Self-check against the root-counting oracle


def oracle_sweep(
    net: ReactionNetwork, enabling: Region, seed: int, samples: int
) -> list[tuple[Fraction, ...]]:
    """Sampled points where enabling-region membership disagrees with the oracle.

    Draws samples points away from the region's boundary.  Each coordinate
    has a log-uniform magnitude in [2^-6, 2^6], rounded to a denominator of
    at most 10^9 as Fraction.limit_denominator does, and totals take either
    sign.  A point is redrawn when some condition is within 1/10^6 of 0
    relative to its terms: 10^6 |value| < sum |term|, exactly.  A point
    disagrees when it is inside the region and the oracle counts fewer than
    two positive steady states there, or the reverse.

    One pass of SymPoly.term_values over each condition decides both the
    boundary rule and membership: its integer terms are the exact ones times
    one positive integer, which changes neither the signs nor the ratio.
    """
    sys_ = steady_state_system(net)
    rng = random.Random(seed)
    dim = len(enabling.ambient)
    n = dim - enabling.totals
    span = 6 * math.log(2)
    bad = []
    done = 0
    while done < samples:
        pt = []
        for i in range(dim):
            mag = math.exp(rng.uniform(-span, span))
            if i >= n and rng.random() < 0.5:
                mag = -mag
            pt.append(Fraction(*_limit_denominator(mag, 10**9)))
        inside = near = False
        for conj in enabling.conjuncts:
            holds = True
            for cond in conj:
                vals = [v for _, v in cond.poly.term_values(pt)]
                val = sum(vals)
                if 10**6 * abs(val) < sum(map(abs, vals)):
                    near = True
                    break
                holds = holds and (val > 0) - (val < 0) == _SIGNS[cond.rel]
            if near:
                break
            inside = inside or holds
        if near:
            continue
        done += 1
        result = count_positive_steady_states(sys_, pt[:n], pt[n:])
        if inside != (result.count >= 2):
            bad.append(tuple(pt))
    return bad


def _limit_denominator(x: float, max_den: int) -> tuple[int, int]:
    """(numerator, denominator) of Fraction(x).limit_denominator(max_den),
    by the same continued-fraction steps on integers."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        q = a // b
        q2 = q0 + q * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + q * p1, q2
        a, b = b, a - q * b
    k = (max_den - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # the nearer of p1/q1 and p2/q2 to n/d; p1/q1 on a tie
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


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
        "case_tag": region.case_tag,
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
