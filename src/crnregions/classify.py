"""Combinatorial multistationarity classification for the covered families:

* one species whose net ODE has at most three distinct exponents: which
  alternating sign patterns the trinomial's coefficients can take at
  positive rates (exponent_groups, feasible_patterns);
* two species, exactly two reactions: the box diagram and its zigzag or
  degenerate case (build_box_diagram, classify_box).

Networks outside these families get an explicit "unsupported family"
verdict instead of a guess.  The region builders read the same functions,
and every region carries its family and verdict as a Case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .network import ReactionNetwork


class UnsupportedFamilyError(ValueError):
    """Network is outside the covered classification families."""


class MatchedCase(Enum):
    ONE_SPECIES_A = "OneSpecies_a"  # pattern (+,-,+)
    ONE_SPECIES_B = "OneSpecies_b"  # pattern (-,+,-)
    ONE_SPECIES_AB = "OneSpecies_ab"  # both patterns
    TWO_SPECIES_ZIGZAG = "TwoSpecies_zigzag"
    DEGENERATE = "Degenerate_case"
    NOT_MULTI = "NotMulti"


@dataclass(frozen=True)
class ClassificationVerdict:
    """number is the zigzag form or the degenerate case, 1-4; reason says
    why a net is not multistationary."""

    multistationary: bool
    nondegenerate: bool
    matched_case: MatchedCase
    reason: str = ""
    number: int | None = None

    def __post_init__(self) -> None:
        if self.nondegenerate and not self.multistationary:
            raise ValueError("nondegenerate implies multistationary")

    @property
    def detail(self) -> str:
        kind = _NUMBERED.get(self.matched_case)
        return f"{kind} {self.number}" if kind else self.reason


_NUMBERED = {MatchedCase.TWO_SPECIES_ZIGZAG: "form", MatchedCase.DEGENERATE: "case"}


class Family(Enum):
    ONE_SPECIES = "one_species_net_trinomial"
    TWO_SPECIES = "two_species"
    ACR_REDUCTION = "acr_reduction"


@dataclass(frozen=True)
class Case:
    """The family a region was built for, and the network's classification
    where the family has one."""

    family: Family
    verdict: ClassificationVerdict | None = None

    def __str__(self) -> str:
        if self.family is Family.TWO_SPECIES:
            v = self.verdict
            return f"two_species_{v.matched_case.value}_{v.detail}".replace(" ", "_")
        return self.family.value


# ---------------------------------------------------------------------------
# One species: x' = sum_i kappa_i (p_i - m_i) x^m_i


PATTERNS = ((1, -1, 1), (-1, 1, -1))
_PATTERN_CASES = {
    PATTERNS: MatchedCase.ONE_SPECIES_AB,
    PATTERNS[:1]: MatchedCase.ONE_SPECIES_A,
    PATTERNS[1:]: MatchedCase.ONE_SPECIES_B,
}


def exponent_groups(net: ReactionNetwork) -> dict[int, list[tuple[int, int]]]:
    """{m: [(reaction index, p - m)]} in increasing m: the reactions that
    feed the coefficient of x^m in the net ODE, each with its step."""
    if net.num_species != 1:
        raise UnsupportedFamilyError("requires one species")
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, rxn in enumerate(net.reactions):
        m = rxn.reactant.coeffs[0]
        groups.setdefault(m, []).append((i, rxn.product.coeffs[0] - m))
    if len(groups) > 3:
        raise UnsupportedFamilyError("net ODE has more than 3 distinct exponents")
    return dict(sorted(groups.items()))


def feasible_patterns(groups: dict[int, list[tuple[int, int]]]) -> tuple:
    """The alternating sign patterns the three coefficients take at some
    positive rates.  The groups share no rate, so a pattern is feasible when
    every group has a reaction whose step has the wanted sign."""
    steps = list(groups.values())
    return tuple(
        pattern for pattern in PATTERNS if len(steps) == 3
        and all(any(s * want > 0 for _, s in g) for g, want in zip(steps, pattern))
    )


def one_species_verdict(patterns: tuple) -> ClassificationVerdict:
    """Multistationary, and nondegenerately so, exactly when some pattern is
    feasible: fixing the outer coefficients, a large enough middle one makes
    the trinomial's discriminant quantity D negative (two positive roots)."""
    if not patterns:
        return ClassificationVerdict(
            False, False, MatchedCase.NOT_MULTI, "no feasible alternating sign pattern"
        )
    return ClassificationVerdict(True, True, _PATTERN_CASES[patterns])


# ---------------------------------------------------------------------------
# Two species, two reactions


@dataclass(frozen=True)
class BoxDiagram:
    """Reactant-corner data for a two-species, two-reaction network.

    Slopes are None when the corresponding denominator vanishes; lam is the
    positive ratio making the reaction vectors antiparallel, or None.
    zigzag_form is 1..4 when the box matches one of the zigzag patterns,
    else None.
    """

    y: tuple[int, int]
    y_prime: tuple[int, int]
    y_tilde: tuple[int, int]
    y_tilde_prime: tuple[int, int]
    gamma: Fraction | None
    alpha: Fraction | None
    lam: Fraction | None
    zigzag_form: int | None

    @property
    def nondegenerate(self) -> bool:
        return self.zigzag_form is not None and self.alpha != -1


def _antiparallel_ratio(v: tuple[int, int], w: tuple[int, int]) -> Fraction | None:
    """lam > 0 with v = -lam * w, or None."""
    # cross product zero and opposite orientation
    if v[0] * w[1] != v[1] * w[0]:
        return None
    for i in (0, 1):
        if w[i] != 0:
            lam = Fraction(-v[i], w[i])
            return lam if lam > 0 else None
    return None


def build_box_diagram(net: ReactionNetwork) -> BoxDiagram:
    if net.num_species != 2 or net.num_reactions != 2:
        raise UnsupportedFamilyError("box diagram requires 2 species and 2 reactions")
    r1, r2 = net.reactions
    y, yp = r1.reactant.coeffs, r1.product.coeffs
    yt, ytp = r2.reactant.coeffs, r2.product.coeffs
    v = r1.vector()
    gamma = Fraction(v[1], v[0]) if v[0] != 0 else None
    alpha = (
        Fraction(yt[1] - y[1], yt[0] - y[0]) if yt[0] != y[0] else None
    )
    lam = _antiparallel_ratio(v, r2.vector())
    zigzag = None
    # a nonzero alpha means a box with sides on both axes
    if lam is not None and gamma and alpha and (gamma > 0) != (alpha > 0):
        # reactant with the smaller first coordinate determines orientation
        low_vec = v if y[0] < yt[0] else tuple(-a for a in v)  # scaled by lam > 0
        if alpha < 0:
            zigzag = 1 if low_vec[0] > 0 else 2
        else:
            zigzag = 3 if low_vec[0] < 0 else 4
    return BoxDiagram(y, yp, yt, ytp, gamma, alpha, lam, zigzag)


def classify_box(box: BoxDiagram) -> ClassificationVerdict:
    """The two-species, two-reaction classification of a box diagram."""
    if box.lam is None:
        return ClassificationVerdict(
            False, False, MatchedCase.NOT_MULTI, "reaction vectors not antiparallel"
        )
    if box.nondegenerate:
        return ClassificationVerdict(
            True, True, MatchedCase.TWO_SPECIES_ZIGZAG, number=box.zigzag_form
        )
    # degenerate cases (antiparallel established)
    y, yp = box.y, box.y_prime
    yt = box.y_tilde
    if y == yt:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, number=2)
    if box.alpha == -1 and box.gamma is not None and box.gamma > 0:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, number=1)
    if yp[0] - y[0] == 0 and yt[1] - y[1] == 0:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, number=3)
    if yt[0] - y[0] == 0 and yp[1] - y[1] == 0:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, number=4)
    return ClassificationVerdict(
        False, False, MatchedCase.NOT_MULTI, "antiparallel but no zigzag or degenerate case"
    )


def classify(net: ReactionNetwork) -> ClassificationVerdict:
    """Dispatch to the covered family, or raise UnsupportedFamilyError."""
    if net.num_species == 1:
        return one_species_verdict(feasible_patterns(exponent_groups(net)))
    if net.num_species == 2 and net.num_reactions == 2:
        return classify_box(build_box_diagram(net))
    raise UnsupportedFamilyError(
        f"no classification for {net.num_species} species, "
        f"{net.num_reactions} reactions"
    )
