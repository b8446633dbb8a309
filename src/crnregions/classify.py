"""Combinatorial multistationarity classification for the two covered families:

* one species, up to three reactions (reactant-sorted sign patterns);
* two species, exactly two reactions (box diagram / zigzag analysis).

Networks outside these families get an explicit "unsupported family"
verdict instead of a guess.
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
    TWO_SPECIES_ZIGZAG = "TwoSpecies_zigzag"
    DEGENERATE = "Degenerate_case"
    NOT_MULTI = "NotMulti"


@dataclass(frozen=True)
class ClassificationVerdict:
    multistationary: bool
    nondegenerate: bool
    matched_case: MatchedCase
    detail: str = ""

    def __post_init__(self) -> None:
        if self.nondegenerate and not self.multistationary:
            raise ValueError("nondegenerate implies multistationary")


@dataclass(frozen=True)
class OneSpeciesProfile:
    """Reactions of a one-species network sorted by reactant coefficient."""

    pairs: tuple[tuple[int, int], ...]  # (m_i, p_i), m_1 <= ... <= m_r

    @classmethod
    def from_network(cls, net: ReactionNetwork) -> "OneSpeciesProfile":
        if net.num_species != 1:
            raise UnsupportedFamilyError("profile requires exactly one species")
        pairs = sorted(
            (r.reactant.coeffs[0], r.product.coeffs[0]) for r in net.reactions
        )
        return cls(tuple(pairs))


def classify_one_species(net: ReactionNetwork) -> ClassificationVerdict:
    """Apply the one-species, up-to-three-reaction classification."""
    if net.num_species != 1:
        raise UnsupportedFamilyError("expected exactly one species")
    r = net.num_reactions
    if r > 3:
        raise UnsupportedFamilyError(
            "one-species classification covers at most three reactions"
        )
    if r <= 2:
        return ClassificationVerdict(
            False, False, MatchedCase.NOT_MULTI, f"r={r} <= 2"
        )
    prof = OneSpeciesProfile.from_network(net)
    (m1, p1), (m2, p2), (m3, p3) = prof.pairs
    if not (m1 < m2 < m3):
        return ClassificationVerdict(
            False, False, MatchedCase.NOT_MULTI, "reactant coefficients not distinct"
        )
    signs = tuple(1 if p > m else -1 for m, p in prof.pairs)
    if signs == (1, -1, 1):
        return ClassificationVerdict(True, True, MatchedCase.ONE_SPECIES_A)
    if signs == (-1, 1, -1):
        return ClassificationVerdict(True, True, MatchedCase.ONE_SPECIES_B)
    return ClassificationVerdict(
        False, False, MatchedCase.NOT_MULTI, f"sign pattern {signs} not alternating"
    )


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
    box_defined = yt[0] != y[0] and yt[1] != y[1]
    if (
        lam is not None
        and box_defined
        and gamma is not None
        and gamma != 0
        and alpha is not None
        and alpha != 0
        and (gamma > 0) != (alpha > 0)
    ):
        # reactant with the smaller first coordinate determines orientation
        low_vec = v if y[0] < yt[0] else tuple(-a for a in v)  # scaled by lam > 0
        if alpha < 0:
            zigzag = 1 if low_vec[0] > 0 else 2
        else:
            zigzag = 3 if low_vec[0] < 0 else 4
    return BoxDiagram(y, yp, yt, ytp, gamma, alpha, lam, zigzag)


def classify_two_species(net: ReactionNetwork) -> ClassificationVerdict:
    """Apply the two-species, two-reaction classification."""
    if net.num_species != 2 or net.num_reactions != 2:
        raise UnsupportedFamilyError("expected 2 species and 2 reactions")
    box = build_box_diagram(net)
    if box.lam is None:
        return ClassificationVerdict(
            False, False, MatchedCase.NOT_MULTI, "reaction vectors not antiparallel"
        )
    if box.zigzag_form is not None and box.alpha != -1:
        return ClassificationVerdict(
            True,
            True,
            MatchedCase.TWO_SPECIES_ZIGZAG,
            f"form {box.zigzag_form}",
        )
    # degenerate cases (antiparallel established)
    y, yp = box.y, box.y_prime
    yt = box.y_tilde
    if y == yt:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, "case 2")
    if (
        box.alpha == -1
        and box.gamma is not None
        and box.gamma != 0
        and (box.gamma > 0) != (box.alpha > 0)
    ):
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, "case 1")
    if yp[0] - y[0] == 0 and yt[1] - y[1] == 0:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, "case 3")
    if yt[0] - y[0] == 0 and yp[1] - y[1] == 0:
        return ClassificationVerdict(True, False, MatchedCase.DEGENERATE, "case 4")
    return ClassificationVerdict(
        False, False, MatchedCase.NOT_MULTI, "antiparallel but no zigzag or degenerate case"
    )


def classify(net: ReactionNetwork) -> ClassificationVerdict:
    """Dispatch to the covered family, or raise UnsupportedFamilyError."""
    if net.num_species == 1 and net.num_reactions <= 3:
        return classify_one_species(net)
    if net.num_species == 2 and net.num_reactions == 2:
        return classify_two_species(net)
    raise UnsupportedFamilyError(
        f"no classification for {net.num_species} species, "
        f"{net.num_reactions} reactions"
    )
