from fractions import Fraction

import pytest

from crnregions.classify import (
    ClassificationVerdict,
    MatchedCase,
    UnsupportedFamilyError,
    build_box_diagram,
    classify,
    exponent_groups,
)
from crnregions.network import parse_network


class TestOneSpecies:
    def test_joshi_family_pattern_a(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3")
        v = classify(net)
        assert v.multistationary and v.nondegenerate
        assert v.matched_case is MatchedCase.ONE_SPECIES_A

    def test_pattern_b(self, ex53_net):
        v = classify(ex53_net)
        assert v.multistationary and v.nondegenerate
        assert v.matched_case is MatchedCase.ONE_SPECIES_B

    def test_two_reactions_never_multi(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2")
        v = classify(net)
        assert not v.multistationary
        assert v.matched_case is MatchedCase.NOT_MULTI

    def test_repeated_reactant_not_multi(self):
        net = parse_network("A -> 0; k1\nA -> 2A; k2\n2A -> 3A; k3")
        v = classify(net)
        assert not v.multistationary

    def test_non_alternating_not_multi(self):
        net = parse_network("0 -> A; k1\nA -> 2A; k2\n2A -> 3A; k3")
        v = classify(net)
        assert not v.multistationary

    def test_both_patterns(self, prop51_net):
        v = classify(prop51_net)
        assert v.multistationary and v.nondegenerate
        assert v.matched_case is MatchedCase.ONE_SPECIES_AB

    def test_four_reactions_unsupported(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3\n3A -> 0; k4")
        with pytest.raises(UnsupportedFamilyError):
            classify(net)

    def test_rejects_two_species(self, running_net):
        with pytest.raises(UnsupportedFamilyError):
            exponent_groups(running_net)


class TestBoxDiagram:
    def test_running_example_box(self, running_net):
        box = build_box_diagram(running_net)
        assert box.y == (2, 1) and box.y_tilde == (1, 0)
        assert box.gamma == -1
        assert box.alpha == 1
        assert box.lam == 1
        assert box.zigzag_form == 3

    def test_lambda_two(self):
        net = parse_network("2A + 2B -> 4A; k1\nA + B -> 2B; k2")
        box = build_box_diagram(net)
        assert box.lam == 2

    def test_not_antiparallel_has_no_lambda(self):
        net = parse_network("A -> B; k1\nA -> 2A + B; k2")
        box = build_box_diagram(net)
        assert box.lam is None

    @pytest.mark.parametrize(
        "text,form",
        [
            ("3A + B -> 2A; k1\n2B -> A + 3B; k2", 1),
            ("A + 3B -> 2B; k1\n4A + 2B -> 5A + 3B; k2", 2),
            ("2A + B -> 3A; k1\nA -> B; k2", 3),
            ("A + B -> 2A; k1\n2A + 2B -> A + 3B; k2", 4),
        ],
    )
    def test_zigzag_forms(self, text, form):
        net = parse_network(text)
        box = build_box_diagram(net)
        assert box.zigzag_form == form
        v = classify(net)
        assert v.multistationary and v.nondegenerate


class TestTwoSpeciesVerdicts:
    def test_running_example(self, running_net):
        v = classify(running_net)
        assert v == ClassificationVerdict(
            True, True, MatchedCase.TWO_SPECIES_ZIGZAG, number=3
        )
        assert v.detail == "form 3"

    @pytest.mark.parametrize(
        "text,case",
        [
            ("2B -> A + 3B; k1\nA + B -> 0; k2", "case 1"),
            ("A + B -> 3A + 3B; k1\nA + B -> 0; k2", "case 2"),
            ("A + B -> A + 2B; k1\n2A + B -> 2A; k2", "case 3"),
            ("A + B -> 2A + B; k1\nA + 2B -> 2B; k2", "case 4"),
        ],
    )
    def test_degenerate_cases(self, text, case):
        net = parse_network(text)
        v = classify(net)
        assert v.multistationary and not v.nondegenerate
        assert v.matched_case is MatchedCase.DEGENERATE
        assert v.detail == case

    def test_antiparallel_without_pattern_not_multi(self):
        # parallel box edges: alpha undefined along x1 (same first coordinate)
        net = parse_network("A + B -> 2A + 2B; k1\n2A + 2B -> A + B; k2")
        v = classify(net)
        assert not v.multistationary

    def test_not_antiparallel_not_multi(self):
        net = parse_network("A -> B; k1\nB -> 2A; k2")
        v = classify(net)
        assert not v.multistationary

    def test_three_reactions_unsupported(self):
        net = parse_network("A -> B; k1\nB -> A; k2\n2A -> A + B; k3")
        with pytest.raises(UnsupportedFamilyError):
            classify(net)

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            ClassificationVerdict(False, True, MatchedCase.NOT_MULTI)
