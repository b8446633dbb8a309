from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from crnregions import network, regions
from crnregions.network import (
    Complex,
    NetworkParseError,
    Reaction,
    ReactionNetwork,
    conservation_matrix,
    format_network,
    parse_network,
    rref,
    stoichiometric_matrix,
)


def _documented_examples():
    """Each example line of the network module docstring and of the README's
    "Network file format" section, without its comment."""
    doc = [line for line in network.__doc__.splitlines() if line.startswith("    ")]
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Network file format", 1)[1].split("```", 2)[1]
    lines = (line.split("#", 1)[0].strip() for line in doc + block.splitlines())
    return [line for line in lines if line]


class TestParsing:
    @pytest.mark.parametrize("line", _documented_examples())
    def test_documented_example_parses(self, line):
        parse_network(line)

    def test_running_example(self, running_net):
        assert running_net.species_names == ("A", "B")
        assert running_net.num_reactions == 2
        assert running_net.reactions[0].reactant == Complex((2, 1))
        assert running_net.reactions[0].product == Complex((3, 0))
        assert running_net.rate_labels == ("k1", "k2")

    def test_zero_complex_and_auto_labels(self):
        net = parse_network("0 -> A\nA -> 0")
        assert net.reactions[0].reactant.is_zero()
        assert net.rate_labels == ("k1", "k2")

    def test_auto_labels_skip_explicit_ones(self):
        net = parse_network("A -> 0; k1\n2A -> 3A; k2\n4A -> 3A")
        assert net.rate_labels == ("k1", "k2", "k3")

    def test_auto_label_skips_a_later_explicit_one(self):
        net = parse_network("A -> 0\n2A -> 3A; k1")
        assert net.rate_labels == ("k2", "k1")

    def test_chained_arrows(self):
        net = parse_network("0 <- A, 2A -> 3A <- 4A")
        assert net.num_reactions == 3
        assert net.reactions[0].vector() == (-1,)
        assert net.reactions[1].vector() == (1,)
        assert net.reactions[2].vector() == (-1,)

    def test_reversible_arrow_label_suffixes(self):
        net = parse_network("A <-> B ; k1")
        assert net.rate_labels == ("k1_f", "k1_r")
        assert net.reactions[0].vector() == (-1, 1)
        assert net.reactions[1].vector() == (1, -1)

    def test_reverse_arrow(self):
        net = parse_network("A <- 2B ; k1")
        assert net.reactions[0].reactant == Complex((0, 2))

    def test_comments_and_commas(self):
        net = parse_network("# heading\nA -> B ; k1, B -> A ; k2\n")
        assert net.num_reactions == 2

    def test_coefficient_syntax(self):
        net = parse_network("2A + 3 B -> A ; k1\nA -> 2A; k2")
        assert net.reactions[0].reactant == Complex((2, 3))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "A ->",
            "A -> A ; k1",
            "A -> B ; k1\nA -> B ; k2",
            "A -> B ; k1\nB -> A ; k1",
            "A -> B ; k1, k2",
            "-1A -> B ; k1",
        ],
    )
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(NetworkParseError):
            parse_network(bad)

    @pytest.mark.parametrize("label", ["a; b", "2k", "k-1", "k 1", "k1'"])
    def test_rate_label_must_be_an_identifier(self, label):
        text = f"A -> 0; k1\n0 -> A; {label}\n2A -> 3A"
        with pytest.raises(NetworkParseError, match=r"is not an identifier \(line 2, col 1\)"):
            parse_network(text)

    def test_roundtrip_through_formatter(self, prop51_net):
        again = parse_network(format_network(prop51_net))
        assert again == prop51_net


class TestValidation:
    def test_zero_reaction_vector_rejected(self):
        with pytest.raises(ValueError):
            Reaction(Complex((1, 0)), Complex((1, 0)), "k1")

    def test_unused_species_rejected(self):
        with pytest.raises(ValueError):
            ReactionNetwork(
                ("A", "B"),
                (Reaction(Complex((1, 0)), Complex((2, 0)), "k1"),),
            )

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Complex((1, -1))


class TestLinearAlgebra:
    def test_stoichiometric_matrix_running(self, running_net):
        assert stoichiometric_matrix(running_net) == [[1, -1], [-1, 1]]

    def test_rref_canonical(self):
        rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
        assert rref(rows) == [[Fraction(1), Fraction(2)]]

    def test_rank(self, running_net):
        assert running_net.num_species - conservation_matrix(running_net).dim == 1

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.tuples(*[st.integers(0, 3)] * n), st.tuples(*[st.integers(0, 3)] * n)
                ).filter(lambda r: r[0] != r[1]),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
    )
    def test_dim_s_from_conservation_laws(self, pairs):
        # parse and analyze report dim S as n minus the number of conservation laws
        n = len(pairs[0][0])
        assume(all(any(y[j] or yp[j] for y, yp in pairs) for j in range(n)))
        rxns = tuple(
            Reaction(Complex(y), Complex(yp), f"k{i}") for i, (y, yp) in enumerate(pairs)
        )
        net = ReactionNetwork(tuple("ABC"[:n]), rxns)
        assert len(rref(stoichiometric_matrix(net))) == n - conservation_matrix(net).dim

    def test_conservation_matrix_running(self, running_net):
        W = conservation_matrix(running_net)
        assert W.dim == 1
        assert W.rows == ((Fraction(1), Fraction(1)),)

    def test_conservation_rows_annihilate_columns(self, prop51_net):
        S = stoichiometric_matrix(prop51_net)
        W = conservation_matrix(prop51_net)
        for row in W.rows:
            for i in range(prop51_net.num_reactions):
                assert sum(row[j] * S[j][i] for j in range(len(row))) == 0

    def test_full_dimensional(self, acr_net, running_net):
        assert regions._full_dimensional(acr_net)
        assert not regions._full_dimensional(running_net)
