from fractions import Fraction
from pathlib import Path

import pytest

from crnregions import parse_network

NETS = Path(__file__).parent / "nets"
GOLDEN = Path(__file__).parent / "golden"

RUNNING = NETS / "running.crn"
PROP51 = NETS / "prop51.crn"
ACR = NETS / "acr.crn"
JOSHI_N2 = NETS / "joshi_n2.crn"
JOSHI_N3L2 = NETS / "joshi_n3l2.crn"
EX53 = NETS / "ex53.crn"
EQ19 = NETS / "eq19.crn"


def load(path: Path):
    return parse_network(path.read_text())


def exact_terms(poly, point, first=0):
    """Reference for SymPoly.term_values: (exponents of the symbols before
    first, exact value) per term, with symbols first, first + 1, ... bound
    to point and every value computed on Fractions."""
    for e, c in poly.terms.items():
        v = Fraction(c)
        for base, x in zip(point, e[first:]):
            v *= Fraction(base) ** x
        yield e[:first], v


def exact_value(poly, point) -> Fraction:
    """The exact value of poly at point, term by term on Fractions."""
    return sum((v for _, v in exact_terms(poly, point)), Fraction(0))


@pytest.fixture
def running_net():
    return load(RUNNING)


@pytest.fixture
def prop51_net():
    return load(PROP51)


@pytest.fixture
def acr_net():
    return load(ACR)


@pytest.fixture
def ex53_net():
    return load(EX53)
