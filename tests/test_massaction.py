from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crnregions import massaction
from crnregions.classify import UnsupportedFamilyError
from crnregions.massaction import (
    count_positive_steady_states,
    ode_rhs,
    steady_state_system,
)
from crnregions.network import Complex, Reaction, ReactionNetwork, parse_network
from crnregions.unipoly import UniPoly, positive_roots, sturm_count_open_interval


class TestOdeRhs:
    def test_running_example_rhs(self, running_net):
        f = ode_rhs(running_net)
        n = running_net.num_species
        # dx1/dt = k1 x1^2 x2 - k2 x1, dx2/dt = -k1 x1^2 x2 + k2 x1
        assert {(e[:n], e[n:]): c for e, c in f[0].terms.items()} == {
            ((2, 1), (1, 0)): Fraction(1),
            ((1, 0), (0, 1)): Fraction(-1),
        }
        assert f[1] == -f[0]

    def test_rate_symbols_one_per_reaction(self, acr_net):
        f = ode_rhs(acr_net)
        n = acr_net.num_species
        for p in f:
            for e in p.terms:
                assert sum(e[n:]) == 1


class TestSteadyStateSystem:
    def test_running_example_symbols(self, running_net):
        sys = steady_state_system(running_net)
        assert sys.cons.dim == 1
        assert sys.cons.rows == ((Fraction(1), Fraction(1)),)

    def test_full_dimensional_has_no_symbols(self, acr_net):
        sys = steady_state_system(acr_net)
        assert sys.cons.dim == 0


class TestOracle1D:
    def test_prop51_two_states(self, prop51_net):
        sys = steady_state_system(prop51_net)
        res = count_positive_steady_states(sys, (1, 2, 4, 1, 1, 2))
        assert res.count == 2 and res.certified

    def test_prop51_no_states(self, prop51_net):
        sys = steady_state_system(prop51_net)
        res = count_positive_steady_states(sys, (2, 1, 1, 1, 1, 1))
        assert res.count == 0

    def test_prop51_all_equal_rates_is_continuum(self, prop51_net):
        # the forward and reverse rates cancel pairwise: every x > 0 is steady
        sys = steady_state_system(prop51_net)
        res = count_positive_steady_states(sys, (1, 1, 1, 1, 1, 1))
        assert res.continuum

    def test_double_root_counts_once(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3")
        sys = steady_state_system(net)
        # k3 x^2 - k2 x + k1 = x^2 - 2x + 1 has a double root at 1
        res = count_positive_steady_states(sys, (1, 2, 1))
        assert res.count == 1 and not res.continuum
        assert res.witnesses == [(Fraction(1),)]

    def test_unit_rates_give_one_state(self):
        net = parse_network("A -> 2A; k1\n2A -> A; k2, 0 -> A; k3\nA -> 0; k4")
        sys = steady_state_system(net)
        # k1 x - k2 x^2 + k3 - k4 x is 1 - x^2 at unit rates: x = 1 only
        res = count_positive_steady_states(sys, (1, 1, 1, 1))
        assert res.count == 1 and not res.continuum
        assert res.witnesses == [(Fraction(1),)]


class TestOracle2D:
    def test_running_example_on_class(self, running_net):
        sys = steady_state_system(running_net)
        res = count_positive_steady_states(sys, (1, 1), (Fraction(5, 2),))
        assert res.count == 2 and res.certified
        assert sorted(res.witnesses) == [
            (Fraction(1, 2), Fraction(2)),
            (Fraction(2), Fraction(1, 2)),
        ]

    def test_states_found_only_when_read(self, running_net, monkeypatch):
        calls = []
        real = massaction.positive_roots
        monkeypatch.setattr(
            massaction, "positive_roots", lambda p: calls.append(p) or real(p)
        )
        sys = steady_state_system(running_net)
        res = count_positive_steady_states(sys, (1, 1), (Fraction(5, 2),))
        assert res.count == 2 and calls == []
        assert sorted(res.witnesses) == sorted(res.witnesses) == [
            (Fraction(1, 2), Fraction(2)),
            (Fraction(2), Fraction(1, 2)),
        ]
        assert len(calls) == 1

    def test_running_example_below_threshold(self, running_net):
        sys = steady_state_system(running_net)
        res = count_positive_steady_states(sys, (1, 1), (Fraction(3, 2),))
        assert res.count == 0

    def test_running_example_boundary_class(self, running_net):
        sys = steady_state_system(running_net)
        res = count_positive_steady_states(sys, (1, 1), (Fraction(2),))
        assert res.count == 1 and not res.continuum
        assert res.witnesses == [(Fraction(1), Fraction(1))]

    def test_acr_network_multistationary_point(self, acr_net):
        sys = steady_state_system(acr_net)
        res = count_positive_steady_states(sys, (1, 5, 1, 1, 1))
        assert res.count == 2 and res.certified

    def test_acr_network_monostationary_point(self, acr_net):
        sys = steady_state_system(acr_net)
        res = count_positive_steady_states(sys, (1, 1, 1, 1, 1))
        assert res.count <= 1

    def test_degenerate_continuum_class(self):
        # both reactions share reactant A+B; the rhs is (2k1 - k2) x1 x2 (1,1),
        # identically zero exactly when k2 = 2 k1
        net = parse_network("A + B -> 3A + 3B; k1\nA + B -> 0; k2")
        sys = steady_state_system(net)
        res = count_positive_steady_states(sys, (1, 2), (Fraction(1),))
        assert res.continuum and res.count == 2
        res2 = count_positive_steady_states(sys, (2, 1), (Fraction(1),))
        assert res2.count == 0 and not res2.continuum

    def test_vanishing_odes_on_an_empty_class(self):
        # the rhs is (k1 - k2) x1 x2 (1, -1); on the classes x1 + x2 = c <= 0
        # there is no positive point, let alone a continuum of states
        net = parse_network("A + B -> 2A; k1\nA + B -> 2B; k2")
        sys = steady_state_system(net)
        for c in (Fraction(0), Fraction(-1)):
            res = count_positive_steady_states(sys, (1, 1), (c,))
            assert res.count == 0 and not res.continuum
        res = count_positive_steady_states(sys, (1, 1), (Fraction(3),))
        assert res.continuum and res.count == 2
        assert all(x1 > 0 and x2 > 0 and x1 + x2 == 3 for x1, x2 in res.witnesses)

    def test_double_root_off_the_class_leaves_one_simple_state(self):
        # on the class x1 - x2 = 1 the ODE is 4 - 27 x1 x2^2, with a double
        # root at x2 = -2/3: the one steady state, (4/3, 1/3), is simple
        net = parse_network("0 -> A + B; k1\nA + 2B -> B; k2")
        res = count_positive_steady_states(steady_state_system(net), (4, 27), (1,))
        assert res.count == 1
        assert res.witnesses == [(Fraction(4, 3), Fraction(1, 3))]

    def test_isolated_state_on_shifted_class(self):
        # steady set is the curve x1 x2 = 1; each class x1 - x2 = c meets it once
        net = parse_network("A + B -> 2A + 2B; k1\n2A + 2B -> A + B; k2")
        sys = steady_state_system(net)
        res = count_positive_steady_states(sys, (1, 1), (Fraction(0),))
        assert res.count == 1 and res.certified
        assert res.witnesses == [(Fraction(1), Fraction(1))]

    def test_rejects_three_species(self):
        net = parse_network("A + B -> C; k1\nC -> A + B; k2")
        sys = steady_state_system(net)
        with pytest.raises(ValueError):
            count_positive_steady_states(sys, (1, 2), (1, 1))

    def test_rejects_nonpositive_rates(self, running_net):
        sys = steady_state_system(running_net)
        with pytest.raises(ValueError):
            count_positive_steady_states(sys, (0, 1), (Fraction(5, 2),))

    def test_rejects_wrong_c_length(self, running_net):
        sys = steady_state_system(running_net)
        with pytest.raises(ValueError):
            count_positive_steady_states(sys, (1, 1))

    @pytest.mark.parametrize("kappa", [(1,), (1, 1, 1)])
    def test_rejects_wrong_kappa_length(self, running_net, kappa):
        sys = steady_state_system(running_net)
        with pytest.raises(ValueError, match="rate constant"):
            count_positive_steady_states(sys, kappa, (Fraction(5, 2),))



REORDERED_ACR = "2B -> 3B; k3\nA -> A + B; k1\nA + B -> A; k2\nA -> 2A; k5\n2A -> A; k6"


class TestOracleFullDimensional:
    def test_independent_reaction_vectors_have_no_states(self):
        # f = N diag(kappa) x^Y with N invertible has no positive zero
        for text in (
            "B -> A + B; k1\nA + B -> A + 2B; k2",
            "A + B -> 2A + B; k1\nA + B -> A + 2B; k2",
        ):
            sys = steady_state_system(parse_network(text))
            res = count_positive_steady_states(sys, (1, 1))
            assert res.count == 0 and res.witnesses == []

    def test_reordered_acr_pins_second_coordinate(self):
        # species order (B, A): the ODE of A, the second coordinate, pins it
        sys = steady_state_system(parse_network(REORDERED_ACR))
        res = count_positive_steady_states(sys, (1, 1, 5, 1, 1))
        assert res.count == 2 and res.certified
        assert [xa for _, xa in res.witnesses] == [Fraction(1), Fraction(1)]
        assert all(xb > 0 for xb, _ in res.witnesses)

    def test_decoupled_net_pins_the_rational_coordinate(self):
        # y* = sqrt(k1/k2) is irrational, x* = k3/k4 is rational: Y is listed
        # first, so the count goes through the second coordinate
        net = parse_network("Y -> 2Y; k1\n3Y -> 2Y; k2\n2X -> 3X; k3\n3X -> 2X; k4")
        assert net.species_names == ("Y", "X")
        sys = steady_state_system(net)
        res = count_positive_steady_states(sys, (1, 2, 3, 4))
        assert res.count == 1
        ((y, x),) = res.witnesses
        assert x == Fraction(3, 4)
        assert float(y) == pytest.approx(0.5**0.5, rel=1e-10)

    def test_vanishing_ode_leaves_the_other_free(self):
        net = parse_network("A -> 2A; k1\nA -> 0; k2\nB -> 2B; k3\n2B -> B; k4")
        sys = steady_state_system(net)
        # k1 = k2: dA/dt vanishes, B is pinned to k3/k4 and A is free
        res = count_positive_steady_states(sys, (1, 1, 2, 1))
        assert res.continuum and res.count == 2
        assert res.witnesses == [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(2))]
        res = count_positive_steady_states(sys, (1, 2, 2, 1))
        assert res.count == 0 and not res.continuum

    def test_both_odes_vanishing_is_a_continuum(self):
        net = parse_network("A -> 2A; k1\nA -> 0; k2\nB -> 2B; k3\nB -> 0; k4")
        sys = steady_state_system(net)
        res = count_positive_steady_states(sys, (1, 1, 1, 1))
        assert res.continuum and res.count == 2

    @pytest.mark.parametrize(
        "text, kappa",
        [
            # once a ZeroPolynomialError in the resultant branch
            (
                "A + 2B -> B; k1\n0 -> B; k2\nA + B -> 2B; k3\n2A -> A + B; k4",
                (Fraction(2, 7), Fraction(3, 4), Fraction(8, 5), Fraction(5, 8)),
            ),
            # once an uncertified count 0, where the true count is 1
            (
                "A -> 2A + 2B; k1\n2A + B -> A + B; k2\n0 -> 2A; k3\n2A + 2B -> B; k4",
                (Fraction(2, 3), Fraction(3), Fraction(1), Fraction(5, 2)),
            ),
        ],
    )
    def test_unpinned_network_is_refused(self, text, kappa):
        sys = steady_state_system(parse_network(text))
        with pytest.raises(UnsupportedFamilyError):
            count_positive_steady_states(sys, kappa)


def _complex(coeffs, robust):
    """A two-species complex whose robust-species coefficient comes first,
    stored in species order (A, B) with the robust species at index robust."""
    return Complex(coeffs if robust == 0 else coeffs[::-1])


@st.composite
def _acr_shaped_nets(draw):
    """Full-dimensional nets where the robust species R has the ODE
    x_O^t x_R^s (p - q x_R): two reactions change R, from sR + tO to
    (s+1)R and back, and one to three reactions change only O."""
    robust = draw(st.sampled_from([0, 1]))
    s, t = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    pairs = [
        ((s, t), (s + 1, draw(st.integers(0, 3)))),
        ((s + 1, t), (s, draw(st.integers(0, 3)))),
    ]
    for _ in range(draw(st.integers(1, 3))):
        a, b, b2 = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
        pairs.append(((a, b), (a, b2 + (b2 >= b))))
    pairs = list(dict.fromkeys(pairs))
    order = draw(st.permutations(range(len(pairs))))
    rxns = tuple(
        Reaction(_complex(pairs[j][0], robust), _complex(pairs[j][1], robust), f"k{i + 1}")
        for i, j in enumerate(order)
    )
    rates = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
            .filter(lambda v: v > 0),
            min_size=len(rxns),
            max_size=len(rxns),
        )
    )
    return ReactionNetwork(("A", "B"), rxns), tuple(rates)


class TestOracleAgainstSympy:
    """The full-dimensional branch against sympy's solve on ACR-shaped nets,
    with either species as the robust one."""

    @given(_acr_shaped_nets())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_states(self, case):
        sympy = pytest.importorskip("sympy")
        net, kappa = case
        res = count_positive_steady_states(steady_state_system(net), kappa)
        assert res.certified

        x = sympy.symbols("x1 x2")
        rates = [sympy.Rational(k.numerator, k.denominator) for k in kappa]
        odes = []
        n = net.num_species
        for f in ode_rhs(net):
            # without its monomial factor, an ODE has no solution branch on an axis
            low = [min(e[i] for e in f.terms) for i in (0, 1)]
            odes.append(
                sum(
                    sympy.Rational(c.numerator, c.denominator)
                    * x[0] ** (e[0] - low[0]) * x[1] ** (e[1] - low[1])
                    * sympy.Mul(*(r**k for r, k in zip(rates, e[n:])))
                    for e, c in f.terms.items()
                )
            )
        positive, continuum = [], False
        for sol in sympy.solve(odes, x, dict=True):
            # casus-irreducibilis roots stay unsigned symbolically: sign numerically
            point = [complex(sympy.N(v, 40)) for v in sol.values()]
            if not all(abs(z.imag) < 1e-20 and z.real > 0 for z in point):
                continue
            if len(sol) < 2:
                continuum = True  # the other coordinate is free
            else:
                positive.append(tuple(complex(sympy.N(sol[v], 40)).real for v in x))
        assert res.continuum == continuum
        if continuum:
            return
        assert res.count == len(positive)
        ours = sorted(tuple(float(v) for v in w) for w in res.witnesses)
        for mine, theirs in zip(ours, sorted(positive)):
            assert mine == pytest.approx(theirs, rel=1e-9)


@st.composite
def _on_line_nets(draw):
    """One-species nets, and two-species nets whose reaction vectors are all
    multiples of one direction, so that one conservation law holds."""
    # a few repeated rates, so that coefficients cancel now and then
    rates = st.one_of(
        st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]),
        st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    )
    if draw(st.booleans()):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
                min_size=2,
                max_size=5,
                unique=True,
            )
        )
        pairs = [((a,), (b,)) for a, b in pairs]
        species, c = ("A",), ()
    else:
        v = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        start = (max(0, -v[0]), max(0, -v[1]))
        pairs = [(start, (start[0] + v[0], start[1] + v[1]))]
        for _ in range(draw(st.integers(0, 3))):
            a = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
            m = draw(st.sampled_from([-2, -1, 1, 2]))
            b = (a[0] + m * v[0], a[1] + m * v[1])
            if min(b) >= 0 and (a, b) not in pairs:
                pairs.append((a, b))
        assume(all(any(a[j] or b[j] for a, b in pairs) for j in (0, 1)))
        species = ("A", "B")
        c = (draw(st.fractions(min_value=-3, max_value=9, max_denominator=9)),)
    rxns = tuple(Reaction(Complex(a), Complex(b), f"k{i + 1}") for i, (a, b) in enumerate(pairs))
    kappa = draw(st.lists(rates, min_size=len(rxns), max_size=len(rxns)))
    return ReactionNetwork(species, rxns), tuple(kappa), c


def _fraction_oracle(net, kappa, c):
    """(count, continuum, steady states) from the oracle's
    substitution as it ran on Fractions before the integer one."""
    sys = steady_state_system(net)
    n = net.num_species
    subs = []
    for f in sys.odes:
        sub = {}
        for key, coeff in f.terms.items():
            xe, ke = key[:n], key[n:]
            v = Fraction(coeff)
            for k, e in zip(kappa, ke):
                v *= k**e
            sub[xe] = sub.get(xe, 0) + v
        subs.append({xe: v for xe, v in sub.items() if v})
    sub = subs[0] if subs[0] else subs[-1]

    def collect(axis, value=None):
        out = {}
        for xe, v in sub.items():
            e = xe[axis]
            out[e] = out.get(e, 0) + (v if value is None else v * value ** xe[1 - axis])
        return [out.get(e, 0) for e in range(max(out, default=-1) + 1)]

    if net.num_species == 1:
        cs, lo, hi, point = collect(0), Fraction(0), None, lambda r: (r,)
    else:
        (cval,) = c
        w = sys.cons.rows[0]
        if w[1] != 0:
            a0, b0 = cval / w[1], -w[0] / w[1]
            cs = []
            for (i, j), v in sub.items():
                term = [Fraction(0)] * i + [v]
                for _ in range(j):  # times (a0 + b0 x1)
                    term = [a0 * u + b0 * t for u, t in zip(term + [0], [0] + term)]
                cs = [u + t for u, t in zip_longest(cs, term, fillvalue=0)]
            # x1 > 0 and x2 = a0 + b0 x1 > 0 on the open interval (lo, hi)
            lo, hi = Fraction(0), None
            if b0 > 0:
                lo = max(lo, -a0 / b0)
            elif b0 < 0:
                hi = -a0 / b0
            elif a0 <= 0:
                return 0, False, []
            if hi is not None and hi <= lo:
                return 0, False, []
            point = lambda r: (r, a0 + b0 * r)  # noqa: E731
        else:
            if cval <= 0:
                return 0, False, []
            cs, lo, hi, point = collect(1, cval), Fraction(0), None, lambda r: (cval, r)
    p = UniPoly.from_rationals(cs)
    if p.is_zero:
        return None  # a continuum: its sample states are not the substitution's
    count = sturm_count_open_interval(p, lo, hi)
    states = [point(r) for r in positive_roots(p) if r > lo and (hi is None or r < hi)]
    return count, False, states


def _case(text, kappa, c=()):
    return parse_network(text), tuple(map(Fraction, kappa)), tuple(map(Fraction, c))


class TestIntegerSubstitution:
    @given(_on_line_nets())
    @example(_case("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3", (1, 2, 1)))  # double root
    @example(_case("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3", (1, 3, 1)))  # two irrational
    @example(_case("2A + B -> 3A; k1\nA -> B; k2", (1, 1), ("5/2",)))  # two rational
    @example(_case("A -> 2A; k1\nA -> 0; k2", (1, 1)))  # a continuum
    @example(_case("2A + B -> 3A; k1\nA -> B; k2", (1, 1), (3,)))  # two irrational
    @example(_case("A + B -> 2A; k1\nA + B -> 2B; k2", (2, 2), (3,)))  # a continuum
    @example(_case("A + B -> A\nA + 2B -> A + 3B\nA + 3B -> A + 2B", (1, 3, 1), (2,)))
    @example(_case("0 -> A + B; k1\nA + 2B -> B; k2", (4, 27), (1,)))  # double root off the class
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_substitution(self, case):
        net, kappa, c = case
        res = count_positive_steady_states(steady_state_system(net), kappa, c)
        want = _fraction_oracle(net, kappa, c)
        if want is None:
            assert res.continuum and res.count == 2
        else:
            assert (res.count, res.continuum, res.witnesses) == want
