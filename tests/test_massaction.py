from fractions import Fraction

import pytest

from crnregions import massaction
from crnregions.massaction import (
    ParamPoly,
    count_positive_steady_states,
    jacobian_restricted_rank,
    ode_rhs,
    steady_state_system,
)
from crnregions.network import parse_network


class TestOdeRhs:
    def test_running_example_rhs(self, running_net):
        f = ode_rhs(running_net)
        # dx1/dt = k1 x1^2 x2 - k2 x1, dx2/dt = -k1 x1^2 x2 + k2 x1
        assert f[0].terms == {
            ((2, 1), (1, 0)): Fraction(1),
            ((1, 0), (0, 1)): Fraction(-1),
        }
        assert f[1] == -f[0]

    def test_rate_symbols_one_per_reaction(self, acr_net):
        f = ode_rhs(acr_net)
        for p in f:
            for (_, ke) in p.terms:
                assert sum(ke) == 1

    def test_evaluate_matches_hand_value(self, running_net):
        f = ode_rhs(running_net)
        val = f[0].evaluate((Fraction(2), Fraction(3)), (Fraction(1), Fraction(5)))
        assert val == 4 * 3 - 5 * 2

    def test_partial_x(self):
        p = ParamPoly.term(2, 1, 3, (2, 1), (1,))
        dp = p.partial_x(0)
        assert dp.terms == {((1, 1), (1,)): Fraction(6)}


class TestSteadyStateSystem:
    def test_running_example_symbols(self, running_net):
        sys = steady_state_system(running_net)
        assert sys.total_symbols == ("c",)
        assert sys.cons.rows == ((Fraction(1), Fraction(1)),)

    def test_full_dimensional_has_no_symbols(self, acr_net):
        sys = steady_state_system(acr_net)
        assert sys.total_symbols == ()


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

    def test_boundary_flag_on_double_root(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3")
        sys = steady_state_system(net)
        # k3 x^2 - k2 x + k1 = x^2 - 2x + 1 has a double root at 1
        res = count_positive_steady_states(sys, (1, 2, 1))
        assert res.count == 1 and res.boundary

    def test_continuum_when_rhs_vanishes(self):
        net = parse_network("A -> 2A; k1\n2A -> A; k2, 0 -> A; k3\nA -> 0; k4")
        sys = steady_state_system(net)
        # k1 x - k2 x^2 + k3 - k4 x with k1=k4, k2=k3=0 impossible (rates > 0);
        # use a pair of nets below instead. Here just check a generic count.
        res = count_positive_steady_states(sys, (1, 1, 1, 1))
        assert res.certified


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
        assert res.count == 1 and res.boundary

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


class TestJacobianRank:
    def test_running_example_nondegenerate(self, running_net):
        sys = steady_state_system(running_net)
        rank = jacobian_restricted_rank(sys, (1, 1), (Fraction(1, 2), Fraction(2)))
        assert rank == 1

    def test_degenerate_double_root_state(self, running_net):
        # on the c = 2 class the two branches merge: x* = (1, 1)
        sys = steady_state_system(running_net)
        rank = jacobian_restricted_rank(sys, (1, 1), (Fraction(1), Fraction(1)))
        assert rank == 0

    def test_rejects_boundary_point(self, running_net):
        sys = steady_state_system(running_net)
        with pytest.raises(ValueError):
            jacobian_restricted_rank(sys, (1, 1), (Fraction(0), Fraction(1)))
