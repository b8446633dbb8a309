import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnregions import regions
from crnregions.classify import (
    Case,
    Family,
    UnsupportedFamilyError,
    build_box_diagram,
    classify,
    exponent_groups,
)
from crnregions.massaction import (
    SteadyStateCount,
    count_positive_steady_states,
    steady_state_system,
)
from crnregions.network import Complex, Reaction, ReactionNetwork, parse_network
from crnregions.regions import (
    Region,
    SignCondition,
    SymPoly,
    _limit_denominator,
    connectivity_verdict,
    cutoff_c_star,
    membership,
    membership_float,
    oracle_sweep,
    project_to_allowing,
    region_acr_reduction,
    region_one_species_net_trinomial,
    region_to_json,
    region_two_species_two_reactions,
    regions_for_network,
)

from conftest import NETS, exact_terms


# the one-species net with a rate label that starts with "c", and the
# running example with its rates relabelled cA, cB
CAT_NET = "0 -> A; cat\nA -> 0; k2\n2A -> 3A; k3"
RUNNING_C_LABELS = "2A + B -> 3A; cA\nA -> B; cB"


def _closed_form(y, yp, yt, ytp):
    """(multistationary, nondegenerate) of a two-species, two-reaction net
    from its complexes alone: antiparallel reaction vectors v, v~ and the
    reactant offset a = y - y~ with p = a1 v1, q = a2 v2 opposite in sign
    (nondegenerate unless a1 + a2 = 0), or both zero (degenerate)."""
    v = (yp[0] - y[0], yp[1] - y[1])
    vt = (ytp[0] - yt[0], ytp[1] - yt[1])
    if v[0] * vt[1] != v[1] * vt[0] or v[0] * vt[0] + v[1] * vt[1] > 0:
        return False, False
    a = (y[0] - yt[0], y[1] - yt[1])
    p, q = a[0] * v[0], a[1] * v[1]
    if p * q < 0:
        return True, a[0] + a[1] != 0
    return p == q == 0, False


def single_condition(region):
    assert len(region.conjuncts) == 1
    (conj,) = region.conjuncts
    assert len(conj) == 1
    return conj[0]


class TestSymPoly:
    def test_normalized_strips_monomial_and_content(self):
        p = SymPoly(2, {(3, 1): 4, (1, 1): -6})
        q = p.normalized()
        assert q.terms == {(2, 0): 2, (0, 0): -3}

    def test_term_values_exact(self):
        p = SymPoly(2, {(2, 0): 1, (0, 1): -4})
        assert list(p.term_values((Fraction(3), Fraction(2)))) == [((), 9), ((), -8)]
        # at (3/2, 2/3) the terms 9/4 and -8/3 come times 2^2 * 3^1
        half = (Fraction(3, 2), Fraction(2, 3))
        assert list(p.term_values(half)) == [((), 27), ((), -32)]
        # x2 = 2/3 alone: 1 * 3 and -4 * 2, keyed by the exponent of x1
        assert list(p.term_values(half[1:], 1)) == [((2,), 3), ((0,), -8)]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_term_values_against_fraction_reference(self, data):
        nsym = data.draw(st.integers(0, 4))
        exps = st.tuples(*[st.integers(0, 3)] * nsym)
        poly = SymPoly(
            nsym, data.draw(st.dictionaries(exps, st.integers(-50, 50), max_size=6))
        )
        first = data.draw(st.integers(0, nsym))
        coords = st.one_of(
            st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=12)
        )
        point = data.draw(
            st.lists(coords, min_size=nsym - first, max_size=nsym - first)
        )
        scale = math.prod(
            v.denominator ** max((e[first + j] for e in poly.terms), default=0)
            for j, v in enumerate(point)
        )
        got = list(poly.term_values(point, first))
        assert all(type(v) is int for _, v in got)
        assert got == [(e, v * scale) for e, v in exact_terms(poly, point, first)]

    def test_evaluate_float_matches_term_loop(self):
        # the compiled terms multiply and add in the order of this loop
        def term_loop(poly, point):
            total = 0.0
            for e, c in poly.terms.items():
                v = float(c)
                for base, exp in zip(point, e):
                    if exp:
                        v *= base**exp
                total += v
            return total

        rng = random.Random(5)
        for _ in range(200):
            nsym = rng.randint(1, 4)
            poly = SymPoly(
                nsym,
                {
                    tuple(rng.randint(0, 3) for _ in range(nsym)): rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 6))
                },
            )
            for _ in range(5):
                point = tuple(rng.uniform(-50.0, 50.0) for _ in range(nsym))
                got = poly.evaluate_float(point).hex()
                assert got == term_loop(poly, point).hex(), (poly, point)

    def test_condition_rejects_zero_poly(self):
        with pytest.raises(ValueError):
            SignCondition(SymPoly(1), "<0")


class TestOneSpeciesRegions:
    def test_joshi_n2(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3")
        _, region = regions_for_network(net)
        cond = single_condition(region)
        # 4 k1 k3 - k2^2 < 0
        assert cond.rel == "<0"
        assert cond.poly.terms == {(1, 0, 1): 4, (0, 2, 0): -1}

    def test_joshi_n3_l2(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2\n3A -> 5A; k3")
        _, region = regions_for_network(net)
        cond = single_condition(region)
        # 27 k1^2 (2 k3) - 2^2 * 1 * k2^3 < 0, normalized by content 2
        assert cond.poly.terms == {(2, 0, 1): 27, (0, 3, 0): -2}

    def test_pattern_b_example(self, ex53_net):
        _, region = regions_for_network(ex53_net)
        cond = single_condition(region)
        # 27 k1^2 k3 - 4 k2^3 < 0
        assert cond.poly.terms == {(2, 0, 1): 27, (0, 3, 0): -4}

    def test_witness_inside_region(self, ex53_net):
        _, region = regions_for_network(ex53_net)
        (witness,) = region.witnesses
        assert witness is not None and membership(region, witness)
        sys = steady_state_system(ex53_net)
        assert count_positive_steady_states(sys, witness).count == 2

    def test_coefficient_forms(self, prop51_net):
        # coefficient of x: -k1L + k1R, of x^2: -k2L + k2R, of x^3: -k3L + k3R
        assert exponent_groups(prop51_net) == {
            1: [(0, -1), (1, 1)],
            2: [(2, -1), (3, 1)],
            3: [(4, -1), (5, 1)],
        }

    def test_net_trinomial_two_conjuncts(self, prop51_net):
        region = region_one_species_net_trinomial(prop51_net)
        assert len(region.conjuncts) == 2
        for conj, witness in zip(region.conjuncts, region.witnesses):
            assert witness is not None
            assert all(cond.holds(witness) for cond in conj)

    def test_binomial_ode_gives_empty_region(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2")
        region = region_one_species_net_trinomial(net)
        assert region.is_empty

    def test_non_multistationary_three_reactions_empty(self):
        net = parse_network("0 -> A; k1\nA -> 2A; k2\n2A -> 3A; k3")
        _, region = regions_for_network(net)
        assert region.is_empty


class TestTwoSpeciesRegions:
    def test_running_example_enabling(self, running_net):
        enabling, allowing = region_two_species_two_reactions(running_net)
        assert enabling.ambient == ("k1", "k2", "c")
        ((c_cond, main),) = enabling.conjuncts
        assert c_cond.poly.terms == {(0, 0, 1): 1} and c_cond.rel == ">0"
        # k1 c^2 - 4 k2 > 0
        assert main.poly.terms == {(1, 0, 2): 1, (0, 1, 0): -4}
        assert main.rel == ">0"
        assert allowing.conjuncts == ((),)

    def test_running_example_witness(self, running_net):
        enabling, _ = region_two_species_two_reactions(running_net)
        (witness,) = enabling.witnesses
        assert membership(enabling, witness)
        sys = steady_state_system(running_net)
        res = count_positive_steady_states(sys, witness[:2], witness[2:])
        assert res.count == 2

    def test_lambda_rescaled_variant(self):
        # doubled stoichiometry scales lambda to 2: k1 c^2 > 2 k2 inside
        net = parse_network("2A + 2B -> 4A; k1\nA + B -> 2B; k2")
        enabling, _ = region_two_species_two_reactions(net)
        ((_, main),) = enabling.conjuncts
        assert main.poly.terms == {(1, 0, 2): 1, (0, 1, 0): -2}

    def test_cutoff_matches_region_boundary(self, running_net):
        cut = cutoff_c_star(build_box_diagram(running_net))
        cstar = cut.evaluate(Fraction(1), Fraction(1))
        enabling, _ = region_two_species_two_reactions(running_net)
        assert membership_float(enabling, (1.0, 1.0, cstar * 1.01))
        assert not membership_float(enabling, (1.0, 1.0, cstar * 0.99))

    def test_cutoff_running_example_value(self, running_net):
        cut = cutoff_c_star(build_box_diagram(running_net))
        assert abs(cut.evaluate(Fraction(1), Fraction(1)) - 2.0) < 1e-12

    def test_degenerate_case2_region(self):
        net = parse_network("A + B -> 3A + 3B; k1\nA + B -> 0; k2")
        enabling, allowing = region_two_species_two_reactions(net)
        ((eq,),) = enabling.conjuncts
        assert eq.rel == "=0"
        assert membership(enabling, (Fraction(1), Fraction(2), Fraction(7)))
        # a mixed-sign law (x1 - x2 = c) meets the orthant for every c
        assert membership(enabling, (Fraction(1), Fraction(2), Fraction(-1)))
        assert not membership(enabling, (Fraction(1), Fraction(3), Fraction(7)))
        assert membership(allowing, (Fraction(1), Fraction(2)))

    def test_degenerate_case2_needs_a_nonempty_class(self):
        # x1 + x2 = c: the steady-state continuum needs c > 0
        net = parse_network("A + B -> 2A; k1\nA + B -> 2B; k2")
        enabling, allowing = region_two_species_two_reactions(net)
        sys = steady_state_system(net)
        for c in (-1, 0):
            assert not membership(enabling, (1, 1, c))
            assert count_positive_steady_states(sys, (1, 1), (c,)).count == 0
        assert membership(enabling, (1, 1, 1))
        assert count_positive_steady_states(sys, (1, 1), (1,)).count == 2
        assert membership(allowing, (1, 1))

    def test_degenerate_witnesses_exhaustive(self):
        # every two-species, two-reaction net with coefficients <= 3: the
        # classifier agrees with the closed form, and the oracle counts two
        # or more states at the stored witness of every multistationary net
        cpx = list(itertools.product(range(4), repeat=2))
        rxns = [(y, yp) for y in cpx for yp in cpx if y != yp]
        seen = Counter()
        for pair in itertools.combinations(rxns, 2):
            if not all(any(y[j] or yp[j] for y, yp in pair) for j in (0, 1)):
                continue
            net = ReactionNetwork(
                ("A", "B"),
                tuple(
                    Reaction(Complex(y), Complex(yp), f"k{i}") for i, (y, yp) in enumerate(pair)
                ),
            )
            verdict = classify(net)
            expected = _closed_form(*pair[0], *pair[1])
            assert (verdict.multistationary, verdict.nondegenerate) == expected, pair
            seen[expected] += 1
            if not verdict.multistationary:
                continue
            enabling, _ = region_two_species_two_reactions(net)
            ((conj,), (w,)) = enabling.conjuncts, enabling.witnesses
            assert all(cond.holds(w) for cond in conj), (pair, w)
            sys = steady_state_system(net)
            assert count_positive_steady_states(sys, w[:2], w[2:]).count >= 2, (pair, w)
            if verdict.nondegenerate:
                continue
            seen[verdict.detail] += 1
            if verdict.detail == "case 2":
                # below the witness's class: inside exactly when the oracle sees states
                low = (w[0], w[1], Fraction(-1))
                counted = count_positive_steady_states(sys, low[:2], low[2:]).count
                assert membership(enabling, low) == (counted >= 2), pair
        assert seen == {
            (False, False): 28372,
            (True, False): 140,
            (True, True): 36,
            "case 1": 8,
            "case 2": 36,
            "case 3": 48,
            "case 4": 48,
        }

    def test_degenerate_case3_matches_oracle(self):
        net = parse_network("A + B -> A + 2B; k1\n2A + B -> 2A; k2")
        enabling, _ = region_two_species_two_reactions(net)
        sys = steady_state_system(net)
        for kap in [(1, 2), (3, 1), (2, 2)]:
            # the continuum class is c = k1/k2 (class fixes x1)
            c_on = Fraction(kap[0], kap[1])
            assert membership(enabling, (*kap, c_on))
            assert count_positive_steady_states(sys, kap, (c_on,)).count == 2
            assert not membership(enabling, (*kap, c_on + 1))
            assert count_positive_steady_states(sys, kap, (c_on + 1,)).count <= 1

    # the float tangency guess put these witnesses on or past the boundary
    @pytest.mark.parametrize(
        "text",
        [
            "A + 2B -> 3A + 3B; k1\n3A + B -> A; k2",
            "2A + 3B <- 2B; k1\n2A + B -> 0; k2",
            "3A + 3B <- 2B; k1\n3A + B -> 0; k2",
        ],
    )
    def test_nondegenerate_witness_is_inside(self, text):
        net = parse_network(text)
        enabling, _ = region_two_species_two_reactions(net)
        (w,) = enabling.witnesses
        assert membership(enabling, w)
        res = count_positive_steady_states(steady_state_system(net), w[:2], w[2:])
        assert res.count >= 2

    def test_full_dimensional_has_no_total_constant(self):
        # independent reaction vectors: no conservation law and no c
        net = parse_network("B -> A + B; k1\nA + B -> A + 2B; k2")
        enabling, allowing = region_two_species_two_reactions(net)
        assert enabling.totals == 0 and enabling.ambient == ("k1", "k2")
        assert enabling.is_empty and allowing.ambient == ("k1", "k2")
        assert oracle_sweep(net, enabling, seed=1, samples=20) == []

    def test_not_multistationary_gives_empty_pair(self):
        net = parse_network("A -> B; k1\nA -> 2A + B; k2")
        enabling, allowing = region_two_species_two_reactions(net)
        assert enabling.is_empty and allowing.is_empty


class TestAcrReduction:
    def test_acr_region(self, acr_net):
        region = region_acr_reduction(acr_net)
        cond = single_condition(region)
        # k2^2 k5 - 4 k1 k3 k6 > 0 inside, emitted as < 0 form
        assert cond.rel == "<0"
        assert cond.poly.terms == {(1, 0, 1, 0, 1): 4, (0, 2, 0, 1, 0): -1}

    def test_acr_region_against_oracle(self, acr_net):
        region = region_acr_reduction(acr_net)
        sys = steady_state_system(acr_net)
        assert membership(region, (1, 5, 1, 1, 1))
        assert count_positive_steady_states(sys, (1, 5, 1, 1, 1)).count == 2
        assert not membership(region, (1, 1, 1, 1, 1))
        assert count_positive_steady_states(sys, (1, 1, 1, 1, 1)).count <= 1

    @pytest.mark.parametrize("reordered", [False, True])
    def test_acr_witness_is_inside(self, acr_net, reordered):
        net = acr_net
        if reordered:
            net = parse_network(
                "2B -> 3B; k3\nA -> A + B; k1\nA + B -> A; k2\nA -> 2A; k5\n2A -> A; k6"
            )
        region = region_acr_reduction(net)
        (w,) = region.witnesses
        assert all(isinstance(v, Fraction) and v > 0 for v in w)
        assert membership(region, w)
        assert count_positive_steady_states(steady_state_system(net), w).count == 2

    def test_non_acr_shape_raises(self, running_net):
        with pytest.raises(UnsupportedFamilyError):
            region_acr_reduction(running_net)


class TestDispatchAndProjection:
    def test_one_species_dispatch(self, prop51_net):
        enabling, allowing = regions_for_network(prop51_net)
        assert enabling.kind == "enabling" and allowing.kind == "allowing"
        assert enabling.conjuncts == allowing.conjuncts

    def test_three_species_unsupported(self):
        net = parse_network("A + B -> C; k1\nC -> A + B; k2")
        with pytest.raises(UnsupportedFamilyError):
            regions_for_network(net)

    def test_projection_nondegenerate_is_full_orthant(self, running_net):
        enabling, allowing = regions_for_network(running_net)
        proj = project_to_allowing(enabling)
        assert proj.conjuncts == allowing.conjuncts == ((),)

    def test_projection_case2_keeps_rate_condition(self):
        net = parse_network("A + B -> 3A + 3B; k1\nA + B -> 0; k2")
        enabling, allowing = regions_for_network(net)
        proj = project_to_allowing(enabling)
        assert proj.conjuncts == allowing.conjuncts

    def test_projection_of_allowing_is_identity(self, acr_net):
        _, allowing = regions_for_network(acr_net)
        assert project_to_allowing(allowing) is allowing

    def test_totals_are_region_data(self, running_net, ex53_net):
        enabling, allowing = regions_for_network(running_net)
        assert (enabling.totals, allowing.totals) == (1, 0)
        assert all(r.totals == 0 for r in regions_for_network(ex53_net))

    @pytest.mark.parametrize("text", [CAT_NET, RUNNING_C_LABELS])
    def test_projection_ignores_label_names(self, text):
        enabling, allowing = regions_for_network(parse_network(text))
        assert project_to_allowing(enabling) == allowing
        assert allowing.ambient == parse_network(text).rate_labels


class TestConnectivity:
    def test_single_negative_coefficient_rule(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        v = connectivity_verdict(allowing)
        assert v.value == "Connected"
        assert v.justification == "FeliuTelek_one_negative"

    def test_full_orthant_connected(self, running_net):
        _, allowing = regions_for_network(running_net)
        v = connectivity_verdict(allowing)
        assert v.value == "Connected"

    def test_prop51_disconnected_with_witnesses(self, prop51_net):
        _, allowing = regions_for_network(prop51_net)
        v = connectivity_verdict(allowing)
        assert v.value == "Disconnected"
        assert v.justification == "SignPatternSplit"
        assert len(v.witnesses) == 2
        for w in v.witnesses:
            assert membership(allowing, w)

    @pytest.mark.parametrize("extra", [0, 1], ids=["one_condition", "acr_last_condition"])
    def test_one_negative_rule_needs_the_positive_orthant(self, extra):
        # k1 c - k2 < 0 has one negative coefficient, but c may be negative;
        # alone it meets the generic rule, after k1 > 0 the acr_reduction one
        k1, k2, c = (SymPoly.symbol(3, i) for i in range(3))
        cond = SignCondition(k1 * c - k2, "<0")
        conj = (SignCondition(k1, ">0"),) * extra + (cond,)
        ambient = ("k1", "k2", "c")
        for totals in (0, 1):
            region = Region(
                "enabling", ambient, (conj,), Case(Family.ACR_REDUCTION), totals=totals
            )
            v = connectivity_verdict(region)
            assert (v.justification == "FeliuTelek_one_negative") == (totals == 0)
            assert totals == 0 or v.value == "Unknown"

    def test_empty_region_connected(self):
        net = parse_network("0 -> A; k1\nA -> 0; k2")
        _, allowing = regions_for_network(net)
        assert connectivity_verdict(allowing).value == "Connected"


class TestSerialization:
    def test_region_json_shape(self, running_net):
        enabling, _ = regions_for_network(running_net)
        doc = region_to_json(enabling, connectivity_verdict(enabling))
        json.dumps(doc)  # serializable
        assert doc["kind"] == "enabling"
        assert doc["ambient"] == ["k1", "k2", "c"]
        assert doc["conditions"] == doc["conjuncts"][0]
        assert doc["connectivity"]["value"] == "Connected"

    def test_json_deterministic(self, prop51_net):
        _, allowing = regions_for_network(prop51_net)
        a = json.dumps(region_to_json(allowing), sort_keys=True)
        b = json.dumps(region_to_json(allowing), sort_keys=True)
        assert a == b
        assert "conditions" not in json.loads(a)


def _fraction_sweep(enabling, seed, samples):
    """The self-check's sampler, boundary filter and membership test as they
    ran on Fractions before the integer sweep: (point, inside) per accepted
    point."""
    rng = random.Random(seed)
    n = len(enabling.ambient) - enabling.totals
    out = []
    while len(out) < samples:
        pt = []
        for i in range(len(enabling.ambient)):
            mag = Fraction(math.exp(rng.uniform(-6 * math.log(2), 6 * math.log(2))))
            if i >= n and rng.random() < 0.5:
                mag = -mag
            pt.append(mag.limit_denominator(10**9))
        if not _near_boundary(enabling, pt):
            out.append((tuple(pt), membership(enabling, pt)))
    return out


def _near_boundary(region, pt, rel=1e-6):
    for conj in region.conjuncts:
        for cond in conj:
            terms = []
            for exps, c in cond.poly.terms.items():
                t = Fraction(c)
                for base, e in zip(pt, exps):
                    if e:
                        t *= base**e
                terms.append(t)
            scale = sum(abs(t) for t in terms)
            if scale != 0 and abs(sum(terms)) < rel * scale:
                return True
    return False


class TestIntegerSweep:
    @given(
        st.one_of(
            st.floats(min_value=2**-6, max_value=2**6),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(2**20), 2**20).map(lambda k: k / 64),
        ),
        st.one_of(st.integers(1, 100), st.sampled_from([10**6, 10**9]), st.integers(1, 2**60)),
    )
    @settings(max_examples=500)
    def test_limit_denominator_matches_fraction(self, x, max_den):
        want = Fraction(x).limit_denominator(max_den)
        assert _limit_denominator(x, max_den) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("path", sorted(NETS.glob("*.crn")), ids=lambda p: p.stem)
    def test_same_points_and_memberships_as_fraction_sweep(self, path, monkeypatch):
        # an oracle that records its points and counts 0 everywhere: the
        # disagreements are then exactly the accepted points inside the region
        seen = []

        def record(sys_, kappa, c=()):
            seen.append(tuple(kappa) + tuple(c))
            return SteadyStateCount(0, list)

        monkeypatch.setattr(regions, "count_positive_steady_states", record)
        net = parse_network(path.read_text())
        enabling, _ = regions_for_network(net)
        for seed in range(5):
            seen.clear()
            bad = oracle_sweep(net, enabling, seed, 200)
            want = _fraction_sweep(enabling, seed, 200)
            assert seen == [pt for pt, _ in want]
            assert bad == [pt for pt, inside in want if inside]

    def test_boundary_rule_is_exact(self, monkeypatch):
        # k1 - k2 > 0 at integer points drawn in this order: 10^6 |value|
        # equals the sum of the terms' magnitudes at the first point, which
        # is kept; it is below it at the second, which is redrawn
        draws = iter([10**6 + 1, 10**6 - 1, 2 * 10**6 + 1, 2 * 10**6 - 1, 3, 1])
        monkeypatch.setattr(regions, "_limit_denominator", lambda x, m: (next(draws), 1))
        seen = []

        def record(sys_, kappa, c=()):
            seen.append(tuple(kappa))
            return SteadyStateCount(0, list)

        monkeypatch.setattr(regions, "count_positive_steady_states", record)
        cond = SignCondition(SymPoly(2, {(1, 0): 1, (0, 1): -1}), ">0")
        region = Region("allowing", ("k1", "k2"), ((cond,),), "test")
        net = parse_network("0 -> A; k1\nA -> 0; k2")
        assert oracle_sweep(net, region, 0, 2) == seen == [(10**6 + 1, 10**6 - 1), (3, 1)]
