"""Acceptance suite: nine end-to-end criteria with pinned runtime budgets.

Each test exercises one criterion at its stated tolerance, prints one
PASS line on success, and fails loudly otherwise.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from crnregions.classify import MatchedCase, UnsupportedFamilyError, classify, exponent_groups
from crnregions.cli import main as cli_main
from crnregions.connectivity import ProbeConfig, probe
from crnregions.massaction import count_positive_steady_states, steady_state_system
from crnregions.network import Complex, Reaction, ReactionNetwork, parse_network
from crnregions.regions import (
    SymPoly,
    connectivity_verdict,
    membership,
    oracle_sweep,
    region_to_json,
    regions_for_network,
)
from crnregions.unipoly import (
    TrinomialForm,
    descartes_sign_changes,
    sturm_count_positive,
    trinomial_positive_roots,
)

from conftest import (
    GOLDEN,
    NETS,
    discriminant_via_resultant,
    exact_value,
    load,
    trinomial_discriminant,
)

TABLE_NETS = (
    "running",
    "acr",
    "joshi_n2",
    "joshi_n3l1",
    "joshi_n3l2",
    "joshi_n5l4",
    "ex53",
    "eq19",
)


class Budget:
    """Runtime guard that reports one pass line per criterion."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is not None:
            print(f"criterion {self.number} FAIL: {self.label} ({elapsed:.2f}s)")
            return False
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded budget: "
            f"{elapsed:.2f}s >= {self.seconds}s"
        )
        print(
            f"criterion {self.number} PASS: {self.label} "
            f"({elapsed:.2f}s < {self.seconds:g}s)"
        )
        return False


def test_criterion_1_running_example_witness():
    with Budget(1, "running-example witness is exactly {(1/2,2),(2,1/2)}", 1.0):
        result = CliRunner().invoke(
            cli_main,
            ["witness", str(NETS / "running.crn"), "--kappa", "1,1", "--c", "5/2"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["count"] == 2
        assert doc["certified"] is True
        assert sorted(doc["steady_states"]) == [["1/2", "2"], ["2", "1/2"]]


def _single_inequality(region):
    (conj,) = region.conjuncts
    strict = [c for c in conj if len(c.poly.terms) > 1 or c.rel != ">0"]
    assert len(strict) == 1
    return strict[-1]


def _same_up_to_positive_scale(cond, expected: SymPoly, inside_rel: str):
    """cond must match {expected (inside_rel) 0} up to positive rational scale."""
    want = expected.normalized()
    if cond.rel == inside_rel:
        return cond.poly == want
    flipped = {"<0": ">0", ">0": "<0"}.get(inside_rel)
    return cond.rel == flipped and cond.poly == -want


def test_criterion_2_table_reproduction():
    with Budget(2, "all five table inequalities + byte-stable golden JSON", 1.0):
        # c^2 k1 > 4 k2 (enabling region of the running example)
        enabling, _ = regions_for_network(load(NETS / "running.crn"))
        (conj,) = enabling.conjuncts
        main = conj[-1]
        expected = SymPoly(3, {(1, 0, 2): 1, (0, 1, 0): -4})
        assert _same_up_to_positive_scale(main, expected, ">0")

        # k2^2 k5 > 4 k1 k3 k6
        _, allowing = regions_for_network(load(NETS / "acr.crn"))
        cond = _single_inequality(allowing)
        expected = SymPoly(5, {(0, 2, 0, 1, 0): 1, (1, 0, 1, 0, 1): -4})
        assert _same_up_to_positive_scale(cond, expected, ">0")

        # (n-1)^(n-1) k2^n > n^n k1^(n-1) k3 l for the one-species family
        for name, n, ell in (
            ("joshi_n2", 2, 1),
            ("joshi_n3l1", 3, 1),
            ("joshi_n3l2", 3, 2),
            ("joshi_n5l4", 5, 4),
        ):
            _, allowing = regions_for_network(load(NETS / f"{name}.crn"))
            cond = _single_inequality(allowing)
            expected = SymPoly(
                3,
                {
                    (0, n, 0): (n - 1) ** (n - 1),
                    (n - 1, 0, 1): -(n**n) * ell,
                },
            )
            assert _same_up_to_positive_scale(cond, expected, ">0"), name

        # 4 k2^3 > 27 k1^2 k3
        _, allowing = regions_for_network(load(NETS / "ex53.crn"))
        cond = _single_inequality(allowing)
        expected = SymPoly(3, {(0, 3, 0): 4, (2, 0, 1): -27})
        assert _same_up_to_positive_scale(cond, expected, ">0")

        # {k1L > k1R, k2R^2 > 4 (k1L - k1R) k3L}
        _, allowing = regions_for_network(load(NETS / "eq19.crn"))
        (conj,) = allowing.conjuncts
        assert len(conj) == 2
        gap = SymPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
        disc = SymPoly(
            4, {(0, 0, 2, 0): 1, (1, 0, 0, 1): -4, (0, 1, 0, 1): 4}
        )
        assert _same_up_to_positive_scale(conj[0], gap, ">0")
        assert _same_up_to_positive_scale(conj[1], disc, ">0")

        # golden JSON files are byte-stable
        for name in TABLE_NETS + ("prop51",):
            net = load(NETS / f"{name}.crn")
            enabling, allowing = regions_for_network(net)
            doc = {
                "allowing": region_to_json(allowing, connectivity_verdict(allowing)),
                "enabling": region_to_json(enabling, connectivity_verdict(enabling)),
            }
            rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert rendered == (GOLDEN / f"{name}.json").read_text(), name


def test_criterion_3_region_oracle_sweep():
    with Budget(3, "1000-point region/oracle sweep per network, 0 disagreements", 30.0):
        for name in TABLE_NETS + ("prop51",):
            net = load(NETS / f"{name}.crn")
            enabling, _ = regions_for_network(net)
            assert oracle_sweep(net, enabling, 42, 1000) == [], name


def test_criterion_4_trichotomy_vs_sturm():
    with Budget(4, "trichotomy == Sturm on the exhaustive grid + 10000 random", 60.0):
        values = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
        checked = 0
        for n in range(2, 9):
            for k in range(1, n):
                for b in values:
                    for c in values:
                        t = TrinomialForm(n, k, b, c)
                        assert trinomial_positive_roots(t) == sturm_count_positive(
                            t.polynomial()
                        )
                        checked += 1
        assert checked == 700
        rng = random.Random(42)
        for _ in range(10000):
            n = rng.randint(2, 8)
            k = rng.randint(1, n - 1)
            b = Fraction(rng.randint(1, 64), rng.randint(1, 64))
            c = Fraction(rng.randint(1, 64), rng.randint(1, 64))
            t = TrinomialForm(n, k, b, c)
            assert trinomial_positive_roots(t) == sturm_count_positive(t.polynomial())


def test_criterion_5_swan_vs_resultant():
    with Budget(5, "Swan discriminant == Sylvester resultant on 2000 trinomials", 30.0):
        rng = random.Random(42)
        done = 0
        while done < 2000:
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            a = Fraction(rng.randint(-32, 32), rng.randint(1, 8))
            b = Fraction(rng.randint(-32, 32), rng.randint(1, 8))
            if a == 0 or b == 0:
                continue
            done += 1
            coeffs = [Fraction(0)] * (n + 1)
            coeffs[0], coeffs[k], coeffs[n] = b, a, Fraction(1)
            assert trinomial_discriminant(n, k, a, b) == discriminant_via_resultant(coeffs)


def test_criterion_6_connectivity_verdicts():
    with Budget(6, "Connected on the table, Disconnected + probe on the split", 60.0):
        runner = CliRunner()
        for name in TABLE_NETS:
            result = runner.invoke(
                cli_main, ["analyze", str(NETS / f"{name}.crn"), "--no-verify"]
            )
            assert result.exit_code == 0, (name, result.output)
            doc = json.loads(result.output)
            assert doc["allowing_region"]["connectivity"]["value"] == "Connected", name

        prop51 = load(NETS / "prop51.crn")
        result = runner.invoke(
            cli_main, ["analyze", str(NETS / "prop51.crn"), "--no-verify"]
        )
        doc = json.loads(result.output)
        assert doc["allowing_region"]["connectivity"]["value"] == "Disconnected"

        # the two published witnesses, one per sign orthant
        sys_ = steady_state_system(prop51)
        for kappa in ((1, 3, 4, 1, 1, 2), (3, 1, 1, 4, 2, 1)):
            res = count_positive_steady_states(sys_, kappa)
            assert res.count == 2 and res.certified, kappa
        _, allowing = regions_for_network(prop51)
        assert membership(allowing, (1, 3, 4, 1, 1, 2))
        assert membership(allowing, (3, 1, 1, 4, 2, 1))

        report = probe(allowing, ProbeConfig(seed=42, n_samples=4000, box=(0.125, 8.0)))
        assert report.component_count == 2, report

        _, ex53_allowing = regions_for_network(load(NETS / "ex53.crn"))
        report = probe(
            ex53_allowing, ProbeConfig(seed=42, n_samples=4000, box=(0.0625, 16.0))
        )
        assert report.component_count == 1, report

        # the default probe referees every analytic verdict on a nonempty region
        expected = {"Connected": 1, "Disconnected": 2}
        for path in sorted(NETS.glob("*.crn")):
            _, allowing = regions_for_network(load(path))
            if allowing.is_empty:
                continue
            verdict = connectivity_verdict(allowing).value
            report = probe(allowing, ProbeConfig())
            assert report.component_count == expected[verdict], (path.stem, report)


def _one_species_net(pairs):
    rxns = tuple(
        Reaction(Complex((m,)), Complex((p,)), f"k{i + 1}")
        for i, (m, p) in enumerate(pairs)
    )
    return ReactionNetwork(("A",), rxns)


def _two_species_net(entries):
    rxns = tuple(
        Reaction(Complex(y), Complex(yp), f"k{i + 1}")
        for i, (y, yp) in enumerate(entries)
    )
    return ReactionNetwork(("A", "B"), rxns)


def _solve_degenerate_point(enabling):
    """(kappa, kappa_tilde, c) on the degenerate steady-state locus.

    Fixes kappa = 1 and c (0 when the conjunct pins c to 0, else 1), then
    solves the single equality condition, linear in kappa_tilde.
    """
    (conj,) = enabling.conjuncts
    c0 = Fraction(1)
    eq = None
    for cond in conj:
        if cond.rel == "=0" and len(cond.poly.terms) == 1:
            c0 = Fraction(0)  # the {c = 0} pin of case 1
        elif cond.rel == "=0":
            eq = cond
    assert eq is not None
    a = exact_value(eq.poly, (Fraction(1), Fraction(0), c0))
    b = exact_value(eq.poly, (Fraction(1), Fraction(1), c0)) - a
    kt = -a / b
    assert kt > 0
    point = (Fraction(1), kt, c0)
    assert membership(enabling, point)
    return point


# translations applied to every complex of the base nets below
_SHIFTS = ((0, 0), (1, 0), (0, 1), (2, 1))

_ZIGZAG_BASES = {
    1: (((3, 1), (2, 0)), ((0, 2), (1, 3))),
    2: (((1, 3), (0, 2)), ((4, 2), (5, 3))),
    3: (((2, 1), (3, 0)), ((1, 0), (0, 1))),
    4: (((1, 1), (2, 0)), ((2, 2), (1, 3))),
}

_DEGENERATE_BASES = {
    "case 1": (((0, 2), (1, 3)), ((1, 1), (0, 0))),
    "case 2": (((1, 1), (3, 3)), ((1, 1), (0, 0))),
    "case 3": (((1, 1), (1, 2)), ((2, 1), (2, 0))),
    "case 4": (((1, 1), (2, 1)), ((1, 2), (0, 2))),
}

_NON_MULTI = (
    (((1, 0), (2, 1)), ((1, 2), (0, 1))),  # antiparallel, no box pattern
    (((1, 0), (0, 1)), ((1, 0), (2, 1))),  # not antiparallel
    (((1, 0), (2, 0)), ((0, 1), (0, 2))),  # independent axes
    (((1, 0), (2, 0)), ((1, 1), (1, 2))),  # independent axes, coupled rates
    (((2, 0), (1, 1)), ((1, 1), (0, 2))),  # parallel, same direction
    (((1, 1), (2, 0)), ((2, 1), (3, 0))),  # parallel, same direction
    (((1, 1), (2, 2)), ((3, 2), (2, 1))),  # slopes share a sign
    (((2, 1), (3, 2)), ((4, 2), (3, 1))),  # slopes share a sign, shifted
    (((1, 1), (2, 2)), ((3, 1), (2, 0))),  # flat reactant segment
    (((1, 1), (1, 2)), ((2, 2), (2, 1))),  # vertical moves, offset reactants
    (((1, 1), (1, 2)), ((1, 2), (1, 1))),  # shared vertical line
    (((2, 2), (3, 3)), ((3, 3), (2, 2))),  # reversible diagonal
)


def _shift_entries(entries, dx, dy):
    return tuple(
        (tuple((y[0] + dx, y[1] + dy)), tuple((yp[0] + dx, yp[1] + dy)))
        for y, yp in entries
    )


def test_criterion_7_classification_corpus():
    with Budget(7, "exhaustive 1-species corpus + curated 2-species corpus", 120.0):
        # --- one species, exactly 3 reactions, coefficients <= 6 ---
        reactions = [(m, p) for m in range(7) for p in range(7) if p != m]
        multi_count = 0
        sturm_spot = random.Random(7)
        grid = [Fraction(2) ** j for j in (-6, 0, 6)]
        for triple in itertools.combinations(reactions, 3):
            net = _one_species_net(triple)
            verdict = classify(net)
            groups = exponent_groups(net)
            if verdict.multistationary:
                # witness constructor must land 2 oracle-counted roots
                multi_count += 1
                _, allowing = regions_for_network(net)
                witness = next(w for w in allowing.witnesses if w is not None)
                sys_ = steady_state_system(net)
                assert count_positive_steady_states(sys_, witness).count == 2, triple
            else:
                # no kappa grid point can produce 2 roots: either fewer than
                # 3 exponents, or fixed non-alternating coefficient signs;
                # both cap Descartes' bound at 1 for every positive kappa.
                if len(groups) == 3:
                    # three exponents over three reactions: one term each,
                    # so the sign pattern is the same for every kappa
                    assert all(len(steps) == 1 for steps in groups.values())
                    signs = tuple(1 if steps[0][1] > 0 else -1 for steps in groups.values())
                    assert signs not in ((1, -1, 1), (-1, 1, -1)), triple
                if sturm_spot.random() < 0.02:
                    sys_ = steady_state_system(net)
                    for kappa in itertools.product(grid, repeat=3):
                        assert (
                            count_positive_steady_states(sys_, kappa).count <= 1
                        ), (triple, kappa)
        assert multi_count == 798

        # --- two species: >= 30 multistationary nets over all forms/cases ---
        corpus_multi = 0
        for form, base in _ZIGZAG_BASES.items():
            for dx, dy in _SHIFTS:
                net = _two_species_net(_shift_entries(base, dx, dy))
                verdict = classify(net)
                assert verdict.nondegenerate, (form, dx, dy)
                assert verdict.detail == f"form {form}", (form, dx, dy)
                enabling, _ = regions_for_network(net)
                witness = next(w for w in enabling.witnesses if w is not None)
                sys_ = steady_state_system(net)
                res = count_positive_steady_states(
                    sys_, witness[:2], witness[2:]
                )
                assert res.count == 2, (form, dx, dy, witness)
                corpus_multi += 1
        for case, base in _DEGENERATE_BASES.items():
            for dx, dy in _SHIFTS:
                net = _two_species_net(_shift_entries(base, dx, dy))
                verdict = classify(net)
                assert verdict.multistationary and not verdict.nondegenerate
                assert verdict.detail == case, (case, dx, dy)
                enabling, _ = regions_for_network(net)
                point = _solve_degenerate_point(enabling)
                sys_ = steady_state_system(net)
                res = count_positive_steady_states(sys_, point[:2], point[2:])
                assert res.count >= 2, (case, dx, dy, point)
                off = (point[0], point[1] * 2, point[2])
                res_off = count_positive_steady_states(sys_, off[:2], off[2:])
                assert res_off.count <= 1, (case, dx, dy, off)
                # the stored witness lies on the conjunct and is counted too
                ((conj,), (w,)) = enabling.conjuncts, enabling.witnesses
                assert all(cond.holds(w) for cond in conj), (case, dx, dy, w)
                res_w = count_positive_steady_states(sys_, w[:2], w[2:])
                assert res_w.count >= 2, (case, dx, dy, w)
                corpus_multi += 1
        assert corpus_multi >= 30

        # --- >= 10 non-multistationary nets: oracle never sees 2 states ---
        assert len(_NON_MULTI) >= 10
        span = 4 * math.log(2)
        for entries in _NON_MULTI:
            net = _two_species_net(entries)
            verdict = classify(net)
            assert not verdict.multistationary, entries
            enabling, allowing = regions_for_network(net)
            assert enabling.is_empty and allowing.is_empty
            sys_ = steady_state_system(net)
            rng = random.Random(42)
            n_c = sys_.cons.dim
            for _ in range(1000):
                kappa = tuple(
                    Fraction(math.exp(rng.uniform(-span, span))).limit_denominator(
                        10**6
                    )
                    for _ in range(2)
                )
                c = tuple(
                    Fraction(
                        (1 if rng.random() < 0.5 else -1)
                        * math.exp(rng.uniform(-span, span))
                    ).limit_denominator(10**6)
                    for _ in range(n_c)
                )
                res = count_positive_steady_states(sys_, kappa, c)
                assert res.count <= 1, (entries, kappa, c)


def test_criterion_8_full_scale_is_desk_scale():
    with Budget(8, "bundled corpus is already full scale (<=2 species, <=6 reactions)", 5.0):
        for path in sorted(NETS.glob("*.crn")):
            net = load(path)
            assert net.num_species <= 2, path.name
            assert net.num_reactions <= 6, path.name
        # the property-based criteria (3-5, 7) cover the general formulas
        # beyond these instances; nothing here is a scaled-down substitute


def test_criterion_9_one_species_justifications():
    with Budget(9, "justifications on all 59109 one-species nets of 4-6 reactions", 60.0):
        # every reaction between complexes 0, A, ..., 4A
        reactions = [(m, p) for m in range(5) for p in range(5) if p != m]
        refused = 0
        seen = Counter()
        for size in (4, 5, 6):
            for rxns in itertools.combinations(reactions, size):
                net = _one_species_net(rxns)
                try:
                    verdict = classify(net)
                except UnsupportedFamilyError:
                    # more than three exponents: the region is refused too
                    refused += 1
                    continue
                _, allowing = regions_for_network(net)
                assert verdict.multistationary == (not allowing.is_empty), rxns
                conn = connectivity_verdict(allowing)
                seen[conn.justification] += 1
                assert conn.justification != "ProbeOnly", rxns
                split = verdict.matched_case is MatchedCase.ONE_SPECIES_AB
                assert (conn.value == "Disconnected") == split, rxns
                if split:
                    assert size == 6 and len(conn.witnesses) == 2, rxns
                    sys_ = steady_state_system(net)
                    for w in conn.witnesses:
                        assert count_positive_steady_states(sys_, w).count >= 2, (rxns, w)
        assert refused == 40064
        assert seen["OneSignPattern"] == 3568
        assert seen["SignPatternSplit"] == 36
