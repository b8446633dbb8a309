import io
import json
import shlex
import tracemalloc
from contextlib import redirect_stderr
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crnregions import cli, regions
from crnregions.classify import UnsupportedFamilyError
from crnregions.cli import main
from crnregions.massaction import SteadyStateCount

from conftest import ACR, EQ19, EX53, NETS, PROP51, RUNNING, load


FULL_TWO_REACTIONS = "B -> A + B; k1\nA + B -> A + 2B; k2\n"
# the bundled ACR net with 2B -> 3B first, so A is the second coordinate
REORDERED_ACR = "2B -> 3B; k3\nA -> A + B; k1\nA + B -> A; k2\nA -> 2A; k5\n2A -> A; k6\n"


def _refuse(*args):
    raise UnsupportedFamilyError("refused")


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, *args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 0, result.output + str(result.exception)
    return json.loads(result.output)


class TestParseCommand:
    def test_running_example(self, runner):
        doc = run_json(runner, "parse", str(RUNNING))
        assert doc["species"] == ["A", "B"]
        assert doc["n_reactions"] == 2
        assert doc["dim_stoichiometric_subspace"] == 1
        assert doc["conservation_matrix"] == [["1", "1"]]
        assert doc["schema_version"] == 1

    def test_text_format(self, runner):
        result = runner.invoke(main, ["parse", str(RUNNING), "--format", "text"])
        assert result.exit_code == 0
        assert "2 species, 2 reactions" in result.output

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["parse", "/nonexistent.crn"])
        assert result.exit_code == 2

    def test_error_path_keeps_no_stream_alive(self):
        # each call writes its error to a fresh redirected stderr
        def parse_missing():
            with redirect_stderr(io.StringIO()):
                try:
                    main.main(["parse", "/nonexistent.crn"], prog_name="crnregions")
                except SystemExit as exc:
                    assert exc.code == 2

        for _ in range(50):
            parse_missing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                parse_missing()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a stream kept alive per call grows by about 470 bytes each
        assert grown < 64 * 1024

    def test_malformed_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.crn"
        bad.write_text("A -> \n")
        result = runner.invoke(main, ["parse", str(bad)])
        assert result.exit_code == 2


# analyze's classification block per bundled net: (matched_case,
# multistationary, nondegenerate, detail), or None outside the families
# classified
CLASSIFICATIONS = {
    "acr": None,
    "deg_case2": ("NotMulti", False, False, "no feasible alternating sign pattern"),
    "eq19": ("OneSpecies_b", True, True, ""),
    "ex53": ("OneSpecies_b", True, True, ""),
    "joshi_n2": ("OneSpecies_a", True, True, ""),
    "joshi_n3l1": ("OneSpecies_a", True, True, ""),
    "joshi_n3l2": ("OneSpecies_a", True, True, ""),
    "joshi_n5l4": ("OneSpecies_a", True, True, ""),
    "prop51": ("OneSpecies_ab", True, True, ""),
    "running": ("TwoSpecies_zigzag", True, True, "form 3"),
}


class TestAnalyzeCommand:
    def test_classification_table(self, runner):
        assert sorted(CLASSIFICATIONS) == sorted(p.stem for p in NETS.glob("*.crn"))
        for name, expected in CLASSIFICATIONS.items():
            doc = run_json(runner, "analyze", str(NETS / f"{name}.crn"), "--no-verify")
            block = doc["classification"]
            if expected is not None:
                keys = ("matched_case", "multistationary", "nondegenerate", "detail")
                expected = dict(zip(keys, expected))
            assert block == expected, name

    def test_running_example(self, runner):
        doc = run_json(runner, "analyze", str(RUNNING))
        assert doc["multistationary"] is True
        assert doc["classification"]["matched_case"] == "TwoSpecies_zigzag"
        assert doc["self_check"]["disagreements"] == 0
        enabling = doc["enabling_region"]
        assert enabling["ambient"] == ["k1", "k2", "c"]
        assert enabling["connectivity"]["value"] == "Connected"

    def test_acr_network(self, runner):
        doc = run_json(runner, "analyze", str(ACR), "--samples", "50")
        assert doc["multistationary"] is True
        # k2^2 k5 > 4 k1 k3 k6, emitted as 4 k1 k3 k6 - k2^2 k5 < 0
        conds = doc["allowing_region"]["conditions"]
        assert conds == [
            {
                "poly": [[-1, [0, 2, 0, 1, 0]], [4, [1, 0, 1, 0, 1]]],
                "rel": "<0",
            }
        ]
        assert doc["self_check"]["disagreements"] == 0

    def test_prop51_disconnected(self, runner):
        doc = run_json(runner, "analyze", str(PROP51), "--samples", "50")
        allowing = doc["allowing_region"]
        assert len(allowing["conjuncts"]) == 2
        assert "conditions" not in allowing
        conn = allowing["connectivity"]
        assert conn["value"] == "Disconnected"
        assert conn["justification"] == "SignPatternSplit"
        assert len(conn["witnesses"]) == 2

    def test_no_verify_skips_self_check(self, runner):
        doc = run_json(runner, "analyze", str(RUNNING), "--no-verify")
        assert "self_check" not in doc

    def test_unsupported_family_exit_3(self, runner, tmp_path):
        three = tmp_path / "three.crn"
        three.write_text("A + B -> C; k1\nC -> A + B; k2\n")
        result = runner.invoke(main, ["analyze", str(three)])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "text",
        [
            "0 -> A; cat\nA -> 0; k2\n2A -> 3A; k3",
            "2A + B -> 3A; cA\nA -> B; cB",
        ],
    )
    def test_c_labelled_rates(self, runner, tmp_path, text):
        net = tmp_path / "net.crn"
        net.write_text(text)
        doc = run_json(runner, "analyze", str(net))
        assert doc["self_check"]["disagreements"] == 0

    @given(
        labels=st.lists(
            st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
            min_size=3,
            max_size=3,
            unique=True,
        )
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_rate_labels(self, runner, tmp_path, labels):
        net = tmp_path / "net.crn"
        net.write_text(
            "0 -> A; {}\nA -> 0; {}\n2A -> 3A; {}\n".format(*labels)
        )
        result = runner.invoke(main, ["analyze", str(net), "--samples", "20"])
        assert result.exit_code == 0, result.output + repr(result.exception)
        assert json.loads(result.output)["self_check"]["disagreements"] == 0

    def test_full_dimensional_two_reactions(self, runner, tmp_path):
        # no conservation law, so the self-check passes no total constant
        net = tmp_path / "net.crn"
        net.write_text(FULL_TWO_REACTIONS)
        doc = run_json(runner, "analyze", str(net))
        assert doc["multistationary"] is False
        assert doc["enabling_region"]["ambient"] == ["k1", "k2"]
        assert doc["self_check"]["disagreements"] == 0

    def test_reordered_acr_network(self, runner, tmp_path):
        net = tmp_path / "net.crn"
        net.write_text(REORDERED_ACR)
        doc = run_json(runner, "analyze", str(net), "--samples", "200")
        assert doc["self_check"]["disagreements"] == 0

    def test_oracle_refusal_exit_3(self, runner, monkeypatch):
        monkeypatch.setattr(regions, "count_positive_steady_states", _refuse)
        result = runner.invoke(main, ["analyze", str(ACR), "--samples", "5"])
        assert result.exit_code == 3 and "unsupported family" in result.output

    def test_disagreements_name_reproducible_points(self, runner, monkeypatch):
        # an oracle that miscounts every point: the disagreements are exactly
        # the accepted points inside the region
        def miscount(sys_, kappa, c=()):
            return SteadyStateCount(0, list)

        monkeypatch.setattr(regions, "count_positive_steady_states", miscount)
        net = load(RUNNING)
        enabling, _ = regions.regions_for_network(net)
        bad = regions.oracle_sweep(net, enabling, 42, 100)
        result = runner.invoke(main, ["analyze", str(RUNNING)])
        assert result.exit_code == 4
        assert json.loads(result.stdout)["self_check"]["disagreements"] == len(bad) > 3
        lines = result.stderr.splitlines()
        assert lines[0] == f"internal inconsistency: {len(bad)}/100 self-check disagreements"
        assert len(lines) == 4
        monkeypatch.undo()
        for line, point in zip(lines[1:], bad):
            prefix = "  reproduce: crnregions witness "
            assert line.startswith(prefix)
            args = shlex.split(line[len(prefix):])
            assert args == [str(RUNNING), "--kappa", f"{point[0]},{point[1]}", "--c", str(point[2])]
            doc = run_json(runner, "witness", *args)
            assert [Fraction(v) for v in doc["kappa"] + doc["c"]] == list(point)
            assert doc["count"] == 2

    def test_text_format(self, runner):
        result = runner.invoke(
            main, ["analyze", str(EX53), "--format", "text", "--samples", "20"]
        )
        assert result.exit_code == 0
        assert "multistationary: True" in result.output
        assert "self-check: 0 disagreements" in result.output

    @pytest.mark.parametrize(
        "net, line",
        [(EX53, "classification: OneSpecies_b\n"),
         (RUNNING, "classification: TwoSpecies_zigzag (form 3)\n")],
    )
    def test_text_classification_line(self, runner, net, line):
        args = ["analyze", str(net), "--format", "text", "--no-verify"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and line in result.output


class TestRegionCommand:
    def test_allowing_default(self, runner):
        doc = run_json(runner, "region", str(EX53))
        assert doc["kind"] == "allowing"
        assert doc["conditions"] == [
            {"poly": [[-4, [0, 3, 0]], [27, [2, 0, 1]]], "rel": "<0"}
        ]

    def test_enabling_kind(self, runner):
        doc = run_json(runner, "region", str(RUNNING), "--kind", "enabling")
        assert doc["kind"] == "enabling"
        assert doc["ambient"] == ["k1", "k2", "c"]

    def test_eq19_two_conditions(self, runner):
        doc = run_json(runner, "region", str(EQ19))
        assert len(doc["conjuncts"]) == 1
        assert len(doc["conditions"]) == 2

    def test_text_rendering(self, runner):
        result = runner.invoke(main, ["region", str(EX53), "--format", "text"])
        assert result.exit_code == 0
        assert "-4k2^3 +27k1^2k3 < 0" in result.output


class TestWitnessCommand:
    def test_explicit_point(self, runner):
        doc = run_json(
            runner, "witness", str(RUNNING), "--kappa", "1,1", "--c", "5/2"
        )
        assert doc["count"] == 2 and doc["certified"] is True
        assert sorted(doc["steady_states"]) == [["1/2", "2"], ["2", "1/2"]]

    def test_stored_witness(self, runner):
        doc = run_json(runner, "witness", str(EX53))
        assert doc["count"] == 2

    def test_acr_stored_witness(self, runner):
        doc = run_json(runner, "witness", str(ACR))
        assert doc["count"] == 2 and doc["certified"] is True
        assert [x for x, _ in doc["steady_states"]] == ["1", "1"]

    def test_reordered_acr_pins_exactly(self, runner, tmp_path):
        # species order (B, A); x_A = k5/k6 = 1 exactly
        net = tmp_path / "net.crn"
        net.write_text(REORDERED_ACR)
        doc = run_json(runner, "witness", str(net), "--kappa", "1,1,5,1,1")
        assert doc["count"] == 2 and doc["certified"] is True
        assert [xa for _, xa in doc["steady_states"]] == ["1", "1"]

    def test_full_dimensional_two_reactions(self, runner, tmp_path):
        net = tmp_path / "net.crn"
        net.write_text(FULL_TWO_REACTIONS)
        doc = run_json(runner, "witness", str(net), "--kappa", "1,1")
        assert doc["count"] == 0 and doc["steady_states"] == []

    @pytest.mark.parametrize("kappa", ["0,1", "-1,1", "1,-1/2"])
    def test_nonpositive_rates_exit_2(self, runner, kappa):
        result = runner.invoke(
            main, ["witness", str(RUNNING), "--kappa", kappa, "--c", "1"]
        )
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "rate constants must be positive" in result.output

    def test_oracle_refusal_exit_3(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "count_positive_steady_states", _refuse)
        result = runner.invoke(main, ["witness", str(ACR)])
        assert result.exit_code == 3 and "unsupported family" in result.output

    def test_dimension_mismatch_exit_2(self, runner):
        result = runner.invoke(main, ["witness", str(RUNNING), "--kappa", "1,1,1"])
        assert result.exit_code == 2

    def test_text_format(self, runner):
        result = runner.invoke(
            main,
            ["witness", str(RUNNING), "--kappa", "1,1", "--c", "5/2",
             "--format", "text"],
        )
        assert result.exit_code == 0
        assert "positive steady states: 2" in result.output

    @pytest.mark.parametrize(
        "net, kappa, roots",
        [
            # x (1 - x) (x^2 + 2x - 4) / 8, x^3 factored out of the ODE
            (EX53, "1,1,1/8", (5**0.5 - 1, 2.0)),
            # x (x^2 - 3x + 1)
            (EQ19, "2,1,3,1", ((3 - 5**0.5) / 2, (3 + 5**0.5) / 2)),
            # x (x^2 - 3x + 3/2)
            (PROP51, "1,5/2,4,1,1,2", ((3 - 3**0.5) / 2, (3 + 3**0.5) / 2)),
        ],
    )
    def test_root_at_zero_is_not_listed(self, runner, net, kappa, roots):
        doc = run_json(runner, "witness", str(net), "--kappa", kappa)
        assert doc["count"] == 2
        states = sorted(float(Fraction(x)) for (x,) in doc["steady_states"])
        assert states == pytest.approx(roots, rel=1e-10)

    def test_states_near_the_segment_end_are_listed(self, runner):
        # on the class x1 + x2 = 3 the states are x1 = (3 -/+ sqrt 5)/2
        doc = run_json(runner, "witness", str(RUNNING), "--kappa", "1,1", "--c", "3")
        assert doc["count"] == 2
        small, large = (3 - 5**0.5) / 2, (3 + 5**0.5) / 2
        states = sorted(tuple(float(Fraction(v)) for v in w) for w in doc["steady_states"])
        assert states[0] == pytest.approx((small, large), rel=1e-10)
        assert states[1] == pytest.approx((large, small), rel=1e-10)

    def test_one_species_continuum(self, runner, tmp_path):
        net = tmp_path / "flat.crn"
        net.write_text("A -> 0; k1\nA -> 2A; k2\n")
        doc = run_json(runner, "witness", str(net), "--kappa", "1,1")
        assert doc["continuum"] is True
        assert doc["steady_states"] == [["1"], ["2"]]


class TestProbeCommand:
    def test_prop51_two_components(self, runner):
        doc = run_json(
            runner, "probe", str(PROP51), "--box", "1/8:8", "--samples", "4000"
        )
        assert doc["probe"]["component_count"] == 2
        assert doc["analytic_verdict"]["value"] == "Disconnected"

    def test_ex53_one_component(self, runner):
        doc = run_json(runner, "probe", str(EX53), "--samples", "2000")
        assert doc["probe"]["component_count"] == 1
        assert doc["analytic_verdict"]["value"] == "Connected"

    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "components.csv"
        run_json(
            runner, "probe", str(EX53), "--samples", "500", "--csv", str(out)
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("component,size")

    def test_bad_box_rejected(self, runner):
        result = runner.invoke(main, ["probe", str(EX53), "--box", "16:1/16"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args",
        [
            ["--samples", "0"],
            ["--samples", "-5"],
            ["--box", "2:1"],
            ["--box", "0:1"],
            ["--box", "-1:1"],
            ["--box", "1e400:1e401"],
        ],
    )
    def test_bad_parameters_exit_2(self, runner, args):
        result = runner.invoke(main, ["probe", str(RUNNING), *args])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "net, kind", [(PROP51, "allowing"), (RUNNING, "enabling")]
    )
    def test_overflowing_box_exit_2(self, runner, net, kind):
        args = ["probe", str(net), "--kind", kind, "--box", "1e-200:1e200"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "box too wide" in result.output


class TestCountRootsCommand:
    def test_trinomial(self, runner):
        doc = run_json(runner, "count-roots", "--poly", "x^2-3x+2")
        assert doc["descartes_bound"] == 2
        assert doc["sturm"] == 2
        assert doc["trichotomy"] == 2
        assert doc["trinomial_D"] == "-1"

    def test_non_trinomial(self, runner):
        doc = run_json(runner, "count-roots", "--poly", "x^3-2x^2+3x-1")
        assert doc["trichotomy"] is None
        assert doc["sturm"] == doc["descartes_bound"] - 2 or doc["sturm"] >= 0

    def test_rational_coefficients(self, runner):
        doc = run_json(runner, "count-roots", "--poly", "x^2 - 5/2x + 1")
        assert doc["sturm"] == 2

    def test_garbage_rejected(self, runner):
        result = runner.invoke(main, ["count-roots", "--poly", "x^2 ** y"])
        assert result.exit_code != 0

    @given(
        st.lists(st.fractions(-6, 6, max_denominator=5), min_size=1, max_size=6),
        st.fractions(Fraction(1, 9), 9, max_denominator=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_positive_scaling(self, coeffs, k):
        # p and k p have the same roots, signs and normalized trinomial form
        runner = CliRunner()
        docs = []
        for cs in (coeffs, [k * c for c in coeffs]):
            text = "".join(
                f"{'-' if c < 0 else '+'}{abs(c)}x^{e}" for e, c in enumerate(cs) if c
            )
            result = runner.invoke(main, ["count-roots", "--poly", text or "0"])
            if not any(coeffs):
                assert result.exit_code == 2
                continue
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            assert doc.pop("poly") == text
            docs.append(doc)
        assert not docs or docs[0] == docs[1]



_rationals = st.sampled_from(["0", "1", "-1", "2", "1/2", "3/7", "-3", "5"])


def _values(n):
    """Comma-separated rationals, n of them or any number up to 6."""
    return st.one_of(
        st.lists(_rationals, min_size=n, max_size=n),
        st.lists(_rationals, max_size=6),
    ).map(",".join)


@st.composite
def _cases(draw):
    """Network text and command line: one or two species, either listed
    first, one to five reactions with stoichiometric coefficients up to 3,
    and parameter values that include zero, negative and reversed ones."""
    names = draw(st.sampled_from(["A", "AB", "BA"]))
    coeffs = st.tuples(*[st.integers(0, 3)] * len(names))

    def complex_text(cs):
        parts = [f"{c if c > 1 else ''}{s}" for c, s in zip(cs, names) if c]
        return " + ".join(parts) or "0"

    pairs = draw(
        st.lists(
            st.tuples(coeffs, coeffs).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    text = "".join(
        f"{complex_text(y)} -> {complex_text(yp)}; k{i + 1}\n"
        for i, (y, yp) in enumerate(pairs)
    )
    cmd = draw(st.sampled_from(["parse", "analyze", "region", "witness", "probe"]))
    args = [cmd]
    if cmd == "analyze":
        args += ["--samples", str(draw(st.integers(-5, 20))),
                 "--seed", str(draw(st.integers(0, 9)))]
    elif cmd == "region":
        args += ["--kind", draw(st.sampled_from(["allowing", "enabling"]))]
    elif cmd == "witness":
        if draw(st.booleans()):
            args += ["--kappa", draw(_values(len(pairs)))]
        if draw(st.booleans()):
            args += ["--c", draw(_values(1))]
    elif cmd == "probe":
        box = draw(st.sampled_from(["1/16:16", "1/2:2", "1e-200:1e200"]) | st.tuples(_rationals, _rationals).map(":".join))
        args += ["--samples", str(draw(st.integers(-5, 100))),
                 "--box", box, "--seed", str(draw(st.integers(0, 9)))]
    return text, args


class TestFuzz:
    """Every command on small nets and arbitrary parameter values ends with
    a documented exit code and without a traceback."""

    @given(case=_cases())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_documented_exit_codes(self, runner, tmp_path, case):
        text, args = case
        net = tmp_path / "net.crn"
        net.write_text(text)
        result = runner.invoke(main, [args[0], str(net), *args[1:]])
        assert result.exit_code in (0, 2, 3, 4), (text, args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            text, args, repr(result.exception)
        )
