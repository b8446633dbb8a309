"""One-line mutants of crnregions, each with the test that should kill it.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named mutants only

Each mutant is applied to a fresh copy of the repository in a temporary
directory.  Its named test runs first; if that test passes, the whole suite
runs with -x.  A mutant that passes both survives.  The script prints one
line per mutant and a table of the survivors, and exits 1 if there is a
survivor or an error.  Before any mutant it runs every named test on the
unchanged copy, since a test that already fails would kill every mutant.

A surviving mutant is mended by a test that kills it, or, when no input can
tell it apart (an equivalent mutant), by deleting the code it touches.
tests/test_mutants.py checks that each old text occurs exactly once in its
file and that each named test exists.  Standard library only, apart from
the test dependencies that pytest itself needs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in path
    new: str
    test: str  # pytest node id expected to kill the mutant


UNIPOLY = "src/crnregions/unipoly.py"
REGIONS = "src/crnregions/regions.py"
CONNECTIVITY = "src/crnregions/connectivity.py"

MUTANTS = [
    # the probe's cell list
    Mutant(
        "cell_side_not_widened", CONNECTIVITY,
        "side = radius * (1 + 1e-9 + 1e-15 * reach)", "side = radius",
        "tests/test_connectivity.py::TestBatchedKernels::test_cell_side_is_wider_than_the_radius",
    ),
    Mutant(
        "cell_offset_dropped", CONNECTIVITY,
        "for s in (-1, 0, 1)]", "for s in (0, 1)]",
        "tests/test_connectivity.py::TestBatchedKernels::test_cell_list_holds_every_link_at_the_radius",
    ),
    Mutant(
        "trinomial_as_half_space", CONNECTIVITY,
        "len(c.poly.terms) > 2", "len(c.poly.terms) > 3",
        "tests/test_connectivity.py::TestHalfSpaceShortcut::test_trinomial_gap_is_checkpointed",
    ),
    # connectivity verdicts
    Mutant(
        "negated_match_dropped", REGIONS,
        "or (ci.poly == -cj.poly and ci.rel == cj.rel)", "or False",
        "tests/test_regions.py::TestConnectivity::test_prop51_disconnected_with_witnesses",
    ),
    Mutant(
        "one_negative_at_least", REGIONS,
        "if c < 0) == 1", "if c < 0) >= 1",
        "tests/test_acceptance.py::test_criterion_9_one_species_justifications",
    ),
    # two-species regions and their witnesses
    Mutant(
        "case2_mixed_at_zero", REGIONS,
        "mixed = u1 * u2 > 0", "mixed = u1 * u2 >= 0",
        "tests/test_regions.py::TestTwoSpeciesRegions::test_degenerate_witnesses_in_both_reaction_orders",
    ),
    Mutant(
        "case1_gamma_sign_dropped", "src/crnregions/classify.py",
        "box.gamma is not None and box.gamma > 0", "box.gamma is not None",
        "tests/test_regions.py::TestTwoSpeciesRegions::test_degenerate_witnesses_exhaustive",
    ),
    Mutant(
        "case1_lambda_swapped", REGIONS,
        "lhs = kap * (ln * u1**a2)\n            rhs = kapt * (ld * u2**a2)",
        "lhs = kap * (ld * u1**a2)\n            rhs = kapt * (ln * u2**a2)",
        "tests/test_regions.py::TestTwoSpeciesRegions::test_degenerate_witnesses_in_both_reaction_orders",
    ),
    Mutant(
        "case34_lambda_swapped", REGIONS,
        "poly = kap * c**e * ln - kapt * ld", "poly = kap * c**e * ld - kapt * ln",
        "tests/test_regions.py::TestTwoSpeciesRegions::test_degenerate_witnesses_in_both_reaction_orders",
    ),
    Mutant(
        "scale_bound_12", REGIONS,
        "for _ in range(200):", "for _ in range(12):",
        "tests/test_regions.py::TestAcrReduction::test_witness_after_fifteen_halvings",
    ),
    # parsing and output
    Mutant(
        "coefficient_bound_dropped", "src/crnregions/network.py",
        "if coeff > MAX_COEFF:", "if False:",
        "tests/test_cli.py::TestParseCommand::test_parse_errors_name_their_position",
    ),
    Mutant(
        "int_digits_kept", "src/crnregions/cli.py",
        'if hasattr(sys, "set_int_max_str_digits"):', "if False:",
        "tests/test_cli.py::TestHugeIntegers::test_region_json",
    ),
    # the exact core
    Mutant(
        "split_retry_dropped", UNIPOLY,
        "while _sign_at(work, mid.numerator, mid.denominator) == 0:", "while False:",
        "tests/test_unipoly.py::TestIntegerCore::test_rational_roots_beyond_the_divisor_search",
    ),
    Mutant(
        "midpoint_return_dropped", UNIPOLY,
        "if sm == 0:", "if False:",
        "tests/test_cli.py::TestWitnessCommand::test_rational_state_beyond_the_divisor_search_is_exact",
    ),
    Mutant(
        "refine_start_root_allowed", UNIPOLY,
        "if sa == 0 or _sign_at(sf, bn, den) == 0:", "if _sign_at(sf, bn, den) == 0:",
        "tests/test_unipoly.py::TestIntegerCore::test_refine_rejects_a_root_at_an_end",
    ),
    Mutant(
        "refine_end_root_allowed", UNIPOLY,
        "if sa == 0 or _sign_at(sf, bn, den) == 0:", "if sa == 0:",
        "tests/test_unipoly.py::TestIntegerCore::test_refine_rejects_a_root_at_an_end",
    ),
    Mutant(
        "exact_roots_refined", UNIPOLY,
        "a if a == b else refine_root(p, a, b, squarefree=sf)",
        "refine_root(p, a, b, squarefree=sf)",
        "tests/test_unipoly.py::TestIntegerCore::test_interval_never_holds_zero_root",
    ),
    Mutant(
        "zero_not_kept_out", UNIPOLY,
        "others = rational + ([Fraction(0)] if v else [])", "others = rational",
        "tests/test_unipoly.py::TestIntegerCore::test_interval_never_holds_zero_root",
    ),
    Mutant(
        "descartes_off_zero", UNIPOLY,
        "if b is None and not a:", "if b is None:",
        "tests/test_unipoly.py::TestRootCounting::test_descartes_only_on_the_whole_positive_axis",
    ),
]

_SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"}


def _copy(dest: Path) -> None:
    """The working tree without version control, caches and bench/out."""
    shutil.copytree(
        ROOT, dest,
        ignore=lambda d, names: [
            n for n in names if n in _SKIP or (n == "out" and Path(d).name == "bench")
        ],
    )


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def _first_failure(out: str) -> str:
    return next((line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))), "")


def run(mutant: Mutant, scratch: Path) -> tuple[str, str]:
    """(outcome, detail): outcome is "killed", "survived" or "error"."""
    tree = scratch / mutant.name
    _copy(tree)
    try:
        path = tree / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error", f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        path.write_text(text.replace(mutant.old, mutant.new))
        named = _pytest(tree, mutant.test)
        # 1: a test failed; 2: the mutant broke collection
        if named.returncode in (1, 2):
            return "killed", "named test"
        if named.returncode != 0:
            return "error", f"pytest exit {named.returncode} on {mutant.test}"
        full = _pytest(tree)
        if full.returncode in (1, 2):
            return "killed", _first_failure(full.stdout) or "full suite"
        return "survived", f"pytest exit {full.returncode}"
    finally:
        shutil.rmtree(tree)


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="crnregions-mutants-") as tmp:
        scratch = Path(tmp)
        control = scratch / "control"
        _copy(control)
        result = _pytest(control, *sorted({m.test for m in chosen}))
        shutil.rmtree(control)
        if result.returncode != 0:
            print("a named test fails on the unchanged tree:", file=sys.stderr)
            print(_first_failure(result.stdout) or result.stdout[-2000:], file=sys.stderr)
            return 1
        rows = []
        for m in chosen:
            t0 = time.perf_counter()
            outcome, detail = run(m, scratch)
            rows.append((m, outcome, detail))
            print(f"{m.name:28} {outcome:8} {time.perf_counter() - t0:6.1f} s  {detail}", flush=True)
    bad = [(m, outcome, detail) for m, outcome, detail in rows if outcome != "killed"]
    print(f"\n{len(rows)} mutants, {len(rows) - len(bad)} killed, "
          f"{time.perf_counter() - start:.0f} s")
    if bad:
        print("\nnot killed:")
        for m, outcome, detail in bad:
            print(f"  {m.name:28} {outcome:8} {m.path}: {m.old!r} -> {m.new!r} ({m.test})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
