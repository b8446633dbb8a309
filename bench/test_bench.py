"""Tests of the benchmark itself: every workload at a small size, and every
checker against deliberately corrupted outputs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return workloads.Program(ROOT)


def run_ops(wl, ops):
    return [(op, wl.check(op, wl.run(op))) for op in ops]


def statuses(results):
    return {(getattr(op, "net", ""), v.status) for op, v in results}


# -- every workload at a small size ---------------------------------------


def test_analyze_small(prog):
    wl = workloads.Analyze(prog, ROOT, seed=3)
    assert len(wl.round(0)) == 9
    ops = [op for op in wl.round(0) if op.net in ("running", "joshi_n2")]
    assert statuses(run_ops(wl, ops)) == {("running", "ok"), ("joshi_n2", "ok")}


def test_witness_small(prog):
    wl = workloads.Witness(prog, ROOT, seed=3)
    seeded = [op for op in wl.round(0) if op.net in workloads.SEEDED_NETS]
    assert len(seeded) == len(workloads.SEEDED_NETS) * workloads.WITNESS_POINTS_PER_NET
    fixed = wl.round(0)[len(seeded):]
    results = run_ops(wl, seeded[::10] + fixed)
    assert [v.status for _, v in results[:5]] == ["ok"] * 5
    # running at c = 5/2 and the paper's prop51 witnesses pass; the others
    # hit the two witness faults
    assert [v.status for _, v in results[5:]] == [
        "ok", "fault", "fault", "fault", "fault", "ok", "ok",
    ]


def test_witness_points_are_seeded(prog):
    a = workloads.Witness(prog, ROOT, seed=3).round(0)
    b = workloads.Witness(prog, ROOT, seed=3).round(0)
    c = workloads.Witness(prog, ROOT, seed=4).round(0)
    assert a == b and a != c


def test_probe_small(prog):
    wl = workloads.Probe(prog, ROOT, seed=3)
    ops = [op for op in wl.round(0) if op.net in ("running", "prop51")]
    assert statuses(run_ops(wl, ops)) == {("running", "ok"), ("prop51", "ok")}


def test_corpus_small(prog):
    wl = workloads.Corpus(prog, ROOT, seed=3)
    assert len(wl.nets) == 11480 + 28548
    one = [n for n in wl.nets if len(n.reactions[0][0]) == 1]
    assert sum(
        checks.one_species_multistationary([(y[0], yp[0]) for y, yp in n.reactions])
        for n in one
    ) == 798
    faulty = "A + 2B -> 3A + 3B; k1\n3A + B -> A; k2"
    sample = wl.nets[:300] + [n for n in wl.nets if n.text == faulty]
    results = run_ops(wl, sample)
    assert [v.status for _, v in results[:-1]] == ["ok"] * 300
    assert results[-1][1].status == "fault"


def test_corpus_species_order(prog):
    for net in workloads.corpus_nets()[11480:]:
        assert prog.cr.parse_network(net.text).species_names == ("A", "B"), net.text


def test_runner_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "witness", "--seed", "2",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 57 == result["attempted"] * 4
    assert set(result["metrics"]) == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mib",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_fails_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- checkers reject corrupted outputs ------------------------------------


def analyze_doc(prog, name):
    wl = workloads.Analyze(prog, ROOT, seed=1)
    op = next(op for op in wl.round(0) if op.net == name)
    code, text = wl.run(workloads.CliOp(name, op.args + ("--samples", "5")))
    assert code == 0
    return json.loads(text)


def test_analyze_checker(prog):
    doc = analyze_doc(prog, "prop51")
    assert checks.check_analyze("prop51", 0, doc).status == "ok"
    bad = copy.deepcopy(doc)
    bad["allowing_region"]["connectivity"]["value"] = "Connected"  # wrong verdict
    assert checks.check_analyze("prop51", 0, bad).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["self_check"]["disagreements"] = 1
    assert checks.check_analyze("prop51", 4, bad).status == "wrong"
    assert checks.check_analyze("prop51", 3, None).status == "fault"

    doc = analyze_doc(prog, "ex53")
    assert checks.check_analyze("ex53", 0, doc).status == "ok"
    bad = copy.deepcopy(doc)
    bad["allowing_region"]["conjuncts"][0][-1]["poly"][0][0] += 1  # wrong inequality
    assert checks.check_analyze("ex53", 0, bad).status == "wrong"


def witness_doc(prog, net, kappa, c=()):
    args = ["witness", str(ROOT / "tests" / "nets" / f"{net}.crn"), "--kappa", kappa]
    if c:
        args += ["--c", c]
    code, text = prog.invoke(args)
    assert code == 0
    return json.loads(text)


def test_witness_checker_running(prog):
    net = checks.parse_crn((ROOT / "tests" / "nets" / "running.crn").read_text())
    kappa, c = (Fraction(1), Fraction(1)), (Fraction(5, 2),)
    doc = witness_doc(prog, "running", "1,1", "5/2")
    exact = checks.RUNNING_EXAMPLE
    assert checks.check_witness(net, kappa, c, doc, exact).status == "ok"
    bad = copy.deepcopy(doc)
    bad["count"] = 3  # wrong count, above the Descartes bound
    assert checks.check_witness(net, kappa, c, bad, exact).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["steady_states"][0] = ["1", "3/2"]  # on the class, not a steady state
    assert checks.check_witness(net, kappa, c, bad, exact).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["steady_states"][0] = ["1", "2"]  # off the conservation law
    assert checks.check_witness(net, kappa, c, bad, exact).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["count"] = 1
    bad["steady_states"].pop()
    assert checks.check_witness(net, kappa, c, bad, exact).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["steady_states"].pop()  # a missing state
    assert checks.check_witness(net, kappa, c, bad, exact).status == "fault"


def test_witness_checker_refined_roots(prog):
    net = checks.parse_crn((ROOT / "tests" / "nets" / "acr.crn").read_text())
    kappa = (Fraction(1), Fraction(3), Fraction(1), Fraction(2), Fraction(1))
    doc = witness_doc(prog, "acr", "1,3,1,2,1")
    assert doc["count"] == 2
    assert checks.check_witness(net, kappa, (), doc).status == "ok"
    bad = copy.deepcopy(doc)
    x1, x2 = (Fraction(v) for v in bad["steady_states"][0])
    bad["steady_states"][0] = [str(x1), str(x2 * (1 + Fraction(1, 10**6)))]
    assert checks.check_witness(net, kappa, (), bad).status == "wrong"


def test_probe_checker(prog):
    wl = workloads.Probe(prog, ROOT, seed=1)
    op = next(op for op in wl.round(0) if op.net == "prop51")
    code, text = wl.run(op)
    doc = json.loads(text)
    member = wl.member["prop51"]
    assert checks.check_probe("prop51", doc, member).status == "ok"
    bad = copy.deepcopy(doc)
    bad["probe"]["component_count"] = 1  # wrong verdict
    assert checks.check_probe("prop51", bad, member).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["probe"]["component_sizes"][0] += 1
    assert checks.check_probe("prop51", bad, member).status == "wrong"
    bad = copy.deepcopy(doc)
    bad["probe"]["component_representatives"][0] = [1.0] * 6  # outside the region
    assert checks.check_probe("prop51", bad, member).status == "wrong"


def test_corpus_checker(prog):
    wl = workloads.Corpus(prog, ROOT, seed=1)
    item = next(n for n in wl.nets if n.text == "0 -> A; k1\nA -> 0; k2\n2A -> 3A; k3")
    verdict, enabling, docs = wl.run(item)
    assert wl.check(item, (verdict, enabling, docs)).status == "ok"
    flipped = type(verdict)(False, False, verdict.matched_case)  # wrong verdict
    assert wl.check(item, (flipped, enabling, docs)).status == "wrong"
    empty = copy.deepcopy(docs)
    empty[0]["conjuncts"] = []
    assert wl.check(item, (flipped, enabling, empty)).status == "wrong"
    moved = type(enabling)(
        enabling.kind, enabling.ambient, enabling.conjuncts, enabling.case_tag,
        ((Fraction(1), Fraction(1), Fraction(1)),),  # a witness outside the region
    )
    assert wl.check(item, (verdict, moved, docs)).status == "fault"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "witness", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_witness_checker_small_root(prog):
    # refine_root bisects to an absolute width of 1e-12 below 1, so the
    # state near 1e-6 is off by up to 5e-7 relative and must still pass
    net = checks.parse_crn((ROOT / "tests" / "nets" / "joshi_n2.crn").read_text())
    kappa = (Fraction(1, 10**6), Fraction(1), Fraction(1))
    doc = witness_doc(prog, "joshi_n2", "1/1000000,1,1")
    assert doc["count"] == 2 and min(Fraction(s[0]) for s in doc["steady_states"]) < Fraction(1, 10**5)
    assert checks.check_witness(net, kappa, (), doc).status == "ok"
