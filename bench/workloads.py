"""The four workloads: analyze, witness, probe and corpus.

Each workload is built from the program and the run's seed (that build is
the set-up the benchmark times), hands out one round of operations per
pass, runs one operation, and checks its output with the independent
checks.  Every round of a workload holds the same operations, so a fault
that fails on fixed inputs fails the same share of every run.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks


class Program:
    """crnregions imported from the source tree under root/src."""

    def __init__(self, root: Path) -> None:
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        self.cr = importlib.import_module("crnregions")
        if Path(self.cr.__file__).resolve().parent != (root / "src" / "crnregions").resolve():
            raise ImportError(f"crnregions was imported from {self.cr.__file__}")
        self.cli = importlib.import_module("crnregions.cli").main
        self.regions = importlib.import_module("crnregions.regions")

    def invoke(self, args: list[str]) -> tuple[int | None, str]:
        """Run the console command in process; returns (exit code, stdout)."""
        out = io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                self.cli.main(args, prog_name="crnregions")
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def forget() -> None:
        """Drop crnregions and click from the import cache, so the next
        Program pays the whole import again."""
        for name in list(sys.modules):
            if name.split(".")[0] in ("crnregions", "click"):
                del sys.modules[name]


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _nets(root: Path) -> dict[str, Path]:
    return {p.stem: p for p in sorted((root / "tests" / "nets").glob("*.crn"))}


SPAN = 6 * math.log(2)


def sample_point(rng: random.Random, n_rates: int, n_totals: int) -> tuple[Fraction, ...]:
    """The self-check's sampler: log-uniform magnitudes in [2^-6, 2^6],
    totals of either sign."""
    pt = []
    for i in range(n_rates + n_totals):
        mag = Fraction(math.exp(rng.uniform(-SPAN, SPAN)))
        if i >= n_rates and rng.random() < 0.5:
            mag = -mag
        pt.append(mag.limit_denominator(10**9))
    return tuple(pt)


def near_boundary(region_doc: dict, pt, rel=Fraction(1, 10**6)) -> bool:
    """The self-check's rejection rule: some condition is within rel of 0,
    relative to the sum of its terms' magnitudes."""
    for conj in region_doc["conjuncts"]:
        for cond in conj:
            scale = sum(
                abs(checks.eval_condition({"poly": [term]}, pt)) for term in cond["poly"]
            )
            if scale and abs(checks.eval_condition(cond, pt)) < rel * scale:
                return True
    return False


class Workload:
    name = ""
    warmup = 1  # operations of an untimed round run before timing
    trace_rounds = 1  # rounds in a traced run, so its counts repeat exactly

    def round(self, p: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> checks.Verdict:
        raise NotImplementedError

    def states_listed(self, out) -> int:
        """Refined or exact roots that reached the operation's output."""
        return 0


@dataclass(frozen=True)
class CliOp:
    net: str
    args: tuple[str, ...]


# deg_case2 (empty region, 20 ms) is left out: with ten nets the median
# latency falls between the fifth and sixth slowest nets, about 20 % apart,
# and jumps between them from run to run; with nine it falls inside one.
ANALYZE_SKIPPED = ("deg_case2",)


class Analyze(Workload):
    """`crnregions analyze` with its default 100-point self-check on the
    bundled nets; the self-check seed changes from pass to pass."""

    name = "analyze"

    def __init__(self, prog: Program, root: Path, seed: int) -> None:
        self.prog = prog
        self.seed = seed
        self.nets = {
            name: str(path) for name, path in _nets(root).items() if name not in ANALYZE_SKIPPED
        }

    def round(self, p: int) -> list[CliOp]:
        rng = random.Random(f"analyze:{self.seed}:{p}")
        return [
            CliOp(name, ("analyze", path, "--seed", str(rng.randrange(2**31))))
            for name, path in self.nets.items()
        ]

    def run(self, op: CliOp):
        return self.prog.invoke(list(op.args))

    def check(self, op: CliOp, out) -> checks.Verdict:
        code, text = out
        return checks.check_analyze(op.net, code, _json(text))


@dataclass(frozen=True)
class WitnessOp:
    net: str
    args: tuple[str, ...]
    kappa: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    exact: frozenset | None = None


def _fixed(*values):
    return tuple(Fraction(v) for v in values)


# Points that do not depend on the seed: (net, kappa, c, exact states).
# The running example at c = 5/2 has the states (1/2, 2) and (2, 1/2); at
# c = 3 the program lists fewer states than it counts, because
# massaction._count_on_line drops isolating intervals whose midpoint leaves
# the segment.  ex53, eq19 and prop51 have a steady state at 0, and where
# their smallest positive state is irrational the program lists 0 in its
# place, because refine_root returns the isolating interval's endpoint 0.
# Both faults count as failed operations; the paper's two prop51 witnesses
# have rational states and pass.
FIXED_POINTS = (
    ("running", _fixed(1, 1), _fixed("5/2"), frozenset(checks.RUNNING_EXAMPLE)),
    ("running", _fixed(1, 1), _fixed(3), None),
    ("ex53", _fixed(1, 1, "1/8"), (), None),
    ("eq19", _fixed(2, 1, 3, 1), (), None),
    ("prop51", _fixed(1, "5/2", 4, 1, 1, 2), (), None),
    ("prop51", _fixed(1, 3, 4, 1, 1, 2), (), None),
    ("prop51", _fixed(3, 1, 1, 4, 2, 1), (), None),
)
SEEDED_NETS = ("acr", "joshi_n2", "joshi_n3l1", "joshi_n3l2", "joshi_n5l4")
WITNESS_POINTS_PER_NET = 10


class Witness(Workload):
    """`crnregions witness --kappa ... --c ...` at seeded points inside the
    enabling regions of the nets in SEEDED_NETS and at FIXED_POINTS, which
    together cover every bundled net whose enabling region is nonempty."""

    name = "witness"
    warmup = 20
    trace_rounds = 3

    def __init__(self, prog: Program, root: Path, seed: int) -> None:
        self.prog = prog
        self.ops: list[WitnessOp] = []
        paths = _nets(root)
        self.nets = {name: checks.parse_crn(path.read_text()) for name, path in paths.items()}
        regions = {}
        for name in SEEDED_NETS + tuple(p[0] for p in FIXED_POINTS):
            net = prog.cr.parse_network(paths[name].read_text())
            regions[name] = prog.cr.region_to_json(prog.cr.regions_for_network(net)[0])

        def inside(name, pt):
            doc = regions[name]
            return checks.inside(doc, pt) and not near_boundary(doc, pt)

        for name in SEEDED_NETS:
            n_rates = len(self.nets[name].reactions)
            n_totals = len(regions[name]["ambient"]) - n_rates
            rng = random.Random(f"witness:{seed}:{name}")
            found = 0
            while found < WITNESS_POINTS_PER_NET:
                pt = sample_point(rng, n_rates, n_totals)
                if inside(name, pt):
                    found += 1
                    self.ops.append(self._op(name, paths[name], pt[:n_rates], pt[n_rates:]))
        for name, kappa, c, exact in FIXED_POINTS:
            if not inside(name, kappa + c):
                raise ValueError(f"fixed point {kappa}, {c} is not inside the region of {name}")
            self.ops.append(self._op(name, paths[name], kappa, c, exact))

    @staticmethod
    def _op(name, path, kappa, c, exact=None) -> WitnessOp:
        args = ["witness", str(path), "--kappa", ",".join(map(str, kappa))]
        if c:
            args += ["--c", ",".join(map(str, c))]
        return WitnessOp(name, tuple(args), tuple(kappa), tuple(c), exact)

    def round(self, p: int) -> list[WitnessOp]:
        return self.ops

    def run(self, op: WitnessOp):
        return self.prog.invoke(list(op.args))

    def check(self, op: WitnessOp, out) -> checks.Verdict:
        code, text = out
        doc = _json(text)
        if code != 0 or doc is None:
            return checks.fault(f"witness exited with {code}")
        return checks.check_witness(self.nets[op.net], op.kappa, op.c, doc, op.exact)

    def states_listed(self, out) -> int:
        doc = _json(out[1])
        return len(doc["steady_states"]) if doc else 0


# (net, samples): each net stresses another phase of the probe (see
# README.md).  The sample counts keep a probe near a third of a second, so a
# run holds many probes, except on prop51: at 2500 samples one probe in a few
# hundred left a lone sample unmerged and reported 3 components.
PROBE_NETS = (("running", 600), ("acr", 1200), ("prop51", 4000), ("ex53", 1300))


class Probe(Workload):
    """`crnregions probe` on the allowing regions of four nets, with probe
    seeds that change from pass to pass."""

    name = "probe"

    def __init__(self, prog: Program, root: Path, seed: int) -> None:
        self.prog = prog
        self.seed = seed
        paths = _nets(root)
        self.paths = {name: str(paths[name]) for name, _ in PROBE_NETS}
        member = prog.regions.membership_float
        self.member = {}
        for name, _ in PROBE_NETS:
            _, allowing = prog.cr.regions_for_network(prog.cr.parse_network(paths[name].read_text()))
            self.member[name] = lambda pt, region=allowing: member(region, pt)

    def round(self, p: int) -> list[CliOp]:
        rng = random.Random(f"probe:{self.seed}:{p}")
        return [
            CliOp(name, ("probe", self.paths[name], "--seed", str(rng.randrange(2**31)),
                         "--samples", str(samples)))
            for name, samples in PROBE_NETS
        ]

    def run(self, op: CliOp):
        return self.prog.invoke(list(op.args))

    def check(self, op: CliOp, out) -> checks.Verdict:
        code, text = out
        doc = _json(text)
        if code != 0 or doc is None:
            return checks.fault(f"probe exited with {code}")
        return checks.check_probe(op.net, doc, self.member[op.net])


@dataclass(frozen=True)
class CorpusNet:
    text: str
    reactions: tuple  # ((reactant, product), ...) as coefficient tuples

    @property
    def net(self) -> str:
        return self.text.replace("\n", ", ")


def _statement(reaction, label: str) -> str:
    """A reaction as text; written right to left when that makes A the first
    species the parser meets, so every net has species order (A, B)."""
    y, yp = reaction
    names = ("A", "B")[: len(y)]
    lhs, rhs = checks.complex_text(y, names), checks.complex_text(yp, names)
    if len(y) == 1 or y[0] or not yp[0]:
        return f"{lhs} -> {rhs}; {label}"
    return f"{rhs} <- {lhs}; {label}"


def corpus_nets() -> list[CorpusNet]:
    """Every one-species, three-reaction net with coefficients <= 6, and
    every two-species, two-reaction net with coefficients <= 3."""
    nets = []
    one = [((m,), (p,)) for m in range(7) for p in range(7) if p != m]
    for triple in itertools.combinations(one, 3):
        text = "\n".join(_statement(r, f"k{i + 1}") for i, r in enumerate(triple))
        nets.append(CorpusNet(text, triple))
    cpx = list(itertools.product(range(4), repeat=2))
    two = [(y, yp) for y in cpx for yp in cpx if y != yp]
    for pair in itertools.combinations(two, 2):
        if not all(any(v[j] for r in pair for v in r) for j in (0, 1)):
            continue  # a species that never appears
        lines = [_statement(r, f"k{i + 1}") for i, r in enumerate(pair)]
        if not (pair[0][0][0] or pair[0][1][0]):
            lines.reverse()  # the first reaction has no A
        nets.append(CorpusNet("\n".join(lines), pair))
    return nets


class Corpus(Workload):
    """parse, classify, regions, verdicts and JSON for the corpus networks,
    in an order shuffled by the seed."""

    name = "corpus"
    warmup = 2000

    def __init__(self, prog: Program, root: Path, seed: int) -> None:
        self.prog = prog
        self.nets = corpus_nets()
        random.Random(f"corpus:{seed}").shuffle(self.nets)
        self._oracle_memo: dict[str, int] = {}

    def round(self, p: int) -> list[CorpusNet]:
        return self.nets

    def run(self, item: CorpusNet):
        cr = self.prog.cr
        net = cr.parse_network(item.text)
        verdict = cr.classify(net)
        enabling, allowing = cr.regions_for_network(net)
        docs = [cr.region_to_json(r, cr.connectivity_verdict(r)) for r in (allowing, enabling)]
        return verdict, enabling, docs

    def check(self, item: CorpusNet, out) -> checks.Verdict:
        verdict, enabling, (allowing_doc, enabling_doc) = out
        multi = bool(allowing_doc["conjuncts"])
        if verdict.multistationary != multi:
            return checks.wrong("classification and allowing region disagree")
        if len(item.reactions[0][0]) == 1:
            pairs = [(y[0], yp[0]) for y, yp in item.reactions]
            if multi != checks.one_species_multistationary(pairs):
                return checks.wrong(f"one-species verdict {multi} breaks the sign rule")
        for conj, w in zip(enabling_doc["conjuncts"], enabling.witnesses):
            if w is None:
                continue
            if not all(checks.holds(c, w) for c in conj):
                return checks.fault(f"stored witness {tuple(map(str, w))} is not inside its region")
            if len(item.reactions[0][0]) == 2 and self._oracle_count(item, w) < 2:
                return checks.wrong(f"oracle counts < 2 states at witness {w}")
        return checks.OK

    def _oracle_count(self, item: CorpusNet, w) -> int:
        if item.text not in self._oracle_memo:
            cr = self.prog.cr
            net = cr.parse_network(item.text)
            k = net.num_reactions
            count = cr.count_positive_steady_states(cr.steady_state_system(net), w[:k], w[k:])
            self._oracle_memo[item.text] = count.count
        return self._oracle_memo[item.text]


WORKLOADS = {w.name: w for w in (Analyze, Witness, Probe, Corpus)}
