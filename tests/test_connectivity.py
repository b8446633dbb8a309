import io
import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from crnregions.connectivity import (
    ProbeConfig,
    ProbeReport,
    _checkpoint_tables,
    _component_reps,
    _conjunct_indices,
    _coords,
    _from_coords,
    _sample_point,
    _segment_inside,
    _UnionFind,
    connect_witnesses,
    probe,
)
from crnregions.network import parse_network
from crnregions.regions import (
    Region,
    SignCondition,
    SymPoly,
    membership_float,
    regions_for_network,
)

from conftest import NETS, load


def _reference_segment_inside(region, p, q, checks):
    cp, cq = _coords(region, p), _coords(region, q)
    live = _conjunct_indices(region, p) & _conjunct_indices(region, q)
    for j in range(1, checks + 1):
        if not live:
            return False
        t = j / (checks + 1)
        mid = tuple(a + t * (b - a) for a, b in zip(cp, cq))
        live &= _conjunct_indices(region, _from_coords(region, mid))
    return bool(live)


def _reference_pathable(region, p, q, rng, config):
    def inside(u, v):
        return _reference_segment_inside(region, u, v, config.segment_checks)

    if inside(p, q):
        return True
    lo, hi = config.box
    for _ in range(config.merge_restarts):
        w = _sample_point(rng, region, lo, hi)
        if membership_float(region, w) and inside(p, w) and inside(w, q):
            return True
    return False


def _reference_probe(region, config):
    """The probe over all pairs of hits, with root lookups in the merge pass
    and every conjunct evaluated at each checkpoint."""
    rng = random.Random(config.seed)
    lo, hi = config.box
    hits = []
    for _ in range(config.n_samples):
        pt = _sample_point(rng, region, lo, hi)
        if membership_float(region, pt):
            hits.append(pt)
    if not hits:
        return ProbeReport(config.n_samples, 0, 0, (), (), 0, config)
    uf = _UnionFind(len(hits))
    coords = [_coords(region, h) for h in hits]
    r2 = config.link_radius**2
    edges = 0
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            if sum((a - b) ** 2 for a, b in zip(coords[i], coords[j])) > r2:
                continue
            if uf.find(i) == uf.find(j):
                edges += 1
                continue
            checks = config.segment_checks
            if _reference_segment_inside(region, hits[i], hits[j], checks):
                uf.union(i, j)
                edges += 1
    reps = _component_reps(uf, len(hits))
    conj_of = {a: _conjunct_indices(region, hits[a]) for a in reps}
    for a in reps:
        for b in reps:
            if uf.find(a) == uf.find(b) or not (conj_of[a] & conj_of[b]):
                continue
            if _reference_pathable(region, hits[a], hits[b], rng, config):
                uf.union(a, b)
    comp = {}
    for i in range(len(hits)):
        comp.setdefault(uf.find(i), []).append(i)
    groups = sorted(comp.values(), key=len, reverse=True)
    return ProbeReport(
        config.n_samples,
        len(hits),
        len(groups),
        tuple(len(g) for g in groups),
        tuple(hits[g[0]] for g in groups),
        edges,
        config,
    )


def _one_symbol_region():
    """k < 1, 2 < k < 3 or k > 4, over one conjunct and a second one."""
    k = SymPoly.symbol(1, 0)
    one = SymPoly.const(1, 1)
    gaps = SignCondition(k * k - k.scale(5) + one.scale(4), ">0")
    band = (
        SignCondition(k - one.scale(2), ">0"),
        SignCondition(one.scale(3) - k, ">0"),
    )
    return Region("allowing", ("k",), ((gaps,), band), "hand_built")


def _two_arms_region():
    """k1 < 1 or k2 < 1: segments near the corner leave both conjuncts."""
    k1, k2 = SymPoly.symbol(2, 0), SymPoly.symbol(2, 1)
    one = SymPoly.const(2, 1)
    arms = ((SignCondition(one - k1, ">0"),), (SignCondition(one - k2, ">0"),))
    return Region("allowing", ("k1", "k2"), arms, "hand_built")


def _equivalence_regions():
    regions = {
        path.stem: regions_for_network(load(path))[1]
        for path in sorted(NETS.glob("*.crn"))
    }
    regions["running_enabling"] = regions_for_network(load(NETS / "running.crn"))[0]
    regions["one_symbol"] = _one_symbol_region()
    regions["two_arms"] = _two_arms_region()
    return regions


class TestProbeConfig:
    def test_defaults(self):
        cfg = ProbeConfig()
        assert cfg.seed == 42 and cfg.n_samples == 4000

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            ProbeConfig(box=(1.0, 0.5))
        with pytest.raises(ValueError):
            ProbeConfig(box=(-1.0, 2.0))

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_rejects_bad_link_radius(self, radius):
        with pytest.raises(ValueError):
            ProbeConfig(link_radius=radius)

    def test_rejects_negative_merge_restarts(self):
        with pytest.raises(ValueError):
            ProbeConfig(merge_restarts=-1)
        assert ProbeConfig(merge_restarts=0).merge_restarts == 0


class TestProbe:
    def test_prop51_two_components(self, prop51_net):
        _, allowing = regions_for_network(prop51_net)
        report = probe(allowing, ProbeConfig(box=(0.125, 8.0)))
        assert report.component_count == 2
        assert report.accepted_samples == sum(report.component_sizes)
        for rep in report.component_representatives:
            assert membership_float(allowing, rep)

    def test_single_inequality_one_component(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        report = probe(allowing, ProbeConfig(box=(0.0625, 16.0)))
        assert report.component_count == 1

    def test_running_enabling_one_component(self, running_net):
        enabling, _ = regions_for_network(running_net)
        report = probe(enabling, ProbeConfig(box=(0.0625, 16.0)))
        assert report.component_count == 1

    def test_deterministic_for_fixed_seed(self, prop51_net):
        _, allowing = regions_for_network(prop51_net)
        cfg = ProbeConfig(n_samples=800, box=(0.125, 8.0))
        r1 = probe(allowing, cfg)
        r2 = probe(allowing, cfg)
        assert r1 == r2

    def test_empty_region_reports_zero(self):
        from crnregions.network import parse_network

        net = parse_network("0 -> A; k1\nA -> 0; k2")
        _, allowing = regions_for_network(net)
        report = probe(allowing, ProbeConfig(n_samples=50))
        assert report.component_count == 0 and report.accepted_samples == 0

    def test_c_labelled_rates_stay_positive(self):
        # only the region's trailing totals are signed, whatever the labels
        net = parse_network("2A + B -> 3A; cA\nA -> B; cB")
        enabling, _ = regions_for_network(net)
        rng = random.Random(1)
        points = [_sample_point(rng, enabling, 0.0625, 16.0) for _ in range(200)]
        assert all(p[0] > 0 and p[1] > 0 for p in points)
        assert min(p[2] for p in points) < 0 < max(p[2] for p in points)
        report = probe(enabling, ProbeConfig(n_samples=500, box=(0.0625, 16.0)))
        assert report.accepted_samples > 0
        for rep in report.component_representatives:
            assert rep[0] > 0 and rep[1] > 0

    def test_c_labelled_one_species_rates_stay_positive(self):
        net = parse_network("0 -> A; cat\nA -> 0; k2\n2A -> 3A; k3")
        _, allowing = regions_for_network(net)
        report = probe(allowing, ProbeConfig(n_samples=500, box=(0.0625, 16.0)))
        assert report.accepted_samples > 0
        assert all(v > 0 for rep in report.component_representatives for v in rep)

    def test_report_json_and_csv(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        report = probe(allowing, ProbeConfig(n_samples=500, box=(0.0625, 16.0)))
        doc = report.to_json()
        assert doc["seed"] == 42
        assert doc["component_count"] == report.component_count
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("component,size")
        assert len(lines) == 1 + report.component_count


class TestReferenceEquivalence:
    """The cell-list probe gives the same report as the all-pairs one."""

    REGIONS = _equivalence_regions()

    def test_covers_the_cell_paths(self):
        assert self.REGIONS["running_enabling"].totals == 1
        assert len(self.REGIONS["one_symbol"].ambient) == 1
        assert not self.REGIONS["deg_case2"].conjuncts

    @pytest.mark.parametrize("radius", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("name", sorted(REGIONS))
    def test_same_report(self, name, radius):
        region = self.REGIONS[name]
        for seed in (3, 11):
            cfg = ProbeConfig(
                seed=seed, n_samples=300, box=(0.0625, 16.0), link_radius=radius
            )
            assert probe(region, cfg) == _reference_probe(region, cfg)

    # the bench's four probe configurations
    @pytest.mark.parametrize(
        "name, samples", [("running", 600), ("acr", 1200), ("prop51", 4000), ("ex53", 1300)]
    )
    def test_bench_sizes(self, name, samples):
        region = self.REGIONS[name]
        cfg = ProbeConfig(seed=1, n_samples=samples, box=(0.0625, 16.0))
        assert probe(region, cfg) == _reference_probe(region, cfg)

    def test_one_symbol_components(self):
        report = probe(self.REGIONS["one_symbol"], ProbeConfig(n_samples=300))
        assert report.component_count == 3


class TestConnectWitnesses:
    def test_path_between_witnesses_same_component(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        (w,) = allowing.witnesses
        p = tuple(float(v) for v in w)
        q = (p[0] * 1.5, p[1] * 2.0, p[2] * 0.5)
        assert membership_float(allowing, q)
        path = connect_witnesses(allowing, p, q)
        assert path is not None
        assert path[0] == p and path[-1] == q

    def test_no_path_across_prop51_split(self, prop51_net):
        _, allowing = regions_for_network(prop51_net)
        w1, w2 = allowing.witnesses
        p = tuple(float(v) for v in w1)
        q = tuple(float(v) for v in w2)
        assert connect_witnesses(allowing, p, q, restarts=16) is None

    def test_rejects_outside_endpoint(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        with pytest.raises(ValueError):
            connect_witnesses(allowing, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))

    def test_identical_endpoints(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        (w,) = allowing.witnesses
        p = tuple(float(v) for v in w)
        assert connect_witnesses(allowing, p, p) == [p]


def _new_segment_inside(region, p, q, checks=32):
    live = _conjunct_indices(region, p) & _conjunct_indices(region, q)
    cp, cq = _coords(region, p), _coords(region, q)
    return _segment_inside(_checkpoint_tables(region), cp, cq, live, checks)


@st.composite
def _two_term_cases(draw):
    """A strict two-term condition in 1-4 rate symbols (a constant term
    allowed) and two log-coordinate endpoints."""
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * d)
    e1, e2 = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    c1, c2 = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=2, max_size=2))
    rel = draw(st.sampled_from(["<0", ">0"]))
    u, v = (draw(st.tuples(*[st.floats(-3, 3)] * d)) for _ in range(2))
    return SymPoly(d, {e1: c1, e2: c2}), rel, u, v


class TestHalfSpaceShortcut:
    """Strict conditions with at most two terms and no total constant get
    no checkpoints; the segment test still agrees with the reference."""

    @given(case=_two_term_cases())
    def test_two_term_conditions_match_reference(self, case):
        poly, rel, u, v = case
        d = poly.nsym
        region = Region("allowing", tuple(f"k{i}" for i in range(d)),
                        ((SignCondition(poly, rel),),), "hand_built")
        p = _from_coords(region, u)
        q = _from_coords(region, v)
        assert not _checkpoint_tables(region)[0]
        # endpoints inside, and not so close to the boundary that the
        # reference's log/exp round trip lands a checkpoint on it
        for pt in (p, q):
            values = [c * math.prod(x**k for x, k in zip(pt, e))
                      for e, c in poly.terms.items()]
            assume(membership_float(region, pt))
            assume(abs(sum(values)) > 1e-9 * sum(map(abs, values)))
        assert _new_segment_inside(region, p, q) == _reference_segment_inside(
            region, p, q, 32
        )

    def test_trinomial_gap_is_checkpointed(self):
        region = _one_symbol_region()
        assert _checkpoint_tables(region)[0]
        p, q = (0.5,), (5.0,)
        assert _conjunct_indices(region, p) == _conjunct_indices(region, q) == {0}
        assert not _new_segment_inside(region, p, q)
        assert not _reference_segment_inside(region, p, q, 32)

    def test_total_symbol_condition_is_checkpointed(self):
        # k1 c^2 - 4 k2 > 0 alone: c = -3 and c = 3 hold it, c = 0 does not
        enabling = TestReferenceEquivalence.REGIONS["running_enabling"]
        (cond,) = [c for c in enabling.conjuncts[0] if len(c.poly.terms) == 2]
        region = Region("enabling", enabling.ambient, ((cond,),), "hand_built", totals=1)
        assert _checkpoint_tables(region)[0]
        p, q = (1.0, 1.0, -3.0), (1.0, 1.0, 3.0)
        assert membership_float(region, p) and membership_float(region, q)
        assert not _new_segment_inside(region, p, q)
        assert not _reference_segment_inside(region, p, q, 32)
