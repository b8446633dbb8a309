import io
import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from crnregions.connectivity import (
    DETOUR_SHIFTS,
    LINK_RADIUS,
    SEGMENT_CHECKS,
    ProbeConfig,
    ProbeReport,
    _cell_neighbours,
    _conjunct_indices,
    _coords,
    _curved,
    _join,
    _sample_points,
    _segment_inside,
    _within_radius,
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


def _from_coords(region, coords):
    """The inverse of _coords: exp for rate constants, identity for totals."""
    n = len(region.ambient) - region.totals
    return tuple(map(math.exp, coords[:n])) + tuple(coords[n:])


def _reference_segment_inside(region, p, q, checks=SEGMENT_CHECKS):
    cp, cq = _coords(region, p), _coords(region, q)
    live = _conjunct_indices(region, p) & _conjunct_indices(region, q)
    for j in range(1, checks + 1):
        if not live:
            return False
        t = j / (checks + 1)
        mid = tuple(a + t * (b - a) for a, b in zip(cp, cq))
        live &= _conjunct_indices(region, _from_coords(region, mid))
    return bool(live)


def _scaled(point, i, k):
    return point[:i] + (point[i] * 2.0**k,) + point[i + 1:]


def _reference_detour(region, p, targets):
    """A three-leg path p, p', q', q for a q in targets, p' and q' being p
    and q with one rate scaled by 2^k, k in DETOUR_SHIFTS."""

    def inside(u, v):
        return _reference_segment_inside(region, u, v)

    for i in range(len(region.ambient) - region.totals):
        for k in DETOUR_SHIFTS:
            p2 = _scaled(p, i, k)
            if not inside(p, p2):
                continue
            for q in targets:
                q2 = _scaled(q, i, k)
                if inside(p2, q2) and inside(q2, q):
                    return True
    return False


def _sampled_hits(region, config):
    rng = random.Random(config.seed)
    lo, hi = config.box
    hits = []
    for _ in range(config.n_samples):
        pt = _sample_points(rng, region, lo, hi, 1)[0]
        if membership_float(region, pt):
            hits.append(pt)
    return hits


def _within(coords, i, j, radius):
    return sum((a - b) ** 2 for a, b in zip(coords[i], coords[j])) <= radius**2


class _RefUnionFind:
    """A path-halving union-find: the reference's partition."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        self.parent[self.find(i)] = self.find(j)

    def reps(self):
        """The first index of each set, in index order."""
        seen = {}
        for i in range(len(self.parent)):
            seen.setdefault(self.find(i), i)
        return list(seen.values())

    def partition(self):
        groups = {}
        for i in range(len(self.parent)):
            groups.setdefault(self.find(i), []).append(i)
        return sorted(groups.values())


def _reference_probe(region, config):
    """The probe over all pairs of hits, with root lookups in the merge pass
    and every conjunct evaluated at each checkpoint.  Pairs of components
    that no straight segment joins then try detours to every hit of b's
    component."""
    hits = _sampled_hits(region, config)
    if not hits:
        return ProbeReport(config.n_samples, 0, 0, (), (), 0, config)
    uf = _RefUnionFind(len(hits))
    coords = [_coords(region, h) for h in hits]
    edges = 0
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            if not _within(coords, i, j, LINK_RADIUS):
                continue
            if uf.find(i) == uf.find(j):
                edges += 1
                continue
            if _reference_segment_inside(region, hits[i], hits[j]):
                uf.union(i, j)
                edges += 1
    reps = uf.reps()
    conj_of = {a: _conjunct_indices(region, hits[a]) for a in reps}
    for a in reps:
        for b in reps:
            if uf.find(a) == uf.find(b) or not (conj_of[a] & conj_of[b]):
                continue
            if _reference_segment_inside(region, hits[a], hits[b]):
                uf.union(a, b)
    for a in reps:
        for b in reps:
            if uf.find(a) == uf.find(b) or not (conj_of[a] & conj_of[b]):
                continue
            rb = uf.find(b)
            targets = [hits[h] for h in range(len(hits)) if uf.find(h) == rb]
            if _reference_detour(region, hits[a], targets):
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
    gaps = SignCondition(k * k - k * 5 + one * 4, ">0")
    band = (
        SignCondition(k - one * 2, ">0"),
        SignCondition(one * 3 - k, ">0"),
    )
    return Region("allowing", ("k",), ((gaps,), band), "hand_built")


def _pinned_region():
    """k - 4 = 0 and 2c - 3 = 0, which hold along a segment only where k is
    exactly 4 and c exactly 1.5."""
    k4 = SignCondition(SymPoly(3, {(1, 0, 0): 1, (0, 0, 0): -4}), "=0")
    c3 = SignCondition(SymPoly(3, {(0, 0, 1): 2, (0, 0, 0): -3}), "=0")
    return Region("enabling", ("k", "j", "c"), ((k4, c3),), "hand_built", totals=1)


def _gap_in_each_conjunct_region():
    """k^2 + k + 1 > 0 and the gap k^2 - 5k + 4 > 0, in both orders."""
    k = SymPoly.symbol(1, 0)
    one = SymPoly.const(1, 1)
    always = SignCondition(k * k + k + one, ">0")
    gap = SignCondition(k * k - k * 5 + one * 4, ">0")
    return Region("allowing", ("k",), ((always, gap), (gap, always)), "hand_built")


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

    @pytest.mark.parametrize(
        "seed, sizes", [(1519723034, (202, 188)), (1985537618, (211, 173))]
    )
    def test_prop51_lone_hit_joins_by_a_detour(self, prop51_net, seed, sizes):
        # one hit at k3R - k3L of about 2e-6, which no straight segment
        # joins to its component: a detour does
        _, allowing = regions_for_network(prop51_net)
        report = probe(allowing, ProbeConfig(seed=seed))
        assert report.component_sizes == sizes

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
        points = [_sample_points(rng, enabling, 0.0625, 16.0, 1)[0] for _ in range(200)]
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
    """The cell-list probe, joining components by label, gives the report
    of the all-pairs one with a union-find."""

    REGIONS = _equivalence_regions()

    def test_covers_the_cell_paths(self):
        assert self.REGIONS["running_enabling"].totals == 1
        assert len(self.REGIONS["one_symbol"].ambient) == 1
        assert not self.REGIONS["deg_case2"].conjuncts

    @pytest.mark.parametrize("radius", [0.3, LINK_RADIUS, 2.5])
    @pytest.mark.parametrize("name", sorted(REGIONS))
    def test_same_report(self, name, radius):
        """The cell list holds every pair of hits within radius, found over
        all pairs, also off the link radius; at the link radius the probe's
        report is the all-pairs one."""
        region = self.REGIONS[name]
        for seed in (3, 11):
            cfg = ProbeConfig(seed=seed, n_samples=300, box=(0.0625, 16.0))
            hits = _sampled_hits(region, cfg)
            coords = [_coords(region, h) for h in hits]
            for i, (near, points) in enumerate(_cell_neighbours(coords, radius) if coords else ()):
                within = {j for j in range(len(coords)) if _within(coords, i, j, radius)}
                assert near == sorted(near) and within <= set(near)
                assert points == [coords[j] for j in near]
            if radius == LINK_RADIUS:
                assert probe(region, cfg) == _reference_probe(region, cfg)

    # the bench's four probe configurations
    @pytest.mark.parametrize(
        "name, samples", [("running", 600), ("acr", 1200), ("prop51", 4000), ("ex53", 1300)]
    )
    def test_bench_sizes(self, name, samples):
        region = self.REGIONS[name]
        cfg = ProbeConfig(seed=1, n_samples=samples, box=(0.0625, 16.0))
        assert probe(region, cfg) == _reference_probe(region, cfg)

    @given(
        n=st.integers(1, 40),
        pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_labels_match_the_reference_union_find(self, n, pairs):
        """Joins by label give the union-find's partition after every join,
        and each label's member list holds exactly the hits with that label."""
        label, members = list(range(n)), [[i] for i in range(n)]
        uf = _RefUnionFind(n)
        for i, j in pairs:
            i, j = i % n, j % n
            if label[i] != label[j]:
                kept = _join(label, members, label[i], label[j])
                assert label[i] == label[j] == kept
            uf.union(i, j)
            groups = {}
            for h, lh in enumerate(label):
                groups.setdefault(lh, []).append(h)
            assert sorted(groups.values()) == uf.partition()
            for lh, hs in enumerate(members):
                assert sorted(hs) == groups.get(lh, [])

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
        assert len(path) in (2, 4)
        assert connect_witnesses(allowing, p, q) == path

    def test_no_path_across_prop51_split(self, prop51_net):
        _, allowing = regions_for_network(prop51_net)
        w1, w2 = allowing.witnesses
        p = tuple(float(v) for v in w1)
        q = tuple(float(v) for v in w2)
        assert connect_witnesses(allowing, p, q) is None

    def test_rejects_outside_endpoint(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        with pytest.raises(ValueError):
            connect_witnesses(allowing, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))

    def test_identical_endpoints(self, ex53_net):
        _, allowing = regions_for_network(ex53_net)
        (w,) = allowing.witnesses
        p = tuple(float(v) for v in w)
        assert connect_witnesses(allowing, p, p) == [p]


def _new_segment_inside(region, p, q):
    live = _conjunct_indices(region, p) & _conjunct_indices(region, q)
    cp, cq = _coords(region, p), _coords(region, q)
    return _segment_inside(region, _curved(region), cp, cq, live)


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
        assert not _curved(region)[0]
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
        assert _curved(region)[0]
        p, q = (0.5,), (5.0,)
        assert _conjunct_indices(region, p) == _conjunct_indices(region, q) == {0}
        assert not _new_segment_inside(region, p, q)
        assert not _reference_segment_inside(region, p, q, 32)

    def test_total_symbol_condition_is_checkpointed(self):
        # k1 c^2 - 4 k2 > 0 alone: c = -3 and c = 3 hold it, c = 0 does not
        enabling = TestReferenceEquivalence.REGIONS["running_enabling"]
        (cond,) = [c for c in enabling.conjuncts[0] if len(c.poly.terms) == 2]
        region = Region("enabling", enabling.ambient, ((cond,),), "hand_built", totals=1)
        assert _curved(region)[0]
        p, q = (1.0, 1.0, -3.0), (1.0, 1.0, 3.0)
        assert membership_float(region, p) and membership_float(region, q)
        assert not _new_segment_inside(region, p, q)
        assert not _reference_segment_inside(region, p, q, 32)


def _exact_sign(poly, point):
    v = sum(t for _, t in poly.term_values(point))
    return ("<0", "=0", ">0")[(v > 0) - (v < 0) + 1]


@st.composite
def _curved_regions(draw):
    """A region over 1-4 rates and 0-2 totals whose conditions all need
    checkpoints (three or more terms each), and two endpoints in sampling
    coordinates.  Coefficients differ in size by up to 2^80, and some come
    with their exact negation, so that the values at the checkpoints depend
    on the order of the operations.  Most relations are the sign at both
    endpoints where the two agree, and some conditions are gaps that hold at
    both endpoints but not in between, so that the checkpoints decide."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    rate_exps = st.tuples(*[st.integers(0, 3)] * n)
    exps = st.tuples(*[st.integers(0, 3)] * n, *[st.integers(0, 2)] * m)
    coeff = st.builds(lambda c, s, big: c * s * big, st.integers(1, 9),
                      st.sampled_from([1, -1]), st.sampled_from([1, 2**80]))
    coord = st.floats(-3.0, 3.0)
    u, v = (draw(st.tuples(*[coord] * (n + m))) for _ in range(2))
    p, q = (tuple(map(math.exp, w[:n])) + w[n:] for w in (u, v))
    conjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        conj = []
        for _ in range(draw(st.integers(1, 2))):
            if not draw(st.integers(0, 3)):
                # (D x^e - A)(D x^e - B) > 0, x^e being A / D and B / D
                # halfway between checkpoints j - 1 and j and between j + k
                # and j + k + 1: x^e is monotone along the segment, so the
                # condition holds at both ends and fails at those between
                e = draw(rate_exps.filter(any))
                j, k = draw(st.integers(1, SEGMENT_CHECKS)), draw(st.integers(0, 2))
                a, b = (
                    max(1, round(2**20 * math.exp(sum(x * (s + t * (w - s))
                                                      for x, s, w in zip(e, u, v)))))
                    for t in ((j - 0.5) / (SEGMENT_CHECKS + 1),
                              (min(j + k, SEGMENT_CHECKS) + 0.5) / (SEGMENT_CHECKS + 1))
                )
                zero = (0,) * (n + m)
                terms = {tuple(2 * x for x in e) + zero[n:]: 2**40,
                         e + zero[n:]: -(a + b) * 2**20, zero: a * b}
                conj.append(SignCondition(SymPoly(n + m, terms), ">0"))
                continue
            cs: list[int] = []
            for _ in range(draw(st.integers(3, 4))):
                cs.append(-cs[-1] if cs and draw(st.booleans()) else draw(coeff))
            es = draw(st.lists(exps, min_size=len(cs), max_size=len(cs), unique=True))
            poly = SymPoly(n + m, dict(zip(es, cs)))
            signs = {_exact_sign(poly, p), _exact_sign(poly, q)}
            rel = draw(st.sampled_from(["<0", "=0", ">0"]))
            if len(signs) == 1 and draw(st.integers(0, 3)):
                (rel,) = signs
            conj.append(SignCondition(poly, rel))
        conjuncts.append(tuple(conj))
    region = Region("enabling" if m else "allowing", tuple(f"s{i}" for i in range(n + m)),
                    tuple(conjuncts), "hand_built", totals=m)
    return region, u, v


class TestBatchedKernels:
    """The batched float kernels give what one checkpoint, one draw or one
    pair at a time gives."""

    # k stays exp(log 4) = 4 and c stays 1.5 only if each checkpoint is
    # a + t (b - a) bit for bit; the gap fails between k = 1 and k = 4,
    # whichever condition comes first
    @example(case=(_pinned_region(), (math.log(4.0), 0.0, 1.5), (math.log(4.0), 1.0, 1.5)))
    @example(case=(_gap_in_each_conjunct_region(), (math.log(0.5),), (math.log(5.0),)))
    @given(case=_curved_regions())
    def test_segment_inside_matches_the_reference(self, case):
        region, u, v = case
        assert _curved(region) == [list(conj) for conj in region.conjuncts]
        p, q = _from_coords(region, u), _from_coords(region, v)
        assert _new_segment_inside(region, p, q) == _reference_segment_inside(region, p, q)

    def test_sample_points_draw_as_rng_uniform_does(self):
        enabling = TestReferenceEquivalence.REGIONS["running_enabling"]
        rng, ref = random.Random(5), random.Random(5)
        lo, hi = 0.0625, 16.0
        for m in (1, 7, 512):
            want = [
                (math.exp(ref.uniform(math.log(lo), math.log(hi))),
                 math.exp(ref.uniform(math.log(lo), math.log(hi))),
                 ref.uniform(-hi, hi))
                for _ in range(m)
            ]
            assert _sample_points(rng, enabling, lo, hi, m) == want
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_cell_list_holds_every_link_at_the_radius(self, dim):
        """Walking a point by ulps across the link radius, the cell list
        lists it and _within_radius links it exactly when math.dist is at
        most LINK_RADIUS; both outcomes occur."""
        rng = random.Random(dim)
        found = set()
        for _ in range(20):
            ci = tuple(rng.uniform(-3, 3) for _ in range(dim))
            u = [rng.gauss(0, 1) for _ in range(dim)]
            scale = LINK_RADIUS / math.sqrt(sum(x * x for x in u))
            cj = [a + scale * x for a, x in zip(ci, u)]
            # walk the last coordinate by ulps across the radius
            for _ in range(40):
                cj[-1] = math.nextafter(cj[-1], -math.inf)
            for _ in range(80):
                cj[-1] = math.nextafter(cj[-1], math.inf)
                linked = math.dist(ci, cj) <= LINK_RADIUS
                found.add(linked)
                near, points = _cell_neighbours([ci, tuple(cj)], LINK_RADIUS)[0]
                assert 1 in near or not linked
                assert _within_radius(ci, near[1:], points[1:]) == ([1] if linked else [])
        assert found == {True, False}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_side_is_wider_than_the_radius(self, dim):
        """math.dist rounds 1 + 2^-53 down to the radius 1, yet x / 1 puts
        the two points in cells 0 and 2; the widened side makes them
        neighbours."""
        ci, cj = (1 - 2**-53,) + (0.0,) * (dim - 1), (2.0,) + (0.0,) * (dim - 1)
        assert math.dist(ci, cj) == 1.0
        assert (math.floor(ci[0] / 1.0), math.floor(cj[0] / 1.0)) == (0, 2)
        near, _ = _cell_neighbours([ci, cj], 1.0)[0]
        assert near == [0, 1]
