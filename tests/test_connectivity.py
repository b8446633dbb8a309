import io
import random

import pytest

from crnregions.connectivity import (
    ProbeConfig,
    _sample_point,
    connect_witnesses,
    probe,
)
from crnregions.network import parse_network
from crnregions.regions import membership_float, regions_for_network


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
