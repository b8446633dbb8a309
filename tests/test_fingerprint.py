"""One sha256 per corpus slice over the region JSON of every supported net,
and one over the oracle's answers on the bundled nets.

Each net contributes its enabling and allowing region JSON, each with its
connectivity verdict, and the enabling region's stored witnesses; a slice
also records how many nets it has and how many were refused as outside the
covered families.  Any change to a region builder, a verdict or a witness
search that reaches one of these nets changes its slice's digest.

The oracle case hashes (count, continuum, listed steady states) at 200
seeded draws of the self-check's sampler, regions._sweep_points, on each
bundled net, and at each net's stored witnesses, so any change to the
oracle's counts or to the states it lists changes that digest.

The probe case hashes ProbeReport.to_json() for the bench's four probe
configurations at seeds 1-5, and for ProbeConfig() on every bundled allowing
and enabling region, so a change to the probe's draws, links or merges, which
the reference probe in test_connectivity.py shares in part, changes it.

The digests live in tests/golden/corpus_fingerprint.json.  After a change
that is meant to alter region output, regenerate them with

    PYTHONPATH=src python tests/test_fingerprint.py

and give the reason in CHANGES.md, as for the per-net golden JSON.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from crnregions.classify import UnsupportedFamilyError
from crnregions.connectivity import ProbeConfig, probe
from crnregions.massaction import count_positive_steady_states, steady_state_system
from crnregions.network import Complex, Reaction, ReactionNetwork, parse_network
from crnregions.regions import (
    _sweep_points,
    connectivity_verdict,
    region_to_json,
    regions_for_network,
)

DIGESTS = Path(__file__).parent / "golden" / "corpus_fingerprint.json"
NETS = Path(__file__).parent / "nets"


def _net(pairs):
    """The network of (reactant, product) coefficient tuples, labelled k1, k2, ..."""
    names = ("A", "B")[: len(pairs[0][0])]
    rxns = tuple(
        Reaction(Complex(y), Complex(yp), f"k{i + 1}") for i, (y, yp) in enumerate(pairs)
    )
    return ReactionNetwork(names, rxns)


def _reactions(complexes):
    return [(y, yp) for y in complexes for yp in complexes if y != yp]


def _uses_both_species(pairs):
    return all(any(y[j] or yp[j] for y, yp in pairs) for j in (0, 1))


def _one_species():
    # every net of 1-6 reactions between complexes 0, A, ..., 4A
    reactions = _reactions([(m,) for m in range(5)])
    for size in range(1, 7):
        yield from itertools.combinations(reactions, size)


def _two_species_two_reactions():
    # every net of two reactions between complexes up to 2A + 2B that uses
    # both species
    reactions = _reactions(list(itertools.product(range(3), repeat=2)))
    yield from filter(_uses_both_species, itertools.combinations(reactions, 2))


def _two_species_sample():
    # 20 000 seeded draws of 3-4 reactions between complexes up to 2A + 2B;
    # a draw that leaves a species out is drawn again.  About 1 in 1000 has
    # the ACR shape; the refusal count covers the others
    rng = random.Random(2023)
    reactions = _reactions(list(itertools.product(range(3), repeat=2)))
    done = 0
    while done < 20000:
        pairs = rng.sample(reactions, rng.choice((3, 4)))
        if _uses_both_species(pairs):
            done += 1
            yield tuple(pairs)


SLICES = {
    "one_species_1_6": _one_species,
    "two_species_two_reactions": _two_species_two_reactions,
    "two_species_3_4_sample": _two_species_sample,
}


def fingerprint(nets) -> dict:
    h = hashlib.sha256()
    total = refused = 0
    for pairs in nets:
        total += 1
        try:
            enabling, allowing = regions_for_network(_net(pairs))
        except UnsupportedFamilyError:
            refused += 1
            continue
        doc = {
            region.kind: region_to_json(region, connectivity_verdict(region))
            for region in (enabling, allowing)
        }
        doc["witnesses"] = [w and [str(v) for v in w] for w in enabling.witnesses]
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return {"nets": total, "refused": refused, "sha256": h.hexdigest()}


def oracle_fingerprint(seed: int = 2023, samples: int = 200) -> dict:
    h = hashlib.sha256()
    points = 0
    for path in sorted(NETS.glob("*.crn")):
        net = parse_network(path.read_text())
        enabling, _ = regions_for_network(net)
        sys_ = steady_state_system(net)
        n = len(enabling.ambient) - enabling.totals
        stored = [w for w in enabling.witnesses if w is not None]
        for pt in [*_sweep_points(enabling, seed, samples), *stored]:
            points += 1
            res = count_positive_steady_states(sys_, pt[:n], pt[n:])
            states = [[str(v) for v in w] for w in res.witnesses]
            h.update(json.dumps([path.stem, res.count, res.continuum, states]).encode() + b"\n")
    return {"points": points, "sha256": h.hexdigest()}


# the bench's probe configurations: allowing region, samples, default box
PROBE_NETS = (("running", 600), ("acr", 1200), ("prop51", 4000), ("ex53", 1300))


def probe_fingerprint() -> dict:
    h = hashlib.sha256()
    regions = {
        path.stem: regions_for_network(parse_network(path.read_text()))
        for path in sorted(NETS.glob("*.crn"))
    }
    runs = [
        (name, "allowing", ProbeConfig(seed=seed, n_samples=samples))
        for name, samples in PROBE_NETS
        for seed in range(1, 6)
    ]
    runs += [(name, kind, ProbeConfig()) for name in regions for kind in ("allowing", "enabling")]
    for name, kind, cfg in runs:
        enabling, allowing = regions[name]
        report = probe(allowing if kind == "allowing" else enabling, cfg)
        h.update(json.dumps([name, kind, report.to_json()]).encode() + b"\n")
    return {"probes": len(runs), "sha256": h.hexdigest()}


@pytest.mark.parametrize("name", SLICES)
def test_corpus_slice_fingerprint(name):
    want = json.loads(DIGESTS.read_text())[name]
    assert fingerprint(SLICES[name]()) == want, f"corpus slice {name!r} changed"


def test_oracle_fingerprint():
    want = json.loads(DIGESTS.read_text())["oracle"]
    assert oracle_fingerprint() == want, "oracle answers on the bundled nets changed"


def test_probe_fingerprint():
    want = json.loads(DIGESTS.read_text())["probe"]
    assert probe_fingerprint() == want, "probe reports on the bundled nets changed"


if __name__ == "__main__":
    digests = {name: fingerprint(nets()) for name, nets in SLICES.items()}
    digests["oracle"] = oracle_fingerprint()
    digests["probe"] = probe_fingerprint()
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))
