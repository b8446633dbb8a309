"""Seeded sampling probe for region connectivity.

The probe draws parameter points in a box, keeps the ones inside the
region, links nearby hits whose connecting segment stays inside, and
reports the components of the resulting graph.  Sparse components are
then merged when a direct or one-waypoint path between representatives
passes the same segment test, so the count reflects geometry rather than
sampling density.  It is numerical evidence, not a proof.

Rate coordinates are strictly positive and are sampled log-uniformly;
segments and distances for them live in log coordinates, which respects
the monomial structure of the regions.  Total-constant coordinates (the
region's trailing `totals` symbols) may take either sign, so they are
sampled uniformly over [-hi, hi] and treated linearly.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Sequence, TextIO

from .regions import Region, membership_float


@dataclass(frozen=True)
class ProbeConfig:
    seed: int = 42
    n_samples: int = 4000
    box: tuple[float, float] = (0.01, 100.0)
    link_radius: float = 1.0
    segment_checks: int = 32
    merge_restarts: int = 64

    def __post_init__(self) -> None:
        lo, hi = self.box
        if not (0 < lo < hi):
            raise ValueError("box must satisfy 0 < lo < hi")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.segment_checks < 1:
            raise ValueError("segment_checks must be at least 1")


@dataclass(frozen=True)
class ProbeReport:
    n_samples: int
    accepted_samples: int
    component_count: int
    component_sizes: tuple[int, ...]
    component_representatives: tuple[tuple[float, ...], ...]
    edge_count: int
    config: ProbeConfig

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "accepted_samples": self.accepted_samples,
            "component_count": self.component_count,
            "component_sizes": list(self.component_sizes),
            "component_representatives": [
                list(p) for p in self.component_representatives
            ],
            "edge_count": self.edge_count,
            "seed": self.config.seed,
            "box": list(self.config.box),
        }

    def write_csv(self, fh: TextIO) -> None:
        dim = len(self.component_representatives[0]) if self.component_representatives else 0
        writer = csv.writer(fh)
        writer.writerow(["component", "size"] + [f"rep_{i}" for i in range(dim)])
        for idx, (size, rep) in enumerate(
            zip(self.component_sizes, self.component_representatives)
        ):
            writer.writerow([idx, size] + [f"{v:.6g}" for v in rep])


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


def _sample_point(rng: random.Random, region: Region, lo: float, hi: float):
    llo, lhi = math.log(lo), math.log(hi)
    n = len(region.ambient) - region.totals
    rates = tuple(math.exp(rng.uniform(llo, lhi)) for _ in range(n))
    return rates + tuple(rng.uniform(-hi, hi) for _ in range(region.totals))


def _coords(region: Region, point: Sequence[float]) -> tuple[float, ...]:
    """Sampling coordinates: log for rate constants, identity for totals."""
    n = len(region.ambient) - region.totals
    return tuple(map(math.log, point[:n])) + tuple(point[n:])


def _from_coords(region: Region, coords: Sequence[float]) -> tuple[float, ...]:
    n = len(region.ambient) - region.totals
    return tuple(map(math.exp, coords[:n])) + tuple(coords[n:])


def _conjunct_indices(region: Region, pt) -> set[int]:
    return {
        i
        for i, conj in enumerate(region.conjuncts)
        if all(cond.holds_float(pt) for cond in conj)
    }


def _segment_inside(region: Region, p, q, checks: int) -> bool:
    """Check the segment from p to q (in sampling coordinates) stays inside.

    The whole segment must satisfy one common conjunct: finitely many
    checkpoints could otherwise jump across a thin gap between two
    disjoint conjuncts of a union.  This is conservative — it can split
    components that overlap across conjuncts, but never falsely joins.
    """
    cp, cq = _coords(region, p), _coords(region, q)
    live = _conjunct_indices(region, p) & _conjunct_indices(region, q)
    for j in range(1, checks + 1):
        if not live:
            return False
        t = j / (checks + 1)
        mid = tuple(a + t * (b - a) for a, b in zip(cp, cq))
        live &= _conjunct_indices(region, _from_coords(region, mid))
    return bool(live)


def probe(region: Region, config: ProbeConfig = ProbeConfig()) -> ProbeReport:
    """Sample the region and estimate its number of connected components."""
    rng = random.Random(config.seed)
    lo, hi = config.box
    hits: list[tuple[float, ...]] = []
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
        ci = coords[i]
        for j in range(i + 1, len(hits)):
            if sum((a - b) ** 2 for a, b in zip(ci, coords[j])) > r2:
                continue
            if uf.find(i) == uf.find(j):
                edges += 1
                continue
            if _segment_inside(region, hits[i], hits[j], config.segment_checks):
                uf.union(i, j)
                edges += 1
    # merge pass: sparse sampling can shatter a connected region into many
    # graph components; join representatives reachable by a checked path.
    # Hits in disjoint conjuncts can never share a checked segment, so
    # those pairs are skipped outright.
    reps = _component_reps(uf, len(hits))
    conj_of = {a: _conjunct_indices(region, hits[a]) for a in reps}
    for a in reps:
        for b in reps:
            if uf.find(a) == uf.find(b) or not (conj_of[a] & conj_of[b]):
                continue
            if _pathable(region, hits[a], hits[b], rng, config):
                uf.union(a, b)
    comp: dict[int, list[int]] = {}
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


def _component_reps(uf: _UnionFind, n: int) -> list[int]:
    seen: dict[int, int] = {}
    for i in range(n):
        seen.setdefault(uf.find(i), i)
    return list(seen.values())


def _pathable(region: Region, p, q, rng: random.Random, config: ProbeConfig) -> bool:
    if _segment_inside(region, p, q, config.segment_checks):
        return True
    lo, hi = config.box
    for _ in range(config.merge_restarts):
        w = _sample_point(rng, region, lo, hi)
        if not membership_float(region, w):
            continue
        if _segment_inside(region, p, w, config.segment_checks) and _segment_inside(
            region, w, q, config.segment_checks
        ):
            return True
    return False


def connect_witnesses(
    region: Region,
    p: Sequence[float],
    q: Sequence[float],
    seed: int = 42,
    restarts: int = 64,
    segment_checks: int = 32,
    box: tuple[float, float] = (0.01, 100.0),
) -> list[tuple[float, ...]] | None:
    """Search for a piecewise segment path inside the region from p to q.

    Returns the waypoint list (including endpoints) or None when no path
    is found within the restart budget; None is not a disconnectedness
    proof.
    """
    p = tuple(float(v) for v in p)
    q = tuple(float(v) for v in q)
    if not (membership_float(region, p) and membership_float(region, q)):
        raise ValueError("endpoints must lie inside the region")
    if p == q:
        return [p]
    if _segment_inside(region, p, q, segment_checks):
        return [p, q]
    rng = random.Random(seed)
    lo, hi = box
    for _ in range(restarts):
        w = _sample_point(rng, region, lo, hi)
        if not membership_float(region, w):
            continue
        if _segment_inside(region, p, w, segment_checks) and _segment_inside(
            region, w, q, segment_checks
        ):
            return [p, w, q]
    return None
