"""Seeded sampling probe for region connectivity.

The probe draws parameter points in a box, keeps the ones inside the
region, links nearby hits whose connecting segment stays inside, and
reports the components of the resulting graph.  Sparse components are
then merged when a direct or one-waypoint path between representatives
passes the same segment test, so the count reflects geometry rather than
sampling density.  It is numerical evidence, not a proof.

A segment stays inside when one conjunct holding at both ends holds at its
checkpoints.  A strict condition with at most two terms and no total
constant is a half-space in log-rate coordinates, or holds everywhere or
nowhere, and gets no checkpoints; the others cost one exp per term at each.

Candidate links come from a cell list (Bentley, Stanat and Williams 1977,
fixed-radius near neighbours) on the first three sampling coordinates, so
the report, edge count included, is the one the test over all pairs gives.
The merge pass tries pairs of representatives in a fixed order, as the path
search draws from the seeded generator, and stops once no two components
share a conjunct.

Rate coordinates are strictly positive and are sampled log-uniformly;
segments and distances for them live in log coordinates, which respects
the monomial structure of the regions.  Total-constant coordinates (the
region's trailing `totals` symbols) may take either sign, so they are
sampled uniformly over [-hi, hi] and treated linearly.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence, TextIO

from .regions import _SIGNS, Region

LINK_RADIUS = 1.0  # hits this close in sampling coordinates are link candidates
SEGMENT_CHECKS = 32  # interior checkpoints of each segment test
MERGE_RESTARTS = 64  # one-waypoint tries per pair of representatives


@dataclass(frozen=True)
class ProbeConfig:
    seed: int = 42
    n_samples: int = 4000
    box: tuple[float, float] = (1 / 16, 16.0)

    def __post_init__(self) -> None:
        lo, hi = self.box
        if not (0 < lo < hi):
            raise ValueError("box must satisfy 0 < lo < hi")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")


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


def _conjunct_indices(region: Region, pt) -> set[int]:
    return {
        i
        for i, conj in enumerate(region.conjuncts)
        if all(cond.holds_float(pt) for cond in conj)
    }


def _checkpoint_tables(region: Region) -> list[list[tuple[int, list]]]:
    """Per conjunct, the conditions that the segment test checkpoints, as
    (sign of the relation, terms), a term being (sign of c, log|c|, rate
    exponents, (index, e) pairs of the total-constant exponents).  Half-spaces
    are left out: holding at both endpoints, they hold on the whole segment.
    """
    n = len(region.ambient) - region.totals
    return [
        [
            (_SIGNS[c.rel], [
                (math.copysign(1.0, k), math.log(abs(k)), e[:n],
                 [(i, x) for i, x in enumerate(e[n:], n) if x])
                for e, k in c.poly.terms.items()
            ])
            for c in conj
            if c.rel == "=0" or len(c.poly.terms) > 2 or any(any(e[n:]) for e in c.poly.terms)
        ]
        for conj in region.conjuncts
    ]


def _holds_along(rel: int, terms: list, cp, cq) -> bool:
    """The condition holds at cp + t (cq - cp) for t = j / (SEGMENT_CHECKS + 1),
    0 < j <= SEGMENT_CHECKS; one exp per term, of log|c| + e·cp + t e·(cq - cp)
    over the rates."""
    line = [
        (s, lc + sum(x * u for x, u in zip(er, cp)),
         sum(x * (v - u) for x, u, v in zip(er, cp, cq)),
         [(cp[i], cq[i] - cp[i], x) for i, x in tots])
        for s, lc, er, tots in terms
    ]
    for j in range(1, SEGMENT_CHECKS + 1):
        t, v = j / (SEGMENT_CHECKS + 1), 0.0
        for s, a, b, tots in line:
            w = s * math.exp(a + t * b)
            for c0, dc, x in tots:
                w *= (c0 + t * dc) ** x
            v += w
        if not (v < 0 if rel < 0 else v > 0 if rel else v == 0):
            return False
    return True


def _segment_inside(tables: list, cp, cq, live: set[int]) -> bool:
    """Check the segment from cp to cq (sampling coordinates) stays inside
    one of the conjuncts live, those that hold at both endpoints.

    The whole segment must satisfy one common conjunct: finitely many
    checkpoints could otherwise jump across a thin gap between two
    disjoint conjuncts of a union.  This is conservative — it can split
    components that overlap across conjuncts, but never falsely joins.
    """
    return any(all(_holds_along(*c, cp, cq) for c in tables[i]) for i in live)


def _cell_neighbours(coords: list[tuple[float, ...]], radius: float) -> list[list[int]]:
    """For each point, the sorted indices of the points in its 3^k nearby cells.

    Cells are hashed on the first k = min(3, d) coordinates.  Their side is
    the radius widened by 1e-9 and by 1e-15 of the largest |x| / radius,
    which exceeds the rounding of the distance test and of x / side: two
    points that pass the test are never two cells apart on an axis, so the
    lists hold every pair within the radius.
    """
    k = min(3, len(coords[0]))
    reach = max((abs(x) for c in coords for x in c[:k]), default=0.0) / radius
    side = radius * (1 + 1e-9 + 1e-15 * reach)
    keys = [tuple(math.floor(x / side) for x in c[:k]) for c in coords]
    cells: dict[tuple[int, ...], list[int]] = {}
    for idx, key in enumerate(keys):
        cells.setdefault(key, []).append(idx)
    offsets = list(itertools.product((-1, 0, 1), repeat=k))
    near: dict[tuple[int, ...], list[int]] = {}
    for key in cells:
        near[key] = sorted(
            j
            for off in offsets
            for j in cells.get(tuple(a + b for a, b in zip(key, off)), ())
        )
    return [near[key] for key in keys]


def _squared_distances(
    ci: tuple[float, ...], others: list[tuple[float, ...]]
) -> list[float]:
    """sum((a - b) ** 2 for a, b in zip(ci, cj)) for each cj in others.

    With two coordinates the sum is spelled out, several times faster:
    0 + t0 + t1 rounds to the same float as sum(), compensated or not.
    """
    if len(ci) == 2:
        x, y = ci
        return [(x - a) ** 2 + (y - b) ** 2 for a, b in others]
    return [sum([(a - b) ** 2 for a, b in zip(ci, cj)]) for cj in others]


def probe(region: Region, config: ProbeConfig = ProbeConfig()) -> ProbeReport:
    """Sample the region and estimate its number of connected components."""
    rng = random.Random(config.seed)
    lo, hi = config.box
    # the hits, and the conjuncts that hold at each
    hits: list[tuple[float, ...]] = []
    conj: list[set[int]] = []
    for _ in range(config.n_samples):
        pt = _sample_point(rng, region, lo, hi)
        if held := _conjunct_indices(region, pt):
            hits.append(pt)
            conj.append(held)
    if not hits:
        return ProbeReport(config.n_samples, 0, 0, (), (), 0, config)
    uf = _UnionFind(len(hits))
    tables = _checkpoint_tables(region)
    coords = [_coords(region, h) for h in hits]
    r2 = LINK_RADIUS**2
    edges = 0
    # pairs in (i, j) order, as over all pairs: edge_count depends on it.
    # ri is i's root, kept current across the unions i takes part in.
    for i, near in enumerate(_cell_neighbours(coords, LINK_RADIUS)):
        later = near[bisect.bisect_right(near, i):]
        d2s = _squared_distances(coords[i], [coords[j] for j in later])
        ri = uf.find(i)
        for j, d2 in zip(later, d2s):
            if d2 > r2:
                continue
            rj = uf.find(j)
            if ri == rj:
                edges += 1
                continue
            if _segment_inside(tables, coords[i], coords[j], conj[i] & conj[j]):
                uf.union(i, j)
                ri = rj
                edges += 1
    # merge pass: sparse sampling can shatter a connected region into many
    # graph components; join representatives reachable by a checked path.
    # Pairs are tried in a fixed order, near or not, so that the rng draws
    # stay the same; pairs in disjoint conjuncts are skipped.  held maps a
    # root to its representatives' conjuncts, and shared counts the components
    # of each conjunct beyond its first: at 0 no pair is left to try.
    reps = _component_reps(uf, len(hits))
    held = {uf.find(a): conj[a] for a in reps}
    shared = sum(map(len, held.values())) - len(set().union(*held.values()))
    for a, b in itertools.product(reps, repeat=2):
        if not shared:
            break
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb or not (conj[a] & conj[b]):
            continue
        path = _find_path(region, tables, hits[a], hits[b], conj[a], conj[b], rng, config.box)
        if path is None:
            continue
        uf.union(a, b)
        shared -= len(held[ra] & held[rb])
        held[uf.find(a)] = held.pop(ra) | held.pop(rb)
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


def _find_path(
    region: Region, tables: list, p, q, sp: set[int], sq: set[int], rng: random.Random,
    box: tuple[float, float],
) -> list[tuple[float, ...]] | None:
    """The direct segment, else the first of up to MERGE_RESTARTS one-waypoint
    paths through sampled points in the box; None when none stays inside.
    sp and sq are the conjuncts that hold at p and at q."""
    cp, cq = _coords(region, p), _coords(region, q)
    if _segment_inside(tables, cp, cq, sp & sq):
        return [p, q]
    lo, hi = box
    for _ in range(MERGE_RESTARTS):
        w = _sample_point(rng, region, lo, hi)
        sw = _conjunct_indices(region, w)
        if not sw:
            continue
        cw = _coords(region, w)
        if _segment_inside(tables, cp, cw, sp & sw) and _segment_inside(
            tables, cw, cq, sw & sq
        ):
            return [p, w, q]
    return None


def connect_witnesses(
    region: Region, p: Sequence[float], q: Sequence[float]
) -> list[tuple[float, ...]] | None:
    """Search for a piecewise segment path inside the region from p to q,
    with the probe's default seed and box.

    Returns the waypoint list (including endpoints) or None when no path
    is found within the restart budget; None is not a disconnectedness
    proof.
    """
    p = tuple(float(v) for v in p)
    q = tuple(float(v) for v in q)
    sp, sq = _conjunct_indices(region, p), _conjunct_indices(region, q)
    if not (sp and sq):
        raise ValueError("endpoints must lie inside the region")
    if p == q:
        return [p]
    rng = random.Random(ProbeConfig.seed)
    tables = _checkpoint_tables(region)
    return _find_path(region, tables, p, q, sp, sq, rng, ProbeConfig.box)
