"""Seeded sampling probe for region connectivity.

The probe draws parameter points in a box, keeps the ones inside the
region, links nearby hits whose connecting segment stays inside, and
reports the components of the resulting graph.  Sparse components are
then merged when a straight segment or a three-leg detour between them
passes the same segment test, so the count reflects geometry rather than
sampling density.  It is numerical evidence, not a proof.

A segment stays inside when one conjunct holding at both ends holds at its
checkpoints.  A strict condition with at most two terms and no total
constant is a half-space in log-rate coordinates, or holds everywhere or
nowhere, and gets no checkpoints; the others are tested at the checkpoint
points, one exp per rate coordinate each, by the evaluator that tests draws.

math.dist decides each link: two hits are link candidates when the
math.dist of their sampling coordinates is at most LINK_RADIUS.  Candidates
come from a cell list (Bentley, Stanat and Williams 1977, fixed-radius near
neighbours) on the first three sampling coordinates, so the report, edge
count included, is the one the math.dist test over all pairs gives.  Each
cell has one integer key and keeps its hits' coordinates beside its sorted
neighbour list, so a hit measures its later neighbours on a slice.
Each hit carries its component's label and each label lists its hits; a
join relabels the smaller component, so a linked pair costs one list read.
The merge pass tries pairs of representatives in a fixed order and stops
once no two components share a conjunct.  Its first round tests only the
straight segment between two representatives; the pairs that round leaves
apart then try three-leg detours to the hits of the other component.  The
detours come second because the cheap straight joins have by then merged
most components.  Only the sampling draws from the seeded generator: the
link and merge passes depend on the hits alone.

The float work runs in batches.  Draws are sampled and tested CHUNK at a
time, one condition at a time over the draws that passed the ones before,
each condition through one compiled expression (SymPoly.evaluate_floats).
A segment test builds its checkpoints as one batch of points, one coordinate
column at a time, and tests them through the same evaluator, by way of
SignCondition.holds_floats.  Every float is still computed by the same
operations in the same order as for one draw, one checkpoint or one pair at
a time, so a seed's report is unchanged by the batching, bit for bit.

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
from operator import sub
from typing import Sequence, TextIO

from .regions import Region, SignCondition

LINK_RADIUS = 1.0  # hits this close in sampling coordinates are link candidates
SEGMENT_CHECKS = 32  # interior checkpoints of each segment test
CHUNK = 256  # draws sampled and tested per batch
DETOUR_SHIFTS = (1, -1, 2, -2, 3, -3)  # k of the 2^k rate scalings a detour tries

# the checkpoints' t = j / (SEGMENT_CHECKS + 1), 0 < j <= SEGMENT_CHECKS
_TS = [j / (SEGMENT_CHECKS + 1) for j in range(1, SEGMENT_CHECKS + 1)]


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


def _sample_points(
    rng: random.Random, region: Region, lo: float, hi: float, m: int
) -> list[tuple[float, ...]]:
    """m draws: each rate exp of a uniform draw in [log lo, log hi], each
    total a uniform draw in [-hi, hi].

    The rng is called draw by draw and coordinate by coordinate, and
    rng.uniform(a, b) is a + (b - a) * rng.random(), so each draw is the one
    that rng.uniform, called coordinate by coordinate, gives, bit for bit.
    The draws are then converted one coordinate column at a time.
    """
    exp, llo, lhi = math.exp, math.log(lo), math.log(hi)
    d, n = len(region.ambient), len(region.ambient) - region.totals
    rs = [rng.random() for _ in range(m * d)]
    cols = [[exp(llo + (lhi - llo) * r) for r in rs[c::d]] for c in range(n)]
    cols += [[-hi + (hi - -hi) * r for r in rs[c::d]] for c in range(n, d)]
    return list(zip(*cols))


def _coords(region: Region, point: Sequence[float]) -> tuple[float, ...]:
    """Sampling coordinates: log for rate constants, identity for totals."""
    n = len(region.ambient) - region.totals
    return tuple(map(math.log, point[:n])) + tuple(point[n:])


def _held(region: Region, points: Sequence[Sequence[float]]) -> list[frozenset[int]]:
    """The conjuncts that hold at each point of a batch (the points outside
    share one empty set).

    A conjunct's conditions are tested in order, each one only at the points
    that passed the ones before, so each point gets the float evaluations
    that testing it alone, condition by condition, would make.
    """
    held: list[frozenset[int]] = [frozenset()] * len(points)
    for k, conj in enumerate(region.conjuncts):
        idx, rows = range(len(points)), points
        for cond in conj:
            mask = list(cond.holds_floats(rows))
            if not all(mask):
                idx = list(itertools.compress(idx, mask))
                rows = list(itertools.compress(rows, mask))
                if not idx:
                    break
        for t in idx:
            held[t] = held[t] | {k}
    return held


def _conjunct_indices(region: Region, pt) -> frozenset[int]:
    return _held(region, [pt])[0]


def _curved(region: Region) -> list[list[SignCondition]]:
    """Per conjunct, the conditions the segment test checkpoints: a half-space
    is left out, since it holds on a segment when it holds at both ends."""
    n = len(region.ambient) - region.totals
    return [
        [c for c in conj
         if c.rel == "=0" or len(c.poly.terms) > 2 or any(any(e[n:]) for e in c.poly.terms)]
        for conj in region.conjuncts
    ]


def _segment_inside(region: Region, curved: list, cp, cq, live: frozenset[int]) -> bool:
    """Check the segment from cp to cq (sampling coordinates) stays inside
    one of the conjuncts live, those that hold at both endpoints.

    The whole segment must satisfy one common conjunct: finitely many
    checkpoints could otherwise jump across a thin gap between two
    disjoint conjuncts of a union.  This is conservative — it can split
    components that overlap across conjuncts, but never falsely joins.
    A live conjunct with no curved condition passes at once; the others test
    theirs at the checkpoints cp + t (cq - cp), t in _TS (exp for the rates).
    """
    if not live:
        return False
    if not all(curved[i] for i in live):
        return True
    n, exp = len(region.ambient) - region.totals, math.exp
    steps = list(map(sub, cq, cp))
    cols = [[exp(a + t * d) for t in _TS] for a, d in zip(cp[:n], steps[:n])]
    cols += [[a + t * d for t in _TS] for a, d in zip(cp[n:], steps[n:])]
    points = list(zip(*cols))
    return any(all(all(c.holds_floats(points)) for c in curved[i]) for i in live)


def _cell_neighbours(coords: list[tuple[float, ...]], radius: float) -> list[tuple[list, list]]:
    """For each point, the sorted indices of the points in its 3^k nearby
    cells, and those points' coordinates in the same order.

    Cells are hashed on the first k = min(3, d) coordinates.  Their side is
    the radius widened by 1e-9 and by 1e-15 of the largest |x| / radius,
    which exceeds the rounding of math.dist and of x / side: two points whose
    math.dist is at most the radius are never two cells apart on an axis, so
    the lists hold every such pair.  A cell's key mixes its floor(x / side)
    + 1 - min per axis in a radix two wider than their range, so a
    neighbour's -1 or +1 never carries into the next axis.
    """
    k = min(3, len(coords[0]))
    reach = max((abs(x) for c in coords for x in c[:k]), default=0.0) / radius
    side = radius * (1 + 1e-9 + 1e-15 * reach)
    keys, offsets, stride = [0] * len(coords), [0], 1
    for axis in range(k):
        col = [math.floor(c[axis] / side) for c in coords]
        low = min(col) - 1
        keys = [key + (f - low) * stride for key, f in zip(keys, col)]
        offsets = [o + s * stride for o in offsets for s in (-1, 0, 1)]
        stride *= max(col) - low + 2
    cells: dict[int, list[int]] = {}
    for idx, key in enumerate(keys):
        cells.setdefault(key, []).append(idx)
    near = {}
    for key in cells:
        js = sorted(j for off in offsets for j in cells.get(key + off, ()))
        near[key] = (js, list(map(coords.__getitem__, js)))
    return [near[key] for key in keys]


def _within_radius(ci: tuple[float, ...], later: list[int], points: list) -> list[int]:
    """The j in later, in order, whose point (points[t] for later[t]) has
    math.dist from ci at most LINK_RADIUS."""
    ds = map(math.dist, itertools.repeat(ci), points)
    return list(itertools.compress(later, map(LINK_RADIUS.__ge__, ds)))


def _join(label: list[int], members: list[list[int]], a: int, b: int) -> int:
    """Join the components labelled a and b; the smaller takes the larger's
    label, which is returned."""
    if len(members[a]) < len(members[b]):
        a, b = b, a
    for h in members[b]:
        label[h] = a
    members[a] += members[b]
    members[b] = []
    return a


def probe(region: Region, config: ProbeConfig = ProbeConfig()) -> ProbeReport:
    """Sample the region and estimate its number of connected components."""
    rng = random.Random(config.seed)
    lo, hi = config.box
    # the hits, and the conjuncts that hold at each
    hits: list[tuple[float, ...]] = []
    conj: list[frozenset[int]] = []
    for start in range(0, config.n_samples, CHUNK):
        draws = _sample_points(rng, region, lo, hi, min(CHUNK, config.n_samples - start))
        for pt, held in zip(draws, _held(region, draws)):
            if held:
                hits.append(pt)
                conj.append(held)
    if not hits:
        return ProbeReport(config.n_samples, 0, 0, (), (), 0, config)
    curved = _curved(region)
    coords = [_coords(region, h) for h in hits]
    # label[i] names i's component and members[l] lists the hits labelled l
    label = list(range(len(hits)))
    members = [[i] for i in label]
    edges = 0
    # pairs in (i, j) order, as over all pairs: edge_count depends on it.
    # li is i's label, kept current across the joins i takes part in.
    for i, (near, points) in enumerate(_cell_neighbours(coords, LINK_RADIUS)):
        li, cut = label[i], bisect.bisect_right(near, i)
        for j in _within_radius(coords[i], near[cut:], points[cut:]):
            if label[j] == li:
                edges += 1
            elif _segment_inside(region, curved, coords[i], coords[j], conj[i] & conj[j]):
                li = _join(label, members, li, label[j])
                edges += 1
    # merge pass: sparse sampling can shatter a connected region into many
    # graph components; join representatives (each component's first hit)
    # reachable by a checked path: the straight segment in a first round,
    # detours to the hits of b's component in a second.  Pairs in disjoint
    # conjuncts are skipped.  held maps a label to its representatives'
    # conjuncts, and shared counts the components of each conjunct beyond
    # its first: at 0 no pair is left.
    reps = sorted(map(min, filter(None, members)))
    held = {label[a]: conj[a] for a in reps}
    shared = sum(map(len, held.values())) - len(set().union(*held.values()))
    searches = (
        lambda a, b: _segment_inside(region, curved, coords[a], coords[b], conj[a] & conj[b]),
        lambda a, b: _detour(region, curved, hits[a], conj[a], [
            (hits[h], conj[h]) for h in sorted(members[label[b]])
        ]),
    )
    for search in searches:
        for a, b in itertools.product(reps, repeat=2):
            if not shared:
                break
            la, lb = label[a], label[b]
            if la == lb or not (conj[a] & conj[b]) or not search(a, b):
                continue
            shared -= len(held[la] & held[lb])
            merged = held.pop(la) | held.pop(lb)
            held[_join(label, members, la, lb)] = merged
    # largest first, ties in the order of their first hits
    groups = sorted(map(sorted, filter(None, members)), key=lambda g: (-len(g), g[0]))
    return ProbeReport(
        config.n_samples,
        len(hits),
        len(groups),
        tuple(len(g) for g in groups),
        tuple(hits[g[0]] for g in groups),
        edges,
        config,
    )


def _detour(
    region: Region, curved: list, p, sp: frozenset[int],
    targets: list[tuple[tuple, frozenset[int]]],
) -> list[tuple[float, ...]] | None:
    """The first three-leg path p, p', q', q that stays inside, or None.

    p' and q' scale one rate of p and of a target q by the same 2^k, k in
    DETOUR_SHIFTS: a shift by k log 2 along one axis of the sampling
    coordinates.  Rates are tried in order, then shifts, then the targets,
    (q, conjuncts that hold at q) pairs, in their order; sp holds at p.
    Nothing is drawn at random.
    """
    cp = _coords(region, p)
    for i in range(len(region.ambient) - region.totals):
        for k in DETOUR_SHIFTS:
            f = 2.0**k
            p2 = p[:i] + (p[i] * f,) + p[i + 1:]
            s2 = _conjunct_indices(region, p2)
            cp2 = _coords(region, p2)
            if not _segment_inside(region, curved, cp, cp2, sp & s2):
                continue
            moved = [q[:i] + (q[i] * f,) + q[i + 1:] for q, _ in targets]
            for (q, sq), q2, sq2 in zip(targets, moved, _held(region, moved)):
                cq2 = _coords(region, q2)
                if _segment_inside(region, curved, cp2, cq2, s2 & sq2) and _segment_inside(
                    region, curved, cq2, _coords(region, q), sq2 & sq
                ):
                    return [p, p2, q2, q]
    return None


def connect_witnesses(
    region: Region, p: Sequence[float], q: Sequence[float]
) -> list[tuple[float, ...]] | None:
    """A piecewise segment path inside the region from p to q: [p, q] when
    the straight segment stays inside, else the first three-leg detour
    (_detour), else None.

    The path is the waypoint list, endpoints included, and depends only on
    region, p and q: nothing is drawn at random.  None is not a
    disconnectedness proof.
    """
    p = tuple(float(v) for v in p)
    q = tuple(float(v) for v in q)
    sp, sq = _conjunct_indices(region, p), _conjunct_indices(region, q)
    if not (sp and sq):
        raise ValueError("endpoints must lie inside the region")
    if p == q:
        return [p]
    curved = _curved(region)
    if _segment_inside(region, curved, _coords(region, p), _coords(region, q), sp & sq):
        return [p, q]
    return _detour(region, curved, p, sp, [(q, sq)])
