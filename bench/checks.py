"""Independent checks of crnregions outputs.

Nothing in this module imports crnregions.  Networks are parsed by a small
parser of their own, mass-action right-hand sides are built from the
stoichiometry, and conservation laws, Descartes bounds and region
conditions are computed or evaluated with exact rationals.  A check returns
a Verdict: ``ok``; ``fault``, for an output the program could not complete
(fewer states listed than counted, a stored witness outside its own
region); or ``wrong``, for an output that contradicts the mathematics.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class Verdict(NamedTuple):
    status: str  # "ok", "fault" or "wrong"
    reason: str = ""


OK = Verdict("ok")


def fault(reason: str) -> Verdict:
    return Verdict("fault", reason)


def wrong(reason: str) -> Verdict:
    return Verdict("wrong", reason)


# ---------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class Net:
    species: tuple[str, ...]
    reactions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (reactant, product)


_TERM = re.compile(r"^\s*(\d*)\s*([A-Za-z_]\w*)\s*$")


def parse_crn(text: str) -> Net:
    """Parse ``reactant -> product; label`` lines (species in order of first use)."""
    species: dict[str, int] = {}
    raw = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].split(";", 1)[0].strip()
        if not body:
            continue
        lhs, arrow, rhs = body.partition("->")
        if not arrow or "<" in body or "," in body:
            raise ValueError(f"unsupported statement {line!r}")
        sides = []
        for side in (lhs, rhs):
            terms = []
            if side.strip() != "0":
                for part in side.split("+"):
                    m = _TERM.match(part)
                    if not m:
                        raise ValueError(f"bad term {part!r}")
                    species.setdefault(m.group(2), len(species))
                    terms.append((species[m.group(2)], int(m.group(1) or 1)))
            sides.append(terms)
        raw.append(sides)

    def vec(terms):
        v = [0] * len(species)
        for idx, coeff in terms:
            v[idx] += coeff
        return tuple(v)

    return Net(tuple(species), tuple((vec(a), vec(b)) for a, b in raw))


def complex_text(coeffs, names) -> str:
    parts = [n if c == 1 else f"{c}{n}" for c, n in zip(coeffs, names) if c]
    return " + ".join(parts) or "0"


def ode_terms(net: Net, kappa) -> list[dict[tuple[int, ...], Fraction]]:
    """Mass-action right-hand side at kappa: per species, monomial -> coefficient."""
    out: list[dict[tuple[int, ...], Fraction]] = [{} for _ in net.species]
    for k, (y, yp) in zip(kappa, net.reactions):
        for j, (a, b) in enumerate(zip(y, yp)):
            if b != a:
                out[j][y] = out[j].get(y, Fraction(0)) + Fraction(k) * (b - a)
    return [{e: c for e, c in f.items() if c} for f in out]


def evaluate(terms: dict[tuple[int, ...], Fraction], x) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        v = coeff
        for base, e in zip(x, exps):
            if e:
                v *= base**e
        total += v
    return total


def conservation_row(net: Net) -> tuple[Fraction, Fraction] | None:
    """RREF conservation row of a two-species net with parallel reaction vectors."""
    if len(net.species) != 2:
        return None
    vectors = [tuple(b - a for a, b in zip(y, yp)) for y, yp in net.reactions]
    v1, v2 = vectors[0]
    if any(a * v2 - b * v1 for a, b in vectors):
        return None
    w = (Fraction(-v2), Fraction(v1))  # orthogonal to every reaction vector
    lead = w[0] if w[0] else w[1]
    return (w[0] / lead, w[1] / lead)


def descartes(coeffs: dict[int, Fraction]) -> int:
    """Sign changes of a univariate coefficient list, zeros dropped."""
    signs = [c > 0 for _, c in sorted(coeffs.items()) if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _univariate(terms, axis: int, fixed: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for exps, coeff in terms.items():
        v = coeff
        for i, val in fixed.items():
            v *= val ** exps[i]
        out[exps[axis]] = out.get(exps[axis], Fraction(0)) + v
    return out


def _on_line(terms, alpha: Fraction, beta: Fraction) -> dict[int, Fraction]:
    """terms(x1, alpha + beta*x1) as a polynomial in x1."""
    out: dict[int, Fraction] = {}
    for (e1, e2), coeff in terms.items():
        for i in range(e2 + 1):
            d = e1 + i
            out[d] = out.get(d, Fraction(0)) + coeff * math.comb(e2, i) * alpha ** (e2 - i) * beta**i
    return out


def descartes_bound(net: Net, kappa, c) -> int:
    """An upper bound on positive steady states in the class fixed by c."""
    f = ode_terms(net, kappa)
    if len(net.species) == 1:
        return descartes(_univariate(f[0], 0, {}))
    live = next(t for t in f if t)
    w = conservation_row(net)
    if w is not None:
        if w[1] == 0:
            return descartes(_univariate(live, 1, {0: c[0]}))
        return descartes(_on_line(live, c[0] / w[1], -w[0] / w[1]))
    # full dimensional: one ODE must depend on a single coordinate and
    # vanish at exactly one positive value of it (the ACR shape)
    for axis in (0, 1):
        other = 1 - axis
        uni, rest = f[axis], f[other]
        if any(e[other] for e in uni):
            continue
        coeffs = {e[axis]: v for e, v in uni.items()}
        low = min(coeffs)
        if sorted(coeffs) != [low, low + 1]:
            continue
        root = -coeffs[low] / coeffs[low + 1]
        if root <= 0:
            return 0
        return descartes(_univariate(rest, other, {axis: root}))
    raise ValueError("no Descartes bound for this network shape")


def _step(v: Fraction) -> Fraction:
    """1000 times the width refine_root bisects to: 1e-12 * max(|v|, 1)."""
    return Fraction(1, 10**9) * max(abs(v), 1)


def is_steady_state(net: Net, kappa, state, c=None) -> bool:
    """True when every ODE is exactly 0 at state, or all change sign between
    state -/+ _step along one direction (a refined irrational root)."""
    f = ode_terms(net, kappa)
    values = [evaluate(t, state) for t in f]
    if not any(values):
        return True
    moves = [
        lambda x, s, i=i: tuple(v + s * _step(v) if j == i else v for j, v in enumerate(x))
        for i in range(len(state))
    ]
    w = conservation_row(net)
    if w is not None and w[1] != 0:
        def along_line(x, s):
            x1 = x[0] + s * _step(x[0])
            return (x1, (c[0] - w[0] * x1) / w[1])
        moves.append(along_line)
    return any(
        all(
            v == 0 or evaluate(t, move(state, -1)) * evaluate(t, move(state, 1)) <= 0
            for t, v in zip(f, values)
        )
        for move in moves
    )


# ---------------------------------------------------------------------------
# Regions, as the program serializes them


def eval_condition(cond: dict, point) -> Fraction:
    total = Fraction(0)
    for coeff, exps in cond["poly"]:
        v = Fraction(coeff)
        for base, e in zip(point, exps):
            if e:
                v *= Fraction(base) ** e
        total += v
    return total


def holds(cond: dict, point) -> bool:
    v = eval_condition(cond, point)
    return {"<0": v < 0, ">0": v > 0, "=0": v == 0}[cond["rel"]]


def inside(region_doc: dict, point) -> bool:
    return any(all(holds(c, point) for c in conj) for conj in region_doc["conjuncts"])


def _normalized(terms: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    n = len(next(iter(terms)))
    mins = [min(e[i] for e in terms) for i in range(n)]
    g = math.gcd(*terms.values())
    return {tuple(a - m for a, m in zip(e, mins)): c // g for e, c in terms.items()}


def same_condition(cond: dict, expected: dict[tuple[int, ...], int], rel: str) -> bool:
    """cond is {expected rel 0} up to a positive monomial and rational scale."""
    got = _normalized({tuple(e): c for c, e in cond["poly"]})
    want = _normalized(expected)
    if cond["rel"] == rel:
        return got == want
    flipped = {"<0": ">0", ">0": "<0"}.get(rel)
    return cond["rel"] == flipped and got == {e: -c for e, c in want.items()}


def _joshi(n: int, ell: int):
    return {(0, n, 0): (n - 1) ** (n - 1), (n - 1, 0, 1): -(n**n) * ell}


# The paper's published inequalities, as criterion 2 of the acceptance suite
# states them: name -> (region kind, expected strict conditions).
TABLE = {
    "running": ("enabling", [{(1, 0, 2): 1, (0, 1, 0): -4}]),
    "acr": ("allowing", [{(0, 2, 0, 1, 0): 1, (1, 0, 1, 0, 1): -4}]),
    "joshi_n2": ("allowing", [_joshi(2, 1)]),
    "joshi_n3l1": ("allowing", [_joshi(3, 1)]),
    "joshi_n3l2": ("allowing", [_joshi(3, 2)]),
    "joshi_n5l4": ("allowing", [_joshi(5, 4)]),
    "ex53": ("allowing", [{(0, 3, 0): 4, (2, 0, 1): -27}]),
    "eq19": (
        "allowing",
        [
            {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1},
            {(0, 0, 2, 0): 1, (1, 0, 0, 1): -4, (0, 1, 0, 1): 4},
        ],
    ),
}

# Analytic connectivity verdicts of the allowing regions.
CONNECTIVITY = {**{name: "Connected" for name in TABLE}, "prop51": "Disconnected"}


def check_analyze(name: str, code, doc: dict | None) -> Verdict:
    if doc is None:
        return fault(f"analyze exited with {code} and printed no result")
    if doc["self_check"]["disagreements"]:
        return wrong(f"{doc['self_check']['disagreements']} self-check disagreements")
    if code != 0:
        return fault(f"analyze exited with {code}")
    if name in TABLE:
        kind, expected = TABLE[name]
        region = doc[f"{kind}_region"]
        if len(region["conjuncts"]) != 1:
            return wrong(f"{kind} region of {name} is not one conjunct")
        # single-term '> 0' conditions only restate positivity of a symbol
        strict = [
            c for c in region["conjuncts"][0] if len(c["poly"]) > 1 or c["rel"] != ">0"
        ]
        if len(strict) != len(expected) or not all(
            same_condition(c, e, ">0") for c, e in zip(strict, expected)
        ):
            return wrong(f"{kind} region of {name} differs from the published inequality")
    if name == "running" and doc["allowing_region"]["conjuncts"] != [[]]:
        return wrong("allowing region of running is not the full orthant")
    want = CONNECTIVITY.get(name)
    got = doc["allowing_region"]["connectivity"]["value"]
    if want is not None and got != want:
        return wrong(f"{name} allowing region is {got}, expected {want}")
    return OK


RUNNING_EXAMPLE = {(Fraction(1, 2), Fraction(2)), (Fraction(2), Fraction(1, 2))}


def check_witness(net: Net, kappa, c, doc: dict, exact=None) -> Verdict:
    """Steady states reported at a point inside the enabling region.

    A count below 2, a count above the Descartes bound, or a listed state
    that is positive but breaks the conservation law or the ODE is wrong.
    A listed state that is not positive, or fewer states than counted, is
    a fault: the count stands but the listing is incomplete.
    """
    count = doc["count"]
    states = [tuple(Fraction(v) for v in s) for s in doc["steady_states"]]
    if count < 2:
        return wrong(f"count {count} at a point inside the enabling region")
    if len(states) > count or len(set(states)) != len(states):
        return wrong(f"{len(states)} states listed for count {count}")
    w = conservation_row(net)
    positive = [s for s in states if min(s) > 0]
    for s in positive:
        if w is not None and w[0] * s[0] + w[1] * s[1] != c[0]:
            return wrong(f"state {s} violates the conservation law")
        if not is_steady_state(net, kappa, s, c):
            return wrong(f"state {s} is not a steady state")
    bound = descartes_bound(net, kappa, c)
    if count > bound:
        return wrong(f"count {count} exceeds the Descartes bound {bound}")
    if exact is not None and len(states) == count and set(states) != exact:
        return wrong(f"states {states} differ from {exact}")
    if len(positive) < len(states):
        return fault("a listed steady state is not positive")
    if len(states) < count:
        return fault(f"{len(states)} of {count} counted states listed")
    return OK


def check_probe(name: str, doc: dict, member) -> Verdict:
    """Probe output; member(point) is the float membership test of the region."""
    verdict = doc["analytic_verdict"]["value"]
    want = CONNECTIVITY[name]
    if verdict != want:
        return wrong(f"analytic verdict {verdict}, expected {want}")
    p = doc["probe"]
    comps = 2 if want == "Disconnected" else 1
    if p["component_count"] != comps:
        return wrong(f"{p['component_count']} components, expected {comps}")
    if sum(p["component_sizes"]) != p["accepted_samples"]:
        return wrong("component sizes do not sum to the accepted count")
    if len(p["component_representatives"]) != p["component_count"]:
        return wrong("one representative per component expected")
    if name == "running" and p["accepted_samples"] != p["n_samples"]:
        return wrong("the full orthant rejected a sample")
    if not all(member(rep) for rep in p["component_representatives"]):
        return wrong("a representative lies outside the region")
    return OK


def one_species_multistationary(pairs) -> bool:
    """Three distinct reactant coefficients whose directions alternate by reactant."""
    if len({m for m, _ in pairs}) != 3:
        return False
    signs = tuple(p > m for m, p in sorted(pairs))
    return signs in ((True, False, True), (False, True, False))
