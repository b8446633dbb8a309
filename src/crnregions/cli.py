"""Command-line front end.

Commands: parse, analyze, region, witness, probe, count-roots.  Output is
JSON by default (--format text for a human summary).  Exit codes: 0
success, 2 parse error, 3 unsupported network family, 4 internal
inconsistency (region/oracle disagreement).
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from fractions import Fraction
from typing import NoReturn

import click

from . import __version__
from .classify import UnsupportedFamilyError
from .connectivity import ProbeConfig, probe
from .massaction import count_positive_steady_states, steady_state_system
from .network import (
    NetworkParseError,
    conservation_matrix,
    format_network,
    parse_network,
)
from .regions import (
    Region,
    connectivity_verdict,
    oracle_sweep,
    region_to_json,
    regions_for_network,
    trinomial_D,
)
from .unipoly import UniPoly, descartes_sign_changes, sturm_count_positive

SCHEMA_VERSION = 1

EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONSISTENT = 4


def _fail(message: str, code: int) -> NoReturn:
    # An explicit file, as in _emit: click's cached per-stream wrapper
    # would keep every redirected sys.stderr alive.
    click.echo(message, file=sys.stderr)
    sys.exit(code)


def _load_network(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        _fail(f"error: {exc}", EXIT_PARSE)
    except UnicodeDecodeError as exc:
        _fail(f"error: cannot decode {path}: {exc}", EXIT_PARSE)
    try:
        return parse_network(text)
    except NetworkParseError as exc:
        _fail(f"parse error: {exc}", EXIT_PARSE)


def _build_regions(net):
    try:
        return regions_for_network(net)
    except UnsupportedFamilyError as exc:
        _fail(f"unsupported family: {exc}", EXIT_UNSUPPORTED)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    # An explicit file: without one, click caches a wrapper per sys.stdout
    # object that keeps the stream alive, so every in-process invocation
    # under a redirected stdout would keep its whole output in memory.
    out = sys.stdout
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for line in text_lines(payload):
            click.echo(line, file=out)


def _parse_box(value: str) -> tuple[float, float]:
    try:
        lo, hi = value.split(":")
        return float(Fraction(lo)), float(Fraction(hi))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise click.BadParameter("expected lo:hi with 0 < lo < hi")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Multistationarity regions of small mass-action networks."""
    # exact coefficients and discriminants can exceed the 4300 digits CPython
    # (3.10.7 on) converts to text by default; the output must show them whole
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


fmt_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    show_default=True, help="Output format.",
)


@main.command("parse")
@click.argument("file", type=click.Path())
@fmt_option
def cmd_parse(file: str, fmt: str) -> None:
    """Parse a network file and print a summary."""
    net = _load_network(file)
    cons = conservation_matrix(net)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "network": format_network(net),
        "species": list(net.species_names),
        "rate_labels": list(net.rate_labels),
        "n_species": net.num_species,
        "n_reactions": net.num_reactions,
        # dim S + dim of its left null space = number of species
        "dim_stoichiometric_subspace": net.num_species - cons.dim,
        "n_conservation_laws": cons.dim,
        "conservation_matrix": [[str(v) for v in row] for row in cons.rows],
    }
    _emit(payload, fmt, _parse_text)


def _parse_text(p: dict):
    yield p["network"]
    yield f"species: {', '.join(p['species'])}"
    yield (
        f"{p['n_species']} species, {p['n_reactions']} reactions, "
        f"dim S = {p['dim_stoichiometric_subspace']}, "
        f"{p['n_conservation_laws']} conservation law(s)"
    )


def _classification_payload(verdict):
    if verdict is None:
        return None
    return {
        "multistationary": verdict.multistationary,
        "nondegenerate": verdict.nondegenerate,
        "matched_case": verdict.matched_case.value,
        "detail": verdict.detail,
    }


def _region_payload(region: Region) -> dict:
    return region_to_json(region, connectivity_verdict(region))


@main.command("analyze")
@click.argument("file", type=click.Path())
@fmt_option
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=100, show_default=True,
              help="Self-check sample count.")
@click.option("--no-verify", is_flag=True, help="Skip the region/oracle self-check.")
def cmd_analyze(file: str, fmt: str, seed: int, samples: int, no_verify: bool) -> None:
    """Full analysis: classification, regions, connectivity."""
    net = _load_network(file)
    enabling, allowing = _build_regions(net)
    cons = conservation_matrix(net)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "network": format_network(net),
        "dimensions": {
            "n_species": net.num_species,
            "n_reactions": net.num_reactions,
            "dim_S": net.num_species - cons.dim,
            "n_conservation_laws": cons.dim,
        },
        "classification": _classification_payload(enabling.case_tag.verdict),
        "multistationary": not allowing.is_empty,
        "allowing_region": _region_payload(allowing),
        "enabling_region": _region_payload(enabling),
        "seed": seed,
    }
    if not no_verify:
        try:
            bad = oracle_sweep(net, enabling, seed, samples)
        except UnsupportedFamilyError as exc:
            _fail(f"unsupported family: {exc}", EXIT_UNSUPPORTED)
        payload["self_check"] = {"samples": samples, "disagreements": len(bad)}
        if bad:
            _emit(payload, fmt, _analyze_text)
            lines = [f"internal inconsistency: {len(bad)}/{samples} self-check disagreements"]
            r = net.num_reactions
            for pt in bad[:3]:
                args = ["crnregions", "witness", file, "--kappa", ",".join(map(str, pt[:r]))]
                if pt[r:]:
                    args += ["--c", ",".join(map(str, pt[r:]))]
                lines.append("  reproduce: " + shlex.join(args))
            _fail("\n".join(lines), EXIT_INCONSISTENT)
    _emit(payload, fmt, _analyze_text)


def _analyze_text(p: dict):
    yield p["network"]
    d = p["dimensions"]
    yield (
        f"{d['n_species']} species, {d['n_reactions']} reactions, "
        f"dim S = {d['dim_S']}"
    )
    yield f"multistationary: {p['multistationary']}"
    cls = p["classification"]
    if cls:
        detail = f" ({cls['detail']})" if cls["detail"] else ""
        yield f"classification: {cls['matched_case']}{detail}"
    for kind in ("allowing", "enabling"):
        reg = p[f"{kind}_region"]
        conn = reg["connectivity"]
        yield (
            f"{kind} region: {_describe_region(reg)}; "
            f"connectivity {conn['value']} [{conn['justification']}]"
        )
    if "self_check" in p:
        sc = p["self_check"]
        yield f"self-check: {sc['disagreements']} disagreements in {sc['samples']} samples"


def _describe_region(reg: dict) -> str:
    if not reg["conjuncts"]:
        return "empty"
    if reg["conjuncts"] == [[]]:
        return "full positive orthant"
    parts = []
    for conj in reg["conjuncts"]:
        parts.append(
            " and ".join(_describe_condition(c, reg["ambient"]) for c in conj)
        )
    return " OR ".join(f"{{{p}}}" for p in parts)


def _describe_condition(cond: dict, ambient) -> str:
    terms = []
    for coeff, exps in cond["poly"]:
        mono = "".join(
            f"{s}" + (f"^{e}" if e > 1 else "")
            for s, e in zip(ambient, exps)
            if e
        )
        if mono and abs(coeff) == 1:
            terms.append(("-" if coeff < 0 else "+") + mono)
        else:
            terms.append(f"{coeff:+d}{mono}")
    expr = " ".join(terms).lstrip("+")
    return f"{expr} {cond['rel'][0]} 0"


@main.command("region")
@click.argument("file", type=click.Path())
@fmt_option
@click.option("--kind", type=click.Choice(["allowing", "enabling"]),
              default="allowing", show_default=True)
def cmd_region(file: str, fmt: str, kind: str) -> None:
    """Print the multistationarity region of one kind."""
    net = _load_network(file)
    enabling, allowing = _build_regions(net)
    region = allowing if kind == "allowing" else enabling
    payload = {"schema_version": SCHEMA_VERSION, **_region_payload(region)}
    _emit(payload, fmt, lambda p: [_describe_region(p)])


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(v.strip()) for v in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter("expected comma-separated rationals")


@main.command("witness")
@click.argument("file", type=click.Path())
@fmt_option
@click.option("--kappa", type=str, default=None,
              help="Rate constants as comma-separated rationals.")
@click.option("--c", "c_value", type=str, default=None,
              help="Total constants as comma-separated rationals; needs --kappa.")
def cmd_witness(file, fmt, kappa, c_value) -> None:
    """Steady states at a parameter point inside the region.

    Without --kappa, uses the rational witness stored with the region.
    """
    net = _load_network(file)
    enabling, allowing = _build_regions(net)
    sys_ = steady_state_system(net)
    n_c = enabling.totals
    if kappa is not None:
        kap = _parse_fraction_list(kappa)
        cs = _parse_fraction_list(c_value) if c_value else ()
    elif c_value is not None:
        _fail("--c needs --kappa: the stored witness fixes its own totals", EXIT_PARSE)
    else:
        stored = next((w for w in enabling.witnesses if w is not None), None)
        if stored is None:
            why = "the enabling region is empty" if not enabling.conjuncts else "no stored witness"
            _fail(f"{why}, so --kappa is needed", EXIT_PARSE)
        kap = stored[: net.num_reactions]
        cs = stored[net.num_reactions:]
    if len(kap) != net.num_reactions or len(cs) != n_c:
        _fail("parameter dimensions do not match the network", EXIT_PARSE)
    if any(v <= 0 for v in kap):
        _fail("rate constants must be positive", EXIT_PARSE)
    try:
        result = count_positive_steady_states(sys_, kap, cs)
    except UnsupportedFamilyError as exc:
        _fail(f"unsupported family: {exc}", EXIT_UNSUPPORTED)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kappa": [str(v) for v in kap],
        "c": [str(v) for v in cs],
        "count": result.count,
        "certified": result.certified,
        "continuum": result.continuum,
        "steady_states": [[str(x) for x in w] for w in result.witnesses],
    }
    _emit(payload, fmt, _witness_text)


def _witness_text(p: dict):
    yield f"kappa = ({', '.join(p['kappa'])})" + (
        f", c = ({', '.join(p['c'])})" if p["c"] else ""
    )
    yield f"positive steady states: {p['count']}" + (
        " (continuum)" if p["continuum"] else ""
    )
    for w in p["steady_states"]:
        yield "  (" + ", ".join(w) + ")"


@main.command("probe")
@click.argument("file", type=click.Path())
@fmt_option
@click.option("--kind", type=click.Choice(["allowing", "enabling"]),
              default="allowing", show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--samples", type=int, default=4000, show_default=True)
@click.option("--box", type=str, default=":".join(map(str, map(Fraction, ProbeConfig.box))),
              show_default=True, help="Sampling interval lo:hi (positive).")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Write component representatives as CSV.")
def cmd_probe(file, fmt, kind, seed, samples, box, csv_path) -> None:
    """Sampling-based connectivity probe of the region."""
    net = _load_network(file)
    enabling, allowing = _build_regions(net)
    region = allowing if kind == "allowing" else enabling
    verdict = connectivity_verdict(region)
    try:
        cfg = ProbeConfig(seed=seed, n_samples=samples, box=_parse_box(box))
    except ValueError as exc:
        _fail(f"bad parameter: {exc}", EXIT_PARSE)
    try:
        report = probe(region, cfg)
    except OverflowError:
        _fail(
            "box too wide, or region coefficients too large, for floating-point evaluation",
            EXIT_PARSE,
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "analytic_verdict": {
            "value": verdict.value,
            "justification": verdict.justification,
        },
        "probe": report.to_json(),
    }
    if csv_path:
        try:
            with open(csv_path, "w", newline="") as fh:
                report.write_csv(fh)
        except OSError as exc:
            _fail(f"error: cannot write {csv_path}: {exc}", EXIT_PARSE)
    _emit(payload, fmt, _probe_text)


def _probe_text(p: dict):
    v = p["analytic_verdict"]
    yield f"analytic verdict: {v['value']} [{v['justification']}]"
    r = p["probe"]
    yield (
        f"probe: {r['accepted_samples']}/{r['n_samples']} samples accepted, "
        f"{r['component_count']} component(s), {r['edge_count']} edges (seed {r['seed']})"
    )


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?P<coeff>\d+(?:/0*[1-9]\d*)?)?\s*"
    r"(?:(?P<var>[a-zA-Z]\w*)\s*(?:\^\s*(?P<exp>\d+))?)?"
)


def _parse_poly(text: str) -> UniPoly:
    """Parse strings like "x^2 - 3x + 2" into a UniPoly, scaled to integer
    coefficients by the lcm of the denominators.  Every term after the first
    starts with + or -."""
    coeffs: dict[int, Fraction] = {}
    pos = 0
    var_name = None
    text = text.strip()
    if not text:
        raise click.BadParameter("empty polynomial")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (pos and not m.group("sign")):
            raise click.BadParameter(f"cannot parse polynomial near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("var"):
            if var_name is None:
                var_name = m.group("var")
            elif m.group("var") != var_name:
                raise click.BadParameter("polynomial must be univariate")
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            if m.group("coeff") is None:
                raise click.BadParameter(f"cannot parse polynomial near {text[pos:]!r}")
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
    deg = max(coeffs)
    return UniPoly.from_rationals(coeffs.get(i, 0) for i in range(deg + 1))


def _trinomial_D(p: UniPoly) -> Fraction | None:
    """trinomial_D(b, c, 1, n, k) when p divided by its leading coefficient
    is x^n - c x^k + b with b, c > 0, else None."""
    support = [i for i, c in enumerate(p.coeffs) if c != 0]
    if len(support) != 3 or support[0] != 0:
        return None
    k, n = support[1], support[2]
    lead = p.coeffs[n]
    b, c = Fraction(p.coeffs[0], lead), Fraction(-p.coeffs[k], lead)
    if b <= 0 or c <= 0:
        return None
    return trinomial_D(b, c, 1, n, k)


@main.command("count-roots")
@click.option("--poly", required=True, help='Polynomial, e.g. "x^2-3x+2".')
@fmt_option
def cmd_count_roots(poly: str, fmt: str) -> None:
    """Compare Descartes, Sturm, and trinomial-trichotomy positive-root counts."""
    p = _parse_poly(poly)
    if p.is_zero:
        _fail("zero polynomial has no root count", EXIT_PARSE)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "poly": poly,
        "descartes_bound": descartes_sign_changes(p),
        "sturm": sturm_count_positive(p),
    }
    D = _trinomial_D(p)
    if D is not None:
        # two positive roots when D < 0, a double one when D = 0, none when D > 0
        payload["trichotomy"] = 2 if D < 0 else 1 if D == 0 else 0
        payload["trinomial_D"] = str(D)
    else:
        payload["trichotomy"] = None
    _emit(payload, fmt, _roots_text)


def _roots_text(p: dict):
    yield f"descartes bound: {p['descartes_bound']}"
    yield f"sturm count (distinct positive roots): {p['sturm']}"
    if p["trichotomy"] is not None:
        yield f"trichotomy count: {p['trichotomy']} (D = {p['trinomial_D']})"


if __name__ == "__main__":
    main()
