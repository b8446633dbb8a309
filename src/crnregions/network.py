"""Reaction network parsing, validation, and stoichiometric structure.

The text format is one statement per line (or comma-separated), where a
statement chains complexes with arrows:

    2A + B -> 3A
    0 <- A, 2A -> 3A <- 4A      # chains share the middle complex
    A <-> B ; kf                # reversible, labels kf_f and kf_r

``<->`` expands to a forward and a reverse reaction.  Rate labels default
to k1, k2, ... in reaction order; an explicit ``; label`` clause names the
one reaction its statement produces, or the ``_f``/``_r`` pair of one
``<->``.  Labels, like species names, are identifiers: a letter or ``_``,
then letters, digits and ``_``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

MAX_COEFF = 2**31 - 1

_TERM_RE = re.compile(r"^(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)$")
_ARROW_RE = re.compile(r"(<->|->|<-)")


class NetworkParseError(ValueError):
    """Syntax or validation error in the network DSL, with position info."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        loc = f" (line {line}, col {column})" if line else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Complex:
    """Stoichiometric coefficient vector of one side of a reaction."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coeffs):
            raise ValueError("complex coefficients must be nonnegative")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class Reaction:
    reactant: Complex
    product: Complex
    rate_label: str

    def __post_init__(self) -> None:
        if self.reactant == self.product:
            raise ValueError("reactant and product coincide (zero reaction vector)")

    def vector(self) -> tuple[int, ...]:
        return tuple(p - r for r, p in zip(self.reactant.coeffs, self.product.coeffs))


@dataclass(frozen=True)
class ReactionNetwork:
    species_names: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self) -> None:
        n = len(self.species_names)
        for rxn in self.reactions:
            if len(rxn.reactant.coeffs) != n or len(rxn.product.coeffs) != n:
                raise ValueError("complex length does not match species count")
        pairs = [(r.reactant, r.product) for r in self.reactions]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate reaction (same reactant and product)")
        labels = [r.rate_label for r in self.reactions]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate rate label")
        for j in range(n):
            if not any(
                r.reactant.coeffs[j] or r.product.coeffs[j] for r in self.reactions
            ):
                raise ValueError(
                    f"species {self.species_names[j]!r} appears in no complex"
                )

    @property
    def num_species(self) -> int:
        return len(self.species_names)

    @property
    def num_reactions(self) -> int:
        return len(self.reactions)

    @property
    def rate_labels(self) -> tuple[str, ...]:
        return tuple(r.rate_label for r in self.reactions)


# ---------------------------------------------------------------------------
# Parsing


def _parse_complex(text: str, species: dict[str, int], line: int, col: int):
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for part in text.split("+"):
        part = part.strip()
        m = _TERM_RE.match(part)
        if not m:
            raise NetworkParseError(f"bad term {part!r} in complex", line, col)
        coeff = int(m.group(1)) if m.group(1) else 1
        if coeff == 0:
            raise NetworkParseError(f"zero coefficient in term {part!r}", line, col)
        if coeff > MAX_COEFF:
            raise NetworkParseError(f"coefficient too large in {part!r}", line, col)
        name = m.group(2)
        if name not in species:
            species[name] = len(species)
        terms.append((species[name], coeff))
    return terms


def _split_statements(text: str):
    """Yield (statement, line, column) with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 1
        for piece in line.split(","):
            stmt = piece.strip()
            if stmt:
                yield stmt, lineno, col + piece.index(stmt[0])
            col += len(piece) + 1


def parse_network(text: str) -> ReactionNetwork:
    """Parse the network DSL into a validated ReactionNetwork."""
    species: dict[str, int] = {}
    # raw reactions: (reactant terms, product terms, explicit label or None),
    # and the (line, column) of each one's statement
    raw: list[tuple[list, list, str | None]] = []
    where: list[tuple[int, int]] = []
    for stmt, lineno, col in _split_statements(text):
        body, semi, label = stmt.partition(";")
        label = label.strip()
        if semi and not label:
            raise NetworkParseError("empty rate label clause", lineno, col)
        # a label is named like a species, [A-Za-z_][A-Za-z0-9_]* as in _TERM_RE
        if label and not (label.isascii() and label.isidentifier()):
            raise NetworkParseError(f"rate label {label!r} is not an identifier", lineno, col)
        pieces = _ARROW_RE.split(body)
        if len(pieces) < 3 or len(pieces) % 2 == 0:
            raise NetworkParseError(f"malformed statement {stmt!r}", lineno, col)
        complexes = [
            _parse_complex(pieces[i], species, lineno, col)
            for i in range(0, len(pieces), 2)
        ]
        arrows = [pieces[i].strip() for i in range(1, len(pieces), 2)]
        stmt_rxns: list[tuple[list, list, str | None]] = []
        for i, arrow in enumerate(arrows):
            lhs, rhs = complexes[i], complexes[i + 1]
            if arrow == "->":
                stmt_rxns.append((lhs, rhs, None))
            elif arrow == "<-":
                stmt_rxns.append((rhs, lhs, None))
            else:  # <->
                stmt_rxns.append((lhs, rhs, None))
                stmt_rxns.append((rhs, lhs, None))
        if label:
            labels = [label]
            if len(stmt_rxns) == 2 and "<->" in arrows:
                labels = [label + "_f", label + "_r"]
            if len(labels) != len(stmt_rxns):
                raise NetworkParseError(
                    f"{len(labels)} labels for {len(stmt_rxns)} reactions",
                    lineno,
                    col,
                )
            stmt_rxns = [(a, b, lab) for (a, b, _), lab in zip(stmt_rxns, labels)]
        raw.extend(stmt_rxns)
        where.extend([(lineno, col)] * len(stmt_rxns))

    if not raw:
        raise NetworkParseError("no reactions found", 1, 1)

    n = len(species)

    def to_complex(terms) -> Complex:
        coeffs = [0] * n
        for idx, coeff in terms:
            coeffs[idx] += coeff
        return Complex(tuple(coeffs))

    reactions = []
    auto = 0
    explicit = {label for _, _, label in raw}
    for lhs, rhs, label in raw:
        if label is None:
            # k1, k2, ... skipping the labels the file gives
            auto += 1
            while f"k{auto}" in explicit:
                auto += 1
            label = f"k{auto}"
        reactant, product = to_complex(lhs), to_complex(rhs)
        if reactant == product:
            raise NetworkParseError(
                "reactant equals product (zero reaction vector)", *where[len(reactions)]
            )
        reactions.append(Reaction(reactant, product, label))
    try:
        return ReactionNetwork(tuple(species), tuple(reactions))
    except ValueError as exc:
        raise _located(exc, reactions, where, tuple(species)) from exc


def _located(exc: ValueError, reactions, where, names) -> NetworkParseError:
    """ReactionNetwork's error as a parse error that names the first repeated
    reaction or rate label, at the line and column of the repeat."""
    pairs, labels = set(), set()
    for rxn, (line, col) in zip(reactions, where):
        pair = (rxn.reactant, rxn.product)
        if pair in pairs:
            text = f"{format_complex(rxn.reactant, names)} -> {format_complex(rxn.product, names)}"
            return NetworkParseError(f"duplicate reaction {text!r}", line, col)
        if rxn.rate_label in labels:
            return NetworkParseError(f"duplicate rate label {rxn.rate_label!r}", line, col)
        pairs.add(pair)
        labels.add(rxn.rate_label)
    return NetworkParseError(str(exc))


def format_complex(cpx: Complex, species_names: tuple[str, ...]) -> str:
    terms = []
    for coeff, name in zip(cpx.coeffs, species_names):
        if coeff == 0:
            continue
        terms.append(name if coeff == 1 else f"{coeff}{name}")
    return " + ".join(terms) if terms else "0"


def format_network(net: ReactionNetwork) -> str:
    """Canonical printer; parse(format_network(net)) round-trips."""
    lines = []
    for rxn in net.reactions:
        lines.append(
            f"{format_complex(rxn.reactant, net.species_names)} -> "
            f"{format_complex(rxn.product, net.species_names)} ; {rxn.rate_label}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Stoichiometric structure


def stoichiometric_matrix(net: ReactionNetwork) -> list[list[int]]:
    """n x r integer matrix; column i is the i-th reaction vector."""
    cols = [rxn.vector() for rxn in net.reactions]
    return [[col[j] for col in cols] for j in range(net.num_species)]


def rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row-reduced echelon form with zero rows dropped."""
    rows = [[Fraction(v) for v in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        piv = next((r for r in range(pivot_row, nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return [row for row in rows if any(v != 0 for v in row)]


@dataclass(frozen=True)
class ConservationMatrix:
    """RREF basis (d x n) of the left null space of the stoichiometric matrix."""

    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def conservation_matrix(net: ReactionNetwork) -> ConservationMatrix:
    S = stoichiometric_matrix(net)
    n, r = net.num_species, net.num_reactions
    # left null space of S = null space of S^T
    st = [[Fraction(S[j][i]) for j in range(n)] for i in range(r)]
    reduced = rref(st)
    pivots = []
    for row in reduced:
        pivots.append(next(c for c, v in enumerate(row) if v != 0))
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    canon = rref(basis) if basis else []
    return ConservationMatrix(tuple(tuple(row) for row in canon))
