"""Candidate binary operations on a Hopf algebra as structure-constant
tables, with residual-based checkers for every operation axiom, the tables
of unknowns that the classifier and the F_p oracle solve for, and the six
built-in classified families on the Sweedler algebra.

Every checker reports the exact residual at each failing basis combination
(never a bare boolean), so failures localize to a table cell and symbolic
residuals double as constraint equations for the classifier.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from importlib import resources
from itertools import chain

from .exactmath import is_odd_prime, parse_rational
from .hopfcore import (
    AxiomReport,
    HopfStructure,
    _ReportBuilder,
    _bilinear,
    _json_array,
    _linear,
    _square_product,
    _sweedler,
    _vector_residual,
    basis_element,
    comultiply,
    counit_of,
    multiply,
    vec_scale,
    vec_sub,
)
from .multipoly import Poly, VarRegistry, parse_poly

__all__ = [
    "TriangleOp",
    "apply",
    "check_coalgebra_hom",
    "check_distributivity",
    "check_weighted_assoc",
    "check_unitality",
    "check_counit_absorption",
    "axiom_checks",
    "axiom_suite",
    "axiom_residuals",
    "PARAMETERIZATIONS",
    "build_unknown_op",
    "extend_generators",
    "FAMILY_LABELS",
    "family_table",
    "op_ring",
    "op_to_json_dict",
    "op_from_json_dict",
    "op_serial",
    "table_params",
    "table_entries",
    "map_table",
]

FAMILY_LABELS = ("i", "ii", "iii", "iv", "v", "vi")


@dataclass(frozen=True)
class TriangleOp:
    """table[i][j] is the coefficient vector of ``e_i |> e_j``.

    A table over F_p carries its ``prime`` p and holds ints in 0..p-1.  The
    checks read it as an integer table and reduce each residual mod p, which
    gives the F_p verdict exactly (see :class:`hopfcore._ReportBuilder`).
    """

    dim: int
    table: tuple
    prime: int | None = None

    def __post_init__(self):
        # the table, each row and each cell all have dim entries
        cells = chain.from_iterable(self.table)
        if {len(self.table), *map(len, self.table), *map(len, cells)} != {self.dim}:
            raise ValueError("table shape does not match dim")


def table_entries(table) -> tuple:
    """The entries of a table, ``table[i][j][k]`` for ``i``, then ``j``,
    then ``k`` ascending."""
    return tuple(entry for row in table for cell in row for entry in cell)


def map_table(f, table) -> tuple:
    """The table as nested tuples with ``f`` applied to each entry."""
    return tuple(tuple(tuple(map(f, cell)) for cell in row) for row in table)


def _check_dim(H: HopfStructure, op: TriangleOp) -> None:
    if op.dim != H.dim:
        raise ValueError(
            f"operation dimension {op.dim} does not match the Hopf structure's {H.dim}"
        )


def apply(H: HopfStructure, op: TriangleOp, x, y) -> tuple:
    """Bilinear extension of the table."""
    _check_dim(H, op)
    n = H.dim
    if len(x) != n or len(y) != n:
        raise ValueError("element lengths do not match dim")
    return tuple(_bilinear(op.table, x, y, x[0] * 0))


def _coalgebra_hom_residuals(H: HopfStructure, op: TriangleOp):
    _check_dim(H, op)
    n = H.dim
    zero = op.table[0][0][0] * 0
    deltas = [comultiply(H, basis_element(H, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            cell = op.table[i][j]
            lhs = comultiply(H, cell)
            rhs = _square_product(op.table, deltas[i], deltas[j], zero)
            for comp in range(n * n):
                yield "coalgebra_delta", (i, j, comp // n, comp % n), lhs[comp] - rhs[comp]
            yield "coalgebra_counit", (i, j), counit_of(H, cell) - H.counit[i] * H.counit[j]


def check_coalgebra_hom(H: HopfStructure, op: TriangleOp) -> AxiomReport:
    """The operation must be a coalgebra homomorphism: the coproduct of
    ``x |> y`` equals ``(x1 |> y1) (x) (x2 |> y2)`` and its counit equals
    ``eps(x) eps(y)``, for all basis pairs."""
    return _ReportBuilder(op.prime).report(_coalgebra_hom_residuals(H, op))


def _distributivity_residuals(H: HopfStructure, op: TriangleOp):
    _check_dim(H, op)
    n = H.dim
    T = op.table
    zero = T[0][0][0] * 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _linear(H.mul[j][k], T[i], zero)
                rhs = _sweedler(H, i, lambda a, b: multiply(H, T[a][j], T[b][k]), zero)
                yield from _vector_residual("distributivity", (i, j, k), vec_sub(lhs, rhs))


def check_distributivity(H: HopfStructure, op: TriangleOp) -> AxiomReport:
    """``x |> (y z) = (x1 |> y)(x2 |> z)`` on all basis triples."""
    return _ReportBuilder(op.prime).report(_distributivity_residuals(H, op))


def _weighted_assoc_residuals(H: HopfStructure, op: TriangleOp):
    _check_dim(H, op)
    n = H.dim
    T = op.table
    zero = T[0][0][0] * 0
    e = [basis_element(H, a) for a in range(n)]
    # cols[k][l] = e_l |> e_k, so _linear(x, cols[k], zero) is x |> e_k
    cols = [[row[k] for row in T] for k in range(n)]
    for i in range(n):
        for j in range(n):
            # x1 (x2 |> y) at x = e_i, y = e_j, which every z = e_k shares
            weighted = _sweedler(H, i, lambda a, b: multiply(H, e[a], T[b][j]), zero)
            for k in range(n):
                lhs = _linear(T[j][k], T[i], zero)
                rhs = _linear(weighted, cols[k], zero)
                yield from _vector_residual("weighted_assoc", (i, j, k), vec_sub(lhs, rhs))


def check_weighted_assoc(H: HopfStructure, op: TriangleOp) -> AxiomReport:
    """``x |> (y |> z) = (x1 (x2 |> y)) |> z`` on all basis triples."""
    return _ReportBuilder(op.prime).report(_weighted_assoc_residuals(H, op))


def _unitality_residuals(H: HopfStructure, op: TriangleOp):
    _check_dim(H, op)
    zero = op.table[0][0][0] * 0
    for j in range(H.dim):
        acted = _linear(H.unit, [row[j] for row in op.table], zero)
        yield from _vector_residual("unitality", (j,), vec_sub(acted, basis_element(H, j)))


def check_unitality(H: HopfStructure, op: TriangleOp) -> AxiomReport:
    """``1 |> x = x`` on all basis elements (the extra axiom of the weak,
    as opposed to relaxed, setting)."""
    return _ReportBuilder(op.prime).report(_unitality_residuals(H, op))


def _counit_absorption_residuals(H: HopfStructure, op: TriangleOp):
    _check_dim(H, op)
    zero = op.table[0][0][0] * 0
    for i in range(H.dim):
        val = _linear(H.unit, op.table[i], zero)
        target = vec_scale(H.counit[i], H.unit)
        yield from _vector_residual("counit_absorption", (i,), vec_sub(val, target))


def check_counit_absorption(H: HopfStructure, op: TriangleOp) -> AxiomReport:
    """``x |> 1 = eps(x) 1``; a consequence of the other axioms, checked as
    its own property."""
    return _ReportBuilder(op.prime).report(_counit_absorption_residuals(H, op))


def axiom_checks(mode: str) -> tuple:
    """The defining axioms of the mode as ``(name, check)`` pairs, in fixed
    order: coalgebra homomorphism, product rule and weighted
    associativity, plus unitality in weak mode.  This is the one definition
    of the suite: :func:`axiom_suite` runs it whole, and
    :func:`axiom_residuals` check by check.  The order fixes the order of
    the solver's equations and of the oracle's constraints."""
    if mode not in ("relaxed", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    checks = (
        ("coalgebra_hom", check_coalgebra_hom),
        ("distributivity", check_distributivity),
        ("weighted_assoc", check_weighted_assoc),
    )
    if mode == "weak":
        checks += (("unitality", check_unitality),)
    return checks


# the residual components of each check of axiom_checks, which its report reads
_RESIDUALS = {
    "coalgebra_hom": _coalgebra_hom_residuals,
    "distributivity": _distributivity_residuals,
    "weighted_assoc": _weighted_assoc_residuals,
    "unitality": _unitality_residuals,
}


def axiom_suite(H: HopfStructure, op: TriangleOp, mode: str) -> dict[str, AxiomReport]:
    """The report of every check of :func:`axiom_checks` on ``op``, keyed
    by name in suite order.  The symbolic checks and the F_p oracle's leaf
    recheck read it."""
    return {name: check(H, op) for name, check in axiom_checks(mode)}


def axiom_residuals(H: HopfStructure, op: TriangleOp, mode: str):
    """The entries of :func:`axiom_suite`'s reports on ``op``, in suite
    order: the one walk both constraint generators read.  Each check
    computes its residual one basis tuple at a time, and each nonzero
    component is handed out as it is computed, so no check's residual list
    exists in full and a residual lives only as long as its consumer."""
    entries = _ReportBuilder(op.prime).entries
    for name, _check in axiom_checks(mode):
        yield from entries(_RESIDUALS[name](H, op))


# -- generator-column completion ------------------------------------------------

def extend_generators(H: HopfStructure, columns: dict) -> TriangleOp:
    """Complete the given columns, ``columns[j][i] = e_i |> e_j``, to the
    full table by the product rule.  Each missing column k, lowest first, is
    filled from the first pair (a, b) with a given, b filled and
    ``e_a e_b = e_k``:

        x |> e_k := (x1 |> e_a)(x2 |> e_b)

    On Sweedler's algebra the g and v columns give 1 = g*g, then gv = g*v.
    No axiom is checked here: the completion is a pure parameterization, and
    any table satisfying the product rule necessarily agrees with it.
    """
    n = H.dim
    given = sorted(columns)
    if not given or not set(given) <= set(range(n)):
        raise ValueError(f"given columns must be a nonempty subset of 0..{n - 1}")
    cols = {j: [tuple(vec) for vec in columns[j]] for j in given}
    if any(len(col) != n for col in cols.values()):
        raise ValueError(f"each given column needs {n} rows")
    zero = cols[given[0]][0][0] * 0
    while len(cols) < n:
        pair = next(
            ((k, a, b) for k in range(n) if k not in cols
             for a in given for b in sorted(cols)
             if tuple(H.mul[a][b]) == basis_element(H, k)),
            None,
        )
        if pair is None:
            raise ValueError(f"columns {given} do not generate the algebra")
        k, a, b = pair
        col_a, col_b = cols[a], cols[b]
        cols[k] = [
            tuple(_sweedler(H, i, lambda c, d: multiply(H, col_a[c], col_b[d]), zero))
            for i in range(n)
        ]
    return TriangleOp(n, tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


# -- unknown tables ----------------------------------------------------------------

PARAMETERIZATIONS = ("generator32", "full64")


def build_unknown_op(
    H4: HopfStructure, parameterization: str = "generator32"
) -> tuple[TriangleOp, VarRegistry]:
    """Fresh-indeterminate table: 32 unknowns ``c_i_j_k`` on the generator
    columns g and v, or 64 unknowns, one per table coefficient; either way
    :func:`extend_generators` completes the columns not given."""
    if parameterization not in PARAMETERIZATIONS:
        raise ValueError(f"unknown parameterization {parameterization!r}")
    reg = VarRegistry()
    given = (1, 2) if parameterization == "generator32" else range(H4.dim)
    columns = {j: [] for j in given}
    for i in range(H4.dim):  # row, then column, then k: ids fix the solver's tie-breaks
        for j in given:
            columns[j].append([reg.var(f"c_{i}_{j}_{k}") for k in range(H4.dim)])
    return extend_generators(H4, columns), reg


# -- the built-in families -------------------------------------------------------

@lru_cache(maxsize=None)
def _symbolic_family(which: str) -> TriangleOp:
    text = resources.files("posthopf").joinpath("families.json").read_text("utf-8")
    data = json.loads(text)["families"][which]
    reg = VarRegistry()
    if data["param"]:
        reg.add(data["param"])
    return TriangleOp(len(data["table"]), map_table(partial(parse_poly, reg), data["table"]))


def family_table(which: str, param=None) -> TriangleOp:
    """One of the six classified tables.  Families i and ii carry a free
    parameter: omit ``param`` for the symbolic table, pass a Fraction for a
    concrete one.  The parameterless families reject ``param``."""
    if which not in FAMILY_LABELS:
        raise ValueError(f"unknown family {which!r}; expected one of {FAMILY_LABELS}")
    symbolic = _symbolic_family(which)
    if param is None:
        return symbolic
    params = table_params(symbolic)
    if not params:
        raise ValueError(f"family {which!r} takes no parameter")
    value = Fraction(param)
    (vid,) = params
    table = map_table(lambda entry: entry.substitute(vid, value).constant_value(), symbolic.table)
    return TriangleOp(symbolic.dim, table)


# -- serialization ----------------------------------------------------------------

def table_params(op: TriangleOp) -> dict[int, str]:
    """Parameter ids of a symbolic table mapped to their names, in
    first-occurrence order over the row-major, term-ordered serialization."""
    params: dict[int, str] = {}
    for entry in table_entries(op.table):
        if not isinstance(entry, Poly):
            continue
        for mono, _c in entry.terms():
            for v, _ in mono:
                if v not in params:
                    params[v] = entry.registry.name_of(v)
    return params


def op_ring(op: TriangleOp):
    """Uniform coefficient ring of the table: "rational", "poly", or
    ("prime", p) for a table that carries a prime."""
    if op.prime is not None:
        return ("prime", op.prime)
    kinds = set()
    for entry in table_entries(op.table):
        if isinstance(entry, Poly):
            kinds.add("poly")
        elif isinstance(entry, (Fraction, int)):
            kinds.add("rational")
        else:
            raise ValueError(f"unsupported entry type {type(entry)!r}")
    if len(kinds) == 1:
        return kinds.pop()
    raise ValueError(f"table mixes coefficient rings: {sorted(kinds)}")


def op_to_json_dict(op: TriangleOp) -> dict:
    ring = op_ring(op)
    ring_field = {"prime": ring[1]} if isinstance(ring, tuple) else ring
    return {
        "dim": op.dim,
        "ring": ring_field,
        "table": [
            [[str(entry) for entry in cell] for cell in row] for row in op.table
        ],
    }


_INTEGER_RE = re.compile(r"-?[0-9]+")


def _parse_residue(text) -> int:
    """An F_p entry as :func:`op_to_json_dict` writes it: a decimal integer
    string in the ASCII digits 0-9."""
    if not isinstance(text, str) or not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def op_from_json_dict(data: dict) -> TriangleOp:
    try:
        n = data["dim"]
        ring = data["ring"]
        rows = data["table"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operation payload: {exc}") from exc
    if type(n) is not int:  # a bool, float or string is not a dimension
        raise ValueError(f"operation dim must be an integer, got {n!r}")
    rows = _json_array(rows, 3, lambda e: e, "operation table")
    p = None
    if isinstance(ring, dict):
        p = ring.get("prime")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"F_p ring tag needs an integer prime, got {ring!r}")
        # before any entry is reduced: a zero prime would raise ZeroDivisionError
        if not is_odd_prime(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
        leaf = lambda e: _parse_residue(e) % p
    elif ring == "rational":
        leaf = parse_rational
    elif ring == "poly":
        reg = VarRegistry()
        names: set[str] = set()
        for e in table_entries(rows):
            if not isinstance(e, str):
                raise ValueError(f"not a polynomial string: {e!r}")
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", e))
        for name in sorted(names):
            reg.add(name)
        leaf = partial(parse_poly, reg)
    else:
        raise ValueError(f"unknown ring tag {ring!r}")
    return TriangleOp(n, map_table(leaf, rows), p)


def op_serial(op: TriangleOp) -> str:
    """Canonical one-line serialization, used for sorting and set compares."""
    ring = op_ring(op)
    ring_field = f"p{ring[1]}" if isinstance(ring, tuple) else ring
    cells = ";".join(
        ",".join(str(e) for e in cell) for row in op.table for cell in row
    )
    return f"{ring_field}|{cells}"
