"""Symbolic classification of the operation tables on the Sweedler algebra.

The pipeline: parameterize an unknown table with fresh indeterminates
(:func:`build_unknown_op`), turn the axiom residuals into a polynomial
constraint system (:func:`generate_constraints`), and explore it with the
branch solver of :mod:`posthopf.solver`.  Resolved branches are then
deduplicated and subsumed into maximal families and matched against the
built-in tables.

The relaxed axioms are the weak ones without unitality, so each
parameterization's constraints are generated once per process, for the weak
suite, and the relaxed system is that list without its unitality
constraints.

Determinism: variable ids, equation ordering and tie-breaking are all fixed,
so two runs serialize identically byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

from .hopfcore import HopfStructure, sweedler_h4
from .multipoly import Poly, VarRegistry, compose_many
# SolverVerificationError is what ``classify`` raises when a branch fails
# re-verification, so callers of this module can catch it from here
from .solver import (
    Branch,
    Constraint,
    ConstraintSystem,
    SolverVerificationError,
    _param_names,
    solve,
)
from .triangleop import (
    FAMILY_LABELS,
    GeneratorTable,
    TriangleOp,
    axiom_suite,
    extend_generators,
    family_table,
    op_to_json_dict,
    table_params,
)

__all__ = [
    "Family",
    "ClassificationResult",
    "MatchReport",
    "SolverVerificationError",
    "build_unknown_op",
    "generate_constraints",
    "classify",
    "subsume",
    "specializes",
    "canonical_table_key",
    "match_families",
    "classification_to_json_dict",
]

PARAMETERIZATIONS = ("generator32", "full64")


@dataclass
class Family:
    """A resolved branch together with its completed table."""

    branch: Branch
    table: TriangleOp
    free_params: tuple[str, ...]


@dataclass
class ClassificationResult:
    mode: str
    parameterization: str
    branches: list[Branch]
    families: list[Family]
    maximal_families: list[Family]
    stats: dict
    # seconds per stage of this call; never part of the JSON report
    timings: dict = field(default_factory=dict)


# -- unknown table construction ---------------------------------------------------

def build_unknown_op(
    H4: HopfStructure, parameterization: str = "generator32"
) -> tuple[TriangleOp, VarRegistry]:
    """Fresh-indeterminate table: 32 unknowns ``c_i_j_k`` on the generator
    columns (completed by :func:`extend_generators`), or 64 unknowns, one
    per table coefficient."""
    if parameterization not in PARAMETERIZATIONS:
        raise ValueError(f"unknown parameterization {parameterization!r}")
    if H4.dim != 4:
        raise ValueError("the unknown-table construction is specific to dimension 4")
    reg = VarRegistry()
    cols = (1, 2) if parameterization == "generator32" else (0, 1, 2, 3)
    cells: dict[tuple[int, int], tuple] = {}
    for i in range(4):
        for j in cols:
            cells[(i, j)] = tuple(reg.var(f"c_{i}_{j}_{k}") for k in range(4))
    if parameterization == "generator32":
        gt = GeneratorTable(tuple((cells[(i, 1)], cells[(i, 2)]) for i in range(4)))
        op = extend_generators(H4, gt)
    else:
        op = TriangleOp(4, tuple(tuple(cells[(i, j)] for j in range(4)) for i in range(4)))
    return op, reg


def generate_constraints(
    H: HopfStructure, op: TriangleOp, mode: str = "relaxed"
) -> ConstraintSystem:
    """All residual components of the coalgebra-homomorphism, product-rule
    and weighted-associativity checks on the symbolic table (plus unitality
    in weak mode), deduplicated up to a nonzero rational factor."""
    registry = op.table[0][0][0].registry
    seen: set = set()
    equations: list[Constraint] = []
    for report in axiom_suite(H, op, mode).values():
        for entry in report.entries:
            poly = entry.residual
            key = poly.canon_key()
            if key in seen:
                continue
            seen.add(key)
            equations.append(Constraint(poly, entry.axiom, entry.indices))
    return ConstraintSystem(registry, equations)


# -- tables from branches, canonical forms, subsumption ------------------------------

def branch_table(op: TriangleOp, branch: Branch) -> TriangleOp:
    """Substitute a resolved branch into the symbolic table."""
    if branch.status != "resolved":
        raise ValueError("only resolved branches define a table")
    n = op.dim
    flat = [entry for row in op.table for cell in row for entry in cell]
    values = compose_many(flat, branch.assignments, branch.registry)
    it = iter(values)
    table = tuple(
        tuple(tuple(next(it) for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    return TriangleOp(n, table)


def _as_poly_table(op: TriangleOp, registry: VarRegistry, rename: dict) -> list:
    """Lift table entries into ``registry``, renaming parameters via
    ``rename`` (old id -> Poly)."""
    out = []
    for row in op.table:
        cells = []
        for cell in row:
            lifted = []
            for entry in cell:
                if isinstance(entry, Poly):
                    lifted.append(entry.compose(rename, registry))
                else:
                    lifted.append(Poly.constant(registry, entry))
            cells.append(tuple(lifted))
        out.append(tuple(cells))
    return out


def canonical_table_key(op: TriangleOp) -> str:
    """Canonical form of a parameterized table: parameters renamed a, b, ...
    in first-occurrence order, then each parameter's sign normalized so that
    its first occurrence carries a positive coefficient.  Two tables denote
    the same family up to parameter renaming (and sign) iff their keys match.
    """
    params = list(table_params(op))
    reg = VarRegistry()
    rename: dict[int, Poly] = {}
    names = _param_names(len(params))
    for old, name in zip(params, names):
        rename[old] = reg.var(name)
    table = _as_poly_table(op, reg, rename)

    def first_sign(vid: int):
        for row in table:
            for cell in row:
                for entry in cell:
                    for mono, c in entry.terms():
                        if any(v == vid for v, _ in mono):
                            return c
        return None

    for name in names:
        vid = reg.id_of(name)
        sign = first_sign(vid)
        if sign is not None and sign < 0:
            flipped = -reg.var_by_id(vid)
            table = [
                tuple(
                    tuple(entry.substitute(vid, flipped) for entry in cell)
                    for cell in row
                )
                for row in table
            ]
    return ";".join(
        ",".join(entry.to_string() for entry in cell) for row in table for cell in row
    )


def specializes(general: TriangleOp, special: TriangleOp) -> bool:
    """True if some assignment of ``general``'s parameters (polynomials in
    ``special``'s parameters allowed) makes the two tables identical.  The
    match is solved coefficient by coefficient with the restricted solver."""
    reg = VarRegistry()

    def transplant(op: TriangleOp, prefix: str) -> tuple[list, list[int]]:
        ids = []
        rename = {}
        for vid, param in table_params(op).items():
            name = f"{prefix}{param}"
            rename[vid] = reg.var(name)
            ids.append(reg.id_of(name))
        return _as_poly_table(op, reg, rename), ids

    table_a, ids_a = transplant(general, "s_")
    table_b, _ids_b = transplant(special, "t_")
    constraints = []
    for i in range(general.dim):
        for j in range(general.dim):
            for k in range(general.dim):
                diff = table_a[i][j][k] - table_b[i][j][k]
                constraints.append(Constraint(diff, "match", (i, j, k)))
    system = ConstraintSystem(reg, constraints)
    branches, _ = solve(system, max_branches=500, solvable=ids_a)
    return any(b.status == "resolved" for b in branches)


def subsume(families: list[Family]) -> list[Family]:
    """Collapse the resolved families to the maximal ones: drop exact
    duplicates (up to parameter renaming), then drop any family that is a
    specialization of another; mutually-specializing distinct forms keep the
    lexicographically smallest canonical key.  Output is sorted by key."""
    keyed: dict[str, Family] = {}
    for fam in families:
        key = canonical_table_key(fam.table)
        if key not in keyed:
            keyed[key] = fam
    keys = sorted(keyed)
    # a parameter-free table specializes only to an equal table, and equal
    # tables share a key
    general = {k for k in keys if table_params(keyed[k].table)}
    rel = {
        (ka, kb): ka in general and specializes(keyed[ka].table, keyed[kb].table)
        for ka in keys
        for kb in keys
        if ka != kb
    }
    # kb goes when another family strictly generalizes it, or generalizes it
    # mutually and has the smaller key
    return [
        keyed[kb]
        for kb in keys
        if not any(
            ka != kb and rel[ka, kb] and (ka < kb or not rel[kb, ka]) for ka in keys
        )
    ]


# -- matching against the built-in tables ---------------------------------------------

@dataclass
class MatchReport:
    pairs: list[tuple[int, str]]
    unmatched_families: list[int]
    unmatched_known: list[str]

    @property
    def perfect(self) -> bool:
        return not self.unmatched_families and not self.unmatched_known


def match_families(result_families: list[Family], known: dict[str, TriangleOp]) -> MatchReport:
    """Bijection check between maximal families and the known tables, up to
    canonical parameter renaming (with sign normalization)."""
    known_keys = {label: canonical_table_key(op) for label, op in known.items()}
    pairs: list[tuple[int, str]] = []
    unmatched_families: list[int] = []
    used: set[str] = set()
    for idx, fam in enumerate(result_families):
        key = canonical_table_key(fam.table)
        hit = next(
            (label for label, k in known_keys.items() if k == key and label not in used),
            None,
        )
        if hit is None:
            unmatched_families.append(idx)
        else:
            used.add(hit)
            pairs.append((idx, hit))
    unmatched_known = [label for label in known if label not in used]
    return MatchReport(pairs, unmatched_families, unmatched_known)


def builtin_families() -> dict[str, TriangleOp]:
    return {label: family_table(label) for label in FAMILY_LABELS}


# -- the full pipeline -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _weak_system(parameterization: str):
    """The unknown table of ``parameterization``, its registry and its weak
    constraint system, generated once per process for both modes."""
    h4 = sweedler_h4()
    op, reg = build_unknown_op(h4, parameterization)
    return op, reg, generate_constraints(h4, op, "weak")


@lru_cache(maxsize=None)
def _cached_system(mode: str, parameterization: str):
    """One job's table, registry and system.  Generation dedupes in suite
    order, so the relaxed equations are the weak ones up to unitality's."""
    if mode not in ("relaxed", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    op, reg, system = _weak_system(parameterization)
    if mode == "relaxed":
        system = ConstraintSystem(reg, [c for c in system.equations if c.axiom != "unitality"])
    return op, reg, system


def classify(
    mode: str = "relaxed",
    parameterization: str = "generator32",
    *,
    max_branches: int = 10000,
) -> ClassificationResult:
    """Classify all operation tables on the Sweedler algebra for the given
    mode, returning every branch plus the deduplicated maximal families."""
    start = perf_counter()
    op, _reg, system = _cached_system(mode, parameterization)
    generated = perf_counter()
    branches, stats = solve(system, max_branches=max_branches)
    solved = perf_counter()
    families = [
        Family(branch=b, table=branch_table(op, b), free_params=b.free_params)
        for b in branches
        if b.status == "resolved"
    ]
    tabled = perf_counter()
    maximal = subsume(families)
    timings = {
        "generation": generated - start,
        "solve": solved - generated,
        "branch_table": tabled - solved,
        "subsume": perf_counter() - tabled,
    }
    stats = dict(stats)
    stats["families"] = len(families)
    stats["maximal_families"] = len(maximal)
    stats["equations"] = len(system.equations)
    return ClassificationResult(
        mode=mode,
        parameterization=parameterization,
        branches=branches,
        families=families,
        maximal_families=maximal,
        stats=stats,
        timings=timings,
    )


def classification_to_json_dict(result: ClassificationResult) -> dict:
    """Stable machine-readable report; byte-identical across repeat runs."""
    return {
        "mode": result.mode,
        "parameterization": result.parameterization,
        "families": [
            {
                "table": op_to_json_dict(fam.table),
                "free_params": sorted(table_params(fam.table).values()),
            }
            for fam in result.maximal_families
        ],
        "stats": {k: result.stats[k] for k in sorted(result.stats)},
        "unresolved": [
            {
                "note": b.note,
                "remaining": [str(p) for p in b.remaining],
            }
            for b in result.branches
            if b.status == "unresolved"
        ],
    }
