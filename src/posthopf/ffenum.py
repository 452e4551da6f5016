"""Independent brute-force oracle over small odd prime fields.

Enumerates every table on the Sweedler algebra satisfying the relaxed (or
weak) axioms with coefficients in F_p, by backtracking over the generator
columns row by row in the fixed order (1, g, v, gv).  That order makes the
coproduct of each basis element reference only rows already chosen, so the
symbolic constraint system restricted to the assigned rows prunes candidates
as early as possible.  Completed tables are re-checked with the full exact
axiom suite before being emitted, so pruning can only ever remove candidates
the final check would reject.

The search runs over the 32 generator unknowns, not all 64 coefficients: the
product rule forces the remaining columns, the same completion the
classifier uses.

The constraints are integer term lists over interned monomials in 32
slots (``8*row + k``, read off the classifier's unknown table), converted
once per process from the weak generation; the relaxed system is the same
term lists without unitality's.  A search starts from them unreduced.
Each chosen row is folded (substituted, mod p) into the constraints of
every deeper row once, and the folded system is carried down the
recursion, so all children of a prefix share that work.
A depth whose constraints include one folded to a nonzero constant is
dead; a prefix with a dead depth is pruned at once, its next row neither
scanned nor descended into, since no later row can change a constant.  A
row's candidates come from its constraints, folded or, for row 0, reduced
mod p as they are read: those linear in its eight slots, the two counit
pins of the coalgebra counit axiom among them, are row-reduced over F_p,
and the affine solution space is walked depth first, one free slot per
level, each other constraint checked as soon as the slots it reads are
fixed (forward checking).

F_p values are plain ints in 0..p-1 throughout.  A completed table is
the chosen residues completed in int arithmetic and reduced mod p, an F_p
table that carries its prime, and it is re-checked by the same axiom suite
``verify`` runs: in int arithmetic, with the Sweedler algebra's int
structure constants, each residual reduced mod p.  Every axiom side is an
integer polynomial in the table entries and those constants, and reduction
Z -> F_p is a ring map, so that is the verdict over F_p.  The symbolic
families are evaluated over the rationals at each parameter value and then
reduced the same way.

The oracle stays independent of the branch solver: it shares the constraint
system that ``classifier`` generates, but none of the solver's moves
(substitution order, factor splits, side conditions).  Every point it keeps
satisfies every constraint of its row, and every emitted table passes the
full axiom suite over F_p.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from . import classifier
from .exactmath import is_odd_prime, rational_mod_p, rref
from .hopfcore import HopfStructure, sweedler_h4
from .multipoly import Poly
from .triangleop import (
    GeneratorTable,
    TriangleOp,
    axiom_suite,
    extend_generators,
    op_serial,
    table_params,
)

__all__ = [
    "EnumerationTask",
    "EnumerationReport",
    "FamilyDiff",
    "row_candidates",
    "enumerate_structures",
    "family_evaluations",
    "compare_with_families",
]

MAX_PRIME = 31


@dataclass(frozen=True)
class EnumerationTask:
    prime: int
    mode: str = "relaxed"

    def __post_init__(self):
        if type(self.prime) is not int or self.prime > MAX_PRIME or not is_odd_prime(self.prime):
            raise ValueError(
                f"prime must be an odd prime <= {MAX_PRIME}, got {self.prime}"
            )
        if self.mode not in ("relaxed", "weak"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class EnumerationReport:
    task: EnumerationTask
    structures: tuple[TriangleOp, ...]
    count: int
    elapsed: float
    stats: dict


# -- the constraint system over interned monomials --------------------------------

# Monomials ((slot, exp), ...) by ascending slot are interned as ints, 0 the
# monomial 1.  An id's split is (row of its first slot, local id of that row's
# part, id of the rest); _LOCALS maps each part, as a local monomial
# ((slot & 7, exp), ...), to (local id, mask of its slots), alike in every row;
# its keys in insertion order are the local monomials by local id, and the
# split of the monomial 1 names local id 0, the local monomial 1.
_SPLITS: list[tuple] = [(-1, 0, 0)]
_LOCALS: dict[tuple, tuple] = {(): (0, 0)}


@lru_cache(maxsize=None)
def _intern(mono: tuple) -> int:
    if not mono:
        return 0
    row = mono[0][0] >> 3
    k = sum(1 for s, _e in mono if s >> 3 == row)
    local = tuple((s & 7, e) for s, e in mono[:k])
    lid = _LOCALS.setdefault(local, (len(_LOCALS), sum(1 << s for s, _e in local)))[0]
    _SPLITS.append((row, lid, _intern(mono[k:])))
    return len(_SPLITS) - 1


@lru_cache(maxsize=None)
def _generator_terms() -> tuple:
    """The weak constraints of the generator parameterization as ``(axiom,
    depth, terms)`` in generation order: ``terms`` is the integer term list
    ``[(coeff, mono id), ...]`` and ``depth`` the highest row in its
    support.  The unknown of ``row |> g`` coordinate k is slot ``8*row + k`` and that of
    ``row |> v`` slot ``8*row + 4 + k``, read off the unknown table, so
    ``slot >> 3`` is the row and ``slot & 7`` the local slot, the place in
    that row's candidate tuple."""
    h4 = sweedler_h4()
    op, _reg = classifier.build_unknown_op(h4, "generator32")
    slot_of = {
        unknown.support[0]: 8 * row + 4 * half + k
        for row in range(4)
        for half in (0, 1)
        for k, unknown in enumerate(op.table[row][1 + half])
    }
    converted = []
    for constraint in classifier.generate_constraints(h4, op, "weak").equations:
        terms, depth = [], 0
        for mono, coeff in constraint.poly.terms():
            if coeff.denominator != 1:
                raise AssertionError("generator system has non-integer coefficient")
            mono = tuple(sorted((slot_of[v], e) for v, e in mono))
            if mono:
                depth = max(depth, mono[-1][0] >> 3)
            terms.append((int(coeff), _intern(mono)))
        converted.append((constraint.axiom, depth, terms))
    return tuple(converted)


@lru_cache(maxsize=None)
def _system_terms(mode: str) -> dict:
    """The term lists of ``mode`` grouped by depth, in generation order;
    relaxed mode drops unitality's, all at depth 0.  A search starts from
    this system as it is: :func:`row_candidates` reduces row 0's
    constraints mod p as it reads them, and :func:`_fold` the deeper ones."""
    if mode not in ("relaxed", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    grouped: dict[int, list] = {0: [], 1: [], 2: [], 3: []}
    for axiom, depth, terms in _generator_terms():
        if mode == "weak" or axiom != "unitality":
            grouped[depth].append(terms)
    return grouped


def _fold(p: int, system: dict, row: int, values: tuple) -> dict:
    """Substitute the chosen ``values`` of ``row`` into the constraints of
    every deeper depth of ``system`` (depth -> list of term lists, as in
    :func:`_system_terms`, none of them dead).  The result holds the depths
    beyond ``row`` with coefficients reduced mod p and vanishing constraints
    dropped; a depth becomes None, dead, as soon as one of its constraints
    folds to a nonzero constant.  The search never folds a system with a
    dead depth: it prunes that prefix first."""
    # each local monomial's value, 0 at once when one of its slots is 0
    zeros = sum(1 << k for k, x in enumerate(values) if not x)
    local = [
        0 if mask & zeros else math.prod(values[k] ** e for k, e in m) % p
        for m, (_lid, mask) in _LOCALS.items()
    ]
    split = _SPLITS
    folded: dict = {}
    for depth, constraints in system.items():
        if depth <= row:
            continue
        out = []
        for terms in constraints:
            acc: dict = {}
            for coeff, mid in terms:
                r, lid, rest = split[mid]
                if r == row:
                    coeff = coeff * local[lid] % p
                    if not coeff:
                        continue
                    mid = rest
                acc[mid] = acc.get(mid, 0) + coeff
            reduced = [(c % p, mid) for mid, c in acc.items() if c % p]
            if not reduced:
                continue
            if len(reduced) == 1 and not reduced[0][1]:
                out = None
                break
            out.append(reduced)
        if out is not None:
            out.sort(key=len)
        folded[depth] = out
    return folded


def _eval_compiled(terms, vals, p: int) -> int:
    total = 0
    for c, mono in terms:
        v = c
        for s, e in mono:
            v = v * pow(vals[s], e, p) % p
            if v == 0:
                break
        total = (total + v) % p
    return total


def _is_linear(terms) -> bool:
    return all(len(mono) <= 1 and (not mono or mono[0][1] == 1) for _c, mono in terms)


def row_candidates(p: int, row_index: int, system: dict) -> list[tuple]:
    """All (x|>g, x|>v) value pairs over F_p for basis row ``row_index`` that
    satisfy every constraint of ``system[row_index]``, lexicographically in
    slots 1-3, 5-7.

    ``system`` is :func:`_system_terms`' system with the rows before
    ``row_index`` folded in (see :func:`_fold`), so each constraint of the
    row's depth reads this row's slots only.  Its coefficients are reduced
    mod p as they are read, zero terms and constraints left empty dropped,
    and each monomial is decoded through its local id to ``((local slot,
    exp), ...)``.  The constraints linear in this row's slots are
    row-reduced; the coalgebra counit axiom gives every row two of them,
    the pins ``v[0] + v[1] = eps(x)`` and ``v[4] + v[5] = 0`` in local
    slots, which read this row only and so are never folded away.  The free
    slots of the affine solution space are walked depth first over 0..p-1.
    Each pivot slot is set at the level of the last free slot its reduced
    row names, and each nonlinear constraint is checked once, at the level
    of the deepest slot it reads (level 0, before any free slot is fixed,
    when it reads only constant pivots)."""
    local_monos = list(_LOCALS)
    # each linear equation scaled to a leading 1, so that repeats reduce only once
    matrix = set()
    nonlinear = []
    for terms in system[row_index]:
        terms = [(c % p, local_monos[_SPLITS[mid][1]]) for c, mid in terms if c % p]
        if not terms:
            continue
        if not _is_linear(terms):
            nonlinear.append(terms)
            continue
        coeffs = [0] * 9
        for c, mono in terms:
            if mono:
                coeffs[mono[0][0]] = c
            else:
                coeffs[8] = -c
        inv = pow(next(c for c in coeffs if c), -1, p)
        matrix.add(tuple(c * inv % p for c in coeffs))
    reduced, pivots = rref(sorted(matrix), p)
    if pivots[-1:] == [8]:
        return []
    free = [c for c in range(8) if c not in pivots]
    level_of = {f: i + 1 for i, f in enumerate(free)}
    solved: list[list] = [[] for _ in range(len(free) + 1)]
    for pc, r in zip(pivots, reduced):
        named = [(f, r[f]) for f in free if r[f]]
        level_of[pc] = max((level_of[f] for f, _c in named), default=0)
        solved[level_of[pc]].append((pc, r[8], named))
    checks: list[list] = [[] for _ in range(len(free) + 1)]
    for terms in nonlinear:
        checks[max(level_of[s] for _c, mono in terms for s, _e in mono)].append(terms)

    vals = [0] * 8
    candidates = []

    def walk(level: int) -> None:
        for pc, const, named in solved[level]:
            vals[pc] = (const - sum(c * vals[f] for f, c in named)) % p
        if any(_eval_compiled(terms, vals, p) for terms in checks[level]):
            return
        if level == len(free):
            candidates.append(tuple(vals))
            return
        for x in range(p):
            vals[free[level]] = x
            walk(level + 1)

    walk(0)
    # the walk is lexicographic in the free slots; the order promised is in slots 1-3, 5-7
    candidates.sort(key=lambda v: (v[1], v[2], v[3], v[5], v[6], v[7]))
    return candidates


# -- full enumeration ------------------------------------------------------------

def _leaf(H4: HopfStructure, p: int, mode: str, rows: dict) -> TriangleOp | None:
    """The completed table of the chosen residues ``rows`` as an F_p table,
    or None when it fails the mode's axioms.  The completion is computed on
    ints and reduced mod p (see the module docstring)."""
    lifted = extend_generators(
        H4, GeneratorTable(tuple((rows[i][:4], rows[i][4:]) for i in range(4)))
    )
    op = TriangleOp(
        4,
        tuple(tuple(tuple(x % p for x in cell) for cell in row) for row in lifted.table),
        p,
    )
    if all(report.passed for report in axiom_suite(H4, op, mode).values()):
        return op
    return None


def enumerate_structures(task: EnumerationTask) -> EnumerationReport:
    """Exhaustive, exact enumeration; the structures come out canonically
    sorted."""
    h4 = sweedler_h4()
    p = task.prime
    t0 = time.perf_counter()
    stats = {"row_scans": 0, "leaves": 0, "passed": 0, "prefix_pruned": 0}
    found: dict[str, TriangleOp] = {}

    def descend(row: int, assigned: dict, system: dict) -> None:
        if row == 4:
            stats["leaves"] += 1
            op = _leaf(h4, p, task.mode, assigned)
            if op is not None:
                stats["passed"] += 1
                found[op_serial(op)] = op
            return
        # a dead depth holds a constraint folded to a nonzero constant, which
        # no later row can change
        if None in system.values():
            stats["prefix_pruned"] += 1
            return
        stats["row_scans"] += 1
        cands = row_candidates(p, row, system)
        if not cands:
            stats["prefix_pruned"] += 1
            return
        for cand in cands:
            assigned[row] = cand
            descend(row + 1, assigned, _fold(p, system, row, cand))
        del assigned[row]

    descend(0, {}, _system_terms(task.mode))

    ordered = tuple(found[key] for key in sorted(found))
    elapsed = time.perf_counter() - t0
    return EnumerationReport(
        task=task,
        structures=ordered,
        count=len(ordered),
        elapsed=elapsed,
        stats=stats,
    )


# -- comparison against the symbolic families --------------------------------------

def _op_mod_p(op: TriangleOp, p: int, assignment: dict[int, int]) -> TriangleOp:
    """The table ``op``, symbolic or rational, at ``assignment`` and reduced
    to F_p."""

    def reduced(entry):
        return rational_mod_p(entry.evaluate(assignment) if isinstance(entry, Poly) else entry, p)

    table = tuple(tuple(tuple(reduced(e) for e in cell) for cell in row) for row in op.table)
    return TriangleOp(op.dim, table, p)


def family_evaluations(families: dict[str, TriangleOp], p: int) -> dict[str, tuple]:
    """Every specialization of the given symbolic tables over F_p, keyed by
    canonical serialization; values are (label, parameter or None)."""
    out: dict[str, tuple] = {}
    for label, op in families.items():
        params = table_params(op)
        if not params:
            key = op_serial(_op_mod_p(op, p, {}))
            out.setdefault(key, (label, None))
        else:
            if len(params) != 1:
                raise ValueError(f"family {label!r} has more than one parameter")
            (vid,) = params
            for v in range(p):
                key = op_serial(_op_mod_p(op, p, {vid: v}))
                out.setdefault(key, (label, v))
    return out


@dataclass
class FamilyDiff:
    missing: list[tuple]   # (label, param, serial) expected but not enumerated
    extra: list[str]       # serials enumerated but not produced by any family
    expected_count: int

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra


def compare_with_families(report: EnumerationReport, families: dict[str, TriangleOp]) -> FamilyDiff:
    """Set comparison between the enumerated structures and all family
    specializations over the same prime."""
    expected = family_evaluations(families, report.task.prime)
    got = {op_serial(op) for op in report.structures}
    missing = [
        (label, param, key)
        for key, (label, param) in sorted(expected.items())
        if key not in got
    ]
    extra = sorted(key for key in got if key not in expected)
    return FamilyDiff(missing=missing, extra=extra, expected_count=len(expected))
