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
slots (``8*row + k``, each its unknown's id in the unknown table's
registry), generated once per process for the weak suite: its checks run
one at a time on the unknown table, each residual is converted to its term
list as it comes and then dropped, and a residual equal to an earlier one
up to a nonzero rational factor (the same primitive term list up to sign)
is skipped.  No polynomial, canonical key or monomial key outlives the
generation.  The relaxed system is the same term lists without
unitality's.  A term list is one flat int tuple ``(c_0, mono_0, c_1,
mono_1, ...)``, and a monomial id has one 8-bit digit per row, row 0's
lowest: the local id of the row's part, 0 when it reads nothing of the
row.  So the conversion keeps one entry per local monomial and no table
keyed by whole monomials.  A search starts from the term lists unreduced.
Each chosen row is folded (substituted, mod p) into the constraints of
every deeper row once, which shifts each id down one digit, and the folded
system is carried down the recursion, so all children of a prefix share
that work.
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

The oracle stays independent of the classifier and the branch solver: its
constraints are those of the classifier's weak system, in the same order,
since both read the one suite of :func:`~posthopf.triangleop.axiom_checks`
on the same unknown table, but it generates them itself and shares none of
the solver's moves (substitution order, factor splits, side conditions).
Every point it keeps satisfies every constraint of its row, and every
emitted table passes the full axiom suite over F_p.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .exactmath import is_odd_prime, rational_mod_p, rref
from .hopfcore import HopfStructure, sweedler_h4
from .multipoly import Poly
from .triangleop import (
    TriangleOp,
    axiom_checks,
    axiom_suite,
    build_unknown_op,
    extend_generators,
    map_table,
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

# Monomials ((slot, exp), ...) by ascending slot are interned as ints with one
# _DIGIT_BITS-bit digit per row, row 0's lowest: the local id of that row's
# part, 0 when the monomial reads nothing of the row, so 0 is the monomial 1.
# _LOCALS maps each part, as a local monomial ((slot & 7, exp), ...), to
# (local id, mask of its slots), alike in every row; its keys in insertion
# order are the local monomials by local id, local id 0 the local monomial 1.
_DIGIT_BITS = 8
_LOCALS: dict[tuple, tuple] = {(): (0, 0)}


def _intern(mono: tuple) -> int:
    """The id of ``mono``: each row's part is interned as a local monomial,
    and its local id is that row's digit.  Raises OverflowError rather than
    let a new local id outgrow its digit."""
    parts: dict[int, list] = {}
    for s, e in mono:
        parts.setdefault(s >> 3, []).append((s & 7, e))
    mid = 0
    for row, part in parts.items():
        local = tuple(part)
        got = _LOCALS.get(local)
        if got is None:
            if len(_LOCALS) == 1 << _DIGIT_BITS:
                raise OverflowError(
                    f"more than {1 << _DIGIT_BITS} local monomials: a row's digit "
                    f"of a monomial id has {_DIGIT_BITS} bits"
                )
            got = _LOCALS[local] = (len(_LOCALS), sum(1 << k for k, _e in local))
        mid |= got[0] << (_DIGIT_BITS * row)
    return mid


def _weak_residuals():
    """The residuals of the weak suite on the generator32 unknown table, as
    :class:`~posthopf.solver.Constraint` entries in suite order.  The
    checks run one at a time, and each check's entries leave its list as
    they are handed out, so a residual lives only until its consumer is
    done with it."""
    h4 = sweedler_h4()
    op, _reg = build_unknown_op(h4, "generator32")
    for _name, check in axiom_checks("weak"):
        pending = list(check(h4, op).entries)
        pending.reverse()
        while pending:
            yield pending.pop()


def _class_key(terms: tuple) -> tuple:
    """The term list ``(c_0, mono_0, c_1, mono_1, ...)``, integer
    coefficients, divided by the gcd of its coefficients and signed so that
    its first coefficient is positive.  Two polynomials' term lists in their
    print order have equal keys exactly when the polynomials are equal up
    to a nonzero rational factor, which is what equal
    :meth:`Poly.canon_key` means."""
    g = math.gcd(*terms[::2])
    if terms[0] < 0:
        g = -g
    key = list(terms)
    key[::2] = [c // g for c in terms[::2]]
    return tuple(key)


@lru_cache(maxsize=None)
def _generator_terms() -> tuple:
    """The weak constraints of the generator parameterization as ``(axiom,
    depth, terms)``: the first residual of each class of
    :func:`_weak_residuals`, in their order, two residuals being of one
    class when they are equal up to a nonzero rational factor.  These are
    the classifier's weak equations, in its order.  ``terms`` is the
    residual's integer term list ``(coeff, mono id, ...)`` in print order,
    as it is and not normalized, and ``depth`` the highest row in its
    support.  Each residual is converted as it comes and then dropped; only
    the term lists are kept.  A slot is its unknown's id: the unknown table
    registers ``row |> g`` coordinate k as ``8*row + k`` and ``row |> v``
    coordinate k as ``8*row + 4 + k``, so ``slot >> 3`` is the row and
    ``slot & 7`` the local slot, the place in that row's candidate tuple."""
    seen: set = set()
    converted = []
    for constraint in _weak_residuals():
        terms, depth = [], 0
        for mono, coeff in constraint.residual.terms():
            if type(coeff) is not int:
                raise AssertionError("generator system has non-integer coefficient")
            if mono:
                depth = max(depth, mono[-1][0] >> 3)
            terms += coeff, _intern(mono)
        terms = tuple(terms)
        key = _class_key(terms)
        if key not in seen:
            seen.add(key)
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
    :func:`_system_terms`, none of them dead), whose monomial ids hold
    ``row``'s local id in their lowest digit.  The result holds the depths
    beyond ``row`` with coefficients reduced mod p, vanishing constraints
    dropped and each id shifted down one digit, so that the next row's
    local id is its lowest; a depth becomes None, dead, as soon as one of
    its constraints folds to a nonzero constant.  The search never folds a
    system with a dead depth: it prunes that prefix first."""
    # each local monomial's value, 0 at once when one of its slots is 0
    zeros = sum(1 << k for k, x in enumerate(values) if not x)
    local = [
        0 if mask & zeros else math.prod(values[k] ** e for k, e in m) % p
        for m, (_lid, mask) in _LOCALS.items()
    ]
    bits = _DIGIT_BITS
    digit = (1 << bits) - 1
    folded: dict = {}
    for depth, constraints in system.items():
        if depth <= row:
            continue
        out = []
        for terms in constraints:
            acc: dict = {}
            it = iter(terms)
            for coeff, mid in zip(it, it):
                coeff = coeff * local[mid & digit] % p
                if coeff:
                    mid >>= bits
                    acc[mid] = acc.get(mid, 0) + coeff
            reduced = []
            for mid, c in acc.items():
                if c % p:
                    reduced += c % p, mid
            if not reduced:
                continue
            if len(reduced) == 2 and not reduced[1]:
                out = None
                break
            out.append(tuple(reduced))
        if out is not None:
            out.sort(key=len)
        folded[depth] = out
    return folded


def _eval_compiled(terms, vals, p: int) -> int:
    """The value mod p of ``[(coeff, ((local slot, exp), ...)), ...]`` at
    ``vals``.  A factor of exponent 1, nearly every one, is read off
    ``vals`` as it is; the values are below p and the degrees small, so the
    sum is reduced once."""
    total = 0
    for c, mono in terms:
        for s, e in mono:
            c *= vals[s] if e == 1 else vals[s] ** e
        total += c
    return total % p


def _is_linear(terms) -> bool:
    return all(len(mono) <= 1 and (not mono or mono[0][1] == 1) for _c, mono in terms)


def row_candidates(p: int, row_index: int, system: dict) -> list[tuple]:
    """All (x|>g, x|>v) value pairs over F_p for basis row ``row_index`` that
    satisfy every constraint of ``system[row_index]``, lexicographically in
    slots 1-3, 5-7.

    ``system`` is :func:`_system_terms`' system with the rows before
    ``row_index`` folded in (see :func:`_fold`), so each constraint of the
    row's depth reads this row's slots only, and each of its monomial ids is
    a local id.  Its coefficients are reduced mod p as they are read, zero
    terms and constraints left empty dropped, and each monomial is decoded
    through its local id to ``((local slot, exp), ...)``.  The constraints
    linear in this row's slots are row-reduced; the coalgebra counit axiom
    gives every row two of them, the pins ``v[0] + v[1] = eps(x)`` and
    ``v[4] + v[5] = 0`` in local slots, which read this row only and so are
    never folded away.  The free slots of the affine solution space are
    walked depth first over 0..p-1.  Each pivot slot is set at the level of
    the last free slot its reduced row names, and each nonlinear constraint
    is checked once, at the level of the deepest slot it reads (level 0,
    before any free slot is fixed, when it reads only constant pivots)."""
    local_monos = list(_LOCALS)
    matrix = []
    nonlinear = []
    for terms in system[row_index]:
        it = iter(terms)
        terms = [(c % p, local_monos[mid]) for c, mid in zip(it, it) if c % p]
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
                coeffs[8] = -c % p
        matrix.append(coeffs)
    reduced, pivots = rref(matrix, p)
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
        H4, {1: [rows[i][:4] for i in range(4)], 2: [rows[i][4:] for i in range(4)]}
    )
    op = _op_mod_p(lifted, p, {})
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
            # the last row leaves no deeper depth to fold into
            descend(row + 1, assigned, _fold(p, system, row, cand) if row < 3 else {})
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

    return TriangleOp(op.dim, map_table(reduced, op.table), p)


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
