"""The depth-first branch solver for polynomial constraint systems.

Its only moves, each tried only when the ones before it do not apply, are

  (a) prune a branch containing a nonzero constant equation,
  (b) eliminate a variable that occurs linearly, with a nonzero constant
      coefficient, in a linear equation (smallest equation support first,
      ties by lowest id),
  (c) split the lowest-canonical-order equation that factors (monomial
      content or a rational-root quadratic), one disjoint case per factor,
  (d) the elimination of (b) through a nonlinear equation,

until no equations remain (resolved), nothing applies (unresolved), or the
branch dies (inconsistent).  A nonlinear elimination waits for the splits
because its substitution swells the store, while a split makes smaller
cases ("factor early", D. Wang, *Elimination Methods*, Springer 2001).
Every resolved branch is re-verified by exact substitution into the
original system; a verification failure is a hard error, never a silent
drop.

A branch's equations form a store: a list sorted only where its order is
read, before move (c) picks a split, which move (d) then reads too, and at
a leaf.  There ``_prepare`` stable-sorts it by ``Poly.canon_key`` and keeps
the first equation of each key (rational multiples share a key).  In
between, an elimination or a cancellation replaces each changed equation in
its list position and drops zeros, and a split child's factor comes last.
Moves (b) and (d) read ``canon_key`` only on a tie; equations of one key
give the same elimination.

Determinism: variable ids, equation ordering and tie-breaking are all fixed,
so two runs produce identical branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multipoly import Poly, VarRegistry, compose_many, try_factor_split

__all__ = [
    "Constraint",
    "ConstraintSystem",
    "Branch",
    "SolverVerificationError",
    "solve",
]


class SolverVerificationError(RuntimeError):
    """A resolved branch failed re-substitution into the original system."""


@dataclass(frozen=True)
class Constraint:
    """An axiom residual: a ``Poly`` in a system, a number in a concrete check."""

    residual: object
    axiom: str
    indices: tuple

    def provenance(self) -> str:
        return f"{self.axiom}@{','.join(map(str, self.indices))}"


@dataclass
class ConstraintSystem:
    registry: VarRegistry
    equations: list[Constraint]


@dataclass
class Branch:
    """One leaf of the solver tree.

    For a resolved branch, ``assignments`` maps every original variable id
    to a polynomial over ``registry`` (the branch's own parameter registry,
    variables named a, b, c, ... in original-id order); free parameters map
    to themselves.  Inconsistent and unresolved branches keep partial
    assignments over the original system registry together with the
    equations that remained.
    """

    status: str                      # "resolved" | "inconsistent" | "unresolved"
    assignments: dict
    free_params: tuple[str, ...]
    registry: VarRegistry
    remaining: tuple = ()
    note: str = ""
    trace: tuple[str, ...] = ()
    # nonzero side conditions the branch's case split imposed, rendered over
    # the branch parameters; the sibling cases cover their complements
    side_conditions: tuple[str, ...] = ()


_PARAM_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _param_names(count: int) -> list[str]:
    names = []
    for i in range(count):
        if i < len(_PARAM_ALPHABET):
            names.append(_PARAM_ALPHABET[i])
        else:
            names.append(f"p{i}")
    return names


def _prepare(equations) -> list[Poly]:
    """Build the equation store from scratch: drop zeros, stable-sort by
    ``canon_key`` and keep the first equation of each key."""
    eqs = sorted((eq for eq in equations if not eq.is_zero()), key=Poly.canon_key)
    return [
        eq for i, eq in enumerate(eqs)
        if not i or eq.canon_key() != eqs[i - 1].canon_key()
    ]


def _elimination(eqs, solvable_set, linear: bool) -> tuple | None:
    """Move (b)'s choice when ``linear``, else move (d)'s: among the
    equations of total degree 1, or of higher degree, the ``(v, a, eq)``
    with ``eq = a*x_v + rest``, ``a`` constant and ``rest`` free of ``x_v``,
    least in ``(len(eq.support), v, eq.canon_key())``, or ``None``.  The key
    is read only on a tie in the first two; of equal keys the first in list
    order stays, and any of them gives the same ``x_v := x_v - eq/a``."""
    best = None
    for eq in eqs:
        cands = eq.linear_candidates()
        # an equation is linear exactly when all its variables are candidates
        if not cands or (len(cands) == len(eq.support)) != linear:
            continue
        for v, a in cands:
            if solvable_set is None or v in solvable_set:
                # candidates come by ascending id, so v is this equation's best
                rank = (len(eq.support), v)
                if (
                    best is None
                    or rank < best[0]
                    or rank == best[0] and eq.canon_key() < best[3].canon_key()
                ):
                    best = (rank, v, a, eq)
                break
    return None if best is None else best[1:]


def _bare_var(poly: Poly) -> int | None:
    """Variable id when the polynomial is a nonzero multiple of one variable."""
    # every term has x_v as a factor and degree 1, so the only term is a*x_v
    content = poly.content_vars()
    if len(content) == 1 and poly.total_degree() == 1:
        return content[0]
    return None


def solve(
    system: ConstraintSystem,
    *,
    max_branches: int = 10000,
    solvable=None,
) -> tuple[list[Branch], dict]:
    """Depth-first exploration of the constraint system.

    Splits are disjoint: after branching on a factorization, each later
    child records the earlier factors as nonzero side conditions.  A bare
    nonzero variable cancels out of any equation it divides (the coefficient
    field has no zero divisors), which is what keeps the case tree small;
    other nonzero factors are only watched for contradictions.

    ``solvable`` restricts elimination to the given variable ids; with the
    restriction active, a nonzero equation supported entirely outside the
    solvable set prunes its branch (it could never vanish identically).
    Used for specialization matching, where one table's parameters must be
    solved in terms of the other's.
    """
    registry = system.registry
    nvars = len(registry)
    solvable_set = None if solvable is None else set(solvable)
    stats = {
        "substitutions": 0,
        "splits": 0,
        "pruned": 0,
        "resolved": 0,
        "unresolved": 0,
        "nodes": 1,
    }
    branches: list[Branch] = []
    original = [c.residual for c in system.equations]
    # stack entries: equations, assignments, nonzero var ids, watched nonzero
    # polynomials, trace
    stack = [(_prepare(original), {}, frozenset(), (), ())]

    def leaf(status, assign, eqs, note, trace):
        stats["pruned" if status == "inconsistent" else "unresolved"] += 1
        branches.append(
            Branch(
                status=status,
                assignments=dict(assign),
                free_params=(),
                registry=registry,
                remaining=tuple(_prepare(eqs)),
                note=note,
                trace=trace,
            )
        )

    while stack:
        eqs, assign, nonzero, watch, trace = stack.pop()
        while True:
            # cancel nonzero variables out of equations they divide, in place
            if nonzero:
                for i, eq in enumerate(eqs):
                    while True:
                        hit = next((v for v in eq.content_vars() if v in nonzero), None)
                        if hit is None:
                            break
                        eq = eqs[i] = eq.divide_once_by(hit)

            # (a) dead branches: nonzero constants, contradicted side
            # conditions, or (restricted mode) equations with no solvable
            # variable left.  The note names the first dead equation in the
            # sorted store.
            dead = None
            doomed = [
                eq for eq in eqs
                if eq.is_constant()
                or solvable_set is not None and not any(v in solvable_set for v in eq.support)
            ]
            if doomed:
                eq = min(doomed, key=Poly.canon_key)
                dead = (f"equation reduced to constant {eq}" if eq.is_constant()
                        else f"equation {eq} has no solvable variable")
            elif any(w.is_zero() for w in watch):
                dead = "nonzero side condition became zero"
            if dead is not None:
                leaf("inconsistent", assign, eqs, dead, trace)
                break
            watch = tuple(
                w for w in watch if not (w.is_constant() and not w.is_zero())
            )

            # (b) elimination through a linear equation; when there is none,
            # (c) scans for a split, and only when nothing splits does (d)
            # eliminate through a nonlinear equation
            best = _elimination(eqs, solvable_set, linear=True)
            if best is None:
                eqs = _prepare(eqs)
                split = next(
                    ((eq, factors) for eq in eqs if (factors := try_factor_split(eq))), None
                )
                if split is None:
                    best = _elimination(eqs, solvable_set, linear=False)
            if best is not None:
                v, a, eq = best
                # eq = a*x_v + rest, so x_v := -rest/a = x_v - eq/a
                expr = registry.var_by_id(v) - eq * (Fraction(1) / a)
                assign = {w: val.substitute(v, expr) for w, val in assign.items()}
                assign[v] = expr
                subbed = (eq2.substitute(v, expr) if v in eq2.support else eq2 for eq2 in eqs)
                eqs = [eq2 for eq2 in subbed if not eq2.is_zero()]
                watch = tuple(w.substitute(v, expr) for w in watch)
                if v in nonzero:
                    nonzero = nonzero - {v}
                    # expr = -rest/a is nonzero: an eq = a*x_v was cancelled to a, then pruned
                    if not expr.is_constant():
                        watch = watch + (expr,)
                stats["substitutions"] += 1
                trace = trace + (f"eliminate {registry.name_of(v)} := {expr}",)
                continue

            # (c) factor split on the lowest-canonical-order splittable
            # equation; children are disjoint cases.
            if split is not None:
                eq, factors = split
                keys = [f.canon_key() for f in factors]
                factors = [f for i, f in enumerate(factors) if keys[i] not in keys[:i]]
                if stats["nodes"] + len(factors) > max_branches:
                    leaf("unresolved", assign, eqs, "limit exceeded", trace)
                    break
                # each factor comes last, so it loses every tie
                rest = [e for e in eqs if e is not eq]
                stats["splits"] += 1
                stats["nodes"] += len(factors)
                children = []
                for idx, factor in enumerate(factors):
                    child_nonzero = set(nonzero)
                    child_watch = list(watch)
                    for prior in factors[:idx]:
                        bare = _bare_var(prior)
                        if bare is not None:
                            child_nonzero.add(bare)
                        else:
                            child_watch.append(prior)
                    children.append(
                        (
                            rest + [factor],
                            dict(assign),
                            frozenset(child_nonzero),
                            tuple(child_watch),
                            trace + (f"split {eq}: case {factor} = 0",),
                        )
                    )
                stack.extend(reversed(children))
                break

            if not eqs:
                branches.append(_finalize(system, assign, trace, nvars, nonzero, watch))
                stats["resolved"] += 1
                break

            leaf("unresolved", assign, eqs, "no applicable elimination or split", trace)
            break

    return branches, stats


def _finalize(
    system: ConstraintSystem, assign: dict, trace, nvars: int, nonzero=frozenset(), watch=()
) -> Branch:
    """Rename the surviving variables to canonical parameters, express every
    assignment in them, and re-verify the original system exactly."""
    registry = system.registry
    free = [v for v in range(nvars) if v not in assign]
    names = _param_names(len(free))
    param_reg = VarRegistry()
    pmap = {v: param_reg.var(name) for v, name in zip(free, names)}
    full: dict[int, Poly] = {}
    for v in range(nvars):
        if v in assign:
            full[v] = assign[v].compose(pmap, param_reg)
        else:
            full[v] = pmap[v]
    residuals = compose_many(
        [c.residual for c in system.equations], full, param_reg
    )
    for constraint, residual in zip(system.equations, residuals):
        if not residual.is_zero():
            raise SolverVerificationError(
                f"branch fails re-verification at {constraint.provenance()}: "
                f"residual {residual}"
            )
    conditions = [f"{pmap[v]} != 0" for v in sorted(nonzero) if v in pmap]
    conditions += [f"{w.compose(pmap, param_reg)} != 0" for w in watch]
    return Branch(
        status="resolved",
        assignments=full,
        free_params=tuple(names),
        registry=param_reg,
        remaining=(),
        trace=trace,
        side_conditions=tuple(conditions),
    )

