"""The depth-first branch solver for polynomial constraint systems.

Its only moves are

  (a) prune a branch containing a nonzero constant equation,
  (b) eliminate a variable that occurs linearly with a nonzero constant
      coefficient (smallest equation support first, ties by lowest id),
  (c) split the lowest-canonical-order equation that factors (monomial
      content or a rational-root quadratic), one disjoint case per factor,

until no equations remain (resolved), nothing applies (unresolved), or the
branch dies (inconsistent).  Every resolved branch is re-verified by exact
substitution into the original system; a verification failure is a hard
error, never a silent drop.

A branch's equations form a store: a list sorted by ``Poly.canon_key`` with
unique keys, where of two equations with one key (rational multiples of
each other) the one first in input order stays.  ``_prepare`` builds it
once; after each move ``_refile`` re-keys only the equations the move
changed and inserts them among the untouched ones, which keep their keys
and their order.

Determinism: variable ids, equation ordering and tie-breaking are all fixed,
so two runs produce identical branches.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

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
    poly: Poly
    axiom: str
    indices: tuple

    def provenance(self) -> str:
        return f"{self.axiom}@{','.join(map(str, self.indices))}"


@dataclass
class ConstraintSystem:
    registry: VarRegistry
    equations: list[Constraint]
    mode: str


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


def _refile(eqs: list[Poly], changed: dict[int, Poly]) -> list[Poly]:
    """The store ``eqs`` with ``eqs[i]`` replaced by ``changed[i]``.

    ``eqs`` must be sorted and unique outside the changed positions.  Only
    the replacements are keyed and sorted; they are inserted by bisection
    among the untouched equations, which keep their keys and their order.
    The result equals ``_prepare`` over the replaced list: zeros drop out,
    and of two equations with one key the one earlier in ``eqs`` stays.
    """
    out = []
    origin = []
    for j, eq in enumerate(eqs):
        if j not in changed:
            out.append(eq)
            origin.append(j)
    fresh = sorted(
        ((eq.canon_key(), i, eq) for i, eq in changed.items() if not eq.is_zero()),
        key=itemgetter(0),
    )
    lo = 0
    for key, i, eq in fresh:
        pos = bisect_left(out, key, lo, key=Poly.canon_key)
        if pos == len(out) or out[pos].canon_key() != key:
            out.insert(pos, eq)
            origin.insert(pos, i)
        elif i < origin[pos]:
            out[pos] = eq
            origin[pos] = i
        lo = pos
    return out


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
    max_depth: int = 64,
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
    original = [c.poly for c in system.equations]
    # stack entries: equations, assignments, nonzero var ids, watched nonzero
    # polynomials, depth, trace
    stack = [(_prepare(original), {}, frozenset(), (), 0, ())]

    def leaf(status, assign, eqs, note, trace):
        stats["pruned" if status == "inconsistent" else "unresolved"] += 1
        branches.append(
            Branch(
                status=status,
                assignments=dict(assign),
                free_params=(),
                registry=registry,
                remaining=tuple(eqs),
                note=note,
                trace=trace,
            )
        )

    while stack:
        eqs, assign, nonzero, watch, depth, trace = stack.pop()
        while True:
            # cancel nonzero variables out of equations they divide
            if nonzero:
                changed = {}
                for i, eq in enumerate(eqs):
                    while True:
                        hit = next((v for v in eq.content_vars() if v in nonzero), None)
                        if hit is None:
                            break
                        eq = eq.divide_once_by(hit)
                        changed[i] = eq
                if changed:
                    eqs = _refile(eqs, changed)

            # (a) dead branches: nonzero constants, contradicted side
            # conditions, or (restricted mode) equations with no solvable
            # variable left.
            dead = None
            for eq in eqs:
                if eq.is_constant():
                    dead = f"equation reduced to constant {eq}"
                    break
                if solvable_set is not None and not any(
                    v in solvable_set for v in eq.support
                ):
                    dead = f"equation {eq} has no solvable variable"
                    break
            if dead is None:
                for w in watch:
                    if w.is_zero():
                        dead = "nonzero side condition became zero"
                        break
            if dead is not None:
                leaf("inconsistent", assign, eqs, dead, trace)
                break
            watch = tuple(
                w for w in watch if not (w.is_constant() and not w.is_zero())
            )

            # (b) linear elimination with a constant coefficient
            best = None
            for eq in eqs:
                cands = eq.linear_candidates()
                if not cands:
                    continue
                sup = eq.support
                for v, a in cands:
                    if solvable_set is not None and v not in solvable_set:
                        continue
                    key = (len(sup), v, eq.canon_key())
                    if best is None or key < best[0]:
                        best = (key, v, a, eq)
            if best is not None:
                _, v, a, eq = best
                # eq = a*x_v + rest, so x_v := -rest/a = x_v - eq/a
                expr = registry.var_by_id(v) - eq * (Fraction(1) / a)
                assign = {w: val.substitute(v, expr) for w, val in assign.items()}
                assign[v] = expr
                eqs = _refile(eqs, {
                    i: eq2.substitute(v, expr)
                    for i, eq2 in enumerate(eqs) if v in eq2.support
                })
                watch = tuple(w.substitute(v, expr) for w in watch)
                if v in nonzero:
                    nonzero = nonzero - {v}
                    if expr.is_zero():
                        leaf("inconsistent", assign, eqs,
                             f"{registry.name_of(v)} assumed nonzero but forced to 0", trace)
                        break
                    if not expr.is_constant():
                        watch = watch + (expr,)
                stats["substitutions"] += 1
                trace = trace + (f"eliminate {registry.name_of(v)} := {expr}",)
                continue

            # (c) factor split on the lowest-canonical-order splittable
            # equation; children are disjoint cases.
            split = None
            for eq in eqs:
                factors = try_factor_split(eq)
                if factors:
                    deduped = []
                    keys = set()
                    for f in factors:
                        k = f.canon_key()
                        if k not in keys:
                            keys.add(k)
                            deduped.append(f)
                    split = (eq, deduped)
                    break
            if split is not None:
                eq, factors = split
                if depth + 1 > max_depth or stats["nodes"] + len(factors) > max_branches:
                    leaf("unresolved", assign, eqs, "limit exceeded", trace)
                    break
                rest = [e for e in eqs if e is not eq]
                last = len(rest)  # each factor comes last, so it loses every tie
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
                            _refile(rest + [factor], {last: factor}),
                            dict(assign),
                            frozenset(child_nonzero),
                            tuple(child_watch),
                            depth + 1,
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
        [c.poly for c in system.equations], full, param_reg
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

