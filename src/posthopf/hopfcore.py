"""Finite-dimensional Hopf algebras presented by structure constants.

A :class:`HopfStructure` fixes a basis and stores the multiplication and
comultiplication tensors, unit and counit vectors, and the antipode matrix,
all over exact rationals.  Elements are coefficient tuples over any exact
ring that combines with ints and Fractions (Fraction itself, int,
polynomials), so the same bilinear machinery serves numeric and symbolic
computations.  F_p is computed on integer lifts: an F_p vector is ints in
0..p-1, the contractions run in int (or, with ``Fraction`` constants,
rational) arithmetic, and a check reduces each residual mod p at the end.

The constants of :func:`sweedler_h4` are all 0 or +-1 and are stored as
``int``, as are the coordinates of :func:`basis_element`, so contractions
of int vectors stay in int arithmetic; the checks of F_p tables, the F_p
oracle's leaf check among them, rely on that, where ``Fraction`` constants
would send every product through ``Fraction``.  A structure read from a
JSON payload holds ``Fraction`` constants; the two compare and hash equal,
and both serialize to the same strings.

That machinery is three private kernels, which ``triangleop`` shares:
``_bilinear`` contracts a structure tensor with two coefficient vectors
(``sum a_i b_j T[i][j]``), ``_linear`` is its linear case
(``sum x_l rows[l]``), and ``_sweedler`` sums vectors ``f(a, b)`` over the
coproduct of a basis element (``sum comul[i][a][b] f(a, b)``).  Each takes
the zero of the ring its result lives in, so an empty sum stays in that
ring.

Conventions: ``mul[i][j][k]`` is the ``e_k`` coefficient of ``e_i e_j``;
``comul[i][j][k]`` the ``e_j (x) e_k`` coefficient of the coproduct of
``e_i``; tensor-square elements are flattened row-major, ``(j, k) -> j*n+k``;
``antipode[i][j]`` is the ``e_j`` coefficient of the antipode of ``e_i``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactmath import kernel_basis, parse_rational, rational_mod_p
from .multipoly import VarRegistry
from .solver import Constraint, ConstraintSystem, solve

__all__ = [
    "HopfStructure",
    "AxiomReport",
    "multiply",
    "comultiply",
    "tensor_multiply",
    "counit_of",
    "antipode_of",
    "basis_element",
    "verify_hopf_axioms",
    "group_likes",
    "skew_primitives",
    "sweedler_h4",
    "hopf_to_json_dict",
    "hopf_from_json_dict",
    "hopf_to_json",
    "hopf_from_json",
]


@dataclass(frozen=True)
class HopfStructure:
    dim: int
    basis_names: tuple[str, ...]
    mul: tuple       # mul[i][j][k]
    unit: tuple      # coefficients of 1
    comul: tuple     # comul[i][j][k]
    counit: tuple
    antipode: tuple  # antipode[i][j]

    def __post_init__(self):
        n = self.dim
        if len(self.basis_names) != n or len(self.unit) != n or len(self.counit) != n:
            raise ValueError("vector lengths do not match dim")
        for tensor in (self.mul, self.comul):
            if len(tensor) != n or any(
                len(plane) != n or any(len(row) != n for row in plane)
                for plane in tensor
            ):
                raise ValueError("tensor shape does not match dim")
        if len(self.antipode) != n or any(len(row) != n for row in self.antipode):
            raise ValueError("antipode shape does not match dim")

    @cached_property
    def _comul_terms(self) -> tuple:
        """The nonzero ``(a, b, comul[i][a][b])`` of each coproduct, in
        row-major order, which :func:`_sweedler` iterates.  It is not a
        field, so equality, hashing and JSON never see it."""
        return tuple(
            tuple((a, b, c) for a, row in enumerate(plane) for b, c in enumerate(row) if c)
            for plane in self.comul
        )


@dataclass(frozen=True)
class AxiomReport:
    """Nonzero residual components of an axiom check; empty means pass."""

    entries: tuple[Constraint, ...]
    checks: int

    @property
    def passed(self) -> bool:
        return not self.entries

    def first_failure(self) -> Constraint | None:
        return self.entries[0] if self.entries else None


class _ReportBuilder:
    """Counts, reduces and filters a check's residual components ``(axiom,
    indices, value)``.  Given a ``prime`` p, each value, an integer or
    rational lift of an F_p value, is reduced mod p before it is tested: that
    is exact, as reduction from the rationals prime to p is a ring map."""

    def __init__(self, prime: int | None = None):
        self.prime = prime
        self.checks = 0

    def entries(self, components):
        """The nonzero components as constraints, each one as it comes."""
        for axiom, indices, value in components:
            self.checks += 1
            if value != 0 and self.prime is not None:  # 0 reduces to 0
                value = rational_mod_p(value, self.prime)
            if value != 0:
                yield Constraint(value, axiom, indices)

    def report(self, components) -> AxiomReport:
        return AxiomReport(tuple(self.entries(components)), self.checks)


def _vector_residual(axiom: str, indices: tuple[int, ...], vec):
    """The components of a vector residual, indexed by ``indices`` and the coordinate."""
    for comp, value in enumerate(vec):
        yield axiom, indices + (comp,), value


# -- element operations -------------------------------------------------------

def _check_len(H: HopfStructure, a) -> None:
    if len(a) != H.dim:
        raise ValueError(f"element length {len(a)} does not match dim {H.dim}")


def basis_element(H: HopfStructure, i: int) -> tuple:
    return tuple(int(k == i) for k in range(H.dim))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def _bilinear(T, a, b, zero) -> list:
    """``sum_ij a_i b_j T[i][j]``: the bilinear map V x V -> V with structure
    tensor T on coefficient vectors a and b, in the ring of ``zero``.  T is
    read only at the nonzero coordinates of a and b."""
    out = [zero] * len(a)
    for i, ai in enumerate(a):
        if not ai:
            continue
        plane = T[i]
        for j, bj in enumerate(b):
            if not bj:
                continue
            coef = ai * bj
            for k, t in enumerate(plane[j]):
                if t:
                    out[k] = out[k] + coef * t
    return out


def _linear(x, rows, zero) -> list:
    """``sum_l x_l rows[l]``: the linear case, in the ring of ``zero``."""
    out = [zero] * len(rows[0])
    for xl, row in zip(x, rows):
        if not xl:
            continue
        for k, r in enumerate(row):
            if r:
                out[k] = out[k] + xl * r
    return out


def _sweedler(H: HopfStructure, i: int, f, zero) -> list:
    """``sum_ab comul[i][a][b] f(a, b)``: the length-dim vectors ``f(a, b)``
    summed over the coproduct of ``e_i``, in the ring of ``zero``."""
    out = [zero] * H.dim
    for a, b, c in H._comul_terms[i]:
        for k, v in enumerate(f(a, b)):
            if v:
                out[k] = out[k] + c * v
    return out


def _square_product(T, s, t, zero) -> list:
    """``sum s_(ij) t_(pq) T[i][p] (x) T[j][q]``: the bilinear map T (x) T on
    flattened tensor-square vectors.  Only the planes of T (x) T that
    :func:`_bilinear` reads, at the nonzero coordinates of s and t, are
    built; their zero products are left as ``0``, which it skips."""
    n = len(T)
    planes = {}
    for ij, sij in enumerate(s):
        if not sij:
            continue
        i, j = divmod(ij, n)
        planes[ij] = plane = {}
        for pq, tpq in enumerate(t):
            if tpq:
                p, q = divmod(pq, n)
                plane[pq] = [
                    x * y if x and y else 0 for x in T[i][p] for y in T[j][q]
                ]
    return _bilinear(planes, s, t, zero)


def multiply(H: HopfStructure, a, b) -> tuple:
    """Bilinear extension of the multiplication tensor."""
    _check_len(H, a)
    _check_len(H, b)
    return tuple(_bilinear(H.mul, a, b, a[0] * 0))


def comultiply(H: HopfStructure, a) -> tuple:
    """Linear extension of the comultiplication tensor; returns the flattened
    tensor-square coefficient vector of length dim**2."""
    _check_len(H, a)
    flat = [[c for row in plane for c in row] for plane in H.comul]
    return tuple(_linear(a, flat, a[0] * 0))


def tensor_multiply(H: HopfStructure, s, t) -> tuple:
    """Componentwise product in the tensor square: (a(x)b)(c(x)d) = ac(x)bd."""
    n = H.dim
    if len(s) != n * n or len(t) != n * n:
        raise ValueError("tensor-square element length must be dim**2")
    return tuple(_square_product(H.mul, s, t, s[0] * 0))


def counit_of(H: HopfStructure, a):
    _check_len(H, a)
    return _linear(a, [(e,) for e in H.counit], a[0] * 0)[0]


def antipode_of(H: HopfStructure, a) -> tuple:
    _check_len(H, a)
    return tuple(_linear(a, H.antipode, a[0] * 0))


# -- axiom verification -------------------------------------------------------

def verify_hopf_axioms(H: HopfStructure) -> AxiomReport:
    """Residuals of all Hopf axioms on basis elements: associativity, unit,
    coassociativity, counit, bialgebra compatibility, and both antipode
    identities.  All-zero residuals certify the structure exactly."""
    return _ReportBuilder().report(_hopf_residuals(H))


def _hopf_residuals(H: HopfStructure):
    n = H.dim
    basis = [basis_element(H, i) for i in range(n)]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = multiply(H, multiply(H, basis[i], basis[j]), basis[k])
                right = multiply(H, basis[i], multiply(H, basis[j], basis[k]))
                yield from _vector_residual("assoc", (i, j, k), vec_sub(left, right))

    for i, b in enumerate(basis):
        yield from _vector_residual("unit_left", (i,), vec_sub(multiply(H, H.unit, b), b))
        yield from _vector_residual("unit_right", (i,), vec_sub(multiply(H, b, H.unit), b))

    # coassociativity on the stored tensor: left[c] is the (x) c slice of
    # (coproduct (x) id) coproduct(e_i), right[a] the a (x) slice of
    # (id (x) coproduct) coproduct(e_i)
    for i in range(n):
        left = [comultiply(H, [row[c] for row in H.comul[i]]) for c in range(n)]
        right = [comultiply(H, row) for row in H.comul[i]]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    yield "coassoc", (i, a, b, c), left[c][a * n + b] - right[a][b * n + c]

    for i in range(n):
        left = _linear(H.counit, H.comul[i], Fraction(0))
        right = [counit_of(H, row) for row in H.comul[i]]
        yield from _vector_residual("counit_left", (i,), vec_sub(left, basis[i]))
        yield from _vector_residual("counit_right", (i,), vec_sub(right, basis[i]))

    for i in range(n):
        for j in range(n):
            lhs = comultiply(H, multiply(H, basis[i], basis[j]))
            rhs = tensor_multiply(H, comultiply(H, basis[i]), comultiply(H, basis[j]))
            yield from _vector_residual("bialgebra_mul", (i, j), vec_sub(lhs, rhs))
            yield (
                "bialgebra_counit",
                (i, j),
                counit_of(H, multiply(H, basis[i], basis[j])) - H.counit[i] * H.counit[j],
            )

    unit_tensor = tuple(
        H.unit[i] * H.unit[j] for i in range(n) for j in range(n)
    )
    yield from _vector_residual("unit_comul", (), vec_sub(comultiply(H, H.unit), unit_tensor))
    yield "unit_counit", (), counit_of(H, H.unit) - Fraction(1)

    for i in range(n):
        left = _sweedler(
            H, i, lambda j, k: multiply(H, antipode_of(H, basis[j]), basis[k]), Fraction(0)
        )
        right = _sweedler(
            H, i, lambda j, k: multiply(H, basis[j], antipode_of(H, basis[k])), Fraction(0)
        )
        target = vec_scale(H.counit[i], H.unit)
        yield from _vector_residual("antipode_left", (i,), vec_sub(left, target))
        yield from _vector_residual("antipode_right", (i,), vec_sub(right, target))


# -- group-likes and skew-primitives ------------------------------------------

def group_likes(H: HopfStructure) -> tuple[tuple, ...]:
    """All rational solutions of the group-like system (coproduct equals the
    tensor square, counit 1), obtained with the branch solver.  Raises if any
    branch is unresolved or carries a free parameter (the solution set would
    not be finite)."""
    n = H.dim
    reg = VarRegistry()
    xs = [reg.var(f"x{i}") for i in range(n)]
    delta = comultiply(H, xs)
    constraints = [Constraint(counit_of(H, xs) - 1, "group_like_counit", ())]
    constraints += [
        Constraint(delta[j * n + k] - xs[j] * xs[k], "group_like_comul", (j, k))
        for j in range(n)
        for k in range(n)
    ]

    system = ConstraintSystem(reg, constraints)
    branches, _stats = solve(system)
    points: list[tuple] = []
    for br in branches:
        if br.status == "inconsistent":
            continue
        if br.status != "resolved" or br.free_params:
            raise ValueError("group-like solution set is not finite over the rationals")
        point = tuple(br.assignments[v].constant_value() for v in range(n))
        if point not in points:
            points.append(point)
    points.sort(reverse=True)
    return tuple(points)


def skew_primitives(H: HopfStructure, g, h) -> list[tuple]:
    """Canonical basis of {c : coproduct(c) = g(x)c + c(x)h} for group-like
    g, h, read off the RREF kernel."""
    g = tuple(g)
    h = tuple(h)
    gl = group_likes(H)
    if g not in gl or h not in gl:
        raise ValueError("both anchors must be group-like elements")
    n = H.dim
    rows = []
    for j in range(n):
        for k in range(n):
            row = []
            for i in range(n):
                c = H.comul[i][j][k]
                if i == k:
                    c = c - g[j]
                if i == j:
                    c = c - h[k]
                row.append(c)
            rows.append(row)
    return [tuple(v) for v in kernel_basis(rows)]


# -- the Sweedler algebra ------------------------------------------------------

def sweedler_h4() -> HopfStructure:
    """The four-dimensional Hopf algebra on basis (1, g, v, gv) with
    g*g = 1, v*v = 0, g*v = -v*g, coproduct g -> g(x)g, v -> g(x)v + v(x)1.
    Every structure constant is an ``int``."""
    n = 4
    mul = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        mul[0][i][i] = 1
        mul[i][0][i] = 1
    mul[1][1][0] = 1     # g g = 1
    mul[1][2][3] = 1     # g v = gv
    mul[1][3][2] = 1     # g gv = v
    mul[2][1][3] = -1    # v g = -gv
    mul[3][1][2] = -1    # gv g = -v
    # v v, v gv, gv v, gv gv are all zero

    comul = [[[0] * n for _ in range(n)] for _ in range(n)]
    comul[0][0][0] = 1                       # 1 -> 1 (x) 1
    comul[1][1][1] = 1                       # g -> g (x) g
    comul[2][1][2] = 1                       # v -> g (x) v + v (x) 1
    comul[2][2][0] = 1
    comul[3][0][3] = 1                       # gv -> 1 (x) gv + gv (x) g
    comul[3][3][1] = 1

    antipode = (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, -1),   # S(v) = -gv
        (0, 0, 1, 0),    # S(gv) = v
    )

    return HopfStructure(
        dim=n,
        basis_names=("1", "g", "v", "gv"),
        mul=tuple(tuple(tuple(r) for r in plane) for plane in mul),
        unit=(1, 0, 0, 0),
        comul=tuple(tuple(tuple(r) for r in plane) for plane in comul),
        counit=(1, 1, 0, 0),
        antipode=antipode,
    )


# -- JSON ----------------------------------------------------------------------

def hopf_to_json_dict(H: HopfStructure) -> dict:
    return {
        "dim": H.dim,
        "basis": list(H.basis_names),
        "mul": [[[str(c) for c in row] for row in plane] for plane in H.mul],
        "unit": [str(c) for c in H.unit],
        "comul": [[[str(c) for c in row] for row in plane] for plane in H.comul],
        "counit": [str(c) for c in H.counit],
        "antipode": [[str(c) for c in row] for row in H.antipode],
    }


def _json_array(value, depth: int, leaf, name: str) -> tuple:
    """A JSON list nested ``depth`` deep as nested tuples, with ``leaf``
    applied to the innermost entries.  A string or any other non-list is
    rejected at every level; ``name`` names the payload in the message."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be nested JSON lists, found {type(value).__name__}")
    if depth == 1:
        return tuple(leaf(v) for v in value)
    return tuple(_json_array(v, depth - 1, leaf, name) for v in value)


def _basis_name(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"Hopf structure basis names must be strings, got {value!r}")
    return value


def hopf_from_json_dict(data: dict) -> HopfStructure:
    try:
        n = data["dim"]
        fields = [
            _json_array(data[name], depth, leaf, f"Hopf structure {name}")
            for name, depth, leaf in (
                ("basis", 1, _basis_name),
                ("mul", 3, parse_rational),
                ("unit", 1, parse_rational),
                ("comul", 3, parse_rational),
                ("counit", 1, parse_rational),
                ("antipode", 2, parse_rational),
            )
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Hopf structure payload: {exc}") from exc
    if type(n) is not int or n < 1:  # a bool, float or string is not a dimension
        raise ValueError(f"Hopf structure dim must be a positive integer, got {n!r}")
    return HopfStructure(n, *fields)


def hopf_to_json(H: HopfStructure) -> str:
    return json.dumps(hopf_to_json_dict(H), indent=2) + "\n"


def hopf_from_json(text: str) -> HopfStructure:
    return hopf_from_json_dict(json.loads(text))
