"""The branch solver's equation store, its re-verification of resolved
branches, and the solver's completeness, soundness and disjointness on small
systems other than the Sweedler one."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from posthopf.multipoly import Poly, VarRegistry, compose_many, parse_poly
from posthopf.solver import (
    Constraint,
    ConstraintSystem,
    SolverVerificationError,
    _elimination,
    _finalize,
    _prepare,
    solve,
)


def reference_prepare(equations) -> list[Poly]:
    """The store's contract, written as a dict: zeros drop out, the first
    equation of each ``canon_key`` in input order wins, sorted by key."""
    seen: dict[tuple, Poly] = {}
    for eq in equations:
        if not eq.is_zero():
            seen.setdefault(eq.canon_key(), eq)
    return [seen[key] for key in sorted(seen)]


# -- the store -----------------------------------------------------------------------

REG = VarRegistry()
X, Y, Z = (REG.var(name) for name in "xyz")
MONOMIALS = [Poly.constant(REG, 1), X, Y, Z, X * Y, X * X, Y * Z]
# rational multiples of one equation share a canon_key, so they collide
SCALES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]

small_polys = st.lists(
    st.tuples(st.integers(-2, 2), st.sampled_from(MONOMIALS)), max_size=4
).map(lambda terms: sum((c * m for c, m in terms), Poly.zero(REG)))


# c*x_v + rest with a constant c: many share (support size, v), so move (b)
# has to break ties by canon_key
linear_polys = st.tuples(
    st.sampled_from([X, Y, Z]),
    st.sampled_from([1, 2, -1]),
    st.sampled_from([0, 1, -1, 2, Y, Z, Y * Z, Z * Z, X * Y]),
).map(lambda pick: pick[1] * pick[0] + pick[2])


@st.composite
def systems(draw, polys=small_polys):
    bases = draw(st.lists(polys, min_size=2, max_size=5))
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(bases), st.sampled_from(SCALES)),
            min_size=2,
            max_size=12,
        )
    )
    return [base * scale for base, scale in picks]


def test_first_of_two_multiples_stays():
    two = 2 * X - 2
    assert _prepare([two, X - 1]) == [two]
    assert _prepare([X - 1, two]) == [X - 1]


def test_substituted_equation_wins_over_a_later_multiple():
    # y - 2 sorts before 2x - 2; y := x + 1 turns it into x - 1 in its list
    # position, so at the next sort it comes first in list order and
    # replaces the untouched 2x - 2
    store = _prepare([2 * X - 2, Y - 2])
    assert store == [Y - 2, 2 * X - 2]
    y = REG.id_of("y")
    assert _prepare([eq.substitute(y, X + 1) for eq in store]) == [X - 1]


def store_reg():
    reg = VarRegistry()
    return reg, *(reg.var(name) for name in "xyz")


@pytest.mark.parametrize("case", ["untouched first", "substituted first"])
def test_first_in_list_order_is_kept_after_an_elimination(case):
    # nothing splits, so e := y - value is eliminated first, through a
    # linear e or a nonlinear one, and k := e - 1 becomes -1, so the branch
    # dies at once.  y^2 + 1 becomes value^2 + 1 in its list position; the
    # untouched 2*value^2 + 2 is its multiple, and of the two the one
    # earlier in the root store (key order) is the leaf's representative.
    reg, x, y, z = store_reg()
    value = z if case == "untouched first" else x * z
    e = y - value
    eqs = [y * y + 1, 2 * value**2 + 2, e, e - 1]
    system = ConstraintSystem(reg, [Constraint(p, "toy", (i,)) for i, p in enumerate(eqs)])
    (branch,), stats = solve(system)
    assert stats["substitutions"] == 1
    assert branch.note == "equation reduced to constant -1"
    kept = 2 * value**2 + 2 if case == "untouched first" else value**2 + 1
    assert branch.remaining == (Poly.constant(reg, -1), kept)


def test_split_factor_loses_key_ties():
    # x*q splits into x and q; the second child holds q beside the untouched
    # 2q, and the factor comes last, so 2q stays at the next sort
    reg, x, y, z = store_reg()
    q = y * y + z * z + 1
    system = ConstraintSystem(reg, [Constraint(p, "toy", (i,)) for i, p in enumerate([x * q, 2 * q])])
    branches, stats = solve(system)
    assert stats["splits"] == 1
    assert [b.status for b in branches] == ["unresolved", "unresolved"]
    assert [b.remaining for b in branches] == [(2 * q,), (2 * q,)]


STORE_SETTINGS = settings(max_examples=300, deadline=None)


@STORE_SETTINGS
@given(systems())
def test_prepare_matches_reference(eqs):
    assert _prepare(eqs) == reference_prepare(eqs)


@STORE_SETTINGS
@given(
    systems(st.one_of(linear_polys, small_polys)),
    st.one_of(st.none(), st.sets(st.integers(0, 2))),
)
def test_elimination_matches_the_eager_minimum(eqs, solvable):
    # stores with duplicates and scaled multiples, as the solver leaves them
    # between sorts; the eager rule reads canon_key for every candidate and
    # takes a nonlinear equation only when no linear one has a candidate
    eager = [
        ((eq.total_degree() > 1, len(eq.support), v, eq.canon_key()), v, a, eq)
        for eq in eqs
        for v, a in eq.linear_candidates()
        if solvable is None or v in solvable
    ]
    got = _elimination(eqs, solvable, linear=True) or _elimination(eqs, solvable, linear=False)
    if not eager:
        assert got is None
        return
    _key, v, a, eq = min(eager, key=lambda cand: cand[0])
    got_v, got_a, got_eq = got
    assert got_v == v
    assert got_eq * (Fraction(1) / got_a) == eq * (Fraction(1) / a)


# -- move order ----------------------------------------------------------------------


def test_split_comes_before_a_nonlinear_elimination():
    # w - 2 is linear, so it is eliminated first; x + y^2 - z offers the
    # nonlinear x := z - y^2, but y*z splits, so the split comes next and the
    # nonlinear equation is eliminated through only inside each case
    reg = VarRegistry()
    w, x, y, z = (reg.var(name) for name in "wxyz")
    eqs = [y * z, x + y * y - z, w - 2]
    system = ConstraintSystem(reg, [Constraint(p, "toy", (i,)) for i, p in enumerate(eqs)])
    branches, stats = solve(system)
    assert stats["splits"] == 1
    assert [b.trace for b in branches] == [
        ("eliminate w := 2", "split y*z: case y = 0", "eliminate y := 0", "eliminate x := z"),
        ("eliminate w := 2", "split y*z: case z = 0", "eliminate z := 0", "eliminate x := -y^2"),
    ]
    assert [b.status for b in branches] == ["resolved", "resolved"]


# -- re-verification -----------------------------------------------------------------

# u, v, w are substituted; s and t appear only in their images
VREG = VarRegistry()
U, V, W, S, T = (VREG.var(name) for name in "uvwst")
source_polys = st.lists(
    st.tuples(
        st.integers(-3, 3).filter(bool),
        st.sampled_from([1, U, V, W, U * V, U * U * W, V * W * W, U * V * W]),
    ),
    max_size=5,
).map(lambda terms: sum((c * m for c, m in terms), Poly.zero(VREG)))
images = st.sampled_from([0, 1, -2, S, S - T, S * T + 1, Fraction(1, 2) * T]).map(
    lambda value: value + Poly.zero(VREG)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(source_polys, min_size=1, max_size=4), st.tuples(images, images, images))
def test_compose_many_with_zero_images_is_substitution(polys, values):
    assume(any(value.is_zero() for value in values))
    mapping = {VREG.id_of(name): value for name, value in zip("uvw", values)}
    for p, got in zip(polys, compose_many(polys, mapping, VREG)):
        want = p
        for vid, value in mapping.items():
            want = want.substitute(vid, value)
        assert got == want


def test_compose_many_still_needs_every_variable_mapped():
    # u maps to zero, so u*v has the empty image, but v has no image at all
    with pytest.raises(ValueError, match="no substitution"):
        compose_many([U * V], {VREG.id_of("u"): Poly.zero(VREG)}, VREG)


def test_finalize_reports_a_residual_beside_a_zero_factor():
    reg = VarRegistry()
    x, y, z = (reg.var(name) for name in "xyz")
    zero, one = Poly.zero(reg), Poly.constant(reg, 1)
    xid, yid, zid = (reg.id_of(name) for name in "xyz")
    # the residual's term comes after the zero product, and before it
    for eq in (x * y + z, z + x * y):
        system = ConstraintSystem(reg, [Constraint(eq, "toy", (0,))])
        # x*y has the empty image under either zero, and z := 0 solves eq
        for assign in ({xid: zero, zid: zero}, {yid: zero, zid: zero}):
            assert _finalize(system, assign, (), 3).status == "resolved"
        # z := 1 leaves the residual 1 next to the zero-mapped factor
        for assign in ({xid: zero, zid: one}, {yid: zero, zid: one}):
            with pytest.raises(SolverVerificationError, match="toy@0: residual 1"):
                _finalize(system, assign, (), 3)


# -- completeness ---------------------------------------------------------------------

NAMES = "wxyz"
BOX = range(-3, 4)


@st.composite
def factored_systems(draw):
    """Products of linear factors with integer roots, in shapes the solver's
    moves handle: (x - a)(x - b), x (y - c), x - c and x +- y."""
    n = draw(st.integers(2, 4))
    reg = VarRegistry()
    xs = [reg.var(name) for name in NAMES[:n]]
    var = st.integers(0, n - 1)
    root = st.integers(-2, 2)
    eqs = []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(var)
        shape = draw(st.sampled_from(("quadratic", "content", "root", "pair")))
        if shape == "quadratic":
            eqs.append((xs[i] - draw(root)) * (xs[i] - draw(root)))
        elif shape == "content":
            eqs.append(xs[i] * (xs[draw(var)] - draw(root)))
        elif shape == "root":
            eqs.append(xs[i] - draw(root))
        else:
            j = draw(var.filter(lambda j: j != i))
            eqs.append(xs[i] + draw(st.sampled_from((1, -1))) * xs[j])
    return ConstraintSystem(reg, [Constraint(p, "toy", (k,)) for k, p in enumerate(eqs)])


def reproduces(branch, point) -> bool:
    """The branch's assignments give ``point`` at the point's free
    coordinates, and its side conditions hold there."""
    params = {}
    for v, poly in branch.assignments.items():
        terms = poly.terms()
        if len(terms) == 1:
            ((mono, coeff),) = terms
            if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
                params.setdefault(mono[0][0], point[v])
    if any(poly.evaluate(params) != point[v] for v, poly in branch.assignments.items()):
        return False
    return all(
        parse_poly(branch.registry, cond.removesuffix(" != 0")).evaluate(params) != 0
        for cond in branch.side_conditions
    )


@settings(max_examples=150, deadline=None)
@given(factored_systems())
def test_every_integer_solution_has_a_resolved_branch(system):
    branches, stats = solve(system)
    assert stats["unresolved"] == 0
    resolved = [b for b in branches if b.status == "resolved"]
    n = len(system.registry)
    for point in product(BOX, repeat=n):
        values = dict(enumerate(point))
        if all(c.residual.evaluate(values) == 0 for c in system.equations):
            assert any(reproduces(b, point) for b in resolved), point


# every monomial of degree at most 2 in x, y, z
QUADRATIC_MONOMIALS = [Poly.constant(REG, 1), X, Y, Z, X * X, X * Y, X * Z, Y * Y, Y * Z, Z * Z]
quadratic_polys = st.lists(
    st.tuples(st.integers(-2, 2), st.sampled_from(QUADRATIC_MONOMIALS)), min_size=1, max_size=4
).map(lambda terms: sum((c * m for c, m in terms), Poly.zero(REG)))


@settings(max_examples=200, deadline=None)
@given(st.lists(quadratic_polys, min_size=1, max_size=3))
def test_every_box_solution_of_a_quadratic_system_has_a_resolved_branch(eqs):
    # random systems, not built to suit the moves; one the solver leaves
    # unresolved says nothing about completeness
    system = ConstraintSystem(REG, [Constraint(p, "toy", (i,)) for i, p in enumerate(eqs)])
    branches, stats = solve(system)
    assume(stats["unresolved"] == 0)
    resolved = [b for b in branches if b.status == "resolved"]
    for point in product(range(-2, 3), repeat=3):
        values = dict(enumerate(point))
        if all(eq.evaluate(values) == 0 for eq in eqs):
            assert any(reproduces(b, point) for b in resolved), point


@settings(max_examples=150, deadline=None)
@given(factored_systems())
def test_resolved_branches_are_sound_and_disjoint(system):
    # each integer point of the box comes from at most one resolved branch
    # with its side conditions holding, and only if it solves the system
    branches, _stats = solve(system)
    resolved = [b for b in branches if b.status == "resolved"]
    n = len(system.registry)
    for point in product(BOX, repeat=n):
        hits = sum(reproduces(b, point) for b in resolved)
        assert hits <= 1, point
        if hits:
            values = dict(enumerate(point))
            assert all(c.residual.evaluate(values) == 0 for c in system.equations), point
