import dataclasses
import json
import random
from fractions import Fraction

import pytest

from posthopf.hopfcore import (
    HopfStructure,
    _sweedler,
    antipode_of,
    basis_element,
    comultiply,
    group_likes,
    hopf_from_json,
    hopf_to_json,
    multiply,
    skew_primitives,
    sweedler_h4,
    tensor_multiply,
    verify_hopf_axioms,
)
from posthopf.multipoly import VarRegistry

ONE, G, V, GV = 0, 1, 2, 3


@pytest.fixture(scope="module")
def h4():
    return sweedler_h4()


def e(h4, i):
    return basis_element(h4, i)


def neg(vec):
    return tuple(-x for x in vec)


def trivial_hopf():
    one = (Fraction(1),)
    return HopfStructure(
        dim=1,
        basis_names=("1",),
        mul=(((Fraction(1),),),),
        unit=one,
        comul=(((Fraction(1),),),),
        counit=one,
        antipode=((Fraction(1),),),
    )


def z2_group_algebra():
    F0, F1 = Fraction(0), Fraction(1)
    mul = (((F1, F0), (F0, F1)), ((F0, F1), (F1, F0)))
    comul = (((F1, F0), (F0, F0)), ((F0, F0), (F0, F1)))
    return HopfStructure(
        dim=2,
        basis_names=("1", "g"),
        mul=mul,
        unit=(F1, F0),
        comul=comul,
        counit=(F1, F1),
        antipode=((F1, F0), (F0, F1)),
    )


def test_sweedler_axioms_all_pass(h4):
    report = verify_hopf_axioms(h4)
    assert report.passed
    assert report.entries == ()


def test_sweedler_relations(h4):
    assert multiply(h4, e(h4, V), e(h4, V)) == (0, 0, 0, 0)
    assert multiply(h4, e(h4, G), e(h4, G)) == e(h4, ONE)
    assert multiply(h4, e(h4, V), e(h4, G)) == neg(e(h4, GV))
    assert multiply(h4, e(h4, G), e(h4, V)) == e(h4, GV)


def test_sweedler_counit_and_antipode(h4):
    assert h4.counit == (1, 1, 0, 0)
    assert antipode_of(h4, e(h4, V)) == neg(e(h4, GV))
    # antipode of gv: computed independently as S(v)*S(g) (antihomomorphism)
    expected = multiply(h4, antipode_of(h4, e(h4, V)), antipode_of(h4, e(h4, G)))
    assert antipode_of(h4, e(h4, GV)) == expected == e(h4, V)


def test_comultiplication(h4):
    n = h4.dim
    dg = comultiply(h4, e(h4, G))
    assert dg[G * n + G] == 1 and sum(1 for x in dg if x != 0) == 1
    dv = comultiply(h4, e(h4, V))
    assert dv[G * n + V] == 1 and dv[V * n + ONE] == 1
    assert sum(1 for x in dv if x != 0) == 2
    # coproduct of gv equals the tensor-square product of the g and v
    # coproducts: an independent derivation via bialgebra compatibility
    dgv = comultiply(h4, e(h4, GV))
    assert dgv == tensor_multiply(h4, dg, dv)
    assert dgv[ONE * n + GV] == 1 and dgv[GV * n + G] == 1


def test_mutated_structure_fails(h4):
    mul = [[[c for c in row] for row in plane] for plane in h4.mul]
    mul[G][G] = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]  # g*g := g
    mutated = HopfStructure(
        dim=4,
        basis_names=h4.basis_names,
        mul=tuple(tuple(tuple(r) for r in plane) for plane in mul),
        unit=h4.unit,
        comul=h4.comul,
        counit=h4.counit,
        antipode=h4.antipode,
    )
    report = verify_hopf_axioms(mutated)
    assert not report.passed
    assert report.first_failure() is not None


def test_trivial_hopf_algebra():
    assert verify_hopf_axioms(trivial_hopf()).passed


def test_group_likes_h4(h4):
    gl = group_likes(h4)
    assert gl == (e(h4, ONE), e(h4, G))


def test_group_likes_trivial_and_z2():
    t = trivial_hopf()
    assert group_likes(t) == ((Fraction(1),),)
    z2 = z2_group_algebra()
    assert verify_hopf_axioms(z2).passed
    assert group_likes(z2) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def span_matrix(vectors):
    return [list(v) for v in vectors]


def same_span(basis, targets):
    from posthopf.exactmath import rref

    if len(basis) != len(targets):
        return False
    if not basis:
        return True
    _, p1 = rref(span_matrix(basis))
    _, p2 = rref(span_matrix(list(basis) + list(targets)))
    return len(p1) == len(p2)


def test_skew_primitives_dimensions_and_spans(h4):
    one, g = e(h4, ONE), e(h4, G)
    v, gv = e(h4, V), e(h4, GV)
    one_minus_g = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))

    assert skew_primitives(h4, one, one) == []
    assert skew_primitives(h4, g, g) == []

    pg1 = skew_primitives(h4, g, one)
    assert len(pg1) == 2
    assert same_span(pg1, [v, one_minus_g])
    # frozen canonical form from the RREF kernel
    assert pg1 == [(-1, 1, 0, 0), (0, 0, 1, 0)]

    p1g = skew_primitives(h4, one, g)
    assert len(p1g) == 2
    assert same_span(p1g, [gv, one_minus_g])
    assert p1g == [(-1, 1, 0, 0), (0, 0, 0, 1)]


def test_skew_primitives_of_int_anchors_are_exact(h4):
    # the anchors are int basis vectors, so the kernel is taken of an int
    # matrix; its coordinates must be Fractions, not floats
    prims = skew_primitives(h4, e(h4, ONE), e(h4, G))
    assert prims == [(-1, 1, 0, 0), (0, 0, 0, 1)]
    assert all(type(x) is Fraction for v in prims for x in v)


def test_skew_primitives_rejects_non_group_like(h4):
    with pytest.raises(ValueError):
        skew_primitives(h4, e(h4, V), e(h4, ONE))


def test_counitality_property(h4):
    n = h4.dim
    for i in range(n):
        d = comultiply(h4, e(h4, i))
        left = tuple(
            sum(d[j * n + k] * h4.counit[j] for j in range(n)) for k in range(n)
        )
        right = tuple(
            sum(d[j * n + k] * h4.counit[k] for k in range(n)) for j in range(n)
        )
        assert left == e(h4, i)
        assert right == e(h4, i)


def test_bilinearity_randomized(h4):
    rng = random.Random(5)

    def rand_elt():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        lhs = multiply(h4, tuple(alpha * x + y for x, y in zip(a, b)), c)
        rhs = tuple(
            alpha * x + y
            for x, y in zip(multiply(h4, a, c), multiply(h4, b, c))
        )
        assert lhs == rhs
        dl = comultiply(h4, tuple(alpha * x + y for x, y in zip(a, b)))
        dr = tuple(
            alpha * x + y for x, y in zip(comultiply(h4, a), comultiply(h4, b))
        )
        assert dl == dr


def sweedler_constants(H):
    return [
        *H.unit,
        *H.counit,
        *(c for tensor in (H.mul, H.comul) for plane in tensor for row in plane for c in row),
        *(c for row in H.antipode for c in row),
    ]


def test_sweedler_constants_are_ints(h4):
    assert all(type(c) is int for c in sweedler_constants(h4))
    assert all(type(x) is int for i in range(h4.dim) for x in e(h4, i))
    # a JSON payload still reads as Fractions, and compares equal
    parsed = hopf_from_json(hopf_to_json(h4))
    assert all(type(c) is Fraction for c in sweedler_constants(parsed))
    assert parsed == h4


def dense_sweedler(H, i, f, zero):
    """The Sweedler sum over every coordinate of ``comul[i]``, zeros skipped
    as they are read."""
    out = [zero] * H.dim
    for a, row in enumerate(H.comul[i]):
        for b, c in enumerate(row):
            if c:
                for k, v in enumerate(f(a, b)):
                    if v:
                        out[k] = out[k] + c * v
    return out


def test_sweedler_kernel_matches_the_dense_sum(h4):
    # the kernel iterates only the nonzero coproduct coordinates; in every
    # ring it returns the dense sum's values, with the same types
    rng = random.Random(7)
    reg = VarRegistry()
    xs = [reg.var(f"x{k}") for k in range(4)]
    rings = {
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        "poly": lambda: rng.randint(-2, 2) * rng.choice(xs) + rng.randint(-1, 1),
    }
    for H in (h4, hopf_from_json(hopf_to_json(h4)), z2_group_algebra(), trivial_hopf()):
        n = H.dim
        for ring, draw in rings.items():
            for _ in range(5):
                x = [tuple(draw() for _ in range(n)) for _ in range(n)]
                y = [tuple(draw() for _ in range(n)) for _ in range(n)]
                zero = x[0][0] * 0

                def f(a, b):
                    return multiply(H, x[a], y[b])

                for i in range(n):
                    got = _sweedler(H, i, f, zero)
                    want = dense_sweedler(H, i, f, zero)
                    assert got == want, (ring, i)
                    assert [type(v) for v in got] == [type(v) for v in want], (ring, i)
                    assert list(map(str, got)) == list(map(str, want)), (ring, i)


def test_sparse_coproduct_is_not_a_field(h4):
    # the cached coproduct terms leave equality, hashing and JSON alone
    assert "_comul_terms" not in {f.name for f in dataclasses.fields(HopfStructure)}
    fresh = HopfStructure(**{f.name: getattr(h4, f.name) for f in dataclasses.fields(h4)})
    _sweedler(h4, 2, lambda a, b: basis_element(h4, a), 0)
    assert "_comul_terms" in vars(h4) and "_comul_terms" not in vars(fresh)
    assert fresh == h4 and hash(fresh) == hash(h4) and repr(fresh) == repr(h4)
    assert hopf_to_json(fresh) == hopf_to_json(h4)
    assert h4._comul_terms[2] == ((1, 2, 1), (2, 0, 1))


def test_json_roundtrip_byte_identical(h4):
    text = hopf_to_json(h4)
    parsed = hopf_from_json(text)
    assert parsed == h4
    assert hopf_to_json(parsed) == text


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        hopf_from_json(json.dumps({"dim": 2}))


def test_dimension_mismatch_errors(h4):
    with pytest.raises(ValueError):
        multiply(h4, (Fraction(1),), basis_element(h4, 0))
    with pytest.raises(ValueError):
        tensor_multiply(h4, (0,) * 15, (0,) * 16)
