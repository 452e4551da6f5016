import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from posthopf import multipoly
from posthopf.exactmath import rational_mod_p
from posthopf.classifier import _systems
from posthopf.multipoly import (
    MAX_DEGREE,
    Poly,
    VarRegistry,
    compose_many,
    parse_poly,
    try_factor_split,
)


@pytest.fixture()
def reg():
    r = VarRegistry()
    for name in ("t1", "t2", "t3", "t4", "a", "x", "y"):
        r.add(name)
    return r


def P(reg, text):
    return parse_poly(reg, text)


def test_arithmetic_examples(reg):
    t1, t2 = reg.var("t1"), reg.var("t2")
    assert (t1 + t2) * (t1 - t2) == P(reg, "t1^2 - t2^2")
    p = P(reg, "2*a^2 - a")
    assert p + Poly.zero(reg) == p
    a = reg.var("a")
    assert a * (a - 1) == P(reg, "a^2 - a")


def test_registry_mismatch():
    r1, r2 = VarRegistry(), VarRegistry()
    with pytest.raises(ValueError):
        r1.var("x") + r2.var("x")


def test_registry_duplicate_name():
    r = VarRegistry()
    r.add("x")
    with pytest.raises(ValueError):
        r.add("x")


def test_substitute_examples(reg):
    p = P(reg, "t1^2 + t2^2 - 1")
    assert p.substitute(reg.id_of("t1"), 0) == P(reg, "t2^2 - 1")
    q = P(reg, "a^2 - a")
    assert q.substitute(reg.id_of("a"), 1).is_zero()
    xy = P(reg, "x*y")
    assert xy.substitute(reg.id_of("x"), reg.var("y")) == P(reg, "y^2")


def test_substitute_degree_zero_in_var(reg):
    p = P(reg, "t1^3*t2 + t1*t2 + t2")
    out = p.substitute(reg.id_of("t1"), P(reg, "t2 - 1"))
    assert out.degree_in(reg.id_of("t1")) == 0


def test_degree_in(reg):
    p = P(reg, "t1^2 + t2")
    assert p.degree_in(reg.id_of("t1")) == 2
    assert p.degree_in(reg.id_of("t2")) == 1
    assert P(reg, "7").degree_in(reg.id_of("x")) == 0


def test_evaluate_examples(reg):
    # exact values, and their images in F_p under the reduction map
    a = reg.id_of("a")
    p = P(reg, "a^2 - a")
    assert p.evaluate({a: 3}) == 6 and rational_mod_p(p.evaluate({a: 3}), 5) == 1
    half = Poly.constant(reg, Fraction(1, 2))
    assert half.evaluate({}) == Fraction(1, 2) and rational_mod_p(half.evaluate({}), 5) == 3
    q = P(reg, "t1^2 + t2^2 - 1")
    assert q.evaluate({reg.id_of("t1"): 0, reg.id_of("t2"): 1}) == 0


def test_evaluate_errors(reg):
    p = P(reg, "x*y")
    with pytest.raises(ValueError):
        p.evaluate({reg.id_of("x"): 1})
    fifth = Poly.constant(reg, Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        rational_mod_p(fifth.evaluate({}), 5)


def test_factor_split_examples(reg):
    t1t2 = P(reg, "t1*t2")
    fs = try_factor_split(t1t2)
    assert fs == [reg.var("t1"), reg.var("t2")]

    fs = try_factor_split(P(reg, "a^2 - a"))
    assert fs == [reg.var("a"), P(reg, "a - 1")]

    fs = try_factor_split(P(reg, "t2^2 - 1"))
    assert fs == [P(reg, "t2 - 1"), P(reg, "t2 + 1")]
    prod = fs[0] * fs[1]
    assert prod == P(reg, "t2^2 - 1")

    assert try_factor_split(P(reg, "a^2 + 1")) is None
    assert try_factor_split(P(reg, "t1^2 + t2^2 - 1")) is None
    assert try_factor_split(P(reg, "3*x")) is None


def test_factor_split_rejects_constants(reg):
    with pytest.raises(ValueError):
        try_factor_split(Poly.constant(reg, 3))
    with pytest.raises(ValueError):
        try_factor_split(Poly.zero(reg))


def test_factor_split_quadratic_with_leading_coeff(reg):
    p = P(reg, "2*x^2 - 2")
    fs = try_factor_split(p)
    assert fs is not None and fs[0] * fs[1] == p


def test_canonical_string(reg):
    p = P(reg, "2*a^2 - a")
    assert str(p) == "2*a^2 - a"
    assert str(P(reg, "t2 + t1")) == "t1 + t2"
    assert str(Poly.zero(reg)) == "0"
    assert str(P(reg, "-x + 1")) == "-x + 1"
    assert str(P(reg, "1/2*x")) == "1/2*x"


def test_parse_errors(reg):
    for bad in (
        "", "x +", "^2", "x^-1", "x**2", "(x+1)", "2x", "x^2y", "x^1/2", "x*2", "x^+2",
        "+-x", "2 3", "x y",
    ):
        with pytest.raises(ValueError, match="^bad polynomial syntax: "):
            parse_poly(reg, bad)
    long = "x*" * 50000 + "x!"
    with pytest.raises(ValueError) as info:
        parse_poly(reg, long)
    assert str(info.value) == f"bad polynomial syntax: {long[:40]!r}"
    for bad, message in (
        ("x^0", "exponent must be a positive integer"),
        ("1/0*x", "zero denominator"),
        ("unknown_var", "unknown indeterminate 'unknown_var'"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_poly(reg, bad)


names = st.sampled_from(["t1", "t2", "t3", "a", "x", "y"])
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(lambda c: c != 0)


@st.composite
def polys(draw, registry):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        nvars = draw(st.integers(0, 3))
        exps = {}
        for _ in range(nvars):
            vid = registry.id_of(draw(names))
            exps[vid] = exps.get(vid, 0) + draw(st.integers(1, 2))
        mono = tuple(sorted(exps.items()))
        c = draw(coeffs)
        terms[mono] = terms.get(mono, Fraction(0)) + c
    return Poly(registry, {m: c for m, c in terms.items() if c})


_REG = VarRegistry()
for _n in ("t1", "t2", "t3", "a", "x", "y"):
    _REG.add(_n)


@given(polys(_REG))
def test_substitute_identity(p):
    for v in p.support:
        assert p.substitute(v, _REG.var_by_id(v)) == p


@given(polys(_REG))
def test_parse_roundtrip(p):
    assert parse_poly(_REG, str(p)) == p


@given(polys(_REG), st.data())
def test_parse_ignores_spaces_around_operators(p, data):
    spaces = st.text(" \t\n", max_size=3)
    text = re.sub(
        r" *([-+*^/]) *", lambda m: data.draw(spaces) + m[1] + data.draw(spaces), str(p)
    )
    assert parse_poly(_REG, data.draw(spaces) + text + data.draw(spaces)) == p


@given(polys(_REG), polys(_REG))
def test_equality_iff_canonical_strings(p, q):
    assert (p == q) == (str(p) == str(q))


@given(polys(_REG))
@settings(max_examples=60)
def test_factor_split_product_invariant(p):
    if p.is_zero() or p.is_constant():
        return
    fs = try_factor_split(p)
    if fs is None:
        return
    assert len(fs) >= 2
    prod = fs[0]
    for f in fs[1:]:
        assert not f.is_constant()
        prod = prod * f
    assert not fs[0].is_constant()
    assert prod == p


# -- coefficient representation: int when integral, Fraction otherwise ----------


def stored_form(c) -> bool:
    """A coefficient as a Poly keeps it: an int, or a non-integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_stored_form(p: Poly) -> None:
    assert all(stored_form(c) for _m, c in p.terms()), p.terms()


def fraction_twin(p: Poly) -> Poly:
    """The same polynomial with every coefficient a Fraction."""
    return Poly(p.registry, {m: Fraction(c) for m, c in p.terms()})


def tuple_key(mono) -> tuple:
    """Graded lexicographic key ``(deg, (e_0, ..., e_top))`` of a
    ``((vid, exp), ...)`` monomial, ``top`` its highest variable id."""
    dense = [0] * (mono[-1][0] + 1 if mono else 0)
    for v, e in mono:
        dense[v] = e
    return (sum(dense), tuple(dense))


def reference_key(p: Poly) -> tuple:
    """``canon_key`` recomputed with Fraction division throughout and
    ``tuple_key`` monomial keys, from the terms in print order."""
    terms = p.terms()
    if not terms:
        return ()
    lead = Fraction(terms[0][1])
    return tuple((tuple_key(m), Fraction(c) / lead) for m, c in terms)


def assert_reference_key(p: Poly) -> None:
    """``canon_key`` has the reference coefficients, in descending
    graded lexicographic order of the monomials."""
    key, ref = p.canon_key(), reference_key(p)
    assert list(key[1::2]) == [c for _tk, c in ref]
    assert [tk for tk, _c in ref] == sorted((tk for tk, _c in ref), reverse=True)


def assert_same(got: Poly, want: Poly) -> None:
    assert got == want
    assert str(got) == str(want)
    assert hash(got) == hash(want)
    assert got.canon_key() == want.canon_key()


@given(polys(_REG), polys(_REG), polys(_REG))
@settings(max_examples=150, deadline=None)
def test_integral_fractions_act_like_ints(p, q, r):
    p, q, r = (parse_poly(_REG, str(x)) for x in (p, q, r))
    pf, qf, rf = map(fraction_twin, (p, q, r))
    for x, xf in ((p, pf), (q, qf), (r, rf)):
        assert_stored_form(x)
        assert_same(xf, x)
        assert_reference_key(x)
    for got, want in (
        (pf + qf, p + q),
        (pf - qf, p - q),
        (pf * qf, p * q),
        (pf * Fraction(-2), p * -2),
        (pf * Fraction(1, 2), p * Fraction(1, 2)),
    ):
        assert_stored_form(want)
        assert_same(got, want)
        assert_reference_key(want)
    for v in p.support:
        for value in (q, Fraction(3), Fraction(-1, 2)):
            want = p.substitute(v, value)
            assert_stored_form(want)
            assert_same(pf.substitute(v, fraction_twin(value) if isinstance(value, Poly)
                                      else value), want)
            assert_reference_key(want)
    mapping = {v: (q, r)[i % 2] for i, v in enumerate(p.support)}
    mapping_f = {v: fraction_twin(x) for v, x in mapping.items()}
    want = p.compose(mapping, _REG)
    assert_stored_form(want)
    assert_same(pf.compose(mapping_f, _REG), want)
    assert_same(compose_many([pf], mapping, _REG)[0], want)


def test_canon_key_divides_exactly(reg):
    cases = {
        "-x^2 + 3*x - 2": (1, -3, 2),
        "-x^2 + 1/2*x": (1, Fraction(-1, 2)),
        "2*x^2 + 4*x + 3": (1, 2, Fraction(3, 2)),
        "2*x^2 - 3*x - 6": (1, Fraction(-3, 2), -3),
        "3*x^2 - 6*x + 2": (1, -2, Fraction(2, 3)),
        "3*x^2 + 1/2": (1, Fraction(1, 6)),
        "-3*x - 9": (1, 3),
    }
    for text, want in cases.items():
        p = P(reg, text)
        key = p.canon_key()
        assert key[1::2] == want
        assert all(map(stored_form, key[1::2])), key
        assert_reference_key(p)
        # rational multiples share the key
        assert (p * Fraction(-5, 7)).canon_key() == key


# leads shared by many polys, so every key after the first of a lead reads
# quotients that earlier keys (and earlier examples) put in the memo
SHARED_LEADS = (2, -2, 4, -4, Fraction(3, 2), 1, -1)


@given(
    st.lists(st.tuples(polys(_REG), st.sampled_from(SHARED_LEADS)), min_size=1, max_size=8),
    st.sampled_from((2, multipoly._QUOTIENTS_PER_LEAD)),
)
@settings(max_examples=150, deadline=None)
def test_memoized_canon_keys_match_the_reference(cases, per_lead):
    # per_lead 2 empties a lead's memo on nearly every miss; the leads'
    # memos start afresh, so each is made with that bound
    with (
        mock.patch.object(multipoly, "_QUOTIENTS_PER_LEAD", per_lead),
        mock.patch.dict(multipoly._QUOTIENTS, clear=True),
    ):
        for p, lead in cases:
            if p.is_zero():
                continue
            p = p * (Fraction(lead) / p.terms()[0][1])
            assert p.terms()[0][1] == lead
            key = p.canon_key()
            assert_reference_key(p)
            assert all(map(stored_form, key[1::2])), key
            # a fresh poly with the same terms keys again, from the memo
            assert Poly(_REG, dict(p.terms())).canon_key() == key
            # rational multiples share the key
            for scale in (Fraction(-5, 7), 3, Fraction(1, 4)):
                assert (p * scale).canon_key() == key


def test_constructors_keep_ints(reg):
    assert_stored_form(reg.var("x"))
    for value in (2, Fraction(2), Fraction(4, 2), True, Fraction(1, 3), "6/3", -7):
        c = Poly.constant(reg, value)
        assert_stored_form(c)
        assert type(c.constant_value()) is Fraction
        assert c.constant_value() == Fraction(value)
    assert_stored_form(P(reg, "4/2*x - 6/4 + 8/8*y"))
    assert P(reg, "4/2*x").terms() == ((((reg.id_of("x"), 1),), 2),)
    assert type(Poly.zero(reg).constant_value()) is Fraction


def test_classify_coefficients_are_ints_unless_fractional(
    relaxed_result, weak_result, full64_result, weak_full64_result
):
    results = (relaxed_result, weak_result, full64_result, weak_full64_result)
    for result in results:
        system = _systems(result.parameterization)[1][result.mode]
        for constraint in system.equations:
            assert_stored_form(constraint.residual)
        resolved = [b for b in result.branches if b.status == "resolved"]
        assert resolved
        for branch in result.branches:
            for value in branch.assignments.values():
                assert_stored_form(value)
            for eq in branch.remaining:
                assert_stored_form(eq)


# -- packed monomials: key order and the degree limit ---------------------------------


@given(st.lists(polys(_REG), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_canon_keys_order_like_tuple_keys(ps):
    # the store sorts by canon_key, so its order must be that of the
    # (deg, dense-tuple) monomial keys
    for p in ps:
        for q in ps:
            got, want = p.canon_key(), q.canon_key()
            ref_p, ref_q = reference_key(p), reference_key(q)
            assert (got < want) == (ref_p < ref_q)
            assert (got == want) == (ref_p == ref_q)


def prefixes(p: Poly) -> list[Poly]:
    """The polys of ``p``'s first ``k`` terms in print order, ``k < len``:
    they share ``p``'s lead, so each key is a prefix of ``p``'s."""
    terms = p.terms()
    return [Poly(p.registry, dict(terms[:k])) for k in range(len(terms))]


@given(polys(_REG), polys(_REG))
@settings(max_examples=150, deadline=None)
def test_flat_canon_keys_compare_like_reference_pairs(p, q):
    # a flat key (key_0, c_0, key_1, c_1, ...) holds the reference's pairs'
    # elements in their order, so it compares as the pairs do, and a key
    # that is a prefix of another sorts first
    cases = [p, q, *prefixes(p), *prefixes(q)]
    keys = [(a.canon_key(), reference_key(a)) for a in cases]
    for a, (key, _ref) in zip(cases, keys):
        assert len(key) == 2 * len(a.terms())
        assert all(type(mk) is str for mk in key[0::2])
    for key_a, ref_a in keys:
        for key_b, ref_b in keys:
            assert (key_a == key_b) == (ref_a == ref_b)
            assert (key_a < key_b) == (ref_a < ref_b)


def test_weak_generator32_keys_are_flat():
    system = _systems("generator32")[1]["weak"]
    for constraint in system.equations:
        poly = constraint.residual
        key = poly.canon_key()
        assert len(key) == 2 * len(poly.terms()), poly
        assert all(type(mk) is str for mk in key[0::2]), poly
        assert key[1] == 1 and all(map(stored_form, key[1::2])), poly


def test_terms_are_in_print_order(reg):
    x, y = reg.id_of("x"), reg.id_of("y")
    p = P(reg, "3 - x*y^2 + 2*x^2 + y")
    assert str(p) == "-x*y^2 + 2*x^2 + y + 3"
    assert p.terms() == (
        (((x, 1), (y, 2)), -1), (((x, 2),), 2), (((y, 1),), 1), ((), 3),
    )
    assert Poly(reg, dict(p.terms())) == p
    assert Poly.zero(reg).terms() == ()


def test_degree_limit(reg):
    x, y = reg.var("x"), reg.var("y")
    xid = reg.id_of("x")
    top = x ** MAX_DEGREE
    assert top.total_degree() == top.degree_in(xid) == MAX_DEGREE
    assert parse_poly(reg, f"x^{MAX_DEGREE}") == top
    # fields stay apart right up to the limit
    half = x ** (MAX_DEGREE // 2) * y ** (MAX_DEGREE - MAX_DEGREE // 2)
    assert half.degree_in(xid) == MAX_DEGREE // 2
    assert half.total_degree() == MAX_DEGREE
    assert (x ** 100).substitute(xid, y * y) == y ** 200
    past = (
        lambda: top * x,
        lambda: x * top,
        lambda: x ** (MAX_DEGREE + 1),
        lambda: (x * y) ** 20000,
        lambda: top.substitute(xid, x * y),
        lambda: (x ** 20000).substitute(xid, y * y),
        lambda: parse_poly(reg, "x^40000"),
        lambda: parse_poly(reg, "x^20000*y^20000"),
        lambda: parse_poly(reg, "x^20000*x^20000"),
        lambda: parse_poly(reg, "0*x^40000"),
        lambda: parse_poly(reg, "1 + 0*x^40000"),
        lambda: Poly(reg, {((xid, MAX_DEGREE + 1),): 1}),
    )
    for make in past:
        with pytest.raises(ValueError, match="degree"):
            make()
