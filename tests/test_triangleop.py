import hashlib
import json
import weakref
from fractions import Fraction
from importlib import resources

import pytest

from posthopf import triangleop
from posthopf.hopfcore import basis_element, comultiply, multiply, sweedler_h4
from posthopf.multipoly import Poly, VarRegistry
from posthopf.solver import Constraint
from posthopf.triangleop import (
    FAMILY_LABELS,
    TriangleOp,
    apply,
    axiom_checks,
    axiom_residuals,
    axiom_suite,
    build_unknown_op,
    check_coalgebra_hom,
    check_counit_absorption,
    check_distributivity,
    check_unitality,
    check_weighted_assoc,
    extend_generators,
    family_table,
    op_from_json_dict,
    op_ring,
    op_to_json_dict,
    op_serial,
)

ONE, G, V, GV = 0, 1, 2, 3

FAMILIES_SHA256 = "24bba423b63659d13e4f0738dcbc840584a35dd11191ebd40cf415876e76d85d"


@pytest.fixture(scope="module")
def h4():
    return sweedler_h4()


def rational_op(table):
    return TriangleOp(
        4, tuple(tuple(tuple(Fraction(x) for x in cell) for cell in row) for row in table)
    )


def zeros():
    return (0, 0, 0, 0)


def unit_vec(i):
    return tuple(1 if k == i else 0 for k in range(4))


def test_family_data_frozen():
    data = resources.files("posthopf").joinpath("families.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FAMILIES_SHA256


def test_family_entries():
    fam1 = family_table("i")
    a = fam1.table[V][V][V]
    assert isinstance(a, Poly) and str(a) == "a"
    assert str(fam1.table[G][V][V]) == "-1"
    assert str(fam1.table[GV][GV][GV]) == "a"  # gv |> gv = a*gv

    fam2 = family_table("ii")
    assert str(fam2.table[V][G][ONE]) == "a" and str(fam2.table[V][G][G]) == "-a"

    fam5 = family_table("v")
    assert fam5.table[G][G] == tuple(Poly.constant(fam5.table[0][0][0].registry, c) for c in (1, 0, 0, 0))


def test_family_param_handling():
    fam = family_table("i", Fraction(3))
    assert op_ring(fam) == "rational"
    assert fam.table[V][V] == (0, 0, 3, 0)
    # a concrete table is the symbolic one evaluated entry by entry
    a = Fraction(-2, 5)
    symbolic = family_table("ii")
    vid = symbolic.table[0][0][0].registry.id_of("a")
    assert family_table("ii", a).table == tuple(
        tuple(tuple(entry.evaluate({vid: a}) for entry in cell) for cell in row)
        for row in symbolic.table
    )
    with pytest.raises(ValueError):
        family_table("iii", Fraction(1))
    with pytest.raises(ValueError):
        family_table("iii", 1)
    with pytest.raises(ValueError):
        family_table("vii")


def test_apply_examples(h4):
    fam1 = family_table("i")
    g, v = basis_element(h4, G), basis_element(h4, V)
    reg = fam1.table[0][0][0].registry
    out = apply(h4, fam1, g, v)
    assert out == (0, 0, Poly.constant(reg, -1), 0)
    fam3 = family_table("iii")
    assert all(x == 0 for x in apply(h4, fam3, v, v))
    zero = (Fraction(0),) * 4
    assert all(x == 0 for x in apply(h4, fam1, zero, v))


def trivial_op(h4):
    """x |> y := eps(x) eps(y) 1."""
    table = tuple(
        tuple(
            tuple(h4.counit[i] * h4.counit[j] * u for u in h4.unit)
            for j in range(4)
        )
        for i in range(4)
    )
    return TriangleOp(4, table)


def eps_action_op(h4):
    """x |> y := eps(x) y."""
    table = tuple(
        tuple(
            tuple(h4.counit[i] * x for x in basis_element(h4, j))
            for j in range(4)
        )
        for i in range(4)
    )
    return TriangleOp(4, table)


def test_apply_rejects_an_element_of_the_wrong_length(h4):
    with pytest.raises(ValueError):
        apply(h4, family_table("iii"), (0, 0, 0), unit_vec(V))


def test_op_ring_rejects_mixed_and_unsupported_entries():
    cells = [[list(zeros()) for _ in range(4)] for _ in range(4)]
    for entry, message in ((VarRegistry().var("a"), "mixes"), (0.5, "unsupported")):
        cells[0][0][0] = entry
        op = TriangleOp(4, tuple(tuple(map(tuple, row)) for row in cells))
        with pytest.raises(ValueError, match=message):
            op_ring(op)


def test_coalgebra_hom_examples(h4):
    assert check_coalgebra_hom(h4, family_table("vi")).passed
    assert check_coalgebra_hom(h4, trivial_op(h4)).passed

    # 1 |> g := -1 on the identity action: the coproduct of -1 is -(1x1)
    # but pairing legs gives (+1)x(+1)
    bad = [[list(basis_element(h4, j)) for j in range(4)] for _ in range(4)]
    bad[ONE][G] = [Fraction(-1), Fraction(0), Fraction(0), Fraction(0)]
    bad_op = rational_op(bad)
    report = check_coalgebra_hom(h4, bad_op)
    assert not report.passed
    assert any(e.axiom == "coalgebra_delta" and e.indices[:2] == (ONE, G) for e in report.entries)


def test_distributivity_examples(h4):
    assert check_distributivity(h4, family_table("ii")).passed
    fam1 = family_table("i")
    report = check_distributivity(h4, fam1)
    assert report.passed  # includes the (g, g, g) component
    assert check_distributivity(h4, eps_action_op(h4)).passed


def test_weighted_assoc_examples(h4):
    assert check_weighted_assoc(h4, family_table("i")).passed
    assert check_weighted_assoc(h4, trivial_op(h4)).passed

    # obstruction: 1|>g = 1 with g|>g = g cannot satisfy the weighted
    # associativity: g |> (1|>g) = g|>1 = 1 while (g(g|>1)) |> g = g|>g = g
    columns = {G: [unit_vec(ONE), unit_vec(G), zeros(), zeros()], V: [zeros()] * 4}
    op = extend_generators(sweedler_h4(), columns)
    report = check_weighted_assoc(h4, op)
    assert not report.passed
    assert any(e.indices[:3] == (G, ONE, G) for e in report.entries)


def test_unitality_split(h4):
    assert check_unitality(h4, family_table("ii")).passed
    rep4 = check_unitality(h4, family_table("iv"))
    assert not rep4.passed and rep4.first_failure().indices[0] == V
    rep6 = check_unitality(h4, family_table("vi"))
    assert not rep6.passed and rep6.first_failure().indices[0] == G


def test_residuals_are_constraints(h4):
    # a check records each residual as the solver's own constraint record
    entries = check_unitality(h4, family_table("iv")).entries
    assert entries and all(isinstance(e, Constraint) for e in entries)
    assert all(e.provenance().startswith("unitality@") for e in entries)


def test_axiom_suite_runs_the_ordered_checks(h4):
    # the suite has one definition: axiom_suite reports the checks of
    # axiom_checks under their names, in their order, and the weak suite is
    # the relaxed one plus unitality
    relaxed, weak = axiom_checks("relaxed"), axiom_checks("weak")
    assert [name for name, _check in weak] == [
        "coalgebra_hom", "distributivity", "weighted_assoc", "unitality",
    ]
    assert weak[:3] == relaxed and weak[3][1] is check_unitality
    op = family_table("iv")
    for mode, checks in (("relaxed", relaxed), ("weak", weak)):
        suite = axiom_suite(h4, op, mode)
        assert list(suite) == [name for name, _check in checks]
        assert all(suite[name] == check(h4, op) for name, check in checks)
    assert not suite["unitality"].passed
    with pytest.raises(ValueError):
        axiom_checks("strict")


def residual_view(entries):
    return [(c.axiom, c.indices, str(c.residual)) for c in entries]


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
@pytest.mark.parametrize("table", ["generator32", "iv"])
def test_axiom_residuals_walks_the_suite(h4, mode, table):
    # the walk hands out the residuals of the suite's reports, in their
    # order: on the unknown table, and on family iv, which satisfies the
    # relaxed axioms and fails unitality
    op = build_unknown_op(h4, table)[0] if table == "generator32" else family_table(table)
    suite = axiom_suite(h4, op, mode)
    want = residual_view(entry for report in suite.values() for entry in report.entries)
    assert bool(want) == (table == "generator32" or mode == "weak")
    assert residual_view(axiom_residuals(h4, op, mode)) == want


def test_axiom_residuals_releases_each_residual(h4):
    # the walk keeps no residual it has handed out, so the first one is
    # freed once its consumer drops it and takes the next; the bound of the
    # oracle's generation peak memory rests on that
    op, _reg = build_unknown_op(h4, "generator32")
    walk = axiom_residuals(h4, op, "weak")
    entry = next(walk)
    first = weakref.ref(entry)
    del entry
    second = next(walk)
    assert first() is None
    assert second.axiom == "coalgebra_delta"


def test_weighted_assoc_multiplies_once_per_pair(h4, monkeypatch):
    # x1 (x2 |> e_j) does not depend on z = e_k, so the check forms it once
    # per (i, j): one product per term of the coproduct of e_i and per j,
    # 24 in all, where one per k as well made 96
    calls = []
    monkeypatch.setattr(triangleop, "multiply", lambda *args: calls.append(1) or multiply(*args))
    check_weighted_assoc(h4, family_table("iv"))
    terms = sum(1 for plane in h4.comul for row in plane for c in row if c)
    assert len(calls) == h4.dim * terms == 24


def test_first_residual_runs_one_basis_pair(h4, monkeypatch):
    # the walk hands out a residual as soon as it is computed: the first
    # one, at the pair (e_0, e_0), costs the coproducts of the four basis
    # elements and of that one cell, not those of the whole check
    calls = []
    monkeypatch.setattr(triangleop, "comultiply", lambda *args: calls.append(1) or comultiply(*args))
    op, _reg = build_unknown_op(h4, "generator32")
    first = next(axiom_residuals(h4, op, "weak"))
    assert first.axiom == "coalgebra_delta" and first.indices[:2] == (0, 0)
    assert len(calls) == h4.dim + 1


def test_counit_absorption_examples(h4):
    fam1 = family_table("i")
    v = basis_element(h4, V)
    assert all(x == 0 for x in apply(h4, fam1, v, basis_element(h4, ONE)))
    fam5 = family_table("v")
    g1 = apply(h4, fam5, basis_element(h4, G), basis_element(h4, ONE))
    reg = fam5.table[0][0][0].registry
    assert g1 == tuple(Poly.constant(reg, c) for c in (1, 0, 0, 0))
    for label in FAMILY_LABELS:
        assert check_counit_absorption(h4, family_table(label)).passed


@pytest.mark.parametrize(
    "check",
    [
        check_coalgebra_hom,
        check_distributivity,
        check_weighted_assoc,
        check_unitality,
        check_counit_absorption,
    ],
    ids=lambda check: check.__name__,
)
def test_checks_reject_dimension_mismatch(h4, check):
    # a 2-dimensional table against the 4-dimensional algebra is bad input,
    # never an IndexError from indexing past the table
    with pytest.raises(ValueError, match="dimension"):
        check(h4, TriangleOp(2, (((1, 0), (0, 1)),) * 2))


@pytest.mark.parametrize("cell, entry", [((1, 2, 2), "2"), ((0, 0, 0), "0")])
def test_fp_residuals_are_residues(h4, cell, entry):
    # family iv read mod 5, one entry changed: a residual whose sum has no
    # nonzero table term is still a residue mod 5, not a rational
    payload = op_to_json_dict(family_table("iv"))
    payload["ring"] = {"prime": 5}
    payload["table"] = [
        [[str(int(e) % 5) for e in c] for c in row] for row in payload["table"]
    ]
    i, j, k = cell
    payload["table"][i][j][k] = entry
    op = op_from_json_dict(payload)
    assert op.prime == 5
    entries = [
        e for check in (check_unitality, check_counit_absorption) for e in check(h4, op).entries
    ]
    assert entries
    for e in entries:
        assert type(e.residual) is int and 0 < e.residual < 5
    assert str(check_unitality(h4, op).first_failure().residual) == "4"


def test_all_families_pass_relaxed_suite_symbolically(h4):
    weak_unital = []
    for label in FAMILY_LABELS:
        op = family_table(label)
        for check in (
            check_coalgebra_hom,
            check_distributivity,
            check_weighted_assoc,
            check_counit_absorption,
        ):
            report = check(h4, op)
            assert report.passed, (label, check.__name__, report.first_failure())
        if check_unitality(h4, op).passed:
            weak_unital.append(label)
    assert weak_unital == ["i", "ii", "iii"]


def test_extend_generators_reproduces_families(h4):
    # from the g and v columns, and with nothing to complete from all four
    for label in FAMILY_LABELS:
        op = family_table(label)
        for given in ((G, V), range(4)):
            columns = {j: [row[j] for row in op.table] for j in given}
            assert extend_generators(h4, columns).table == op.table, (label, given)


def test_extend_generators_examples(h4):
    # identity action on generators for rows 1 and g, zero rows v and gv:
    # column 1 must come out as (1, 1, 0, 0) via (x1|>g)(x2|>g)
    columns = {G: [unit_vec(G), unit_vec(G), zeros(), zeros()],
               V: [unit_vec(V), unit_vec(V), zeros(), zeros()]}
    op = extend_generators(h4, columns)
    assert [op.table[i][ONE] for i in range(4)] == [
        unit_vec(ONE),
        unit_vec(ONE),
        zeros(),
        zeros(),
    ]

    op0 = extend_generators(h4, {G: [zeros()] * 4, V: [zeros()] * 4})
    for i in range(4):
        assert op0.table[i][ONE] == zeros()
        assert op0.table[i][GV] == zeros()


def test_extend_generators_rejects_columns_that_do_not_generate(h4):
    # g alone generates only span{1, g}: v and gv have no product g*b
    with pytest.raises(ValueError, match="do not generate"):
        extend_generators(h4, {G: [unit_vec(G)] * 4})
    # v alone: v*v = 0, so not even the unit column can be filled
    with pytest.raises(ValueError, match="do not generate"):
        extend_generators(h4, {V: [zeros()] * 4})
    with pytest.raises(ValueError, match="nonempty subset"):
        extend_generators(h4, {})
    with pytest.raises(ValueError, match="nonempty subset"):
        extend_generators(h4, {4: [zeros()] * 4})
    with pytest.raises(ValueError, match="4 rows"):
        extend_generators(h4, {G: [zeros()] * 3, V: [zeros()] * 4})


def test_json_roundtrip_rational(h4):
    op = family_table("i", Fraction(2, 3))
    data = op_to_json_dict(op)
    assert data["ring"] == "rational"
    again = op_from_json_dict(json.loads(json.dumps(data)))
    assert again.table == op.table


def test_json_roundtrip_poly():
    op = family_table("ii")
    data = op_to_json_dict(op)
    assert data["ring"] == "poly"
    again = op_from_json_dict(data)
    assert op_serial(again) == op_serial(op)
    assert op_to_json_dict(again) == data


def test_json_roundtrip_prime():
    table = tuple(
        tuple(tuple((i + j + k) % 5 for k in range(4)) for j in range(4))
        for i in range(4)
    )
    op = TriangleOp(4, table, 5)
    data = op_to_json_dict(op)
    assert data["ring"] == {"prime": 5}
    again = op_from_json_dict(data)
    assert again == op
    # entries outside 0..p-1 are read as their residues
    data["table"][0][0] = ["7", "-1", "5", "0"]
    again = op_from_json_dict(data)
    assert again.prime == 5 and again.table[0][0] == (2, 4, 0, 0)
    assert all(type(x) is int and 0 <= x < 5 for row in again.table for c in row for x in c)


def test_bad_ring_tag():
    with pytest.raises(ValueError):
        op_from_json_dict({"dim": 4, "ring": "float", "table": []})
