"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failing criterion fails its test with the usual diagnostics.
Expensive runs (classification, enumeration) are shared via session fixtures
where a criterion does not itself pin a runtime bound.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from posthopf.classifier import (
    _job_system,
    builtin_families,
    canonical_table_key,
    classification_to_json_dict,
    classify,
    match_families,
)
from posthopf.cli import main as cli_main
from posthopf.exactmath import rational_mod_p
from posthopf.ffenum import (
    EnumerationTask,
    compare_with_families,
    enumerate_structures,
    family_evaluations,
)
from posthopf.hopfcore import (
    HopfStructure,
    basis_element,
    group_likes,
    skew_primitives,
    sweedler_h4,
    verify_hopf_axioms,
)
from posthopf.multipoly import Poly, VarRegistry, parse_poly
from posthopf.triangleop import (
    FAMILY_LABELS,
    check_coalgebra_hom,
    check_counit_absorption,
    check_distributivity,
    check_unitality,
    check_weighted_assoc,
    family_table,
    op_serial,
)

ONE, G, V, GV = 0, 1, 2, 3


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def _mutations(h4):
    def rebuild(**kw):
        base = dict(
            dim=h4.dim,
            basis_names=h4.basis_names,
            mul=h4.mul,
            unit=h4.unit,
            comul=h4.comul,
            counit=h4.counit,
            antipode=h4.antipode,
        )
        base.update(kw)
        return HopfStructure(**base)

    n = h4.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mul = [[[c for c in r] for r in p] for p in h4.mul]
                mul[i][j][k] += 1
                yield rebuild(mul=tuple(tuple(tuple(r) for r in p) for p in mul))
                com = [[[c for c in r] for r in p] for p in h4.comul]
                com[i][j][k] += 1
                yield rebuild(comul=tuple(tuple(tuple(r) for r in p) for p in com))
    for i in range(n):
        u = list(h4.unit)
        u[i] += 1
        yield rebuild(unit=tuple(u))
        c = list(h4.counit)
        c[i] += 1
        yield rebuild(counit=tuple(c))
        for j in range(n):
            a = [list(r) for r in h4.antipode]
            a[i][j] += 1
            yield rebuild(antipode=tuple(tuple(r) for r in a))


def test_criterion_1_hopf_axiom_suite(capsys):
    t0 = time.perf_counter()
    code = cli_main(["verify", "--hopf", "builtin:h4"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "hopf_axioms: PASS" in out
    assert elapsed < 1.0, f"verify took {elapsed:.2f}s"
    h4 = sweedler_h4()
    assert verify_hopf_axioms(h4).entries == ()
    count = 0
    for mutated in _mutations(h4):
        count += 1
        assert not verify_hopf_axioms(mutated).passed
    assert count == 152  # every single structure constant, +1
    report(1, "hopf axiom suite")


def test_criterion_2_family_validity():
    h4 = sweedler_h4()
    t0 = time.perf_counter()
    for label in FAMILY_LABELS:
        op = family_table(label)  # symbolic parameter for i and ii
        for check in (
            check_coalgebra_hom,
            check_distributivity,
            check_weighted_assoc,
            check_counit_absorption,
        ):
            rep = check(h4, op)
            assert rep.passed, (label, check.__name__)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"family suite took {elapsed:.2f}s"
    report(2, "family validity")


def test_criterion_3_weak_relaxed_split():
    h4 = sweedler_h4()
    witnesses = {}
    for label in FAMILY_LABELS:
        rep = check_unitality(h4, family_table(label))
        if not rep.passed:
            witnesses[label] = rep.first_failure().indices[0]
    assert sorted(witnesses) == ["iv", "v", "vi"]
    assert witnesses["iv"] == V
    assert witnesses["vi"] == G
    report(3, "weak/relaxed unitality split")


def test_criterion_4_classification_reproduction():
    t0 = time.perf_counter()
    result = classify("relaxed", "generator32")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, f"classification took {elapsed:.2f}s"
    assert all(b.status != "unresolved" for b in result.branches)
    # a verification failure raises SolverVerificationError, so arriving here
    # with resolved branches means every branch re-verified exactly
    assert result.stats["resolved"] == len(result.families) > 0
    match = match_families(result.maximal_families, builtin_families())
    assert match.perfect and len(match.pairs) == 6
    one_vec = (1, 0, 0, 0)
    g_vec = (0, 1, 0, 0)
    for fam in result.families:
        assert all(c == t for c, t in zip(fam.table.table[ONE][ONE], one_vec))
        gg = fam.table.table[G][G]
        assert all(c == t for c, t in zip(gg, one_vec)) or all(
            c == t for c, t in zip(gg, g_vec)
        )
    report(4, "classification reproduction")


def test_criterion_5_parameterization_cross_check(relaxed_result, full64_result):
    keys32 = sorted(canonical_table_key(f.table) for f in relaxed_result.maximal_families)
    keys64 = sorted(canonical_table_key(f.table) for f in full64_result.maximal_families)
    assert keys32 == keys64
    report(5, "generator32/full64 agreement")


def test_criterion_6_weak_mode_classification(weak_result, relaxed_result):
    h4 = sweedler_h4()
    unital_known = {
        label: op
        for label, op in builtin_families().items()
        if check_unitality(h4, op).passed
    }
    assert sorted(unital_known) == ["i", "ii", "iii"]
    match = match_families(weak_result.maximal_families, unital_known)
    assert match.perfect and len(match.pairs) == 3
    # the count of extra relaxed-only families is logged as a flagged
    # discrepancy against the anticipated value of 2, not asserted
    extra = len(relaxed_result.maximal_families) - len(weak_result.maximal_families)
    anticipated = 2
    print(
        f"  note: relaxed-only families computed = {extra}, anticipated = {anticipated}"
        + (" [FLAGGED DISCREPANCY]" if extra != anticipated else "")
    )
    report(6, "weak-mode classification")


@pytest.mark.parametrize("prime,anticipated", [(3, 10), (5, 14)])
def test_criterion_7_finite_field_oracle(prime, anticipated):
    h4 = sweedler_h4()
    t0 = time.perf_counter()
    rep = enumerate_structures(EnumerationTask(prime=prime, mode="relaxed"))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"enumeration p={prime} took {elapsed:.2f}s"
    fams = builtin_families()
    # derived expected set: evaluate the six families at every parameter
    # value and deduplicate; the anticipated counts are confirmed by this
    # computation
    expected = family_evaluations(fams, prime)
    assert len(expected) == anticipated
    diff = compare_with_families(rep, fams)
    assert diff.empty, (diff.missing, diff.extra)
    assert rep.count == anticipated
    for op in rep.structures:
        assert check_counit_absorption(h4, op).passed
    report(7, f"finite-field oracle p={prime}")


def test_criterion_8_primitive_spaces():
    h4 = sweedler_h4()
    gl = group_likes(h4)
    one, g = basis_element(h4, ONE), basis_element(h4, G)
    assert gl == (one, g)
    v = basis_element(h4, V)
    gv = basis_element(h4, GV)
    one_minus_g = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))

    from posthopf.exactmath import rref

    def same_span(basis, targets):
        if len(basis) != len(targets):
            return False
        if not basis:
            return True
        _, p1 = rref([list(b) for b in basis])
        _, p2 = rref([list(b) for b in list(basis) + list(targets)])
        return len(p1) == len(p2)

    spaces = {
        (ONE, ONE): [],
        (G, ONE): [v, one_minus_g],
        (ONE, G): [gv, one_minus_g],
        (G, G): [],
    }
    dims = []
    for (gi, hi), targets in spaces.items():
        basis = skew_primitives(h4, basis_element(h4, gi), basis_element(h4, hi))
        dims.append(len(basis))
        assert same_span(basis, targets), (gi, hi)
    assert dims == [0, 2, 2, 0]
    report(8, "group-likes and primitive spaces")


def test_criterion_9_property_suites(relaxed_result, enum_p3):
    # solver soundness: independent numeric re-verification of every
    # resolved branch against the original system
    _, system = _job_system("relaxed", "generator32")
    rng = random.Random(4242)
    for branch in relaxed_result.branches:
        if branch.status != "resolved":
            continue
        pvals = {
            branch.registry.id_of(name): Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            for name in branch.free_params
        }
        numeric = {v: poly.evaluate(pvals) for v, poly in branch.assignments.items()}
        for c in system.equations:
            assert c.residual.evaluate(numeric) == 0

    # polynomial canonicality round-trips
    reg = VarRegistry()
    for name in ("a", "b", "c"):
        reg.add(name)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(
                sorted(
                    {
                        reg.id_of(n): rng.randint(1, 3)
                        for n in rng.sample(["a", "b", "c"], rng.randint(0, 3))
                    }.items()
                )
            )
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if coeff:
                terms[mono] = terms.get(mono, Fraction(0)) + coeff
        p = Poly(reg, {m: c for m, c in terms.items() if c})
        assert parse_poly(reg, str(p)) == p

    # evaluation/reduction ring homomorphism on 200 randomized instances
    prime = 11

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(
                sorted(
                    {
                        reg.id_of(n): rng.randint(1, 2)
                        for n in rng.sample(["a", "b", "c"], rng.randint(0, 2))
                    }.items()
                )
            )
            coeff = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            if coeff:
                terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Poly(reg, {m: c for m, c in terms.items() if c})

    for _ in range(200):
        f, g = rand_poly(), rand_poly()
        assignment = {reg.id_of(n): rng.randrange(prime) for n in ("a", "b", "c")}

        def ev(q):
            return rational_mod_p(q.evaluate(assignment), prime)

        assert ev(f * g) == ev(f) * ev(g) % prime
        assert ev(f + g) == (ev(f) + ev(g)) % prime

    # determinism of serialized outputs across two consecutive runs
    fresh = classify("relaxed", "generator32")
    assert json.dumps(classification_to_json_dict(fresh)) == json.dumps(
        classification_to_json_dict(relaxed_result)
    )
    fresh_enum = enumerate_structures(EnumerationTask(prime=3, mode="relaxed"))
    assert [op_serial(o) for o in fresh_enum.structures] == [
        op_serial(o) for o in enum_p3.structures
    ]
    report(9, "property suites")
