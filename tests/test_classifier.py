import hashlib
import random
from fractions import Fraction

import pytest

from posthopf import classifier
from posthopf.classifier import (
    Constraint,
    ConstraintSystem,
    Family,
    SolverVerificationError,
    _systems,
    builtin_families,
    canonical_table_key,
    classification_to_json_dict,
    classify,
    generate_constraints,
    match_families,
    solve,
    specializes,
    subsume,
)
from posthopf.hopfcore import multiply, sweedler_h4
from posthopf.multipoly import Poly, VarRegistry, parse_poly
from posthopf.triangleop import (
    TriangleOp,
    axiom_residuals,
    build_unknown_op,
    check_unitality,
    family_table,
)

ONE, G, V, GV = 0, 1, 2, 3


@pytest.fixture(scope="module")
def h4():
    return sweedler_h4()


# -- unknown-table construction ------------------------------------------------

def test_build_unknown_op_counts(h4):
    _, reg32 = build_unknown_op(h4, "generator32")
    assert len(reg32) == 32
    _, reg64 = build_unknown_op(h4, "full64")
    assert len(reg64) == 64
    with pytest.raises(ValueError):
        build_unknown_op(h4, "full128")


# equation count and sha256 of "{provenance} {residual}\n" over the weak system
WEAK_SYSTEM_PINS = {
    "generator32": (711, "fef9aa6252f143889939a6d9f183e647ffba19ef54c7b8d17c42476adbdd6a96"),
    "full64": (776, "b6d803a9bd492046a78e778bd6952b6b252018b268023ad25518558e368c5c14"),
}


@pytest.mark.parametrize("parameterization", sorted(WEAK_SYSTEM_PINS))
def test_weak_constraint_system_is_pinned(h4, parameterization):
    # the solver's input byte for byte; variable ids decide its tie-breaks,
    # so the unknowns must be registered row, then column, then coefficient;
    # the F_p oracle's slots are these ids, so its slot layout rests on this order
    op, reg = build_unknown_op(h4, parameterization)
    equations = generate_constraints(h4, op, "weak").equations
    count, digest = WEAK_SYSTEM_PINS[parameterization]
    assert len(equations) == count
    text = "".join(f"{c.provenance()} {c.residual}\n" for c in equations)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    cols = (G, V) if parameterization == "generator32" else range(4)
    assert [reg.name_of(v) for v in range(len(reg))] == [
        f"c_{i}_{j}_{k}" for i in range(4) for j in cols for k in range(4)
    ]


def test_generator32_completed_entry_is_quadratic(h4):
    op, reg = build_unknown_op(h4, "generator32")
    cell = op.table[ONE][ONE]  # 1 |> 1, completed via (1|>g)(1|>g)
    row0 = {reg.id_of(f"c_0_{j}_{k}") for j in (1, 2) for k in range(4)}
    for comp in cell:
        assert comp.total_degree() == 2
        assert set(comp.support) <= row0


# -- constraint generation -------------------------------------------------------

def test_unit_row_square_identity_matches_derivation(h4):
    # expanding (1|>g)(1|>g) - 1 componentwise gives exactly
    # [t1^2 + t2^2 - 1, 2 t1 t2, 2 t1 t3, 2 t1 t4]
    op, reg = build_unknown_op(h4, "generator32")
    square = multiply(h4, op.table[ONE][G], op.table[ONE][G])
    expected = [
        "c_0_1_0^2 + c_0_1_1^2 - 1",
        "2*c_0_1_0*c_0_1_1",
        "2*c_0_1_0*c_0_1_2",
        "2*c_0_1_0*c_0_1_3",
    ]
    diff = [square[0] - 1, square[1], square[2], square[3]]
    assert [str(p) for p in diff] == expected


def test_relaxed_system_contains_unit_row_facts(h4):
    system = _systems("generator32")[1]["relaxed"]
    reg = system.registry
    keys = {c.residual.canon_key() for c in system.equations}
    for text in (
        "c_0_1_0^2 - c_0_1_0",   # t1^2 = t1 from coproduct compatibility
        "c_0_1_0*c_0_1_1",       # t1 t2 = 0
        "c_0_1_0*c_0_1_2",       # t1 t3 = 0
        "c_0_1_0*c_0_1_3",       # t1 t4 = 0
    ):
        assert parse_poly(reg, text).canon_key() in keys, text


def test_weak_mode_adds_unit_row_linear_equations(h4):
    weak = _systems("generator32")[1]["weak"]
    reg = weak.registry
    keys = {c.residual.canon_key() for c in weak.equations}
    assert parse_poly(reg, "c_0_1_1 - 1").canon_key() in keys
    relaxed = _systems("generator32")[1]["relaxed"]
    assert len(weak.equations) > len(relaxed.equations)


def equation_view(system):
    return [(str(c.residual), c.axiom, c.indices) for c in system.equations]


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
@pytest.mark.parametrize("parameterization", ["generator32", "full64"])
def test_cached_system_equals_a_fresh_generation(h4, mode, parameterization):
    # the shared generation gives each job the equations, in the order, that
    # generating its own mode from scratch gives
    cached = _systems(parameterization)[1][mode]
    fresh = generate_constraints(h4, build_unknown_op(h4, parameterization)[0], mode)
    assert equation_view(cached) == equation_view(fresh)
    counts = {("relaxed", "generator32"): 700, ("weak", "generator32"): 711,
              ("relaxed", "full64"): 760, ("weak", "full64"): 776}
    assert len(cached.equations) == counts[mode, parameterization]


def test_generation_keeps_the_suites_own_entries(h4, monkeypatch):
    # each equation is the check's own residual record, not a copy of it
    entries = []

    def recording_walk(*args):
        for entry in axiom_residuals(*args):
            entries.append(entry)
            yield entry

    monkeypatch.setattr(classifier, "axiom_residuals", recording_walk)
    op, _reg = build_unknown_op(h4, "generator32")
    equations = generate_constraints(h4, op, "weak").equations
    own = {id(e) for e in entries}
    assert len(equations) == 711
    assert all(isinstance(c, Constraint) and id(c) in own for c in equations)


@pytest.mark.parametrize("parameterization", ["generator32", "full64"])
def test_relaxed_system_is_the_weak_one_without_unitality(parameterization):
    _op, systems = _systems(parameterization)
    weak, relaxed = systems["weak"], systems["relaxed"]
    assert relaxed.registry is weak.registry
    kept = [c for c in weak.equations if c.axiom != "unitality"]
    assert len(relaxed.equations) == len(kept)
    assert all(a is b for a, b in zip(relaxed.equations, kept))
    # generation dedupes in suite order, so unitality is the tail of the weak list
    assert all(a is b for a, b in zip(weak.equations, kept))
    assert {c.axiom for c in weak.equations[len(kept):]} == {"unitality"}


def test_unknown_mode_is_refused():
    for call in (
        lambda: classify(mode="bogus"),
        lambda: classify(mode="weak", parameterization="bogus"),
        lambda: _systems("bogus"),
    ):
        with pytest.raises(ValueError):
            call()


def test_zero_table_is_inconsistent(h4):
    op, reg = build_unknown_op(h4, "generator32")
    zero_reg = VarRegistry()
    zero = Poly.zero(zero_reg)
    zero_op = TriangleOp(4, tuple(tuple((zero,) * 4 for _ in range(4)) for _ in range(4)))
    system = generate_constraints(h4, zero_op, "relaxed")
    constants = [c for c in system.equations if c.residual.is_constant()]
    assert constants and any(c.residual.constant_value() == -1 for c in constants)
    branches, _ = solve(system)
    assert all(b.status == "inconsistent" for b in branches)


# -- the branch solver -----------------------------------------------------------

def toy_system(equations, reg):
    return ConstraintSystem(reg, [Constraint(p, "toy", (i,)) for i, p in enumerate(equations)])


def test_solve_toy_product_system():
    reg = VarRegistry()
    x, y = reg.var("x"), reg.var("y")
    branches, _ = solve(toy_system([x * y, x * x - 1], reg))
    resolved = [b for b in branches if b.status == "resolved"]
    assert len(resolved) == 2
    points = sorted(
        (b.assignments[0].constant_value(), b.assignments[1].constant_value())
        for b in resolved
    )
    assert points == [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))]
    assert all(not b.free_params for b in resolved)


def test_solve_irrational_quadratic_unresolved():
    reg = VarRegistry()
    x = reg.var("x")
    branches, _ = solve(toy_system([x * x + 1], reg))
    assert [b.status for b in branches] == ["unresolved"]
    assert branches[0].note == "no applicable elimination or split"


def test_solve_respects_branch_limit():
    reg = VarRegistry()
    x, y = reg.var("x"), reg.var("y")
    branches, _ = solve(toy_system([x * x - 1, y * y - 1], reg), max_branches=2)
    assert any(b.status == "unresolved" and b.note == "limit exceeded" for b in branches)


def test_solver_verification_is_a_hard_error(monkeypatch):
    # corrupt the original system after preparation to force a mismatch
    reg = VarRegistry()
    x = reg.var("x")
    system = toy_system([x - 1], reg)
    import posthopf.solver as mod

    original = mod._prepare

    def tampered(eqs):
        out = original(eqs)
        return [p + 1 if p.linear_candidates() else p for p in out]

    monkeypatch.setattr(mod, "_prepare", tampered)
    with pytest.raises(SolverVerificationError):
        solve(system)


# -- the full classification -------------------------------------------------------

def test_relaxed_classification_completes(relaxed_result):
    assert all(b.status != "unresolved" for b in relaxed_result.branches)
    assert relaxed_result.stats["unresolved"] == 0
    assert len(relaxed_result.maximal_families) == 6


def test_relaxed_classification_bijection(relaxed_result):
    match = match_families(relaxed_result.maximal_families, builtin_families())
    assert match.perfect
    assert sorted(label for _, label in match.pairs) == ["i", "ii", "iii", "iv", "v", "vi"]


def test_weak_classification(weak_result):
    assert all(b.status != "unresolved" for b in weak_result.branches)
    h4 = sweedler_h4()
    known = {
        label: op
        for label, op in builtin_families().items()
        if check_unitality(h4, op).passed
    }
    assert sorted(known) == ["i", "ii", "iii"]
    match = match_families(weak_result.maximal_families, known)
    assert match.perfect
    assert len(weak_result.maximal_families) == 3


def test_parameterization_equivalence(relaxed_result, full64_result):
    keys32 = sorted(canonical_table_key(f.table) for f in relaxed_result.maximal_families)
    keys64 = sorted(canonical_table_key(f.table) for f in full64_result.maximal_families)
    assert keys32 == keys64
    cross = match_families(
        full64_result.maximal_families,
        {str(i): f.table for i, f in enumerate(relaxed_result.maximal_families)},
    )
    assert cross.perfect


def test_proof_step_regression(relaxed_result):
    # every resolved branch satisfies 1|>1 = 1 (despite the source's
    # "1|>1 = x" line, which follows as 1 from counit absorption) and
    # g|>g in {1, g}
    reg_one = (1, 0, 0, 0)
    reg_g = (0, 1, 0, 0)
    for fam in relaxed_result.families:
        cell_11 = tuple(fam.table.table[ONE][ONE])
        assert all(c == t for c, t in zip(cell_11, reg_one))
        cell_gg = tuple(fam.table.table[G][G])
        assert all(c == t for c, t in zip(cell_gg, reg_one)) or all(
            c == t for c, t in zip(cell_gg, reg_g)
        )


def test_branch_soundness_independent_numeric(relaxed_result):
    # numeric spot-check at random parameter values, independent of the
    # solver's symbolic re-verification
    system = _systems("generator32")[1]["relaxed"]
    rng = random.Random(99)
    for branch in relaxed_result.branches:
        if branch.status != "resolved":
            continue
        for _ in range(3):
            pvals = {
                branch.registry.id_of(name): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for name in branch.free_params
            }
            numeric = {v: poly.evaluate(pvals) for v, poly in branch.assignments.items()}
            for c in system.equations:
                assert c.residual.evaluate(numeric) == 0


def test_branch_assignments_back_substituted(relaxed_result):
    for branch in relaxed_result.branches:
        if branch.status != "resolved":
            continue
        param_ids = {branch.registry.id_of(n) for n in branch.free_params}
        for poly in branch.assignments.values():
            assert set(poly.support) <= param_ids


def test_determinism_of_serialized_results(relaxed_result):
    import json

    fresh = classify("relaxed", "generator32")
    assert json.dumps(classification_to_json_dict(fresh)) == json.dumps(
        classification_to_json_dict(relaxed_result)
    )


def case_tree(branches) -> list[dict]:
    """The case tree of one solve, free of the choice of representative:
    per branch in order its status, its assignments by variable id, its
    side conditions, and its remaining equations as monic polynomials in
    ``canon_key`` order.  Traces and notes name an equation of the store, so
    they are left out."""

    def monic(eq):
        return str(eq * (Fraction(1) / Fraction(eq.terms()[0][1])))

    return [
        {
            "status": b.status,
            "assignments": [f"{v} := {p}" for v, p in sorted(b.assignments.items())],
            "side_conditions": list(b.side_conditions),
            "remaining": [monic(eq) for eq in sorted(b.remaining, key=Poly.canon_key)],
        }
        for b in branches
    ]


# SHA-256 of json.dumps(case_tree(branches), indent=1) for each top-level
# classify solve; the readable record is about 3 MB over the four jobs
CASE_TREE_SHA256 = {
    "relaxed_result": (
        "ec6bf6bd5611b701d71a8c037c3f762475f48a57139df25fabeb6bf7bd665c52"
    ),
    "full64_result": (
        "bc6206f746cbe4ead7127018540f62396e80b54df0ef723befbb57900112eafc"
    ),
    "weak_result": (
        "c493c545a4e0986223fedbbd8066ebd16e9e6a2916a5c10520c4fe6479ab9ed2"
    ),
    "weak_full64_result": (
        "784f94c3b5a634b2c5204a3550fbf9d53e7b96ab1c707ef33fca9ad946dfd969"
    ),
}


@pytest.mark.parametrize("fixture", sorted(CASE_TREE_SHA256))
def test_case_tree_golden(request, fixture):
    import hashlib
    import json

    record = json.dumps(case_tree(request.getfixturevalue(fixture).branches), indent=1)
    digest = hashlib.sha256(record.encode("utf-8")).hexdigest()
    assert digest == CASE_TREE_SHA256[fixture]


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
@pytest.mark.parametrize("param", ["generator32", "full64"])
@pytest.mark.parametrize("max_branches", [3, 5, 10, 20])
def test_leaf_remaining_is_sorted_with_unique_keys(mode, param, max_branches):
    result = classify(mode, param, max_branches=max_branches)
    leaves = [b for b in result.branches if b.status != "resolved"]
    if max_branches < 20:  # the limit cuts every job's search
        assert any(b.status == "unresolved" for b in leaves)
    for branch in leaves:
        keys = [eq.canon_key() for eq in branch.remaining]
        assert keys == sorted(set(keys))


# -- subsumption and matching -------------------------------------------------------

def fam_of(op):
    return Family(branch=None, table=op)


def test_specializes_examples():
    assert specializes(family_table("i"), family_table("i", Fraction(3)))
    assert not specializes(family_table("i", Fraction(3)), family_table("i"))
    assert not specializes(family_table("i"), family_table("iii"))
    assert not specializes(family_table("iii"), family_table("i"))
    assert not specializes(family_table("iv"), family_table("v"))
    assert not specializes(family_table("v"), family_table("iv"))


def test_subsume_drops_specializations():
    fams = [fam_of(family_table("i")), fam_of(family_table("i", Fraction(3)))]
    kept = subsume(fams)
    assert len(kept) == 1
    assert canonical_table_key(kept[0].table) == canonical_table_key(family_table("i"))

    both = subsume([fam_of(family_table("i")), fam_of(family_table("iii"))])
    assert len(both) == 2
    pair = subsume([fam_of(family_table("iv")), fam_of(family_table("v"))])
    assert len(pair) == 2


def test_subsume_keeps_one_of_mutual_duplicates():
    kept = subsume([fam_of(family_table("iii")), fam_of(family_table("iii"))])
    assert len(kept) == 1


def test_subsume_keeps_the_smaller_key_of_mutual_specializations():
    # family i at a and at 2a: distinct keys, each a specialization of the other
    op = family_table("i")
    reg = op.table[0][0][0].registry
    vid = reg.id_of("a")
    doubled = TriangleOp(
        4,
        tuple(
            tuple(tuple(e.substitute(vid, 2 * reg.var_by_id(vid)) for e in cell) for cell in row)
            for row in op.table
        ),
    )
    keys = sorted(map(canonical_table_key, (op, doubled)))
    assert keys[0] != keys[1]
    assert specializes(op, doubled) and specializes(doubled, op)
    for fams in ([op, doubled], [doubled, op]):
        kept = subsume(list(map(fam_of, fams)))
        assert [canonical_table_key(f.table) for f in kept] == keys[:1]


def test_canonical_key_normalizes_parameter_sign():
    op = family_table("ii")
    reg = op.table[0][0][0].registry
    vid = reg.id_of("a")
    minus_a = -reg.var_by_id(vid)
    flipped = TriangleOp(
        4,
        tuple(
            tuple(tuple(e.substitute(vid, minus_a) for e in cell) for cell in row)
            for row in op.table
        ),
    )
    assert canonical_table_key(flipped) == canonical_table_key(op)


def test_match_families_reports_unmatched():
    report = match_families([], builtin_families())
    assert report.unmatched_known == list(builtin_families())
    assert not report.pairs

    only_iii = match_families([fam_of(family_table("iii"))], builtin_families())
    assert only_iii.pairs == [(0, "iii")]
    assert sorted(only_iii.unmatched_known) == ["i", "ii", "iv", "v", "vi"]
