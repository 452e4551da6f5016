import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from posthopf import classifier, ffenum
from posthopf.classifier import builtin_families
from posthopf.exactmath import rational_mod_p, rref
from posthopf.ffenum import (
    EnumerationTask,
    _fold,
    _leaf,
    _system_terms,
    compare_with_families,
    enumerate_structures,
    family_evaluations,
    row_candidates,
)
from posthopf.hopfcore import sweedler_h4
from posthopf.multipoly import Poly, VarRegistry
from posthopf.solver import Constraint
from posthopf.triangleop import (
    TriangleOp,
    build_unknown_op,
    family_table,
    check_counit_absorption,
    check_unitality,
    extend_generators,
    op_serial,
)

ONE, G, V, GV = 0, 1, 2, 3
ROOT = Path(__file__).resolve().parent.parent


def test_task_validation():
    with pytest.raises(ValueError):
        EnumerationTask(prime=2)
    with pytest.raises(ValueError):
        EnumerationTask(prime=9)
    with pytest.raises(ValueError):
        EnumerationTask(prime=37)
    with pytest.raises(ValueError):
        EnumerationTask(prime=5.0)
    with pytest.raises(ValueError):
        EnumerationTask(prime=5, mode="strict")


def identity_row(p):
    # 1|>g = g, 1|>v = v
    return (0, 1, 0, 0, 0, 0, 1, 0)


def candidates(p, mode, row, assigned):
    """The candidates of ``row`` with the ``assigned`` rows folded into the
    constraints of its depth in :func:`_system_terms`, or [] as soon as a
    fold leaves that depth dead."""
    folded = {row: _system_terms(mode)[row]}
    for r in range(row):
        folded = _fold(p, folded, r, assigned[r])
        if folded[row] is None:
            return []
    return row_candidates(p, row, folded)


def test_row0_candidates_exclude_minus_one():
    # 1|>g = -1 satisfies neither counit nor coproduct compatibility
    for p in (3, 5):
        cands = candidates(p, "relaxed", 0, {})
        heads = {c[:4] for c in cands}
        assert (p - 1, 0, 0, 0) not in heads
        # 1|>g is always 1 or g
        assert heads <= {(1, 0, 0, 0), (0, 1, 0, 0)}


def test_row1_g_action_is_group_like():
    assigned = {0: identity_row(5)}
    cands = candidates(5, "relaxed", 1, assigned)
    assert cands
    assert {c[:4] for c in cands} <= {(1, 0, 0, 0), (0, 1, 0, 0)}


def test_row2_candidates_respect_primitive_spaces():
    # with rows 1 and g acting as the identity on generators, coproduct
    # compatibility forces v|>g into the (g,g)-primitive space {0} and
    # v|>v into the (g,1)-primitive space; over F_3 the survivors are
    # exactly the multiples of v
    identity_row = (0, 1, 0, 0, 0, 0, 1, 0)
    cands = candidates(3, "relaxed", 2, {0: identity_row, 1: identity_row})
    assert {c[:4] for c in cands} == {(0, 0, 0, 0)}
    assert {c[4:] for c in cands} == {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 0)}


def test_row_candidates_drop_what_vanishes_mod_p():
    # row 0 is read unreduced: a term whose coefficient p divides is dropped,
    # and a constraint left empty constrains nothing; the two counit pins
    # come with every row's system (test_every_row_holds_its_counit_pins)
    x0, x1, x2, x4, x5 = (ffenum._intern(((s, 1),)) for s in (0, 1, 2, 4, 5))
    pins = [(1, x0, 1, x1, -1, 0), (1, x4, 1, x5)]
    free = row_candidates(3, 0, {0: pins})
    assert len(free) == 3**6
    assert row_candidates(3, 0, {0: pins + [(3, x1, 6, 0)]}) == free
    assert row_candidates(3, 0, {0: pins + [(3, x1, 4, x2)]}) == [c for c in free if c[2] == 0]
    # a linear constraint is row-reduced as read: a scaled repeat of a pin
    # changes nothing, and a scaled copy whose constant disagrees leaves none
    for p in (3, 5):
        scaled = [tuple(x * k if i % 2 == 0 else x for i, x in enumerate(pin)) for k, pin in zip((2, p - 1), pins)]
        assert row_candidates(p, 0, {0: pins + scaled}) == row_candidates(p, 0, {0: pins})
    assert row_candidates(3, 0, {0: pins + [(2, x0, 2, x1, -1, 0)]}) == []


def decode(terms, row):
    """The flat term list ``(c_0, mid_0, c_1, mid_1, ...)`` as ``[(coeff,
    ((slot, exp), ...)), ...]``.  Its ids are relative to ``row``: their
    lowest digit is the local id of row ``row``, the next that of row ``row
    + 1``, and so on, as in the system with rows 0 .. row - 1 folded in; each
    local id's ``((local slot, exp), ...)`` is read off the local table."""
    local_monos = list(ffenum._LOCALS)
    digit = (1 << ffenum._DIGIT_BITS) - 1
    out = []
    it = iter(terms)
    for c, mid in zip(it, it):
        mono = []
        r = row
        while mid:
            mono += [(8 * r + k, e) for k, e in local_monos[mid & digit]]
            mid >>= ffenum._DIGIT_BITS
            r += 1
        out.append((c, tuple(mono)))
    return out


@st.composite
def slot_monomials(draw):
    """A monomial ``((slot, exp), ...)`` by ascending slot over the 32 slots,
    spanning one to four rows, each exponent 1-4."""
    rows = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    mono = []
    for row in sorted(rows):
        slots = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
        mono += [(8 * row + k, draw(st.integers(1, 4))) for k in sorted(slots)]
    return tuple(mono)


@settings(max_examples=200, deadline=None)
@given(st.lists(slot_monomials(), min_size=1, max_size=6))
@example([((0, 1),), ((31, 4),), tuple((s, 1) for s in range(32))])
def test_interning_round_trips(monos):
    # every id decodes back to its monomial; interning again, or interning an
    # equal copy, gives the same id and adds no local monomial; distinct
    # monomials get distinct ids.  Fresh tables, so that the drawn monomials
    # neither stay interned nor outgrow the digit
    with pytest.MonkeyPatch.context() as m:
        fresh_intern_tables(m)
        ids = [ffenum._intern(mono) for mono in monos]
        assert [decode((1, mid), 0) for mid in ids] == [[(1, mono)] for mono in monos]
        size = len(ffenum._LOCALS)
        assert [ffenum._intern(tuple(map(tuple, mono))) for mono in monos] == ids
        assert len(ffenum._LOCALS) == size
        assert len(set(ids)) == len(set(monos))
        # the monomial 1 is id 0 and local id 0, so a digit of 0 reads nothing of its row
        assert ffenum._intern(()) == 0
        assert next(iter(ffenum._LOCALS.items())) == ((), (0, 0))
        # an id's digits are its rows' local ids, row 0's lowest
        for mid, mono in zip(ids, monos):
            digits = {s >> 3 for s, _e in mono}
            assert all(bool(mid >> (8 * r) & 255) == (r in digits) for r in range(4))
            assert mid >> 32 == 0


def test_interning_refuses_to_outgrow_the_digit(monkeypatch):
    # a digit holds 256 local ids, the local monomial 1 among them: on fresh
    # tables the 255 powers x0 .. x0**255 of slot 0 fill it, each id its own
    # local id, and one more local monomial raises and is not added
    fresh_intern_tables(monkeypatch)
    assert [ffenum._intern(((0, e),)) for e in range(1, 256)] == list(range(1, 256))
    assert ffenum._intern(((24, 255),)) == 255 << 24
    assert len(ffenum._LOCALS) == 256
    with pytest.raises(OverflowError, match="more than 256 local monomials"):
        ffenum._intern(((8, 256),))
    assert len(ffenum._LOCALS) == 256
    assert decode((1, 255 << 24), 0) == [(1, ((24, 255),))]


@functools.lru_cache(maxsize=None)
def system(mode):
    """The unreduced constraints of :func:`_system_terms`, decoded."""
    return {
        depth: [decode(terms, 0) for terms in constraints]
        for depth, constraints in _system_terms(mode).items()
    }


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
def test_every_row_holds_its_counit_pins(mode):
    # row_candidates reads the pins x0 + x1 = eps(e_r) and x4 + x5 = 0 off
    # the coalgebra counit axiom's constraints; they read row r only, so no
    # fold removes them
    for r, eps in enumerate(sweedler_h4().counit):
        held = {frozenset(terms) for terms in system(mode)[r]}
        first = {(1, ((8 * r, 1),)), (1, ((8 * r + 1, 1),))} | ({(-eps, ())} if eps else set())
        assert frozenset(first) in held
        assert frozenset({(1, ((8 * r + 4, 1),)), (1, ((8 * r + 5, 1),))}) in held


def brute_force_candidates(p, mode, row, assigned):
    """Every point of F_p**8 for row ``row`` at which all depth-``row``
    constraints vanish, evaluated unreduced at the full point (the assigned
    rows plus the candidate), in row_candidates' order: lexicographic in
    slots 1-3, 5-7.  Slot s is place ``s & 7`` of row ``s >> 3``.

    Each constraint is evaluated at the assigned rows once, exactly, which
    leaves an integer polynomial in the row's slots ``x0 .. x7``; the
    polynomials are compiled into one test, which every point runs."""
    checks = []
    for terms in system(mode)[row]:
        partial = {}
        for c, mono in terms:
            factors = []
            for s, e in mono:
                if s >> 3 < row:
                    c *= assigned[s >> 3][s & 7] ** e
                else:
                    factors.append(f"x{s & 7}**{e}")
            key = "*".join(factors) or "1"
            partial[key] = partial.get(key, 0) + c
        poly = " + ".join(f"({c})*{key}" for key, c in partial.items() if c)
        if poly:
            checks.append(f"({poly}) % {p}")
    vanish = eval(f"lambda x0, x1, x2, x3, x4, x5, x6, x7: not ({' or '.join(checks) or 0})")
    out = [cand for cand in itertools.product(range(p), repeat=8) if vanish(*cand)]
    out.sort(key=lambda c: (c[1], c[2], c[3], c[5], c[6], c[7]))
    return out


def search_record(monkeypatch, task):
    """The report, every prefix (rows 0..r) whose fold leaves a dead depth,
    with those depths, and (row, assigned rows, candidates) of every row
    scan.  The assigned rows are read off the ``_fold`` calls."""
    pruned, prefix, scans = [], [], []
    fold, scan = ffenum._fold, ffenum.row_candidates

    def recording_fold(p, system, row, values):
        folded = fold(p, system, row, values)
        # the search folds depth-first, so rows 0..row-1 are the ones folded last
        del prefix[row:]
        prefix.append(values)
        dead = [depth for depth, constraints in folded.items() if constraints is None]
        if dead:
            pruned.append((tuple(prefix), dead))
        return folded

    def recording_scan(p, row, system):
        cands = scan(p, row, system)
        scans.append((row, dict(enumerate(prefix[:row])), cands))
        return cands

    with monkeypatch.context() as m:
        m.setattr(ffenum, "_fold", recording_fold)
        m.setattr(ffenum, "row_candidates", recording_scan)
        report = enumerate_structures(task)
    return report, pruned, scans


def visited_scans(monkeypatch, task):
    """(row, assigned rows, candidates) of every row scan the search makes."""
    return search_record(monkeypatch, task)[2]


def test_row_candidates_match_brute_force(monkeypatch):
    # pruning soundness, order included: at every prefix the p = 3 search
    # visits, the candidates (folded through the recursion, and folded from
    # the assigned rows alone) equal a brute-force scan of all p**8 points
    for mode in ("relaxed", "weak"):
        task = EnumerationTask(prime=3, mode=mode)
        scans = visited_scans(monkeypatch, task)
        assert {row for row, _, _ in scans} == {0, 1, 2, 3}
        for row, assigned, cands in scans:
            assert cands == brute_force_candidates(3, mode, row, assigned)
            assert candidates(3, mode, row, assigned) == cands
    # off the search path: here a row-gv constraint that is not linear in
    # gv's slots removes the one point the linear ones leave
    assigned = {0: (0, 1, 0, 0, 0, 0, 0, 0), 1: (0, 1, 0, 0, 0, 0, 0, 0), 2: (0, 0, 2, 1, 0, 0, 0, 0)}
    assert candidates(3, "relaxed", 3, assigned) == brute_force_candidates(3, "relaxed", 3, assigned)
    # and here slot 1 of row v is a pivot named by free slot 6 (v1 = -v6),
    # so the walk, lexicographic in the free slots, is out of order until sorted
    assigned = {0: (0, 1, 0, 0, 0, 0, 2, 0), 1: (1, 0, 0, 0, 0, 0, 0, 0)}
    assert candidates(3, "relaxed", 2, assigned) == brute_force_candidates(3, "relaxed", 2, assigned)


def test_row_candidates_match_brute_force_p5(monkeypatch):
    # a sample at p = 5: the first scan of row v, and the first scans of row
    # gv with and without candidates (every row-v scan has some)
    task = EnumerationTask(prime=5)
    scans = visited_scans(monkeypatch, task)
    sample = [
        next(s for s in scans if s[0] == 2),
        next(s for s in scans if s[0] == 3 and s[2]),
        next(s for s in scans if s[0] == 3 and not s[2]),
    ]
    for row, assigned, cands in sample:
        assert cands == brute_force_candidates(5, "relaxed", row, assigned)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("relaxed", "weak")), st.integers(1, 3), st.randoms(use_true_random=False))
def test_row_candidates_match_brute_force_off_the_search_path(mode, row, rng):
    # each earlier row is a uniform point of F_3**8 or, more often, one of
    # the candidates of the rows before it, so the prefixes are denser than
    # the search's and still reach row gv alive; the candidates, order
    # included, equal a brute-force scan of all 3**8 points
    assigned = {}
    for r in range(row):
        cands = candidates(3, mode, r, assigned) if rng.random() < 0.7 else []
        assigned[r] = rng.choice(cands) if cands else tuple(rng.randrange(3) for _ in range(8))
    assert candidates(3, mode, row, assigned) == brute_force_candidates(3, mode, row, assigned)


def evaluate(terms, rows, p):
    """A decoded term list (see :func:`system`) at the full point ``rows``,
    mod p."""
    return sum(c * math.prod(rows[s >> 3][s & 7] ** e for s, e in mono) for c, mono in terms) % p


def test_fold_pruning_is_sound(monkeypatch):
    # at every prefix the search prunes at the fold, some constraint of a
    # dead depth takes one and the same nonzero value at every completion of
    # the remaining rows, so no completion of that prefix is lost
    rng = random.Random(17)
    for p in (3, 5):
        for mode in ("relaxed", "weak"):
            report, pruned, scans = search_record(monkeypatch, EnumerationTask(prime=p, mode=mode))
            assert pruned
            assert report.stats["row_scans"] == len(scans)
            assert report.stats["prefix_pruned"] == len(pruned) + sum(not cands for *_, cands in scans)
            for prefix, dead in pruned:
                completions = [
                    prefix + tuple(
                        tuple(rng.randrange(p) for _ in range(8)) for _ in range(4 - len(prefix))
                    )
                    for _ in range(6)
                ]
                assert any(
                    len(values) == 1 and 0 not in values
                    for depth in dead
                    for terms in system(mode)[depth]
                    for values in [{evaluate(terms, rows, p) for rows in completions}]
                )


def test_root_dead_depth_prunes_the_search(monkeypatch):
    # a depth-2 constraint 3 x + 1, x the first coordinate of v |> g (slot
    # 16), is the constant 1 mod 3 before any row is chosen: row 0 is scanned,
    # and each of its 4 candidates dies at its fold, which leaves depth 2
    # dead.  Mod 5 depth 2 stays alive after the fold of row 0.
    weak_residuals = ffenum._weak_residuals
    op, _reg = build_unknown_op(sweedler_h4(), "generator32")

    def with_dead_constraint():
        yield from weak_residuals()
        yield Constraint(3 * op.table[V][1][0] + 1, "hand-built", ())

    with monkeypatch.context() as m:
        m.setattr(ffenum, "_weak_residuals", with_dead_constraint)
        # fresh caches, so that neither the injected system nor the real one leaks
        for name in ("_generator_terms", "_system_terms"):
            m.setattr(ffenum, name, functools.lru_cache(getattr(ffenum, name).__wrapped__))
        injected = ffenum._system_terms("relaxed")
        assert sorted(decode(injected[2][-1], 0)) == [(1, ()), (3, ((16, 1),))]
        for p, dead in ((3, True), (5, False)):
            row0 = row_candidates(p, 0, injected)
            assert row0
            assert all((_fold(p, injected, 0, cand)[2] is None) == dead for cand in row0)
        report = enumerate_structures(EnumerationTask(prime=3))
        assert report.stats == {"row_scans": 1, "leaves": 0, "passed": 0, "prefix_pruned": 4}


@st.composite
def residue_matrices(draw):
    """(p, rows): up to 12 rows of 9 residues mod p, zeros drawn often, so
    that inconsistent systems (a pivot in column 8) and systems with many
    free slots both occur, as in :func:`row_candidates`."""
    p = draw(st.sampled_from((3, 5, 7)))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=9, max_size=9), min_size=1, max_size=12))
    return p, rows


@settings(max_examples=100, deadline=None)
@given(residue_matrices())
# inconsistent: the pivot of the first row is column 8
@example((3, [[0, 0, 0, 0, 0, 0, 0, 0, 2], [1, 1, 0, 0, 0, 0, 0, 0, 1]]))
# the two counit pins alone: six free slots
@example((5, [[1, 1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 1, 0, 0, 0]]))
@example((7, [[2, 4, 6, 1, 3, 5, 0, 2, 4]] * 3 + [[0] * 9]))
def test_rref_mod_p_matches_rref_over_fp(case):
    # the elimination of row_candidates, on ints mod p, against the generic
    # elimination over a field class of its own

    class Fp:
        def __init__(self, value):
            self.value = value % p

        def __add__(self, other):
            return Fp(self.value + other.value)

        def __sub__(self, other):
            return Fp(self.value - other.value)

        def __mul__(self, other):
            return Fp(self.value * other.value)

        def __truediv__(self, other):
            return Fp(self.value * pow(other.value, -1, p))

        def __eq__(self, other):
            return self.value == (other.value if isinstance(other, Fp) else other % p)

    p, rows = case
    reduced, pivots = rref(rows, p)
    want_rows, want_pivots = rref([[Fp(x) for x in r] for r in rows])
    assert pivots == want_pivots
    assert reduced == [[x.value for x in r] for r in want_rows]
    assert all(type(x) is int and 0 <= x < p for r in reduced for x in r)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.sampled_from(("relaxed", "weak")),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_fold_off_the_search_path(p, mode, last, rng):
    # rows drawn at random, denser than any the search visits, are folded
    # through rows 0..last, stopping, as the search does, at the first fold
    # that leaves a depth dead.  At random completions, each folded
    # constraint takes the value of the unreduced constraint it came from, at
    # the full point mod p: the nonzero value vectors of a depth agree as
    # multisets (a constraint dropped as vanishing has the zero vector).  A
    # dead depth holds a constraint with one and the same nonzero value
    # everywhere.
    prefix = [tuple(rng.randrange(p) for _ in range(8)) for _ in range(last + 1)]
    completions = [
        prefix + [tuple(rng.randrange(p) for _ in range(8)) for _ in range(3 - last)]
        for _ in range(4)
    ]
    folded = _system_terms(mode)
    for row, values in enumerate(prefix):
        folded = _fold(p, folded, row, values)
        if None in folded.values():
            break

    def value_vectors(constraints):
        return [tuple(evaluate(terms, rows, p) for rows in completions) for terms in constraints]

    for depth in range(row + 1, 4):
        want = value_vectors(system(mode)[depth])
        if folded[depth] is None:
            assert any(len(set(v)) == 1 and v[0] for v in want)
        else:
            got = value_vectors(decode(terms, row + 1) for terms in folded[depth])
            assert sorted(v for v in got if any(v)) == sorted(v for v in want if any(v))


def enumerate_p3_report(tmp_path, imports, report):
    """Run ``enumerate --prime 3`` in a fresh interpreter that then prints
    its exit code and the expression ``report``; that line's fields."""
    code = (
        "import sys\n"
        f"from posthopf import cli, {imports}\n"
        "rc = cli.main(['enumerate', '--prime', '3', '--out', sys.argv[1]])\n"
        f"print(rc, {report})\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "p3.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_enumerate_leaves_the_classifier_cache_empty(tmp_path):
    # the oracle generates its system itself, so a fresh enumerate run
    # keeps no Poly system alive in any of the classifier's caches: the last
    # line is the exit code, _cached_system's size, and then name=size for
    # every cached function the classifier defines
    caches = (
        "classifier._cached_system.cache_info().currsize, *sorted("
        "f'{f.__name__}={f.cache_info().currsize}' for f in vars(classifier).values()"
        " if hasattr(f, 'cache_info') and f.__module__ == classifier.__name__)"
    )
    rc, size, *caches = enumerate_p3_report(tmp_path, "classifier", caches)
    assert [rc, size] == ["0", "0"]
    sizes = dict(entry.split("=") for entry in caches)
    assert {"_cached_system", "_weak_system"} <= set(sizes)
    assert set(sizes.values()) == {"0"}


def test_enumerate_keeps_no_decoded_monomials(tmp_path):
    # what a fresh enumerate run keeps of the conversion is the local table:
    # one entry per local monomial, and no table of monomial ids or decoded
    # monomials, since an id is its rows' local ids
    report = "len(ffenum._LOCALS), *(hasattr(ffenum, name) for name in ('_SPLITS', '_IDS'))"
    assert enumerate_p3_report(tmp_path, "ffenum", report) == ["0", "237", "False", "False"]


def fresh_intern_tables(m):
    """Give ``ffenum`` empty intern tables under the monkeypatch ``m``, as
    in a fresh process, so that a test's monomials do not stay interned."""
    m.setattr(ffenum, "_LOCALS", {(): (0, 0)})


# 32 slot-numbered unknowns, as the oracle's, for hand-made residuals
SLOTS = VarRegistry()
for _slot in range(32):
    SLOTS.add(f"s{_slot}")

# a few slots of every row, so that monomials repeat and read several rows
slot_monomials = st.lists(
    st.tuples(st.sampled_from((0, 1, 6, 9, 12, 19, 24, 31)), st.integers(1, 2)),
    max_size=3,
    unique_by=lambda factor: factor[0],
).map(lambda factors: tuple(sorted(factors)))
integer_polys = st.dictionaries(
    slot_monomials, st.integers(-6, 6).filter(bool), min_size=1, max_size=4
).map(lambda terms: Poly(SLOTS, terms))
# nonzero integer scales; a ratio of two of them is any rational multiple
# these draws reach, 1/3 and -3 among them
scales = st.sampled_from((1, -1, 2, 3, -3, 6, -4))


def term_list(poly):
    return tuple(itertools.chain.from_iterable((c, mono) for mono, c in poly.terms()))


@settings(max_examples=200, deadline=None)
@given(integer_polys, integer_polys, scales, scales)
@example(Poly(SLOTS, {((0, 1),): 2, (): -4}), Poly(SLOTS, {((0, 1),): 1}), 3, -1)
@example(Poly(SLOTS, {((9, 2),): -1, ((1, 1), (24, 1)): 3}), Poly(SLOTS, {(): 1}), -3, 3)
def test_class_key_agrees_with_canon_key(p, q, a, b):
    # the oracle's key of an integer term list is equal for two integer
    # polynomials exactly when their canonical keys are: a p and b p, any
    # nonzero rational multiple of each other, share it, and p and q share
    # it only when canon_key says they are equal up to a factor
    for x, y in ((p * a, p * b), (p * a, q * b), (p, q)):
        same = ffenum._class_key(term_list(x)) == ffenum._class_key(term_list(y))
        assert same == (x.canon_key() == y.canon_key())
    assert ffenum._class_key(term_list(p * a)) == ffenum._class_key(term_list(p * b))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(integer_polys, scales), min_size=1, max_size=8))
@example([(Poly(SLOTS, {((6, 1),): 1, (): 1}), 3), (Poly(SLOTS, {((6, 1),): 1, (): 1}), -1)])
def test_generation_keeps_each_first_residual_as_it_is(draws):
    # every poly is drawn once and again at a scale, in a shuffled order; the
    # generation keeps one entry per canon_key class, the first residual of
    # it in input order, with its own coefficients, not normalized
    stream = [p for p, _scale in draws] + [p * scale for p, scale in draws]
    random.Random(len(stream)).shuffle(stream)
    residuals = [Constraint(p, f"r{i}", ()) for i, p in enumerate(stream)]
    firsts: dict = {}
    for constraint in residuals:
        firsts.setdefault(constraint.residual.canon_key(), constraint)
    with pytest.MonkeyPatch.context() as m:
        fresh_intern_tables(m)
        m.setattr(ffenum, "_weak_residuals", lambda: iter(residuals))
        converted = ffenum._generator_terms.__wrapped__()
        got = [(axiom, depth, decode(terms, 0)) for axiom, depth, terms in converted]
    want = [
        (c.axiom, max((s >> 3 for _c, mono in terms for s, _e in mono), default=0), terms)
        for c in firsts.values()
        for terms in [[(coeff, mono) for mono, coeff in c.residual.terms()]]
    ]
    assert got == want


def test_oracle_computes_no_canonical_key(monkeypatch):
    # the oracle dedupes on integer term lists, so neither its generation
    # nor a search computes a canonical key, and no monomial key is kept
    calls = []
    canon_key = Poly.canon_key

    def counted(poly):
        calls.append(poly)
        return canon_key(poly)

    cached = ffenum._generator_terms()
    monkeypatch.setattr(Poly, "canon_key", counted)
    for name in ("_generator_terms", "_system_terms"):
        monkeypatch.setattr(ffenum, name, functools.lru_cache(getattr(ffenum, name).__wrapped__))
    assert ffenum._generator_terms.__wrapped__() == cached
    report = enumerate_structures(EnumerationTask(3))
    assert report.count == 10
    assert calls == []


def test_generation_peak_memory(monkeypatch):
    # the generation releases each residual once it is converted, fills no
    # monomial key memo and keeps flat term lists over digit ids: its
    # tracemalloc peak is 2.3 MB, and what it keeps, the term lists and the
    # local table, 1.2 MB.  With a (coeff, id) pair per term and a table of
    # links per id they read 3.2 and 2.7 MB; holding a whole check's
    # residuals, or filling the memo from Poly.terms(), reads a 4.7 MB peak
    fresh_intern_tables(monkeypatch)
    sweedler_h4()  # cached for the process, not part of the generation
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        converted = ffenum._generator_terms.__wrapped__()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert converted
    assert peak - before < 2.8 * 2**20
    assert current - before < 2 * 2**20


@functools.lru_cache(maxsize=None)
def relaxed_rows(p):
    """The generator rows of every relaxed table over F_p.  They are read off
    the family evaluations, the set the enumeration must find, so that the
    draws below do not depend on the leaf check under test."""
    out = []
    for serial in sorted(family_evaluations(builtin_families(), p)):
        cells = [tuple(map(int, cell.split(","))) for cell in serial.split("|")[1].split(";")]
        out.append(tuple(cells[4 * i + 1] + cells[4 * i + 2] for i in range(4)))
    return out


@st.composite
def leaf_rows(draw):
    """(p, mode, rows): uniformly random rows, or the rows of an enumerated
    relaxed table with up to two entries redrawn, so that both passing and
    failing tables occur, in weak mode also tables failing only unitality.
    The table is picked uniformly, since most of them lift to nonzero
    integer residuals that p divides."""
    p = draw(st.sampled_from((3, 5, 7)))
    mode = draw(st.sampled_from(("relaxed", "weak")))
    rng = draw(st.randoms(use_true_random=False))
    if rng.random() < 0.3:
        rows = [[rng.randrange(p) for _ in range(8)] for _ in range(4)]
    else:
        rows = [list(r) for r in rng.choice(relaxed_rows(p))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows[rng.randrange(4)][rng.randrange(8)] = rng.randrange(p)
    return p, mode, {i: tuple(r) for i, r in enumerate(rows)}


IDENTITY_ON_GENERATORS = (0, 1, 0, 0, 0, 0, 1, 0)


@settings(max_examples=150, deadline=None)
@given(leaf_rows())
# a weak table that passes, and a relaxed one that fails (g |> g = -g)
@example((3, "weak", {0: IDENTITY_ON_GENERATORS, 1: IDENTITY_ON_GENERATORS, 2: (0,) * 8, 3: (0,) * 8}))
@example((5, "relaxed", {0: IDENTITY_ON_GENERATORS, 1: (0, 4, 0, 0, 0, 0, 1, 0), 2: (0,) * 8, 3: (0,) * 8}))
def test_integer_lift_agrees_with_fp_suite(case):
    # the leaf keeps a table exactly when every constraint of the mode's
    # system vanishes mod p at its rows, and the lifted completion reduced
    # mod p is the classifier's unknown table evaluated at the rows
    p, mode, rows = case
    h4 = sweedler_h4()
    unknown_op, _reg = build_unknown_op(h4, "generator32")
    assignment = {
        unknown_op.table[i][1 + half][k].support[0]: rows[i][4 * half + k]
        for i in range(4)
        for half in (0, 1)
        for k in range(4)
    }
    want = tuple(
        tuple(tuple(rational_mod_p(e.evaluate(assignment), p) for e in cell) for cell in row)
        for row in unknown_op.table
    )
    lifted = extend_generators(
        h4, {G: [rows[i][:4] for i in range(4)], V: [rows[i][4:] for i in range(4)]}
    )
    assert all(type(x) is int for row in lifted.table for cell in row for x in cell)
    assert tuple(tuple(tuple(x % p for x in cell) for cell in row) for row in lifted.table) == want
    satisfied = all(
        evaluate(terms, rows, p) == 0 for terms in itertools.chain(*system(mode).values())
    )
    leaf = _leaf(h4, p, mode, rows)
    assert (leaf is not None) == satisfied
    if leaf is not None:
        assert leaf.table == want and leaf.prime == p


def test_enumeration_matches_family_evaluations_p3(enum_p3):
    fams = builtin_families()
    diff = compare_with_families(enum_p3, fams)
    assert diff.empty
    # derived count: evaluate the six families over F_3 and deduplicate
    assert diff.expected_count == len(family_evaluations(fams, 3))
    assert enum_p3.count == diff.expected_count == 10
    # a rational table is its own one specialization, that of its family
    (key, value), = family_evaluations({"i": family_table("i", Fraction(1, 2))}, 3).items()
    assert value == ("i", None)
    assert family_evaluations({"i": fams["i"]}, 3)[key] == ("i", 2)


def test_enumeration_matches_family_evaluations_p5(enum_p5):
    fams = builtin_families()
    diff = compare_with_families(enum_p5, fams)
    assert diff.empty
    assert enum_p5.count == diff.expected_count == len(family_evaluations(fams, 5)) == 14


def test_family_evaluations_refuse_two_parameters():
    reg = VarRegistry()
    a, b = reg.var("a"), reg.var("b")
    zero = Poly.constant(reg, 0)
    op = TriangleOp(4, (((a, b, zero, zero),) * 4,) * 4)
    with pytest.raises(ValueError, match="more than one parameter"):
        family_evaluations({"ab": op}, 3)


@pytest.mark.parametrize("p", [17, 31])
def test_enumeration_matches_family_evaluations_past_13(p):
    h4 = sweedler_h4()
    fams = builtin_families()
    weak_fams = {label: op for label, op in fams.items() if check_unitality(h4, op).passed}
    for mode, families, count in (("relaxed", fams, 2 * p + 4), ("weak", weak_fams, 2 * p + 1)):
        report = enumerate_structures(EnumerationTask(prime=p, mode=mode))
        diff = compare_with_families(report, families)
        assert diff.empty
        assert report.count == diff.expected_count == count


def test_weak_enumeration_is_unital_subset(enum_p5, enum_p5_weak):
    h4 = sweedler_h4()
    unital = {
        op_serial(op)
        for op in enum_p5.structures
        if check_unitality(h4, op).passed
    }
    assert {op_serial(op) for op in enum_p5_weak.structures} == unital
    weak_fams = {
        label: op
        for label, op in builtin_families().items()
        if check_unitality(h4, op).passed
    }
    diff = compare_with_families(enum_p5_weak, weak_fams)
    assert diff.empty


def test_counit_absorption_holds_for_all_enumerated(enum_p3, enum_p5):
    h4 = sweedler_h4()
    for report in (enum_p3, enum_p5):
        for op in report.structures:
            assert check_counit_absorption(h4, op).passed


def test_structures_sorted_and_distinct(enum_p5):
    serials = [op_serial(op) for op in enum_p5.structures]
    assert serials == sorted(serials)
    assert len(set(serials)) == len(serials)


def test_compare_diff_directions(enum_p3):
    fams = builtin_families()
    # dropping one enumerated structure surfaces exactly one missing entry
    trimmed = dataclasses.replace(
        enum_p3, structures=enum_p3.structures[1:], count=enum_p3.count - 1
    )
    diff = compare_with_families(trimmed, fams)
    assert len(diff.missing) == 1 and not diff.extra

    empty = dataclasses.replace(enum_p3, structures=(), count=0)
    diff_all = compare_with_families(empty, fams)
    assert len(diff_all.missing) == diff_all.expected_count == 10


def test_constraint_coefficients_are_integers():
    # and every constraint with a nonzero constant term has gcd 1 over its
    # other coefficients, so no prime turns one into a nonzero constant before
    # a row is folded in (each such constant is -1: 4 relaxed, 8 weak)
    for mode, count in (("relaxed", 4), ("weak", 8)):
        grouped = _system_terms(mode)
        assert set(grouped) == {0, 1, 2, 3}
        assert all(
            isinstance(c, int) for terms in grouped.values() for t in terms for c in t[::2]
        )
        constants = []
        for terms in itertools.chain(*grouped.values()):
            pairs = list(zip(terms[::2], terms[1::2]))
            constant = sum(c for c, mid in pairs if not mid)
            if constant:
                assert math.gcd(*(c for c, mid in pairs if mid)) == 1
                constants.append(constant)
        assert constants == [-1] * count


def own_conversion(mode):
    """One mode's own generation converted on its own: each constraint as
    ``[(coeff, ((slot, exp), ...)), ...]`` grouped by depth, the slot of
    ``c_i_j_k`` read off its name as ``8*i + 4*(j - 1) + k``."""
    h4 = sweedler_h4()
    op, reg = classifier.build_unknown_op(h4, "generator32")
    grouped = {0: [], 1: [], 2: [], 3: []}
    for constraint in classifier.generate_constraints(h4, op, mode).equations:
        terms = []
        for mono, coeff in constraint.residual.terms():
            slots = []
            for v, e in mono:
                i, j, k = map(int, reg.name_of(v).split("_")[1:])
                slots.append((8 * i + 4 * (j - 1) + k, e))
            terms.append((int(coeff), tuple(sorted(slots))))
        grouped[max((s >> 3 for _c, mono in terms for s, _e in mono), default=0)].append(terms)
    return grouped


def test_both_modes_share_one_conversion():
    # each mode's system is what converting its own generation gives, and the
    # relaxed one holds the weak one's term lists, less unitality's 11 at depth 0
    for mode in ("relaxed", "weak"):
        assert system(mode) == own_conversion(mode)
    relaxed, weak = _system_terms("relaxed"), _system_terms("weak")
    for depth in range(4):
        shared = {id(terms) for terms in weak[depth]}
        assert all(id(terms) in shared for terms in relaxed[depth])
    assert [len(weak[d]) - len(relaxed[d]) for d in range(4)] == [11, 0, 0, 0]
    with pytest.raises(ValueError):
        _system_terms("bogus")


def test_fp_structures_check_exactly(enum_p3):
    # enumerated tables carry their prime and hold residues, and the checks
    # report residues: the relaxed-only tables fail unitality mod 3
    h4 = sweedler_h4()
    assert all(op.prime == 3 for op in enum_p3.structures)
    assert all(
        type(x) is int and 0 <= x < 3
        for op in enum_p3.structures
        for row in op.table
        for cell in row
        for x in cell
    )
    residuals = [e.residual for op in enum_p3.structures for e in check_unitality(h4, op).entries]
    assert residuals and all(type(r) is int and 0 < r < 3 for r in residuals)
