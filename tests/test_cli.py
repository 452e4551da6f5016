import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posthopf import classifier
from posthopf.cli import main
from posthopf.hopfcore import hopf_to_json, sweedler_h4
from posthopf.triangleop import family_table, op_to_json_dict

# Byte-exact outputs of the commands below, recorded once from the CLI with
# the same arguments (stdout in ``*.txt``, the --json/--out payload in
# ``*.json``).  A refactor must reproduce them; they are never regenerated to
# make a change pass.  The one exception is the ``stats`` object of an
# enumerate or classify payload, which counts the search's work: a change to
# the search re-records those counts, and nothing else, and says so.
GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text("utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_builtin_h4(capsys):
    code, out, _ = run(capsys, "verify", "--hopf", "builtin:h4")
    assert code == 0
    assert "hopf_axioms: PASS" in out


def test_verify_family_file_roundtrip(tmp_path, capsys):
    hopf_path = tmp_path / "h4.json"
    hopf_path.write_text(hopf_to_json(sweedler_h4()), "utf-8")
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(op_to_json_dict(family_table("vi"))), "utf-8")
    code, out, _ = run(capsys, "verify", "--hopf", str(hopf_path), "--op", str(op_path))
    assert code == 0
    assert "weighted_assoc: PASS" in out


def test_verify_family_iv_weak_fails_at_v(capsys):
    code, out, _ = run(
        capsys, "verify", "--hopf", "builtin:h4", "--op", "family:iv", "--mode", "weak"
    )
    assert code == 1
    assert "unitality: FAIL" in out
    assert "(2," in out  # witness basis index of v


def test_verify_family_with_parameter(capsys):
    code, out, _ = run(
        capsys, "verify", "--hopf", "builtin:h4", "--op", "family:i:a=3/2"
    )
    assert code == 0


def edited_family(which, param, prime, cell, entry) -> dict:
    """The ``--op`` payload of a family table with the entry at ``cell``
    replaced; with a prime, the table's integer entries are read mod p."""
    payload = op_to_json_dict(family_table(which, param))
    if prime is not None:
        payload["ring"] = {"prime": prime}
        payload["table"] = [
            [[str(int(e) % prime) for e in c] for c in row] for row in payload["table"]
        ]
    i, j, k = cell
    payload["table"][i][j][k] = entry
    return payload


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
@pytest.mark.parametrize(
    "ref, stem", [
        ("family:i", "i"),
        ("family:ii:a=3/2", "ii-a3_2"),
        ("family:iv", "iv"),
        ("family:vi", "vi"),
        # one changed entry per coefficient ring: nonzero residuals of
        # coalgebra_hom, distributivity and weighted_assoc, and, for the two
        # edits of 1 |> v, of unitality
        *(
            pytest.param(edited_family(*edit), stem, id=stem)
            for edit, stem in [
                (("ii", Fraction(3, 2), None, (2, 1, 3), "1"), "ii-a3_2-edited"),
                (("i", 2, 5, (0, 2, 3), "3"), "i-a2-p5-edited"),
                (("ii", None, None, (0, 2, 3), "a"), "ii-poly-edited"),
            ]
        ),
    ],
)
def test_verify_cli_golden(tmp_path, capsys, ref, stem, mode):
    if isinstance(ref, dict):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(ref), "utf-8")
        ref = str(path)
    json_path = tmp_path / "verify.json"
    code, out, _ = run(
        capsys, "verify", "--hopf", "builtin:h4", "--op", ref, "--mode", mode,
        "--json", str(json_path),
    )
    # families iv and vi are relaxed but not unital
    fails = stem.endswith("-edited") or (mode == "weak" and stem in ("iv", "vi"))
    assert code == (1 if fails else 0)
    assert out == golden(f"verify-{stem}-{mode}.txt")
    assert json_path.read_text("utf-8") == golden(f"verify-{stem}-{mode}.json")


@pytest.mark.parametrize("text", ["{not json", "[" * 200000 + "]" * 200000], ids=["syntax", "deep"])
@pytest.mark.parametrize("flag", ["--hopf", "--op"])
def test_verify_malformed_json(tmp_path, capsys, flag, text):
    # a syntax error, or nesting too deep for the parser, is bad input
    bad = tmp_path / "bad.json"
    bad.write_text(text, "utf-8")
    argv = ["--hopf", str(bad)] if flag == "--hopf" else ["--hopf", "builtin:h4", "--op", str(bad)]
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "op", [
        "family:i:a=1/0",
        {"dim": 4, "ring": "rational", "table": 5},
        {"dim": 4, "ring": "rational", "table": [[[1, 0, 0, 0]] * 4] * 4},
        {"dim": 4, "ring": "poly", "table": [[[1, 0, 0, 0]] * 4] * 4},
        {"dim": 2, "ring": "rational", "table": [[["1", "0"]] * 2] * 2},
        {"dim": 4, "ring": {}, "table": [[["1", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": {"prime": "5"}, "table": [[["1", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": {"prime": 5}, "table": [[[["1"], "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": {"prime": 5}, "table": [[[1.7, 0, 0, 0]] * 4] * 4},
        {"dim": 4, "ring": {"prime": 5}, "table": [[[1, 0, 0, 0]] * 4] * 4},
        {"dim": 4, "ring": {"prime": 5}, "table": [[["1.7", "0", "0", "0"]] * 4] * 4},
        {"dim": 4.7, "ring": "rational", "table": [[["1", "0", "0", "0"]] * 4] * 4},
        {"dim": "4", "ring": "rational", "table": [[["1", "0", "0", "0"]] * 4] * 4},
        {"dim": True, "ring": "rational", "table": [[["1", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": "rational", "table": [[["1\n", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": {"prime": 2**89 - 1}, "table": [[["0"] * 4] * 4] * 4},
        {"dim": 4, "ring": {"prime": 0}, "table": [[["1", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": "poly", "table": [[["a^40000", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": "poly", "table": [[["1 + 0*a^40000", "0", "0", "0"]] * 4] * 4},
        # digits of other scripts, which int() and Fraction() would read
        "family:i:a=\u0663",
        {"dim": 4, "ring": "rational", "table": [[["\u0663", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": {"prime": 5}, "table": [[["\uff13", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": "poly", "table": [[["a^\u0662", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": "poly", "table": [[["\u0663*a", "0", "0", "0"]] * 4] * 4},
        {"dim": 4, "ring": "rational", "table": [["1000"] * 4] * 4},
        {"dim": 4, "ring": "rational", "table": ["1000"] * 4},
        {"dim": 4, "ring": "rational", "table": [{}] * 4},
    ],
    ids=[
        "zero-denominator", "table-not-a-list", "int-entries", "int-poly-entries",
        "dim-mismatch", "fp-no-prime", "fp-string-prime", "fp-list-entry",
        "fp-float-entries", "fp-int-entries", "fp-decimal-string",
        "float-dim", "string-dim", "bool-dim", "trailing-newline",
        "fp-prime-too-large", "fp-zero-prime", "poly-degree-too-large",
        "poly-zero-term-degree-too-large",
        "non-ascii-family-parameter", "non-ascii-rational-entry", "fp-fullwidth-entry",
        "poly-non-ascii-exponent", "poly-non-ascii-coefficient",
        "string-cells", "string-rows", "dict-rows",
    ],
)
def test_verify_malformed_op_is_an_input_error(tmp_path, capsys, op):
    if isinstance(op, dict):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(op), "utf-8")
        op = str(path)
    code, _, err = run(capsys, "verify", "--hopf", "builtin:h4", "--op", op)
    assert code == 2
    assert err.startswith("error:")


def test_verify_large_prime_is_answered(tmp_path, capsys):
    # a 16-digit prime modulus: the all-zero table is read and fails an axiom
    op = {"dim": 4, "ring": {"prime": 1000000000000037}, "table": [[["0"] * 4] * 4] * 4}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op), "utf-8")
    code, _, err = run(capsys, "verify", "--hopf", "builtin:h4", "--op", str(path))
    assert code == 1
    assert "Traceback" not in err


H4_JSON = json.loads(hopf_to_json(sweedler_h4()))


@pytest.mark.parametrize(
    "changes", [
        {"dim": 4.5},
        # a string iterates like a list: unchecked, these read as Sweedler's algebra
        {"unit": "1000", "counit": "1100"},
        {"dim": 0, **{key: [] for key in ("basis", "mul", "unit", "comul", "counit", "antipode")}},
        {"mul": [H4_JSON["mul"][0][:3], *H4_JSON["mul"][1:]]},
        {"unit": H4_JSON["unit"][:3]},
        {"comul": [[H4_JSON["comul"][0][0][:3], *H4_JSON["comul"][0][1:]], *H4_JSON["comul"][1:]]},
        {"antipode": [H4_JSON["antipode"][0][:3], *H4_JSON["antipode"][1:]]},
    ],
    ids=[
        "float-dim", "string-vectors", "zero-dim",
        "mul-plane-3-rows", "unit-3-entries", "comul-cell-3-entries", "antipode-row-3-entries",
    ],
)
def test_verify_malformed_hopf_dim_is_an_input_error(tmp_path, capsys, changes):
    data = {**H4_JSON, **changes}
    path = tmp_path / "h4.json"
    path.write_text(json.dumps(data), "utf-8")
    code, out, err = run(capsys, "verify", "--hopf", str(path), "--op", "family:vi")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# the group algebra k[Z2] on the basis 1, g
Z2_JSON = {
    "dim": 2,
    "basis": ["1", "g"],
    "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
    "unit": ["1", "0"],
    "comul": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
    "counit": ["1", "1"],
    "antipode": [["1", "0"], ["0", "1"]],
}


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
def test_verify_op_of_another_dimension(tmp_path, capsys, mode):
    # a valid 2-dim structure and a 4-dim table: bad input, named by both dims
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(Z2_JSON), "utf-8")
    code, out, err = run(capsys, "verify", "--hopf", str(path), "--op", "family:vi", "--mode", mode)
    assert code == 2
    assert out == ""
    assert err == "error: operation dimension 4 does not match the Hopf structure's 2\n"


def test_verify_non_string_basis_names_are_an_input_error(tmp_path, capsys):
    data = {**json.loads(hopf_to_json(sweedler_h4())), "basis": [["1"], {"g": 1}, 2, None]}
    path = tmp_path / "h4.json"
    path.write_text(json.dumps(data), "utf-8")
    code, out, err = run(capsys, "verify", "--hopf", str(path), "--op", "family:vi")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "basis" in err


@pytest.mark.parametrize("field, index", [("mul", (1, 1, 0)), ("counit", (0,))], ids=["mul", "counit"])
def test_verify_fp_table_against_a_constant_with_no_value_mod_p(tmp_path, capsys, field, index):
    # a Hopf constant 1/5 has no image in F_5: bad input, not an axiom failure
    data = json.loads(hopf_to_json(sweedler_h4()))
    *outer, last = index
    target = data[field]
    for i in outer:
        target = target[i]
    target[last] = "1/5"
    hopf = tmp_path / "h4.json"
    hopf.write_text(json.dumps(data), "utf-8")
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"dim": 4, "ring": {"prime": 5}, "table": [[["0"] * 4] * 4] * 4}), "utf-8")
    code, out, err = run(capsys, "verify", "--hopf", str(hopf), "--op", str(op))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


# -- fuzzing the verify input boundary ---------------------------------------------

# entries each ring accepts, and entries it must reject
GOOD_ENTRIES = {
    "rational": ["0", "1", "-1", "1/2", "-3/2", "2"],
    "poly": ["0", "1", "a", "-a", "a - 1", "2*a^2 - a", "a*b", "1/2*b"],
    "fp": ["0", "1", "2", "-1", "12"],
}
BAD_ENTRIES = {
    "rational": [1, 0.5, None, True, [], {}, "1/0", "1.5", "a", "", "1/-2"],
    "poly": [1, 0.5, None, True, [], "1/0", "a^", "a*", "1.5", "", "a b", "a^0", "-"],
    "fp": [1, 0.5, None, True, [], "1/2", "1.5", "a", ""],
}
BAD_DIMS = [3, 5, 0, -1, 4.0, 4.5, "4", True, None, [4]]
BAD_RINGS = [
    "real", "", 5, None, [], ["rational"], {}, {"prime": 4}, {"prime": 2}, {"prime": 1},
    {"prime": 0}, {"prime": -3}, {"prime": "5"}, {"prime": 5.0}, {"prime": True},
]
BAD_TABLES = [{}, "x", 5, None, [], [[]], [[[]]]]


def four(inner):
    return st.lists(inner, min_size=4, max_size=4)


@st.composite
def op_payloads(draw):
    """An ``--op`` payload and whether the schema accepts it: a valid 4x4x4
    table in one ring, with at most one fault in its type, shape, ring tag
    or dim."""
    kind = draw(st.sampled_from(sorted(GOOD_ENTRIES)))
    ring = {"prime": draw(st.sampled_from([3, 5, 7, 13]))} if kind == "fp" else kind
    table = draw(four(four(four(st.sampled_from(GOOD_ENTRIES[kind])))))
    payload = {"dim": 4, "ring": ring, "table": table}
    i, j, k = (draw(st.integers(0, 3)) for _ in range(3))
    # entry faults are listed three times: each ring has its own bad entries
    fault = draw(st.sampled_from([
        None, "dim", "ring", "entry", "entry", "entry",
        "cell", "row", "rows", "table", "key", "payload",
    ]))
    if fault == "dim":
        payload["dim"] = draw(st.sampled_from(BAD_DIMS))
    elif fault == "ring":
        payload["ring"] = draw(st.sampled_from(BAD_RINGS))
    elif fault == "entry":
        table[i][j][k] = draw(st.sampled_from(BAD_ENTRIES[kind]))
    elif fault == "cell":
        table[i][j] = draw(st.sampled_from([table[i][j][:3], table[i][j] + ["0"], "0", 0]))
    elif fault == "row":
        table[i] = draw(st.sampled_from([table[i][:3], table[i] + [table[i][0]], "0"]))
    elif fault == "rows":
        payload["table"] = draw(st.sampled_from([table[:3], table + [table[0]]]))
    elif fault == "table":
        payload["table"] = draw(st.sampled_from(BAD_TABLES))
    elif fault == "key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif fault == "payload":
        payload = draw(st.sampled_from([[payload], "op", 4, None]))
    return payload, fault is None


@settings(max_examples=150, deadline=None)
@given(op_payloads(), st.sampled_from(["relaxed", "weak"]))
def test_verify_fuzzed_op_payloads(case, mode):
    payload, valid = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.json"
        path.write_text(json.dumps(payload), "utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--hopf", "builtin:h4", "--op", str(path), "--mode", mode])
    assert "Traceback" not in err.getvalue()
    if valid:
        assert code in (0, 1), err.getvalue()
    else:
        assert code == 2
        assert err.getvalue().startswith("error:")


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "verify", "--hopf", "builtin:h4", "--frobnicate")
    assert code == 2


def test_unknown_family(capsys):
    code, out, err = run(capsys, "verify", "--hopf", "builtin:h4", "--op", "family:vii")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown family 'vii'")


def test_parameter_of_a_parameterless_family(capsys):
    code, out, err = run(capsys, "verify", "--hopf", "builtin:h4", "--op", "family:iii:a=1")
    assert code == 2
    assert out == ""
    assert err == "error: family 'iii' takes no parameter\n"


@pytest.mark.parametrize("ref", ["family:i:b=3", "family:ii:a=1/2:x"])
def test_malformed_family_reference(capsys, ref):
    code, out, err = run(capsys, "verify", "--hopf", "builtin:h4", "--op", ref)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad family reference")


def test_families_render_deterministic(capsys):
    code1, out1, _ = run(capsys, "families")
    code2, out2, _ = run(capsys, "families")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "family (ii)" in out1
    assert "a - ag" in out1


def test_families_check(tmp_path, capsys):
    json_path = tmp_path / "families.json"
    code, out, _ = run(capsys, "families", "--check", "--json", str(json_path))
    assert code == 0
    assert out == golden("families-check.txt")
    assert json_path.read_text("utf-8") == golden("families-check.json")
    assert out.count("relaxed axioms: PASS") == 6
    assert out.count("unital (weak): yes") == 3
    assert out.count("unital (weak): no") == 3


def test_families_unicode(capsys):
    code, out, _ = run(capsys, "families", "--unicode")
    assert code == 0
    assert "ν" in out


def test_grouplikes(capsys):
    code, out, _ = run(capsys, "grouplikes")
    assert code == 0
    assert out.strip() == "group-like elements: {1, g}"


def test_primitives(capsys):
    code, out, _ = run(capsys, "primitives", "g", "1")
    assert code == 0
    assert "dimension 2" in out and "v" in out

    code, out, _ = run(capsys, "primitives", "1", "1")
    assert code == 0
    assert "dimension 0" in out

    code, _, err = run(capsys, "primitives", "v", "1")
    assert code == 2

    code, _, err = run(capsys, "primitives", "7", "1")
    assert code == 2

    code, out, _ = run(capsys, "primitives", "0", "0")
    assert code == 0
    assert "skew-primitive space for (1, 1)" in out


# int() reads each of these as 1, the index of g; a basis index is ASCII digits only
@pytest.mark.parametrize("token", ["+1", " 1", "1 ", "0_1", "\u0661", "\uff11"])
def test_primitives_basis_index_is_ascii_digits(capsys, token):
    code, out, err = run(capsys, "primitives", token, "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_enumerate_cli(tmp_path, capsys):
    out_path = tmp_path / "enum.json"
    code, out, _ = run(
        capsys, "enumerate", "--prime", "3", "--out", str(out_path)
    )
    assert code == 0
    assert "10 structures" in out
    # human output is byte-stable: no timings
    assert run(capsys, "enumerate", "--prime", "3", "--out", str(out_path))[1] == out
    payload = json.loads(out_path.read_text("utf-8"))
    assert payload["count"] == 10
    assert len(payload["structures"]) == 10
    assert payload["structures"][0]["ring"] == {"prime": 3}
    assert "stats" in payload


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
@pytest.mark.parametrize("prime", [3, 5, 13])
def test_enumerate_cli_golden(tmp_path, capsys, mode, prime):
    out_path = tmp_path / "enum.json"
    code, _, _ = run(
        capsys, "enumerate", "--prime", str(prime), "--mode", mode, "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text("utf-8") == golden(f"enumerate-{mode}-p{prime}.json")


def test_enumerate_bad_prime(capsys):
    code, _, err = run(capsys, "enumerate", "--prime", "4")
    assert code == 2


# int() reads each of these as 3 or 10000; an integer flag is ASCII digits only
@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--prime", token) for token in ("\uff13", " 3", "+3", "\u0663")]
    + [("classify", "--max-branches", token) for token in ("+10000", "\uff110000")],
    ids=[
        "prime-fullwidth", "prime-space", "prime-plus", "prime-arabic-indic",
        "max-branches-plus", "max-branches-fullwidth",
    ],
)
def test_integer_flags_are_ascii_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "invalid" in err


def test_classify_cli_relaxed(tmp_path, capsys):
    json_path = tmp_path / "classify.json"
    code, out, _ = run(capsys, "classify", "--json", str(json_path))
    assert code == 0
    assert "classification matches built-in tables" in out
    assert "0 unresolved" in out
    payload = json.loads(json_path.read_text("utf-8"))
    assert payload["mode"] == "relaxed"
    assert len(payload["families"]) == 6
    assert payload["unresolved"] == []
    assert payload["stats"]["relaxed_only_families"] == 3
    assert payload["stats"]["anticipated_relaxed_only"] == 2
    assert payload["stats"]["relaxed_only_count_flagged"] is True
    assert "[flagged: computed 3, anticipated 2]" in out
    assert json_path.read_text("utf-8") == golden("classify-relaxed-generator32.json")


def test_classify_cli_weak(tmp_path, capsys):
    json_path = tmp_path / "classify.json"
    code, out, _ = run(capsys, "classify", "--mode", "weak", "--json", str(json_path))
    assert code == 0
    assert "classification matches built-in tables" in out
    assert json_path.read_text("utf-8") == golden("classify-weak-generator32.json")


@pytest.mark.parametrize("mode", ["relaxed", "weak"])
def test_classify_cli_full64(tmp_path, capsys, mode):
    json_path = tmp_path / "classify.json"
    code, out, _ = run(
        capsys, "classify", "--mode", mode, "--param", "full64", "--json", str(json_path)
    )
    assert code == 0
    assert "classification matches built-in tables" in out
    assert json_path.read_text("utf-8") == golden(f"classify-{mode}-full64.json")


def test_classify_limits_exceeded(capsys):
    code, _, _ = run(capsys, "classify", "--max-branches", "3")
    assert code == 2


def test_classify_limited_run_golden(tmp_path, capsys):
    # the unresolved branch's remaining equations name one representative
    # per canon_key; the golden pins which one
    json_path = tmp_path / "classify.json"
    code, out, _ = run(capsys, "classify", "--max-branches", "3", "--json", str(json_path))
    assert code == 2
    assert "search limits exceeded; results incomplete" in out
    assert json_path.read_text("utf-8") == golden("classify-relaxed-generator32-max3.json")


@pytest.mark.parametrize("mode, dropped, left", [("relaxed", "vi", 5), ("weak", "i", 0)])
def test_classify_mismatch_is_an_axiom_verdict(tmp_path, capsys, monkeypatch, mode, dropped, left):
    # with one built-in table missing, the family it matched is left over
    builtins = classifier.builtin_families
    monkeypatch.setattr(
        classifier,
        "builtin_families",
        lambda: {label: op for label, op in builtins().items() if label != dropped},
    )
    json_path = tmp_path / "classify.json"
    code, out, _ = run(capsys, "classify", "--mode", mode, "--json", str(json_path))
    assert code == 1
    assert json.loads(json_path.read_text("utf-8"))["match"]["unmatched_families"] == [left]
    assert f"maximal family {left} (no built-in match)" in out
    assert out.splitlines()[-1] == "classification MISMATCH"


@pytest.mark.parametrize("argv", [("--mode", "weak"), ("--max-branches", "3")])
def test_classify_profile_goes_to_stderr_only(tmp_path, capsys, argv):
    plain, profiled = tmp_path / "plain.json", tmp_path / "profiled.json"
    code, out, err = run(capsys, "classify", *argv, "--json", str(plain))
    assert err == ""
    code2, out2, err2 = run(capsys, "classify", *argv, "--json", str(profiled), "--profile")
    assert (code2, out2) == (code, out)
    assert profiled.read_bytes() == plain.read_bytes()
    stages = [line.split()[1] for line in err2.splitlines()]
    assert stages == ["generation", "solve", "branch_table", "subsume", "match"]
    assert all(line.startswith("profile: ") and line.endswith(" s") for line in err2.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ("families", "--json"),
        ("verify", "--hopf", "builtin:h4", "--json"),
        ("classify", "--max-branches", "0", "--json"),
        ("enumerate", "--prime", "3", "--out"),
    ],
    ids=["families", "verify", "classify", "enumerate"],
)
def test_unwritable_json_path_is_an_input_error(tmp_path, capsys, argv):
    json_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, *argv, str(json_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(json_path) in err
    assert not json_path.exists()


def test_json_outputs_roundtrip_through_library(tmp_path, capsys):
    from posthopf.triangleop import op_from_json_dict

    out_path = tmp_path / "enum.json"
    run(capsys, "enumerate", "--prime", "3", "--out", str(out_path))
    payload = json.loads(out_path.read_text("utf-8"))
    ops = [op_from_json_dict(entry) for entry in payload["structures"]]
    assert len(ops) == 10


def test_verify_prime_field_op_file(tmp_path, capsys):
    # an enumerated F_p table verifies against the rational Hopf structure
    out_path = tmp_path / "enum.json"
    run(capsys, "enumerate", "--prime", "3", "--out", str(out_path))
    payload = json.loads(out_path.read_text("utf-8"))
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(payload["structures"][0]), "utf-8")
    code, out, _ = run(capsys, "verify", "--hopf", "builtin:h4", "--op", str(op_path))
    assert code == 0
    assert "coalgebra_hom: PASS" in out
