"""Tests of the benchmark's own parts.  Run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from posthopf import cli, triangleop  # noqa: E402
from posthopf.hopfcore import sweedler_h4  # noqa: E402

FAMILIES = inputs.load_families(ROOT)


def test_generator_is_deterministic(tmp_path):
    a = inputs.verify_stream(FAMILIES, 7, tmp_path / "a")
    b = inputs.verify_stream(FAMILIES, 7, tmp_path / "b")
    assert [(c["kind"], c["mode"], c["expect"], c["op"]) for c in a] == [
        (c["kind"], c["mode"], c["expect"], c["op"]) for c in b
    ]
    for x, y in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
        assert x.read_bytes() == y.read_bytes()
    assert inputs.verify_pool(FAMILIES, 8) != inputs.verify_pool(FAMILIES, 7)


def test_input_mix_is_fixed_by_strata():
    pool = inputs.verify_pool(FAMILIES, 11)
    assert len(pool) == len(inputs.RINGS) * len(inputs.LABELS) * len(inputs.MODES) * 2
    assert sorted(c["kind"] for c in pool) == sorted(c["kind"] for c in inputs.verify_pool(FAMILIES, 12))
    assert {c["expect"] for c in pool} == {0, 1}


def test_verdicts_hold_on_a_sample(tmp_path):
    stream = inputs.verify_stream(FAMILIES, 3, tmp_path)
    sample = {}
    for case in stream:
        ring, _label, mode, _ok = case["kind"].split("-")
        sample.setdefault((ring, mode, case["expect"]), case)
    assert len(sample) == len(inputs.RINGS) * len(inputs.MODES) * 2
    for case in sample.values():
        argv = ["verify", "--hopf", "builtin:h4", "--op", case["path"], "--mode", case["mode"]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == case["expect"], case["kind"]


def test_known_enumeration_counts():
    for p in inputs.PRIMES:
        assert len(inputs.expected_enumeration(FAMILIES, "relaxed", p)) == 2 * p + 4
        assert len(inputs.expected_enumeration(FAMILIES, "weak", p)) == 2 * p + 1


def test_percentile_keeps_ten_samples_beyond():
    assert run.percentile(range(1, 101), 95) == (95, 5)
    calls = len(inputs.verify_pool(FAMILIES, 0)) * inputs.VERIFY_SWEEPS
    assert calls == inputs.VERIFY_CALLS
    value, beyond = run.percentile(range(calls), run.PERCENTILE)
    assert beyond >= 10
    assert value == sorted(range(calls))[-beyond - 1]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    # verify runs by hand but is not a listed workload (see README)
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS if w != "verify"]


def test_tracer_charges_self_time_and_restores():
    original = triangleop.check_unitality
    tracer = tracing.Tracer().install()
    try:
        assert triangleop.check_unitality is not original
        report = triangleop.check_unitality(sweedler_h4(), triangleop.family_table("iv"))
    finally:
        tracer.uninstall()
    assert triangleop.check_unitality is original
    assert tracer.calls_of("triangleop.check_unitality") == 1
    assert tracer.counters["triangleop.residual_entries"] == len(report.entries) > 0
    assert tracer.layer_self_s("triangleop") > 0
    (span,) = tracer.spans
    assert span[3] == -1
    metrics = tracing.layer_metrics(tracer, {}, 0.0)
    assert [name for name in metrics] == [name for name, _u, _b in tracing.PER_LAYER]
