"""One pass of a benchmark workload, in the fresh interpreter that run.py
starts for it.

A pass is the workload's fixed job list: the four ``classify`` jobs, the ten
``enumerate`` jobs with their ``compare_with_families`` checks, or one
seeded stream of ``verify`` calls.  Each job calls ``posthopf.cli.main`` in
this process; only its timed part counts towards the job's time, and its
known-answer check runs after the clock stops.  The pass prints one JSON
object on its last line of standard output.

    python3 perfbench/worker.py --workload classify --seed 1 --spawn-ns N \
        --work-dir .perfbench-out/work [--setup-only] [--trace-out spans.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
# modules, not names: the traced run replaces their functions after import
from posthopf import cli, ffenum, triangleop  # noqa: E402


@dataclass
class Job:
    """``run`` is timed and returns what ``check`` needs; ``check`` returns
    (ok, fingerprint entry) and is not timed."""

    label: str
    run: Callable
    check: Callable


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def classify_jobs(work: Path) -> list[Job]:
    jobs = []
    for mode, param in inputs.CLASSIFY_JOBS:
        out = work / f"classify-{mode}-{param}.json"
        argv = ["classify", "--mode", mode, "--param", param, "--json", str(out)]
        want = set(inputs.LABELS if mode == "relaxed" else inputs.UNITAL)

        def check(rc, out=out, want=want):
            payload = json.loads(out.read_text("utf-8"))
            match = payload["match"]
            ok = (
                rc == 0
                and len(payload["families"]) == len(want)
                and {label for _idx, label in match["pairs"]} == want
                and not match["unmatched_families"]
                and not match["unmatched_known"]
                and not payload["unresolved"]
            )
            return ok, {"stats": payload["stats"], "json_sha256": _sha256(out)}

        jobs.append(Job(f"classify.{mode}.{param}", lambda argv=argv: cli.main(argv), check))
    return jobs


def enumerate_jobs(work: Path, families: dict) -> list[Job]:
    """The oracle for every prime up to MAX_PRIME in both modes; each result
    is compared with the family evaluations inside the timed part."""
    symbolic = {label: triangleop.family_table(label) for label in inputs.LABELS}
    jobs = []
    for mode, p in inputs.ENUMERATE_JOBS:
        out = work / f"enumerate-{mode}-p{p}.json"
        argv = ["enumerate", "--prime", str(p), "--mode", mode, "--out", str(out)]
        labels = inputs.LABELS if mode == "relaxed" else inputs.UNITAL
        expected = inputs.expected_enumeration(families, mode, p)

        def run(argv=argv, out=out, p=p, mode=mode, labels=labels):
            rc = cli.main(argv)
            payload = json.loads(out.read_text("utf-8"))
            structures = tuple(triangleop.op_from_json_dict(d) for d in payload["structures"])
            report = ffenum.EnumerationReport(
                task=ffenum.EnumerationTask(prime=p, mode=mode),
                structures=structures,
                count=len(structures),
                elapsed=0.0,
                stats=payload["stats"],
            )
            diff = ffenum.compare_with_families(report, {k: symbolic[k] for k in labels})
            return rc, payload, diff

        def check(result, out=out, p=p, mode=mode, expected=expected):
            rc, payload, diff = result
            got = {
                tuple(int(e) for row in s["table"] for cell in row for e in cell)
                for s in payload["structures"]
            }
            count = 2 * p + 4 if mode == "relaxed" else 2 * p + 1
            ok = (
                rc == 0
                and diff.empty
                and payload["count"] == count == len(expected)
                and got == expected
            )
            return ok, {"stats": payload["stats"], "out_sha256": _sha256(out)}

        jobs.append(Job(f"enumerate.{mode}.p{p}", run, check))
    return jobs


def verify_jobs(work: Path, families: dict, seed: int) -> list[Job]:
    jobs = []
    for idx, case in enumerate(inputs.verify_stream(families, seed, work / "verify")):
        argv = ["verify", "--hopf", "builtin:h4", "--op", case["path"], "--mode", case["mode"]]

        def check(rc, case=case):
            return rc == case["expect"], rc

        jobs.append(Job(f"verify.{idx}.{case['kind']}", lambda argv=argv: cli.main(argv), check))
    return jobs


def build_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    families = inputs.load_families(ROOT)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "classify":
        return classify_jobs(work)
    if workload == "enumerate":
        return enumerate_jobs(work, families)
    return verify_jobs(work, families, seed)


def run_pass(jobs: list[Job], tracer=None) -> dict:
    times, oks, fingerprint, errors = [], [], [], []
    cli_by_job: dict[str, float] = {}
    for job in jobs:
        if tracer is not None:
            tracer.job = job.label
            cli_before = tracer.self_s("cli.main")
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = job.run()
        except Exception:  # a failing job is recorded and the pass goes on
            result, error = None, traceback.format_exc()
        else:
            error = None
        times.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            cli_by_job[job.label] = tracer.self_s("cli.main") - cli_before
        if error is None:
            try:
                ok, entry = job.check(result)
            except Exception:
                ok, entry, error = False, None, traceback.format_exc()
        else:
            ok, entry = False, None
        oks.append(ok)
        fingerprint.append([job.label, entry])
        if error is not None or not ok:
            errors.append({"job": job.label, "error": error})
    digest = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()
    return {
        "labels": [job.label for job in jobs],
        "job_ns": times,
        "ok": oks,
        "errors": errors,
        "fingerprint": fingerprint,
        "fingerprint_sha256": digest,
        "cli_by_job": cli_by_job,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify", "enumerate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    jobs = build_jobs(args.workload, args.seed, args.work_dir)
    tracer = None
    if args.trace_out is not None:
        tracer = Tracer().install()
    setup_ns = time.monotonic_ns() - args.spawn_ns
    out: dict = {"setup_ns": setup_ns}
    if not args.setup_only:
        out.update(run_pass(jobs, tracer))
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write_spans(args.trace_out)
        out["layers"] = layer_metrics(tracer, out["cli_by_job"], 0.0)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
