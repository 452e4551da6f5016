"""The posthopf benchmark: one command that runs a workload, checks every
job against its known answer and prints the metrics.

    python3 perfbench/run.py --workload {classify,enumerate,verify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/``.  It starts one fresh interpreter at a time (worker.py), never two
at once:

* a few set-up probes, which import the package, generate the workload's
  inputs and exit, so that ``setup_s`` is a median;
* passes over the workload's fixed job list, one fresh interpreter each, as
  long as another pass is expected to end within ``--seconds`` (at least
  two).

With ``--trace 1`` it instead runs one untraced and one traced pass and
prints the per-layer metrics of the traced pass; their difference in pass
time is the tracing overhead.  Raw results, the machine, the semantic
fingerprint and the spans go to ``.perfbench-out/``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("classify", "enumerate", "verify")
SETUP_PROBES = 8
# a pass median needs at least two passes, even when one takes --seconds
MIN_PASSES = 2
# every run must end within this many seconds
RUN_LIMIT_S = 170
PERCENTILE = 95
JOBS_PER_PASS = {
    "classify": len(inputs.CLASSIFY_JOBS),
    "enumerate": len(inputs.ENUMERATE_JOBS),
    "verify": inputs.VERIFY_CALLS,
}

# (name, unit) of the end-to-end metrics, as listed in BENCHMARK.json.  Job
# latency percentiles are recorded but are not among them: a classify or
# enumerate pass has only 4 or 10 unlike jobs, so a percentile there is one
# job's time, and its run-to-run spread is too wide to bound.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def percentile(samples, pct: float):
    """Nearest-rank percentile, and how many samples lie strictly beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    value = ordered[rank - 1]
    return value, sum(1 for s in ordered if s > value)


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def run_worker(args, work: Path, deadline: float, *, setup_only=False, trace_out=None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--work-dir", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.monotonic())
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--spawn-ns", str(spawn_ns)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"worker exceeded {timeout:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def latency(passes) -> dict:
    """Median and 95th-percentile job latency over every job of the run."""
    job_ns = [ns for p in passes for ns in p["job_ns"]]
    p95, beyond = percentile(job_ns, PERCENTILE)
    return {
        "p50_ms": statistics.median(job_ns) / 1e6,
        f"p{PERCENTILE}_ms": p95 / 1e6,
        "samples": len(job_ns),
        f"samples_beyond_p{PERCENTILE}": beyond,
    }


def end_to_end(setups_ns, passes) -> dict:
    job_ns = [ns for p in passes for ns in p["job_ns"]]
    values = {
        "setup_s": statistics.median(setups_ns) / 1e9,
        "pass_s": statistics.median(sum(p["job_ns"]) for p in passes) / 1e9,
        "jobs_per_s": len(job_ns) / (sum(job_ns) / 1e9),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posthopf" / "cli.py").is_file():
        print(f"error: no posthopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    with open(OUT / "lock", "w") as lock:
        # workloads run one at a time, never concurrently
        fcntl.flock(lock, fcntl.LOCK_EX)
        work = OUT / "work" / f"{args.workload}-{os.getpid()}"
        try:
            result = measure(args, work, start, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    note, result = result
    print(f"perfbench: {note}")
    print(json.dumps(result))
    return 0


def measure(args, work: Path, start: float, deadline: float):
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    crashes: list[str] = []
    passes: list[dict] = []
    setups_ns: list[int] = []
    layers = None

    def keep(res, kind="pass"):
        if "crash" in res:
            crashes.append(f"{kind}: {res['crash']}")
            return False
        return True

    if args.trace:
        base = run_worker(args, work, deadline)
        traced = run_worker(args, work, deadline, trace_out=OUT / f"spans-{tag}.jsonl")
        if all([keep(base), keep(traced)]):
            passes = [base, traced]
            overhead = (sum(traced["job_ns"]) - sum(base["job_ns"])) / 1e9
            layers = traced.pop("layers")
            layers["trace.overhead_s"]["value"] = overhead
    else:
        for _ in range(SETUP_PROBES):
            res = run_worker(args, work, deadline, setup_only=True)
            if keep(res, "probe"):
                setups_ns.append(res["setup_ns"])
        while True:
            res = run_worker(args, work, deadline)
            if not keep(res):
                break
            passes.append(res)
            setups_ns.append(res["setup_ns"])
            ends = time.monotonic() + statistics.median(sum(p["job_ns"]) / 1e9 for p in passes)
            if ends > deadline or (len(passes) >= MIN_PASSES and ends > start + args.seconds):
                break

    if not passes:
        print("error: no pass completed: " + " | ".join(crashes), file=sys.stderr)
        return None
    # every job of a crashed pass counts as attempted and failed
    lost = sum(1 for c in crashes if c.startswith("pass")) * JOBS_PER_PASS[args.workload]
    attempted = sum(len(p["ok"]) for p in passes) + lost
    failed = sum(1 for p in passes for ok in p["ok"] if not ok) + lost
    digests = sorted({p["fingerprint_sha256"] for p in passes})
    correct = failed == 0 and not crashes and len(digests) == 1
    metrics = layers if args.trace else end_to_end(setups_ns, passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "crashes": crashes,
        "errors": [e for p in passes for e in p["errors"]],
        "fingerprint_sha256": digests,
        "fingerprint": passes[0]["fingerprint"],
        "setups_ns": setups_ns,
        "passes": [
            {k: p[k] for k in ("job_ns", "maxrss_kb", "setup_ns", "fingerprint_sha256")}
            for p in passes
        ],
        "latency": latency(passes),
        "metrics": metrics,
    }
    path = OUT / f"result-{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    note = json.dumps({
        "machine": record["machine"],
        "fingerprint_sha256": digests,
        "passes": len(passes),
        "jobs_per_pass": JOBS_PER_PASS[args.workload],
        "latency": record["latency"],
        "record": str(path.relative_to(ROOT)),
    })
    return note, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
