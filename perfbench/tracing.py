"""Per-layer tracing of posthopf from outside the package.

``Tracer.install`` replaces public functions and methods of the package's
modules with timing wrappers.  The modules import each other's names with
``from ... import``, so a function is replaced under every name that refers
to it in any loaded ``posthopf`` module, which is where its callers look it
up.  Nothing under ``src/`` changes.

A wrapper charges its span's self time (its duration minus the durations of
the wrapped calls it made) to its own name.  Work in functions that are not
wrapped, such as ``Poly.__add__`` or ``FpElement`` arithmetic, is charged to
the nearest wrapped caller.  Spans of the coarse boundaries are kept in
memory as (name, start, end, parent, job) and written out when the run ends;
the hot leaf operations (``HOT``) are called millions of times, so for them
only the call count and self time are kept.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "classifier", "multipoly", "triangleop", "hopfcore", "ffenum", "exactmath")

CHECKS = (
    "check_coalgebra_hom",
    "check_distributivity",
    "check_weighted_assoc",
    "check_unitality",
    "check_counit_absorption",
)

# traced name -> (module, attribute or Class.attribute)
TARGETS = {
    "cli.main": ("cli", "main"),
    "classifier.classify": ("classifier", "classify"),
    "classifier.generate_constraints": ("classifier", "generate_constraints"),
    "classifier.solve": ("classifier", "solve"),
    "classifier.branch_table": ("classifier", "branch_table"),
    "classifier.subsume": ("classifier", "subsume"),
    "classifier.specializes": ("classifier", "specializes"),
    "classifier.match": ("classifier", "match_families"),
    "multipoly.substitute": ("multipoly", "Poly.substitute"),
    "multipoly.canon_key": ("multipoly", "Poly.canon_key"),
    "multipoly.mul": ("multipoly", "Poly.__mul__"),
    "multipoly.compose_many": ("multipoly", "compose_many"),
    "multipoly.linear_candidates": ("multipoly", "Poly.linear_candidates"),
    "multipoly.try_factor_split": ("multipoly", "try_factor_split"),
    "multipoly.parse_poly": ("multipoly", "parse_poly"),
    **{f"triangleop.{name}": ("triangleop", name) for name in CHECKS},
    "triangleop.extend_generators": ("triangleop", "extend_generators"),
    "triangleop.op_from_json_dict": ("triangleop", "op_from_json_dict"),
    "hopfcore.multiply": ("hopfcore", "multiply"),
    "hopfcore.verify_hopf_axioms": ("hopfcore", "verify_hopf_axioms"),
    "ffenum.enumerate_structures": ("ffenum", "enumerate_structures"),
    "ffenum.row_candidates": ("ffenum", "row_candidates"),
    "ffenum.compare_with_families": ("ffenum", "compare_with_families"),
    "exactmath.rref": ("exactmath", "rref"),
    "exactmath.kernel_basis": ("exactmath", "kernel_basis"),
}

HOT = frozenset({
    "multipoly.substitute",
    "multipoly.canon_key",
    "multipoly.mul",
    "multipoly.linear_candidates",
    "multipoly.try_factor_split",
    "multipoly.parse_poly",
    "hopfcore.multiply",
})

# solve calls made under specializes belong to subsume, not to the solver run
NESTED_SOLVE = "classifier.solve.nested"

COUNTERS = (
    "classifier.equations",
    "classifier.solve.nodes",
    "classifier.solve.splits",
    "classifier.solve.substitutions",
    "classifier.solve.pruned",
    "classifier.solve.resolved",
    "triangleop.residual_entries",
    "ffenum.candidates",
    "ffenum.prefix_pruned",
    "ffenum.leaves",
    "ffenum.passed",
)

CLASSIFY_JOBS = ("relaxed.generator32", "relaxed.full64", "weak.generator32", "weak.full64")

S, COUNT, RATIO = "s", "count", "ratio"

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    *((f"cli.classify.{job}_s", S, "lower") for job in CLASSIFY_JOBS),
    ("cli.enumerate.relaxed_s", S, "lower"),
    ("cli.enumerate.weak_s", S, "lower"),
    ("cli.self_s", S, "lower"),
    ("classifier.self_s", S, "lower"),
    ("classifier.generate_constraints_s", S, "lower"),
    ("classifier.equations", COUNT, "lower"),
    ("classifier.solve_s", S, "lower"),
    ("classifier.solve.nodes", COUNT, "lower"),
    ("classifier.solve.splits", COUNT, "lower"),
    ("classifier.solve.substitutions", COUNT, "lower"),
    ("classifier.solve.pruned", COUNT, "lower"),
    ("classifier.solve.resolved", COUNT, "higher"),
    ("classifier.resolved_per_node", RATIO, "higher"),
    ("classifier.branch_table_s", S, "lower"),
    ("classifier.subsume_s", S, "lower"),
    ("classifier.specializes_calls", COUNT, "lower"),
    ("classifier.match_s", S, "lower"),
    ("multipoly.self_s", S, "lower"),
    *(
        (f"multipoly.{op}_{kind}", S if kind == "s" else COUNT, "lower")
        for op in ("substitute", "canon_key", "mul", "compose_many",
                   "linear_candidates", "try_factor_split", "parse_poly")
        for kind in ("s", "calls")
    ),
    ("triangleop.self_s", S, "lower"),
    *(
        (f"triangleop.{check}_{kind}", S if kind == "s" else COUNT, "lower")
        for check in CHECKS[:4]
        for kind in ("s", "calls")
    ),
    # Only the verify workload runs check_counit_absorption and
    # verify_hopf_axioms, and nothing calls exactmath yet: on the listed
    # workloads their times would read 0 on every run, so only call counts
    # are reported.  Their time is still part of <layer>.self_s.
    ("triangleop.check_counit_absorption_calls", COUNT, "lower"),
    ("triangleop.residual_entries", COUNT, "lower"),
    ("triangleop.extend_generators_s", S, "lower"),
    ("triangleop.op_from_json_dict_s", S, "lower"),
    ("hopfcore.self_s", S, "lower"),
    ("hopfcore.multiply_calls", COUNT, "lower"),
    ("hopfcore.multiply_s", S, "lower"),
    ("ffenum.self_s", S, "lower"),
    ("ffenum.row_candidates_s", S, "lower"),
    ("ffenum.row_candidates_calls", COUNT, "lower"),
    ("ffenum.candidates_per_scan", RATIO, "lower"),
    ("ffenum.prefix_pruned", COUNT, "higher"),
    ("ffenum.leaves", COUNT, "lower"),
    ("ffenum.passed_per_leaf", RATIO, "higher"),
    ("ffenum.full_suite_s", S, "lower"),
    ("exactmath.rref_calls", COUNT, "lower"),
    ("exactmath.kernel_basis_calls", COUNT, "lower"),
    ("trace.overhead_s", S, "lower"),
)


class Tracer:
    """Self time and call counts per traced name, kept spans, and counters
    read off the traced functions' results."""

    def __init__(self):
        self.names = list(TARGETS) + [NESTED_SOLVE]
        self.ids = {name: nid for nid, name in enumerate(self.names)}
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list = []
        self.job = ""
        self._stack: list = []
        self._restore: list = []
        self._in_specializes = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, post=None):
        nid = self.ids[name]
        keep = name not in HOT
        stack, spans = self._stack, self.spans
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: [time covered by wrapped children, nearest kept span]
            frame = [0, parent[1] if parent else -1]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[nid] += dur - frame[0]
                calls[nid] += 1
                if parent is not None:
                    parent[0] += dur
                if keep:
                    spans[frame[1]] = (nid, t0, t1, parent[1] if parent else -1, tracer.job)
            if post is not None:
                post(result)
            return result

        return functools.update_wrapper(traced, fn)

    @staticmethod
    def _lookup(module_name: str, attr: str):
        """The target object, and the namespaces that may hold it: its class
        for a method, every loaded posthopf module for a function."""
        module = importlib.import_module(f"posthopf.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            return cls.__dict__[meth], [cls]
        owners = [mod for key, mod in sorted(sys.modules.items())
                  if key == "posthopf" or key.startswith("posthopf.")]
        return getattr(module, attr), owners

    def _replace(self, original, owners, wrapper) -> None:
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def install(self) -> "Tracer":
        """Wrap every target in the already imported posthopf modules."""
        importlib.import_module("posthopf.cli")
        posts = {
            "classifier.generate_constraints": self._count_equations,
            "ffenum.row_candidates": self._count_candidates,
            "ffenum.enumerate_structures": self._count_enumeration,
            **{f"triangleop.{c}": self._count_residuals for c in CHECKS},
        }
        special = {"classifier.solve", "classifier.specializes"}
        for name, (module_name, attr) in TARGETS.items():
            if name in special:
                continue
            original, owners = self._lookup(module_name, attr)
            self._replace(original, owners, self._wrap(original, name, posts.get(name)))

        solve, solve_owners = self._lookup("classifier", "solve")
        top = self._wrap(solve, "classifier.solve", self._count_solver)
        nested = self._wrap(solve, NESTED_SOLVE)
        spec_original, spec_owners = self._lookup("classifier", "specializes")
        spec = self._wrap(spec_original, "classifier.specializes")

        def solve_dispatch(*args, **kwargs):
            return (nested if self._in_specializes else top)(*args, **kwargs)

        def specializes(*args, **kwargs):
            self._in_specializes += 1
            try:
                return spec(*args, **kwargs)
            finally:
                self._in_specializes -= 1

        self._replace(solve, solve_owners, solve_dispatch)
        self._replace(spec_original, spec_owners, specializes)
        return self

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- counters read off results --------------------------------------------

    def _count_equations(self, system) -> None:
        self.counters["classifier.equations"] += len(system.equations)

    def _count_solver(self, result) -> None:
        _branches, stats = result
        for key in ("nodes", "splits", "substitutions", "pruned", "resolved"):
            self.counters[f"classifier.solve.{key}"] += stats[key]

    def _count_residuals(self, report) -> None:
        self.counters["triangleop.residual_entries"] += len(report.entries)

    def _count_candidates(self, candidates) -> None:
        self.counters["ffenum.candidates"] += len(candidates)

    def _count_enumeration(self, report) -> None:
        for key in ("prefix_pruned", "leaves", "passed"):
            self.counters[f"ffenum.{key}"] += report.stats[key]

    # -- results -------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.self_ns[self.ids[name]] / 1e9

    def calls_of(self, name: str) -> int:
        return self.calls[self.ids[name]]

    def layer_self_s(self, layer: str) -> float:
        return sum(
            ns for name, ns in zip(self.names, self.self_ns) if name.split(".")[0] == layer
        ) / 1e9

    def full_suite_s(self) -> float:
        """Inclusive time of the axiom checks that ``enumerate_structures``
        runs on completed tables (not those of constraint generation)."""
        check_ids = {self.ids[f"triangleop.{c}"] for c in CHECKS}
        enum_id = self.ids["ffenum.enumerate_structures"]
        gen_id = self.ids["classifier.generate_constraints"]
        total = 0
        for nid, t0, t1, parent, _job in self.spans:
            if nid not in check_ids:
                continue
            while parent >= 0 and self.spans[parent][0] not in (enum_id, gen_id):
                parent = self.spans[parent][3]
            if parent >= 0 and self.spans[parent][0] == enum_id:
                total += t1 - t0
        return total / 1e9

    def write_spans(self, path) -> None:
        """One JSON list per line: name, start_ns, end_ns, parent index, job."""
        base = min((s[1] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as out:
            for nid, t0, t1, parent, job in self.spans:
                out.write(json.dumps([self.names[nid], t0 - base, t1 - base, parent, job]) + "\n")


def layer_metrics(tracer: Tracer, cli_by_job: dict, overhead_s: float) -> dict:
    """Every per-layer metric of ``PER_LAYER`` from one traced pass.
    ``cli_by_job`` maps a job label to the cli self time spent in it."""
    c = tracer.counters
    values: dict[str, float] = {}
    for job in CLASSIFY_JOBS:
        values[f"cli.classify.{job}_s"] = cli_by_job.get(f"classify.{job}", 0.0)
    for mode in ("relaxed", "weak"):
        values[f"cli.enumerate.{mode}_s"] = sum(
            v for k, v in cli_by_job.items() if k.startswith(f"enumerate.{mode}.")
        )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    values["classifier.generate_constraints_s"] = tracer.self_s("classifier.generate_constraints")
    values["classifier.solve_s"] = tracer.self_s("classifier.solve")
    values["classifier.branch_table_s"] = tracer.self_s("classifier.branch_table")
    values["classifier.subsume_s"] = sum(
        tracer.self_s(n)
        for n in ("classifier.subsume", "classifier.specializes", NESTED_SOLVE)
    )
    values["classifier.specializes_calls"] = tracer.calls_of("classifier.specializes")
    values["classifier.match_s"] = tracer.self_s("classifier.match")
    for key in ("equations", "solve.nodes", "solve.splits", "solve.substitutions",
                "solve.pruned", "solve.resolved"):
        values[f"classifier.{key}"] = c[f"classifier.{key}"]
    nodes = c["classifier.solve.nodes"]
    values["classifier.resolved_per_node"] = c["classifier.solve.resolved"] / nodes if nodes else 0.0
    for name in TARGETS:
        layer, op = name.split(".", 1)
        if layer in ("multipoly", "triangleop", "hopfcore", "exactmath"):
            values[f"{name}_s"] = tracer.self_s(name)
            values[f"{name}_calls"] = tracer.calls_of(name)
    values["triangleop.residual_entries"] = c["triangleop.residual_entries"]
    values["ffenum.row_candidates_s"] = tracer.self_s("ffenum.row_candidates")
    scans = tracer.calls_of("ffenum.row_candidates")
    values["ffenum.row_candidates_calls"] = scans
    values["ffenum.candidates_per_scan"] = c["ffenum.candidates"] / scans if scans else 0.0
    values["ffenum.prefix_pruned"] = c["ffenum.prefix_pruned"]
    values["ffenum.leaves"] = c["ffenum.leaves"]
    leaves = c["ffenum.leaves"]
    values["ffenum.passed_per_leaf"] = c["ffenum.passed"] / leaves if leaves else 0.0
    values["ffenum.full_suite_s"] = tracer.full_suite_s()
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _better in PER_LAYER}
