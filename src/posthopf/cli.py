"""Command-line surface: verify structures, print and check the built-in
families, run the symbolic classification and the finite-field enumeration,
and compute group-likes and skew-primitive bases.

Exit codes: 0 pass, 1 fail (axiom violation or classification mismatch),
2 error (bad input, unknown flags, limits exceeded).  Human-readable output
is deterministic byte for byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from .exactmath import parse_rational
from .hopfcore import (
    HopfStructure,
    basis_element,
    group_likes,
    hopf_from_json_dict,
    skew_primitives,
    sweedler_h4,
    verify_hopf_axioms,
)
from .multipoly import Poly
from .triangleop import (
    FAMILY_LABELS,
    PARAMETERIZATIONS,
    TriangleOp,
    axiom_suite,
    check_counit_absorption,
    check_unitality,
    family_table,
    op_from_json_dict,
    op_to_json_dict,
)
from . import classifier as _classifier
from . import ffenum as _ffenum

__all__ = ["main"]

PASS, FAIL, ERROR = 0, 1, 2

# reference count of non-unital families; the computed count is reported
# alongside it and flagged on mismatch, never asserted (see cmd_classify)
ANTICIPATED_RELAXED_ONLY = 2


@dataclass
class RunReport:
    exit_code: int         # PASS | FAIL | ERROR
    human_text: str
    json_payload: dict


# -- rendering -----------------------------------------------------------------

def _display_names(H: HopfStructure, unicode_names: bool) -> tuple[str, ...]:
    if not unicode_names:
        return H.basis_names
    mapping = {"v": "ν", "gv": "gν"}
    return tuple(mapping.get(n, n) for n in H.basis_names)


def render_element(vec, names) -> str:
    """Compact linear-combination rendering: (0, a, -a, 0) over (1, g, v, gv)
    prints as ``ag - agv`` style terms, matching the classified tables."""
    parts: list[tuple[int, str]] = []  # (sign, body)
    for coeff, name in zip(vec, names):
        if isinstance(coeff, Poly):
            terms = coeff.terms()
        else:  # a number is one constant term, or none when it is zero
            terms = [((), Fraction(coeff))] if coeff else []
        for mono, c in terms:
            mono_txt = "".join(
                coeff.registry.name_of(v) + (f"^{e}" if e > 1 else "")
                for v, e in mono
            )
            parts.append((1 if c > 0 else -1, _term_body(abs(c), mono_txt, name)))
    if not parts:
        return "0"
    out = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out)


def _term_body(mag: Fraction, mono_txt: str, basis_name: str) -> str:
    pieces = []
    if mag != 1 or (not mono_txt and basis_name == "1"):
        pieces.append(str(mag))
    if mono_txt:
        pieces.append(mono_txt)
    if basis_name != "1":
        pieces.append(basis_name)
    return "".join(pieces)


def render_table(op: TriangleOp, H: HopfStructure, unicode_names: bool = False) -> str:
    names = _display_names(H, unicode_names)
    cells = [[render_element(op.table[i][j], names) for j in range(op.dim)] for i in range(op.dim)]
    headers = ["|>"] + list(names)
    widths = [
        max(len(headers[c]), *(len(cells[r][c - 1]) if c else len(names[r]) for r in range(op.dim)))
        for c in range(op.dim + 1)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-" * len(lines[0]))
    for r in range(op.dim):
        row = [names[r]] + cells[r]
        lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _report_lines(label: str, report) -> list[str]:
    if report.passed:
        return [f"{label}: PASS ({report.checks} residuals, all zero)"]
    first = report.first_failure()
    return [
        f"{label}: FAIL ({len(report.entries)} nonzero of {report.checks} residuals)",
        f"  first failure: {first.axiom} at {first.indices}: residual {first.residual}",
    ]


def _report_json(report) -> dict:
    return {
        "passed": report.passed,
        "checks": report.checks,
        "failures": [
            {
                "axiom": e.axiom,
                "indices": list(e.indices),
                "residual": str(e.residual),
            }
            for e in report.entries
        ],
    }


# -- input parsing ---------------------------------------------------------------

def _read_json(path: str):
    """A JSON file's document; nesting too deep to parse is bad input."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_hopf(ref: str) -> HopfStructure:
    if ref == "builtin:h4":
        return sweedler_h4()
    return hopf_from_json_dict(_read_json(ref))


def _load_op(ref: str) -> TriangleOp:
    if ref.startswith("family:"):
        parts = ref.split(":")
        label = parts[1]
        if len(parts) == 2:
            return family_table(label)
        if len(parts) == 3 and parts[2].startswith("a="):
            return family_table(label, parse_rational(parts[2][2:]))
        raise ValueError(f"bad family reference {ref!r}; use family:iii or family:i:a=3/2")
    return op_from_json_dict(_read_json(ref))


# -- commands ---------------------------------------------------------------------

def _op_suite(H: HopfStructure, op: TriangleOp, mode: str) -> dict:
    """The mode's axiom suite plus the derived counit-absorption check, which
    is reported ahead of unitality."""
    suite = axiom_suite(H, op, mode)
    tail = {"unitality": suite.pop("unitality")} if mode == "weak" else {}
    return {**suite, "counit_absorption": check_counit_absorption(H, op), **tail}


def _check_reducible(H: HopfStructure, p: int) -> None:
    """Reject a structure the F_p operation checks cannot read: a constant of
    ``mul``, ``unit``, ``comul`` or ``counit`` whose denominator p divides has
    no value mod p.  The antipode is never read by those checks."""
    for name in ("mul", "unit", "comul", "counit"):
        entries = [getattr(H, name)]
        while entries:
            x = entries.pop()
            if isinstance(x, tuple):
                entries.extend(x)
            elif Fraction(x).denominator % p == 0:
                raise ValueError(f"Hopf structure {name} constant {x} has no value mod {p}")


def cmd_verify(args) -> RunReport:
    H = _load_hopf(args.hopf)
    lines: list[str] = []
    payload: dict = {}
    hopf_report = verify_hopf_axioms(H)
    lines += _report_lines("hopf_axioms", hopf_report)
    payload["hopf_axioms"] = _report_json(hopf_report)
    ok = hopf_report.passed
    if args.op is not None:
        op = _load_op(args.op)
        if op.prime is not None:
            _check_reducible(H, op.prime)
        suite = _op_suite(H, op, args.mode)
        payload["operation"] = {}
        for name, report in suite.items():
            lines += _report_lines(name, report)
            payload["operation"][name] = _report_json(report)
            ok = ok and report.passed
    return RunReport(PASS if ok else FAIL, "\n".join(lines) + "\n", payload)


def cmd_families(args) -> RunReport:
    H = sweedler_h4()
    lines: list[str] = []
    payload: dict = {"families": {}}
    ok = True
    for label in FAMILY_LABELS:
        op = family_table(label)
        lines.append(f"family ({label})")
        lines.append(render_table(op, H, args.unicode))
        entry: dict = {"table": op_to_json_dict(op)}
        if args.check:
            suite = _op_suite(H, op, "weak")
            unital = suite.pop("unitality")
            relaxed_ok = all(r.passed for r in suite.values())
            ok = ok and relaxed_ok
            status = "PASS" if relaxed_ok else "FAIL"
            lines.append(f"  relaxed axioms: {status}; unital (weak): {'yes' if unital.passed else 'no'}")
            if not unital.passed:
                first = unital.first_failure()
                lines.append(
                    f"  unitality witness: basis index {first.indices[0]} "
                    f"({H.basis_names[first.indices[0]]})"
                )
            entry["relaxed_pass"] = relaxed_ok
            entry["weak_unital"] = unital.passed
        lines.append("")
        payload["families"][label] = entry
    return RunReport(PASS if ok else FAIL, "\n".join(lines).rstrip() + "\n", payload)


def cmd_classify(args) -> RunReport:
    result = _classifier.classify(
        mode=args.mode,
        parameterization=args.param,
        max_branches=args.max_branches,
    )
    H = sweedler_h4()
    payload = _classifier.classification_to_json_dict(result)
    matching = perf_counter()
    known = _classifier.builtin_families()
    if args.mode == "weak":
        # the weak-mode targets are the unital subset of the built-in tables
        known = {
            label: op for label, op in known.items() if check_unitality(H, op).passed
        }
    match = _classifier.match_families(result.maximal_families, known)
    if args.profile:
        timings = dict(result.timings, match=perf_counter() - matching)
        for stage, seconds in timings.items():
            print(f"profile: {stage} {seconds:.3f} s", file=sys.stderr)
    payload["match"] = {
        "pairs": [[idx, label] for idx, label in match.pairs],
        "unmatched_families": match.unmatched_families,
        "unmatched_known": match.unmatched_known,
    }
    lines = [f"mode={result.mode} parameterization={result.parameterization}"]
    for idx, fam in enumerate(result.maximal_families):
        matched = next((label for i, label in match.pairs if i == idx), None)
        tag = f" = built-in ({matched})" if matched else " (no built-in match)"
        lines.append(f"maximal family {idx}{tag}")
        lines.append(render_table(fam.table, H, args.unicode))
        lines.append("")
    unresolved = [b for b in result.branches if b.status == "unresolved"]
    lines.append(
        "branches: "
        f"{result.stats['resolved']} resolved, {result.stats['pruned']} pruned, "
        f"{len(unresolved)} unresolved; {result.stats['families']} resolved tables, "
        f"{len(result.maximal_families)} maximal"
    )
    if args.mode == "relaxed":
        unital = [
            fam
            for fam in result.maximal_families
            if check_unitality(H, fam.table).passed
        ]
        extra = len(result.maximal_families) - len(unital)
        payload["stats"]["unital_families"] = len(unital)
        payload["stats"]["relaxed_only_families"] = extra
        payload["stats"]["anticipated_relaxed_only"] = ANTICIPATED_RELAXED_ONLY
        flagged = extra != ANTICIPATED_RELAXED_ONLY
        payload["stats"]["relaxed_only_count_flagged"] = flagged
        lines.append(
            f"unital (weak) families: {len(unital)}; additional non-unital families: {extra}"
            + (
                f"  [flagged: computed {extra}, anticipated {ANTICIPATED_RELAXED_ONLY}]"
                if flagged
                else ""
            )
        )
    limit_hit = any(b.note == "limit exceeded" for b in unresolved)
    if limit_hit:
        lines.append("search limits exceeded; results incomplete")
        return RunReport(ERROR, "\n".join(lines) + "\n", payload)
    ok = match.perfect and not unresolved
    lines.append("classification matches built-in tables" if ok else "classification MISMATCH")
    return RunReport(PASS if ok else FAIL, "\n".join(lines) + "\n", payload)


def cmd_enumerate(args) -> RunReport:
    task = _ffenum.EnumerationTask(prime=args.prime, mode=args.mode)
    report = _ffenum.enumerate_structures(task)
    payload = {
        "prime": args.prime,
        "mode": args.mode,
        "count": report.count,
        "structures": [op_to_json_dict(op) for op in report.structures],
        "stats": dict(sorted(report.stats.items())),
    }
    lines = [
        f"prime={args.prime} mode={args.mode}: {report.count} structures "
        f"({report.stats['leaves']} completed tables checked)"
    ]
    if args.json_out:
        lines.append(f"wrote {args.json_out}")
    return RunReport(PASS, "\n".join(lines) + "\n", payload)


def _ascii_int(token: str) -> int:
    """A nonnegative integer spelled in the ASCII digits 0-9 only: int()
    also reads "+1", " 1", "0_1" and other scripts' digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not an ASCII-digit integer: {token!r}")
    return int(token)


def _resolve_basis_index(H: HopfStructure, token: str) -> int:
    if token in H.basis_names:
        return H.basis_names.index(token)
    try:
        idx = _ascii_int(token)
    except ValueError:
        raise ValueError(f"unknown basis element {token!r}") from None
    if idx >= H.dim:
        raise ValueError(f"basis index {idx} out of range")
    return idx


def cmd_grouplikes(args) -> RunReport:
    H = sweedler_h4()
    names = _display_names(H, args.unicode)
    elements = group_likes(H)
    rendered = [render_element(vec, names) for vec in elements]
    return RunReport(PASS, "group-like elements: {" + ", ".join(rendered) + "}\n", {})


def cmd_primitives(args) -> RunReport:
    H = sweedler_h4()
    names = _display_names(H, args.unicode)
    gi = _resolve_basis_index(H, args.g)
    hi = _resolve_basis_index(H, args.h)
    g = basis_element(H, gi)
    h = basis_element(H, hi)
    basis = skew_primitives(H, g, h)
    rendered = [render_element(vec, names) for vec in basis]
    lines = [
        f"skew-primitive space for ({names[gi]}, {names[hi]}): dimension {len(basis)}"
    ]
    if basis:
        lines.append("basis: {" + ", ".join(rendered) + "}")
    return RunReport(PASS, "\n".join(lines) + "\n", {})


# -- argument parsing and dispatch ---------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posthopf",
        description=(
            "Exact verification, classification, and enumeration of relaxed/weak "
            "post-Hopf operations on the Sweedler algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check Hopf axioms and an operation table")
    p.add_argument("--hopf", required=True, help="path to a structure JSON, or builtin:h4")
    p.add_argument("--op", help="path to an operation JSON, or family:i..vi[:a=<rational>]")
    p.add_argument("--mode", choices=("relaxed", "weak"), default="relaxed")
    p.add_argument("--json", dest="json_out", help="write the machine report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("families", help="print the six built-in tables")
    p.add_argument("--check", action="store_true", help="run the axiom suite on each family")
    p.add_argument("--unicode", action="store_true", help="render nu glyphs instead of v/gv")
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("classify", help="re-derive the classification symbolically")
    p.add_argument("--mode", choices=("relaxed", "weak"), default="relaxed")
    p.add_argument("--param", choices=PARAMETERIZATIONS, default="generator32")
    p.add_argument("--max-branches", type=_ascii_int, default=10000)
    p.add_argument("--unicode", action="store_true")
    p.add_argument("--json", dest="json_out")
    p.add_argument(
        "--profile", action="store_true", help="print each stage's wall time to stderr"
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="brute-force oracle over a prime field")
    p.add_argument("--prime", type=_ascii_int, required=True)
    p.add_argument("--mode", choices=("relaxed", "weak"), default="relaxed")
    p.add_argument(
        "--out", dest="json_out", help="write structures and stats as JSON to this path"
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("grouplikes", help="list the group-like elements")
    p.add_argument("--unicode", action="store_true")
    p.set_defaults(func=cmd_grouplikes)

    p = sub.add_parser("primitives", help="basis of a skew-primitive space")
    p.add_argument("g", help="basis name or index of the left group-like")
    p.add_argument("h", help="basis name or index of the right group-like")
    p.add_argument("--unicode", action="store_true")
    p.set_defaults(func=cmd_primitives)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code else PASS
    try:
        report: RunReport = args.func(args)
        # written before stdout, so an unwritable path prints only the error
        json_out = getattr(args, "json_out", None)
        if json_out:
            Path(json_out).write_text(
                json.dumps(report.json_payload, indent=2) + "\n", "utf-8"
            )
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    sys.stdout.write(report.human_text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
