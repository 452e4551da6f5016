"""Seeded inputs and known answers for the posthopf benchmark.

Every expected answer here is derived from the frozen ``families.json`` with
this file's own arithmetic, never by calling the package under test:

* a family specialization satisfies the relaxed axioms, and the weak ones
  too when the family is unital (i, ii, iii);
* a table whose ``1`` or ``g`` coordinate was perturbed in one cell breaks
  eps(x |> y) = eps(x) eps(y), because both coordinates carry counit 1;
* over F_p the valid tables are exactly the family evaluations mod p, so a
  table passes if and only if it is one of them.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

LABELS = ("i", "ii", "iii", "iv", "v", "vi")
UNITAL = ("i", "ii", "iii")
PRIMES = (3, 5, 7, 11, 13)
MODES = ("relaxed", "weak")
RINGS = ("rational", "prime", "poly")
CLASSIFY_JOBS = (
    ("relaxed", "generator32"),
    ("relaxed", "full64"),
    ("weak", "generator32"),
    ("weak", "full64"),
)
ENUMERATE_JOBS = tuple((mode, p) for mode in MODES for p in PRIMES)
# one verify pass is this many seeded sweeps over the stratified table pool
VERIFY_SWEEPS = 3
VERIFY_CALLS = VERIFY_SWEEPS * len(RINGS) * len(LABELS) * len(MODES) * 2

_CONST = re.compile(r"-?\d+(?:/\d+)?")
_MULTIPLE = re.compile(r"(-?)(\d+(?:/\d+)?)?\*?([A-Za-z_]\w*)")


def load_families(root: Path) -> dict[str, dict]:
    """The frozen family tables, as stored in the package data file."""
    data = json.loads((root / "src" / "posthopf" / "families.json").read_text("utf-8"))
    return data["families"]


def _linear(entry: str, param: str | None) -> tuple[Fraction, Fraction]:
    """An entry of families.json as (constant, coefficient of the parameter).
    The file only holds rational constants and rational multiples of the
    parameter; anything else is refused."""
    text = entry.replace(" ", "")
    if _CONST.fullmatch(text):
        return Fraction(text), Fraction(0)
    m = _MULTIPLE.fullmatch(text)
    if m is None or m.group(3) != param:
        raise ValueError(f"unsupported family entry {entry!r}")
    coeff = Fraction(m.group(2) or 1)
    return Fraction(0), -coeff if m.group(1) else coeff


def family_linear(families: dict, label: str) -> list:
    """table[i][j][k] = (c0, c1) with entry c0 + c1 * parameter."""
    fam = families[label]
    return [
        [[_linear(e, fam["param"]) for e in cell] for cell in row] for row in fam["table"]
    ]


def _mod(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def fp_table(lin: list, t: int, p: int) -> tuple:
    """The family evaluated at parameter ``t`` over F_p, as a flat tuple."""
    return tuple(_mod(c0 + c1 * t, p) for row in lin for cell in row for c0, c1 in cell)


def fp_evaluations(families: dict, labels, p: int) -> set[tuple]:
    """Every specialization over F_p of the given families."""
    out = set()
    for label in labels:
        lin = family_linear(families, label)
        values = range(p) if families[label]["param"] else (0,)
        out.update(fp_table(lin, t, p) for t in values)
    return out


def expected_enumeration(families: dict, mode: str, p: int) -> set[tuple]:
    """Known answer of ``enumerate --prime p --mode mode``; it has 2p+4
    members in relaxed mode and 2p+1 in weak mode."""
    return fp_evaluations(families, LABELS if mode == "relaxed" else UNITAL, p)


def _poly_text(k: Fraction, c: Fraction) -> str:
    """``k*t + c`` in the package's polynomial grammar."""
    parts = []
    if k:
        mag = abs(k)
        parts.append(("-" if k < 0 else "+", "t" if mag == 1 else f"{mag}*t"))
    if c or not parts:
        parts.append(("-" if c < 0 else "+", str(abs(c))))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def make_case(families: dict, valid: dict, rng: random.Random, ring: str,
              label: str, mode: str, perturbed: bool) -> dict:
    """One verify input: the op JSON payload, its mode and the exit code the
    CLI must return (0 pass, 1 fail).  ``valid[mode, p]`` is the set of valid
    tables over F_p in that mode."""
    lin = family_linear(families, label)
    i, j, coord = rng.randrange(4), rng.randrange(4), rng.randrange(2)
    if ring == "prime":
        p = rng.choice(PRIMES)
        t = rng.randrange(p)
        flat = list(fp_table(lin, t, p))
        if perturbed:
            pos = (i * 4 + j) * 4 + coord
            flat[pos] = (flat[pos] + rng.randrange(1, p)) % p
        member = tuple(flat) in valid[mode, p]
        if perturbed and member:
            raise AssertionError("a perturbed table must break the counit axiom")
        entries = [str(v) for v in flat]
        ring_field, passes = {"prime": p}, member
    else:
        if ring == "rational":
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))

            def render(c0, c1):
                return str(c0 + c1 * t)
        else:
            # the parameter becomes k*t + d, a polynomial in a fresh indeterminate
            k, d = _nonzero_fraction(rng), Fraction(rng.randint(-3, 3))

            def render(c0, c1):
                return _poly_text(c1 * k, c0 + c1 * d)
        pairs = [pair for row in lin for cell in row for pair in cell]
        if perturbed:
            pos = (i * 4 + j) * 4 + coord
            c0, c1 = pairs[pos]
            pairs[pos] = (c0 + _nonzero_fraction(rng), c1)
        entries = [render(c0, c1) for c0, c1 in pairs]
        ring_field = ring
        passes = not perturbed and (mode == "relaxed" or label in UNITAL)
    it = iter(entries)
    table = [[[next(it) for _k in range(4)] for _j in range(4)] for _i in range(4)]
    return {
        "op": {"dim": 4, "ring": ring_field, "table": table},
        "mode": mode,
        "expect": 0 if passes else 1,
        "kind": f"{ring}-{label}-{mode}-{'bad' if perturbed else 'ok'}",
    }


def verify_pool(families: dict, seed: int) -> list[dict]:
    """One table for every (ring, family, mode, perturbed) stratum, so the
    input mix is the same for every seed; the seed draws the parameter
    values, primes, perturbed cells and offsets."""
    rng = random.Random(seed)
    valid = {(m, p): expected_enumeration(families, m, p) for m in MODES for p in PRIMES}
    return [
        make_case(families, valid, rng, ring, label, mode, perturbed)
        for ring in RINGS
        for label in LABELS
        for mode in MODES
        for perturbed in (False, True)
    ]


def verify_stream(families: dict, seed: int, work_dir: Path) -> list[dict]:
    """Write the pool's op files under ``work_dir`` and return the calls of
    one pass: ``VERIFY_SWEEPS`` sweeps, each a seeded permutation of the pool."""
    pool = verify_pool(families, seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    for idx, case in enumerate(pool):
        case["path"] = str(work_dir / f"op{idx:03d}-{case['kind']}.json")
        Path(case["path"]).write_text(json.dumps(case["op"]) + "\n", "utf-8")
    rng = random.Random(f"order-{seed}")
    stream = []
    for _sweep in range(VERIFY_SWEEPS):
        order = list(range(len(pool)))
        rng.shuffle(order)
        stream.extend(pool[k] for k in order)
    return stream
