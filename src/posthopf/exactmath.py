"""Exact coefficient arithmetic and exact linear algebra.

Rationals are plain :class:`fractions.Fraction` values; they already carry
the canonical-form invariants relied on everywhere in this package (reduced
fraction, positive denominator, zero as 0/1) and serialize as ``"p/q"`` /
``"p"`` via ``str``.

An element of a prime field F_p is a plain ``int`` in 0..p-1, with the
prime carried by whatever holds it; :func:`rational_mod_p` is the reduction
ring map from the rationals whose denominator p does not divide.  Prime
fields are restricted to odd characteristic: the anticommutation relation of
the Sweedler algebra degenerates mod 2, so 2 is never a useful modulus here.

Matrices are nested sequences of field elements (all entries from one
field).  ``rref`` works for any field with exact ``+ - * /`` and equality
against ``0``, and over F_p on ints given the prime; ``int`` entries
without a prime are read as rationals, so their rows come out as Fractions.
``kernel_basis`` works over the rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "is_odd_prime",
    "parse_rational",
    "rational_mod_p",
    "rref",
    "kernel_basis",
]


# Miller-Rabin with the first thirteen primes as bases has no strong
# pseudoprime below _MR_LIMIT, about 3.3e24 (J. Sorenson and J. Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so
# below it the test is exact; above it no answer is given
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Exact primality of an odd ``p``, by deterministic Miller-Rabin.
    Raises ``ValueError`` for ``p`` of about 3.3e24 and more, where the
    fixed bases no longer prove primality."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= _MR_LIMIT:
        raise ValueError(f"modulus {p} is too large to test for primality")
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the strict serialized form ``p``, ``-p`` or ``p/q`` (q nonzero),
    in the ASCII digits 0-9."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational_mod_p(q: Fraction | int, p: int) -> int:
    """Image of an integer or Fraction under the reduction ring map
    Z_(p) -> F_p, as an int in 0..p-1."""
    if isinstance(q, int):
        return q % p
    den = q.denominator
    if den % p == 0:
        raise ZeroDivisionError(f"denominator of {q} is divisible by {p}")
    return q.numerator * pow(den, -1, p) % p


def rref(matrix, modulus: int | None = None):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; the input is not modified.
    The result is the unique RREF, so it is deterministic across runs.
    With a prime ``modulus`` p and entries that are ints in 0..p-1, the
    result is the RREF over F_p in such ints.
    """
    rows = [list(r) for r in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if modulus:
            inv = pow(lead, -1, modulus)
            rows[r] = [x * inv % modulus for x in rows[r]]
        else:
            if isinstance(lead, int):  # int / int would be a float
                lead = Fraction(lead)
            rows[r] = [x / lead for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                if modulus:
                    rows[i] = [x % modulus for x in rows[i]]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(matrix):
    """Canonical null-space basis over the rationals, read off the RREF:
    each free column in increasing order contributes one vector with a 1 in
    that coordinate."""
    if not matrix:
        raise ValueError("kernel_basis needs at least one row")
    red, pivots = rref(matrix)
    nc = len(red[0])
    pivot_set = set(pivots)
    basis = []
    for f in range(nc):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return basis
