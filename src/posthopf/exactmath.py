"""Exact coefficient arithmetic and exact linear algebra.

Rationals are plain :class:`fractions.Fraction` values (re-exported as
``Rational``); they already carry the canonical-form invariants relied on
everywhere in this package (reduced fraction, positive denominator, zero as
0/1) and serialize as ``"p/q"`` / ``"p"`` via ``str``.

Prime fields are restricted to odd characteristic: the anticommutation
relation of the Sweedler algebra degenerates mod 2, so 2 is never a useful
modulus here.

Matrices are nested sequences of field elements (all entries from one
field).  ``rref`` and ``kernel_basis`` work for any field with exact
``+ - * /`` and equality against ``0``; ``int`` entries are read as
rationals, so their rows come out as Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "FpElement",
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


_KNOWN_PRIMES: set[int] = set()


def _require_odd_prime(p: int) -> None:
    if p not in _KNOWN_PRIMES:
        if not isinstance(p, int) or not is_odd_prime(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
        _KNOWN_PRIMES.add(p)


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the strict serialized form ``p``, ``-p`` or ``p/q`` (q nonzero)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class FpElement:
    """An element of the prime field F_p (p an odd prime) stored as the
    canonical residue in [0, p).

    Arithmetic accepts ints and Fractions on either side, reducing them
    modulo p, so F_p vectors combine directly with rational structure
    constants.  Elements of different moduli never mix.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        _require_odd_prime(modulus)
        self.value = value % modulus
        self.modulus = modulus

    def _coerce(self, other) -> "FpElement | None":
        if isinstance(other, FpElement):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"mixed prime fields: F_{self.modulus} and F_{other.modulus}"
                )
            return other
        if isinstance(other, int):
            return FpElement(other, self.modulus)
        if isinstance(other, Fraction):
            return rational_mod_p(other, self.modulus)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        return FpElement(-self.value, self.modulus)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return FpElement(pow(self.value, n, self.modulus), self.modulus)

    def inv(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.modulus}")
        return FpElement(pow(self.value, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        if isinstance(other, Fraction):
            if other.denominator % self.modulus == 0:
                return False
            return self == rational_mod_p(other, self.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value}, {self.modulus})"


def rational_mod_p(q: Fraction | int, p: int) -> FpElement:
    """Image of an integer or Fraction under the reduction ring map to F_p."""
    if isinstance(q, int):
        return FpElement(q, p)
    den = q.denominator
    if den % p == 0:
        raise ZeroDivisionError(f"denominator of {q} is divisible by {p}")
    return FpElement(q.numerator * pow(den, -1, p), p)


def _one_like(x):
    if isinstance(x, FpElement):
        return FpElement(1, x.modulus)
    return Fraction(1)


def rref(matrix, modulus: int | None = None):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; the input is not modified.
    The result is the unique RREF, so it is deterministic across runs.
    With a prime ``modulus`` p and entries that are ints in 0..p-1, the
    result is the RREF over F_p in such ints, with no field elements built.
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
    """Canonical null-space basis read off the RREF: each free column in
    increasing order contributes one vector with a 1 in that coordinate."""
    if not matrix:
        raise ValueError("kernel_basis needs at least one row")
    red, pivots = rref(matrix)
    nc = len(red[0])
    one = _one_like(matrix[0][0])
    zero = one * 0
    pivot_set = set(pivots)
    basis = []
    for f in range(nc):
        if f in pivot_set:
            continue
        v = [zero] * nc
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return basis
