"""Sparse multivariate polynomials over exact rationals.

A :class:`Poly` stores a map from monomials to nonzero rational
coefficients.  A coefficient is kept as an ``int`` whenever it is integral
and as a :class:`~fractions.Fraction` only otherwise, so the integer systems
the solver works on never go through ``Fraction`` arithmetic.  The
representation carries no meaning: ``2`` and ``Fraction(2)`` compare, hash
and print alike, so a Poly built directly with integral Fractions behaves
exactly like its ``int`` twin.

A monomial is packed into one ``int`` of 16-bit fields (a packed exponent
vector, after Monagan and Pearce, CASC 2007): field 0 holds the total degree
and field ``v + 1`` the exponent of the variable with id ``v``.  A product of
monomials is then one integer addition, and substitution reads an exponent
with a shift and a mask.  The total degree of a monomial is at most
``MAX_DEGREE`` (32767), which keeps the top bit of every field clear: adding
two monomials never carries from one field into the next, and one test of
the degree field's top bit catches a product past the limit.  ``parse_poly``,
``*``, ``**`` and ``substitute`` raise ``ValueError`` there.  The packed form
is private to this module: other modules read terms through
:meth:`Poly.terms`, which yields ``((variable id, exponent), ...)`` tuples,
and ``Poly(registry, terms)`` takes such tuples.

Printing orders terms by graded lexicographic order on variable ids
(highest term first) and is byte-stable: two polynomials over the same
registry are equal iff their printed forms coincide.

String grammar (used in JSON payloads and reports)::

    poly   := ['+' | '-'] term (('+' | '-') term)*
    term   := rat ('*' varpow)* | varpow ('*' varpow)*
    rat    := INT ['/' INT]
    varpow := NAME ['^' POSINT]

Whitespace is insignificant, and ``INT`` and ``POSINT`` are spelled in the
ASCII digits 0-9.  Example: ``2*a^2 - a``.  No rule refers to
itself, so each rule is one regular expression built from those of the rules
it names: ``parse_poly`` matches ``poly`` against the whole string once and
then reads its terms and their factors.

Factor splitting is deliberately limited to the shapes needed by the branch
solver: single-variable monomial content, and univariate quadratics with
rational roots.  Anything else reports "no split" and the caller records the
branch as unresolved.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count
from operator import or_

from .exactmath import parse_rational

__all__ = [
    "VarRegistry", "Poly", "parse_poly", "compose_many", "try_factor_split", "MAX_DEGREE",
]

# -- packed monomials ------------------------------------------------------------
# Field width 16 makes every field one UTF-16 code unit (below the surrogate
# range, since no field reaches 1 << 15), which is what _mono_key decodes.

_FIELD_BITS = 16
_FIELD = (1 << _FIELD_BITS) - 1
MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1
_OVER = 1 << (_FIELD_BITS - 1)  # degree-field bit set by a product past MAX_DEGREE
_UNIT = 0  # the monomial 1


def _degree_error() -> ValueError:
    return ValueError(f"total degree exceeds {MAX_DEGREE}")


def _power(vid: int, e: int) -> int:
    """The packed monomial ``x_vid ^ e``."""
    return (e << _FIELD_BITS * (vid + 1)) | e


def _pack(mono) -> int:
    """The packed form of ``((variable id, exponent), ...)`` pairs."""
    m = deg = 0
    for v, e in mono:
        if e < 1:
            raise ValueError(f"exponent must be positive, got {e}")
        m += e << _FIELD_BITS * (v + 1)
        deg += e
    if deg > MAX_DEGREE:
        raise _degree_error()
    return m + deg


def _mono_key(mono: int) -> str:
    """``chr(deg) + chr(e_0) + ... + chr(e_top)``, ``top`` the highest
    variable id occurring: it compares exactly as the tuple
    ``(deg, (e_0, ..., e_top))`` does, graded and then lexicographic."""
    size = (mono.bit_length() + _FIELD_BITS - 1) // _FIELD_BITS or 1
    return mono.to_bytes(2 * size, "little").decode("utf-16-le")


def _vars_of(mono: int) -> tuple[int, ...]:
    """Ids of the variables whose fields are nonzero, ascending; ``mono``
    may be an OR of packed monomials."""
    mono >>= _FIELD_BITS
    if not mono:
        return ()
    size = (mono.bit_length() + _FIELD_BITS - 1) // _FIELD_BITS
    # fields in order; "H" reads them in native byte order, which changes
    # their values but not which of them are nonzero
    fields = memoryview(mono.to_bytes(2 * size, "little")).cast("H")
    return tuple(compress(count(), fields))


def _mono_items(mono: int) -> tuple:
    """``((variable id, exponent), ...)`` by ascending id, read off the
    fields from the highest down."""
    items = []
    mono >>= _FIELD_BITS
    while mono:
        shift = (mono.bit_length() - 1) // _FIELD_BITS * _FIELD_BITS
        items.append((shift // _FIELD_BITS, mono >> shift))
        mono &= (1 << shift) - 1
    return tuple(reversed(items))


class VarRegistry:
    """Registry of indeterminates; ids are dense and allocation-ordered,
    display names are unique."""

    __slots__ = ("_names", "_ids")

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def add(self, name: str) -> int:
        if name in self._ids:
            raise ValueError(f"indeterminate {name!r} already registered")
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        return vid

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise ValueError(f"unknown indeterminate {name!r}") from None

    def name_of(self, vid: int) -> str:
        return self._names[vid]

    def __len__(self) -> int:
        return len(self._names)

    def var(self, name: str) -> "Poly":
        """Polynomial for a single variable, registering the name if new."""
        vid = self._ids.get(name)
        if vid is None:
            vid = self.add(name)
        return _poly(self, {_power(vid, 1): 1})

    def var_by_id(self, vid: int) -> "Poly":
        return _poly(self, {_power(vid, 1): 1})


def _num(q):
    """A rational as a Poly stores it: ``int`` when integral, else the
    Fraction itself."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _accumulate(terms: dict, mono: int, c) -> None:
    """``terms[mono] += c`` for a nonzero ``c``, dropping a sum that cancels
    and storing an integral result as ``int``.  A new entry stores ``c``
    itself, not ``0 + c``; a sum of two ints stays in ``int`` arithmetic."""
    got = terms.get(mono)
    if got is not None:
        c = got + c
        if not c:
            del terms[mono]
            return
    if type(c) is not int and c.denominator == 1:
        c = c.numerator
    terms[mono] = c


class _Memo(dict):
    """``key -> fn(key)``, filled on a miss and emptied when it holds
    ``bound`` entries, so ``map(memo.__getitem__, keys)`` reads a hit with
    no Python call.  The memo only saves work: every value is ``fn``'s."""

    __slots__ = ("fn", "bound")

    def __init__(self, fn, bound: int):
        super().__init__()
        self.fn = fn
        self.bound = bound

    def __missing__(self, key):
        if len(self) >= self.bound:
            self.clear()
        value = self[key] = self.fn(key)
        return value


# every canon_key reads its monomials' keys here, so all keys share one string
# per monomial; nothing else fills the memo, so a process that computes no
# canonical key (an enumerate run) keeps none.  The four classify jobs, run
# in one process, key 11,056 distinct monomials (the weak generator32
# generation 9,002 of them), fewer than the bound, so the memo is never
# emptied there
_MONO_KEYS = _Memo(_mono_key, 1 << 15)

# one classify pass (the four jobs in one process) divides by 12 distinct
# leads and meets at most 16 distinct coefficients under one lead, 117
# pairs in all, so no quotient memo is emptied there
_QUOTIENTS_PER_LEAD = 1 << 10


def _quotients_by(lead) -> _Memo:
    """The memo of ``c -> c / lead``, as a Poly stores it, for one ``lead``."""
    return _Memo(lambda c: _num(Fraction(c) / lead), _QUOTIENTS_PER_LEAD)


_QUOTIENTS = _Memo(_quotients_by, 1 << 7)


class Poly:
    """Immutable sparse multivariate polynomial over the rationals.

    ``Poly(registry, terms)`` takes ``terms`` mapping ``((variable id,
    exponent), ...)`` tuples to nonzero coefficients, each an ``int`` when
    integral and a ``Fraction`` otherwise, as given; every operation below
    returns coefficients in that form."""

    __slots__ = ("registry", "_terms", "_canon", "_support", "_lincand", "_content")

    def __init__(self, registry: VarRegistry, terms: dict):
        self.registry = registry
        self._terms = {_pack(mono): c for mono, c in terms.items()}
        self._canon = self._support = self._lincand = self._content = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(registry: VarRegistry, value) -> "Poly":
        q = value if type(value) is int else _num(Fraction(value))
        return _poly(registry, {_UNIT: q} if q else {})

    @staticmethod
    def zero(registry: VarRegistry) -> "Poly":
        return _poly(registry, {})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and _UNIT in terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[_UNIT])

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted ids of the variables that actually occur."""
        if self._support is None:
            self._support = _vars_of(reduce(or_, self._terms, 0))
        return self._support

    def degree_in(self, vid: int) -> int:
        shift = _FIELD_BITS * (vid + 1)
        return max(((m >> shift) & _FIELD for m in self._terms), default=0)

    def total_degree(self) -> int:
        return max((m & _FIELD for m in self._terms), default=0)

    def terms(self) -> tuple:
        """The terms as ``(((variable id, exponent), ...), coefficient)``
        pairs in print order, highest term first."""
        terms = self._terms
        return tuple((_mono_items(m), terms[m]) for m in self._sorted_monos())

    def _sorted_monos(self):
        # keys computed for this sort only: the memo is canon_key's
        return sorted(self._terms, key=_mono_key, reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.registry is not other.registry:
            raise ValueError("operands use different indeterminate registries")

    def _lift(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.registry, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for mono, c in o._terms.items():
            _accumulate(terms, mono, c)
        return _poly(self.registry, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.registry, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        # Poly first: a Poly fails isinstance(Fraction) only through the
        # slow ABC check
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = _num(other)
            if not q:
                return _poly(self.registry, {})
            return _poly(self.registry, {m: _num(c * q) for m, c in self._terms.items()})
        self._check(other)
        out: dict = {}
        left, right = self._terms, other._terms
        if not (left and right):  # a zero factor, as in most products of compose_many
            return _poly(self.registry, out)
        right = right.items()
        for m1, c1 in left.items():
            for m2, c2 in right:
                m = m1 + m2
                if m & _OVER:
                    raise _degree_error()
                _accumulate(out, m, c1 * c2)
        return _poly(self.registry, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Poly.constant(self.registry, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, vid: int, value) -> "Poly":
        """Replace every occurrence of one variable; unless ``value`` holds
        the variable, the result has degree 0 in it.  ``value`` may be a Poly
        over the same registry or a number."""
        if vid not in self.support:
            return self
        val = value if isinstance(value, Poly) else Poly.constant(self.registry, value)
        self._check(val)
        powers = [None, val]
        shift = _FIELD_BITS * (vid + 1)
        terms = self._terms
        # the terms free of the variable are distinct monomials: they stay as
        # they are, and the substituted terms accumulate onto them
        out = dict(terms)
        pop = out.pop
        bound = [(m, pop(m)) for m in terms if (m >> shift) & _FIELD]
        for mono, c in bound:
            e = (mono >> shift) & _FIELD
            rest = mono - (e << shift) - e
            for m2, c2 in _nth_power(powers, e)._terms.items():
                m = rest + m2
                if m & _OVER:
                    raise _degree_error()
                _accumulate(out, m, c * c2)
        return _poly(self.registry, out)

    def compose(self, mapping: dict[int, "Poly"], registry: VarRegistry) -> "Poly":
        """Substitute every variable simultaneously; values live in
        ``registry``.  All occurring variables must be mapped."""
        return compose_many([self], mapping, registry)[0]

    def evaluate(self, assignment: dict[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, c in self._terms.items():
            val = c
            for v, e in _mono_items(mono):
                if v not in assignment:
                    raise ValueError(
                        f"no value for {self.registry.name_of(v)!r}"
                    )
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    def content_vars(self) -> tuple[int, ...]:
        """Variables dividing every term; cached."""
        if self._content is None:
            monos = iter(self._terms)
            common = _vars_of(next(monos, _UNIT))
            for mono in monos:
                if not common:
                    break
                common = tuple(
                    v for v in common if (mono >> _FIELD_BITS * (v + 1)) & _FIELD
                )
            self._content = common
        return self._content

    def divide_once_by(self, vid: int) -> "Poly":
        """Exact quotient by one power of a variable dividing every term."""
        shift = _FIELD_BITS * (vid + 1)
        step = _power(vid, 1)
        out: dict = {}
        for mono, c in self._terms.items():
            if not (mono >> shift) & _FIELD:
                raise ValueError(f"{self.registry.name_of(vid)!r} does not divide every term")
            out[mono - step] = c
        return _poly(self.registry, out)

    # -- comparison and printing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.registry is other.registry and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.registry), frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def to_string(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, c in self.terms():
            body = self._render_term(abs(c), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def canon_key(self) -> tuple:
        """Hashable, totally ordered canonical key of the monic
        normalization: equal keys mean equality up to a nonzero rational
        factor.  Used to deduplicate and order constraint equations.  The key
        is one flat tuple ``(key_0, c_0, key_1, c_1, ...)`` of monomial keys
        and monic coefficients, highest monomial first; it compares as the
        tuple of ``(key_i, c_i)`` pairs would.  The quotients by the leading
        coefficient come from its memo."""
        if self._canon is None:
            terms = self._terms
            # monomial keys are distinct, so coefficients never compare
            key = [*chain.from_iterable(
                sorted(zip(map(_MONO_KEYS.__getitem__, terms), terms.values()), reverse=True)
            )]
            if key and key[1] != 1:
                key[1::2] = map(_QUOTIENTS[key[1]].__getitem__, key[1::2])
            self._canon = tuple(key)
        return self._canon

    def linear_candidates(self) -> tuple:
        """Variables occurring only as a bare degree-1 term, with their
        coefficients, by ascending id: exactly the eliminations
        ``v := -rest/coeff``.  Cached."""
        if self._lincand is None:
            terms = self._terms
            linear = []
            others = 0
            for mono in terms:
                if mono & _FIELD == 1:
                    linear.append(mono)
                else:
                    others |= mono
            cands = []
            for mono in sorted(linear):
                shift = mono.bit_length() - 1  # x_v's field, exponent 1
                if not (others >> shift) & _FIELD:
                    cands.append((shift // _FIELD_BITS - 1, terms[mono]))
            self._lincand = tuple(cands)
        return self._lincand

    def _render_term(self, coeff, mono) -> str:
        factors = []
        if not mono:
            return str(coeff)
        if coeff != 1:
            factors.append(str(coeff))
        for v, e in mono:
            name = self.registry.name_of(v)
            factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors)

    __str__ = to_string

    def __repr__(self):
        return f"Poly({self.to_string()})"


def _nth_power(powers: list, e: int) -> Poly:
    """``powers[e]`` of ``powers = [None, x, x^2, ...]``, extended by one
    product per missing power (a loop, so a high power cannot exhaust the
    recursion limit)."""
    while len(powers) <= e:
        powers.append(powers[-1] * powers[1])
    return powers[e]


_new = object.__new__


def _poly(registry: VarRegistry, terms: dict) -> Poly:
    """A Poly over packed monomials ``terms``, taken as given."""
    p = _new(Poly)
    p.registry = registry
    p._terms = terms
    p._canon = p._support = p._lincand = p._content = None
    return p


# one pattern per rule of the grammar in the module docstring; each token
# takes the whitespace after it, so no two patterns compete for a space and
# matching costs time linear in the length of the string
_RAT = re.compile(r"[0-9]+\s*(?:/\s*[0-9]+\s*)?")
_VARPOW = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\^\s*([0-9]+)\s*)?")
_TERM = re.compile(
    rf"(?:([+-])\s*)?((?:{_RAT.pattern}|{_VARPOW.pattern})(?:\*\s*{_VARPOW.pattern})*)"
)
# a term after the first must carry its sign
_POLY = re.compile(rf"\s*{_TERM.pattern}(?:(?=[+-]){_TERM.pattern})*")


def parse_poly(registry: VarRegistry, text: str) -> Poly:
    """Parse the string grammar in the module docstring."""
    if not _POLY.fullmatch(text):
        raise ValueError(f"bad polynomial syntax: {text[:40]!r}")
    terms: dict = {}
    for term in _TERM.finditer(text):
        coeff, factors = 1, []
        for factor in term[2].split("*"):
            varpow = _VARPOW.fullmatch(factor := factor.strip())
            if varpow is None:  # the term's leading rational
                coeff = parse_rational("".join(factor.split()))
                continue
            name, exp = varpow.groups()
            vid, exp = registry.id_of(name), int(exp or 1)
            if exp < 1:
                raise ValueError("exponent must be a positive integer")
            factors.append((vid, exp))
        mono = _pack(factors)  # before the zero test: a 0 term obeys the degree cap too
        if coeff:
            _accumulate(terms, mono, -coeff if term[1] == "-" else coeff)
    return _poly(registry, terms)


def compose_many(polys, mapping: dict[int, Poly], registry: VarRegistry) -> list[Poly]:
    """Simultaneous substitution into many polynomials with one shared
    monomial cache; the workhorse behind branch verification, where hundreds
    of equations reuse the same monomials.

    A term holding a variable mapped to 0 has the image 0.  One mask test
    skips it, unless it also holds a variable with no image, which raises as
    any unmapped variable does."""
    zero = 0  # the fields of the variables mapped to 0
    unmapped = ~_FIELD  # every field but the degree's and the mapped variables'
    for v, value in mapping.items():
        field = _FIELD << _FIELD_BITS * (v + 1)
        unmapped &= ~field
        if not value._terms:
            zero |= field
    pow_cache: dict[int, list] = {}  # variable id -> [None, x, x^2, ...]
    mono_cache: dict[int, tuple] = {_UNIT: ((_UNIT, 1),)}  # monomial -> its image's terms
    results = []
    for p in polys:
        out: dict = {}
        for mono, c in p._terms.items():
            if mono & zero and not mono & unmapped:
                continue
            image = mono_cache.get(mono)
            if image is None:
                piece = None
                for v, e in _mono_items(mono):
                    powers = pow_cache.get(v)
                    if powers is None:
                        if v not in mapping:
                            raise ValueError(f"no substitution for variable id {v}")
                        powers = pow_cache[v] = [None, mapping[v]]
                    factor = powers[e] if e < len(powers) else _nth_power(powers, e)
                    piece = factor if piece is None else piece * factor
                image = mono_cache[mono] = tuple(piece._terms.items())
            for m2, c2 in image:
                _accumulate(out, m2, c * c2)
        results.append(_poly(registry, out))
    return results


def _rational_sqrt(q) -> Fraction | None:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    sn, sd = math.isqrt(n), math.isqrt(d)
    if sn * sn != n or sd * sd != d:
        return None
    return Fraction(sn, sd)


def try_factor_split(p: Poly) -> list[Poly] | None:
    """Split a polynomial into nonconstant factors when one of the two
    recognized shapes applies.

    Shapes, tried in order: (1) a single variable dividing every term comes
    out as the factor ``x``; (2) a univariate quadratic with rational roots
    splits into two linear factors (the leading coefficient is absorbed into
    the first).  A univariate quadratic without rational roots, and every
    other shape, yields ``None``.  Successful splits multiply back exactly.
    """
    if p.is_zero() or p.is_constant():
        raise ValueError("factor splitting needs a nonzero, non-constant polynomial")

    # (1) single-variable monomial content
    content = p.content_vars()
    if content:
        v = content[0]
        quotient = p.divide_once_by(v)
        if quotient.is_constant():
            return None
        return [p.registry.var_by_id(v), quotient]

    # (2) univariate quadratic with rational roots
    if len(p.support) == 1 and p.total_degree() == 2:
        v = p.support[0]
        a = p._terms.get(_power(v, 2), 0)
        b = p._terms.get(_power(v, 1), 0)
        c = p._terms.get(_UNIT, 0)
        root = _rational_sqrt(b * b - 4 * a * c)
        if root is None:
            return None
        r1 = (-b + root) / (2 * a)
        r2 = (-b - root) / (2 * a)
        x = p.registry.var_by_id(v)
        return [(x - r1) * a, x - r2]

    return None
