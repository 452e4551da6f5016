"""Sparse multivariate polynomials over exact rationals.

A :class:`Poly` stores a map from monomials to nonzero rational
coefficients; a monomial is a tuple of ``(variable id, exponent)`` pairs
sorted by id with all exponents positive.  A coefficient is kept as an
``int`` whenever it is integral and as a :class:`~fractions.Fraction` only
otherwise, so the integer systems the solver works on never go through
``Fraction`` arithmetic.  The representation carries no meaning: ``2`` and
``Fraction(2)`` compare, hash and print alike, so a Poly built directly with
integral Fractions behaves exactly like its ``int`` twin.

Printing orders terms by graded lexicographic order on variable ids
(highest term first) and is byte-stable: two polynomials over the same
registry are equal iff their printed forms coincide.

String grammar (used in JSON payloads and reports)::

    poly   := ['-'] term (('+' | '-') term)*
    term   := coeff ('*' varpow)* | varpow ('*' varpow)*
    coeff  := INT ['/' INT]
    varpow := NAME ['^' POSINT]

Whitespace is insignificant.  Example: ``2*a^2 - a``.

Factor splitting is deliberately limited to the shapes needed by the branch
solver: single-variable monomial content, and univariate quadratics with
rational roots.  Anything else reports "no split" and the caller records the
branch as unresolved.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .exactmath import FpElement, parse_rational, rational_mod_p

__all__ = ["VarRegistry", "Poly", "parse_poly", "compose_many", "try_factor_split"]

Mono = tuple  # tuple[tuple[int, int], ...]

_UNIT_MONO: Mono = ()


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

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def var(self, name: str) -> "Poly":
        """Polynomial for a single variable, registering the name if new."""
        vid = self._ids.get(name)
        if vid is None:
            vid = self.add(name)
        return Poly(self, {((vid, 1),): 1})

    def var_by_id(self, vid: int) -> "Poly":
        return Poly(self, {((vid, 1),): 1})

    def constant(self, value) -> "Poly":
        return Poly.constant(self, value)


# one classify run keys about 20k distinct monomials; the memo saves the
# rebuild and lets every canon_key share one key tuple per monomial
@lru_cache(maxsize=1 << 15)
def _mono_key(mono: Mono):
    if not mono:
        return (0, ())
    deg = 0
    top = mono[-1][0]
    dense = [0] * (top + 1)
    for v, e in mono:
        dense[v] = e
        deg += e
    return (deg, tuple(dense))


def _num(q):
    """A rational as a Poly stores it: ``int`` when integral, else the
    Fraction itself."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _accumulate(terms: dict, mono: Mono, c) -> None:
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


def _quotient(c, lead):
    """``c / lead`` for nonzero coefficients, as a Poly stores it; exact
    integer division where ``lead`` divides ``c``."""
    if type(c) is int and type(lead) is int:
        q, r = divmod(c, lead)
        return Fraction(c, lead) if r else q
    return _num(c / lead)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[int, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """Immutable sparse multivariate polynomial over the rationals.

    ``terms`` maps monomials to nonzero coefficients, each an ``int`` when
    integral and a ``Fraction`` otherwise.  The constructor takes ``terms``
    as given; every operation below returns coefficients in that form."""

    __slots__ = ("registry", "terms", "_str", "_canon", "_support", "_lincand", "_content")

    def __init__(self, registry: VarRegistry, terms: dict):
        self.registry = registry
        self.terms = terms
        self._str = None
        self._canon = None
        self._support = None
        self._lincand = None
        self._content = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(registry: VarRegistry, value) -> "Poly":
        q = value if type(value) is int else _num(Fraction(value))
        return Poly(registry, {_UNIT_MONO: q} if q else {})

    @staticmethod
    def zero(registry: VarRegistry) -> "Poly":
        return Poly(registry, {})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _UNIT_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms[_UNIT_MONO])

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted ids of the variables that actually occur."""
        if self._support is None:
            seen: set[int] = set()
            for mono in self.terms:
                for v, _ in mono:
                    seen.add(v)
            self._support = tuple(sorted(seen))
        return self._support

    def degree_in(self, vid: int) -> int:
        best = 0
        for mono in self.terms:
            for v, e in mono:
                if v == vid and e > best:
                    best = e
        return best

    def total_degree(self) -> int:
        best = 0
        for mono in self.terms:
            d = sum(e for _, e in mono)
            if d > best:
                best = d
        return best

    def _sorted_monos(self):
        return sorted(self.terms, key=_mono_key, reverse=True)

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
        terms = dict(self.terms)
        for mono, c in o.terms.items():
            _accumulate(terms, mono, c)
        return Poly(self.registry, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.registry, {m: -c for m, c in self.terms.items()})

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
        if isinstance(other, (int, Fraction)):
            q = _num(other)
            if not q:
                return Poly(self.registry, {})
            return Poly(self.registry, {m: _num(c * q) for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return Poly(self.registry, out)

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
        """Replace every occurrence of one variable; the result has degree 0
        in it.  ``value`` may be a Poly over the same registry or a number."""
        if vid not in self.support:
            return self
        val = value if isinstance(value, Poly) else Poly.constant(self.registry, value)
        self._check(val)
        powers: dict[int, Poly] = {1: val}

        def val_pow(e: int) -> Poly:
            got = powers.get(e)
            if got is None:
                got = val_pow(e - 1) * val
                powers[e] = got
            return got

        out: dict = {}
        for mono, c in self.terms.items():
            e = 0
            rest = []
            for v, ex in mono:
                if v == vid:
                    e = ex
                else:
                    rest.append((v, ex))
            if e == 0:
                _accumulate(out, mono, c)
                continue
            rest_mono = tuple(rest)
            for m2, c2 in val_pow(e).terms.items():
                _accumulate(out, _mono_mul(rest_mono, m2), c * c2)
        return Poly(self.registry, out)

    def compose(self, mapping: dict[int, "Poly"], registry: VarRegistry) -> "Poly":
        """Substitute every variable simultaneously; values live in
        ``registry``.  All occurring variables must be mapped."""
        return compose_many([self], mapping, registry)[0]

    def evaluate(self, assignment: dict[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                if v not in assignment:
                    raise ValueError(
                        f"no value for {self.registry.name_of(v)!r}"
                    )
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    def evaluate_mod_p(self, assignment: dict[int, FpElement]) -> FpElement:
        """Exact image under reduction to F_p plus the given assignment; the
        assignment must cover every occurring variable and share one modulus."""
        p = None
        for x in assignment.values():
            if p is None:
                p = x.modulus
            elif x.modulus != p:
                raise ValueError("assignment mixes prime fields")
        if p is None:
            if self.support:
                raise ValueError("empty assignment for non-constant polynomial")
            raise ValueError("cannot infer modulus from an empty assignment")
        total = 0
        for mono, c in self.terms.items():
            val = rational_mod_p(c, p).value
            for v, e in mono:
                if v not in assignment:
                    raise ValueError(
                        f"no value for {self.registry.name_of(v)!r}"
                    )
                val = val * pow(assignment[v].value, e, p) % p
            total = (total + val) % p
        return FpElement(total, p)

    def content_vars(self) -> tuple[int, ...]:
        """Variables dividing every term; cached."""
        if self._content is None:
            if not self.terms:
                self._content = ()
            else:
                it = iter(self.terms)
                common = {v for v, _ in next(it)}
                for mono in it:
                    common &= {v for v, _ in mono}
                    if not common:
                        break
                self._content = tuple(sorted(common))
        return self._content

    def divide_once_by(self, vid: int) -> "Poly":
        """Exact quotient by one power of a variable dividing every term."""
        out: dict = {}
        for mono, c in self.terms.items():
            reduced = []
            hit = False
            for v, e in mono:
                if v == vid:
                    hit = True
                    if e > 1:
                        reduced.append((v, e - 1))
                else:
                    reduced.append((v, e))
            if not hit:
                raise ValueError(f"{self.registry.name_of(vid)!r} does not divide every term")
            out[tuple(reduced)] = c
        return Poly(self.registry, out)

    # -- comparison and printing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.registry is other.registry and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.registry), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def to_string(self) -> str:
        if self._str is None:
            if not self.terms:
                self._str = "0"
            else:
                parts: list[str] = []
                for mono in self._sorted_monos():
                    c = self.terms[mono]
                    body = self._render_term(abs(c), mono)
                    if not parts:
                        parts.append(body if c > 0 else "-" + body)
                    else:
                        parts.append((" + " if c > 0 else " - ") + body)
                self._str = "".join(parts)
        return self._str

    def canon_key(self) -> tuple:
        """Hashable, totally ordered canonical key of the monic
        normalization: equal keys mean equality up to a nonzero rational
        factor.  Used to deduplicate and order constraint equations."""
        if self._canon is None:
            if not self.terms:
                self._canon = ()
            else:
                terms = self.terms
                items = sorted(((_mono_key(m), m) for m in terms), reverse=True)
                lead = terms[items[0][1]]
                if lead == 1:
                    self._canon = tuple((mk, terms[m]) for mk, m in items)
                elif lead == -1:
                    self._canon = tuple((mk, -terms[m]) for mk, m in items)
                else:
                    self._canon = tuple((mk, _quotient(terms[m], lead)) for mk, m in items)
        return self._canon

    def linear_candidates(self) -> tuple:
        """Variables occurring only as a bare degree-1 term, with their
        coefficients: exactly the eliminations ``v := -rest/coeff``.  Cached."""
        if self._lincand is None:
            occ: dict[int, int] = {}
            solo: dict[int, Fraction] = {}
            for mono, c in self.terms.items():
                if len(mono) == 1 and mono[0][1] == 1:
                    solo[mono[0][0]] = c
                for v, _e in mono:
                    occ[v] = occ.get(v, 0) + 1
            self._lincand = tuple(
                (v, solo[v]) for v in sorted(solo) if occ[v] == 1
            )
        return self._lincand

    def _render_term(self, coeff, mono: Mono) -> str:
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*^]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ValueError(f"bad polynomial syntax near {tail[:20]!r}")
        pos = m.end()
        if m.group("rat") is not None:
            tokens.append(("rat", m.group("rat").replace(" ", "")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_poly(registry: VarRegistry, text: str, *, register_missing: bool = False) -> Poly:
    """Parse the string grammar in the module docstring."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial string")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError(f"polynomial ends early: {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_varpow():
        kind, name = take()
        if kind != "name":
            raise ValueError(f"expected variable name, got {name!r}")
        if name not in registry:
            if not register_missing:
                raise ValueError(f"unknown indeterminate {name!r}")
            registry.add(name)
        vid = registry.id_of(name)
        exp = 1
        if peek() == ("op", "^"):
            take()
            kind, val = take()
            if kind != "rat" or "/" in val:
                raise ValueError("exponent must be a positive integer")
            exp = int(val)
            if exp < 1:
                raise ValueError("exponent must be a positive integer")
        return vid, exp

    def parse_term():
        coeff = 1
        exps: dict[int, int] = {}
        kind, val = peek()
        if kind == "rat":
            take()
            coeff = parse_rational(val)
            while peek() == ("op", "*"):
                take()
                vid, e = parse_varpow()
                exps[vid] = exps.get(vid, 0) + e
        elif kind == "name":
            vid, e = parse_varpow()
            exps[vid] = exps.get(vid, 0) + e
            while peek() == ("op", "*"):
                take()
                vid, e = parse_varpow()
                exps[vid] = exps.get(vid, 0) + e
        else:
            raise ValueError(f"expected a term, got {val!r}")
        mono = tuple(sorted(exps.items()))
        return Poly(registry, {mono: coeff} if coeff else {})

    sign = 1
    if peek() == ("op", "-"):
        take()
        sign = -1
    elif peek() == ("op", "+"):
        take()
    acc = parse_term() * sign
    while pos < len(tokens):
        kind, opv = take()
        if kind != "op" or opv not in "+-":
            raise ValueError(f"expected '+' or '-', got {opv!r}")
        term = parse_term()
        acc = acc + term if opv == "+" else acc - term
    return acc


def compose_many(polys, mapping: dict[int, Poly], registry: VarRegistry) -> list[Poly]:
    """Simultaneous substitution into many polynomials with one shared
    monomial cache; the workhorse behind branch verification, where hundreds
    of equations reuse the same monomials."""
    pow_cache: dict[tuple[int, int], Poly] = {}

    def var_pow(v: int, e: int) -> Poly:
        got = pow_cache.get((v, e))
        if got is None:
            if v not in mapping:
                raise ValueError(f"no substitution for variable id {v}")
            got = mapping[v] if e == 1 else var_pow(v, e - 1) * mapping[v]
            pow_cache[(v, e)] = got
        return got

    one = Poly.constant(registry, 1)
    mono_cache: dict[Mono, Poly] = {_UNIT_MONO: one}
    results = []
    for p in polys:
        out: dict = {}
        for mono, c in p.terms.items():
            piece = mono_cache.get(mono)
            if piece is None:
                piece = var_pow(*mono[0])
                for v, e in mono[1:]:
                    piece = piece * var_pow(v, e)
                mono_cache[mono] = piece
            for m2, c2 in piece.terms.items():
                _accumulate(out, m2, c * c2)
        results.append(Poly(registry, out))
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
        a = p.terms.get(((v, 2),), 0)
        b = p.terms.get(((v, 1),), 0)
        c = p.terms.get(_UNIT_MONO, 0)
        root = _rational_sqrt(b * b - 4 * a * c)
        if root is None:
            return None
        r1 = (-b + root) / (2 * a)
        r2 = (-b - root) / (2 * a)
        x = p.registry.var_by_id(v)
        return [(x - r1) * a, x - r2]

    return None
