import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from posthopf.exactmath import (
    is_odd_prime,
    kernel_basis,
    parse_rational,
    rational_mod_p,
    rref,
)
from posthopf.triangleop import op_from_json_dict

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_fraction_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(2, 4).numerator == 1 and Fraction(2, 4).denominator == 2


def test_fraction_serialization():
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(Fraction(7)) == "7"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("a")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational(5)
    for bad in ("1\n", "1/2\n", " 1", "1 "):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(rationals, rationals)
def test_fraction_roundtrip_add(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda x: x != 0))
def test_fraction_roundtrip_mul(a, b):
    assert (a * b) / b == a


def test_odd_prime_detection():
    assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def _odd_prime_by_trial_division(n: int) -> bool:
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_odd_prime_agrees_with_trial_division():
    for n in range(-2, 20000):
        assert is_odd_prime(n) == _odd_prime_by_trial_division(n), n


def test_odd_prime_rejects_pseudoprimes():
    # strong pseudoprimes to the first 1, 2, 3, 4, 9 and 12 prime bases, and
    # the Carmichael number 561
    for n in (
        2047, 1373653, 25326001, 3215031751, 3825123056546413051,
        318665857834031151167461, 561,
    ):
        assert not is_odd_prime(n), n


def test_odd_prime_large():
    assert is_odd_prime(2**61 - 1)
    assert is_odd_prime(1000000000000037)
    assert not is_odd_prime((2**31 - 1) * 1000000000000037)
    # from the least strong pseudoprime to the first 13 prime bases on, the
    # fixed bases prove nothing: no answer
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError):
            is_odd_prime(n)


def test_fp_basic():
    # F_p values are ints in 0..p-1, computed by the reduction map
    assert rational_mod_p(7, 5) == 2
    assert rational_mod_p(Fraction(1, 2), 5) == 3
    assert rational_mod_p(Fraction(2, 3), 5) == 4
    assert rational_mod_p(-1, 5) == 4
    assert rational_mod_p(2**3, 5) == 3


def test_fp_rejects_bad_modulus():
    # an F_p table names its modulus, which must be an odd prime
    for p in (2, 9, 1, -5):
        with pytest.raises(ValueError):
            op_from_json_dict({"dim": 4, "ring": {"prime": p}, "table": [[["0"] * 4] * 4] * 4})


def test_fp_division_by_zero():
    # a rational whose denominator p divides has no value in F_p
    for q in (Fraction(1, 5), Fraction(2, 25)):
        with pytest.raises(ZeroDivisionError):
            rational_mod_p(q, 5)


def test_fp_rational_coercion():
    assert rational_mod_p(Fraction(-7, 3), 5) == 1
    assert rational_mod_p(-7, 5) == 3
    assert all(type(rational_mod_p(q, 7)) is int for q in (Fraction(1, 2), 9, Fraction(4)))


def F(*vals):
    return [Fraction(v) for v in vals]


def test_rref_examples():
    red, pivots = rref([F(1, 0), F(0, 1)])
    assert red == [F(1, 0), F(0, 1)] and pivots == [0, 1]

    red, pivots = rref([F(2, 4), F(1, 2)])
    assert red == [F(1, 2), F(0, 0)] and pivots == [0]

    red, pivots = rref([F(0, 1), F(1, 0)])
    assert red == [F(1, 0), F(0, 1)] and pivots == [0, 1]


def test_kernel_examples():
    assert kernel_basis([F(1, 0), F(0, 1)]) == []
    assert kernel_basis([F(1, -1)]) == [[Fraction(1), Fraction(1)]]
    assert kernel_basis([F(0, 0), F(0, 0)]) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_rref_and_kernel_reject_malformed_matrices():
    with pytest.raises(ValueError):
        rref([F(1, 0), F(1)])
    with pytest.raises(ValueError):
        kernel_basis([])


def test_rref_of_int_matrix_is_exact():
    # an int pivot is read as a rational: int / int would give a float
    red, pivots = rref([[2, 1, 0], [0, 3, 1]])
    assert red == [F(1, 0, Fraction(-1, 6)), F(0, 1, Fraction(1, 3))]
    assert pivots == [0, 1]
    assert all(type(x) is Fraction for row in red for x in row)
    ker = kernel_basis([[2, 1, 0], [0, 3, 1]])
    assert ker == [[Fraction(1, 6), Fraction(-1, 3), Fraction(1)]]
    assert all(type(x) is Fraction for v in ker for x in v)
    assert all(type(x) is Fraction for v in kernel_basis([[0, 0], [0, 0]]) for x in v)


def _random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def mat_vec(matrix, vec):
    out = []
    for row in matrix:
        acc = row[0] * vec[0]
        for a, b in zip(row[1:], vec[1:]):
            acc = acc + a * b
        out.append(acc)
    return out


def test_rref_idempotent_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert again == red and pivots2 == pivots
        ker = kernel_basis(m)
        assert len(pivots) + len(ker) == len(m[0])
        for v in ker:
            assert all(x == 0 for x in mat_vec(m, v))
