import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilspace import PrimeField, RATIONALS


def test_prime_field_rejects_composites():
    # 3215031751 and 3825123056546413051 are strong pseudoprimes to the
    # prime bases up to 7 and up to 23; 2^61 + 1 is divisible by 3
    for bad in (0, 1, 4, 6, 9, 91, 3_215_031_751, 3_825_123_056_546_413_051, 2**61 + 1):
        with pytest.raises(ValueError):
            PrimeField(bad)
    # trial division did not finish on 2^61 - 1 within 60 s (2-core machine)
    start = time.perf_counter()
    for good in (2, 3, 5, 7, 65537, 2**61 - 1):
        assert PrimeField(good).p == good
    assert time.perf_counter() - start < 1.0


def test_is_prime_agrees_with_trial_division_below_100000():
    from nilspace.fields import is_prime

    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if trial_division(n)
    ]


def test_prime_field_cardinality_and_equality():
    f5 = PrimeField(5)
    assert f5.cardinality == 5
    assert f5 == PrimeField(5)
    assert f5 != PrimeField(7)
    assert f5 != RATIONALS
    assert RATIONALS.cardinality == float("inf")


def test_normalization_is_canonical():
    f7 = PrimeField(7)
    assert f7.normalize(-1) == 6
    assert f7.normalize(14) == 0
    assert f7.normalize("12") == 5
    assert f7.normalize(Fraction(1, 2)) == 4  # 2^-1 = 4 mod 7
    assert RATIONALS.normalize("3/6") == Fraction(1, 2)
    assert RATIONALS.normalize(4) == Fraction(4)


def test_rationals_reject_floats():
    with pytest.raises(TypeError):
        RATIONALS.normalize(0.5)


def test_scalar_division_by_zero_rejected():
    f5 = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f5.scalar(3) / f5.scalar(0)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.scalar(1) / RATIONALS.scalar(0)


def test_scalar_arithmetic_examples():
    f5 = PrimeField(5)
    a, b = f5.scalar(3), f5.scalar(4)
    assert (a + b).value == 2
    assert (a - b).value == 4
    assert (a * b).value == 2
    assert (a / b).value == 2  # 4^-1 = 4, 3*4 = 12 = 2
    assert (-a).value == 2
    q = RATIONALS.scalar("2/3")
    assert (q + 1).value == Fraction(5, 3)
    assert (q * Fraction(3, 2)).value == 1


def test_scalars_from_different_fields_do_not_mix():
    with pytest.raises(ValueError):
        PrimeField(5).scalar(1) + PrimeField(7).scalar(1)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_field_axioms_f7(x, y, z):
    f = PrimeField(7)
    a, b, c = f.scalar(x), f.scalar(y), f.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + f.scalar(0) == a
    assert a * f.scalar(1) == a
    assert a + (-a) == f.scalar(0)
    if b.value != 0:
        assert (a / b) * b == a


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms_rationals(x, y, z):
    f = RATIONALS
    a, b, c = f.scalar(x), f.scalar(y), f.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if y != 0:
        assert (a / b) * b == a


def test_scalar_is_immutable():
    s = PrimeField(5).scalar(2)
    with pytest.raises(AttributeError):
        s.value = 3


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 65521, 65537, 1_000_003, 16_777_259, 2**31 - 1])
def test_modular_square_roots(p):
    # 65537 = 2^16 + 1 takes the most Tonelli-Shanks steps
    import random

    from nilspace.fields import _sqrt_mod

    rng = random.Random(p)
    xs = range(p) if p < 100 else [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]
    for x in xs:
        root = _sqrt_mod(x, p)
        if root is None:
            assert pow(x, (p - 1) // 2, p) == p - 1
        else:
            assert 0 <= root < p and root * root % p == x
