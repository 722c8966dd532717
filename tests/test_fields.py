import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from nilspace import ExactMatrix, PrimeField, RATIONALS


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


@pytest.mark.parametrize("field", [PrimeField(5), RATIONALS], ids=["F5", "Q"])
def test_booleans_are_not_field_elements(field):
    # a bool is an int in Python, so JSON true and false would read as 1
    # and 0; in a matrix too
    for x in (True, False):
        with pytest.raises(TypeError, match=f"cannot interpret {x}"):
            field.normalize(x)
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(field, [[0, True], [0, 0]])
    assert ExactMatrix.from_rows(field, [[0, 1], [0, 0]]).rows == ((0, 1), (0, 0))


@given(st.sampled_from([2, 5, 7, 65537]), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_prime_field_normalizes_a_fraction_by_inverting_its_denominator(p, a, b):
    # with p not dividing a, p divides b exactly when it divides the
    # denominator of the reduced Fraction(a, b)
    assume(a % p)
    if b % p == 0:
        with pytest.raises(ZeroDivisionError):
            PrimeField(p).normalize(Fraction(a, b))
    else:
        assert PrimeField(p).normalize(Fraction(a, b)) == a * pow(b, -1, p) % p


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
