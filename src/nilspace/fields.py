"""The coefficient fields: prime fields F_p and the rationals.

A field element is a *raw* canonical representative: an int in ``[0, p)``
for F_p, a reduced :class:`fractions.Fraction` for the rationals.  Code
computes on plain ints and Fractions and maps each result into its field
with ``FieldSpec.normalize``, the one entry point from Python numbers to a
field; the matrix kernels take the field as its prime, or None for Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

# Moduli are restricted to machine-word size; extension fields are out of scope.
MAX_PRIME = 2**63

RawScalar = Union[int, Fraction]


# the primes up to 37: as Miller-Rabin bases they leave no strong
# pseudoprime below 3.18 * 10^23 (Sorenson and Webster 2015), past MAX_PRIME
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for p < 3.18 * 10^23."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0  # p - 1 = d * 2^s, d odd
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
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


def _sqrt_mod(x: int, p: int) -> Optional[int]:
    """A square root of x mod the odd prime p, or None when x is not a
    square, by Tonelli-Shanks."""
    x %= p
    if x == 0:
        return 0
    if pow(x, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0  # p - 1 = q * 2^s, q odd
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2  # the least non-residue
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, root = pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
    while t != 1:  # root^2 = x t, and t has order 2^i < 2^s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


class FieldSpec:
    """A coefficient field: F_p for a prime p, or the rationals.

    A field describes its elements and computes nothing: arithmetic runs on
    plain ints and Fractions, and ``normalize`` maps an int, a Fraction or
    a string ('a/b' only over Q) to its canonical representative, so a
    result is brought into the field by normalizing it.  ``is_canonical``
    tells whether a value already is one.
    """

    @property
    def cardinality(self):
        raise NotImplementedError

    def normalize(self, x) -> RawScalar:
        raise NotImplementedError

    def is_canonical(self, x) -> bool:
        raise NotImplementedError

    @property
    def zero(self) -> RawScalar:
        raise NotImplementedError

    @property
    def one(self) -> RawScalar:
        raise NotImplementedError


class PrimeField(FieldSpec):
    """The field of integers modulo a prime ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_PRIME:
            raise ValueError(f"modulus must be an integer in [2, 2^63): {p!r}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime: {p}")
        self.p = p

    @property
    def cardinality(self) -> int:
        return self.p

    def normalize(self, x) -> int:
        """The residue of x in [0, p); a Fraction a/b maps to a * b^-1, and
        raises ``ZeroDivisionError`` when p divides b.  A bool is not a
        number here and raises ``TypeError``."""
        if isinstance(x, bool):
            raise TypeError(f"cannot interpret {x!r} as an element of F_{self.p}")
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, str):
            x = int(x)
        if not isinstance(x, int):
            raise TypeError(f"cannot interpret {x!r} as an element of F_{self.p}")
        return x % self.p

    def is_canonical(self, x) -> bool:
        return type(x) is int and 0 <= x < self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField(FieldSpec):
    """The field of rational numbers with arbitrary-precision fractions."""

    __slots__ = ()

    @property
    def cardinality(self):
        return math.inf

    def normalize(self, x) -> Fraction:
        if isinstance(x, float):
            raise TypeError("floating-point values are not exact; use int, str or Fraction")
        if isinstance(x, bool):
            raise TypeError(f"cannot interpret {x!r} as a rational")
        return Fraction(x)

    def is_canonical(self, x) -> bool:
        return type(x) is Fraction

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


#: Shared instance of the rational field.
RATIONALS = RationalField()
