"""Principal ideals of Z for the ideal-based ciphers.

An ideal is its canonical nonnegative generator; the norm of (n) is the
index of (n) in Z, namely n itself. Size comparisons from the key
setups are read as norm comparisons, the only interpretation that makes
the procedures executable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .arith import is_prime
from .errors import CeilingError, ParameterError


@dataclass(frozen=True)
class PrincipalIdeal:
    """(n) as its canonical generator n >= 0; (0) is zero, (1) the unit ideal."""

    generator: int

    def __post_init__(self):
        if self.generator < 0:
            object.__setattr__(self, "generator", -self.generator)

    def __mul__(self, other: "PrincipalIdeal") -> "PrincipalIdeal":
        return PrincipalIdeal(self.generator * other.generator)

    def contains(self, other: "PrincipalIdeal") -> bool:
        """(a) contains (b) exactly when a divides b."""
        if self.generator == 0:
            return other.generator == 0
        return other.generator % self.generator == 0

    def norm(self) -> int | float:
        """Index of the ideal in Z; infinite for the zero ideal."""
        if self.generator == 0:
            return math.inf
        return self.generator

    def is_prime_ideal(self) -> bool:
        return is_prime(self.generator)

    def __repr__(self):
        try:
            return f"({self.generator})"
        except ValueError:  # str() writes at most sys.get_int_max_str_digits() digits
            raise CeilingError(f"a generator of {self.generator.bit_length()} bits has more "
                               "digits than str() writes") from None


def ideal(n: int) -> PrincipalIdeal:
    return PrincipalIdeal(n)


def totient_ideal(p: PrincipalIdeal, q: PrincipalIdeal) -> PrincipalIdeal:
    """((p-1)(q-1)) for distinct prime generators."""
    if not p.is_prime_ideal():
        raise ParameterError(f"{p!r} does not have a prime generator")
    if not q.is_prime_ideal():
        raise ParameterError(f"{q!r} does not have a prime generator")
    if p.generator == q.generator:
        raise ParameterError("the two prime ideals must be distinct")
    return PrincipalIdeal((p.generator - 1) * (q.generator - 1))


def reduce_ideal(a: PrincipalIdeal, modulus: PrincipalIdeal) -> PrincipalIdeal:
    """(a mod m): generator reduced modulo the modulus generator."""
    if modulus.generator == 0:
        return a
    return PrincipalIdeal(a.generator % modulus.generator)


def inverse_ideal(e: PrincipalIdeal, modulus: PrincipalIdeal) -> PrincipalIdeal:
    """(d) with e*d = 1 modulo the modulus generator, d in [1, modulus)."""
    m = modulus.generator
    if m < 2:
        raise ParameterError(f"modulus {modulus!r} is too small for inversion")
    if gcd(e.generator, m) != 1:
        raise ParameterError(
            f"gcd({e.generator}, {m}) = {gcd(e.generator, m)} != 1; no inverse exists"
        )
    d = pow(e.generator, -1, m)
    assert (e.generator * d) % m == 1
    return PrincipalIdeal(d)
