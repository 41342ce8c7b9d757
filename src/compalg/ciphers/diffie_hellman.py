"""Two-party shared-secret derivation over principal ideals.

Both parties publish g*secret mod p (all on ideal generators) and
derive the same shared ideal g*a*b mod p; the identity holds because
generator multiplication is commutative. Like everything here it is a
teaching artifact: the "secret" is recoverable by division.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..ideals import PrincipalIdeal, reduce_ideal


@dataclass(frozen=True)
class DhParams:
    """Shared parameters: prime ideal (p) and base ideal (g), norm p < norm g."""

    p: PrincipalIdeal
    g: PrincipalIdeal

    def __post_init__(self):
        if not self.p.is_prime_ideal():
            raise ParameterError(f"{self.p!r} must have a prime generator")
        if self.g.generator < 2:
            raise ParameterError(f"base ideal {self.g!r} must have generator >= 2")
        if not self.p.norm() < self.g.norm():
            raise ParameterError(
                f"norm{self.p!r} = {self.p.norm()} must be below norm{self.g!r} = {self.g.norm()}"
            )


@dataclass(frozen=True)
class DhExchange:
    """Everything both parties see, plus both derived secrets for checking."""

    public_first: PrincipalIdeal   # A = g*a mod p
    public_second: PrincipalIdeal  # B = g*b mod p
    shared_first: PrincipalIdeal   # B*a mod p
    shared_second: PrincipalIdeal  # A*b mod p


def dh_exchange(params: DhParams, a: int, b: int) -> DhExchange:
    """Run the exchange with the two secret multipliers a and b."""
    if a < 1 or b < 1:
        raise ParameterError("secret multipliers must be >= 1")
    p, g = params.p, params.g
    pub_a = reduce_ideal(g * PrincipalIdeal(a), p)
    pub_b = reduce_ideal(g * PrincipalIdeal(b), p)
    shared_first = reduce_ideal(pub_b * PrincipalIdeal(a), p)
    shared_second = reduce_ideal(pub_a * PrincipalIdeal(b), p)
    return DhExchange(pub_a, pub_b, shared_first, shared_second)
