"""Dense univariate polynomials over any ring descriptor.

A Polynomial keeps only canonical ring values: the dense kernel in
rings.py does its arithmetic and the ring's value hooks answer its
predicates; ``coeffs`` and ``coeff`` wrap values as RingElements on
demand. Provides the classical unit and nilpotency criteria (constant
term a unit plus nilpotent higher coefficients), plus brute-force
irreducibility, factorization and inverse search, each counted against
``errors.WORK_BUDGET`` before it starts. Factor order is canonical:
ascending degree, then ascending little-endian coefficient order, so
outputs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import ParameterError, RingMismatchError, check_work
from .rings import (
    Ring,
    RingElement,
    dense_add,
    dense_divmod,
    dense_is_irreducible,
    dense_mul,
    dense_neg,
    dense_trim,
)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polynomial:
    """Immutable dense polynomial; _values little-endian with no trailing zeros."""

    ring: Ring
    _values: tuple

    def __init__(self, ring: Ring, coeffs: Sequence = ()):
        values = []
        for c in coeffs:
            if isinstance(c, RingElement):
                if c.ring != ring:
                    raise RingMismatchError(
                        f"coefficient ring {c.ring.name()} != {ring.name()}"
                    )
                values.append(c.value)
            else:
                values.append(ring.canon(c))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_values", tuple(dense_trim(ring, values)))

    @classmethod
    def _from_values(cls, ring: Ring, values) -> "Polynomial":
        """Wrap canonical values that already have no trailing zeros."""
        f = object.__new__(cls)
        object.__setattr__(f, "ring", ring)
        object.__setattr__(f, "_values", tuple(values))
        return f

    # basic structure ------------------------------------------------
    @property
    def coeffs(self) -> tuple[RingElement, ...]:
        return tuple(RingElement(self.ring, v) for v in self._values)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._values) - 1

    def is_zero(self) -> bool:
        return not self._values

    def coeff(self, i: int) -> RingElement:
        if 0 <= i < len(self._values):
            return RingElement(self.ring, self._values[i])
        return self.ring.zero()

    def constant(self) -> RingElement:
        return self.coeff(0)

    def leading(self) -> RingElement:
        return self.coeff(self.degree())

    def __repr__(self):
        return f"{self.ring.name()}:[{','.join(map(self.ring.value_text, self._values))}]"

    # arithmetic -----------------------------------------------------
    def _check(self, other):
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            raise RingMismatchError("polynomial ring mismatch")

    def __add__(self, other):
        self._check(other)
        return self._from_values(self.ring, dense_add(self.ring, self._values, other._values))

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        return self._from_values(self.ring, dense_neg(self.ring, self._values))

    def __mul__(self, other):
        self._check(other)
        return self._from_values(self.ring, dense_mul(self.ring, self._values, other._values))

    def __pow__(self, e: int):
        out = self._from_values(self.ring, (self.ring.one_value,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c: RingElement) -> "Polynomial":
        return self * Polynomial(self.ring, [c])

    def __divmod__(self, other):
        """Long division; requires an invertible leading coefficient in the divisor."""
        self._check(other)
        q, r = dense_divmod(self.ring, self._values, other._values)
        return self._from_values(self.ring, q), self._from_values(self.ring, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self * self._from_values(self.ring, (self.ring.inverse_value(self._values[-1]),))

    # ordering -------------------------------------------------------
    def sort_key(self):
        """(degree, little-endian coefficient keys): the canonical order."""
        return (self.degree(), tuple(map(self.ring.value_sort_key, self._values)))

    # predicates from the classical criteria ---------------------------
    def is_unit(self) -> bool:
        """Constant term a unit and every higher coefficient nilpotent."""
        ring, values = self.ring, self._values
        if not values or not ring.is_unit_value(values[0]):
            return False
        return all(map(ring.is_nilpotent_value, values[1:]))

    def is_nilpotent(self) -> bool:
        """Every coefficient nilpotent (true for the zero polynomial)."""
        return all(map(self.ring.is_nilpotent_value, self._values))

    def is_irreducible(self) -> bool:
        """Brute-force irreducibility over a finite field.

        True when f admits no factorization g*h with deg g, deg h >= 1,
        decided by trial division by every monic polynomial of degree
        up to deg(f)/2.
        """
        if not self.ring.is_field:
            raise ParameterError(
                f"irreducibility requires a finite field, not {self.ring.name()}"
            )
        if self.degree() < 1:
            raise ParameterError("irreducibility is defined for degree >= 1")
        return dense_is_irreducible(self.ring, self._values)

    def factor(self) -> "Factorization":
        """Complete factorization over a finite field by trial division."""
        ring = self.ring
        if not ring.is_field:
            raise ParameterError(
                f"factorization requires a finite field, not {ring.name()}"
            )
        if self.is_zero():
            raise ParameterError("cannot factor the zero polynomial")
        steps = 0  # the irreducible lists below hold q^d monic candidates of degree d
        for d in range(1, self.degree() // 2 + 1):
            steps += ring.size() ** d
            check_work(steps, "factoring by trial division")
        unit = self.leading()
        rest = self.monic()._values
        factors: list[tuple[Polynomial, int]] = []
        d = 1
        while 2 * d < len(rest):
            for q in irreducible_monic_polynomials(ring, d):
                mult = 0
                while not (split := dense_divmod(ring, rest, q._values))[1]:
                    rest, mult = split[0], mult + 1
                if mult:
                    factors.append((q, mult))
                if 2 * d >= len(rest):
                    break
            d += 1
        if len(rest) > 1:
            factors.append((self._from_values(ring, rest), 1))
        return Factorization(unit, tuple(factors))


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity); factors monic irreducible, sorted."""

    unit: RingElement
    factors: tuple[tuple[Polynomial, int], ...]

    def product(self) -> Polynomial:
        ring = self.unit.ring
        out = Polynomial(ring, [self.unit])
        for f, m in self.factors:
            out = out * f ** m
        return out

    def __repr__(self):
        parts = " * ".join(f"({f!r})^{m}" for f, m in self.factors)
        return f"{self.unit.text()} * {parts}" if parts else self.unit.text()


# ---------------------------------------------------------------------------
# enumeration


def all_polynomials(ring: Ring, max_degree: int) -> Iterator[Polynomial]:
    """Every polynomial of degree <= max_degree over a finite ring, canonical order."""
    values = list(ring.element_values())
    yield Polynomial(ring)
    for d in range(max_degree + 1):
        for coeffs in itertools.product(*[values] * d, values[1:]):
            yield Polynomial._from_values(ring, coeffs)


def monic_polynomials(ring: Ring, degree: int) -> Iterator[Polynomial]:
    """Monic polynomials of exactly the given degree, canonical order."""
    for tail in itertools.product(ring.element_values(), repeat=degree):
        yield Polynomial._from_values(ring, (*tail, ring.one_value))


@lru_cache(maxsize=None)
def irreducible_monic_polynomials(ring: Ring, degree: int) -> tuple[Polynomial, ...]:
    """Cached list of monic irreducibles of the given degree, canonical order."""
    return tuple(
        f for f in monic_polynomials(ring, degree) if f.is_irreducible()
    )


# ---------------------------------------------------------------------------
# inverse search oracle


def search_inverse(f: Polynomial, degree_bound: int) -> Optional[Polynomial]:
    """Search for g with f*g == 1 and deg g <= degree_bound.

    Every inverse satisfies the convolution equations (f*g)_m = [m == 0],
    i.e. f0*g_m = [m == 0] - sum f_i*g_(m-i) over 1 <= i <= deg f. Some
    value solves f0*e = 1 only when f0 is a unit, and then every equation
    has exactly one solution, so the search walks a single path, taking
    the first ring value that solves each equation. A full product check
    verifies the result. f0 is never inverted, so the oracle stays
    independent of the unit criterion in Polynomial.is_unit.
    """
    ring = f.ring
    if ring.size() is None:
        raise ParameterError(f"inverse search requires a finite ring, not {ring.name()}")
    if degree_bound < 0:
        raise ParameterError(f"degree_bound must be >= 0, got {degree_bound}")
    check_work((degree_bound + 1) * ring.size(), "inverse search")
    if f.is_zero():
        return None
    add, mul, fv = ring.add_values, ring.mul_values, f._values
    elems = list(ring.element_values())
    g = []
    for m in range(degree_bound + 1):
        acc = ring.zero_value
        for i in range(1, min(m, len(fv) - 1) + 1):
            acc = add(acc, mul(fv[i], g[m - i]))
        need = ring.neg_value(acc) if m else ring.one_value
        e = next((e for e in elems if mul(fv[0], e) == need), None)
        if e is None:
            return None
        g.append(e)
    inverse = Polynomial(ring, g)
    return inverse if f * inverse == Polynomial(ring, [ring.one_value]) else None
