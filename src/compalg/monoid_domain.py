"""Monoid domains B[M] over numerical monoids M.

M is a finitely generated submonoid of the nonnegative integers.
Membership is answered from the Apery set of the smallest generator g1:
for each residue r mod g1, the least member congruent to r (none when
the generators' gcd rules the residue out). m is a member iff it is at
least that least member of its residue class, so after one O(k*g1)
build (Bocker & Liptak's round robin) every query is O(1), whatever
the size of m. Elements are sparse exponent -> coefficient maps; every
exponent must be a member of M. The module also builds the certified
irreducible elements of the shape p(r-1)*X^m(r) - ... - p1*X^m2 - X^m1
and verifies them with a brute-force factorization search. This module
supplies the search's coefficient pools (a box over Z, the whole ring
over a finite field, zero at exponents outside M) and its acceptance
test (the cofactor is supported on M). Over Z it lists one divisor of
each associate pair g, -g (the positive leading coefficient), and skips,
before dividing, a g whose value at 1, -1, 2 or -2 does not divide f's
(g*h = f gives g(x)*h(x) = f(x)); over a finite field every candidate is
divided.

Restricting to numerical monoids is what keeps everything decidable;
it also grants the construction's standing hypotheses for free (the
difference group is Z: integrally closed, no nontrivial divisible
elements, ascending chains of cyclic subgroups stabilize). Those are
assumed, not checked, and would need revisiting for any wider monoid
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Optional

from .arith import divisors, is_prime
from .errors import (
    CeilingError,
    MembershipError,
    ParameterError,
    RingMismatchError,
    check_work,
)
from .rings import Integers, Ring, RingElement, dense_find_divisor


@dataclass(frozen=True, slots=True, repr=False)
class NumericalMonoid:
    """Submonoid of (N0, +) generated by finitely many positive integers."""

    generators: tuple[int, ...]
    # Apery set of three or more generators, built by the first query m >= g1
    _apery: Optional[list] = field(default=None, init=False, compare=False)

    def __post_init__(self):
        gens = sorted(set(int(g) for g in self.generators))
        if not gens or gens[0] <= 0:
            raise ParameterError("generators must be positive integers")
        object.__setattr__(self, "generators", tuple(gens))

    def __repr__(self):
        return f"M<{','.join(str(g) for g in self.generators)}>"

    def contains(self, m: int) -> bool:
        """Is m a nonnegative integer combination of the generators?"""
        if m < 0:
            raise ParameterError(f"monoid membership is defined for m >= 0, got {m}")
        g1 = self.generators[0]
        if m < g1:
            return m == 0
        if len(self.generators) <= 2:
            # <a, b> = d<a', b'>, and m' = i*a' + j*b' needs i >= 0 for the
            # least j = m' * b'^(-1) mod a'. One generator is the case b = a.
            a, b = g1, self.generators[-1]
            d = gcd(a, b)
            if m % d:
                return False
            m, a, b = m // d, a // d, b // d
            return m >= m * pow(b, -1, a) % a * b
        if self._apery is None:
            check_work(g1, f"the Apery table of {self!r}")
            object.__setattr__(self, "_apery", _apery_set(self.generators))
        least = self._apery[m % g1]
        return least is not None and least <= m

    def __contains__(self, m: int) -> bool:
        return self.contains(m)

    def members_upto(self, bound: int) -> list[int]:
        return [m for m in range(bound + 1) if self.contains(m)]

    def is_atom(self, m: int) -> bool:
        """m is a member with no decomposition into two nonzero members.

        Any split m = a + b into nonzero members peels a generator g off
        a, leaving m - g = (a - g) + b in M; so it suffices to try the
        generators below m.
        """
        if m <= 0 or not self.contains(m):
            return False
        return not any(self.contains(m - g) for g in self.generators if g < m)

    def in_shifted(self, m: int, base: int) -> bool:
        """Is m in base + M?"""
        return m >= base and self.contains(m - base)


def _apery_set(gens: tuple[int, ...]) -> list[Optional[int]]:
    """Least member of <gens> in each residue class mod gens[0], or None.

    Round robin (Bocker & Liptak, Algorithmica 48, 2007): each further
    generator a splits the residues into gcd(g1, a) cycles r -> r + a;
    walking once around a cycle from its least entry relaxes every
    residue on it. O(k*g1) time, O(g1) memory.
    """
    g1 = gens[0]
    least: list[Optional[int]] = [0] + [None] * (g1 - 1)
    for a in gens[1:]:
        d = gcd(g1, a)
        for start in range(d):
            reached = [w for w in least[start::d] if w is not None]
            if not reached:
                continue
            n = min(reached)
            for _ in range(g1 // d - 1):
                n += a
                r = n % g1
                if least[r] is not None and least[r] < n:
                    n = least[r]
                else:
                    least[r] = n
    return least


@dataclass(frozen=True, slots=True, init=False, repr=False)
class MonoidElement:
    """Sparse element of B[M]: finitely many terms coeff * X^exponent, kept
    as (exponent, canonical value) pairs ascending by exponent."""

    ring: Ring
    monoid: NumericalMonoid
    _values: tuple

    def __init__(self, ring: Ring, monoid: NumericalMonoid, terms):
        if isinstance(terms, dict):
            terms = terms.items()
        sums = {}
        for exp, coeff in terms:
            exp = int(exp)
            if not monoid.contains(exp):
                raise MembershipError(f"exponent {exp} is not in {monoid!r}")
            if isinstance(coeff, RingElement):
                if coeff.ring != ring:
                    raise RingMismatchError("coefficient ring mismatch")
                coeff = coeff.value
            sums[exp] = ring.add_values(sums.get(exp, ring.zero_value), ring.canon(coeff))
        nonzero = ((e, v) for e, v in sums.items() if v != ring.zero_value)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "_values", tuple(sorted(nonzero)))

    @property
    def terms(self) -> tuple[tuple[int, RingElement], ...]:
        return tuple((e, RingElement(self.ring, v)) for e, v in self._values)

    def __repr__(self):
        body = ",".join(f"{e}:{self.ring.value_text(v)}" for e, v in self._values)
        return f"{self.ring.name()}:{self.monoid!r}:{{{body}}}"

    def is_zero(self) -> bool:
        return not self._values

    def max_exponent(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for zero."""
        return self._values[-1][0] if self._values else -1

    def coeff(self, exp: int) -> RingElement:
        for e, v in self._values:
            if e == exp:
                return RingElement(self.ring, v)
        return self.ring.zero()

    def _check(self, other):
        if (
            not isinstance(other, MonoidElement)
            or other.ring != self.ring
            or other.monoid != self.monoid
        ):
            raise RingMismatchError("monoid element mismatch")

    def __add__(self, other):
        self._check(other)
        return MonoidElement(self.ring, self.monoid, self._values + other._values)

    def __neg__(self):
        neg = self.ring.neg_value
        return MonoidElement(self.ring, self.monoid, [(e, neg(v)) for e, v in self._values])

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        mul = self.ring.mul_values
        products = [(e1 + e2, mul(v1, v2)) for e1, v1 in self._values for e2, v2 in other._values]
        return MonoidElement(self.ring, self.monoid, products)

    def is_unit(self) -> bool:
        """A term at exponent 0 with a unit coefficient, all others nilpotent.

        Over a domain this degenerates to: exactly a unit constant.
        """
        has_unit_constant = False
        for e, v in self._values:
            if e == 0 and self.ring.is_unit_value(v):
                has_unit_constant = True
            elif not self.ring.is_nilpotent_value(v):
                return False
        return has_unit_constant

    def is_nilpotent(self) -> bool:
        return all(self.ring.is_nilpotent_value(v) for _, v in self._values)


# ---------------------------------------------------------------------------
# the certified irreducible construction


@dataclass(frozen=True)
class IrreducibleCertificate:
    """An element certified irreducible by its construction preconditions."""

    element: MonoidElement
    atom_exponent: int
    gap_exponents: tuple[int, ...]
    primes: tuple[int, ...]


def build_irreducible(
    ring: Ring,
    monoid: NumericalMonoid,
    primes: Iterable[int],
    exponents: Iterable[int],
) -> IrreducibleCertificate:
    """Construct p(r-1)*X^m(r) - ... - p1*X^m2 - X^m1 with checked preconditions.

    exponents = [m1, ..., mr]; m1 must be an atom of the monoid, every
    later exponent must be a member outside m1 + M, and the coefficient
    ring must be the integers (the only supported ring with genuine
    prime elements; fields have none). Violations raise ParameterError
    naming the failed clause.
    """
    primes = tuple(int(p) for p in primes)
    exponents = tuple(int(m) for m in exponents)
    if not isinstance(ring, Integers):
        raise ParameterError(
            "prime coefficients are only supported over Z (fields have no primes)"
        )
    if len(exponents) < 2:
        raise ParameterError("need at least two exponents m1, m2")
    if len(primes) != len(exponents) - 1:
        raise ParameterError(
            f"need {len(exponents) - 1} primes for {len(exponents)} exponents, got {len(primes)}"
        )
    if len(set(exponents)) != len(exponents):
        raise ParameterError("exponents must be distinct")
    m1 = exponents[0]
    if not monoid.is_atom(m1):
        raise ParameterError(f"m1 = {m1} is not an atom of {monoid!r}")
    for m in exponents[1:]:
        if not monoid.contains(m):
            raise ParameterError(f"exponent {m} is not in {monoid!r}")
        if monoid.in_shifted(m, m1):
            raise ParameterError(f"exponent {m} lies in m1 + M (m1 = {m1})")
    for p in primes:
        if p < 2 or not is_prime(p):
            raise ParameterError(f"{p} is not a prime element of Z")

    terms = {m1: -1}
    # the last prime gets the positive sign on X^mr, all earlier ones negative
    for i, m in enumerate(exponents[1:], start=1):
        p = primes[i - 1]
        sign = 1 if i == len(exponents) - 1 else -1
        terms[m] = sign * p
    element = MonoidElement(ring, monoid, terms)
    return IrreducibleCertificate(element, m1, exponents[1:], primes)


# ---------------------------------------------------------------------------
# brute-force irreducibility oracle


def is_irreducible_by_search(
    f: MonoidElement, exponent_bound: int, coeff_bound: Optional[int] = None
) -> bool:
    """True when no factorization f = g*h with both factors nonunits exists.

    f's largest exponent above exponent_bound, or a search over the work
    budget, raises CeilingError. The search enumerates candidate divisors
    g with exponents drawn from the monoid members below deg f and
    coefficients from the bounded box ([-coeff_bound, coeff_bound] over
    Z, the whole ring over a finite field); each cofactor is recovered by
    exact division, so it is not box-limited. Only domains are supported.

    Over Z two rules skip candidates without changing the verdict:

    - only positive leading coefficients are listed: g and -g are
      associates, and the box, the constant-term pool and the test that
      the cofactor lies in B[M] are all unchanged by g -> -g;
    - the kernel's divisor loop computes f(1), f(-1), f(2) and f(-2) once
      per search and refuses g before dividing when g(x) does not divide
      f(x) at one of those points, a zero g(x) passing only a zero f(x):
      g*h = f gives g(x)*h(x) = f(x).
    """
    ring = f.ring
    if not ring.is_domain():
        raise ParameterError(f"search requires a domain, not {ring.name()}")
    if f.is_zero():
        raise ParameterError("irreducibility is undefined for zero")
    if f.is_unit():
        raise ParameterError("irreducibility is undefined for units")
    if f.max_exponent() > exponent_bound:
        raise CeilingError(
            f"element exponent {f.max_exponent()} exceeds bound {exponent_bound}"
        )
    over_z = isinstance(ring, Integers)
    if over_z and (coeff_bound is None or coeff_bound < 1):
        raise ParameterError("a positive coeff_bound is required over Z")

    monoid, zero = f.monoid, ring.zero_value
    check_work(f.max_exponent() + 1, "the dense form")
    dense = [zero] * (f.max_exponent() + 1)
    for e, v in f._values:
        dense[e] = v
    deg = len(dense) - 1

    # constant factor: over Z a nonunit constant divides f iff the content
    # is nontrivial; over a field constants are units
    if over_z:
        if deg == 0:
            return is_prime(abs(dense[0]))
        if gcd(*dense) > 1:
            return False
        leads = divisors(abs(dense[-1]))
        box = range(-coeff_bound, coeff_bound + 1)
        # over a domain the lowest coefficients multiply, so a nonzero
        # constant term of the divisor must divide the lowest coefficient of f
        tc_f = next(c for c in dense if c)
        box0 = [0] + [
            s * d
            for d in divisors(abs(tc_f))
            for s in (1, -1)
            if d <= coeff_bound
        ]
    else:
        box = box0 = tuple(ring.element_values())
        leads = box[1:]

    pool_lists = (
        [box0 if e == 0 else box if monoid.contains(e) else (zero,) for e in range(dg)] + [leads]
        for dg in range(1, deg)
        if monoid.contains(dg) and monoid.contains(deg - dg)
    )
    split = dense_find_divisor(
        ring, dense, pool_lists,
        lambda q: all(c == zero or monoid.contains(e) for e, c in enumerate(q)),
    )
    return split is None
