"""Tower-constrained polynomial subrings and their factorization theory.

A Tower A0 < A1 < ... < A(n-1) < B carves out the subring of B[X] whose
coefficient of X^i must lie in (the embedded image of) A_i for i < n,
with free B coefficients from degree n upward. Membership is enforced
at construction, so a CompositeElement is closed by type and every
arithmetic result is re-checked cheaply.

For a single-level field tower the irreducibility criterion is:
irreducible in B[X] with constant term in A0. For two or more levels
that criterion is only sound in one direction (irreducible in B[X]
implies irreducible here); the converse fails, e.g. t*X^2 over
F2 < F2 < F4 has no factorization with level-respecting coefficients
although it splits as (tX)(X) in B[X]. Where the criterion is silent
the operations fall back to a divisor search within the work budget,
pruned on the fast paths and exhaustive in the oracle; this module supplies
its pools (the ascending values of each level) and its acceptance test
(the cofactor respects the levels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import MembershipError, ParameterError
from .poly import Polynomial
from .rings import Ring, RingElement, dense_find_divisor, embed, has_embedding


@dataclass(frozen=True, slots=True, repr=False)
class Tower:
    """Descriptor for A0 < ... < A(n-1) < B with declared embeddings."""

    levels: tuple[Ring, ...]
    top: Ring
    _level_values: dict = field(default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        levels, top = tuple(self.levels), self.top
        if not levels:
            raise ParameterError("a tower needs at least one level")
        # declared embeddings compose, so the chain reaches the top from every level
        for lo, hi in zip(levels, levels[1:] + (top,)):
            if not has_embedding(lo, hi):
                raise ParameterError(f"no declared embedding {lo.name()} -> {hi.name()}")
        object.__setattr__(self, "levels", levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def fields_mode(self) -> bool:
        return all(r.is_field for r in self.levels) and self.top.is_field

    def __repr__(self):
        return "<".join(r.name() for r in self.levels + (self.top,))

    def level_values(self, i: int) -> tuple:
        """Top-ring values allowed as the coefficient of X^i, ascending; built
        once per level, and the whole top ring from the depth up."""
        i = min(i, self.depth)
        if i not in self._level_values:
            level = self.top if i == self.depth else self.levels[i]
            images = (embed(a, self.top).value for a in level.elements())
            self._level_values[i] = tuple(sorted(images, key=self.top.value_sort_key))
        return self._level_values[i]

    def _holds(self, i: int, value) -> bool:
        return i >= self.depth or self.levels[i] == self.top or value in self.level_values(i)

    def _first_outside(self, values: Sequence) -> Optional[int]:
        """Index of the first coefficient value outside its level, or None."""
        return next((i for i, v in enumerate(values[: self.depth]) if not self._holds(i, v)), None)

    def level_contains(self, i: int, c: RingElement) -> bool:
        """Is the top-ring element c inside the embedded image of level i?"""
        return self._holds(i, c.value)

    def unembed(self, i: int, c: RingElement) -> RingElement:
        """Preimage in A_i of a top-ring element known to lie in its image."""
        if self.levels[i] == self.top:
            return c
        for a in self.levels[i].elements():
            if embed(a, self.top).value == c.value:
                return a
        raise MembershipError(
            f"{c.text()} is not in the image of level {i} ({self.levels[i].name()})"
        )

    def level_elements(self, i: int) -> list[RingElement]:
        """Embedded images of level i inside the top ring, ascending."""
        return [RingElement(self.top, v) for v in self.level_values(i)]


def contains(tower: Tower, f: Polynomial) -> bool:
    """Membership test: coefficient of X^i lies in level i for i < depth."""
    return f.ring == tower.top and tower._first_outside(f._values) is None


@dataclass(frozen=True, slots=True, repr=False)
class CompositeElement:
    """An element of the tower-constrained subring; membership checked at init."""

    tower: Tower
    poly: Polynomial

    def __post_init__(self):
        tower, f = self.tower, self.poly
        if f.ring != tower.top:
            raise MembershipError(
                f"polynomial over {f.ring.name()} does not live over {tower.top.name()}"
            )
        i = tower._first_outside(f._values)
        if i is not None:
            raise MembershipError(
                f"coefficient of X^{i} ({f.coeff(i).text()}) is outside level "
                f"{i} ({tower.levels[i].name()})"
            )

    @classmethod
    def make(cls, tower: Tower, coeffs) -> "CompositeElement":
        return cls(tower, Polynomial(tower.top, coeffs))

    def degree(self) -> int:
        return self.poly.degree()

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __repr__(self):
        return f"{self.tower!r}:[{','.join(map(self.tower.top.value_text, self.poly._values))}]"

    def _wrap(self, f: Polynomial) -> "CompositeElement":
        return CompositeElement(self.tower, f)

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.poly + other.poly)

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self.poly - other.poly)

    def __mul__(self, other):
        self._check(other)
        return self._wrap(self.poly * other.poly)

    def __neg__(self):
        return self._wrap(-self.poly)

    def _check(self, other):
        if not isinstance(other, CompositeElement) or other.tower != self.tower:
            raise MembershipError("tower mismatch")

    # predicates -------------------------------------------------------
    def is_unit(self) -> bool:
        """Constant term a unit of A0 and all higher coefficients nilpotent.

        Over a field tower this reduces to: a nonzero constant of A0. A
        proper level is a subfield of B, so its units are exactly the
        units of B it contains, and the test runs on the B[X] values.
        """
        return self.poly.is_unit()

    def quotient_eval(self) -> RingElement:
        """Evaluation at X = 0, landing in A0; a surjective ring map."""
        return self.tower.unembed(0, self.poly.constant())

    def is_irreducible(self) -> bool:
        """True when the element admits no factorization into two nonunits.

        Single-level tower: equivalent to irreducibility in B[X] (the
        constant term lies in A0 by construction). Deeper towers: B[X]
        irreducibility is still sufficient; otherwise a divisor search up
        to half the degree, within the work budget, decides, since
        reducibility in B[X] does not force level-respecting factors.
        """
        self._require_fields("is_irreducible")
        if self.is_zero() or self.is_unit():
            raise ParameterError("irreducibility is undefined for zero and units")
        return self.poly.is_irreducible() or (
            self.tower.depth > 1 and _smallest_split(self) is None
        )

    def _require_fields(self, opname: str):
        if not self.tower.fields_mode:
            raise ParameterError(f"{opname} requires a tower of fields")


# ---------------------------------------------------------------------------
# divisor searches


def _find_factorization(
    f: CompositeElement, degrees: range
) -> Optional[tuple[CompositeElement, CompositeElement]]:
    """(g, f/g) for the first divisor g of least degree in ``degrees`` whose
    cofactor respects the levels, or None. Over a field tower degrees add,
    so ``_smallest_split``'s pruned degrees give the same first split: the
    least divisor degree is at most deg f / 2, as f = g*h = h*g; after a
    split (g, h), h has no divisor g' below deg g, or g' would divide f with
    cofactor g*(h/g'); and g is an atom, or a split a*b would make a smaller.
    """
    tower, top = f.tower, f.tower.top
    pools = (
        [tower.level_values(i) for i in range(d)]
        + [[v for v in tower.level_values(d) if v != top.zero_value]]
        for d in degrees
    )
    split = dense_find_divisor(
        top, f.poly._values, pools, lambda q: tower._first_outside(q) is None
    )
    if split is None:
        return None
    return tuple(CompositeElement(tower, Polynomial._from_values(top, v)) for v in split)


def _smallest_split(f: CompositeElement, lowest: int = 1):
    """The degrees lowest .. deg f // 2 that can hold f's least divisor."""
    return _find_factorization(f, range(lowest, f.degree() // 2 + 1))


def has_nontrivial_factorization(f: CompositeElement) -> bool:
    """Exhaustive oracle: does f = g*h with both factors nonunits exist?

    Complete wherever it answers (a search over the work budget raises
    CeilingError). Cofactors are obtained by exact division, so every
    factorization with at least one level-respecting divisor of each
    degree is covered; over a field tower that is all of them. It does not
    prune: every degree 1 .. deg f - 1 is tried, so it checks the fast paths.
    """
    f._require_fields("factor search")
    if f.is_zero() or f.is_unit():
        raise ParameterError("factor search is undefined for zero and units")
    return _find_factorization(f, range(1, f.degree())) is not None


def atomize(f: CompositeElement) -> list[CompositeElement]:
    """Factor into irreducibles; the product of the result equals f.

    Monomial-shaped atoms a*X come first, then atoms whose constant term
    is a unit of A0. For a single-level tower the construction peels the
    X^r part into r linear atoms and normalizes each B[X] factor of the
    remaining part to constant term 1; the first atom absorbs the spare
    constant so membership holds throughout. Deeper towers split least
    divisors off the cofactor until it has none, each search within the
    work budget. A least divisor g of f is an atom, since a split a*b of g
    would make a a smaller one, so only the cofactor is searched again.
    """
    f._require_fields("atomize")
    if f.is_zero() or f.is_unit():
        raise ParameterError("atomize is undefined for zero and units")
    tower = f.tower
    if tower.depth > 1:
        atoms = []
        while (split := _smallest_split(f, atoms[-1].degree() if atoms else 1)) is not None:
            g, f = split
            atoms.append(g)
        atoms.append(f)
        return sorted(atoms, key=lambda a: (not a.poly.constant().is_zero(), a.poly.sort_key()))

    top = tower.top
    values = f.poly._values
    r = next(i for i, v in enumerate(values) if v != top.zero_value)
    low = f.poly.coeff(r)
    unit_part = Polynomial._from_values(top, values[r:]).scale(low.inverse())  # constant term 1

    atoms = [Polynomial._from_values(top, (top.zero_value, top.one_value))] * r  # X^r
    if unit_part.degree() >= 1:
        for q, mult in unit_part.factor().factors:
            atoms += [q.scale(q.constant().inverse())] * mult
    atoms[0] = atoms[0].scale(low)  # the spare constant of f
    return [CompositeElement(tower, a) for a in atoms]


@dataclass(frozen=True)
class DivisorChain:
    """A chain f0, f1 | f0, f2 | f1, ... of proper divisions.

    ``terminated`` certifies that the last entry has no proper divisor
    (it is an atom); steps = len(elements) - 1.
    """

    elements: tuple[CompositeElement, ...]
    terminated: bool

    @property
    def steps(self) -> int:
        return len(self.elements) - 1


def divisor_chain(f: CompositeElement, max_steps: int) -> DivisorChain:
    """Follow cofactors of smallest-degree divisors until an atom or the cap.

    Each step strictly drops the degree, which is the empirical witness
    for the ascending chain condition on principal ideals at this scale.
    A step searches from the last divisor's degree to half the entry's: a
    smaller divisor of a cofactor would have divided the entry before it.
    """
    if max_steps < 0:
        raise ParameterError(f"max_steps must be >= 0, got {max_steps}")
    f._require_fields("divisor chain")
    if f.is_zero() or f.is_unit():
        raise ParameterError("divisor chains are undefined for zero and units")
    chain, lowest = [f], 1
    while (split := _smallest_split(chain[-1], lowest)) is not None and len(chain) <= max_steps:
        chain.append(split[1])
        lowest = split[0].degree()
    return DivisorChain(tuple(chain), split is None)
