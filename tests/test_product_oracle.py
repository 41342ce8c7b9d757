"""A multiply-only oracle for the divisor searches.

The searches divide each candidate divisor into f. Here every product of
two nonunits up to a degree is formed by multiplication alone, and each
verdict of the searches must agree with membership in that set of
products: an element is reducible exactly when it is one of them.
"""

import itertools

import pytest

from compalg import Integers, NumericalMonoid, PrimeField
from compalg.composite import CompositeElement, has_nontrivial_factorization
from compalg.monoid_domain import MonoidElement, is_irreducible_by_search
from compalg.poly import Polynomial
from compalg.textio import parse_tower


DEGREE = 4


def composite_members(tower, degree):
    """Every member of exactly this degree; over a field tower all are nonunits."""
    top = tower.top
    pools = [tower.level_values(i) for i in range(degree)]
    pools.append([v for v in tower.level_values(degree) if v != top.zero_value])
    for values in itertools.product(*pools):
        yield CompositeElement(tower, Polynomial(top, values))


@pytest.mark.parametrize("name", ["F2<F2<F4", "F2<F4<F4"])
def test_composite_verdicts_match_products(name):
    tower = parse_tower(name)
    members = {d: list(composite_members(tower, d)) for d in range(1, DEGREE + 1)}
    products = {
        (g * h).poly
        for dg in range(1, DEGREE)
        for dh in range(1, DEGREE + 1 - dg)
        for g in members[dg]
        for h in members[dh]
    }
    for f in itertools.chain.from_iterable(members.values()):
        reducible = f.poly in products
        assert has_nontrivial_factorization(f) == reducible, f
        assert f.is_irreducible() == (not reducible), f


M23 = NumericalMonoid([2, 3])


def monoid_elements(ring, degree):
    """Every element of ring[M<2,3>] of exactly this degree."""
    support = M23.members_upto(degree - 1)
    values = list(ring.element_values())
    for low in itertools.product(values, repeat=len(support)):
        for lead in values[1:]:
            yield MonoidElement(ring, M23, [*zip(support, low), (degree, lead)])


@pytest.mark.parametrize("p", [2, 3])
def test_monoid_verdicts_over_a_field_match_products(p):
    ring, top = PrimeField(p), 6
    # over a field the nonunits are the elements of positive degree
    members = {d: list(monoid_elements(ring, d)) for d in M23.members_upto(top) if d}
    products = {
        g * h
        for dg, dh in itertools.product(members, repeat=2)
        if dg + dh <= top
        for g in members[dg]
        for h in members[dh]
    }
    for f in itertools.chain.from_iterable(members.values()):
        assert is_irreducible_by_search(f, top) == (f not in products), f


def test_every_product_over_z_is_reducible():
    """One direction only: the box search is not complete over Z."""
    ring, bound = Integers(), 2
    box = range(-bound, bound + 1)

    def elements(support):
        for coeffs in itertools.product(box, repeat=len(support)):
            f = MonoidElement(ring, M23, zip(support, coeffs))
            if not f.is_zero() and not f.is_unit():
                yield f

    # every nonunit up to degree 3, and the degree-4 ones whose two inner
    # coefficients are 2 and -2, so that a divisor needs both ends of the box
    short = list(elements([0, 2, 3]))
    wide = [f for f in elements([0, 2, 3, 4]) if {f.coeff(2).value, f.coeff(3).value} == {2, -2}]
    for family in (short, wide):
        for g, h in itertools.combinations_with_replacement(family, 2):
            f = g * h
            assert not is_irreducible_by_search(f, f.max_exponent(), bound), (g, h)
