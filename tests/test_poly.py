"""Polynomial predicates, brute-force factorization, inverse search."""

import random

import pytest

from compalg import (
    CeilingError,
    Integers,
    IntegersMod,
    NotAUnitError,
    ParameterError,
    Polynomial,
    PrimeField,
    all_polynomials,
    default_extension_field,
    search_inverse,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = default_extension_field(2, 2)
Z4 = IntegersMod(4)
Z6 = IntegersMod(6)


# --- unit / nilpotent criteria -------------------------------------------


def test_unit_with_nilpotent_tail_mod4():
    assert Polynomial(Z4, [1, 2]).is_unit()


def test_constant_unit_over_field():
    assert Polynomial(F5, [1]).is_unit()


def test_not_a_unit_mod6():
    f = Polynomial(Z6, [1, 2])
    assert not f.is_unit()
    assert search_inverse(f, 8) is None  # 2 is not nilpotent mod 6


def test_nilpotent_polynomials():
    assert Polynomial(Z4, [2, 2]).is_nilpotent()
    assert not Polynomial(F3, [0, 1]).is_nilpotent()
    assert Polynomial(IntegersMod(12), [0, 0, 6]).is_nilpotent()
    assert Polynomial(F5).is_nilpotent()  # zero polynomial


# --- irreducibility and factorization ------------------------------------


def test_irreducible_quadratic_over_f2():
    assert Polynomial(F2, [1, 1, 1]).is_irreducible()


def test_square_detected_over_f2():
    assert not Polynomial(F2, [1, 0, 1]).is_irreducible()  # (X+1)^2


def test_linear_is_irreducible():
    assert Polynomial(F5, [0, 1]).is_irreducible()


def test_irreducibility_needs_finite_field():
    with pytest.raises(ParameterError):
        Polynomial(Z4, [1, 1]).is_irreducible()
    with pytest.raises(ParameterError):
        Polynomial(F5, [3]).is_irreducible()


def test_factor_splits_x2_plus_x():
    fac = Polynomial(F2, [0, 1, 1]).factor()
    assert fac.unit == F2.one()
    assert [(tuple(c.value for c in f.coeffs), m) for f, m in fac.factors] == [
        ((0, 1), 1),
        ((1, 1), 1),
    ]


def test_factor_normalizes_unit():
    fac = Polynomial(F5, [0, 0, 2]).factor()
    assert fac.unit == F5.element(2)
    assert [(f.degree(), m) for f, m in fac.factors] == [(1, 2)]


def test_factor_repeated_quadratic():
    fac = Polynomial(F2, [1, 0, 1, 0, 1]).factor()  # X^4+X^2+1
    assert [(tuple(c.value for c in f.coeffs), m) for f, m in fac.factors] == [
        ((1, 1, 1), 2)
    ]


def test_factor_zero_rejected():
    with pytest.raises(ParameterError):
        Polynomial(F2).factor()


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda r: r.name())
def test_irreducible_iff_single_factor(field):
    max_deg = 4 if field.size() <= 3 else 3
    for f in all_polynomials(field, max_deg):
        if f.degree() < 1:
            continue
        fac = f.factor()
        single = len(fac.factors) == 1 and fac.factors[0][1] == 1
        assert f.is_irreducible() == single, f


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda r: r.name())
def test_factor_reassembles_exactly(field):
    for f in all_polynomials(field, 3):
        if f.is_zero():
            continue
        assert f.factor().product() == f, f


# --- inverse search oracle -------------------------------------------------


def test_inverse_search_finds_self_inverse():
    assert search_inverse(Polynomial(Z4, [1, 2]), 4) == Polynomial(Z4, [1, 2])


def test_inverse_search_on_constants():
    assert search_inverse(Polynomial(Z4, [3]), 0) == Polynomial(Z4, [3])


def test_inverse_search_rejects_x():
    assert search_inverse(Polynomial(F3, [0, 1]), 4) is None


@pytest.mark.parametrize(
    "ring,bound",
    [(Z4, b) for b in range(4)] + [(Z6, b) for b in range(4)] + [(F4, b) for b in range(4)]
    + [(IntegersMod(8), b) for b in range(3)] + [(IntegersMod(9), b) for b in range(3)],
    ids=lambda x: x.name() if hasattr(x, "name") else str(x),
)
def test_inverse_search_matches_an_exhaustive_search(ring, bound):
    # every g with deg g <= bound, grouped by constant term: f*g has constant
    # term f0*g0, so only the groups with f0*g0 == 1 are multiplied out
    by_constant = {}
    for g in all_polynomials(ring, bound):
        by_constant.setdefault(g.constant(), []).append(g)
    one = Polynomial(ring, [1])
    for f in all_polynomials(ring, 2):
        inverses = [g for g0, group in by_constant.items() if f.constant() * g0 == ring.one()
                    for g in group if f * g == one]
        # inverses are unique, so the exhaustive list has at most one entry
        assert [search_inverse(f, bound)] == (inverses or [None]), f


def test_inverse_search_bound_is_limited_only_by_the_work_budget():
    assert search_inverse(Polynomial(Z4, [1, 2]), 9) == Polynomial(Z4, [1, 2])
    # 1 + X + X^2 over F2 has no inverse at any bound
    assert search_inverse(Polynomial(F2, [1, 1, 1]), 32767) is None
    with pytest.raises(CeilingError, match="^inverse search needs at least 65540 steps, above "
                                           "the work budget 65536$"):
        search_inverse(Polynomial(Z4, [1, 2]), 16384)


def test_inverse_search_rejects_a_negative_bound():
    with pytest.raises(ParameterError, match="degree_bound"):
        search_inverse(Polynomial(F2, [1]), -1)


def test_inverse_search_requires_finite_ring():
    with pytest.raises(ParameterError):
        search_inverse(Polynomial(Integers(), [1]), 2)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_unit_criterion_matches_inverse_search(n):
    ring = IntegersMod(n)
    for f in all_polynomials(ring, 2):
        inverse = search_inverse(f, 8)
        assert f.is_unit() == (inverse is not None), f
        if inverse is not None:
            assert f * inverse == Polynomial(ring, [1])


# --- structural properties ---------------------------------------------------


def test_degree_additivity_over_domains():
    rng = random.Random(7)
    for ring in (F5, F4, Integers()):
        for _ in range(200):
            deg_f, deg_g = rng.randrange(0, 5), rng.randrange(0, 5)
            f = _random_nonzero(ring, deg_f, rng)
            g = _random_nonzero(ring, deg_g, rng)
            assert (f * g).degree() == f.degree() + g.degree()


def _random_nonzero(ring, degree, rng):
    if ring.size() is None:
        coeffs = [rng.randrange(-9, 10) for _ in range(degree)] + [
            rng.choice([x for x in range(-9, 10) if x])
        ]
        return Polynomial(ring, coeffs)
    elems = list(ring.elements())
    coeffs = [rng.choice(elems) for _ in range(degree)] + [rng.choice(elems[1:])]
    return Polynomial(ring, coeffs)


def test_divmod_over_field():
    f = Polynomial(F5, [1, 0, 2, 3])
    g = Polynomial(F5, [2, 1])
    q, r = divmod(f, g)
    assert g * q + r == f
    assert r.degree() < g.degree()


DIVMOD_RINGS = [Integers(), Z4, IntegersMod(9), F5, F4, default_extension_field(3, 2)]


@pytest.mark.parametrize("ring", DIVMOD_RINGS, ids=lambda r: r.name())
def test_divmod_by_unit_leading_coefficient(ring):
    rng = random.Random(11)
    if ring.size() is None:
        units = [ring.element(1), ring.element(-1)]
    else:
        units = [x for x in ring.elements() if x.is_unit()]
    for _ in range(100):
        f = _random_nonzero(ring, rng.randrange(0, 6), rng)
        g = _random_nonzero(ring, rng.randrange(0, 4), rng)
        g = Polynomial(ring, list(g.coeffs[:-1]) + [rng.choice(units)])
        q, r = divmod(f, g)
        assert g * q + r == f
        assert r.degree() < g.degree()


@pytest.mark.parametrize("ring", [Integers(), Z6], ids=lambda r: r.name())
def test_divmod_rejects_non_unit_leading_coefficient(ring):
    with pytest.raises(NotAUnitError):
        divmod(Polynomial(ring, [1, 0, 1]), Polynomial(ring, [1, 2]))
