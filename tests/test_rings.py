"""Ring arithmetic, unit/nilpotent predicates, embeddings, and the division kernel."""

import random

import pytest

from compalg import (
    EmbeddingError,
    ExtensionField,
    Integers,
    IntegersMod,
    NotAUnitError,
    ParameterError,
    PrimeField,
    RingMismatchError,
    default_extension_field,
    embed,
)
from compalg.rings import dense_divmod

F2 = PrimeField(2)
F3 = PrimeField(3)
F4 = default_extension_field(2, 2)
F9 = default_extension_field(3, 2)
F16 = default_extension_field(2, 4)


def test_add_in_prime_field():
    F5 = PrimeField(5)
    assert (F5.element(3) + F5.element(4)) == F5.element(2)


def test_zero_divisor_in_z4():
    Z4 = IntegersMod(4)
    assert (Z4.element(2) * Z4.element(2)).is_zero()


def test_extension_field_generator_square():
    t = F4.element((0, 1))
    assert (t * t) == F4.element((1, 1))  # t^2 = t + 1 under t^2+t+1


def test_unit_and_inverse_mod6():
    five = IntegersMod(6).element(5)
    assert five.is_unit()
    assert five.inverse() == five


def test_integers_units():
    Z = Integers()
    assert not Z.element(2).is_unit()
    assert Z.element(-1).is_unit()
    assert Z.element(-1).inverse() == Z.element(-1)


def test_zero_is_never_a_unit():
    assert not PrimeField(7).element(0).is_unit()


def test_inverse_of_nonunit_is_reported():
    with pytest.raises(NotAUnitError):
        IntegersMod(6).element(2).inverse()


@pytest.mark.parametrize(
    "ring, value, expected",
    [
        (IntegersMod(8), 2, True),
        (PrimeField(5), 3, False),
        (IntegersMod(12), 6, True),
        (IntegersMod(12), 4, False),
        (Integers(), 0, True),
        (Integers(), 3, False),
    ],
)
def test_nilpotent_cases(ring, value, expected):
    assert ring.element(value).is_nilpotent() is expected


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        PrimeField(5).element(1) + PrimeField(7).element(1)


def test_bad_descriptors_rejected():
    with pytest.raises(ParameterError):
        IntegersMod(1)
    with pytest.raises(ParameterError):
        PrimeField(4)
    with pytest.raises(ParameterError):
        ExtensionField(2, (1, 0, 1))  # t^2+1 = (t+1)^2 over F2


def test_prime_subfield_embeddings():
    assert embed(F2.element(1), F4) == F4.one()
    assert embed(F2.element(0), F4) == F4.zero()
    assert embed(F3.element(2), F9) == F9.element(2)


def test_no_embedding_between_different_characteristics():
    with pytest.raises(EmbeddingError):
        embed(F3.element(1), F4)
    with pytest.raises(EmbeddingError):
        embed(F4.element((0, 1)), F9)


RINGS_UNDER_TEST = [
    IntegersMod(4),
    IntegersMod(6),
    IntegersMod(8),
    IntegersMod(9),
    IntegersMod(12),
    IntegersMod(100),
    PrimeField(2),
    PrimeField(5),
    PrimeField(7),
    F4,
    F9,
    F16,
    default_extension_field(5, 2),
    default_extension_field(3, 3),
]


@pytest.mark.parametrize("ring", RINGS_UNDER_TEST, ids=lambda r: r.name())
def test_is_unit_matches_exhaustive_inverse_search(ring):
    elems = list(ring.elements())
    for x in elems:
        found = any((x * y) == ring.one() for y in elems)
        assert x.is_unit() == found, x
        if found:
            assert x * x.inverse() == ring.one(), x


@pytest.mark.parametrize("ring", RINGS_UNDER_TEST, ids=lambda r: r.name())
def test_is_nilpotent_matches_exhaustive_powering(ring):
    size = ring.size()
    for x in ring.elements():
        power = x
        found = False
        for _ in range(size):
            if power.is_zero():
                found = True
                break
            power = power * x
        assert x.is_nilpotent() == found, x


@pytest.mark.parametrize("field", [F2, F3, PrimeField(5), F4, F9, F16], ids=lambda r: r.name())
def test_fields_are_reduced(field):
    for x in field.elements():
        assert x.is_nilpotent() == x.is_zero()


@pytest.mark.parametrize(
    "sub, sup",
    [(F2, F4), (F2, F16), (F4, F16), (F3, F9)],
    ids=lambda r: r.name(),
)
def test_embedding_is_a_ring_homomorphism(sub, sup):
    elems = list(sub.elements())
    assert embed(sub.one(), sup) == sup.one()
    for a in elems:
        for b in elems:
            assert embed(a + b, sup) == embed(a, sup) + embed(b, sup)
            assert embed(a * b, sup) == embed(a, sup) * embed(b, sup)


def test_embedding_tower_is_consistent():
    # F2 -> F4 -> F16 must agree with F2 -> F16
    for a in F2.elements():
        assert embed(embed(a, F4), F16) == embed(a, F16)


def test_canonical_names_round_out():
    assert Integers().name() == "Z"
    assert IntegersMod(12).name() == "Z/12"
    assert PrimeField(5).name() == "F5"
    assert F4.name() == "F(4)=F2[t]/(t^2+t+1)"


@pytest.mark.parametrize(
    "ring,unit", [(IntegersMod(4), 3), (F4, (0, 1)), (F9, (1, 1))], ids=["Z/4", "F4", "F9"]
)
def test_division_by_a_monic_divisor_inverts_nothing(monkeypatch, ring, unit):
    """Same (q, r) as the general path, which divides by unit*b and scales q back."""
    inverted = []
    for kind in (IntegersMod, ExtensionField):  # PrimeField, the base of F4 and F9, is Z/p

        def counting(self, a, real=kind.inverse_value):
            inverted.append(a)
            return real(self, a)

        monkeypatch.setattr(kind, "inverse_value", counting)
    rng = random.Random(8)
    values = list(ring.element_values())
    mul = ring.mul_values
    for _ in range(200):
        a = [rng.choice(values) for _ in range(rng.randrange(8))]
        b = [rng.choice(values) for _ in range(rng.randrange(1, 4))] + [ring.one_value]
        while a and a[-1] == ring.zero_value:
            a.pop()
        q, r = dense_divmod(ring, a, b)
        assert inverted == []
        q_unit, r_unit = dense_divmod(ring, a, [mul(unit, c) for c in b])
        assert (q, r) == ([mul(unit, c) for c in q_unit], r_unit)
        assert inverted
        inverted.clear()
