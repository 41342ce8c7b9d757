"""The value-type contract: values are immutable, equal values compare and
hash equal, and per-object caches stay out of both."""

import dataclasses

import pytest

from compalg import (
    CompositeElement,
    IntegersMod,
    MonoidElement,
    NumericalMonoid,
    Polynomial,
    PrimeField,
    Tower,
    arith,
    default_extension_field,
    ideal,
)
from compalg.alphabet import Alphabet
from compalg.ciphers import AffineCipher, CipherPolynomial, DhParams, cipher_product, cipher_sum
from compalg.keyexchange import run_dh

F2 = PrimeField(2)
F4 = default_extension_field(2, 2)
F5 = PrimeField(5)

# each maker builds its value from scratch, so two calls give equal but
# distinct objects; the second entry is a different value of the same type
MAKERS = {
    "Polynomial": (lambda: Polynomial(F5, [1, 2, 3, 0]), lambda: Polynomial(F5, [1, 2])),
    "Tower": (lambda: Tower([F2], F4), lambda: Tower([F2, F2], F4)),
    "CompositeElement": (
        lambda: CompositeElement.make(Tower([F2], F4), [1, (0, 1)]),
        lambda: CompositeElement.make(Tower([F2], F4), [1, (1, 1)]),
    ),
    "NumericalMonoid": (lambda: NumericalMonoid([5, 3, 5]), lambda: NumericalMonoid([3, 7])),
    "MonoidElement": (
        lambda: MonoidElement(F5, NumericalMonoid([2, 3]), {3: 4, 0: 1}),
        lambda: MonoidElement(F5, NumericalMonoid([2, 3]), {0: 1}),
    ),
    "Alphabet": (lambda: Alphabet("ABC"), lambda: Alphabet("ACB")),
    "LetterCipher": (
        lambda: cipher_sum(
            AffineCipher(3, 1, 26), cipher_product(AffineCipher(5, 2, 26), AffineCipher(1, 0, 26))
        ),
        lambda: cipher_sum(AffineCipher(3, 1, 26), AffineCipher(5, 2, 26)),
    ),
    "CipherPolynomial": (
        lambda: CipherPolynomial([AffineCipher(3, 1, 26), AffineCipher(5, 2, 26)]),
        lambda: CipherPolynomial([AffineCipher(3, 1, 26)]),
    ),
    "Transcript": (
        lambda: run_dh(DhParams(ideal(7), ideal(10)), secret_first=3, secret_second=4).transcript,
        lambda: run_dh(DhParams(ideal(7), ideal(10)), secret_first=3, secret_second=5).transcript,
    ),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_value_type_is_frozen_and_compares_by_value(name):
    make, make_other = MAKERS[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert type(a).__dataclass_params__.frozen and not hasattr(a, "__dict__")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and other == make_other()
    for field in dataclasses.fields(a):
        with pytest.raises(AttributeError):
            setattr(a, field.name, getattr(other, field.name))
        with pytest.raises(AttributeError):
            delattr(a, field.name)
    # slots leave no room for a new name either, though on CPython 3.11 the
    # frozen dataclass's __setattr__ reports that as a TypeError
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1
    assert a == b and hash(a) == hash(b)


def test_a_built_tower_level_table_stays_out_of_equality():
    built = Tower([F2, F2], F4)
    assert built.level_values(0) == ((0, 0), (1, 0))
    built.level_values(2)
    fresh = Tower([F2, F2], F4)
    assert built._level_values and not fresh._level_values
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: 1}[fresh] == 1


def test_a_built_apery_set_stays_out_of_equality():
    built = NumericalMonoid([3, 5, 7])
    assert built.contains(10**6)
    fresh = NumericalMonoid([7, 5, 3])
    assert built._apery is not None and fresh._apery is None
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: 1}[fresh] == 1


def test_prime_field_is_z_mod_p_under_its_field_name():
    assert isinstance(F5, IntegersMod)
    assert F5 != IntegersMod(5) and IntegersMod(5) != F5
    assert (F5.p, F5.n, F5.name(), IntegersMod(5).name()) == (5, 5, "F5", "Z/5")
    assert [F5.element(a).inverse().value for a in range(1, 5)] == [1, 3, 2, 4]
    hooks = {"canon", "add_values", "mul_values", "neg_value", "is_unit_value",
             "inverse_value", "is_nilpotent_value", "size", "element_values"}
    assert hooks & set(vars(PrimeField)) == {"is_nilpotent_value"}


def test_prime_field_nilpotency_does_not_factor_p(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", refuse)
    field = PrimeField(2**61 - 1)
    assert field.element(0).is_nilpotent()
    assert not field.element(3).is_nilpotent()
