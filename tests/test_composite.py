"""Tower membership, units, irreducibility, atoms, and divisor chains."""

import random
from functools import reduce
from operator import mul

import pytest

from compalg import (
    CeilingError,
    CompositeElement,
    IntegersMod,
    MembershipError,
    ParameterError,
    Polynomial,
    PrimeField,
    Tower,
    atomize,
    contains,
    default_extension_field,
    divisor_chain,
    has_nontrivial_factorization,
)
from compalg.composite import _find_factorization, _smallest_split
from compalg.textio import parse_composite, poly_body_text

F2 = PrimeField(2)
F3 = PrimeField(3)
F4 = default_extension_field(2, 2)
F9 = default_extension_field(3, 2)

T_F2F4 = Tower([F2], F4)
T_F3F9 = Tower([F3], F9)
T_DEEP = Tower([F2, F2], F4)  # two constrained levels below F4

t = F4.element((0, 1))


def elem(tower, *coeffs):
    return CompositeElement.make(tower, list(coeffs))


# --- membership ------------------------------------------------------------


def test_constant_must_sit_in_base_level():
    assert contains(T_F2F4, Polynomial(F4, [F4.one(), t]))
    assert not contains(T_F2F4, Polynomial(F4, [t]))


def test_deep_tower_constrains_linear_coefficient():
    assert not contains(T_DEEP, Polynomial(F4, [F4.one(), t]))
    assert contains(T_DEEP, Polynomial(F4, [F4.one(), F4.one(), t]))


def test_construction_enforces_membership():
    with pytest.raises(MembershipError):
        CompositeElement(T_F2F4, Polynomial(F4, [t]))


@pytest.mark.parametrize(
    "levels,top,missing",
    [([F3], F4, "F3 -> "), ([F4, F2], F4, " -> F2"), ([F2, F9], F9, "F2 -> ")],
    ids=["F3<F4", "F4<F2<F4", "F2<F9<F9"],
)
def test_tower_needs_every_declared_embedding(levels, top, missing):
    with pytest.raises(ParameterError, match="no declared embedding") as info:
        Tower(levels, top)
    assert missing in str(info.value)


def test_arithmetic_stays_inside_the_subring():
    a = elem(T_F2F4, F4.one(), t)
    b = elem(T_F2F4, F4.zero(), F4.one())
    assert (a * b).poly == Polynomial(F4, [F4.zero(), F4.one(), t])
    assert (a + b).poly == Polynomial(F4, [F4.one(), F4.one() + t])


# --- units -------------------------------------------------------------------


def test_unit_cases_over_field_tower():
    assert elem(T_F2F4, F4.one()).is_unit()
    assert not elem(T_F2F4, F4.zero(), F4.one()).is_unit()


def test_unit_over_non_field_tower_matches_inverse_oracle():
    Z4 = IntegersMod(4)
    T = Tower([Z4], Z4)
    f = elem(T, Z4.element(1), Z4.element(2))
    assert f.is_unit()
    from compalg import search_inverse

    assert search_inverse(f.poly, 8) is not None


# --- irreducibility and the search oracle ------------------------------------


def test_scaled_x_is_an_atom():
    assert elem(T_F2F4, F4.zero(), t).is_irreducible()
    assert not has_nontrivial_factorization(elem(T_F2F4, F4.zero(), t))


def test_x_squared_splits():
    x2 = elem(T_F2F4, F4.zero(), F4.zero(), F4.one())
    assert not x2.is_irreducible()
    assert has_nontrivial_factorization(x2)


def test_linear_with_unit_constant_is_an_atom():
    f = elem(T_F2F4, F4.one(), t)
    assert f.is_irreducible()
    assert not has_nontrivial_factorization(f)


def test_oracle_rejects_units_and_zero():
    with pytest.raises(ParameterError):
        has_nontrivial_factorization(elem(T_F2F4, F4.one()))
    with pytest.raises(ParameterError):
        has_nontrivial_factorization(elem(T_F2F4))


def test_oracle_ceiling():
    # candidate divisors of degree 1, 2, 3: 5*24 + 5*25*24 + 5*25*25*24
    F25 = default_extension_field(5, 2)
    T = Tower([PrimeField(5)], F25)
    f = CompositeElement.make(T, [1, 0, 0, 0, 1])
    with pytest.raises(CeilingError, match="needs at least 78120 steps, above the work budget 65536"):
        has_nontrivial_factorization(f)


def test_deep_tower_atom_that_splits_in_bx():
    # reducible in F4[X] as (tX)(X), but no level-respecting factorization:
    # the linear coefficient of any factor pair would need t in F2
    f = elem(T_DEEP, F4.zero(), F4.zero(), t)
    assert not f.poly.is_irreducible()
    assert f.is_irreducible()
    assert not has_nontrivial_factorization(f)


def all_elements(tower, max_degree):
    per_index = [tower.level_elements(i) for i in range(max_degree + 1)]
    stack = [[]]
    for cands in per_index:
        stack = [pre + [c] for pre in stack for c in cands]
    for coeffs in stack:
        f = Polynomial(tower.top, coeffs)
        yield CompositeElement(tower, f)


# F2<F4 and F3<F9 are acceptance criterion 2; this adds the two-level tower
@pytest.mark.parametrize("tower", [T_DEEP], ids=["F2<F2<F4"])
def test_irreducible_iff_no_factorization(tower):
    checked = 0
    for f in all_elements(tower, 3):
        if f.is_zero() or f.is_unit():
            continue
        assert f.is_irreducible() == (not has_nontrivial_factorization(f)), f
        checked += 1
    assert checked > 50


# --- atomization --------------------------------------------------------------


def test_atomize_x_squared():
    x2 = elem(T_F2F4, F4.zero(), F4.zero(), F4.one())
    atoms = atomize(x2)
    assert len(atoms) == 2
    assert all(a.degree() == 1 and a.poly.constant().is_zero() for a in atoms)
    assert reduce(mul, atoms) == x2


def test_atomize_atom_is_identity():
    f = elem(T_F2F4, F4.zero(), t)
    assert atomize(f) == [f]


def test_atomize_x_plus_x_squared():
    f = elem(T_F2F4, F4.zero(), F4.one(), F4.one())
    atoms = atomize(f)
    assert [a.poly for a in atoms] == [
        Polynomial(F4, [F4.zero(), F4.one()]),
        Polynomial(F4, [F4.one(), F4.one()]),
    ]
    assert reduce(mul, atoms) == f


def _atom_shape_ok(atom):
    """aX with a in B, or constant in A0 and irreducible image in B[X]."""
    p = atom.poly
    if p.degree() == 1 and p.constant().is_zero():
        return True
    return atom.tower.level_contains(0, p.constant()) and p.is_irreducible()


@pytest.mark.parametrize("tower", [T_F2F4, T_F3F9], ids=["F2<F4", "F3<F9"])
def test_atom_shapes_and_reassembly_random(tower):
    rng = random.Random(99)
    level0 = tower.level_elements(0)
    top = list(tower.top.elements())
    done = 0
    while done < 300:
        deg = rng.randrange(1, 6)
        coeffs = [rng.choice(level0)] + [rng.choice(top) for _ in range(deg)]
        f = CompositeElement(tower, Polynomial(tower.top, coeffs))
        if f.is_zero() or f.is_unit():
            continue
        atoms = atomize(f)
        assert reduce(mul, atoms) == f
        assert all(a.is_irreducible() for a in atoms)
        assert all(_atom_shape_ok(a) for a in atoms)
        done += 1


def test_atomize_deep_tower_by_search():
    f = elem(T_DEEP, F4.zero(), F4.zero(), t)  # atom despite splitting in B[X]
    assert atomize(f) == [f]
    g = elem(T_DEEP, F4.zero(), F4.zero(), F4.one())  # X^2 = X*X works here
    atoms = atomize(g)
    assert reduce(mul, atoms) == g
    assert len(atoms) == 2


# values recorded before depth-1 atomize folded the spare constant in one place
@pytest.mark.parametrize(
    "text,atoms",
    [("F3<F9:[0,0,2]", ["[0,2]", "[0,1]"]), ("F3<F9:[2,0,2]", ["[2,t]", "[1,t]"])],
)
def test_atomize_puts_the_spare_constant_on_the_first_atom(text, atoms):
    assert [poly_body_text(a.poly) for a in atomize(parse_composite(text))] == atoms


# --- quotient evaluation --------------------------------------------------------


def test_quotient_eval_is_a_surjective_homomorphism():
    rng = random.Random(5)
    level0 = T_F3F9.level_elements(0)
    top = list(F9.elements())
    hits = set()
    for _ in range(200):
        fc = [rng.choice(level0)] + [rng.choice(top) for _ in range(rng.randrange(0, 3))]
        gc = [rng.choice(level0)] + [rng.choice(top) for _ in range(rng.randrange(0, 3))]
        f = CompositeElement(T_F3F9, Polynomial(F9, fc))
        g = CompositeElement(T_F3F9, Polynomial(F9, gc))
        assert (f * g).quotient_eval() == f.quotient_eval() * g.quotient_eval()
        assert (f + g).quotient_eval() == f.quotient_eval() + g.quotient_eval()
        hits.add(f.quotient_eval().value)
    assert hits == set(range(3))  # onto A0 = F3


def test_quotient_eval_of_zero():
    assert elem(T_F2F4).quotient_eval() == F2.zero()


# --- divisor chains ----------------------------------------------------------------


def test_chain_for_x_cubed():
    f = elem(T_F2F4, F4.zero(), F4.zero(), F4.zero(), F4.one())
    chain = divisor_chain(f, 10)
    assert len(chain.elements) == 3
    assert chain.terminated
    last = chain.elements[-1]
    assert last.degree() == 1 and last.poly.constant().is_zero()


def test_chain_for_an_atom():
    chain = divisor_chain(elem(T_F2F4, F4.one(), F4.one()), 10)
    assert len(chain.elements) == 1
    assert chain.terminated


# X^3 -> X^2 -> X: the cap cuts the chain short, and the last search certifies the atom
@pytest.mark.parametrize("max_steps,length,terminated", [(0, 1, False), (1, 2, False),
                                                         (2, 3, True), (3, 3, True)])
def test_chain_cap(max_steps, length, terminated):
    chain = divisor_chain(parse_composite("F2<F4:[0,0,0,1]"), max_steps)
    assert (len(chain.elements), chain.terminated) == (length, terminated)


def test_chain_rejects_units():
    with pytest.raises(ParameterError):
        divisor_chain(elem(T_F2F4, F4.one()), 5)


def test_chain_rejects_a_negative_cap():
    x_cubed = elem(T_F2F4, F4.zero(), F4.zero(), F4.zero(), F4.one())
    with pytest.raises(ParameterError, match="max_steps"):
        divisor_chain(x_cubed, -1)


def test_every_chain_terminates_with_degree_descent():
    for f in all_elements(T_F2F4, 4):
        if f.is_zero() or f.is_unit():
            continue
        chain = divisor_chain(f, f.degree() + 1)
        assert chain.terminated, f
        assert chain.steps <= f.degree(), f
        degrees = [e.degree() for e in chain.elements]
        assert degrees == sorted(degrees, reverse=True)
        assert all(a > b for a, b in zip(degrees, degrees[1:]))


# --- the pruned searches against the exhaustive one ----------------------------------


def exhaustive_split(f):
    """The split has_nontrivial_factorization searches for: every degree 1 .. deg f - 1."""
    return _find_factorization(f, range(1, f.degree()))


def check_pruned_searches(f):
    """Each pruning rule against the exhaustive search, along f's whole divisor chain."""
    split = exhaustive_split(f)
    assert _smallest_split(f) == split, f  # no least divisor above deg f // 2
    assert f.is_irreducible() == (split is None), f
    assert reduce(mul, atomize(f)) == f
    chain = [f]
    while split is not None:
        g, h = split
        assert exhaustive_split(g) is None, f  # the least divisor is an atom
        split = exhaustive_split(h)
        assert _smallest_split(h, g.degree()) == split, f  # h has none below deg g
        chain.append(h)
    assert list(divisor_chain(f, f.degree()).elements) == chain, f


@pytest.mark.parametrize(
    "tower",
    [T_F2F4, T_DEEP, Tower([F2, F4], F4)],
    ids=["F2<F4", "F2<F2<F4", "F2<F4<F4"],
)
def test_pruned_searches_agree_with_the_exhaustive_one_up_to_degree_4(tower):
    checked = 0
    for f in all_elements(tower, 4):
        if not (f.is_zero() or f.is_unit()):
            check_pruned_searches(f)
            checked += 1
    assert checked > 250


@pytest.mark.parametrize("tower", [T_F3F9, Tower([F3, F3], F9)], ids=["F3<F9", "F3<F3<F9"])
def test_pruned_searches_agree_with_the_exhaustive_one_on_a_sample(tower):
    rng = random.Random(21)
    pools = [tower.level_elements(i) for i in range(5)]
    for _ in range(40):
        deg = rng.randrange(2, 5)
        coeffs = [rng.choice(pools[i]) for i in range(deg)] + [rng.choice(pools[deg][1:])]
        check_pruned_searches(CompositeElement.make(tower, coeffs))
