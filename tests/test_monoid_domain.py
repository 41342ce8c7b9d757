"""Numerical monoids, monoid-domain elements, the certified irreducible
construction and its brute-force verification."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalg import arith, monoid_domain, rings
from compalg.errors import check_work
from compalg.rings import dense_divider, dense_exact_quotient, dense_mul
from compalg import (
    CeilingError,
    Integers,
    IntegersMod,
    MembershipError,
    MonoidElement,
    NumericalMonoid,
    ParameterError,
    PrimeField,
    build_irreducible,
    is_irreducible_by_search,
)

M23 = NumericalMonoid([2, 3])
M35 = NumericalMonoid([3, 5])
Z = Integers()
F5 = PrimeField(5)


# --- membership ---------------------------------------------------------


def test_frobenius_gap():
    assert not M23.contains(1)
    assert M23.contains(7)
    assert M23.contains(0)


def test_membership_rejects_negatives():
    with pytest.raises(ParameterError):
        M23.contains(-1)


def test_atoms_are_the_minimal_generators():
    assert M23.is_atom(2) and M23.is_atom(3)
    assert not M23.is_atom(4)  # 2 + 2
    assert not M23.is_atom(0)
    assert M35.is_atom(5)


def test_redundant_generator_is_not_an_atom():
    m = NumericalMonoid([2, 3, 4])
    assert not m.is_atom(4)


def dp_members(gens, bound):
    """Coin-problem table: table[m] says whether m is in <gens>."""
    table = [True] + [False] * bound
    for m in range(1, bound + 1):
        table[m] = any(m >= g and table[m - g] for g in gens)
    return table


def random_generator_sets(seed, count):
    """Sizes 1-4, values 1-25: gcd > 1 and duplicates both occur."""
    rng = random.Random(seed)
    return [[rng.randint(1, 25) for _ in range(rng.randint(1, 4))] for _ in range(count)]


FIXED_GENERATOR_SETS = [[1], [4, 6], [7], [5, 5, 8], [6, 10, 15], [2, 3]]


def test_contains_matches_dynamic_programming():
    for gens in FIXED_GENERATOR_SETS + random_generator_sets(11, 300):
        table = dp_members(gens, 200)
        monoid = NumericalMonoid(gens)
        assert [monoid.contains(m) for m in range(201)] == table, gens


def test_is_atom_matches_pairwise_definition():
    for gens in FIXED_GENERATOR_SETS + random_generator_sets(12, 250):
        table = dp_members(gens, 80)
        monoid = NumericalMonoid(gens)
        for m in range(81):
            pairwise = m > 0 and table[m] and not any(
                table[a] and table[m - a] for a in range(1, m)
            )
            assert monoid.is_atom(m) == pairwise, (gens, m)


def test_membership_at_huge_exponents():
    assert NumericalMonoid([2, 3]).contains(10**12)
    # <a, b> with coprime a, b: m is a member iff the least x >= 0 with
    # a*x = m (mod b) has a*x <= m
    a, b, m = 601, 607, 450_000
    x = m * pow(a, -1, b) % b
    assert NumericalMonoid([a, b]).contains(m) == (a * x <= m)
    frobenius = a * b - a - b
    assert not NumericalMonoid([a, b]).contains(frobenius)
    assert NumericalMonoid([a, b]).contains(frobenius + 1)


@pytest.fixture
def apery_builds(monkeypatch):
    """Record the generators of every Apery-set build."""
    builds = []
    build = monoid_domain._apery_set

    def counting(gens):
        builds.append(gens)
        return build(gens)

    monkeypatch.setattr(monoid_domain, "_apery_set", counting)
    return builds


def test_queries_below_the_smallest_generator_build_nothing(apery_builds):
    monoid = NumericalMonoid([10**9])
    assert not monoid.contains(5)
    assert monoid.contains(0)
    assert apery_builds == []


def test_apery_set_is_built_once_per_monoid(apery_builds):
    monoid = NumericalMonoid([601, 607, 613])
    for m in range(10**6, 10**6 + 5000, 7):
        monoid.contains(m)
    assert monoid.contains(10**15)
    assert apery_builds == [(601, 607, 613)]


def test_two_generators_need_no_table(apery_builds):
    # a 30000000-entry Apery list would not fit the memory of a small machine
    monoid = NumericalMonoid([30_000_000, 30_000_001])
    assert not monoid.contains(5_000_000_000)
    assert monoid.contains(30_000_000 * 4 + 30_000_001 * 3)
    assert NumericalMonoid([6 * 10**9]).contains(18 * 10**9)
    assert apery_builds == []


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 6), st.integers(0, 20_000))
def test_two_generator_rule_matches_the_apery_set(a, b, d, m):
    monoid = NumericalMonoid([a * d, b * d])
    least = monoid_domain._apery_set(monoid.generators)[m % monoid.generators[0]]
    assert monoid.contains(m) == (least is not None and least <= m)


def _cli_child(*argv):
    """Exit code and stdout of the CLI run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "compalg.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, done.stdout


def test_cli_answers_a_huge_exponent_quickly():
    assert _cli_child("monoid", "contains", "M<2,3>", "100000000") == (0, "true\n")


def test_cli_answers_two_huge_generators_without_a_table():
    assert _cli_child("monoid", "contains", "M<30000000,30000001>", "5000000000") == (0, "false\n")


# --- elements -------------------------------------------------------------


def test_exponent_membership_enforced():
    with pytest.raises(MembershipError):
        MonoidElement(F5, M23, {1: 1})


def test_zero_coefficients_are_dropped():
    f = MonoidElement(PrimeField(7), M23, {0: 2, 3: 0})
    assert f.terms == ((0, PrimeField(7).element(2)),)
    assert f.is_unit()


def test_exponent_arithmetic():
    x2 = MonoidElement(F5, M23, {2: 1})
    x3 = MonoidElement(F5, M23, {3: 1})
    assert (x2 * x3).terms == ((5, F5.one()),)


def test_difference_of_squares():
    one_plus = MonoidElement(F5, M23, {0: 1, 2: 1})
    one_minus = MonoidElement(F5, M23, {0: 1, 2: -1})
    assert one_plus * one_minus == MonoidElement(F5, M23, {0: 1, 4: -1})


def test_square_by_hand():
    f = MonoidElement(F5, M23, {2: 1, 3: 1})
    assert f * f == MonoidElement(F5, M23, {4: 1, 5: 2, 6: 1})


def test_unit_criteria():
    assert MonoidElement(F5, M23, {0: 1}).is_unit()
    assert not MonoidElement(F5, M23, {2: 1}).is_unit()
    assert not MonoidElement(F5, M23, {}).is_unit()
    # nilpotent tail over a non-domain ring still counts as a unit
    Z4 = IntegersMod(4)
    assert MonoidElement(Z4, M23, {0: 1, 2: 2}).is_unit()


def test_nilpotent_criteria():
    assert MonoidElement(F5, M23, {}).is_nilpotent()
    assert not MonoidElement(PrimeField(3), M23, {2: 1}).is_nilpotent()
    Z4 = IntegersMod(4)
    assert MonoidElement(Z4, M23, {0: 2, 2: 2}).is_nilpotent()


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.sampled_from([0, 2, 3, 4, 5, 6]), st.integers(0, 4)),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.sampled_from([0, 2, 3, 4, 5, 6]), st.integers(0, 4)),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.sampled_from([0, 2, 3, 4, 5, 6]), st.integers(0, 4)),
        max_size=4,
    ),
)
def test_mul_commutative_associative(ta, tb, tc):
    a = MonoidElement(F5, M23, ta)
    b = MonoidElement(F5, M23, tb)
    c = MonoidElement(F5, M23, tc)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_max_exponent_additivity_over_domains():
    a = MonoidElement(Z, M23, {2: 3, 5: 1})
    b = MonoidElement(Z, M23, {3: -2, 6: 4})
    assert (a * b).max_exponent() == a.max_exponent() + b.max_exponent()


def test_unit_iff_constant_unit_over_domains():
    # over a domain the criterion degenerates: exactly a unit constant
    for f_terms in [{}, {0: 1}, {0: 2}, {2: 1}, {0: 1, 2: 1}, {0: 3, 3: 4}]:
        f = MonoidElement(F5, M23, f_terms)
        expected = len(f.terms) == 1 and f.terms[0][0] == 0 and f.terms[0][1].is_unit()
        assert f.is_unit() == expected, f
    z_cases = [({0: 1}, True), ({0: -1}, True), ({0: 2}, False), ({0: 1, 2: 1}, False)]
    for terms, expected in z_cases:
        assert MonoidElement(Z, M23, terms).is_unit() == expected


# --- certified irreducible construction --------------------------------------


def test_build_matches_known_shape():
    cert = build_irreducible(Z, M23, [2], [2, 3])
    assert cert.element == MonoidElement(Z, M23, {2: -1, 3: 2})
    assert cert.atom_exponent == 2
    assert is_irreducible_by_search(cert.element, 6, 4)


def test_build_rejects_non_atom():
    with pytest.raises(ParameterError, match="not an atom"):
        build_irreducible(Z, M23, [2], [4, 3])


def test_build_rejects_shifted_exponent():
    with pytest.raises(ParameterError, match="m1 \\+ M"):
        build_irreducible(Z, M23, [2], [2, 5])  # 5 = 2 + 3


def test_build_rejects_non_prime_coefficient():
    with pytest.raises(ParameterError, match="prime"):
        build_irreducible(Z, M23, [4], [2, 3])


def test_build_rejects_field_coefficients():
    with pytest.raises(ParameterError, match="over Z"):
        build_irreducible(F5, M23, [2], [2, 3])


def test_build_three_term_element():
    cert = build_irreducible(Z, M23, [2, 3], [3, 0, 2])
    # 3X^2 - 2X^0 - X^3
    assert cert.element == MonoidElement(Z, M23, {0: -2, 2: 3, 3: -1})
    assert is_irreducible_by_search(cert.element, 8, 5)


# --- the search oracle ----------------------------------------------------------


def test_oracle_finds_monomial_split():
    f = MonoidElement(PrimeField(2), M23, {4: 1})  # X^4 = X^2 * X^2
    assert not is_irreducible_by_search(f, 8)


def test_oracle_rejects_units_and_zero():
    with pytest.raises(ParameterError):
        is_irreducible_by_search(MonoidElement(F5, M23, {0: 1}), 8)
    with pytest.raises(ParameterError):
        is_irreducible_by_search(MonoidElement(F5, M23, {}), 8)


def test_oracle_ceiling():
    f = MonoidElement(Z, M23, {9: 1, 0: -2})
    with pytest.raises(CeilingError):
        is_irreducible_by_search(f, 8, 4)


def test_oracle_needs_coeff_bound_over_z():
    with pytest.raises(ParameterError):
        is_irreducible_by_search(MonoidElement(Z, M23, {2: 1, 0: -2}), 8)


def test_oracle_content_split_over_z():
    f = MonoidElement(Z, M23, {2: 2, 5: 4})  # content 2
    assert not is_irreducible_by_search(f, 8, 4)


def test_oracle_prime_constants():
    assert is_irreducible_by_search(MonoidElement(Z, M23, {0: 5}), 8, 4)
    assert not is_irreducible_by_search(MonoidElement(Z, M23, {0: 6}), 8, 4)


def test_oracle_field_split_with_scaling():
    # over F5: X^4 = (2X^2)(3X^2), so scalar factors must not hide splits
    f = MonoidElement(F5, M23, {4: 4})
    assert not is_irreducible_by_search(f, 8)


def test_oracle_supports_only_domains():
    Z4 = IntegersMod(4)
    with pytest.raises(ParameterError):
        is_irreducible_by_search(MonoidElement(Z4, M23, {2: 1, 0: 3}), 8)


def test_constructed_irreducibles_verify_in_both_monoids():
    for monoid, primes, exponents in [
        (M23, [3], [3, 2]),
        (M23, [5, 7], [2, 0, 3]),
        (M35, [2], [3, 5]),
        (M35, [7, 3], [5, 0, 3]),
    ]:
        cert = build_irreducible(Z, monoid, primes, exponents)
        assert is_irreducible_by_search(cert.element, 12, 6), cert


# --- the Z search's skipped candidates ----------------------------------------


def long_quotient(a, b):
    """Plain long division over Z: q with b*q = a, or None."""
    rem, n = list(a), len(b) - 1
    q = [0] * max(0, len(a) - n)
    for shift in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[shift + n], b[-1])
        if r:
            return None
        q[shift] = c
        for i, bi in enumerate(b):
            rem[shift + i] -= c * bi
    return None if any(rem) else q


# the factors that make b(1) = 0 or b(-1) = 0: X - 1, X + 1, X^2 - 1
VANISHING = [[], [-1, 1], [1, 1], [-1, 0, 1]]
short_lists = st.lists(st.integers(-9, 9), max_size=4)
nonzero = st.integers(-4, 4).filter(bool)


@settings(max_examples=400, deadline=None)
@given(short_lists, nonzero, st.sampled_from(VANISHING), short_lists, nonzero, short_lists,
       st.booleans())
def test_exact_quotient_over_z_matches_plain_long_division(
    b_low, b_lead, factor, q_low, q_lead, noise, exact
):
    b = dense_mul(Z, b_low + [b_lead], factor or [1])
    a = dense_mul(Z, b, q_low + [q_lead])
    if not exact:
        a = [x + y for x, y in zip(a, noise + [0] * len(a))]
    while a and a[-1] == 0:
        a.pop()
    if a:
        assert dense_exact_quotient(Z, a, tuple(b)) == long_quotient(a, b)


# the factors whose value is zero at a screen point: X - 1, X + 1, X - 2, X + 2, X^2 - 4
SCREEN_ZEROS = [[], [-1, 1], [1, 1], [-2, 1], [2, 1], [-4, 0, 1]]


@settings(max_examples=400, deadline=None)
@given(short_lists, nonzero, st.sampled_from(SCREEN_ZEROS), short_lists, nonzero,
       st.sampled_from(SCREEN_ZEROS))
def test_the_screen_never_rejects_a_true_divisor(g_low, g_lead, g_zero, h_low, h_lead, h_zero):
    g = dense_mul(Z, g_low + [g_lead], g_zero or [1])
    h = dense_mul(Z, h_low + [h_lead], h_zero or [1])
    f = dense_mul(Z, g, h)
    assert dense_divider(Z, f)(Z, f, tuple(g)) == h


class Lead(int):
    """An integer leading coefficient that counts the division steps by it."""

    steps = 0

    def __rmod__(self, other):
        Lead.steps += 1
        return int.__rmod__(self, other)


def screened_and_never_divided(a, b):
    Lead.steps = 0
    assert dense_divider(Z, a)(Z, a, tuple(b)) is None
    assert Lead.steps == 0
    # the same values pass once a is a multiple of b, and the division runs
    ba = dense_mul(Z, b, a)
    assert dense_divider(Z, ba)(Z, ba, tuple(b)) == a
    assert Lead.steps > 0


@pytest.mark.parametrize(
    "a,b",
    [
        ([3, 1], [-1, Lead(1)]),  # b = X - 1: b(1) = 0, a(1) = 4
        ([3, 1], [1, Lead(1)]),  # b = X + 1: b(-1) = 0, a(-1) = 2
        ([2, 0, 0, 1], [1, -1, Lead(1)]),  # b(-1) = 3 does not divide a(-1) = 1
        ([1, 0, 1], [2, Lead(1)]),  # b(1) = 3 does not divide a(1) = 2
    ],
    ids=["zero-at-1", "zero-at-minus-1", "minus-1", "plus-1"],
)
def test_a_divisor_whose_values_at_1_and_minus_1_do_not_divide_is_never_divided(a, b):
    screened_and_never_divided(a, b)


@pytest.mark.parametrize(
    "a,b",
    [
        ([-1, 1], [3, Lead(1)]),  # b(2) = 5 does not divide a(2) = 1
        ([1, 1], [-3, Lead(1)]),  # b(-2) = -5 does not divide a(-2) = -1
        ([0, 0, 1, 1], [-2, Lead(1)]),  # b = X - 2: b(2) = 0, a(2) = 12
        ([0, -4, 1], [2, Lead(1)]),  # b = X + 2: b(-2) = 0, a(-2) = 12
    ],
    ids=["plus-2", "minus-2", "zero-at-2", "zero-at-minus-2"],
)
def test_a_divisor_that_passes_at_1_and_minus_1_but_not_at_2_or_minus_2_is_never_divided(a, b):
    screened_and_never_divided(a, b)


def unpruned_search(f, c):
    """The Z box search with no skipped candidate: both signs of each
    leading divisor, the whole box at every member exponent, and every
    candidate divided out in full by plain long division."""
    monoid, dense = f.monoid, [0] * (f.max_exponent() + 1)
    for e, v in f._values:
        dense[e] = v
    deg = len(dense) - 1
    if deg == 0:
        return arith.is_prime(abs(dense[0]))
    if gcd(*dense) > 1:
        return False
    box = range(-c, c + 1)
    leads = [s * d for d in arith.divisors(abs(dense[-1])) for s in (1, -1)]
    pool_lists = [
        [box if monoid.contains(e) else (0,) for e in range(dg)] + [leads]
        for dg in range(1, deg)
        if monoid.contains(dg) and monoid.contains(deg - dg)
    ]
    check_work(sum(prod(map(len, pools)) for pools in pool_lists), "the unpruned search")
    for pools in pool_lists:
        for g in itertools.product(*pools):
            q = long_quotient(dense, g)
            if q is not None and all(x == 0 or monoid.contains(e) for e, x in enumerate(q)):
                return False
    return True


def random_element(rng, monoid, top):
    members = monoid.members_upto(top)
    terms = [(rng.choice(members), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(3)]
    return MonoidElement(Z, monoid, terms)


def test_the_z_search_gives_the_unpruned_verdict():
    """Listing one sign per leading divisor and the screen at 1, -1, 2 and -2
    skip candidates, never a verdict, wherever the unpruned search fits
    the work budget."""
    rng = random.Random(22)
    verdicts = []
    for monoid, top in [(M23, 8), (M35, 11), (NumericalMonoid([4, 5, 7]), 14)]:
        for _ in range(150):
            f = random_element(rng, monoid, top)
            if rng.random() < 0.5:
                f = random_element(rng, monoid, top // 2) * random_element(rng, monoid, top // 2)
            if f.is_zero() or f.is_unit():
                continue
            c = rng.randint(1, 3)
            try:
                expected = unpruned_search(f, c)
            except CeilingError:
                continue
            assert is_irreducible_by_search(f, f.max_exponent(), c) == expected, (f, c)
            verdicts.append(expected)
    assert len(verdicts) >= 300 and verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_the_z_search_lists_only_positive_leading_divisors(monkeypatch):
    f = MonoidElement(Z, M23, {0: 1, 3: 5, 7: 12})
    leads = Counter()

    def recording(ring, f, g):
        leads[g[-1]] += 1

    monkeypatch.setattr(rings, "dense_divider", lambda ring, f: recording)
    assert is_irreducible_by_search(f, 7, 1)
    assert sorted(leads) == [1, 2, 3, 4, 6, 12] and len(set(leads.values())) == 1
