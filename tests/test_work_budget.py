"""The work budget counts exactly the candidates the divisor loop tries.

For one irreducible input of each search kind every candidate is tested
against f, so the number of candidates ``dense_divider`` screens or
divides is the search's whole cost. A budget of exactly that count
answers the input; one step less refuses it before any division.
"""

import pytest

from compalg import CeilingError, Integers, NumericalMonoid, PrimeField, errors, rings
from compalg.composite import has_nontrivial_factorization
from compalg.monoid_domain import MonoidElement, is_irreducible_by_search
from compalg.poly import Polynomial
from compalg.textio import parse_composite

M23 = NumericalMonoid([2, 3])
TRIAL = Polynomial(PrimeField(2), [1, 1, 0, 1, 1, 0, 0, 0, 1])
DEEP = parse_composite("F2<F2<F4:[1,1,0,0,1]")
FAST = parse_composite("F2<F2<F4:[1,1,t,0,1]")  # splits in F4[X], not in the subring
OVER_F3 = MonoidElement(PrimeField(3), M23, {0: 2, 3: 1, 8: 1})
OVER_Z = MonoidElement(Integers(), M23, {0: 1, 2: 1, 7: 1})

CASES = {
    # monic divisors of degree 1 to 4 over F2: 2 + 4 + 8 + 16
    "trial division": (TRIAL.is_irreducible, True, 30),
    # divisor degrees 1, 2, 3 with levels F2, F2, F4: 2*1 + 2*2*3 + 2*2*4*3
    "depth-2 composite": (lambda: has_nontrivial_factorization(DEEP), False, 62),
    "monoid over F3": (lambda: is_irreducible_by_search(OVER_F3, 8), True, 726),
    "monoid over Z": (lambda: is_irreducible_by_search(OVER_Z, 7, 2), True, 468),
}


def divisions(monkeypatch, call):
    count = 0
    divider = rings.dense_divider

    def counting(ring, f):
        divide = divider(ring, f)

        def tested(ring, f, g):
            nonlocal count
            count += 1
            return divide(ring, f, g)

        return tested

    with monkeypatch.context() as patch:
        patch.setattr(rings, "dense_divider", counting)
        patch.setattr(errors, "WORK_BUDGET", 1 << 30)
        call()
    return count


@pytest.mark.parametrize("kind", CASES)
def test_the_budget_is_the_count_of_candidates_tried(monkeypatch, kind):
    call, answer, candidates = CASES[kind]
    assert divisions(monkeypatch, call) == candidates
    monkeypatch.setattr(errors, "WORK_BUDGET", candidates)
    assert call() == answer
    monkeypatch.setattr(errors, "WORK_BUDGET", candidates - 1)
    with pytest.raises(CeilingError, match=f"needs at least {candidates} steps, above the work "
                                           f"budget {candidates - 1}$"):
        call()


def test_the_decision_searches_divisor_degrees_up_to_half_the_degree(monkeypatch):
    # degrees 1 and 2 of 1, 2, 3 with levels F2, F2, F4: 2*1 + 2*2*3 of the oracle's 62
    assert not FAST.poly.is_irreducible()
    assert divisions(monkeypatch, lambda: has_nontrivial_factorization(FAST)) == 62
    # the B[X] criterion is silent on FAST, so skip its trial division and count the search
    monkeypatch.setattr(Polynomial, "is_irreducible", lambda self: False)
    assert divisions(monkeypatch, FAST.is_irreducible) == 14
    monkeypatch.setattr(errors, "WORK_BUDGET", 14)
    assert FAST.is_irreducible()
    monkeypatch.setattr(errors, "WORK_BUDGET", 13)
    with pytest.raises(CeilingError, match="needs at least 14 steps, above the work budget 13$"):
        FAST.is_irreducible()
