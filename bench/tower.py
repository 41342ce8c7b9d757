"""``tower``: decisions, atomizations and divisor chains in tower subrings.

Most ops (80 %) are irreducibility decisions at degree 2-3 over F2<F4
and F3<F9, 0.2-1.5 ms each and spent in the object layer (RingElement
and Polynomial construction and arithmetic); ``op_p50_ms`` falls among
them. The other 20 % are slow: atomizations at degree 4-6, divisor
chains at degree 4, and depth-2 decisions, oracle calls, atomizations
and chains over F2<F2<F4; they take 1-80 ms each, spent in trial
division and divisor search, and ``op_p90_ms`` falls among them. A
kernel change and a change of algorithm therefore show on different
percentiles.

Inputs are plain coefficient vectors drawn from the seed; each op builds
its CompositeElement from them, so construction is part of the op. Each
class cycles through fixed slots (below), so the seed varies the
coefficients but not the composition.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from gf import GF
from harness import Op, Rotation

MODULES = ["compalg.composite", "compalg.poly", "compalg.rings"]

#: ops per shuffled block of 20
SHARES = {"decide": 16, "slow": 4}

#: A decision slot is (tower, degree, irreducible in B[X]); the input is
#: drawn by rejection with gf.py. An irreducible input costs a full trial
#: division, a narrow band per slot; a reducible one stops at its first
#: divisor, anywhere below that. With the reducible slot (random tower,
#: degree 2 or 3) under three irreducible bands, p50 falls 62.5 % into
#: the decisions: the middle of the F2<F4 degree-3 band. Degree-1
#: decisions are trivially true and are left out.
DECIDE_SLOTS = ((None, None, False), ("t4", 2, True), ("t4", 3, True), ("t9", 2, True))

#: (kind, tower, degree) of the slow ops: half atomizations, a quarter
#: divisor chains, a quarter depth-2 ops taken in turn from DEEP_SLOTS
SLOW_SLOTS = (
    ("atomize", "t4", 4), ("chain", "t4", 4), ("atomize", "t9", 4), ("deep", None, None),
    ("atomize", "t4", 5), ("chain", "t4", 4), ("atomize", "t9", 5), ("deep", None, None),
    ("atomize", "t4", 6), ("chain", "t4", 4), ("atomize", "t9", 4), ("deep", None, None),
)
DEEP_SLOTS = (("decide", 3), ("atomize", 4), ("chain", 4), ("oracle", 4), ("decide", 4),
              ("atomize", 3))

TRACE_OPS = 2000


class State:
    def __init__(self, lib):
        self.lib = lib
        rings, composite = lib.rings, lib.composite
        F2, F3 = rings.PrimeField(2), rings.PrimeField(3)
        F4 = rings.default_extension_field(2, 2)
        F9 = rings.default_extension_field(3, 2)
        self.t4 = composite.Tower([F2], F4)
        self.t9 = composite.Tower([F3], F9)
        self.deep = composite.Tower([F2, F2], F4)
        self.gf = {"t4": GF(2, F4.modulus), "t9": GF(3, F9.modulus)}
        self.rotation = Rotation()


def setup(lib, rng) -> State:
    return State(lib)


def _coefficient(rng, tower, i: int) -> tuple[int, ...]:
    """Vector of a random coefficient of X^i; levels here are prime fields,
    so the image of a level is the constants (c, 0)."""
    p, k = tower.top.p, tower.top.degree
    if i < tower.depth:
        return (rng.randrange(p),) + (0,) * (k - 1)
    return tuple(rng.randrange(p) for _ in range(k))


def _random_values(rng, tower, degree: int) -> list[tuple[int, ...]]:
    """Coefficient vectors of a level-respecting element of exact degree."""
    values = [_coefficient(rng, tower, i) for i in range(degree + 1)]
    while not any(values[-1]):
        values[-1] = _coefficient(rng, tower, degree)
    return values


def _decide_input(state: State, rng, name, degree: int, irreducible: bool):
    """A depth-1 element whose B[X] irreducibility (and so its verdict,
    by the single-level criterion) is the slot's."""
    if name is None:
        name, degree = rng.choice(("t4", "t9")), rng.choice((2, 3))
    tower, gf = getattr(state, name), state.gf[name]
    while True:
        values = _random_values(rng, tower, degree)
        if gf.is_irreducible([gf.from_digits(v) for v in values]) == irreducible:
            return tower, values


def _element(lib, tower, values):
    top = tower.top
    return lib.composite.CompositeElement.make(tower, [top.element(v) for v in values])


def _atoms_ok(lib, tower, f, atoms) -> bool:
    """Product equals f, and every atom has one of the two valid shapes."""
    if reduce(mul, atoms) != f:
        return False
    for a in atoms:
        p = a.poly
        monomial = p.degree() == 1 and p.constant().is_zero()
        if tower.depth == 1:
            unit_constant = (
                tower.level_contains(0, p.constant())
                and not p.constant().is_zero()
                and p.is_irreducible()
            )
        else:
            unit_constant = not lib.composite.has_nontrivial_factorization(a)
        if not (monomial or unit_constant):
            return False
    return True


def _chain_ok(f, chain) -> bool:
    """Terminated, strictly descending degrees, each entry divides the last."""
    elems = chain.elements
    if elems[0] != f or not chain.terminated:
        return False
    for prev, nxt in zip(elems, elems[1:]):
        if nxt.degree() >= prev.degree() or not (prev.poly % nxt.poly).is_zero():
            return False
    return True


def _decide(lib, tower, values):
    def run():
        f = _element(lib, tower, values)
        return f, f.is_irreducible()

    def check(res):
        f, verdict = res
        return verdict == (not lib.composite.has_nontrivial_factorization(f))

    return run, check


def _oracle(lib, tower, values):
    def run():
        f = _element(lib, tower, values)
        return f, lib.composite.has_nontrivial_factorization(f)

    def check(res):
        f, factorable = res
        return factorable == (not f.is_irreducible())

    return run, check


def _atomize(lib, tower, values):
    def run():
        f = _element(lib, tower, values)
        return f, lib.composite.atomize(f)

    def check(res):
        f, atoms = res
        return _atoms_ok(lib, tower, f, atoms)

    return run, check


def _chain(lib, tower, values):
    def run():
        f = _element(lib, tower, values)
        return f, lib.composite.divisor_chain(f, f.degree() + 1)

    def check(res):
        return _chain_ok(*res)

    return run, check


KINDS = {"decide": _decide, "oracle": _oracle, "atomize": _atomize, "chain": _chain}


def make_op(state: State, rng, cls: str) -> Op:
    lib, pick = state.lib, state.rotation.pick
    if cls == "decide":
        tower, values = _decide_input(state, rng, *pick(cls, DECIDE_SLOTS))
        run, check = _decide(lib, tower, values)
    else:
        kind, name, degree = pick(cls, SLOW_SLOTS)
        if kind == "deep":
            (kind, degree), tower = pick(kind, DEEP_SLOTS), state.deep
        else:
            tower = getattr(state, name)
        run, check = KINDS[kind](lib, tower, _random_values(rng, tower, degree))
    return Op(cls, run, check)
