"""``monoid``: certified irreducibles, irreducibility searches and membership.

Three op classes reach the ring kernel through monoid_domain rather
than Polynomial:

* ``certify`` (70 %): build a certified irreducible over Z[M] on a fresh
  monoid and verify it with ``is_irreducible_by_search``; about a
  millisecond of int arithmetic, so ``op_p50_ms`` falls here.
* ``search`` (25 %): exhaustive searches over F3/F5/F4[M<2,3>] at degree
  6-8, spent in RingElement arithmetic inside monoid_domain's exact
  division. Four in five inputs are irreducible in F[X] (so the search
  must try every candidate and answer True); F3 at degree 8 is the
  most common of them and ``op_p90_ms`` falls among those. One in five
  is a product of two elements of F[M] and must answer False.
* ``contains`` (5 %): one membership query at exponent 4.5e5 on a fresh
  two-generator monoid; the coin-problem table grows to that length,
  so this class sets ``peak_rss_mib`` and a large share of the time
  behind ``ops_per_s``. The exponent is fixed because the allocator's
  peak for a growing list depends on the sizes of the lists before it;
  with varying lengths the peak flipped between two values 3 MiB apart
  from seed to seed.
"""

from __future__ import annotations

from gf import GF
from harness import Op, Rotation

MODULES = ["compalg.monoid_domain", "compalg.rings"]

#: ops per shuffled block of 20
SHARES = {"certify": 14, "search": 5, "contains": 1}

#: (field, degree) of the irreducible search inputs, one block's worth;
#: the (None, None) slot is a reducible product g*h
SEARCH_SLOTS = (("F4", 6), ("F5", 6), ("F3", 8), ("F3", 8), (None, None))

#: (deg g, deg h) of the reducible search inputs g*h; both degrees in M<2,3>
PRODUCT_DEGREES = ((2, 4), (3, 3), (2, 5), (3, 4), (2, 6), (3, 5), (4, 4))

#: (generators, m1, later exponents) of the certified constructions. The
#: search's cost hardly depends on the primes but jumps by orders of
#: magnitude between exponent patterns; these are the patterns whose
#: verification takes about a millisecond at the commit that introduced
#: them, so the p50 rank lands in a dense band rather than on a cliff.
CERT_TEMPLATES = (
    ((2, 5), 5, (0, 6)), ((2, 5), 5, (2, 6)), ((2, 5), 5, (4, 6)),
    ((3, 4), 3, (0, 8)), ((3, 4), 3, (8,)), ((3, 5), 3, (0, 10)),
    ((3, 7), 7, (0, 9)), ((3, 7), 7, (3, 9)), ((3, 8), 8, (6, 9)),
    ((4, 5), 4, (5, 10)), ((4, 5), 4, (10, 5)),
    ((4, 5, 7), 4, (5, 10)), ((4, 5, 7), 4, (7, 10)), ((4, 5, 7), 4, (10,)),
    ((4, 5, 7), 4, (10, 5)), ((4, 5, 7), 4, (10, 7)), ((4, 5, 7), 7, (0, 9)),
    ((4, 5, 7), 7, (0, 10)), ((4, 5, 7), 7, (5, 9)), ((4, 5, 7), 7, (8, 9)),
    ((4, 5, 7), 7, (8, 10)), ((4, 5, 7), 7, (9, 8)), ((4, 5, 7), 7, (9, 10)),
    ((4, 5, 7), 7, (10,)), ((4, 5, 7), 7, (10, 8)), ((4, 5, 7), 7, (10, 9)),
    ((5, 6), 5, (6, 12)), ((5, 7, 9), 9, (10, 12)), ((5, 7, 9), 9, (12,)),
    ((5, 7, 9), 9, (12, 10)),
)
CERT_PRIMES = (2, 3, 5, 7)
CERT_EXP_BOUND, CERT_COEFF_BOUND = 12, 6

#: primes whose pairs generate the membership monoids; their Frobenius
#: numbers (3.6-5.6e5) straddle the queried exponent, so both answers occur
CONTAINS_GENERATORS = (601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661,
                       673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751)
CONTAINS_EXPONENT = 450_000

TRACE_OPS = 100


def members(gens, bound: int) -> list[bool]:
    table = [True] + [False] * bound
    for m in range(1, bound + 1):
        table[m] = any(m >= g and table[m - g] for g in gens)
    return table


def two_generator_member(a: int, b: int, m: int) -> bool:
    """m in <a, b> for coprime a, b: the least x with a*x = m (mod b) fits."""
    x = m * pow(a, -1, b) % b
    return a * x <= m


class State:
    def __init__(self, lib):
        self.lib = lib
        rings = lib.rings
        self.Z = rings.Integers()
        self.fields = {}
        for name, (p, k) in {"F3": (3, 1), "F5": (5, 1), "F4": (2, 2)}.items():
            ring = rings.PrimeField(p) if k == 1 else rings.default_extension_field(p, k)
            gf = GF(p, ring.modulus) if k > 1 else GF(p)
            self.fields[name] = (ring, gf)
        self.m23 = lib.monoid_domain.NumericalMonoid([2, 3])
        self.support23 = members((2, 3), 8)
        self.rotation = Rotation()


def setup(lib, rng) -> State:
    return State(lib)


def _random_poly(rng, gf: GF, degree: int, support: list[bool]) -> list[int]:
    """Coefficients with support in the monoid and a nonzero leading term."""
    f = [rng.randrange(gf.q) if support[e] else 0 for e in range(degree + 1)]
    f[degree] = rng.randrange(1, gf.q)
    return f


def _certify(state: State, rng) -> Op:
    lib = state.lib
    gens, m1, rest = rng.choice(CERT_TEMPLATES)
    exponents = [m1, *rest]
    primes = [rng.choice(CERT_PRIMES) for _ in rest]
    expected = {m1: -1}
    for i, (m, p) in enumerate(zip(rest, primes)):
        expected[m] = p if i == len(rest) - 1 else -p

    def run():
        md = lib.monoid_domain
        cert = md.build_irreducible(state.Z, md.NumericalMonoid(gens), primes, exponents)
        return cert, md.is_irreducible_by_search(cert.element, CERT_EXP_BOUND, CERT_COEFF_BOUND)

    def check(res):
        cert, irreducible = res
        terms = {e: c.value for e, c in cert.element.terms}
        return irreducible and terms == expected

    return Op("certify", run, check)


def _search(state: State, rng) -> Op:
    lib = state.lib
    support = state.support23
    name, degree = state.rotation.pick("search", SEARCH_SLOTS)
    if name is not None:
        ring, gf = state.fields[name]
        f = _random_poly(rng, gf, degree, support)
        while not gf.is_irreducible(f):
            f = _random_poly(rng, gf, degree, support)
        expected = True
    else:
        ring, gf = state.fields[rng.choice(sorted(state.fields))]
        dg, dh = rng.choice(PRODUCT_DEGREES)
        f = gf.poly_mul(_random_poly(rng, gf, dg, support), _random_poly(rng, gf, dh, support))
        degree, expected = dg + dh, False
    terms = [(e, gf.value(c)) for e, c in enumerate(f) if c]

    def run():
        f = lib.monoid_domain.MonoidElement(ring, state.m23, terms)
        return lib.monoid_domain.is_irreducible_by_search(f, degree)

    return Op("search", run, lambda verdict: verdict is expected)


def _contains(state: State, rng) -> Op:
    a, b = rng.sample(CONTAINS_GENERATORS, 2)
    m = CONTAINS_EXPONENT
    expected = two_generator_member(a, b, m)

    def run():
        return state.lib.monoid_domain.NumericalMonoid([a, b]).contains(m)

    return Op("contains", run, lambda member: member is expected)


def make_op(state: State, rng, cls: str) -> Op:
    if cls == "certify":
        return _certify(state, rng)
    if cls == "search":
        return _search(state, rng)
    return _contains(state, rng)
