"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion is property- or oracle-based at desk scale, with its
runtime ceiling asserted alongside the property itself. Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import random
import time
from functools import reduce
from math import gcd
from operator import mul

from compalg import (
    CompositeElement,
    Integers,
    IntegersMod,
    NumericalMonoid,
    Polynomial,
    PrimeField,
    Tower,
    atomize,
    build_irreducible,
    default_extension_field,
    divisor_chain,
    has_nontrivial_factorization,
    ideal,
    is_irreducible_by_search,
    search_inverse,
)
from compalg.arith import is_prime, smallest_primitive_root
from compalg.ciphers import (
    DhParams,
    FractionalKey,
    ZoneKey,
    composite_cipher_decrypt,
    composite_cipher_encrypt,
    composite_cipher_keygen,
    dh_exchange,
    discrete_log_bsgs,
    frac_decrypt,
    frac_decrypt_fast_path,
    frac_encrypt,
    monoid_decrypt,
    monoid_encrypt,
    monoid_keygen,
    random_affine_polynomial,
    rsa_decrypt,
    rsa_encrypt,
    rsa_keygen,
    zone_decrypt,
    zone_encrypt,
)
from compalg.keyexchange import run_composite_agreement, run_dh

F2 = PrimeField(2)
F3 = PrimeField(3)
F4 = default_extension_field(2, 2)
F9 = default_extension_field(3, 2)
T_F2F4 = Tower([F2], F4)
T_F3F9 = Tower([F3], F9)

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


def _report(number: int, name: str, detail: str):
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


def _all_tower_elements(tower, max_degree):
    per_index = [tower.level_elements(i) for i in range(max_degree + 1)]
    stack = [[]]
    for cands in per_index:
        stack = [pre + [c] for pre in stack for c in cands]
    for coeffs in stack:
        yield CompositeElement(tower, Polynomial(tower.top, coeffs))


def test_criterion_1_unit_criterion_equivalence():
    start = time.time()
    checked = 0
    for n in (4, 6, 8, 9, 12):
        ring = IntegersMod(n)
        if n <= 6:
            tuples = itertools.product(range(n), repeat=4)
        else:
            rng = random.Random(1000 + n)
            tuples = (tuple(rng.randrange(n) for _ in range(4)) for _ in range(10_000))
        for coeffs in tuples:
            f = Polynomial(ring, coeffs)
            inverse = search_inverse(f, 8)
            assert f.is_unit() == (inverse is not None), (n, coeffs)
            if inverse is not None:
                assert f * inverse == Polynomial(ring, [1])
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, "unit criterion = inverse search", f"{checked} polynomials, {elapsed:.1f}s")


def test_criterion_2_irreducibility_theorem_equivalence():
    start = time.time()
    checked = 0
    for tower in (T_F2F4, T_F3F9):
        for f in _all_tower_elements(tower, 3):
            if f.is_zero() or f.is_unit():
                continue
            assert f.is_irreducible() == (not has_nontrivial_factorization(f)), f
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 300s"
    _report(2, "irreducible iff no factorization", f"{checked} elements, {elapsed:.1f}s")


def test_criterion_3_atom_shapes_and_reassembly():
    start = time.time()
    rng = random.Random(3)
    checked = 0
    for tower in (T_F2F4, T_F3F9):
        level0 = tower.level_elements(0)
        top = list(tower.top.elements())
        while checked < (550 if tower is T_F2F4 else 1100):
            deg = rng.randrange(1, 7)
            coeffs = [rng.choice(level0)] + [rng.choice(top) for _ in range(deg)]
            f = CompositeElement(tower, Polynomial(tower.top, coeffs))
            if f.is_zero() or f.is_unit():
                continue
            atoms = atomize(f)
            assert reduce(mul, atoms) == f, f
            for a in atoms:
                p = a.poly
                monomial_shape = p.degree() == 1 and p.constant().is_zero()
                unit_constant_shape = (
                    tower.level_contains(0, p.constant())
                    and not p.constant().is_zero()
                    and p.is_irreducible()
                )
                assert monomial_shape or unit_constant_shape, (f, a)
            checked += 1
    elapsed = time.time() - start
    _report(3, "atom shapes and exact reassembly", f"{checked} inputs, {elapsed:.1f}s")


def test_criterion_4_monoid_irreducible_construction():
    start = time.time()
    Z = Integers()
    primes = [2, 3, 5, 7]
    checked = 0
    for gens in ((2, 3), (3, 5)):
        monoid = NumericalMonoid(gens)
        atoms = [m for m in range(1, 9) if monoid.is_atom(m)]
        members = monoid.members_upto(8)
        for m1 in atoms:
            gap = [m for m in members if not monoid.in_shifted(m, m1)]
            for r_minus_1 in range(1, len(gap) + 1):
                for exps in itertools.permutations(gap, r_minus_1):
                    for ps in itertools.product(primes, repeat=r_minus_1):
                        cert = build_irreducible(Z, monoid, ps, (m1,) + exps)
                        assert is_irreducible_by_search(cert.element, 12, 6), cert
                        checked += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 300s"
    _report(4, "constructed elements verify irreducible", f"{checked} constructions, {elapsed:.1f}s")


def test_criterion_5_cipher_round_trips():
    start = time.time()
    rng = random.Random(5)
    counts = {}

    # ideal-key multiplicative cipher: full domain, then random keys
    key = rsa_keygen(ideal(3), ideal(11), ideal(3))
    full = list(range(key.phi.generator))
    assert rsa_decrypt(rsa_encrypt(full, key), key) == full
    done = 0
    while done < 1000:
        p, q = rng.sample(PRIMES_TO_100[1:], 2)
        phi = (p - 1) * (q - 1)
        e = rng.randrange(2, phi)
        if gcd(e, phi) != 1:
            continue
        k = rsa_keygen(ideal(p), ideal(q), ideal(e))
        msgs = [rng.randrange(phi) for _ in range(10)]
        assert rsa_decrypt(rsa_encrypt(msgs, k), k) == msgs
        done += 1
    counts["rsa"] = done

    # shared-ideal derivation: both parties must agree
    done = 0
    while done < 1000:
        p = rng.choice(PRIMES_TO_100)
        g = rng.randrange(p + 1, 6 * p)
        ex = dh_exchange(DhParams(ideal(p), ideal(g)), rng.randrange(1, 10 * p), rng.randrange(1, 10 * p))
        assert ex.shared_first == ex.shared_second
        done += 1
    counts["dh"] = done

    # multiplier cipher: full domain per key
    done = 0
    while done < 1000:
        a = rng.choice(PRIMES_TO_100[2:])
        k = rng.randrange(2, a)
        if gcd(k, a) != 1:
            continue
        fk = FractionalKey(a, k)
        xs = list(range(2, a + 1))
        assert frac_decrypt(frac_encrypt(xs, fk), fk) == xs
        done += 1
    counts["frac"] = done

    # zone cipher: full domain per key
    done = 0
    while done < 1000:
        p = rng.choice([x for x in PRIMES_TO_100 if x > 5])
        q = rng.choice([x for x in PRIMES_TO_100 if x < p])
        k = rng.randrange(1, 3 * q)
        if gcd(k, q) != 1:
            continue
        zk = ZoneKey(p, q, k)
        vs = list(range(1, p + 1))
        assert zone_decrypt(zone_encrypt(vs, zk), zk) == vs
        done += 1
    counts["zone"] = done

    # composite-keyed block cipher: random key polynomials
    for _ in range(1000):
        f = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        g = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        fg = composite_cipher_keygen(f, g)
        msg = [rng.randrange(26) for _ in range(rng.randrange(1, 10))]
        assert composite_cipher_decrypt(composite_cipher_encrypt(msg, fg), fg) == msg
    counts["compcipher"] = 1000

    # exponent cipher: full domain for the worked key, then random keys
    mkey = monoid_keygen(29, random.Random(0), 4)
    full = list(range(28))
    assert monoid_decrypt(monoid_encrypt(full, mkey), mkey) == full
    primes_pool = [p for p in range(5, 1010) if is_prime(p)]
    for _ in range(1000):
        p = rng.choice(primes_pool)
        mk = monoid_keygen(p, rng, rng.randrange(1, 6))
        msgs = [rng.randrange(p - 1) for _ in range(5)]
        assert monoid_decrypt(monoid_encrypt(msgs, mk), mk) == msgs
    counts["monoidcipher"] = 1000

    elapsed = time.time() - start
    detail = ", ".join(f"{name}:{n} keys" for name, n in counts.items())
    _report(5, "six-system round trips", f"{detail}, {elapsed:.1f}s")


def test_criterion_6_fast_path_compatibility():
    start = time.time()
    agreeing_pairs = 0
    for a in PRIMES_TO_100:
        for k in range(2, a):
            if gcd(k, a) != 1 or a % k != 1:
                continue
            key = FractionalKey(a, k)
            for x in range(2, a + 1):
                y = frac_encrypt([x], key)[0]
                assert frac_decrypt_fast_path([y], key)[0] == frac_decrypt([y], key)[0], (a, k, x)
            agreeing_pairs += 1

    counterexample = None
    for a in PRIMES_TO_100:
        for k in range(2, a):
            if gcd(k, a) != 1 or a % k == 1:
                continue
            key = FractionalKey(a, k)
            for x in range(2, a + 1):
                y = frac_encrypt([x], key)[0]
                if frac_decrypt_fast_path([y], key)[0] != x:
                    counterexample = (a, k, x, y)
                    break
            if counterexample:
                break
        if counterexample:
            break
    assert counterexample is not None, "expected the shortcut to fail off its domain"
    a, k, x, y = counterexample
    elapsed = time.time() - start
    _report(
        6,
        "published shortcut valid iff |A|=1 mod k",
        f"{agreeing_pairs} agreeing pairs; fails at |A|={a} k={k} x={x} y={y}; {elapsed:.1f}s",
    )


def test_criterion_7_exchange_agreement_and_replay():
    start = time.time()
    rng = random.Random(7)
    for _ in range(1000):
        p = rng.choice(PRIMES_TO_100)
        g = rng.randrange(p + 1, 6 * p)
        run = run_dh(
            DhParams(ideal(p), ideal(g)),
            seed_first=rng.randrange(2**32),
            seed_second=rng.randrange(2**32),
        )
        assert run.transcript.digests_equal()
    for _ in range(1000):
        f = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        g = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        agree = run_composite_agreement(f, g)
        assert agree.agreed
    # byte-identical replays under fixed seeds
    params = DhParams(ideal(13), ideal(20))
    t1 = run_dh(params, seed_first=42, seed_second=43).transcript.serialize()
    t2 = run_dh(params, seed_first=42, seed_second=43).transcript.serialize()
    assert t1 == t2
    f = random_affine_polynomial(26, 2, random.Random(9))
    g = random_affine_polynomial(26, 1, random.Random(10))
    a1 = run_composite_agreement(f, g).transcript.serialize()
    a2 = run_composite_agreement(f, g).transcript.serialize()
    assert a1 == a2
    elapsed = time.time() - start
    _report(7, "exchanges agree and replay deterministically", f"2000 runs, {elapsed:.1f}s")


def test_criterion_8_discrete_log_oracle_equivalence():
    start = time.time()
    targets = 0
    for p in range(2, 1010):
        if not is_prime(p):
            continue
        g = smallest_primitive_root(p)
        # exhaustive side: one full walk of the cyclic group records
        # the brute-force log of every target
        exhaustive = {}
        cur = 1
        for m in range(p - 1):
            exhaustive.setdefault(cur, m)
            cur = cur * g % p
        for target in range(1, p):
            assert discrete_log_bsgs(g, target, p) == exhaustive[target], (p, target)
            targets += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(8, "Pohlig–Hellman log = exhaustive log", f"{targets} targets, {elapsed:.1f}s")


def test_criterion_9_divisor_chain_termination():
    start = time.time()
    checked = 0
    for f in _all_tower_elements(T_F2F4, 4):
        if f.is_zero() or f.is_unit():
            continue
        chain = divisor_chain(f, f.degree() + 1)
        assert chain.terminated, f
        assert chain.steps <= f.degree(), f
        degrees = [e.degree() for e in chain.elements]
        assert all(a > b for a, b in zip(degrees, degrees[1:])), f
        checked += 1
    elapsed = time.time() - start
    _report(9, "divisor chains terminate with strict descent", f"{checked} chains, {elapsed:.1f}s")
