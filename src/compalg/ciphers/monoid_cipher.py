"""Exponent cipher over a prime alphabet, broken only by discrete logs.

Letters are exponents: d_i = a_i * X^(m_i) mod p with a secret base X
and public per-position coefficients a_i. X is required to be a
primitive root mod p so that every d_i * a_i^(-1) has a logarithm.
Decryption runs Pohlig–Hellman, baby-step giant-step in each prime-order
subgroup: one plan per (base, p) holds the base's order, its prime-power
factors and a baby-step table per prime, so a letter pays only modular
powers and walks of about sqrt(q) steps for each prime q dividing p-1.
A key whose plan is over the work budget is refused when it is made.
An exhaustive log is kept alongside as the verification oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable

from . import check_domain
from ..arith import factorize, generates_units, is_prime, prime_factors
from ..errors import ParameterError, check_work, read_int
from ..textio import key_record_text, parse_key_record


def _baby_steps(base: int, order: int, p: int) -> tuple[dict[int, int], int, int]:
    """Baby-step table {base^j: j} for j < m, with m = isqrt(order-1)+1 and the
    giant stride base^(-m) mod p, for a base of the given order mod p."""
    m = isqrt(order - 1) + 1
    baby = {}
    cur = 1
    for j in range(m):
        baby[cur] = j
        cur = cur * base % p
    return baby, m, pow(cur, -1, p)


def _check_plan_work(base: int, p: int, primes: Iterable[int]) -> None:
    """Refuse a plan over the work budget: it holds isqrt(q-1)+1 table
    entries per prime q of the base's order."""
    check_work(sum(isqrt(q - 1) + 1 for q in primes),
               f"the Pohlig-Hellman plan for logs to {base} mod {p}")


# A plan is counted against the work budget before the first table is built;
# the cache bound keeps a long-lived process from holding one per key it ever saw.
@lru_cache(maxsize=16)
def _plan(base: int, p: int) -> tuple[int, tuple[tuple, ...]]:
    """Pohlig–Hellman plan for logs to base (reduced mod p) modulo a prime p.

    Returns the order n of the base and, for each prime power q^e exactly
    dividing n, the tuple (q, e, cofactor n/q^e, base^(-n/q^e), CRT
    coefficient, baby-step table, table length, giant stride), where the
    table is that of base^(n/q), which has order q. Callers share the
    tables and must not mutate them.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if base == 0:
        return 1, ()  # 1 = 0^0 is the only unit among the powers of 0
    exponents = factorize(p - 1)
    n = p - 1
    for q in exponents:
        while exponents[q] and pow(base, n // q, p) == 1:
            n //= q
            exponents[q] -= 1
    _check_plan_work(base, p, [q for q, e in exponents.items() if e])
    parts = []
    for q, e in exponents.items():
        if e:
            cofactor = n // q**e
            crt = cofactor * pow(cofactor, -1, q**e) % n
            parts.append((q, e, cofactor, pow(base, -cofactor, p), crt,
                          *_baby_steps(pow(base, n // q, p), q, p)))
    return n, tuple(parts)


def discrete_log_bsgs(base: int, target: int, p: int) -> int:
    """Smallest m >= 0 with base^m = target mod a prime p, for a target prime to p.

    Pohlig–Hellman (IEEE Trans. IT 24, 1978): the log modulo each prime
    power q^e of the base's order n is found digit by digit, each digit by
    baby-step giant-step in the subgroup of order q, and the residues are
    joined by the CRT into [0, n). Raises ``ParameterError`` for a p that is
    not prime, a target that is 0 mod p, or a target outside the powers of
    the base.
    """
    # p = 0 goes on to the plan's primality check, not to a ZeroDivisionError
    n, parts = _plan(base % p if p else base, p)
    target %= p
    if target == 0:
        raise ParameterError("discrete log of 0 does not exist")
    # every unit has target^(p-1) = 1, so only a base of smaller order can miss
    if n != p - 1 and pow(target, n, p) != 1:
        raise ParameterError(f"{target} is not a power of {base % p} mod {p}")
    log = 0
    for q, e, cofactor, inverse, crt, baby, m, giant in parts:
        # h = g^x for g = base^cofactor, of order q^e; the base-q digits of
        # x come low first, each a walk in the subgroup of order q. The
        # target is a power of the base, so every walk stays in that
        # subgroup and ends within m giant steps, as m*m >= q.
        h = pow(target, cofactor, p)
        x, weight = 0, 1
        for k in range(e - 1, 0, -1):
            cur = pow(h, q**k, p)
            i = 0
            while cur not in baby:
                cur = cur * giant % p
                i += 1
            digit = (i * m + baby[cur]) * weight
            h = h * pow(inverse, digit, p) % p
            x += digit
            weight *= q
        i = 0
        while h not in baby:
            h = h * giant % p
            i += 1
        log += (x + (i * m + baby[h]) * weight) * crt
    return log % n


def discrete_log_exhaustive(base: int, target: int, p: int) -> int:
    """Reference oracle: walk all powers of the base. Like discrete_log_bsgs,
    raises ``ParameterError`` for a target that is 0 mod p."""
    base %= p
    target %= p
    if target == 0:
        raise ParameterError("discrete log of 0 does not exist")
    cur = 1
    for m in range(p - 1 if p > 2 else 1):
        if cur == target:
            return m
        cur = cur * base % p
    if target == 1:
        return 0
    raise ParameterError(f"{target} is not a power of {base} mod {p}")


@dataclass(frozen=True)
class MonoidCipherKey:
    """Prime alphabet size, secret primitive-root base, public coefficients."""

    alphabet_size: int
    base: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        p = self.alphabet_size
        if not is_prime(p):
            raise ParameterError(f"alphabet size {p} must be prime")
        if not 2 <= self.base <= p - 1:
            raise ParameterError(f"base {self.base} must lie in [2, {p - 1}]")
        if not generates_units(self.base, p):
            raise ParameterError(f"base {self.base} is not a primitive root mod {p}")
        # the base has order p - 1, so its plan has a table for every prime of p - 1
        _check_plan_work(self.base, p, prime_factors(p - 1))
        if not self.coefficients:
            raise ParameterError("need at least one coefficient")
        if any(not 1 <= a <= p - 1 for a in self.coefficients):
            raise ParameterError(f"coefficients must lie in [1, {p - 1}]")

    @property
    def messages(self) -> range:
        return range(self.alphabet_size - 1)

    @property
    def ciphertexts(self) -> range:
        return range(1, self.alphabet_size)


def monoid_keygen(p: int, rng: random.Random, num_coefficients: int = 8) -> MonoidCipherKey:
    """Sample a primitive root and coefficient list; deterministic per rng."""
    if not is_prime(p):
        raise ParameterError(f"alphabet size {p} must be prime")
    if p < 5:
        raise ParameterError("alphabet size must be at least 5")
    check_work(num_coefficients, "drawing monoid-cipher coefficients")
    while True:
        x = rng.randrange(2, p)
        if generates_units(x, p):
            break
    coeffs = tuple(rng.randrange(1, p) for _ in range(num_coefficients))
    return MonoidCipherKey(p, x, coeffs)


def monoid_encrypt(values: Iterable[int], key: MonoidCipherKey) -> list[int]:
    """d_i = a_i * X^(m_i) mod p, for exponents in key.messages."""
    p, x, coeffs = key.alphabet_size, key.base, key.coefficients
    values = check_domain(values, key.messages, "message")
    return [coeffs[i % len(coeffs)] * pow(x, m, p) % p for i, m in enumerate(values)]


def monoid_decrypt(values: Iterable[int], key: MonoidCipherKey) -> list[int]:
    """m_i = log_X(d_i * a_i^(-1)) mod (p-1), for ciphertexts in key.ciphertexts."""
    p, x = key.alphabet_size, key.base
    inverses = [pow(a, -1, p) for a in key.coefficients]
    values = check_domain(values, key.ciphertexts, "ciphertext")
    return [discrete_log_bsgs(x, d * inverses[i % len(inverses)] % p, p)
            for i, d in enumerate(values)]


# key file form: monoid-cipher v1 P=29 X=2 A=3,5,7


def key_to_text(key: MonoidCipherKey) -> str:
    coeffs = ",".join(str(a) for a in key.coefficients)
    return key_record_text("monoid-cipher", {"P": key.alphabet_size, "X": key.base, "A": coeffs})


def key_from_text(text: str) -> MonoidCipherKey:
    fields = parse_key_record(text, "monoid-cipher", ("P", "X", "A"))
    error = "monoid-cipher key record has a non-integer field"
    p, x = (read_int(fields[name], error, signed=True) for name in ("P", "X"))
    coeffs = tuple(read_int(a, error, signed=True) for a in fields["A"].split(","))
    return MonoidCipherKey(p, x, coeffs)
