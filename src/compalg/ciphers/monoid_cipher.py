"""Exponent cipher over a prime alphabet, broken only by discrete logs.

Letters are exponents: d_i = a_i * X^(m_i) mod p with a secret base X
and public per-position coefficients a_i. X is required to be a
primitive root mod p so that every d_i * a_i^(-1) has a logarithm.
Decryption runs baby-step giant-step, building the baby-step table once
per (base, p) rather than once per letter; an exhaustive log is kept
alongside as the verification oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable

from ..arith import is_prime, is_primitive_root
from ..errors import FormatError, ParameterError
from ..textio import key_record_text, parse_key_record


# A table holds isqrt(p-1)+1 entries, so the bound keeps a long-lived
# process from holding one per prime it ever saw.
@lru_cache(maxsize=16)
def _baby_steps(base: int, p: int) -> tuple[dict[int, int], int, int]:
    """Baby-step table {base^j: j} for j < m, with m = isqrt(p-1)+1 and the
    giant stride base^(-m) mod p; built once per (base mod p, p).

    Callers share the returned dict and must not mutate it.
    """
    m = isqrt(p - 1) + 1
    baby = {}
    cur = 1
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * base % p
    return baby, m, pow(pow(base, m, p), -1, p)


def discrete_log_bsgs(base: int, target: int, p: int) -> int:
    """Smallest m >= 0 with base^m = target mod p, by baby-step giant-step."""
    base %= p
    target %= p
    if target == 0:
        raise ParameterError("discrete log of 0 does not exist")
    if p == 2:
        return 0
    baby, m, giant = _baby_steps(base, p)
    cur = target
    for i in range(m + 1):
        if cur in baby:
            return (i * m + baby[cur]) % (p - 1)
        cur = cur * giant % p
    raise ParameterError(f"{target} is not a power of {base} mod {p}")


def discrete_log_exhaustive(base: int, target: int, p: int) -> int:
    """Reference oracle: walk all powers of the base."""
    base %= p
    target %= p
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
        if not is_primitive_root(self.base, p):
            raise ParameterError(f"base {self.base} is not a primitive root mod {p}")
        if not self.coefficients:
            raise ParameterError("need at least one coefficient")
        if any(not 1 <= a <= p - 1 for a in self.coefficients):
            raise ParameterError(f"coefficients must lie in [1, {p - 1}]")


def monoid_keygen(p: int, rng: random.Random, num_coefficients: int = 8) -> MonoidCipherKey:
    """Sample a primitive root and coefficient list; deterministic per rng."""
    if not is_prime(p):
        raise ParameterError(f"alphabet size {p} must be prime")
    if p < 5:
        raise ParameterError("alphabet size must be at least 5")
    while True:
        x = rng.randrange(2, p)
        if is_primitive_root(x, p):
            break
    coeffs = tuple(rng.randrange(1, p) for _ in range(num_coefficients))
    return MonoidCipherKey(p, x, coeffs)


def monoid_encrypt(values: Iterable[int], key: MonoidCipherKey) -> list[int]:
    """d_i = a_i * X^(m_i) mod p; exponents must lie in [0, p-2]."""
    p, x = key.alphabet_size, key.base
    coeffs = key.coefficients
    out = []
    for i, m in enumerate(values):
        if not 0 <= m <= p - 2:
            raise ParameterError(
                f"message value {m} at position {i} is outside [0, {p - 2}]"
            )
        a = coeffs[i % len(coeffs)]
        out.append(a * pow(x, m, p) % p)
    return out


def monoid_decrypt(values: Iterable[int], key: MonoidCipherKey) -> list[int]:
    """m_i = log_X(d_i * a_i^(-1)) mod (p-1); ciphertext must lie in [1, p-1]."""
    p, x = key.alphabet_size, key.base
    inverses = [pow(a, -1, p) for a in key.coefficients]
    out = []
    for i, d in enumerate(values):
        if not 1 <= d <= p - 1:
            raise ParameterError(
                f"ciphertext value {d} at position {i} is outside [1, {p - 1}]"
            )
        out.append(discrete_log_bsgs(x, d * inverses[i % len(inverses)] % p, p))
    return out


# key file form: monoid-cipher v1 P=29 X=2 A=3,5,7


def key_to_text(key: MonoidCipherKey) -> str:
    coeffs = ",".join(str(a) for a in key.coefficients)
    return key_record_text("monoid-cipher", {"P": key.alphabet_size, "X": key.base, "A": coeffs})


def key_from_text(text: str) -> MonoidCipherKey:
    fields = parse_key_record(text, "monoid-cipher", ("P", "X", "A"))
    try:
        p = int(fields["P"])
        x = int(fields["X"])
        coeffs = tuple(int(a) for a in fields["A"].split(","))
    except ValueError:
        raise FormatError("monoid-cipher key record has a non-integer field") from None
    return MonoidCipherKey(p, x, coeffs)
