"""Sub-alphabet zone cipher.

A secret sub-alphabet of prime length q splits the public alphabet of
prime length p into ceil(p/q) zones. Each plaintext value v in [1, p]
becomes a (zone, digit) pair: the zone index t = ceil(v/q) - 1 travels
in clear by default, the residue r = v - t*q in [1, q] is multiplied by
the key modulo q (with residue 0 written as q so digits stay in [1, q]).
A zone_seed in the key optionally masks the zone labels with a seeded
permutation shared by both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import ceil, gcd
from typing import Iterable, Optional

from ..arith import is_prime
from ..errors import FormatError, ParameterError


@dataclass(frozen=True)
class ZoneKey:
    """Public length p, secret sub-alphabet length q < p, multiplier k.

    ``zone_seed`` switches the transmitted zone labels from the clear
    index to a seeded permutation of [0, zone_count).
    """

    alphabet_size: int   # p, prime
    sub_size: int        # q, prime, q < p
    k: int
    zone_seed: Optional[int] = None

    def __post_init__(self):
        if not is_prime(self.alphabet_size):
            raise ParameterError(f"alphabet size {self.alphabet_size} must be prime")
        if not is_prime(self.sub_size):
            raise ParameterError(f"sub-alphabet size {self.sub_size} must be prime")
        if self.sub_size >= self.alphabet_size:
            raise ParameterError("sub-alphabet must be shorter than the alphabet")
        if self.k < 1 or gcd(self.k, self.sub_size) != 1:
            raise ParameterError(
                f"key k = {self.k} must be positive and coprime to q = {self.sub_size}"
            )

    @property
    def zone_count(self) -> int:
        return ceil(self.alphabet_size / self.sub_size)

    @cached_property
    def _labels(self) -> tuple[int, ...]:
        """Transmitted label of each zone index, shuffled once per key."""
        labels = list(range(self.zone_count))
        if self.zone_seed is not None:
            random.Random(self.zone_seed).shuffle(labels)
        return tuple(labels)

    @cached_property
    def _zone_of_label(self) -> dict[int, int]:
        """Inverse of ``_labels``: zone index of each transmitted label."""
        return {z: t for t, z in enumerate(self._labels)}


def zone_encrypt_letter(v: int, key: ZoneKey) -> tuple[int, int]:
    p, q, k = key.alphabet_size, key.sub_size, key.k
    if not 1 <= v <= p:
        raise ParameterError(f"letter value {v} is outside [1, {p}]")
    t = (v + q - 1) // q - 1
    r = v - t * q  # in [1, q]
    d = r * k % q
    return key._labels[t], q if d == 0 else d


def zone_decrypt_pair(z: int, d: int, key: ZoneKey) -> int:
    p, q, k = key.alphabet_size, key.sub_size, key.k
    t = key._zone_of_label.get(z)
    if t is None:
        raise ParameterError(f"zone label {z} is outside [0, {key.zone_count})")
    if not 1 <= d <= q:
        raise ParameterError(f"digit {d} is outside [1, {q}]")
    r = d % q * pow(k, -1, q) % q
    r = q if r == 0 else r
    v = t * q + r
    if v > p:
        raise ParameterError(f"pair {z}:{d} decodes outside the alphabet")
    return v


def zone_encrypt(values: Iterable[int], key: ZoneKey) -> list[tuple[int, int]]:
    return [zone_encrypt_letter(v, key) for v in values]


def zone_decrypt(pairs: Iterable[tuple[int, int]], key: ZoneKey) -> list[int]:
    return [zone_decrypt_pair(t, d, key) for t, d in pairs]


def pairs_to_text(pairs: Iterable[tuple[int, int]]) -> str:
    return " ".join(f"{t}:{d}" for t, d in pairs)


def pairs_from_text(text: str) -> list[tuple[int, int]]:
    out = []
    for token in text.split():
        t, sep, d = token.partition(":")
        if not sep:
            raise FormatError(f"expected zone:digit, got {token!r}")
        try:
            out.append((int(t), int(d)))
        except ValueError:
            raise FormatError(f"zone:digit halves must be integers, got {token!r}") from None
    return out
