"""Sub-alphabet zone cipher.

A secret sub-alphabet of prime length q splits the public alphabet of
prime length p into ceil(p/q) zones. Each plaintext value v in [1, p]
becomes a (zone, digit) pair: the zone index t = ceil(v/q) - 1 travels
in clear by default, the residue r = v - t*q in [1, q] is multiplied by
the key modulo q (with residue 0 written as q so digits stay in [1, q]).
A zone_seed in the key optionally masks the zone labels with a seeded
permutation shared by both sides; a seeded key counts its zones against
the work budget, an unseeded one keeps no table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from . import check_domain
from ..arith import is_prime
from ..errors import FormatError, ParameterError, check_work, read_int


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
        if self.zone_seed is not None:
            check_work(self.zone_count, "shuffling the zone labels")

    @property
    def messages(self) -> range:
        return range(1, self.alphabet_size + 1)

    @property
    def digits(self) -> range:
        return range(1, self.sub_size + 1)

    @property
    def zone_count(self) -> int:
        return -(-self.alphabet_size // self.sub_size)

    @cached_property
    def _labels(self) -> Sequence[int]:
        """Transmitted label of each zone index: the index itself, or a
        permutation shuffled once per seeded key."""
        if self.zone_seed is None:
            return range(self.zone_count)
        labels = list(range(self.zone_count))
        random.Random(self.zone_seed).shuffle(labels)
        return tuple(labels)

    @cached_property
    def _zone_of_label(self) -> Sequence[int] | dict[int, int]:
        """Inverse of ``_labels``: zone index of each transmitted label. The
        unpermuted range maps each of its labels to itself."""
        if self.zone_seed is None:
            return self._labels
        return {z: t for t, z in enumerate(self._labels)}


def zone_encrypt(values: Iterable[int], key: ZoneKey) -> list[tuple[int, int]]:
    """v = t*q + r with r in [1, q] becomes (label of zone t, r*k mod q or q)."""
    q, k, labels = key.sub_size, key.k, key._labels
    zoned = (divmod(v - 1, q) for v in check_domain(values, key.messages, "message"))
    return [(labels[t], ((r + 1) * k - 1) % q + 1) for t, r in zoned]


def zone_decrypt(pairs: Iterable[tuple[int, int]], key: ZoneKey) -> list[int]:
    """(label of zone t, digit d) decodes to t*q + r, r = d/k mod q in [1, q];
    in the last zone that can pass p, outside key.messages."""
    pairs = list(pairs)
    zone_of = key._zone_of_label
    bad = next((z for z, _ in pairs if z not in zone_of), None)
    if bad is not None:
        raise ParameterError(f"zone label {bad} is outside [0, {key.zone_count})")
    q, inverse = key.sub_size, pow(key.k, -1, key.sub_size)
    digits = check_domain([d for _, d in pairs], key.digits, "digit")
    values = [zone_of[z] * q + (d * inverse - 1) % q + 1 for (z, _), d in zip(pairs, digits)]
    return check_domain(values, key.messages, "decoded")


def pairs_to_text(pairs: Iterable[tuple[int, int]]) -> str:
    return " ".join(f"{t}:{d}" for t, d in pairs)


def pairs_from_text(text: str) -> list[tuple[int, int]]:
    out = []
    for token in text.split():
        t, sep, d = token.partition(":")
        if not sep:
            raise FormatError(f"expected zone:digit, got {token!r}")
        error = f"zone:digit halves must be integers, got {token!r}"
        out.append((read_int(t, error, signed=True), read_int(d, error, signed=True)))
    return out
