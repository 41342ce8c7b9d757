"""Multiplier cipher over a prime-length alphabet.

Encryption is y = x*k mod |A| for letter values x in [2, |A|]. The
general decryption solves for the unique t in [0, k) making y + t*|A|
divisible by k, then divides exactly; the recovered 0 residue is mapped
back to |A|. A published shortcut that replaces t by k - (y mod k) is
kept as a fast path: it agrees with the general rule whenever
|A| = 1 (mod k) and fails otherwise, which the test suite exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import check_domain
from ..arith import is_prime
from ..errors import ParameterError


@dataclass(frozen=True)
class FractionalKey:
    """Alphabet length (prime) and multiplier key k, 2 <= k < |A|, coprime."""

    alphabet_size: int
    k: int

    def __post_init__(self):
        if not is_prime(self.alphabet_size):
            raise ParameterError(f"alphabet size {self.alphabet_size} must be prime")
        if self.k < 2:
            raise ParameterError(f"key k = {self.k} must be >= 2")
        if self.k >= self.alphabet_size:
            raise ParameterError(
                f"key k = {self.k} must be below the alphabet size {self.alphabet_size}"
            )

    @property
    def messages(self) -> range:
        return range(2, self.alphabet_size + 1)

    @property
    def ciphertexts(self) -> range:
        return range(self.alphabet_size)


def frac_encrypt(values: Iterable[int], key: FractionalKey) -> list[int]:
    a, k = key.alphabet_size, key.k
    return [x * k % a for x in check_domain(values, key.messages, "message")]


def frac_decrypt(values: Iterable[int], key: FractionalKey) -> list[int]:
    """x = (y + t|A|)/k with t = -y * |A|^(-1) mod k, and 0 mapped to |A|.

    Ciphertexts lie in [0, |A|), but y = k is no letter's image: it decodes
    to 1, which is refused as outside key.messages."""
    a, k = key.alphabet_size, key.k
    inverse = pow(a, -1, k)
    ys = check_domain(values, key.ciphertexts, "ciphertext")
    xs = [(y + (-y * inverse % k) * a) // k or a for y in ys]
    return check_domain(xs, key.messages, "decoded")


def frac_decrypt_fast_path(values: Iterable[int], key: FractionalKey) -> list[Optional[int]]:
    """Shortcut using t = (k - (y mod k)) mod k; exact division may fail.

    The displayed form of this rule leaves k - d unreduced, but its own
    correctness argument reduces it mod k, which is what we do (the
    unreduced variant shifts every k-divisible y by one alphabet
    length). Ciphertexts are checked as in frac_decrypt; a letter whose
    division is not exact decrypts to None, and agreement with
    frac_decrypt is guaranteed only when |A| = 1 (mod k).
    """
    a, k = key.alphabet_size, key.k
    totals = [y + (k - y % k) % k * a for y in check_domain(values, key.ciphertexts, "ciphertext")]
    return [None if total % k else total // k or a for total in totals]
