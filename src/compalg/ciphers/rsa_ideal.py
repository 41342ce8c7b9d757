"""Ideal-based multiplicative cipher in the style of RSA key setup.

Keys are principal ideals: N = PQ for distinct prime ideals, the
totient ideal carries (p-1)(q-1), and the encryption/decryption pair
satisfies e*d = 1 modulo the totient. Unlike real RSA the cipher is
multiplicative, C = M*e mod phi, exactly as specified by its source;
this keeps the round trip exact for messages below phi but offers no
security whatsoever.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable

from . import check_domain
from ..arith import is_prime
from ..errors import ParameterError
from ..ideals import PrincipalIdeal, inverse_ideal, totient_ideal
from ..textio import ideal_text, key_record_text, parse_ideal, parse_key_record


def _check_exponent(e: int, phi: int):
    if not 1 < e < phi:
        raise ParameterError(f"e = {e} must satisfy 1 < e < phi = {phi}")
    if gcd(e, phi) != 1:
        raise ParameterError(f"gcd(e, phi) = {gcd(e, phi)} != 1")


@dataclass(frozen=True)
class RsaIdealKey:
    """Full key material; (modulus, e) is notionally public, (d, phi) private.

    Construction checks e in (1, phi), e*d = 1 mod phi and N = PQ for
    distinct primes with (P-1)(Q-1) = phi, so a key read from a file
    decrypts what it encrypts.
    """

    modulus: PrincipalIdeal  # N = PQ
    e: PrincipalIdeal
    d: PrincipalIdeal
    phi: PrincipalIdeal

    def __post_init__(self):
        e, d, phi = self.e.generator, self.d.generator, self.phi.generator
        _check_exponent(e, phi)
        if e * d % phi != 1:
            raise ParameterError(f"e*d = {e * d} is not 1 mod phi = {phi}")
        # P + Q = N - phi + 1, and Q - P is the root of (P + Q)^2 - 4N
        n = self.modulus.generator
        total = n - phi + 1
        square = total * total - 4 * n
        gap = isqrt(max(square, 0))
        p, q = (total - gap) // 2, (total + gap) // 2
        if not (gap and gap * gap == square and is_prime(p) and is_prime(q)):
            raise ParameterError(
                f"N = {n} is not PQ for distinct primes with (P-1)(Q-1) = phi = {phi}"
            )

    @property
    def messages(self) -> range:
        return range(self.phi.generator)

    ciphertexts = messages


def rsa_keygen(p: PrincipalIdeal, q: PrincipalIdeal, e: PrincipalIdeal) -> RsaIdealKey:
    """Validate parameters and derive d with e*d = 1 mod phi.

    Raises ParameterError naming the violated clause: non-prime or equal
    generators, e out of the open range (1, phi), or gcd(e, phi) != 1.
    """
    phi = totient_ideal(p, q)  # checks primality and distinctness
    _check_exponent(e.generator, phi.generator)
    return RsaIdealKey(p * q, e, inverse_ideal(e, phi), phi)


def rsa_encrypt(values: Iterable[int], key: RsaIdealKey) -> list[int]:
    """C_i = M_i * e mod phi, for messages in key.messages."""
    phi, e = key.phi.generator, key.e.generator
    return [m * e % phi for m in check_domain(values, key.messages, "message")]


def rsa_decrypt(values: Iterable[int], key: RsaIdealKey) -> list[int]:
    """M_i = C_i * d mod phi (e*d = 1 mod phi), for ciphertexts in key.ciphertexts."""
    phi, d = key.phi.generator, key.d.generator
    return [c * d % phi for c in check_domain(values, key.ciphertexts, "ciphertext")]


# key file form: rsa-ideal v1 N=(33) E=(3) D=(7) PHI=(20)


_KEY_FIELDS = ("N", "E", "D", "PHI")


def key_to_text(key: RsaIdealKey) -> str:
    ideals = (key.modulus, key.e, key.d, key.phi)
    return key_record_text("rsa-ideal", dict(zip(_KEY_FIELDS, map(ideal_text, ideals))))


def key_from_text(text: str) -> RsaIdealKey:
    fields = parse_key_record(text, "rsa-ideal", _KEY_FIELDS)
    return RsaIdealKey(*(parse_ideal(fields[name]) for name in _KEY_FIELDS))
