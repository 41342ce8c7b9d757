"""The six toy cryptosystems built on the algebra modules.

All of them are pedagogical and insecure by design; the contract of
every system is exact round-trip correctness over its valid message
domain, nothing more: keys state their domains as ``range``s, and
``check_domain`` checks every input against them.

Names load from their submodule on first use, like those of ``compalg``.
"""

from typing import Iterable

from .. import _lazy_exports
from ..errors import ParameterError

_EXPORTS = {
    "rsa_ideal": "RsaIdealKey rsa_keygen rsa_encrypt rsa_decrypt",
    "diffie_hellman": "DhParams DhExchange dh_exchange",
    "fractional": "FractionalKey frac_encrypt frac_decrypt frac_decrypt_fast_path",
    "zone": "ZoneKey zone_encrypt zone_decrypt",
    "composite_cipher": "AffineCipher CipherPolynomial CipherText cipher_product cipher_sum "
                        "composite_cipher_keygen composite_cipher_encrypt "
                        "composite_cipher_decrypt parse_cipher parse_cipher_polynomial "
                        "random_affine_polynomial",
    "monoid_cipher": "MonoidCipherKey monoid_keygen monoid_encrypt monoid_decrypt "
                     "discrete_log_bsgs discrete_log_exhaustive",
}

__all__ = [name for names in _EXPORTS.values() for name in names.split()]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)


def check_domain(values: Iterable[int], domain: range, what: str) -> list[int]:
    """The values as a list; ParameterError names the first one outside the domain."""
    values = list(values)
    start, stop = domain.start, domain.stop
    for i, v in enumerate(values):
        if not start <= v < stop:
            raise ParameterError(f"{what} value {v} at position {i} is outside [{start}, {stop})")
    return values
