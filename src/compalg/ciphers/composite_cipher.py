"""Block cipher whose key is a polynomial with letter-cipher coefficients.

Two parties hold cipher polynomials f and g and multiply them by
convolution; coefficient m of the product encrypts letter m+1 of each
block of length deg(fg)+1. During convolution, multiplying two systems
concatenates their outputs (one letter in, both encryptions out) and
adding two systems composes them letterwise, first operand first.
Every constituent is invertible, so decryption splits each block by the
recorded arities and inverts.

The ciphertext records the plaintext length so block padding can be
stripped; its text form is that length followed by the letter values,
all whitespace-separated integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from ..errors import FormatError, ParameterError


class LetterCipher:
    """An invertible map from one letter to ``arity`` output letters."""

    input_size: int
    output_size: Optional[int]  # None when outputs mix alphabets
    arity: int

    def encrypt_letter(self, x: int) -> list[int]:
        raise NotImplementedError

    def decrypt_letters(self, ys: Sequence[int]) -> int:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, LetterCipher) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return self.descriptor()


class AffineCipher(LetterCipher):
    """x -> (a*x + b) mod s with gcd(a, s) = 1; the basic invertible letter map."""

    def __init__(self, a: int, b: int, size: int):
        if size < 2:
            raise ParameterError(f"alphabet size {size} must be >= 2")
        if gcd(a % size, size) != 1:
            raise ParameterError(f"slope {a} is not invertible mod {size}")
        self.a = a % size
        self.b = b % size
        self.input_size = size
        self.output_size = size
        self.arity = 1

    def encrypt_letter(self, x):
        if not 0 <= x < self.input_size:
            raise ParameterError(f"letter {x} outside [0, {self.input_size})")
        return [(self.a * x + self.b) % self.input_size]

    def decrypt_letters(self, ys):
        (y,) = ys
        return (y - self.b) * pow(self.a, -1, self.input_size) % self.input_size

    def descriptor(self):
        return f"aff({self.a},{self.b},{self.input_size})"


class ProductCipher(LetterCipher):
    """Concatenation: encrypt the letter in both systems and emit both outputs."""

    def __init__(self, left: LetterCipher, right: LetterCipher):
        if left.input_size != right.input_size:
            raise ParameterError("product requires the same input alphabet")
        self.left = left
        self.right = right
        self.input_size = left.input_size
        self.output_size = (
            left.output_size if left.output_size == right.output_size else None
        )
        self.arity = left.arity + right.arity

    def encrypt_letter(self, x):
        return self.left.encrypt_letter(x) + self.right.encrypt_letter(x)

    def decrypt_letters(self, ys):
        x = self.left.decrypt_letters(ys[: self.left.arity])
        check = self.right.decrypt_letters(ys[self.left.arity :])
        if check != x:
            raise ParameterError("inconsistent product ciphertext")
        return x

    def descriptor(self):
        return f"prod({self.left.descriptor()},{self.right.descriptor()})"


class ComposedCipher(LetterCipher):
    """Composition: apply ``first``, then ``then`` to each output letter."""

    def __init__(self, first: LetterCipher, then: LetterCipher):
        if first.output_size is None:
            raise ParameterError("cannot compose after a mixed-alphabet system")
        if then.input_size != first.output_size:
            raise ParameterError(
                "inner output alphabet must equal outer input alphabet"
            )
        self.first = first
        self.then = then
        self.input_size = first.input_size
        self.output_size = then.output_size if then.arity == 1 or then.output_size else None
        self.arity = first.arity * then.arity

    def encrypt_letter(self, x):
        out = []
        for u in self.first.encrypt_letter(x):
            out.extend(self.then.encrypt_letter(u))
        return out

    def decrypt_letters(self, ys):
        inner = []
        for i in range(self.first.arity):
            inner.append(
                self.then.decrypt_letters(ys[i * self.then.arity : (i + 1) * self.then.arity])
            )
        return self.first.decrypt_letters(inner)

    def descriptor(self):
        return f"sum({self.first.descriptor()},{self.then.descriptor()})"


def cipher_product(left: LetterCipher, right: LetterCipher) -> LetterCipher:
    return ProductCipher(left, right)


def cipher_sum(first: LetterCipher, then: LetterCipher) -> LetterCipher:
    return ComposedCipher(first, then)


# ---------------------------------------------------------------------------
# cipher polynomials


@dataclass(frozen=True, slots=True, repr=False)
class CipherPolynomial:
    """Coefficient list of letter ciphers, index = degree."""

    coeffs: tuple[LetterCipher, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ParameterError("a cipher polynomial needs at least one coefficient")
        size = coeffs[0].input_size
        if any(c.input_size != size for c in coeffs):
            raise ParameterError("all coefficients must share one input alphabet")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def input_size(self) -> int:
        return self.coeffs[0].input_size

    @property
    def block_length(self) -> int:
        return self.degree + 1

    def descriptor(self) -> str:
        return f"poly[{','.join(c.descriptor() for c in self.coeffs)}]"

    def __repr__(self):
        return self.descriptor()


def composite_cipher_keygen(f: CipherPolynomial, g: CipherPolynomial) -> CipherPolynomial:
    """Convolve f and g: coefficient m sums (composes) the products f_i*g_(m-i).

    Composition folds left to right in ascending i, so the result is
    deterministic and both parties derive the identical key.
    """
    if f.input_size != g.input_size:
        raise ParameterError("f and g must share one input alphabet")
    out: list[LetterCipher] = []
    for m in range(f.degree + g.degree + 1):
        acc: Optional[LetterCipher] = None
        for i in range(0, m + 1):
            j = m - i
            if i > f.degree or j > g.degree:
                continue
            term = cipher_product(f.coeffs[i], g.coeffs[j])
            acc = term if acc is None else cipher_sum(acc, term)
        out.append(acc)
    return CipherPolynomial(out)


@dataclass(frozen=True)
class CipherText:
    """Letter stream plus the plaintext length needed to strip padding."""

    values: tuple[int, ...]
    plain_length: int

    def to_text(self) -> str:
        return " ".join([str(self.plain_length)] + [str(v) for v in self.values])

    @classmethod
    def from_text(cls, text: str) -> "CipherText":
        try:
            nums = [int(tok) for tok in text.split()]
        except ValueError:
            raise FormatError("ciphertext must be whitespace-separated integers") from None
        if not nums or nums[0] < 0:
            raise FormatError("ciphertext must start with the plaintext length")
        return cls(tuple(nums[1:]), nums[0])


def composite_cipher_encrypt(values: Sequence[int], key: CipherPolynomial) -> CipherText:
    """Blockwise encryption; blocks are padded with letter 0."""
    size = key.input_size
    for i, v in enumerate(values):
        if not 0 <= v < size:
            raise ParameterError(f"letter {v} at position {i} outside [0, {size})")
    block = key.block_length
    padded = list(values)
    if len(padded) % block:
        padded.extend([0] * (block - len(padded) % block))
    out: list[int] = []
    for start in range(0, len(padded), block):
        for pos in range(block):
            out.extend(key.coeffs[pos].encrypt_letter(padded[start + pos]))
    return CipherText(tuple(out), len(values))


def composite_cipher_decrypt(cipher: CipherText, key: CipherPolynomial) -> list[int]:
    """Invert blockwise, consuming each coefficient's arity, then strip padding.

    Every ciphertext letter must lie in [0, s): the letter maps reduce mod s,
    so a value outside that range would decrypt as its residue."""
    per_block = sum(c.arity for c in key.coeffs)
    stream = list(cipher.values)
    size = key.input_size
    for i, y in enumerate(stream):
        if not 0 <= y < size:
            raise ParameterError(f"ciphertext value {y} at position {i} is outside [0, {size})")
    if len(stream) % per_block:
        raise ParameterError(
            f"ciphertext length {len(stream)} is not a multiple of {per_block}"
        )
    plain: list[int] = []
    pos = 0
    while pos < len(stream):
        for coeff in key.coeffs:
            plain.append(coeff.decrypt_letters(stream[pos : pos + coeff.arity]))
            pos += coeff.arity
    if cipher.plain_length > len(plain):
        raise ParameterError("recorded plaintext length exceeds decrypted stream")
    return plain[: cipher.plain_length]


def random_affine_polynomial(
    size: int, degree: int, rng: random.Random
) -> CipherPolynomial:
    """Random affine coefficient systems; used by key generation and tests."""
    units = [a for a in range(1, size) if gcd(a, size) == 1]
    coeffs = [
        AffineCipher(rng.choice(units), rng.randrange(size), size)
        for _ in range(degree + 1)
    ]
    return CipherPolynomial(coeffs)


# ---------------------------------------------------------------------------
# descriptor grammar: aff(a,b,s) | prod(D,D) | sum(D,D); poly[D0,D1,...]
#
# Recursive descent over one cursor, one stack frame per nesting level:
# parsing time is linear in the length of the descriptor.


def parse_cipher(text: str) -> LetterCipher:
    try:
        cipher, pos = _parse_system(text, 0)
    except RecursionError:
        raise FormatError("descriptor nested too deeply") from None
    if pos != len(text):
        raise FormatError(f"unexpected {text[pos:]!r} after cipher descriptor")
    return cipher


def parse_cipher_polynomial(text: str) -> CipherPolynomial:
    text = text.strip()
    if not (text.startswith("poly[") and text.endswith("]")):
        raise FormatError(f"expected poly[...], got {text!r}")
    coeffs, pos = [], 5
    try:
        while True:
            cipher, pos = _parse_system(text, pos)
            coeffs.append(cipher)
            if text[pos : pos + 1] != ",":
                break
            pos += 1
    except RecursionError:
        raise FormatError("descriptor nested too deeply") from None
    if pos != len(text) - 1:  # the closing "]"
        raise FormatError(f"unexpected {text[pos:-1]!r} in cipher polynomial")
    return CipherPolynomial(coeffs)


def _parse_system(text: str, pos: int) -> tuple[LetterCipher, int]:
    """The system starting at text[pos] after blanks, and the index past
    it and the blanks that follow."""
    start = pos = _skip_blanks(text, pos)
    for name, builder in (("prod", cipher_product), ("sum", cipher_sum)):
        if text.startswith(name + "(", pos):
            first, pos = _parse_system(text, pos + len(name) + 1)
            if text[pos : pos + 1] == ",":
                second, pos = _parse_system(text, pos + 1)
                if text[pos : pos + 1] == ")":
                    return builder(first, second), _skip_blanks(text, pos + 1)
            raise FormatError(f"{name} takes two systems, got {text[start:]!r}")
    if text.startswith("aff(", pos):
        try:
            end = text.index(")", pos)
            a, b, s = (int(x) for x in text[pos + 4 : end].split(","))
        except ValueError:
            raise FormatError(f"bad affine descriptor {text[start:]!r}") from None
        return AffineCipher(a, b, s), _skip_blanks(text, end + 1)
    raise FormatError(f"unrecognized cipher descriptor {text[start:]!r}")


def _skip_blanks(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos
