"""Block cipher whose key is a polynomial with letter-cipher coefficients.

Two parties hold cipher polynomials f and g and multiply them by
convolution; coefficient m of the product encrypts letter m+1 of each
block of length deg(fg)+1. Multiplying two systems (``prod``) encrypts
the letter in both and concatenates the outputs; adding them (``sum``)
composes them letterwise, first operand first.

So every letter cipher is a tuple of affine maps x -> a*x + b (mod s):
``prod`` concatenates the tuples and ``sum(first, then)`` takes the
outer product (c*a, c*b + d), first's maps (a, b) outermost. Arity
multiplies with every ``sum``, so a cipher is kept as syntax whose
descriptor, built once with it, is its identity, and each key builds
this normal form once, on its first encryption or decryption.

The ciphertext records the plaintext length so block padding can be
stripped; its text form is that length followed by the letter values,
all whitespace-separated integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

from ..errors import FormatError, ParameterError


@dataclass(frozen=True, slots=True, repr=False)
class LetterCipher:
    """An invertible map from one letter of [0, input_size) to one or more.

    ``parts`` is ``("aff", a, b)``, ``("prod", left, right)`` or
    ``("sum", t0, t1, ..., tk)``, the left-nested sum(...sum(t0,t1)...,tk);
    ``text`` is the descriptor, and the only field compared. Build ciphers
    with ``AffineCipher``, ``cipher_product`` and ``cipher_sum``, which
    validate their arguments.
    """

    text: str
    input_size: int = field(compare=False)
    parts: tuple = field(compare=False)

    def descriptor(self) -> str:
        return self.text

    def __repr__(self):
        return self.text


def AffineCipher(a: int, b: int, size: int) -> LetterCipher:
    """x -> (a*x + b) mod size with gcd(a, size) = 1; the basic invertible letter map."""
    if size < 2:
        raise ParameterError(f"alphabet size {size} must be >= 2")
    if gcd(a % size, size) != 1:
        raise ParameterError(f"slope {a} is not invertible mod {size}")
    a, b = a % size, b % size
    return LetterCipher(f"aff({a},{b},{size})", size, ("aff", a, b))


def cipher_product(left: LetterCipher, right: LetterCipher) -> LetterCipher:
    """Concatenation: encrypt the letter in both systems and emit both outputs."""
    if left.input_size != right.input_size:
        raise ParameterError("product requires the same input alphabet")
    return LetterCipher(f"prod({left.text},{right.text})", left.input_size, ("prod", left, right))


def cipher_sum(first: LetterCipher, then: LetterCipher) -> LetterCipher:
    """Composition: apply ``first``, then ``then`` to each output letter.

    A sum whose first operand is a sum extends its terms instead of nesting
    it: the k sums that ``composite_cipher_keygen`` folds into a coefficient
    make one node with one descriptor, not k nested nodes whose descriptors
    add up to O(k^2) text."""
    if then.input_size != first.input_size:
        raise ParameterError("inner output alphabet must equal outer input alphabet")
    terms = first.parts[1:] if first.parts[0] == "sum" else (first,)
    text = f"sum({first.text},{then.text})"
    return LetterCipher(text, first.input_size, ("sum", *terms, then))


def _normal_form(cipher: LetterCipher) -> tuple[tuple[int, int], ...]:
    """The affine maps (a, b) that ``cipher`` applies, in output order.

    One stack frame per nesting level, like the descriptor parser."""
    parts = cipher.parts
    if parts[0] == "aff":
        return (parts[1:],)
    acc = _normal_form(parts[1])
    if parts[0] == "prod":
        return acc + _normal_form(parts[2])
    s = cipher.input_size
    for then in parts[2:]:
        maps = _normal_form(then)
        acc = tuple((c * a % s, (c * b + d) % s) for a, b in acc for c, d in maps)
    return acc


# ---------------------------------------------------------------------------
# cipher polynomials


@dataclass(frozen=True, slots=True, repr=False)
class CipherPolynomial:
    """Coefficient list of letter ciphers, index = degree."""

    coeffs: tuple[LetterCipher, ...]
    # the coefficients' normal forms, built on first use
    _lowered: list = field(default_factory=list, init=False, compare=False)

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
        return f"poly[{','.join(c.text for c in self.coeffs)}]"

    def __repr__(self):
        return self.descriptor()

    def _normal_forms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        if not self._lowered:
            try:
                self._lowered.append(tuple([_normal_form(c) for c in self.coeffs]))
            except RecursionError:
                raise ParameterError("key nested too deeply to lower") from None
        return self._lowered[0]


def composite_cipher_keygen(f: CipherPolynomial, g: CipherPolynomial) -> CipherPolynomial:
    """Convolve f and g: coefficient m sums (composes) the products f_i*g_(m-i).

    Composition folds left to right in ascending i, so the result is
    deterministic and both parties derive the identical key.
    """
    if f.input_size != g.input_size:
        raise ParameterError("f and g must share one input alphabet")
    fc, gc = f.coeffs, g.coeffs
    df, dg = len(fc) - 1, len(gc) - 1
    out: list[LetterCipher] = []
    for m in range(df + dg + 1):
        acc: Optional[LetterCipher] = None
        for i in range(max(0, m - dg), min(m, df) + 1):
            term = cipher_product(fc[i], gc[m - i])
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
    forms = key._normal_forms()
    out: list[int] = []
    for start in range(0, len(padded), block):
        for x, maps in zip(padded[start : start + block], forms):
            out.extend([(a * x + b) % size for a, b in maps])
    return CipherText(tuple(out), len(values))


def composite_cipher_decrypt(cipher: CipherText, key: CipherPolynomial) -> list[int]:
    """Invert blockwise, consuming each coefficient's arity, then strip padding.

    Every ciphertext letter must lie in [0, s): the letter maps reduce mod s,
    so a value outside that range would decrypt as its residue. Each letter
    is recovered from its coefficient's first map, and the coefficient's
    other output letters must be what its other maps give for it."""
    forms = key._normal_forms()
    per_block = sum(len(maps) for maps in forms)
    stream = list(cipher.values)
    size = key.input_size
    for i, y in enumerate(stream):
        if not 0 <= y < size:
            raise ParameterError(f"ciphertext value {y} at position {i} is outside [0, {size})")
    if len(stream) % per_block:
        raise ParameterError(
            f"ciphertext length {len(stream)} is not a multiple of {per_block}"
        )
    inverses = [pow(maps[0][0], -1, size) for maps in forms]
    plain: list[int] = []
    pos = 0
    while pos < len(stream):
        for maps, inverse in zip(forms, inverses):
            end = pos + len(maps)
            x = (stream[pos] - maps[0][1]) * inverse % size
            if [(a * x + b) % size for a, b in maps] != stream[pos:end]:
                raise ParameterError("inconsistent product ciphertext")
            plain.append(x)
            pos = end
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
