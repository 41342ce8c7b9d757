"""Letter-value codec with representative lifts.

Letters map to residues 0..cycle-1; a value may carry any nonnegative
representative of its residue class (value = index + cycle * k), which
is how a finite alphabet is stretched over the nonnegative integers.
Decoding only ever reads the residue, so decode(encode(text)) is the
identity for every representative picker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .arith import is_prime
from .errors import ParameterError

#: default ceiling on encoded values: cycle * 2**16
DEFAULT_CEILING_FACTOR = 1 << 16

#: picker(position, letter_index) -> lift multiplier k >= 0
Picker = Callable[[int, int], int]


@dataclass(frozen=True, slots=True, repr=False)
class Alphabet:
    """Ordered distinct symbols; values 0..cycle-1 are bijective with them."""

    symbols: tuple[str, ...]
    cycle: int = field(init=False, compare=False)

    def __post_init__(self):
        syms = tuple(self.symbols)
        if not syms:
            raise ParameterError("alphabet must not be empty")
        if len(set(syms)) != len(syms):
            raise ParameterError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "cycle", len(syms))

    def __len__(self):
        return self.cycle

    @property
    def has_prime_length(self) -> bool:
        return is_prime(self.cycle)

    def index(self, ch: str) -> int:
        try:
            return self.symbols.index(ch)
        except ValueError:
            raise ParameterError(f"character {ch!r} is not in the alphabet") from None

    def symbol(self, value: int) -> str:
        return self.symbols[value % self.cycle]


def upper_latin() -> Alphabet:
    """The default A..Z alphabet (A=0 ... Z=25)."""
    return Alphabet(chr(ord("A") + i) for i in range(26))


def zero_picker(_pos: int, _idx: int) -> int:
    return 0


def fixed_picker(ks: Sequence[int]) -> Picker:
    """Lift multipliers given per text position."""

    def pick(pos: int, _idx: int) -> int:
        return ks[pos]

    return pick


def seeded_picker(seed: int, max_k: int) -> Picker:
    """Deterministic pseudo-random multipliers in [0, max_k]."""
    rng = random.Random(seed)

    def pick(_pos: int, _idx: int) -> int:
        return rng.randint(0, max_k)

    return pick


def encode(
    text: str,
    alphabet: Alphabet,
    picker: Picker = zero_picker,
    ceiling: int | None = None,
) -> list[int]:
    """Letter values with picker-chosen representatives, each <= ceiling."""
    if ceiling is None:
        ceiling = alphabet.cycle * DEFAULT_CEILING_FACTOR
    out = []
    for pos, ch in enumerate(text):
        idx = alphabet.index(ch)
        k = picker(pos, idx)
        if k < 0:
            raise ParameterError(f"picker returned negative multiplier {k}")
        value = idx + alphabet.cycle * k
        if value > ceiling:
            raise ParameterError(
                f"encoded value {value} exceeds ceiling {ceiling} at position {pos}"
            )
        out.append(value)
    return out


def decode(values: Iterable[int], alphabet: Alphabet) -> str:
    """Inverse map: each value reads as its residue's symbol."""
    out = []
    for v in values:
        if v < 0:
            raise ParameterError(f"letter values must be nonnegative, got {v}")
        out.append(alphabet.symbol(v))
    return "".join(out)
