"""Letter-value codec with representative lifts.

Letters map to residues 0..cycle-1; a value may carry any nonnegative
representative of its residue class, value = index + cycle * k for a
lift k >= 0, which is how a finite alphabet is stretched over the
nonnegative integers. Decoding only ever reads the residue, so
decode(encode(text, lifts)) is the identity for every choice of lifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .arith import is_prime
from .errors import ParameterError


@dataclass(frozen=True, slots=True, repr=False)
class Alphabet:
    """Ordered distinct one-character symbols; values 0..cycle-1 are bijective with them."""

    symbols: tuple[str, ...]
    cycle: int = field(init=False, compare=False)

    def __post_init__(self):
        syms = tuple(self.symbols)
        if not syms:
            raise ParameterError("alphabet must not be empty")
        if len(set(syms)) != len(syms):
            raise ParameterError("alphabet symbols must be distinct")
        for sym in syms:
            if not isinstance(sym, str) or len(sym) != 1:
                raise ParameterError(f"alphabet symbol {sym!r} is not one character")
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


def seeded_lifts(seed: int, max_k: int, count: int) -> list[int]:
    """``count`` deterministic pseudo-random lifts in [0, max_k], drawn in order."""
    rng = random.Random(seed)
    return [rng.randint(0, max_k) for _ in range(count)]


def encode(
    text: str,
    alphabet: Alphabet,
    lifts: Sequence[int] | None = None,
    ceiling: int | None = None,
) -> list[int]:
    """Values index + cycle * lift, one lift per letter (default all 0). A value
    above ``ceiling`` is refused; ``ceiling=None`` sets no ceiling."""
    if lifts is None:
        lifts = [0] * len(text)
    elif len(lifts) != len(text):
        raise ParameterError(f"{len(lifts)} lifts for {len(text)} letters")
    out = []
    for pos, (ch, k) in enumerate(zip(text, lifts)):
        if k < 0:
            raise ParameterError(f"lift {k} at position {pos} is negative")
        value = alphabet.index(ch) + alphabet.cycle * k
        if ceiling is not None and value > ceiling:
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
