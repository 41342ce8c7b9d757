"""Table-driven finite fields for making and checking inputs.

Independent of compalg: the benchmark uses it to draw polynomials of a
known factorization shape, so the program receives only the data.
Elements are ints 0..q-1 whose base-p digits are the coefficients of
the field generator, least significant first, which is how compalg
orders an extension field's elements.
"""

from __future__ import annotations

import itertools


class GF:
    def __init__(self, p: int, modulus=(0, 1)):
        """F(p^k) as Fp[t]/(modulus), modulus little-endian and monic of degree k."""
        self.p = p
        self.k = len(modulus) - 1
        self.q = p ** self.k
        vecs = [self._digits(n) for n in range(self.q)]
        index = {v: n for n, v in enumerate(vecs)}
        self.add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs] for a in vecs]
        self.mul = [[index[self._reduce(a, b, modulus)] for b in vecs] for a in vecs]
        self.neg = [index[tuple(-x % p for x in a)] for a in vecs]

    def _digits(self, n: int) -> tuple[int, ...]:
        return tuple(n // self.p ** i % self.p for i in range(self.k))

    def _reduce(self, a, b, modulus) -> tuple[int, ...]:
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, k - 1, -1):
            c = prod[top]
            if c:
                for i, m in enumerate(modulus):
                    prod[top - k + i] = (prod[top - k + i] - c * m) % p
        return tuple(prod[:k])

    def from_digits(self, digits) -> int:
        return sum(c * self.p ** i for i, c in enumerate(digits))

    def value(self, n: int):
        """The element as compalg's canonical value: int or digit tuple."""
        return n if self.k == 1 else self._digits(n)

    def poly_mul(self, a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = self.mul[x]
                for j, y in enumerate(b):
                    out[i + j] = self.add[out[i + j]][row[y]]
        return out

    def divides(self, g: list[int], f: list[int]) -> bool:
        """Does the monic g divide f?"""
        r = list(f)
        n = len(g) - 1
        for shift in range(len(r) - len(g), -1, -1):
            c = r[shift + n]
            if c:
                row = self.mul[self.neg[c]]
                for i, gi in enumerate(g):
                    r[shift + i] = self.add[r[shift + i]][row[gi]]
        return not any(r[:n])

    def is_irreducible(self, f: list[int]) -> bool:
        """Trial division by every monic polynomial of degree <= deg(f)/2."""
        d = len(f) - 1
        for deg in range(1, d // 2 + 1):
            for tail in itertools.product(range(self.q), repeat=deg):
                if self.divides(list(tail) + [1], f):
                    return False
        return d >= 1
