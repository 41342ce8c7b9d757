"""Coefficient rings with exact arithmetic, and the dense polynomial
kernel that runs over them.

Four descriptor kinds cover everything the rest of the package needs:
the integers Z, modular integers Z/n, prime fields Fp, and extension
fields F(p^k) presented as Fp[t] modulo a stored monic irreducible.
A prime field is Z/p under its field name: it shares Z/n's arithmetic.
Descriptors and elements are immutable; arithmetic never mutates, so
values are safe to share freely.

Canonical element values are plain ints (Z, Z/n, Fp) or little-endian
int tuples of length k (extension fields). A descriptor does all of its
arithmetic on these values through four hooks (``add_values``,
``mul_values``, ``neg_value``, ``inverse_value``); RingElement wraps a
value for callers that want operators.

The ``dense_*`` functions are the package's one implementation of
polynomial multiplication, long division, extended Euclid, Horner
evaluation and divisor search. They take a descriptor and little-endian
lists of its canonical values, and reach coefficients only through the
hooks and the descriptor's ``zero_value``, ``one_value`` and
``element_values``. So the same code serves ExtensionField (over its
prime field), subfield embeddings, Polynomial (over any ring) and the
searches of composite and monoid_domain. The one search loop is
``dense_find_divisor`` over ``dense_divider``: trial division and the two
searches differ only in their candidate pools and acceptance test. Over
Z each candidate g is screened at 1, -1, 2 and -2 before it is divided:
g*h = f gives g(x)*h(x) = f(x), so g(x) | f(x), and g(x) = 0 only if f(x) = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Union

from .arith import is_prime
from .errors import (
    EmbeddingError,
    NotAUnitError,
    ParameterError,
    RingMismatchError,
    check_work,
)

Value = Union[int, tuple]


# ---------------------------------------------------------------------------
# dense polynomial kernel: a dense polynomial is a little-endian list of
# canonical values of one ring, without trailing zeros


def dense_trim(ring: "Ring", a: list) -> list:
    """Drop trailing zeros of a in place and return it."""
    zero = ring.zero_value
    while a and a[-1] == zero:
        a.pop()
    return a


def dense_add(ring: "Ring", a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] = ring.add_values(out[i], bi)
    return dense_trim(ring, out)


def dense_neg(ring: "Ring", a) -> list:
    return [ring.neg_value(x) for x in a]


def dense_mul(ring: "Ring", a, b) -> list:
    """Schoolbook product; over Z/n zero divisors may shorten it."""
    if not a or not b:
        return []
    add, mul, zero = ring.add_values, ring.mul_values, ring.zero_value
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
    return dense_trim(ring, out)


def dense_eval(ring: "Ring", a, x: Value) -> Value:
    """Horner evaluation of a at the canonical value x."""
    acc = ring.zero_value
    for c in reversed(a):
        acc = ring.add_values(ring.mul_values(acc, x), c)
    return acc


def dense_divmod(ring: "Ring", a, b) -> tuple[list, list]:
    """(q, r) with a = b*q + r and deg r < deg b.

    The leading coefficient of b must be a unit of the ring; otherwise
    its ``inverse_value`` raises NotAUnitError. A monic b (every trial
    divisor, every field modulus) skips the inversion and the scaling.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, zero = ring.add_values, ring.mul_values, ring.zero_value
    monic = b[-1] == ring.one_value
    inv_lead = None if monic else ring.inverse_value(b[-1])
    n = len(b) - 1
    low = b[:n]
    rem = list(a)
    q = [zero] * max(0, len(rem) - n)
    # each step reads rem[shift + n] once and would only zero it, so the
    # update skips b's leading term; entries from degree n up end stale
    for shift in range(len(rem) - len(b), -1, -1):
        top = rem[shift + n]
        if top != zero:
            c = top if monic else mul(top, inv_lead)
            q[shift] = c
            c = ring.neg_value(c)
            for i, bi in enumerate(low):
                rem[shift + i] = add(rem[shift + i], mul(c, bi))
    return dense_trim(ring, q), dense_trim(ring, rem[:n])


def dense_ext_gcd(ring: "Ring", a, b) -> tuple[list, list]:
    """Extended Euclid over a field: (g, u) with g = gcd(a, b) and u*a = g mod b."""
    r0, r1 = list(a), list(b)
    u0, u1 = [ring.one_value], []
    while r1:
        q, r = dense_divmod(ring, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, dense_add(ring, u0, dense_neg(ring, dense_mul(ring, q, u1)))
    return r0, u0


def dense_exact_quotient(ring: "Ring", a, b) -> Optional[list]:
    """q with b*q = a, or None. Elsewhere than over Z, b's leading
    coefficient must be a unit; over Z the long division stops at the
    first step that does not divide."""
    if not isinstance(ring, Integers):
        q, r = dense_divmod(ring, a, b)
        return None if r else q
    rem, lead, n = list(a), b[-1], len(b) - 1
    q = [0] * (len(rem) - n)
    for shift in range(len(q) - 1, -1, -1):
        top = rem[shift + n]
        if top % lead:
            return None
        c = top // lead
        q[shift] = c
        if c:
            for i, bi in enumerate(b):
                rem[shift + i] -= c * bi
    return None if any(rem) else q


def dense_divider(ring: "Ring", f):
    """What the search calls as divide(ring, f, g): ``dense_exact_quotient``
    itself, with no extra call, except over Z. There f's values are taken
    once and g is screened as ``dense_find_divisor`` says: g(1), g(-1) from
    sums, then g(2), g(-2) by Horner only if g passes at 1 and -1."""
    if not isinstance(ring, Integers):
        return dense_exact_quotient
    f1 = sum(f)
    fm1, f2, fm2 = 2 * sum(f[::2]) - f1, dense_eval(ring, f, 2), dense_eval(ring, f, -2)

    def divide(ring, f, g):
        g1 = sum(g)
        gm1 = 2 * sum(g[::2]) - g1
        if (f1 % g1 if g1 else f1) or (fm1 % gm1 if gm1 else fm1):
            return None
        g2 = gm2 = 0
        for c in reversed(g):
            g2 = 2 * g2 + c
            gm2 = c - 2 * gm2
        if (f2 % g2 if g2 else f2) or (fm2 % gm2 if gm2 else fm2):
            return None
        return dense_exact_quotient(ring, f, g)

    return divide


def dense_find_divisor(ring: "Ring", f, pool_lists, accept) -> Optional[tuple]:
    """The first (g, q) with g*q = f and accept(q), or None. For each list of
    per-coefficient pools in turn, g runs over ``itertools.product(*pools)``.
    Candidates are counted, and refused over the work budget, before the first
    division. Over Z, g must pass at 1, -1, 2 and -2 before it is divided:
    g*h = f gives g(x)*h(x) = f(x), so g(x) divides f(x) and a zero g(x)
    passes only a zero f(x)."""
    lists, steps = [], 0
    for pools in pool_lists:
        # a step-1 range, such as the Z box [-c, c], may be too long for len()
        steps += prod(p.stop - p.start if isinstance(p, range) else len(p) for p in pools)
        check_work(steps, "divisor search")
        lists.append(pools)
    divide = dense_divider(ring, f)
    for pools in lists:
        for g in itertools.product(*pools):
            q = divide(ring, f, g)
            if q is not None and accept(q):
                return g, q
    return None


def dense_is_irreducible(ring: "Ring", f) -> bool:
    """Trial division of f (degree >= 1, over a finite field) by every
    monic polynomial of degree 1 to deg(f)/2."""
    if len(f) == 2:
        return True  # degree 1 has no candidate divisors: skip listing the field
    values = tuple(ring.element_values())
    monic = ([values] * d + [(ring.one_value,)] for d in range(1, (len(f) - 1) // 2 + 1))
    return dense_find_divisor(ring, f, monic, lambda q: True) is None


def _fp_text(coeffs, var: str = "t", descending: bool = True) -> str:
    """Render an Fp coefficient vector, e.g. ``t^2+t+1``."""
    terms = []
    idx = range(len(coeffs) - 1, -1, -1) if descending else range(len(coeffs))
    for i in idx:
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(var if c == 1 else f"{c}{var}")
        else:
            terms.append(f"{var}^{i}" if c == 1 else f"{c}{var}^{i}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# ring descriptors


class Ring:
    """Common interface for ring descriptors.

    Subclasses are frozen dataclasses, hence hashable and comparable;
    two descriptors are the same ring exactly when they are equal. Each
    kind defines the hooks ``canon(value)``, ``add_values(a, b)``,
    ``mul_values(a, b)``, ``neg_value(a)``, ``is_unit_value(a)``,
    ``inverse_value(a)``, ``is_nilpotent_value(a)``, ``is_domain()``,
    ``name()`` and ``value_sort_key(a)``, a total order on canonical
    values used for deterministic output.
    """

    is_field = False

    def element(self, value) -> "RingElement":
        return RingElement(self, self.canon(value))

    def zero(self) -> "RingElement":
        return RingElement(self, self.zero_value)

    def one(self) -> "RingElement":
        return RingElement(self, self.one_value)

    @cached_property
    def zero_value(self) -> Value:
        return self.canon(0)

    @cached_property
    def one_value(self) -> Value:
        return self.canon(1)

    def size(self) -> int | None:
        """Number of elements, or None for infinite rings."""
        return None

    def element_values(self) -> Iterable[Value]:
        """All canonical values in ascending order (finite rings only)."""
        raise ParameterError(f"{self.name()} is not finite")

    def elements(self) -> Iterator["RingElement"]:
        """All elements in canonical ascending order (finite rings only)."""
        return (RingElement(self, v) for v in self.element_values())

    def value_text(self, a: Value) -> str:
        return str(a)

    def __repr__(self):  # pragma: no cover - debug aid
        return self.name()


@dataclass(frozen=True, repr=False)
class Integers(Ring):
    """The ring of integers with arbitrary precision."""

    def canon(self, value):
        return int(value)

    def add_values(self, a, b):
        return a + b

    def mul_values(self, a, b):
        return a * b

    def neg_value(self, a):
        return -a

    def is_unit_value(self, a):
        return a in (1, -1)

    def inverse_value(self, a):
        if a not in (1, -1):
            raise NotAUnitError(f"{a} is not a unit of Z")
        return a

    def is_nilpotent_value(self, a):
        return a == 0

    def is_domain(self):
        return True

    def name(self):
        return "Z"

    def value_sort_key(self, a):
        return a


@dataclass(frozen=True, repr=False)
class IntegersMod(Ring):
    """Z/n for n >= 2; carries zero divisors and nilpotents when n is not squarefree."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"Z/n requires n >= 2, got {self.n}")

    def canon(self, value):
        return int(value) % self.n

    def add_values(self, a, b):
        return (a + b) % self.n

    def mul_values(self, a, b):
        return (a * b) % self.n

    def neg_value(self, a):
        return (-a) % self.n

    def is_unit_value(self, a):
        return gcd(a, self.n) == 1

    def inverse_value(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:  # a shares a factor with n
            raise NotAUnitError(f"{a} is not a unit of {self.name()}") from None

    def is_nilpotent_value(self, a):
        # nilpotent iff a^e = 0 for n's largest prime exponent e, and e < bit_length
        return pow(a, self.n.bit_length(), self.n) == 0

    def size(self):
        return self.n

    def is_domain(self):
        return is_prime(self.n)

    def element_values(self):
        check_work(self.n, f"listing {self.name()}")
        return range(self.n)

    def name(self):
        return f"Z/{self.n}"

    def value_sort_key(self, a):
        return a


@dataclass(frozen=True, repr=False)
class PrimeField(IntegersMod):
    """Fp for prime p: Z/p with its field name."""

    is_field = True

    def __post_init__(self):
        if not is_prime(self.n):
            raise ParameterError(f"F{self.n}: {self.n} is not prime")

    @property
    def p(self) -> int:
        return self.n

    def is_nilpotent_value(self, a):
        return a == 0

    def name(self):
        return f"F{self.n}"


@dataclass(frozen=True, repr=False)
class ExtensionField(Ring):
    """F(p^k) = Fp[t]/(modulus), modulus monic irreducible of degree k >= 1.

    Values are little-endian int tuples of length k with entries in [0, p).
    Construction re-verifies irreducibility of the modulus by brute-force
    trial division, so an ExtensionField instance is a proof-carrying field.
    """

    p: int
    modulus: tuple[int, ...]  # little-endian, length k + 1, monic
    base: PrimeField = field(init=False, repr=False, compare=False)  # Fp
    is_field = True

    def __post_init__(self):
        if not is_prime(self.p):
            raise ParameterError(f"extension field base {self.p} is not prime")
        object.__setattr__(self, "base", PrimeField(self.p))
        m = list(self.modulus)
        if len(m) < 2 or m[-1] != 1:
            raise ParameterError("modulus must be monic of degree >= 1")
        if any(not (0 <= c < self.p) for c in m):
            raise ParameterError("modulus coefficients must be canonical in [0, p)")
        if not dense_is_irreducible(self.base, m):
            raise ParameterError(
                f"modulus {_fp_text(m)} is reducible over F{self.p}"
            )

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def canon(self, value):
        if isinstance(value, int):
            value = (value,)
        vec = dense_trim(self.base, [int(c) % self.p for c in value])
        if len(vec) > self.degree:
            vec = dense_divmod(self.base, vec, self.modulus)[1]
        return self._vector(vec)

    def _vector(self, dense: list) -> tuple[int, ...]:
        """The canonical k-tuple of a dense Fp polynomial of degree < k."""
        return tuple(dense) + (0,) * (self.degree - len(dense))

    def add_values(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul_values(self, a, b):
        prod = dense_mul(self.base, a, b)
        return self._vector(dense_divmod(self.base, prod, self.modulus)[1])

    def neg_value(self, a):
        return tuple((-x) % self.p for x in a)

    def is_unit_value(self, a):
        return any(a)

    def inverse_value(self, a):
        if not any(a):
            raise NotAUnitError(f"0 is not a unit of {self.name()}")
        g, u = dense_ext_gcd(self.base, dense_trim(self.base, list(a)), self.modulus)
        # g is a nonzero constant; scale u so that u*a == 1 mod modulus
        scale = self.base.inverse_value(g[0])
        return self._vector([self.base.mul_values(c, scale) for c in u])

    def is_nilpotent_value(self, a):
        return not any(a)

    def size(self):
        return self.p ** self.degree

    def is_domain(self):
        return True

    def element_values(self):
        check_work(self.size(), f"listing F({self.p}^{self.degree})")
        # ascending by base-p value, constant coefficient least significant
        return (v[::-1] for v in itertools.product(range(self.p), repeat=self.degree))

    def name(self):
        return f"F({self.size()})=F{self.p}[t]/({_fp_text(self.modulus)})"

    def value_text(self, a):
        return _fp_text(a, descending=False)

    def value_sort_key(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a))


@lru_cache(maxsize=None)
def default_extension_field(p: int, k: int) -> ExtensionField:
    """F(p^k) with the canonically smallest monic irreducible modulus.

    Candidates are enumerated ascending by base-p value of the non-leading
    coefficients, so the choice is deterministic, e.g. F(4) uses t^2+t+1.
    """
    base = PrimeField(p)
    for digits in itertools.product(range(p), repeat=k):
        m = (*digits[::-1], 1)
        if dense_is_irreducible(base, m):
            return ExtensionField(p, m)
    raise ParameterError(f"no irreducible of degree {k} over F{p}")  # pragma: no cover


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class RingElement:
    """An immutable element of a ring descriptor, always in canonical form."""

    ring: Ring
    value: Value

    def _check(self, other: "RingElement"):
        if not isinstance(other, RingElement):
            raise RingMismatchError(f"expected RingElement, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.name()} vs {other.ring.name()}"
            )

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.add_values(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul_values(self.value, other.value))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg_value(self.value))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return self.value == self.ring.zero_value

    def is_unit(self) -> bool:
        return self.ring.is_unit_value(self.value)

    def inverse(self) -> "RingElement":
        return RingElement(self.ring, self.ring.inverse_value(self.value))

    def is_nilpotent(self) -> bool:
        return self.ring.is_nilpotent_value(self.value)

    def text(self) -> str:
        return self.ring.value_text(self.value)

    def sort_key(self) -> int:
        return self.ring.value_sort_key(self.value)

    def __repr__(self):
        return f"{self.ring.name()}:{self.text()}"


# ---------------------------------------------------------------------------
# subfield embeddings


@lru_cache(maxsize=None)
def _generator_image(sub: ExtensionField, sup: ExtensionField) -> tuple:
    """Image of sub's generator t in sup: the first root of sub.modulus."""
    modulus = [sup.canon(c) for c in sub.modulus]
    for cand in sup.element_values():
        if dense_eval(sup, modulus, cand) == sup.zero_value:
            return cand
    raise EmbeddingError(
        f"{sub.name()} has no root of its modulus inside {sup.name()}"
    )  # pragma: no cover - guarded by the degree check


def has_embedding(sub: Ring, sup: Ring) -> bool:
    if sub == sup:
        return True
    if isinstance(sub, PrimeField) and isinstance(sup, ExtensionField):
        return sub.p == sup.p
    if isinstance(sub, ExtensionField) and isinstance(sup, ExtensionField):
        return sub.p == sup.p and sup.degree % sub.degree == 0
    return False


def embed(x: RingElement, target: Ring) -> RingElement:
    """Map x along the declared embedding of its ring into target.

    Declared embeddings: identity, Fp into F(p^k) (constants), and
    F(p^j) into F(p^k) for j | k via the stored image of the generator.
    """
    src = x.ring
    if not has_embedding(src, target):
        raise EmbeddingError(f"no embedding {src.name()} -> {target.name()}")
    if src == target:
        return x
    if isinstance(src, PrimeField):
        return target.element(x.value)
    coeffs = [target.canon(c) for c in x.value]
    return RingElement(target, dense_eval(target, coeffs, _generator_image(src, target)))
