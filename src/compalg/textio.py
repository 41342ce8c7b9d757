"""Canonical text forms for rings, polynomials, towers, monoid elements
and ideals, as used by the CLI and key files.

Forms:
  rings       Z | Z/12 | F5 | F4 | F(4)=F2[t]/(t^2+t+1)
  elements    Z/12:6 | F4:1+t
  polynomials F5:[1,0,2]          (little-endian coefficients)
  towers      F2<F4 | F2<F2<F4
  composites  F2<F4:[1,t]
  monoids     M<2,3>
  monoid elts F5:M<2,3>:{2:1,3:4} (exponent:coefficient pairs)
  ideals      (15)
  key records rsa-ideal v1 N=(33) E=(3) D=(7) PHI=(20)

Short field names like F4 pick the deterministic default modulus;
explicit-modulus names round-trip losslessly. Every integer is read by
``errors.read_int``, spelled as ``str(n)`` spells it. Only scalar values and
ideal generators may carry one leading '-', and the size after F, so that
F-3 is refused as no prime power. Whitespace is allowed only around separators.
"""

from __future__ import annotations

import re

# poly, composite, monoid_domain and ideals are imported by the parse
# functions that build their objects, so the key-record codec the ciphers
# use does not load them
from .arith import factorize, is_prime
from .errors import FormatError, ParameterError, read_int
from .rings import (
    ExtensionField,
    Integers,
    IntegersMod,
    PrimeField,
    Ring,
    RingElement,
    default_extension_field,
)

_TERM_RE = re.compile(r"^([0-9]+)?(t(\^([0-9]+))?)?$")
_EXT_RE = re.compile(r"^F\(([0-9]+)\)=F([0-9]+)\[t\]/\((.+)\)$")


def parse_ring(text: str) -> Ring:
    text = text.strip()
    if text == "Z":
        return Integers()
    if text.startswith("Z/"):
        return IntegersMod(read_int(text[2:], f"bad modulus in ring name {text!r}"))
    m = _EXT_RE.match(text)
    if m:
        q, p = (read_int(g, f"bad size or base in ring name {text!r}") for g in m.group(1, 2))
        # ExtensionField's own parameter checks, made before the modulus is
        # densified and trial-divided, and before q = p^k is checked
        if not is_prime(p):
            raise ParameterError(f"extension field base {p} is not prime")
        coeffs = _parse_tpoly(m.group(3), p)
        k = max(coeffs)
        if k < 1 or coeffs[k] != 1:
            raise ParameterError("modulus must be monic of degree >= 1")
        if k > q.bit_length() or p**k != q:
            raise FormatError(f"ring name {text!r}: size {q} does not match modulus")
        return ExtensionField(p, tuple(coeffs.get(e, 0) for e in range(k + 1)))
    if text.startswith("F"):
        q = read_int(text[1:], f"unrecognized ring name {text!r}", signed=True)
        fac = factorize(q) if q > 0 else {}
        if len(fac) != 1:
            raise FormatError(f"F{q}: {q} is not a prime power")
        (p, k), = fac.items()
        if k == 1:
            return PrimeField(p)
        return default_extension_field(p, k)
    raise FormatError(f"unrecognized ring name {text!r}")


def ring_name(ring: Ring) -> str:
    return ring.name()


def short_ring_name(ring: Ring) -> str:
    """F4 instead of the explicit-modulus form, when the modulus is the default."""
    if isinstance(ring, ExtensionField):
        if ring == default_extension_field(ring.p, ring.degree):
            return f"F{ring.size()}"
    return ring.name()


def _parse_tpoly(text: str, p: int) -> dict[int, int]:
    """Parse a sum of terms like 2t^3, t, 5 into exponent -> coefficient mod p."""
    coeffs: dict[int, int] = {}
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM_RE.match(term)
        error = f"bad term {term!r} in field element"
        if not m or (m.group(1) is None and m.group(2) is None):
            raise FormatError(error)
        coeff = read_int(m.group(1), error) if m.group(1) else 1
        if m.group(2) is None:
            exp = 0
        elif m.group(4) is None:
            exp = 1
        else:
            exp = read_int(m.group(4), error)
        coeffs[exp] = (coeffs.get(exp, 0) + coeff) % p
    return coeffs


def parse_scalar(ring: Ring, text: str) -> RingElement:
    text = text.strip()
    if isinstance(ring, ExtensionField):
        t = ring.element((0, 1))  # powers by square-and-multiply, not a dense list
        terms = _parse_tpoly(text, ring.p).items()
        return sum((ring.element(c) * t ** e for e, c in terms), ring.zero())
    return ring.element(read_int(text, f"bad element {text!r} for {ring.name()}", signed=True))


def parse_element(text: str) -> RingElement:
    """RING:VALUE, e.g. Z/12:6 or F4:1+t."""
    ring_part, sep, value_part = text.partition(":")
    if not sep:
        raise FormatError(f"expected RING:VALUE, got {text!r}")
    return parse_scalar(parse_ring(ring_part), value_part)


def _split_bracket_list(body: str) -> list[str]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise FormatError(f"expected [...], got {body!r}")
    inner = body[1:-1].strip()
    return [] if not inner else [part.strip() for part in inner.split(",")]


def parse_poly(text: str) -> Polynomial:
    """RING:[c0,c1,...], little-endian."""
    from .poly import Polynomial

    ring_part, sep, body = text.partition(":")
    if not sep:
        raise FormatError(f"expected RING:[coeffs], got {text!r}")
    ring = parse_ring(ring_part)
    return Polynomial(ring, [parse_scalar(ring, c) for c in _split_bracket_list(body)])


def poly_body_text(f: Polynomial) -> str:
    return f"[{','.join(map(f.ring.value_text, f._values))}]"


def poly_text(f: Polynomial) -> str:
    return f"{f.ring.name()}:{poly_body_text(f)}"


def parse_tower(text: str) -> Tower:
    from .composite import Tower

    names = [part.strip() for part in text.split("<")]
    if len(names) < 2:
        raise FormatError(f"a tower needs at least two rings, got {text!r}")
    rings = [parse_ring(n) for n in names]
    return Tower(rings[:-1], rings[-1])


def tower_text(tower: Tower) -> str:
    return "<".join(short_ring_name(r) for r in tower.levels + (tower.top,))


def parse_tower_poly(text: str) -> tuple[Tower, Polynomial]:
    """TOWER:[coeffs] as the tower and a polynomial over its top ring,
    without checking that the polynomial is a member."""
    from .poly import Polynomial

    tower_part, sep, body = text.partition(":")
    if not sep or "<" not in tower_part:
        raise FormatError(f"expected TOWER:[coeffs], got {text!r}")
    tower = parse_tower(tower_part)
    coeffs = [parse_scalar(tower.top, c) for c in _split_bracket_list(body)]
    return tower, Polynomial(tower.top, coeffs)


def parse_composite(text: str) -> CompositeElement:
    """TOWER:[coeffs], e.g. F2<F4:[1,t]."""
    from .composite import CompositeElement

    return CompositeElement(*parse_tower_poly(text))


def composite_text(e: CompositeElement) -> str:
    return f"{tower_text(e.tower)}:{poly_body_text(e.poly)}"


def parse_monoid(text: str) -> NumericalMonoid:
    from .monoid_domain import NumericalMonoid

    text = text.strip()
    if not (text.startswith("M<") and text.endswith(">")):
        raise FormatError(f"expected M<gens>, got {text!r}")
    error = f"bad generators in {text!r}"
    return NumericalMonoid([read_int(g.strip(), error) for g in text[2:-1].split(",")])


def monoid_text(m: NumericalMonoid) -> str:
    return f"M<{','.join(str(g) for g in m.generators)}>"


def parse_monoid_element(text: str) -> MonoidElement:
    """RING:MONOID:{exp:coeff,...}, e.g. F5:M<2,3>:{2:1,3:4}."""
    from .monoid_domain import MonoidElement

    ring_part, sep, rest = text.partition(":")
    if not sep:
        raise FormatError(f"expected RING:MONOID:{{terms}}, got {text!r}")
    ring = parse_ring(ring_part)
    monoid_part, sep, body = rest.partition(":")
    if not sep:
        raise FormatError(f"expected RING:MONOID:{{terms}}, got {text!r}")
    monoid = parse_monoid(monoid_part)
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise FormatError(f"expected {{exp:coeff,...}}, got {body!r}")
    terms = []
    inner = body[1:-1].strip()
    if inner:
        for pair in inner.split(","):
            exp_part, sep, coeff_part = pair.partition(":")
            if not sep:
                raise FormatError(f"bad term {pair!r} in monoid element")
            exp = read_int(exp_part.strip(), f"bad exponent {exp_part!r}")
            terms.append((exp, parse_scalar(ring, coeff_part)))
    return MonoidElement(ring, monoid, terms)


def monoid_element_text(e: MonoidElement) -> str:
    return repr(e)


def parse_ideal(text: str) -> PrincipalIdeal:
    from .ideals import PrincipalIdeal

    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise FormatError(f"expected (n), got {text!r}")
    error = f"bad ideal generator in {text!r}"
    return PrincipalIdeal(read_int(text[1:-1].strip(), error, signed=True))


def ideal_text(i: PrincipalIdeal) -> str:
    return repr(i)


KEY_RECORD_VERSION = "v1"


def key_record_text(kind: str, fields: dict[str, object]) -> str:
    """One line: the kind, the version, then NAME=VALUE fields in order."""
    return " ".join([kind, KEY_RECORD_VERSION, *(f"{k}={v}" for k, v in fields.items())])


def parse_key_record(text: str, kind: str, names: tuple[str, ...]) -> dict[str, str]:
    """The fields of a key record of the given kind: each of names once, no other."""
    parts = text.split()
    if parts[:2] != [kind, KEY_RECORD_VERSION]:
        raise FormatError(f"not a {kind} {KEY_RECORD_VERSION} key record")
    fields = {}
    for part in parts[2:]:
        name, sep, value = part.partition("=")
        if not sep or name in fields or name not in names:
            raise FormatError(f"{kind} key record field {part!r} is unknown, repeated or lacks '='")
        fields[name] = value
    missing = [name for name in names if name not in fields]
    if missing:
        raise FormatError(f"{kind} key record is missing {', '.join(missing)}")
    return fields
