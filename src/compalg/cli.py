"""Command-line surface for every operation in the package.

The whole grammar is data: ``GROUPS`` maps each group to its help line,
its examples and its verbs, each verb to its handler and the arguments
it adds to ``COMMON``, and ``build_parser`` is one loop over that table.
The test suite reads ``GROUPS`` too: it executes every example verbatim
(output must match byte for byte) and checks every verb's usage line.

Exit codes: 0 success, 1 domain and file errors (stderr line
``ERR:<code>: ...``, with code ``io`` for files), 2 usage errors. All
randomness flows through explicit seed flags, so every command is
reproducible.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CompalgError, FormatError, ParameterError, read_int

# Every other import is made by the handler that needs it, so a call pays
# only for the modules its subcommand uses.

PROG = "compalg"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _emit(args, lines, obj) -> int:
    if args.format == "json":
        import json

        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _parse_values(text: str | None, sep: str | None = None) -> list[int]:
    if text is None:
        raise ParameterError("need --values")
    error = f"expected {'comma' if sep else 'whitespace'}-separated integers, got {text!r}"
    return [read_int(tok.strip(), error, signed=True) for tok in text.split(sep)]


def _read_text(path: str) -> str:
    from pathlib import Path

    return Path(path).read_text()


def _load_alphabet(args):
    from . import alphabet as alpha

    if args.alphabet_file:
        return alpha.Alphabet(line for line in _read_text(args.alphabet_file).splitlines() if line)
    return alpha.upper_latin()


def _message_values(args, domain: range) -> list[int]:
    """Values either straight from --values or encoded from --text into the domain."""
    if args.values is not None:
        return _parse_values(args.values)
    if args.text is not None:
        from . import alphabet as alpha

        ab = _load_alphabet(args)
        top = domain.stop - 1
        lifts = None
        if args.seed is not None:
            max_k = max(0, (top - ab.cycle) // ab.cycle)
            lifts = alpha.seeded_lifts(args.seed, max_k, len(args.text))
        return alpha.encode(args.text, ab, lifts, top)
    raise ParameterError("need --values or --text")


def _int_line(key: str, values: list[int]):
    return [" ".join(map(str, values))], {key: values}


def _plain(args, values: list[int]):
    """Decrypted values, or under --as-text the text they spell."""
    if args.as_text:
        from . import alphabet as alpha

        text = alpha.decode(values, _load_alphabet(args))
        return [text], {"text": text}
    return _int_line("values", values)


def _write_out(args, content: str):
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(content if content.endswith("\n") else content + "\n")


# ---------------------------------------------------------------------------
# ring / poly / composite / monoid / ideal


def cmd_ring_check(args):
    from .textio import parse_element

    elem = parse_element(args.element)
    obj = {"unit": elem.is_unit(), "nilpotent": elem.is_nilpotent()}
    line = f"unit={_bool(obj['unit'])} nilpotent={_bool(obj['nilpotent'])}"
    if obj["unit"]:
        obj["inverse"] = elem.inverse().text()
        line += f" inverse={obj['inverse']}"
    return [line], obj


def cmd_poly_check(args):
    from .textio import parse_poly

    f = parse_poly(args.poly)
    obj = {"unit": f.is_unit(), "nilpotent": f.is_nilpotent()}
    return [f"unit={_bool(obj['unit'])} nilpotent={_bool(obj['nilpotent'])}"], obj


def cmd_poly_irreducible(args):
    from .textio import parse_poly

    result = parse_poly(args.poly).is_irreducible()
    return [_bool(result)], {"irreducible": result}


def cmd_poly_factor(args):
    from .textio import parse_poly, poly_body_text

    fac = parse_poly(args.poly).factor()
    lines = [f"unit={fac.unit.text()}"]
    lines += [f"factor={poly_body_text(f)}^{m}" for f, m in fac.factors]
    obj = {
        "unit": fac.unit.text(),
        "factors": [[poly_body_text(f), m] for f, m in fac.factors],
    }
    return lines, obj


def cmd_poly_oracle(args):
    from .poly import search_inverse
    from .textio import parse_poly, poly_body_text

    g = search_inverse(parse_poly(args.poly), args.bound)
    if g is None:
        return ["none"], {"inverse": None}
    return [poly_body_text(g)], {"inverse": poly_body_text(g)}


def cmd_composite_check(args):
    from .composite import CompositeElement, contains
    from .textio import parse_tower_poly

    tower, f = parse_tower_poly(args.element)
    member = contains(tower, f)
    obj = {"member": member}
    if not member:
        return ["member=false"], obj
    elem = CompositeElement(tower, f)
    obj["unit"] = elem.is_unit()
    obj["eval0"] = elem.quotient_eval().text()
    line = f"member=true unit={_bool(obj['unit'])} eval0={obj['eval0']}"
    return [line], obj


def cmd_composite_irreducible(args):
    from .textio import parse_composite

    result = parse_composite(args.element).is_irreducible()
    return [_bool(result)], {"irreducible": result}


def cmd_composite_factor(args):
    from .composite import atomize
    from .textio import parse_composite, poly_body_text

    atoms = atomize(parse_composite(args.element))
    lines = [f"atom={poly_body_text(a.poly)}" for a in atoms]
    return lines, {"atoms": [poly_body_text(a.poly) for a in atoms]}


def cmd_composite_oracle(args):
    from .composite import has_nontrivial_factorization
    from .textio import parse_composite

    result = has_nontrivial_factorization(parse_composite(args.element))
    return [_bool(result)], {"factorizable": result}


def cmd_composite_chain(args):
    from .composite import divisor_chain
    from .textio import parse_composite, poly_body_text

    chain = divisor_chain(parse_composite(args.element), args.max_steps)
    lines = [f"chain={poly_body_text(e.poly)}" for e in chain.elements]
    lines.append(f"terminated={_bool(chain.terminated)}")
    return lines, {
        "chain": [poly_body_text(e.poly) for e in chain.elements],
        "terminated": chain.terminated,
    }


def cmd_monoid_contains(args):
    from .textio import parse_monoid

    result = parse_monoid(args.monoid).contains(args.m)
    return [_bool(result)], {"member": result}


def cmd_monoid_check(args):
    from .textio import parse_monoid_element

    f = parse_monoid_element(args.element)
    obj = {"unit": f.is_unit(), "nilpotent": f.is_nilpotent()}
    return [f"unit={_bool(obj['unit'])} nilpotent={_bool(obj['nilpotent'])}"], obj


def cmd_monoid_build(args):
    from .monoid_domain import build_irreducible
    from .textio import monoid_element_text, parse_monoid, parse_ring

    ring_part, sep, monoid_part = args.domain.partition(":")
    if not sep:
        raise FormatError(f"expected RING:MONOID, got {args.domain!r}")
    ring = parse_ring(ring_part)
    monoid = parse_monoid(monoid_part)
    primes = _parse_values(args.primes, ",")
    exponents = _parse_values(args.exponents, ",")
    cert = build_irreducible(ring, monoid, primes, exponents)
    text = monoid_element_text(cert.element)
    return [text], {
        "element": text,
        "atom_exponent": cert.atom_exponent,
        "gap_exponents": list(cert.gap_exponents),
        "primes": list(cert.primes),
    }


def cmd_monoid_oracle(args):
    from .monoid_domain import is_irreducible_by_search
    from .textio import parse_monoid_element

    f = parse_monoid_element(args.element)
    result = is_irreducible_by_search(f, args.exp_bound, args.coeff_bound)
    return [_bool(result)], {"irreducible": result}


def cmd_ideal_mul(args):
    from .textio import parse_ideal

    result = parse_ideal(args.left) * parse_ideal(args.right)
    return [repr(result)], {"ideal": repr(result)}


def cmd_ideal_totient(args):
    from .ideals import PrincipalIdeal, totient_ideal

    result = totient_ideal(PrincipalIdeal(args.p), PrincipalIdeal(args.q))
    return [repr(result)], {"ideal": repr(result)}


def cmd_ideal_inverse(args):
    from .ideals import PrincipalIdeal, inverse_ideal

    result = inverse_ideal(PrincipalIdeal(args.e), PrincipalIdeal(args.phi))
    return [repr(result)], {"ideal": repr(result)}


def cmd_ideal_norm(args):
    from .textio import parse_ideal

    n = parse_ideal(args.ideal).norm()
    text = "infinite" if n == float("inf") else str(n)
    return [text], {"norm": None if text == "infinite" else n}


def cmd_ideal_contains(args):
    from .textio import parse_ideal

    result = parse_ideal(args.left).contains(parse_ideal(args.right))
    return [_bool(result)], {"contains": result}


# ---------------------------------------------------------------------------
# ciphers


def _rsa_key(args):
    from .ciphers.rsa_ideal import key_from_text, rsa_keygen
    from .ideals import PrincipalIdeal

    if args.key:
        return key_from_text(_read_text(args.key).strip())
    if args.p is None or args.q is None or args.e is None:
        raise ParameterError("need --key or all of --p/--q/--e")
    return rsa_keygen(PrincipalIdeal(args.p), PrincipalIdeal(args.q), PrincipalIdeal(args.e))


def cmd_rsa_keygen(args):
    from .ciphers.rsa_ideal import key_to_text, rsa_keygen
    from .ideals import PrincipalIdeal

    key = rsa_keygen(PrincipalIdeal(args.p), PrincipalIdeal(args.q), PrincipalIdeal(args.e))
    _write_out(args, key_to_text(key))
    line = f"N={key.modulus!r} E={key.e!r} D={key.d!r}"
    return [line], {
        "N": repr(key.modulus),
        "E": repr(key.e),
        "D": repr(key.d),
        "PHI": repr(key.phi),
    }


def cmd_rsa_encrypt(args):
    from .ciphers.rsa_ideal import rsa_encrypt

    key = _rsa_key(args)
    return _int_line("cipher", rsa_encrypt(_message_values(args, key.messages), key))


def cmd_rsa_decrypt(args):
    from .ciphers.rsa_ideal import rsa_decrypt

    key = _rsa_key(args)
    return _plain(args, rsa_decrypt(_parse_values(args.values), key))


def cmd_dh_run(args):
    from .ciphers.diffie_hellman import DhParams, dh_exchange
    from .ideals import PrincipalIdeal

    params = DhParams(PrincipalIdeal(args.p), PrincipalIdeal(args.g))
    ex = dh_exchange(params, args.a, args.b)
    if ex.shared_first != ex.shared_second:  # pragma: no cover - identity holds
        raise ParameterError("derived secrets differ")
    lines = [
        f"A={ex.public_first!r}",
        f"B={ex.public_second!r}",
        f"shared={ex.shared_first!r}",
    ]
    return lines, {
        "A": repr(ex.public_first),
        "B": repr(ex.public_second),
        "shared": repr(ex.shared_first),
    }


def cmd_frac_encrypt(args):
    from .ciphers.fractional import FractionalKey, frac_encrypt

    key = FractionalKey(args.alpha, args.k)
    if args.x is None and args.values is None:
        raise ParameterError("need --x or --values")
    values = [args.x] if args.x is not None else _parse_values(args.values)
    return _int_line("cipher", frac_encrypt(values, key))


def cmd_frac_decrypt(args):
    from .ciphers.fractional import FractionalKey, frac_decrypt

    key = FractionalKey(args.alpha, args.k)
    if args.y is None and args.values is None:
        raise ParameterError("need --y or --values")
    values = [args.y] if args.y is not None else _parse_values(args.values)
    return _int_line("values", frac_decrypt(values, key))


def cmd_zone_encrypt(args):
    from .ciphers.zone import ZoneKey, pairs_to_text, zone_encrypt

    key = ZoneKey(args.p, args.q, args.k, args.zone_seed)
    pairs = zone_encrypt(_parse_values(args.values), key)
    return [pairs_to_text(pairs)], {"pairs": [list(p) for p in pairs]}


def cmd_zone_decrypt(args):
    from .ciphers.zone import ZoneKey, pairs_from_text, zone_decrypt

    key = ZoneKey(args.p, args.q, args.k, args.zone_seed)
    return _int_line("values", zone_decrypt(pairs_from_text(args.pairs), key))


def _compcipher_keys(args):
    """F and G, from --key or from --f and --g, and the product key FG."""
    from .ciphers import composite_cipher as cc

    if args.key:
        f, g = cc.key_from_text(_read_text(args.key))
    elif args.f is None or args.g is None:
        raise ParameterError("need --key or both --f and --g")
    else:
        f, g = cc.parse_cipher_polynomial(args.f), cc.parse_cipher_polynomial(args.g)
    return f, g, cc.composite_cipher_keygen(f, g)


def cmd_compcipher_keygen(args):
    from .ciphers.composite_cipher import key_to_text

    f, g, fg = _compcipher_keys(args)
    _write_out(args, key_to_text(f, g))
    return [fg.descriptor()], {"fg": fg.descriptor(), "block": fg.block_length}


def cmd_compcipher_encrypt(args):
    from .ciphers.composite_cipher import composite_cipher_encrypt

    _, _, fg = _compcipher_keys(args)
    cipher = composite_cipher_encrypt(_message_values(args, fg.messages), fg)
    return [cipher.to_text()], {
        "cipher": list(cipher.values),
        "plain_length": cipher.plain_length,
    }


def cmd_compcipher_decrypt(args):
    from .ciphers.composite_cipher import CipherText, composite_cipher_decrypt

    _, _, fg = _compcipher_keys(args)
    return _plain(args, composite_cipher_decrypt(CipherText.from_text(args.cipher), fg))


def _monoidcipher_key(args):
    from .ciphers.monoid_cipher import MonoidCipherKey, key_from_text

    if args.key:
        return key_from_text(_read_text(args.key).strip())
    if args.p is None or args.x is None or args.a is None:
        raise ParameterError("need --key or all of --p/--x/--a")
    return MonoidCipherKey(args.p, args.x, tuple(_parse_values(args.a, ",")))


def cmd_monoidcipher_keygen(args):
    import random

    from .ciphers.monoid_cipher import key_to_text, monoid_keygen

    if args.seed is None:
        raise ParameterError("keygen requires --seed for reproducibility")
    key = monoid_keygen(args.p, random.Random(args.seed), args.coeffs)
    record = key_to_text(key)
    _write_out(args, record)
    return [record], {
        "P": key.alphabet_size,
        "X": key.base,
        "A": list(key.coefficients),
    }


def cmd_monoidcipher_encrypt(args):
    from .ciphers.monoid_cipher import monoid_encrypt

    key = _monoidcipher_key(args)
    return _int_line("cipher", monoid_encrypt(_message_values(args, key.messages), key))


def cmd_monoidcipher_decrypt(args):
    from .ciphers.monoid_cipher import monoid_decrypt

    key = _monoidcipher_key(args)
    return _plain(args, monoid_decrypt(_parse_values(args.values), key))


# ---------------------------------------------------------------------------
# exchange harness


def cmd_exchange_run(args):
    from .ciphers.composite_cipher import parse_cipher_polynomial
    from .ciphers.diffie_hellman import DhParams
    from .ideals import PrincipalIdeal
    from .keyexchange import run_composite_agreement, run_dh

    if args.mode == "dh":
        if args.p is None or args.g is None:
            raise ParameterError("dh mode needs --p and --g")
        run = run_dh(
            DhParams(PrincipalIdeal(args.p), PrincipalIdeal(args.g)),
            secret_first=args.a,
            secret_second=args.b,
            seed_first=args.seed_f,
            seed_second=args.seed_s,
        )
    else:
        if args.f is None or args.g_poly is None:
            raise ParameterError("compcipher mode needs --f and --g-poly")
        run = run_composite_agreement(
            parse_cipher_polynomial(args.f), parse_cipher_polynomial(args.g_poly)
        )
    text = run.transcript.serialize()
    _write_out(args, text)
    lines = text.splitlines()
    return lines, {"transcript": lines}


def cmd_exchange_replay(args):
    from .ciphers.composite_cipher import parse_cipher_polynomial
    from .keyexchange import replay

    both = args.f is not None and args.g_poly is not None
    if not replay(
        _read_text(args.file),
        f=parse_cipher_polynomial(args.f) if both else None,
        g=parse_cipher_polynomial(args.g_poly) if both else None,
        secret_first=args.a,
        secret_second=args.b,
        seed_first=args.seed_f,
        seed_second=args.seed_s,
    ):
        raise ParameterError("transcript does not replay identically")
    return ["replay ok"], {"replay": "ok"}


# ---------------------------------------------------------------------------
# command grammar: each argument is the flags and keywords of one add_argument


def _arg(*flags, **kwargs):
    return flags, kwargs


def integer(text: str) -> int:
    try:  # argparse turns a ValueError into a usage error naming this type
        return read_int(text, text, signed=True)
    except FormatError:
        raise ValueError(text) from None


def _ints(*flags, **kwargs):
    return [_arg(flag, type=integer, **kwargs) for flag in flags]


COMMON = [_arg("--format", choices=("text", "json"), default="text")]

_ELEMENT = [_arg("element")]
_POLY = [_arg("poly")]
_LEFT_RIGHT = [_arg("left"), _arg("right")]
_VALUES = _arg("--values")
_ALPHABET_FILE = _arg("--alphabet-file")
_TEXT = [_arg("--text"), *_ints("--seed"), _ALPHABET_FILE]
_AS_TEXT = [_arg("--as-text", action="store_true"), _ALPHABET_FILE]
_OUT = _arg("--out")
_RSA_KEY = [_arg("--key", help="key file from rsa keygen --out"), *_ints("--p", "--q", "--e"),
            _VALUES]
_MC_KEY = [_arg("--key"), *_ints("--p", "--x"), _arg("--a", help="comma-separated coefficients"),
           _VALUES]
_CC_KEY = [_arg("--f"), _arg("--g"), _arg("--key")]
_ZONE_KEY = _ints("--p", "--q", "--k", required=True)
_EXCHANGE = [*_ints("--a", "--b", "--seed-f", "--seed-s"), _arg("--f"), _arg("--g-poly")]

# group: (help, examples shown in its --help, {verb: (handler, arguments)})
GROUPS = {
    "ring": (
        "unit/nilpotent checks on ring elements",
        [("ring check Z/12:6", ["unit=false nilpotent=true"])],
        {"check": (cmd_ring_check,
                   [_arg("element", help="element as RING:VALUE, e.g. Z/12:6 or F4:1+t")])},
    ),
    "poly": (
        "polynomial predicates, factorization and the inverse-search oracle",
        [
            ("poly irreducible F2:[1,1,1]", ["true"]),
            ("poly factor F2:[0,0,1,1]", ["unit=1", "factor=[0,1]^2", "factor=[1,1]^1"]),
            ("poly oracle Z/4:[1,2] --bound 4", ["[1,2]"]),
        ],
        {
            "check": (cmd_poly_check, [_arg("poly", help="polynomial as RING:[c0,c1,...]")]),
            "irreducible": (cmd_poly_irreducible, _POLY),
            "factor": (cmd_poly_factor, _POLY),
            "oracle": (cmd_poly_oracle,
                       [*_POLY, *_ints("--bound", default=8, help="inverse degree bound")]),
        },
    ),
    "composite": (
        "tower-constrained subring: membership, irreducibility, atoms, chains",
        [
            ("composite irreducible F2<F4:[0,t]", ["true"]),
            ("composite factor F2<F4:[0,0,1]", ["atom=[0,1]", "atom=[0,1]"]),
            (
                "composite chain F2<F4:[0,0,0,1] --max-steps 8",
                ["chain=[0,0,0,1]", "chain=[0,0,1]", "chain=[0,1]", "terminated=true"],
            ),
        ],
        {
            "check": (cmd_composite_check,
                      [_arg("element", help="element as TOWER:[coeffs], e.g. F2<F4:[1,t]")]),
            "irreducible": (cmd_composite_irreducible, _ELEMENT),
            "factor": (cmd_composite_factor, _ELEMENT),
            "oracle": (cmd_composite_oracle, _ELEMENT),
            "chain": (cmd_composite_chain, [*_ELEMENT, *_ints("--max-steps", default=16)]),
        },
    ),
    "monoid": (
        "numerical-monoid membership and monoid-domain elements",
        [
            ("monoid contains M<2,3> 7", ["true"]),
            ("monoid build Z:M<2,3> --primes 2 --exponents 2,3", ["Z:M<2,3>:{2:-1,3:2}"]),
            ("monoid oracle Z:M<2,3>:{2:-1,3:2} --exp-bound 6 --coeff-bound 4", ["true"]),
        ],
        {
            "contains": (cmd_monoid_contains,
                         [_arg("monoid", help="monoid as M<g1,g2,...>"), *_ints("m")]),
            "check": (cmd_monoid_check,
                      [_arg("element", help="element as RING:MONOID:{exp:coeff,...}")]),
            "build": (cmd_monoid_build, [
                _arg("domain", help="RING:MONOID, e.g. Z:M<2,3>"),
                _arg("--primes", required=True, help="comma-separated primes p1..p(r-1)"),
                _arg("--exponents", required=True, help="comma-separated exponents m1..mr"),
            ]),
            "oracle": (cmd_monoid_oracle,
                       [*_ELEMENT, *_ints("--exp-bound", required=True), *_ints("--coeff-bound")]),
        },
    ),
    "ideal": (
        "principal-ideal arithmetic",
        [
            ("ideal mul (3) (5)", ["(15)"]),
            ("ideal inverse --e 3 --phi 20", ["(7)"]),
            ("ideal totient --p 3 --q 11", ["(20)"]),
            ("ideal contains (2) (6)", ["true"]),
        ],
        {
            "mul": (cmd_ideal_mul, _LEFT_RIGHT),
            "totient": (cmd_ideal_totient, _ints("--p", "--q", required=True)),
            "inverse": (cmd_ideal_inverse, _ints("--e", "--phi", required=True)),
            "norm": (cmd_ideal_norm, [_arg("ideal")]),
            "contains": (cmd_ideal_contains, _LEFT_RIGHT),
        },
    ),
    "rsa": (
        "ideal-key multiplicative cipher: keygen, encrypt, decrypt",
        [
            ("rsa keygen --p 3 --q 11 --e 3", ["N=(33) E=(3) D=(7)"]),
            ("rsa encrypt --p 3 --q 11 --e 3 --values \"2 0\"", ["6 0"]),
            ("rsa decrypt --p 3 --q 11 --e 3 --values \"6 0\"", ["2 0"]),
        ],
        {
            "keygen": (cmd_rsa_keygen, [
                *_ints("--p", "--q", "--e", required=True),
                _arg("--out", help="write the full key record to this file"),
            ]),
            "encrypt": (cmd_rsa_encrypt, [*_RSA_KEY, *_TEXT]),
            "decrypt": (cmd_rsa_decrypt, [*_RSA_KEY, *_AS_TEXT]),
        },
    ),
    "dh": (
        "shared-ideal derivation for two parties",
        [("dh run --p 7 --g 10 --a 3 --b 4", ["A=(2)", "B=(5)", "shared=(1)"])],
        {"run": (cmd_dh_run, _ints("--p", "--g", "--a", "--b", required=True))},
    ),
    "frac": (
        "multiplier cipher over a prime-length alphabet",
        [
            ("frac encrypt --alpha 29 --k 7 --x 5", ["6"]),
            ("frac decrypt --alpha 29 --k 7 --y 6", ["5"]),
        ],
        {
            "encrypt": (cmd_frac_encrypt, [
                *_ints("--alpha", required=True, help="alphabet length, prime"),
                *_ints("--k", required=True), *_ints("--x"), _VALUES,
            ]),
            "decrypt": (cmd_frac_decrypt,
                        [*_ints("--alpha", "--k", required=True), *_ints("--y"), _VALUES]),
        },
    ),
    "zone": (
        "sub-alphabet zone cipher; ciphertext is zone:digit pairs",
        [
            ("zone encrypt --p 29 --q 5 --k 3 --values \"7 1\"", ["1:1 0:3"]),
            ("zone decrypt --p 29 --q 5 --k 3 --pairs \"1:1 0:3\"", ["7 1"]),
        ],
        {
            "encrypt": (cmd_zone_encrypt, [
                *_ZONE_KEY, _arg("--values", required=True),
                *_ints("--zone-seed", help="mask zone labels with a shared seeded permutation"),
            ]),
            "decrypt": (cmd_zone_decrypt,
                        [*_ZONE_KEY, _arg("--pairs", required=True), *_ints("--zone-seed")]),
        },
    ),
    "compcipher": (
        "block cipher keyed by a polynomial of letter ciphers",
        [
            (
                "compcipher keygen --f poly[aff(1,1,26),aff(1,2,26)] --g poly[aff(1,0,26)]",
                ["poly[prod(aff(1,1,26),aff(1,0,26)),prod(aff(1,2,26),aff(1,0,26))]"],
            ),
            (
                "compcipher encrypt --f poly[aff(1,1,26),aff(1,2,26)] --g poly[aff(1,0,26)] --text AB",
                ["2 1 0 3 1"],
            ),
            (
                "compcipher decrypt --f poly[aff(1,1,26),aff(1,2,26)] --g poly[aff(1,0,26)] --cipher \"2 1 0 3 1\" --as-text",
                ["AB"],
            ),
        ],
        {
            "keygen": (cmd_compcipher_keygen, [
                _arg("--f", help="cipher polynomial, e.g. poly[aff(1,1,26)]"), *_CC_KEY[1:], _OUT,
            ]),
            "encrypt": (cmd_compcipher_encrypt, [*_CC_KEY, _VALUES, *_TEXT]),
            "decrypt": (cmd_compcipher_decrypt,
                        [*_CC_KEY, _arg("--cipher", required=True), *_AS_TEXT]),
        },
    ),
    "monoidcipher": (
        "exponent cipher over a prime alphabet (discrete-log hard to invert)",
        [
            (
                "monoidcipher keygen --p 29 --seed 1 --coeffs 3",
                ["monoid-cipher v1 P=29 X=27 A=25,3,9"],
            ),
            ("monoidcipher encrypt --p 29 --x 2 --a 3 --values 7", ["7"]),
            ("monoidcipher decrypt --p 29 --x 2 --a 3 --values 7", ["7"]),
        ],
        {
            "keygen": (cmd_monoidcipher_keygen, [
                *_ints("--p", required=True),
                *_ints("--seed"),
                *_ints("--coeffs", default=8, help="coefficient count"),
                _OUT,
            ]),
            "encrypt": (cmd_monoidcipher_encrypt, [*_MC_KEY, *_TEXT]),
            "decrypt": (cmd_monoidcipher_decrypt, [*_MC_KEY, *_AS_TEXT]),
        },
    ),
    "exchange": (
        "two-party protocol harness: run and replay transcripts",
        [
            (
                "exchange run --p 7 --g 10 --a 3 --b 4",
                [
                    "exchange v1 dh",
                    "param P=(7)",
                    "param G=(10)",
                    "msg F->S A=(2)",
                    "msg S->F B=(5)",
                    "digest F fd0ad9026eee596b7072a762941f60bef57e760a230edd450b3a634825685c2a",
                    "digest S fd0ad9026eee596b7072a762941f60bef57e760a230edd450b3a634825685c2a",
                ],
            ),
        ],
        {
            "run": (cmd_exchange_run, [
                _arg("--mode", choices=("dh", "compcipher"), default="dh"),
                *_ints("--p", "--g"), *_EXCHANGE, _OUT,
            ]),
            "replay": (cmd_exchange_replay, [_arg("file"), *_EXCHANGE]),
        },
    ),
}


def _epilog(examples: list[tuple[str, list[str]]]) -> str:
    lines = ["examples:"]
    for cmdline, outputs in examples:
        lines.append(f"  $ {PROG} {cmdline}")
        lines.extend(f"  {out}" for out in outputs)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is accepted only as spelled in GROUPS, never as a prefix
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact algebra on tower-constrained polynomial subrings, "
        "monoid domains, and the toy ciphers built on them.",
        allow_abbrev=False,
    )
    top = parser.add_subparsers(dest="group", required=True, metavar="SUBCOMMAND")
    for name, (help_text, examples, verbs) in GROUPS.items():
        sub = top.add_parser(
            name,
            help=help_text,
            epilog=_epilog(examples),
            formatter_class=argparse.RawDescriptionHelpFormatter,
            allow_abbrev=False,
        ).add_subparsers(dest="verb", required=True, metavar="VERB")
        for verb, (func, arguments) in verbs.items():
            p = sub.add_parser(verb, allow_abbrev=False)
            p.set_defaults(func=func, parser=p)
            for flags, kwargs in [*COMMON, *arguments]:
                p.add_argument(*flags, **kwargs)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        # subparsers hand unknown arguments back: the chosen verb reports them
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, obj = args.func(args)
    except CompalgError as exc:
        print(f"ERR:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERR:io: {exc}", file=sys.stderr)
        return 1
    return _emit(args, lines, obj)


def main():  # pragma: no cover - thin wrapper
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
