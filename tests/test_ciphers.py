"""Round trips and worked examples for all six cryptosystems."""

import math
import random
import sys
import time
import tracemalloc
from math import gcd

import pytest

from compalg import CeilingError, FormatError, ParameterError, errors, ideal
from compalg.arith import is_prime, is_primitive_root
from compalg.ciphers import composite_cipher, monoid_cipher
from compalg.ciphers import (
    AffineCipher,
    CipherPolynomial,
    CipherText,
    DhParams,
    FractionalKey,
    MonoidCipherKey,
    RsaIdealKey,
    ZoneKey,
    cipher_product,
    cipher_sum,
    composite_cipher_decrypt,
    composite_cipher_encrypt,
    composite_cipher_keygen,
    dh_exchange,
    discrete_log_bsgs,
    discrete_log_exhaustive,
    frac_decrypt,
    frac_decrypt_fast_path,
    frac_encrypt,
    monoid_decrypt,
    monoid_encrypt,
    monoid_keygen,
    parse_cipher,
    parse_cipher_polynomial,
    random_affine_polynomial,
    rsa_decrypt,
    rsa_encrypt,
    rsa_keygen,
    zone_decrypt,
    zone_encrypt,
)

SMALL_PRIMES = [p for p in range(3, 200) if is_prime(p)]


# --- ideal-key multiplicative cipher -----------------------------------------


def test_rsa_keygen_worked_example():
    key = rsa_keygen(ideal(3), ideal(11), ideal(3))
    assert key.modulus == ideal(33)
    assert key.phi == ideal(20)
    assert key.d == ideal(7)


def test_rsa_keygen_named_failures():
    with pytest.raises(ParameterError):
        rsa_keygen(ideal(2), ideal(2), ideal(3))
    with pytest.raises(ParameterError, match="gcd"):
        rsa_keygen(ideal(3), ideal(11), ideal(5))
    with pytest.raises(ParameterError, match="1 < e"):
        rsa_keygen(ideal(3), ideal(11), ideal(1))


@pytest.mark.parametrize(
    "n,d,phi",
    # phi = 20 belongs to N = 33 = 3*11 only; phi = 16 to 5*5, but the primes must differ
    [(35, 7, 20), (21, 7, 20), (31, 7, 20), (0, 7, 20), (4, 7, 20), (1001, 7, 20), (25, 11, 16)],
)
def test_rsa_key_refuses_a_modulus_that_does_not_match_phi(n, d, phi):
    with pytest.raises(ParameterError, match=rf"N = {n} is not PQ for distinct primes"):
        RsaIdealKey(ideal(n), ideal(3), ideal(d), ideal(phi))


def test_rsa_round_trip_worked_example():
    key = rsa_keygen(ideal(3), ideal(11), ideal(3))
    assert rsa_encrypt([2], key) == [6]
    assert rsa_decrypt([6], key) == [2]
    assert rsa_decrypt(rsa_encrypt([0], key), key) == [0]


def test_rsa_rejects_out_of_range_message():
    key = rsa_keygen(ideal(3), ideal(11), ideal(3))
    with pytest.raises(ParameterError):
        rsa_encrypt([20], key)


def test_rsa_rejects_out_of_range_ciphertext():
    key = rsa_keygen(ideal(3), ideal(11), ideal(3))  # phi = 20
    assert rsa_decrypt([0, 19], key) == [0, 19 * 7 % 20]
    for bad in (-5, 20, 1000):
        with pytest.raises(ParameterError, match=rf"{bad} at position 1 is outside \[0, 20\)"):
            rsa_decrypt([6, bad], key)


def test_rsa_full_domain_and_random_keys():
    rng = random.Random(11)
    for _ in range(50):
        p, q = rng.sample(SMALL_PRIMES, 2)
        phi = (p - 1) * (q - 1)
        es = [e for e in range(2, phi) if gcd(e, phi) == 1]
        if not es:
            continue
        key = rsa_keygen(ideal(p), ideal(q), ideal(rng.choice(es)))
        assert (key.e.generator * key.d.generator) % key.phi.generator == 1
        msgs = [rng.randrange(0, phi) for _ in range(20)]
        assert rsa_decrypt(rsa_encrypt(msgs, key), key) == msgs


# --- shared-ideal derivation ----------------------------------------------------


def test_dh_worked_example():
    ex = dh_exchange(DhParams(ideal(7), ideal(10)), 3, 4)
    assert ex.public_first == ideal(2)
    assert ex.public_second == ideal(5)
    assert ex.shared_first == ex.shared_second == ideal(1)


def test_dh_trivial_secrets():
    ex = dh_exchange(DhParams(ideal(7), ideal(10)), 1, 1)
    assert ex.shared_first == ideal(10 % 7)


def test_dh_params_validated():
    with pytest.raises(ParameterError):
        DhParams(ideal(8), ideal(10))  # p not prime
    with pytest.raises(ParameterError):
        DhParams(ideal(7), ideal(5))  # norm order violated


def test_dh_shared_secrets_agree_randomized():
    rng = random.Random(12)
    for _ in range(500):
        p = rng.choice(SMALL_PRIMES)
        g = rng.randrange(p + 1, 4 * p)
        a, b = rng.randrange(1, 10 * p), rng.randrange(1, 10 * p)
        ex = dh_exchange(DhParams(ideal(p), ideal(g)), a, b)
        assert ex.shared_first == ex.shared_second


# --- multiplier cipher ------------------------------------------------------------


def test_frac_worked_example():
    key = FractionalKey(29, 7)
    assert frac_encrypt([5], key) == [6]
    assert frac_decrypt([6], key) == [5]


def test_frac_key_validation():
    with pytest.raises(ParameterError):
        FractionalKey(29, 1)
    with pytest.raises(ParameterError):
        FractionalKey(26, 3)  # alphabet not prime
    with pytest.raises(ParameterError):
        FractionalKey(29, 30)


def test_frac_full_domain_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        a = rng.choice(SMALL_PRIMES)
        ks = [k for k in range(2, a) if gcd(k, a) == 1]
        if not ks:
            continue
        key = FractionalKey(a, rng.choice(ks))
        for x in range(2, a + 1):
            assert frac_decrypt(frac_encrypt([x], key), key) == [x]


def test_frac_fast_path_agrees_when_alpha_is_one_mod_k():
    key = FractionalKey(29, 7)  # 29 = 1 mod 7
    for x in range(2, 30):
        y = frac_encrypt([x], key)[0]
        assert frac_decrypt_fast_path([y], key) == [frac_decrypt([y], key)[0]]


def test_frac_fast_path_fails_somewhere_otherwise():
    key = FractionalKey(29, 3)  # 29 = 2 mod 3
    failures = []
    for x in range(2, 30):
        y = frac_encrypt([x], key)[0]
        got = frac_decrypt_fast_path([y], key)[0]
        if got != x:
            failures.append((x, y, got))
    assert failures, "published shortcut should fail for some letter"
    assert all(got is None or got != x for x, _, got in failures)


# --- zone cipher --------------------------------------------------------------------


def test_zone_worked_example():
    key = ZoneKey(29, 5, 3)
    assert zone_encrypt([7], key) == [(1, 1)]
    assert zone_decrypt([(1, 1)], key) == [7]


def test_zone_zero_zone():
    key = ZoneKey(29, 5, 3)
    (t, d), = zone_encrypt([1], key)
    assert t == 0
    assert zone_decrypt([(t, d)], key) == [1]


def test_zone_key_validation():
    with pytest.raises(ParameterError):
        ZoneKey(29, 6, 5)  # q not prime
    with pytest.raises(ParameterError):
        ZoneKey(29, 31, 2)  # q >= p
    with pytest.raises(ParameterError):
        ZoneKey(29, 5, 5)  # gcd(k, q) != 1


def test_zone_full_domain_round_trip():
    rng = random.Random(14)
    for _ in range(100):
        p = rng.choice([x for x in SMALL_PRIMES if x > 5])
        q = rng.choice([x for x in SMALL_PRIMES if x < p])
        ks = [k for k in range(1, 3 * q) if gcd(k, q) == 1]
        key = ZoneKey(p, q, rng.choice(ks))
        values = list(range(1, p + 1))
        assert zone_decrypt(zone_encrypt(values, key), key) == values


def test_zone_rejects_out_of_range():
    key = ZoneKey(29, 5, 3)
    with pytest.raises(ParameterError):
        zone_encrypt([0], key)
    with pytest.raises(ParameterError):
        zone_encrypt([30], key)


def test_zone_masked_labels_round_trip():
    clear = ZoneKey(29, 5, 3)
    masked = ZoneKey(29, 5, 3, zone_seed=11)
    values = list(range(1, 30))
    assert zone_decrypt(zone_encrypt(values, masked), masked) == values
    clear_zones = [z for z, _ in zone_encrypt(values, clear)]
    masked_zones = [z for z, _ in zone_encrypt(values, masked)]
    assert sorted(set(clear_zones)) == sorted(set(masked_zones))
    assert clear_zones != masked_zones  # seed 11 actually permutes


def test_zone_keys_differing_only_in_seed_interleave():
    keys = [ZoneKey(97, 7, 3, zone_seed=seed) for seed in (None, 1, 2, 11, 12345)]
    for value in range(1, 98):
        for key in keys:
            assert zone_decrypt(zone_encrypt([value], key), key) == [value]
    # one letter per zone: every seed gives its own labelling
    labellings = {tuple(z for z, _ in zone_encrypt(range(1, 98, 7), key)) for key in keys}
    assert len(labellings) == len(keys)


def test_zone_seeded_key_rejects_labels_outside_range():
    key = ZoneKey(29, 5, 3, zone_seed=11)
    for label in (-1, key.zone_count):
        with pytest.raises(ParameterError, match=rf"zone label {label} is outside"):
            zone_decrypt([(label, 1)], key)


def test_zone_round_trips_the_last_letters_of_a_huge_alphabet():
    p = 2**61 - 1
    key = ZoneKey(p, 3, 2)
    assert key.zone_count == 768614336404564651  # ceil(p / 3) in integers, not floats
    values = [p - 2, p - 1, p]  # p = 1 mod 3: the last zone holds p alone
    pairs = zone_encrypt(values, key)
    assert [z for z, _ in pairs] == [768614336404564649, 768614336404564649,
                                     768614336404564650]
    assert zone_decrypt(pairs, key) == values


def test_a_seeded_zone_key_counts_its_labels_against_the_work_budget(monkeypatch):
    monkeypatch.setattr(errors, "WORK_BUDGET", 1430)
    assert ZoneKey(10007, 7, 3, zone_seed=5).zone_count == 1430
    ZoneKey(10037, 7, 3)  # 1434 zones, unseeded: no table
    with pytest.raises(CeilingError, match="^shuffling the zone labels needs at least 1434 steps"):
        ZoneKey(10037, 7, 3, zone_seed=5)


def test_zone_key_shuffles_once(monkeypatch):
    shuffles = []
    shuffle = random.Random.shuffle

    def counting_shuffle(self, x):
        shuffles.append(1)
        shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
    key = ZoneKey(10007, 7, 3, zone_seed=5)
    values = random.Random(21).sample(range(1, 10008), 50)
    assert zone_decrypt(zone_encrypt(values, key), key) == values
    assert len(shuffles) == 1


# --- composite-keyed block cipher ------------------------------------------------------


# A tree evaluator with the semantics the normal form must keep: a product
# encrypts the letter in both systems and concatenates, a sum feeds each
# output letter of its first system through the second; decrypting inverts
# node by node and a product rejects halves that decrypt to different letters.
# A sum's parts list the terms of sum(...sum(t0,t1)...,tk).


def tree_arity(cipher):
    kind, *operands = cipher.parts
    if kind == "aff":
        return 1
    if kind == "prod":
        return sum(tree_arity(t) for t in operands)
    return math.prod(tree_arity(t) for t in operands)


def tree_encrypt_letter(cipher, x):
    kind, *operands = cipher.parts
    if kind == "aff":
        a, b = operands
        return [(a * x + b) % cipher.input_size]
    if kind == "prod":
        return [y for t in operands for y in tree_encrypt_letter(t, x)]
    ys = [x]
    for then in operands:
        ys = [y for u in ys for y in tree_encrypt_letter(then, u)]
    return ys


def tree_decrypt_letters(cipher, ys):
    kind, *operands = cipher.parts
    if kind == "aff":
        a, b = operands
        (y,) = ys
        return (y - b) * pow(a, -1, cipher.input_size) % cipher.input_size
    if kind == "prod":
        left, right = operands
        n = tree_arity(left)
        x = tree_decrypt_letters(left, ys[:n])
        if tree_decrypt_letters(right, ys[n:]) != x:
            raise ParameterError("inconsistent product ciphertext")
        return x
    for then in reversed(operands[1:]):
        n = tree_arity(then)
        ys = [tree_decrypt_letters(then, ys[i : i + n]) for i in range(0, len(ys), n)]
    return tree_decrypt_letters(operands[0], ys)


def tree_encrypt(values, key):
    block = key.block_length
    padded = list(values) + [0] * (-len(values) % block)
    return [y for i, x in enumerate(padded) for y in tree_encrypt_letter(key.coeffs[i % block], x)]


def tree_decrypt(cipher, key):
    """Decryption through the tree, without the range check on letters."""
    arities = [tree_arity(c) for c in key.coeffs]
    stream, per_block = list(cipher.values), sum(arities)
    if len(stream) % per_block:
        raise ParameterError(f"ciphertext length {len(stream)} is not a multiple of {per_block}")
    plain, pos = [], 0
    while pos < len(stream):
        for coeff, n in zip(key.coeffs, arities):
            plain.append(tree_decrypt_letters(coeff, stream[pos : pos + n]))
            pos += n
    if cipher.plain_length > len(plain):
        raise ParameterError("recorded plaintext length exceeds decrypted stream")
    return plain[: cipher.plain_length]


def _outcome(decrypt, cipher, key):
    try:
        return decrypt(cipher, key)
    except ParameterError as exc:
        return f"ParameterError: {exc}"


def _random_tree(rng, depth):
    if depth == 0:
        return AffineCipher(rng.choice([1, 3, 5, 7, 9, 11]), rng.randrange(26), 26)
    op = rng.choice([cipher_product, cipher_sum])
    return op(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _random_oracle_keys(rng):
    """Convolved affine keys up to degree 6x6, then polynomials of random trees."""
    for _ in range(40):
        size = rng.choice([26, 29])
        yield composite_cipher_keygen(
            random_affine_polynomial(size, rng.randrange(7), rng),
            random_affine_polynomial(size, rng.randrange(7), rng),
        )
    for _ in range(40):
        coeffs = [_random_tree(rng, rng.randrange(4)) for _ in range(rng.randrange(1, 4))]
        yield CipherPolynomial(coeffs)


def test_identity_sum_law():
    identity = AffineCipher(1, 0, 26)
    s = AffineCipher(3, 7, 26)
    composed, alone = CipherPolynomial([cipher_sum(identity, s)]), CipherPolynomial([s])
    letters = list(range(26))
    cipher = composite_cipher_encrypt(letters, alone)
    assert composite_cipher_encrypt(letters, composed) == cipher
    assert composite_cipher_decrypt(cipher, composed) == letters


def test_product_worked_example():
    key = CipherPolynomial([cipher_product(AffineCipher(1, 1, 26), AffineCipher(1, 2, 26))])
    assert composite_cipher_encrypt([0], key).values == (1, 2)
    assert composite_cipher_decrypt(CipherText((1, 2), 1), key) == [0]


def test_product_requires_same_alphabet():
    with pytest.raises(ParameterError):
        cipher_product(AffineCipher(1, 1, 26), AffineCipher(1, 1, 29))


def test_keygen_block_and_arity_bookkeeping():
    rng = random.Random(15)
    for _ in range(100):
        f = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        g = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        fg = composite_cipher_keygen(f, g)
        assert fg.degree == f.degree + g.degree
        per_block = sum(tree_arity(c) for c in fg.coeffs)
        msg = [rng.randrange(26) for _ in range(rng.randrange(1, 12))]
        ct = composite_cipher_encrypt(msg, fg)
        blocks = -(-len(msg) // fg.block_length)
        assert len(ct.values) == blocks * per_block
        assert composite_cipher_decrypt(ct, fg) == msg


@pytest.mark.parametrize("degree,letters", [(12, 24572), (14, 98300), (16, 393212)])
def test_a_key_block_over_the_work_budget_is_refused_before_lowering(
    monkeypatch, degree, letters
):
    """Two degree-d affine keys convolve to 2 * (2 + 4 + ... + 2^d) + 2^(d+1)
    letters per block: 12 fits the budget, 14 and 16 do not."""
    rng = random.Random(degree)
    f, g = (random_affine_polynomial(26, degree, rng) for _ in range(2))
    fg = composite_cipher_keygen(f, g)
    msg = [rng.randrange(26) for _ in range(3)]
    if letters <= errors.WORK_BUDGET:
        cipher = composite_cipher_encrypt(msg, fg)
        assert len(cipher.values) == letters
        assert composite_cipher_decrypt(cipher, fg) == msg
        return
    monkeypatch.setattr(composite_cipher, "_normal_form", None)  # lowering would fail
    refused = rf"lowering the key's letter ciphers needs at least {letters} steps"
    with pytest.raises(CeilingError, match=refused):
        composite_cipher_encrypt(msg, fg)
    with pytest.raises(CeilingError, match=refused):
        composite_cipher_decrypt(CipherText((0,) * letters, 1), fg)


def test_composite_decrypt_rejects_out_of_range_ciphertext():
    rng = random.Random(29)
    key = composite_cipher_keygen(
        random_affine_polynomial(29, 1, rng), random_affine_polynomial(29, 1, rng)
    )
    msg = [rng.randrange(29) for _ in range(6)]
    cipher = composite_cipher_encrypt(msg, key)
    assert composite_cipher_decrypt(cipher, key) == msg
    one = list(cipher.values)
    one[2] += 29
    corrupted = [
        ([y + 29 for y in cipher.values], 0),
        ([y - 145 for y in cipher.values], 0),
        (one, 2),
    ]
    for values, pos in corrupted:
        bad = CipherText(tuple(values), cipher.plain_length)
        with pytest.raises(ParameterError, match=rf"position {pos} is outside \[0, 29\)"):
            composite_cipher_decrypt(bad, key)


def test_composed_tree_round_trip():
    rng = random.Random(16)
    for _ in range(50):
        key = CipherPolynomial([_random_tree(rng, rng.randrange(1, 4))])
        xs = rng.sample(range(26), 5)
        assert composite_cipher_decrypt(composite_cipher_encrypt(xs, key), key) == xs


def test_normal_form_matches_the_tree_oracle_on_random_keys():
    rng = random.Random(31)
    for key in _random_oracle_keys(rng):
        assert [c.arity for c in key.coeffs] == [tree_arity(c) for c in key.coeffs]
        length = rng.randrange(0, 2 * key.block_length + 2)
        msg = [rng.randrange(key.input_size) for _ in range(length)]
        cipher = composite_cipher_encrypt(msg, key)
        assert list(cipher.values) == tree_encrypt(msg, key)
        assert composite_cipher_decrypt(cipher, key) == tree_decrypt(cipher, key) == msg


def test_normal_form_decrypt_rejects_what_the_tree_rejects():
    rng = random.Random(32)
    rejected = 0
    for key in _random_oracle_keys(rng):
        size = key.input_size
        msg = [rng.randrange(size) for _ in range(rng.randrange(1, 2 * key.block_length + 2))]
        for _ in range(5):
            values = list(composite_cipher_encrypt(msg, key).values)
            length = len(msg)
            for _ in range(rng.randrange(1, 4)):
                kind = rng.randrange(5)
                i = rng.randrange(len(values) + 1)
                if kind == 0 and i < len(values):
                    values[i] = rng.randrange(size)
                elif kind == 1 and i < len(values):
                    values[i] = rng.randrange(-2 * size, 3 * size)
                elif kind == 2 and i < len(values):
                    del values[i]
                elif kind == 3:
                    values.insert(i, rng.randrange(size))
                else:
                    length += rng.randrange(-1, 3)
            cipher = CipherText(tuple(values), max(length, 0))
            got = _outcome(composite_cipher_decrypt, cipher, key)
            if all(0 <= y < size for y in values):
                assert got == _outcome(tree_decrypt, cipher, key)
            else:
                assert got.startswith("ParameterError: ciphertext value") and "outside" in got
            rejected += isinstance(got, str)
    assert rejected > 200


def test_cipher_descriptor_round_trip():
    text = "poly[sum(aff(1,1,26),prod(aff(3,2,26),aff(5,0,26))),aff(7,7,26)]"
    assert parse_cipher_polynomial(text).descriptor() == text


def _nested_descriptor(depth):
    units = [a for a in range(1, 26) if gcd(a, 26) == 1]
    desc = "aff(1,0,26)"
    for i in range(depth):
        other = f"aff({units[i % len(units)]},{i % 26},26)"
        desc = f"prod({desc},{other})" if i % 2 else f"sum({other},{desc})"
    return desc


def test_deep_descriptor_is_a_format_error_in_linear_time():
    desc = _nested_descriptor(2000)
    start = time.perf_counter()
    with pytest.raises(FormatError, match="nested too deeply"):
        parse_cipher(desc)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_cipher, "aff(1,0,26)x", "unexpected 'x' after cipher descriptor"),
        (parse_cipher_polynomial, "poly[aff(1,1,26) x]", "unexpected 'x' in cipher polynomial"),
        (parse_cipher, "aff(1,2)", "bad affine descriptor 'aff(1,2)'"),
        (parse_cipher, "aff(1,2,26", "bad affine descriptor 'aff(1,2,26'"),
        (parse_cipher, "aff(+1,0,26)", "bad affine descriptor 'aff(+1,0,26)'"),
        (CipherText.from_text, "-1 3", "ciphertext must start with the plaintext length"),
        (CipherText.from_text, "2 1_0", "ciphertext must be whitespace-separated integers"),
        (monoid_cipher.key_from_text, "monoid-cipher v1 P=2_9 X=2 A=3",
         "monoid-cipher key record has a non-integer field"),
        (monoid_cipher.key_from_text, "monoid-cipher v1 P=29 X=2 A=3 X=3 Q=junk",
         "monoid-cipher key record field 'X=3' is unknown, repeated or lacks '='"),
        (monoid_cipher.key_from_text, "monoid-cipher v1 P=29 X=2 A=3 Q=junk",
         "monoid-cipher key record field 'Q=junk' is unknown, repeated or lacks '='"),
    ],
    ids=["trailing-x", "poly-trailing-x", "aff-arity", "aff-unclosed", "aff-plus",
         "negative-length", "underscore", "p-underscore", "repeated-x", "unknown-q"],
)
def test_a_malformed_text_is_refused_with_what_is_wrong(parse, text, message):
    with pytest.raises(FormatError) as refused:
        parse(text)
    assert str(refused.value) == message


def test_a_descriptor_reads_blanks_beside_its_commas():
    assert parse_cipher("aff( 3, 1 ,26 )").descriptor() == "aff(3,1,26)"


def test_900_deep_descriptor_parses_and_round_trips():
    text = f"poly[{_nested_descriptor(900)},aff(3,1,26)]"
    key = parse_cipher_polynomial(text)
    assert key.descriptor() == text
    again = parse_cipher_polynomial(text)
    assert key == again and hash(key) == hash(again) and {key: 1}[again] == 1
    message = [0, 7, 25, 13]
    assert composite_cipher_decrypt(composite_cipher_encrypt(message, key), key) == message


def test_key_deeper_than_the_recursion_limit_is_refused_not_crashed():
    depth = sys.getrecursionlimit() + 100
    system = AffineCipher(1, 0, 26)
    for i in range(depth):
        other = AffineCipher(3, i % 26, 26)
        system = cipher_product(system, other) if i % 2 else cipher_sum(other, system)
    key = CipherPolynomial([system, AffineCipher(5, 1, 26)])
    assert key.descriptor().count("aff(") == depth + 2 and hash(key) == hash(key)
    with pytest.raises(ParameterError, match="nested too deeply"):
        composite_cipher_encrypt([0, 7, 25, 13], key)


def test_keygen_memory_is_linear_in_the_descriptor_length():
    # coefficient m of fg nests up to 81 sums; a descriptor held by every
    # nested sum would keep ~80x more text than the key's own descriptor
    rng = random.Random(80)
    f, g = random_affine_polynomial(26, 80, rng), random_affine_polynomial(26, 80, rng)
    tracemalloc.start()
    try:
        key = composite_cipher_keygen(f, g)
        text = key.descriptor()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == composite_cipher_keygen(f, g).descriptor()
    assert retained < 16 * len(text)


# --- exponent cipher ----------------------------------------------------------------------


def test_monoid_cipher_worked_example():
    key = MonoidCipherKey(29, 2, (3,))
    assert monoid_encrypt([7], key) == [7]  # 3 * 2^7 = 384 = 7 mod 29
    assert monoid_decrypt([7], key) == [7]


def test_monoid_cipher_zero_exponent():
    key = MonoidCipherKey(29, 2, (3,))
    assert monoid_encrypt([0], key) == [3]
    assert monoid_decrypt([3], key) == [0]


def test_monoid_key_validation():
    with pytest.raises(ParameterError):
        MonoidCipherKey(30, 7, (1,))  # not prime
    with pytest.raises(ParameterError):
        MonoidCipherKey(29, 12, (1,))  # 12 has order 14 < 28 mod 29
    with pytest.raises(ParameterError):
        MonoidCipherKey(29, 2, (0,))


def test_monoid_cipher_round_trip_random_keys():
    rng = random.Random(17)
    primes = [p for p in SMALL_PRIMES if p >= 5]
    for _ in range(60):
        p = rng.choice(primes)
        key = monoid_keygen(p, rng, num_coefficients=rng.randrange(1, 6))
        msgs = [rng.randrange(0, p - 1) for _ in range(12)]
        assert monoid_decrypt(monoid_encrypt(msgs, key), key) == msgs


def _log_or_error(dlog, base, target, p):
    try:
        return dlog(base, target, p)
    except ParameterError:
        return ParameterError


def _exhaustive_logs(base, p):
    """discrete_log_exhaustive(base, t, p) for every t in [0, p) from one walk:
    the first exponent in [0, p-2] that hits t wins, and a t the walk misses
    raises."""
    logs = {}
    cur = 1
    for m in range(p - 1):
        logs.setdefault(cur, m)
        cur = cur * base % p
    return [logs.get(t, ParameterError) for t in range(p)]


def test_bsgs_matches_exhaustive_on_small_primes():
    # every base, primitive root or not, and every target below 300; the
    # one-walk table stands in for discrete_log_exhaustive, which is checked
    # against it at two random targets per base
    rng = random.Random(20)
    for p in range(2, 300):
        if not is_prime(p):
            continue
        for g in range(1, p):
            expected = _exhaustive_logs(g, p)
            for t in rng.sample(range(p), min(p, 2)):
                assert _log_or_error(discrete_log_exhaustive, g, t, p) == expected[t], (g, t, p)
            for t in range(p):
                assert _log_or_error(discrete_log_bsgs, g, t, p) == expected[t], (g, t, p)


def test_bsgs_matches_exhaustive_where_p_minus_1_has_a_high_power_of_2():
    # 640 = 2^7 * 5 and 768 = 2^8 * 3: up to eight base-2 digits per log
    # (257, with 256 = 2^8, is among the primes below 300 above)
    rng = random.Random(21)
    for p in (641, 769):
        for g in range(1, p):
            for t in rng.sample(range(p), 16):
                assert _log_or_error(discrete_log_bsgs, g, t, p) == \
                    _log_or_error(discrete_log_exhaustive, g, t, p), (g, t, p)


def test_bsgs_round_trips_at_the_benchmark_primes():
    # 999983 - 1 = 2 * 79 * 6329, 1000003 - 1 = 2 * 3 * 166667,
    # 1000033 - 1 = 2^5 * 3 * 11 * 947
    rng = random.Random(22)
    for p in (999983, 1000003, 1000033):
        key = monoid_keygen(p, rng, 8)
        msgs = [rng.randrange(p - 1) for _ in range(200)]
        cipher = monoid_encrypt(msgs, key)
        assert monoid_decrypt(cipher, key) == msgs
        for i in rng.sample(range(len(msgs)), 3):
            a = key.coefficients[i % len(key.coefficients)]
            target = cipher[i] * pow(a, -1, p) % p
            assert discrete_log_exhaustive(key.base, target, p) == msgs[i]


def test_a_plan_over_the_work_budget_is_refused_before_its_tables(monkeypatch):
    # 17179869263 - 1 = 2 * 8589934631: tables of 2 and isqrt(8589934630) + 1 entries
    monkeypatch.setattr(monoid_cipher, "_baby_steps", None)  # building one would fail
    with pytest.raises(CeilingError, match="plan for logs to 5 mod 17179869263 needs at "
                                           "least 92684 steps"):
        discrete_log_bsgs(5, 7, 17179869263)


def test_a_key_whose_plan_is_over_the_work_budget_is_refused_when_made(monkeypatch):
    monkeypatch.setattr(monoid_cipher, "_baby_steps", None)  # building a table would fail
    with pytest.raises(CeilingError, match="^the Pohlig-Hellman plan for logs to 5 mod "
                                           "17179869263 needs at least 92684 steps"):
        MonoidCipherKey(17179869263, 5, (1,))
    with pytest.raises(CeilingError, match="plan for logs to 258793550910 mod 1099511628443 "
                                           "needs at least 741458 steps"):
        monoid_keygen(1099511628443, random.Random(1), 3)


def test_monoid_keygen_counts_its_coefficients_before_drawing_any():
    assert len(monoid_keygen(29, random.Random(1), 65536).coefficients) == 65536
    rng = random.Random(1)
    with pytest.raises(CeilingError, match="^drawing monoid-cipher coefficients needs at least "
                                           "65537 steps"):
        monoid_keygen(29, rng, 65537)
    assert rng.getstate() == random.Random(1).getstate()


def test_bsgs_base_divisible_by_p_matches_exhaustive():
    # 0^0 = 1 is the only power of a base 0 mod p a unit target can reach
    for p in (2, 3, 5, 29, 97):
        for g in (0, p, 2 * p):
            for t in range(p):
                assert _log_or_error(discrete_log_bsgs, g, t, p) == \
                    _log_or_error(discrete_log_exhaustive, g, t, p), (g, t, p)
    assert discrete_log_bsgs(29, 1, 29) == 0
    assert discrete_log_bsgs(58, 1, 29) == 0
    with pytest.raises(ParameterError, match="5 is not a power of 0 mod 29"):
        discrete_log_bsgs(0, 5, 29)


def test_bsgs_rejects_a_modulus_that_is_not_prime():
    for p in (0, 1, 4, 9, 15, 21, 25, 27, 33):
        for g in range(max(p, 2)):
            for t in range(max(p, 2)):
                with pytest.raises(ParameterError):
                    discrete_log_bsgs(g, t, p)


def test_bsgs_interleaved_over_primes_and_bases():
    from compalg.arith import is_primitive_root

    primes = (5, 7, 29, 97, 101)
    bases = {p: [g for g in range(2, p) if is_primitive_root(g, p)][:3] for p in primes}
    bases[29] += [2 + 29, 2 + 2 * 29]  # >= p and equal to 2 mod 29
    rng = random.Random(18)
    for _ in range(2000):
        p = rng.choice(primes)
        g = rng.choice(bases[p])
        target = rng.randrange(1, p)
        assert discrete_log_bsgs(g, target, p) == discrete_log_exhaustive(g, target, p), (g, target, p)


def test_monoid_decrypt_builds_one_dlog_plan_per_key():
    from compalg.ciphers.monoid_cipher import _plan

    rng = random.Random(19)
    key = monoid_keygen(1000003, rng, 8)
    msgs = [rng.randrange(key.alphabet_size - 1) for _ in range(50)]
    cipher = monoid_encrypt(msgs, key)
    _plan.cache_clear()
    assert monoid_decrypt(cipher, key) == msgs
    info = _plan.cache_info()
    assert (info.misses, info.hits) == (1, 49)


def test_monoid_keygen_factors_p_minus_1_once(monkeypatch):
    from compalg import arith

    calls = []
    factorize = arith.factorize

    def counting_factorize(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counting_factorize)
    arith.prime_factors.cache_clear()
    rng = random.Random(23)
    keys = [monoid_keygen(1009, rng, 4) for _ in range(50)]
    assert all(is_primitive_root(key.base, 1009) for key in keys)
    assert calls == [1008]


def test_monoid_keygen_checks_primality_at_most_twice(monkeypatch):
    from compalg import arith
    from compalg.ciphers import monoid_cipher

    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    monkeypatch.setattr(monoid_cipher, "is_prime", counting_is_prime)
    rng = random.Random(7)
    primes = [p for p in range(5, 98) if is_prime(p)]
    per_keygen = []
    for i in range(50):
        before = len(calls)
        monoid_keygen(primes[i % len(primes)], rng, 4)
        per_keygen.append(len(calls) - before)
    assert max(per_keygen) <= 2, per_keygen


def test_monoid_decrypt_rejects_out_of_range_ciphertext():
    key = MonoidCipherKey(29, 2, (3, 5))
    assert monoid_decrypt([3, 5 * 2 % 29], key) == [0, 1]
    for bad in (-5, 0, 29, 1000):
        with pytest.raises(ParameterError, match=rf"{bad} at position 1 is outside \[1, 29\)"):
            monoid_decrypt([7, bad], key)


def test_dlog_of_zero_is_an_error():
    with pytest.raises(ParameterError):
        discrete_log_bsgs(2, 0, 29)


# --- stated domains -----------------------------------------------------------

RSA = rsa_keygen(ideal(3), ideal(11), ideal(3))
MONOID = MonoidCipherKey(29, 2, (3, 5))
AFFINE = CipherPolynomial([AffineCipher(3, 1, 26)])
FRAC = FractionalKey(29, 7)
ZONE = ZoneKey(29, 5, 3)


def _cc_encrypt(values):
    return list(composite_cipher_encrypt(values, AFFINE).values)


def _cc_decrypt(values):
    return composite_cipher_decrypt(CipherText(tuple(values), len(values)), AFFINE)


# one row per cipher and direction: the range the key states, the range it
# must be, the word naming the input, the direction and its inverse
DOMAINS = {
    "rsa-encrypt": (RSA.messages, range(0, 20), "message",
                    lambda v: rsa_encrypt(v, RSA), lambda v: rsa_decrypt(v, RSA)),
    "rsa-decrypt": (RSA.ciphertexts, range(0, 20), "ciphertext",
                    lambda v: rsa_decrypt(v, RSA), lambda v: rsa_encrypt(v, RSA)),
    "monoid-encrypt": (MONOID.messages, range(0, 28), "message",
                       lambda v: monoid_encrypt(v, MONOID), lambda v: monoid_decrypt(v, MONOID)),
    "monoid-decrypt": (MONOID.ciphertexts, range(1, 29), "ciphertext",
                       lambda v: monoid_decrypt(v, MONOID), lambda v: monoid_encrypt(v, MONOID)),
    "compcipher-encrypt": (AFFINE.messages, range(0, 26), "message", _cc_encrypt, _cc_decrypt),
    "compcipher-decrypt": (AFFINE.ciphertexts, range(0, 26), "ciphertext",
                           _cc_decrypt, _cc_encrypt),
    "frac-encrypt": (FRAC.messages, range(2, 30), "message",
                     lambda v: frac_encrypt(v, FRAC), lambda v: frac_decrypt(v, FRAC)),
    "frac-decrypt": (FRAC.ciphertexts, range(0, 29), "ciphertext",
                     lambda v: frac_decrypt(v, FRAC), lambda v: frac_encrypt(v, FRAC)),
    "frac-fast-path": (FRAC.ciphertexts, range(0, 29), "ciphertext",
                       lambda v: frac_decrypt_fast_path(v, FRAC), lambda v: frac_encrypt(v, FRAC)),
    "zone-encrypt": (ZONE.messages, range(1, 30), "message",
                     lambda v: zone_encrypt(v, ZONE), lambda v: zone_decrypt(v, ZONE)),
    "zone-decrypt": (ZONE.digits, range(1, 6), "digit",
                     lambda v: zone_decrypt([(0, d) for d in v], ZONE),
                     lambda v: [d for _, d in zone_encrypt(v, ZONE)]),
}


def _refusal(call, *args) -> str:
    with pytest.raises(ParameterError) as refused:
        call(*args)
    return str(refused.value)


@pytest.mark.parametrize("stated,domain,what,run,back", DOMAINS.values(), ids=DOMAINS.keys())
def test_each_cipher_checks_the_domain_its_key_states(stated, domain, what, run, back):
    assert stated == domain
    ends = [domain.start, domain.stop - 1]
    assert back(run(ends)) == ends
    bounds = f"[{domain.start}, {domain.stop})"
    for bad in (domain.start - 1, domain.stop):
        message = _refusal(run, [domain.start, bad])
        assert message == f"{what} value {bad} at position 1 is outside {bounds}"


def test_frac_refuses_the_ciphertext_no_letter_encrypts_to():
    # y = k would decode to 1, below the message range [2, |A|]
    message = _refusal(frac_decrypt, [0, FRAC.k], FRAC)
    assert message == "decoded value 1 at position 1 is outside [2, 30)"


def test_zone_refuses_a_pair_past_the_last_letter():
    # zone 5 of q = 5 holds 26..30, and 30 is past p = 29
    message = _refusal(zone_decrypt, [(0, 1), (5, 5)], ZONE)
    assert message == "decoded value 30 at position 1 is outside [1, 30)"


def test_composite_key_record_round_trips():
    f = parse_cipher_polynomial("poly[aff(3,1,26),sum(aff(5,2,26),aff(7,0,26))]")
    g = parse_cipher_polynomial("poly[aff(1,0,26)]")
    text = composite_cipher.key_to_text(f, g)
    assert text == f"composite-cipher v1 S=26 F={f.descriptor()} G={g.descriptor()}"
    assert composite_cipher.key_from_text(text) == (f, g)


def test_composite_key_record_refuses_a_size_beside_f_and_g():
    text = "composite-cipher v1 S=27 F=poly[aff(1,1,26)] G=poly[aff(3,0,26)]"
    message = _refusal(composite_cipher.key_from_text, text)
    assert message == "key record S=27 is not the input size of F and G"
