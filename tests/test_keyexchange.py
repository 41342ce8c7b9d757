"""Protocol harness: determinism, replay, and secret non-leakage."""

import random
import time

import pytest

from compalg import ParameterError, ideal
from compalg.ciphers import DhParams, parse_cipher_polynomial, random_affine_polynomial
from compalg.keyexchange import (
    replay_composite_agreement,
    replay_dh,
    run_composite_agreement,
    run_dh,
)

PARAMS = DhParams(ideal(7), ideal(10))


def test_fixed_seeds_give_byte_identical_transcripts():
    a = run_dh(PARAMS, seed_first=1, seed_second=2).transcript.serialize()
    b = run_dh(PARAMS, seed_first=1, seed_second=2).transcript.serialize()
    assert a == b


def test_worked_example_shared_ideal():
    run = run_dh(PARAMS, secret_first=3, secret_second=4)
    assert run.exchange.shared_first == ideal(1)
    assert run.transcript.digests_equal()


def test_explicit_secrets_never_appear_in_transcript():
    run = run_dh(PARAMS, secret_first=3, secret_second=4)
    payloads = [e.payload for e in run.transcript.entries]
    assert payloads == ["A=(2)", "B=(5)"]
    for secret_ideal in (repr(ideal(3)), repr(ideal(4)), repr(ideal(1))):
        for payload in payloads:
            assert not payload.endswith(secret_ideal)
    serialized = run.transcript.serialize()
    assert repr(run.exchange.shared_first) not in serialized


def test_dh_random_runs_always_agree():
    rng = random.Random(21)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 17])
        g = rng.randrange(p + 1, 5 * p)
        run = run_dh(
            DhParams(ideal(p), ideal(g)),
            seed_first=rng.randrange(2**30),
            seed_second=rng.randrange(2**30),
        )
        assert run.transcript.digests_equal()


def test_dh_replay_round_trip():
    text = run_dh(PARAMS, seed_first=5, seed_second=6).transcript.serialize()
    assert replay_dh(text, seed_first=5, seed_second=6)
    assert not replay_dh(text, seed_first=5, seed_second=7)


def test_dh_needs_secrets_or_seeds():
    with pytest.raises(ParameterError):
        run_dh(PARAMS, seed_first=1)


def test_agreement_descriptors_match():
    rng = random.Random(22)
    for _ in range(100):
        f = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        g = random_affine_polynomial(26, rng.randrange(0, 4), rng)
        run = run_composite_agreement(f, g)
        assert run.agreed
        assert run.key_first.descriptor() == run.key_second.descriptor()


def test_degree_18_agreement_builds_descriptors_not_letter_maps():
    # coefficient 18 of fg composes 19 products, so its normal form has
    # 2**19 maps; agreement compares descriptors and must never build them
    rng = random.Random(18)
    f, g = random_affine_polynomial(26, 18, rng), random_affine_polynomial(26, 18, rng)
    start = time.perf_counter()
    run = run_composite_agreement(f, g)
    assert time.perf_counter() - start < 1.0
    assert run.agreed and run.key_first == run.key_second


def test_agreement_transcript_hides_the_polynomials():
    f = parse_cipher_polynomial("poly[aff(3,1,26),aff(5,2,26)]")
    g = parse_cipher_polynomial("poly[aff(7,0,26)]")
    run = run_composite_agreement(f, g)
    text = run.transcript.serialize()
    assert "aff(" not in text
    assert run.key_first.descriptor() not in text


def test_agreement_replay():
    f = parse_cipher_polynomial("poly[aff(3,1,26)]")
    g = parse_cipher_polynomial("poly[aff(5,4,26)]")
    text = run_composite_agreement(f, g).transcript.serialize()
    assert replay_composite_agreement(text, f, g)
    assert not replay_composite_agreement(text, g, f)


def test_agreement_surfaces_alphabet_mismatch_in_transcript():
    f = parse_cipher_polynomial("poly[aff(1,1,26)]")
    g = parse_cipher_polynomial("poly[aff(1,1,29)]")
    run = run_composite_agreement(f, g)
    assert not run.agreed
    assert run.transcript.error is not None
    assert "error" in run.transcript.serialize().splitlines()[-1]
