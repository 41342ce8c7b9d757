"""Letter-value codec and representative lifts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compalg import (
    Alphabet,
    ParameterError,
    decode,
    encode,
    seeded_lifts,
    upper_latin,
)

AZ = upper_latin()


def test_zero_picker_encoding():
    assert encode("ABACAB", AZ) == [0, 1, 0, 2, 0, 1]


def test_lifted_encoding():
    assert encode("ABACAB", AZ, [0, 0, 1, 2, 1, 2]) == [0, 1, 26, 54, 26, 53]


@pytest.mark.parametrize(
    "lifts", [[0, 1], [0, 0, 0, 0], [0, -1, 0]], ids=["short", "long", "negative"]
)
def test_bad_lifts_are_refused(lifts):
    with pytest.raises(ParameterError):
        encode("ABC", AZ, lifts)


def test_seeded_lifts_draw_in_order():
    assert seeded_lifts(4, 9, 5) == seeded_lifts(4, 9, 8)[:5]
    assert all(0 <= k <= 9 for k in seeded_lifts(4, 9, 100))


def test_empty_text():
    assert encode("", AZ) == []


def test_decode_lifted_values():
    assert decode([0, 1, 26, 54, 26, 53], AZ) == "ABACAB"
    assert decode([25], AZ) == "Z"
    assert decode([52], AZ) == "A"


def test_unknown_character():
    with pytest.raises(ParameterError):
        encode("a", AZ)


def test_ceiling_enforced():
    with pytest.raises(ParameterError, match="encoded value 260 exceeds ceiling 100"):
        encode("A", AZ, [10], ceiling=100)
    assert encode("A", AZ, [10], ceiling=260) == [260]


def test_no_ceiling_by_default():
    assert encode("A", AZ, [70000]) == [1820000]


def test_prime_length_flag():
    assert Alphabet("ABC").has_prime_length
    assert not AZ.has_prime_length


def test_duplicate_symbols_rejected():
    with pytest.raises(ParameterError):
        Alphabet("ABA")


@pytest.mark.parametrize("symbols", [["AB", "C", "D"], ["A", ""]], ids=["two", "empty"])
def test_symbols_are_single_characters(symbols):
    with pytest.raises(ParameterError):
        Alphabet(symbols)


@given(
    st.text(alphabet=[chr(ord("A") + i) for i in range(26)], max_size=40),
    st.integers(0, 2**16),
)
def test_round_trip_under_any_picker(text, seed):
    assert decode(encode(text, AZ, seeded_lifts(seed, 2**10, len(text))), AZ) == text


@given(st.lists(st.integers(0, 10**9), max_size=30))
def test_decode_reads_residues(values):
    out = decode(values, AZ)
    assert len(out) == len(values)
    for ch, v in zip(out, values):
        assert AZ.index(ch) == v % 26
