"""Canonical text forms round-trip through parse and format."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compalg import FormatError, IntegersMod, PrimeField, default_extension_field
from compalg.errors import read_int
from compalg.textio import (
    composite_text,
    ideal_text,
    monoid_element_text,
    monoid_text,
    parse_composite,
    parse_element,
    parse_ideal,
    parse_monoid,
    parse_monoid_element,
    parse_poly,
    parse_ring,
    parse_tower,
    poly_text,
    short_ring_name,
    tower_text,
)


@pytest.mark.parametrize(
    "name, ring",
    [
        ("Z", None),
        ("Z/12", IntegersMod(12)),
        ("F5", PrimeField(5)),
        ("F4", default_extension_field(2, 2)),
        ("F(4)=F2[t]/(t^2+t+1)", default_extension_field(2, 2)),
        ("F9", default_extension_field(3, 2)),
    ],
)
def test_ring_names_parse(name, ring):
    parsed = parse_ring(name)
    if ring is not None:
        assert parsed == ring
    assert parse_ring(parsed.name()) == parsed


def test_short_names():
    assert short_ring_name(default_extension_field(2, 2)) == "F4"
    assert short_ring_name(PrimeField(7)) == "F7"
    assert short_ring_name(IntegersMod(9)) == "Z/9"


@pytest.mark.parametrize("bad", ["F6", "Q", "Z/x", ""])
def test_bad_ring_names(bad):
    with pytest.raises(FormatError):
        parse_ring(bad)


def test_reducible_modulus_in_ring_name_is_a_parameter_error():
    from compalg import ParameterError

    with pytest.raises(ParameterError):
        parse_ring("F(4)=F2[t]/(t^2)")


@pytest.mark.parametrize(
    "text",
    ["F5:[1,0,2]", "Z/4:[1,2]", "Z:[-1,0,3]", "F4:[1,t]", "F4:[1+t,0,t]"],
)
def test_poly_round_trip(text):
    f = parse_poly(text)
    again = parse_poly(poly_text(f))
    assert again == f


def test_element_text():
    e = parse_element("F4:1+t")
    assert e.value == (1, 1)
    assert parse_element("Z/12:6").value == 6


def test_tower_round_trip():
    t = parse_tower("F2<F2<F4")
    assert tower_text(t) == "F2<F2<F4"
    assert t.depth == 2


def test_composite_round_trip():
    e = parse_composite("F2<F4:[1,t]")
    assert composite_text(e) == "F2<F4:[1,t]"


def test_monoid_round_trip():
    m = parse_monoid("M<2,3>")
    assert monoid_text(m) == "M<2,3>"
    e = parse_monoid_element("F5:M<2,3>:{2:1,3:4}")
    assert monoid_element_text(e) == "F5:M<2,3>:{2:1,3:4}"
    z = parse_monoid_element("Z:M<2,3>:{2:-1,3:2}")
    assert monoid_element_text(z) == "Z:M<2,3>:{2:-1,3:2}"


def test_ideal_round_trip():
    assert ideal_text(parse_ideal("(15)")) == "(15)"


@pytest.mark.parametrize(
    "parser, bad",
    [
        (parse_poly, "F5:1,2"),
        (parse_monoid, "M<>"),
        (parse_monoid, "M<0>"),
        (parse_ideal, "(x)"),
        (parse_monoid_element, "F5:M<2,3>:{1:1}"),  # 1 outside the monoid
        (parse_composite, "F2<F4:[t]"),  # constant outside the base level
    ],
)
def test_bad_forms_raise(parser, bad):
    from compalg.errors import CompalgError

    with pytest.raises(CompalgError):
        parser(bad)


def _spelled(text):
    """The n with str(n) == text, or None."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


@given(
    st.one_of(
        st.integers().map(str),
        st.integers().map(lambda n: f"{n:_}"),
        st.text(alphabet="0123456789-+_ \t\u0663\u0664\uff11x", max_size=8),
    ),
    st.booleans(),
)
def test_read_int_reads_an_integer_only_as_str_spells_it(text, signed):
    n = _spelled(text)
    if n is not None and (signed or n >= 0):
        assert read_int(text, "bad", signed) == n
    else:
        with pytest.raises(FormatError, match="^bad$"):
            read_int(text, "bad", signed)


def test_read_int_refuses_more_digits_than_the_interpreter_converts():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert read_int("7" * 5000, "long") == int("7" * 5000)
        with pytest.raises(FormatError, match="^long$"):
            read_int("7" * 5001, "long")
    finally:
        sys.set_int_max_str_digits(limit)
