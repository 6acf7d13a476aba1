from fractions import Fraction

import pytest

from holant import GaussianRational, InvalidArgumentError, ONE, ZERO, format_value, parse_value
from holant.values import parse_rational


def test_arithmetic_real():
    a = GaussianRational(Fraction(3, 4))
    b = GaussianRational(Fraction(1, 4))
    assert a + b == 1
    assert a - b == Fraction(1, 2)
    assert a * b == Fraction(3, 16)
    assert a / b == 3
    assert a ** 3 == Fraction(27, 64)


def test_arithmetic_complex():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    w = GaussianRational(Fraction(2), Fraction(-1, 3))
    assert (z * w).re == Fraction(1, 2) * 2 - Fraction(1, 3) * Fraction(-1, 3)
    assert (z / w) * w == z
    assert z.conjugate().im == -z.im
    assert (z ** 4) == z * z * z * z


def test_zero_one_predicates():
    assert not ZERO
    assert ONE
    assert ZERO == 0 and ONE == 1
    assert GaussianRational(0, 1) != 0


def test_as_fraction_guard():
    assert GaussianRational(Fraction(2, 3)).as_fraction() == Fraction(2, 3)
    with pytest.raises(InvalidArgumentError):
        GaussianRational(1, 1).as_fraction()


def test_ordering_only_for_real():
    assert GaussianRational(1) < GaussianRational(2)
    with pytest.raises(InvalidArgumentError):
        _ = GaussianRational(0, 1) < GaussianRational(1)


@pytest.mark.parametrize("token,re_, im_", [
    ("3", 3, 0),
    ("-3/4", Fraction(-3, 4), 0),
    ("1/2+3/4i", Fraction(1, 2), Fraction(3, 4)),
    ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
    ("0+1i", 0, 1),
    ("-2/5 - 1/5i", Fraction(-2, 5), Fraction(-1, 5)),
])
def test_parse_value(token, re_, im_):
    v = parse_value(token)
    assert v.re == re_ and v.im == im_


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/", "1//2", "1+i", "1 + ", "i", "1/0", "1+2/0i"):
        with pytest.raises(InvalidArgumentError):
            parse_value(bad)


@pytest.mark.parametrize("text", [
    "1/2", " -3/4 ", "+3", "1.5", "-1.5e-3", "1E+5", ".5", "5.", "1_000/3_0", "+.5E-0_1", "00/01",
    "", "abc", "1/ 2", "1.5/2", "1e", "_1", "1__0", "1.d", "--1", "1/0", "0/0",
])
def test_parse_rational_takes_the_forms_fraction_takes(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            parse_rational(text)
    else:
        assert parse_rational(text) == want


def test_parse_rational_of_any_length():
    big = "7" * 5000
    assert parse_rational(f"-{big}/3") == -parse_value(big).re / 3
    assert parse_rational(f"0.{big}") * 10 ** 5000 == parse_value(big).re
    for bad in (big + "x", f"{big}/0"):
        with pytest.raises((ValueError, ZeroDivisionError)) as exc:
            parse_rational(bad)
        assert len(str(exc.value)) < 100


def test_format_round_trip():
    samples = [
        GaussianRational(Fraction(3, 7)),
        GaussianRational(-2),
        GaussianRational(Fraction(1, 2), Fraction(-5, 9)),
        GaussianRational(0, Fraction(2, 3)),
        ZERO,
    ]
    for v in samples:
        assert parse_value(format_value(v)) == v


def test_hash_consistency():
    assert hash(GaussianRational(Fraction(4, 2))) == hash(GaussianRational(2))
    d = {GaussianRational(1, 2): "a"}
    assert d[GaussianRational(1, 2)] == "a"
