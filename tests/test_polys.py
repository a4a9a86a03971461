from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf.errors import InputError
from fansheaf.fans import load_fan
from fansheaf.minimal import build_minimal
from fansheaf.modules import ConeRing, restriction
from fansheaf.polys import degree, format_poly, monomials, parse_poly

from brute_oracle import linear_images, substitute
from conftest import fan_path


def test_degree_grading():
    x = {(1, 0, 0): 1}
    assert degree({(0, 0, 0): 5}) == 0
    assert degree(x) == 2
    assert degree({(1, 2, 0): Fraction(1)}) == 6
    assert degree({}) is None
    with pytest.raises(ValueError):
        degree({**x, (0, 0, 0): 1})


def test_substitute_linear():
    # restriction of x+y along the map t -> (t, t): value 2t
    t = {(1,): 1}
    f = {(1, 0): 1, (0, 1): 1}
    assert substitute(f, [t, t], 1) == {(1,): 2}
    # quadratic: (x*y) under x->t, y->2t gives 2t^2
    r = substitute({(1, 1): 1}, [t, {(1,): 2}], 1)
    assert r == {(2,): Fraction(2)}
    # the plane's restriction to the ray through (1, 2) is that map
    plane = ConeRing("A", 2, ((1, 0), (0, 1)))
    ray = ConeRing(1, 1, ((1, 2),))
    assert linear_images(plane, ray) == (t, {(1,): 2})


def test_polynomials_are_term_dicts():
    """Coefficients are int where integral and Fraction otherwise, the
    rule of _linalg's sparse rows, from the parser to the built maps."""
    p = parse_poly("2 t1 + 1/2 t2", 2)
    assert p == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(p[(1, 0)]) is int
    merged = parse_poly("t1 + 3/2 t1 - 1/2 t1", 2)
    assert merged == {(1, 0): 2} and type(merged[(1, 0)]) is int
    plane = ConeRing("A", 2, ((1, 0), (0, 1)))
    images = restriction(plane, ConeRing(1, 1, ((2, 1),)))
    assert images == (((0, 2),), ((0, 1),))
    wide = ConeRing(2, 2, ((2, 0), (0, 1)))
    half = restriction(wide, ConeRing(1, 1, ((1, 0),)))
    assert half == (((0, Fraction(1, 2)),), ())
    same = restriction(wide, ConeRing(3, 2, ((2, 0), (0, 1))))
    assert same == (((0, 1),), ((1, 1),))
    for form in images + half + same:
        for j, c in form:
            assert type(j) is int
            assert type(c) is int or c.denominator != 1
    M = build_minimal(load_fan(fan_path("cubefan")))
    coefficients = [
        c
        for pm in M.maps.values()
        for p in pm.entries.values()
        for c in p.values()
    ]
    assert coefficients
    assert all(type(c) is int for c in coefficients if c == int(c))


def test_monomials_counts():
    assert monomials(2, 0) == ((0, 0),)
    assert monomials(2, 2) == ((0, 1), (1, 0))
    assert len(monomials(3, 4)) == 6
    assert monomials(2, 3) == ()
    assert monomials(2, -2) == ()
    assert monomials(0, 0) == ((),)
    assert monomials(0, 2) == ()


def test_format_and_parse_round_trip():
    p = {
        (2, 1, 0): Fraction(-3, 2),
        (0, 0, 1): Fraction(1),
        (0, 0, 0): Fraction(5),
    }
    txt = format_poly(p)
    assert txt == "5 + t3 - 3/2 t1^2 t2"
    assert parse_poly(txt, 3) == p
    assert parse_poly("0", 2) == {}
    assert format_poly({}) == "0"
    assert parse_poly("-t1 + t1", 1) == {}
    assert parse_poly("+ 2 t1", 2) == {(1, 0): 2}


def test_parse_poly_coefficient_types():
    """Integer tokens are read as int, and every other number token
    Fraction accepts keeps its value."""
    p = parse_poly("2 t1^2 - 3 t1 t2 + 1_000 t2^2 + t1 - 7", 2)
    assert p == {(2, 0): 2, (1, 1): -3, (0, 2): 1000, (1, 0): 1, (0, 0): -7}
    assert all(type(c) is int for c in p.values())
    q = parse_poly("3/2 t1 + 1.5 t2 + 1e3", 2)
    assert q == {(1, 0): Fraction(3, 2), (0, 1): Fraction(3, 2), (0, 0): 1000}
    assert type(q[(1, 0)]) is Fraction and type(q[(0, 0)]) is int


@pytest.mark.parametrize(
    "text",
    [
        "t9", "x", "t1^y", "tz", "2 3 t1", "1/0",
        # a sign after a sign or at the end, a caret with no exponent
        "t2 - - t1", "t1^", "t2 + t1 +", "t1^-1", "0x10",
    ],
)
def test_parse_poly_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_poly(text, 2)


coef = st.fractions(min_value=-9, max_value=9, max_denominator=4)
exps = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys2 = st.dictionaries(exps, coef, max_size=5).map(
    lambda d: {e: c for e, c in d.items() if c != 0}
)


@settings(max_examples=100, deadline=None)
@given(p=polys2)
def test_parse_format_inverse(p):
    assert parse_poly(format_poly(p), 2) == p
