from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf.errors import InputError
from fansheaf.modules import ConeRing, restriction
from fansheaf.polys import Poly, format_poly, monomials, parse_poly

from brute_oracle import substitute


def test_arithmetic_basics():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x + y.scale(-1)
    assert p == Poly.linear(2, [1, -1])
    assert p.degree() == 2
    assert (p + p.scale(-1)).is_zero()
    assert p.scale(0).is_zero()
    assert Poly.const(2, 0).is_zero()


def test_degree_grading():
    x = Poly.variable(3, 0)
    assert Poly.const(3, 5).degree() == 0
    assert x.degree() == 2
    assert Poly(3, {(1, 2, 0): Fraction(1)}).degree() == 6
    assert Poly(3).degree() is None
    with pytest.raises(ValueError):
        (x + Poly.const(3, 1)).degree()


def test_substitute_linear():
    # restriction of x+y along the map t -> (t, t): value 2t
    t = Poly.variable(1, 0)
    f = Poly.linear(2, [1, 1])
    assert substitute(f.terms, [t.terms, t.terms], 1) == t.scale(2).terms
    # quadratic: (x*y) under x->t, y->2t gives 2t^2
    r = substitute({(1, 1): 1}, [t.terms, t.scale(2).terms], 1)
    assert r == {(2,): Fraction(2)}
    # the plane's restriction to the ray through (1, 2) is that map
    plane = ConeRing("A", 2, ((1, 0), (0, 1)))
    ray = ConeRing(1, 1, ((1, 2),))
    assert restriction(plane, ray) == (t, t.scale(2))


def test_monomials_counts():
    assert monomials(2, 0) == ((0, 0),)
    assert monomials(2, 2) == ((0, 1), (1, 0))
    assert len(monomials(3, 4)) == 6
    assert monomials(2, 3) == ()
    assert monomials(2, -2) == ()
    assert monomials(0, 0) == ((),)
    assert monomials(0, 2) == ()


def test_format_and_parse_round_trip():
    p = Poly(
        3,
        {
            (2, 1, 0): Fraction(-3, 2),
            (0, 0, 1): Fraction(1),
            (0, 0, 0): Fraction(5),
        },
    )
    txt = format_poly(p)
    assert txt == "5 + t3 - 3/2 t1^2 t2"
    assert parse_poly(txt, 3) == p
    assert parse_poly("0", 2).is_zero()
    assert format_poly(Poly(2)) == "0"
    assert parse_poly("-t1 + t1", 1).is_zero()


@pytest.mark.parametrize("text", ["t9", "x", "t1^y", "tz", "2 3 t1", "1/0"])
def test_parse_poly_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_poly(text, 2)


coef = st.fractions(min_value=-9, max_value=9, max_denominator=4)
exps = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys2 = st.dictionaries(exps, coef, max_size=5).map(
    lambda d: Poly(2, {e: c for e, c in d.items() if c != 0})
)


@settings(max_examples=100, deadline=None)
@given(p=polys2)
def test_parse_format_inverse(p):
    assert parse_poly(format_poly(p), 2) == p
