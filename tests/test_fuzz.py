"""Bounded fuzzing of the three text parsers.

Inputs are the corpus fan files and the serialized complexes (the
goldens and the format-1 fixtures) with a few random edits (a
character, a number, a whole line), and format/parse round trips of
random polynomials.  Every input must give
InputError or a valid object: a fan or complex whose canonical text
parses back to the same text, a complex that passes check_complex, a
polynomial that format_poly and parse_poly carry unchanged.  Any other
exception is a finding.
"""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fansheaf.complexes import (
    FanComplex,
    check_complex,
    complex_from_text,
    complex_to_text,
)
from fansheaf.errors import InputError
from fansheaf.fans import Fan, parse_fan
from fansheaf.polys import format_poly, parse_poly

HERE = Path(__file__).resolve().parent
FANS = sorted((HERE.parent / "data" / "fans").glob("*.fan"))
# the format-2 goldens and the complexes kept in format 1
COMPLEXES = sorted((HERE / "golden").glob("*.complex")) + sorted(
    (HERE / "format1").glob("*.complex")
)
TEXTS = {p.name: p.read_text() for p in FANS + COMPLEXES}
# the formats' punctuation and digits, and letters of their keywords
CHARS = "0123456789 -+/:^#\nt" + "acdeimnorswx"
NUMBER = re.compile(r"-?\d+")
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edit(draw, text):
    """One random edit of a text."""
    lines = text.split("\n")
    kind = draw(
        st.sampled_from(
            ["delete", "insert", "replace", "number", "drop", "copy", "swap"]
        )
    )
    if kind == "number":
        spans = [m.span() for m in NUMBER.finditer(text)]
        if spans:
            a, b = draw(st.sampled_from(spans))
            n = draw(st.integers(min_value=-12, max_value=12))
            return text[:a] + str(n) + text[b:]
        kind = "insert"
    if kind in ("delete", "replace") and text:
        i = draw(st.integers(min_value=0, max_value=len(text) - 1))
        new = draw(st.sampled_from(CHARS)) if kind == "replace" else ""
        return text[:i] + new + text[i + 1:]
    if kind in ("delete", "replace", "insert"):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        return text[:i] + draw(st.sampled_from(CHARS)) + text[i:]
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "copy":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    else:
        j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


@st.composite
def mutated(draw, paths):
    text = TEXTS[draw(st.sampled_from(paths)).name]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        text = draw(edit(text))
    return text


@FUZZ
@given(text=mutated(FANS))
def test_parse_fan_gives_input_error_or_fan(text):
    try:
        fan = parse_fan(text)
    except InputError:
        return
    assert isinstance(fan, Fan)
    canonical = fan.to_text()
    assert parse_fan(canonical).to_text() == canonical


@FUZZ
@given(text=mutated(COMPLEXES))
def test_complex_from_text_gives_input_error_or_complex(text):
    try:
        M = complex_from_text(text)
    except InputError:
        return
    assert isinstance(M, FanComplex)
    assert check_complex(M) == []
    canonical = complex_to_text(M)
    assert complex_to_text(complex_from_text(canonical)) == canonical


@FUZZ
@given(text=mutated(COMPLEXES))
def test_unvalidated_complex_reports_instead_of_raising(text):
    """verify parses without validation and runs check_complex itself."""
    try:
        M = complex_from_text(text, validate=False)
    except InputError:
        return
    check_complex(M)


coef = st.fractions(min_value=-9, max_value=9, max_denominator=5)
exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
polys3 = st.dictionaries(exps, coef, max_size=6).map(
    lambda d: {e: c for e, c in d.items() if c}
)


@FUZZ
@given(p=polys3, data=st.data())
def test_parse_poly_gives_input_error_or_poly(p, data):
    text = format_poly(p)
    assert parse_poly(text, 3) == p
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        text = data.draw(edit(text))
    try:
        q = parse_poly(text, 3)
    except InputError:
        return
    assert isinstance(q, dict) and all(len(e) == 3 for e in q)
    assert all(type(c) is int or c.denominator != 1 for c in q.values())
    assert parse_poly(format_poly(q), 3) == q
