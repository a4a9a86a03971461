"""Graded polynomials with exact rational coefficients, as term dicts.

Variables t1..t_nvars are the coordinates dual to a cone's chosen ray
basis; every linear function has internal degree 2, so a monomial with
exponent sum e has degree 2e.  A polynomial is a dict from exponent
tuples to nonzero coefficients, int where integral and Fraction
otherwise (the rule of _linalg's sparse rows), and is treated as
immutable.  This module holds the polynomial text format, degree and
the monomial bases.
"""

from fractions import Fraction
from functools import lru_cache

from fansheaf.errors import InputError


def degree(terms):
    """Internal degree of a homogeneous polynomial, None when zero.

    Raises ValueError on inhomogeneous input; everything in the
    pipeline is graded, so mixed degrees signal a bug.
    """
    degs = {2 * sum(e) for e in terms}
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous polynomial: degrees {sorted(degs)}")
    return degs.pop() if degs else None


@lru_cache(maxsize=None)
def monomials(nvars, degree):
    """Exponent tuples of internal degree `degree`, ascending lex order."""
    if degree < 0 or degree % 2:
        return ()
    total = degree // 2
    if nvars == 0:
        return ((),) if total == 0 else ()

    def gen(rem, slots):
        if slots == 1:
            yield (rem,)
            return
        for first in range(rem + 1):
            for rest in gen(rem - first, slots - 1):
                yield (first,) + rest

    return tuple(sorted(gen(total, nvars)))


def format_poly(terms):
    """Canonical text form, e.g. '-3/2 t1^2 t2 + t3 + 1'."""
    if not terms:
        return "0"
    parts = []
    for exp, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        vars_txt = " ".join(
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
            for i, e in enumerate(exp)
            if e
        )
        mag = abs(c)
        if not vars_txt:
            body = str(mag)
        elif mag == 1:
            body = vars_txt
        else:
            body = f"{mag} {vars_txt}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def parse_poly(text, nvars):
    """Inverse of format_poly; accepts any +/- separated monomial list.

    Returns the term dict: like terms merged, zero terms dropped,
    integral coefficients as int.

    Raises InputError on a token that is not a number or a variable
    t1..t_nvars with an optional ^exponent, and on a sign that follows
    another sign or ends the text.
    """

    def bad(tok):
        return InputError(f"bad token {tok!r} in polynomial {text!r}")

    def number(kind, tok):
        try:
            return kind(tok)
        except (ValueError, ZeroDivisionError):
            raise bad(tok) from None

    text = text.strip()
    if text in ("0", ""):
        return {}
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms = []
    sign = 1
    current = None
    after_sign = False
    for tok in tokens:
        if tok in ("+", "-"):
            if after_sign:
                raise bad(tok)
            if current is not None:
                terms.append(current)
            sign, current, after_sign = (1 if tok == "+" else -1), None, True
            continue
        after_sign = False
        if current is None:
            current = [sign, 1, [0] * nvars, False]
        if tok.startswith("t"):
            name, caret, exp = tok.partition("^")
            if caret and not exp:
                raise bad(tok)
            idx = number(int, name[1:]) - 1
            if not 0 <= idx < nvars:
                raise InputError(f"variable {name} out of range for {nvars} vars")
            current[2][idx] += number(int, exp) if exp else 1
        else:
            if current[3]:
                raise InputError(f"two coefficients in one term: {text!r}")
            try:
                current[1] = int(tok)
            except ValueError:
                current[1] = number(Fraction, tok)
            current[3] = True
    if after_sign:
        raise bad(tokens[-1])
    if current is not None:
        terms.append(current)
    out = {}
    for sgn, coef, exp, _ in terms:
        exp = tuple(exp)
        out[exp] = out.get(exp, 0) + sgn * coef
    return {
        e: int(c) if c.denominator == 1 else c for e, c in out.items() if c
    }
