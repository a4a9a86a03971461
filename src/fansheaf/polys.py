"""Graded polynomials with exact rational coefficients.

Variables t1..t_nvars are the coordinates dual to a cone's chosen ray
basis; every linear function has internal degree 2, so a monomial with
exponent sum e has degree 2e.  Polynomials are dicts from exponent
tuples to nonzero Fractions and are treated as immutable.
"""

from fractions import Fraction
from functools import lru_cache

from fansheaf.errors import InputError


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        c = Fraction(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def linear(cls, nvars, coeffs):
        """Sum of coeffs[i] * t_{i+1}."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c != 0:
                exp = [0] * nvars
                exp[i] = 1
                terms[tuple(exp)] = c
        return cls(nvars, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return Poly(self.nvars, terms)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Poly(self.nvars, terms)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * k for e, k in self.terms.items()})

    def degree(self):
        """Internal degree for homogeneous polynomials, None when zero.

        Raises ValueError on inhomogeneous input; everything in the
        pipeline is graded, so mixed degrees signal a bug.
        """
        if not self.terms:
            return None
        degs = {2 * sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial: degrees {sorted(degs)}")
        return degs.pop()

    def substitute(self, images, target_nvars):
        """Ring map t_i -> images[i]; images are Polys in the target ring."""
        out = Poly(target_nvars)
        pow_cache = {}

        def power(i, e):
            key = (i, e)
            if key not in pow_cache:
                if e == 0:
                    pow_cache[key] = Poly.const(target_nvars, 1)
                else:
                    pow_cache[key] = power(i, e - 1) * images[i]
            return pow_cache[key]

        for exp, c in self.terms.items():
            term = Poly.const(target_nvars, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        return f"Poly({self.nvars}, {format_poly(self)!r})"


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


def format_poly(p):
    """Canonical text form, e.g. '-3/2 t1^2 t2 + t3 + 1'."""
    if p.is_zero():
        return "0"
    parts = []
    for exp, c in p.sorted_terms():
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

    Raises InputError on a token that is not a number or a variable
    t1..t_nvars with an optional ^exponent.
    """

    def number(kind, tok):
        try:
            return kind(tok)
        except (ValueError, ZeroDivisionError):
            raise InputError(
                f"bad token {tok!r} in polynomial {text!r}"
            ) from None

    text = text.strip()
    if text in ("0", ""):
        return Poly(nvars)
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms = []
    sign = 1
    current = None
    for tok in tokens:
        if tok == "+":
            if current is not None:
                terms.append(current)
            sign, current = 1, None
            continue
        if tok == "-":
            if current is not None:
                terms.append(current)
            sign, current = -1, None
            continue
        if current is None:
            current = [sign, Fraction(1), [0] * nvars, False]
        if tok.startswith("t"):
            name, _, exp = tok.partition("^")
            idx = number(int, name[1:]) - 1
            if not 0 <= idx < nvars:
                raise InputError(f"variable {name} out of range for {nvars} vars")
            current[2][idx] += number(int, exp) if exp else 1
        else:
            if current[3]:
                raise InputError(f"two coefficients in one term: {text!r}")
            current[1] = number(Fraction, tok)
            current[3] = True
    if current is not None:
        terms.append(current)
    out = Poly(nvars)
    for sgn, coef, exp, _ in terms:
        out = out + Poly(nvars, {tuple(exp): Fraction(sgn) * coef})
    return out
