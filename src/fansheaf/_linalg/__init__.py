"""Exact linear algebra layer.

Rank and the incremental Echelon basis are sparse fraction-free
eliminations on {col: int} rows, written below; they are the only rank
and membership routines, whatever the kernel.  The canonical integer
kernels (rref/nullspace/solve) come in two interchangeable
implementations: a compiled Cython extension and a pure-Python
fallback.  The compiled one is used when importable; setting
FANSHEAF_PURE=1 in the environment forces the fallback (the benchmark
and parity tests use this).

The wrappers below accept matrices with Fraction or int entries.  Rows
are scaled to integers first; row scaling changes neither row space,
rank, kernel, nor solution sets (solutions are returned as Fractions).
"""

import os
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from . import pure as _pure

if os.environ.get("FANSHEAF_PURE"):
    _impl = _pure
    KERNEL = "pure"
else:
    try:
        from . import _fastrref as _impl

        KERNEL = "compiled"
    except ImportError:
        _impl = _pure
        KERNEL = "pure"

rref_int = _impl.rref_int
nullspace_int = _impl.nullspace_int
solve_int = _impl.solve_int


def scale_rows_to_int(rows):
    """Clear denominators row by row; returns a list of int lists."""
    out = []
    for row in rows:
        den = 1
        for a in row:
            if isinstance(a, Fraction):
                d = a.denominator
                den = den * d // gcd(den, d)
        if den == 1:
            out.append([int(a) for a in row])
        else:
            out.append([int(a * den) for a in row])
    return out


def rref(rows):
    """Canonical primitive-integer RREF rows and pivot columns."""
    return rref_int(scale_rows_to_int(rows))


def _sparse_int_row(row):
    """{col: int} of the nonzero entries of row, denominators cleared.

    The result is a positive multiple of row; entries may be int or
    Fraction.
    """
    nz = []
    den = 1
    for j, a in enumerate(row):
        if a:
            nz.append((j, a))
            d = a.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    if den == 1:
        return {j: int(a) for j, a in nz}
    return {j: a.numerator * (den // a.denominator) for j, a in nz}


def rank(rows):
    """Rank over Q of a matrix with Fraction or int entries.

    Sparse fraction-free elimination.  Each row is read once into a
    {col: int} dict, its denominators cleared in the same pass.  The
    pivot is taken from a shortest remaining row, in its column with the
    fewest remaining entries (Markowitz 1957), ties broken by index.
    Every other row with an entry there becomes a*row - b*pivot_row with
    a/b the reduced ratio of the two entries (cf. Bareiss 1968), and is
    then divided by its content so entries stay small.  Every division
    is exact.  Only the rank is returned, so the pivot order is free.
    """
    live = {}  # row index -> {col: nonzero int}
    col_rows = {}  # col -> indices of live rows with an entry there
    for i, row in enumerate(rows):
        nz = _sparse_int_row(row)
        if not nz:
            continue
        live[i] = nz
        for j in nz:
            col_rows.setdefault(j, set()).add(i)
    r = 0
    while live:
        # live keeps rows in index order, so min breaks ties by index
        i = min(live, key=lambda k: len(live[k]))
        prow = live.pop(i)
        for j in prow:
            col_rows[j].discard(i)
        c = min(prow, key=lambda j: (len(col_rows[j]), j))
        p = prow[c]
        r += 1
        for k in col_rows.pop(c):
            row = live[k]
            f = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in prow.items():
                if j in row:
                    x = row[j] - b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        if j != c:
                            col_rows[j].discard(k)
                else:
                    row[j] = -b * y
                    col_rows[j].add(k)
            if not row:
                del live[k]
                continue
            g = gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
    return r


def nullspace(rows, ncols):
    """Primitive integer basis of {x : rows @ x = 0}."""
    return nullspace_int(scale_rows_to_int(rows), ncols)


def solve(rows, rhs, ncols):
    """One exact solution of rows @ x = rhs as Fractions, or None.

    The right-hand side is scaled together with each row, so Fraction
    entries are fine on both sides.  Free variables are set to zero.
    """
    scaled = scale_rows_to_int([list(r) + [b] for r, b in zip(rows, rhs)])
    mat = [r[:-1] for r in scaled]
    vec = [r[-1] for r in scaled]
    res = solve_int(mat, vec, ncols)
    if res is None:
        return None
    nums, den = res
    return [Fraction(a, den) for a in nums]


def in_rowspan(basis_rows, vec):
    """Is vec in the row space of basis_rows?"""
    rows = list(basis_rows)
    return rank(rows + [vec]) == rank(rows)


class Echelon:
    """Incrementally maintained sparse integer row-echelon basis.

    Each row is a primitive {col: int} dict keyed by its pivot column,
    its leftmost entry, which is positive.  reduce() runs forward
    elimination only, which is enough for membership tests: it
    eliminates at the pivot columns present in the residual, lowest
    first, as a*v - b*row with a/b the reduced ratio of the two entries
    (fraction-free, cf. Bareiss 1968), and divides by the content after
    every step so entries stay small.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec as {col: nonzero int}; empty iff in the span."""
        v = _sparse_int_row(vec)
        rows = self.rows
        todo = [c for c in v if c in rows]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = v.get(c)
            if f is None:
                continue  # cancelled by an earlier step
            row = rows[c]
            p = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in v:
                    v[j] *= a
            for j, y in row.items():
                if j in v:
                    x = v[j] - b * y
                    if x:
                        v[j] = x
                    else:
                        del v[j]
                else:
                    v[j] = -b * y
                    if j in rows:
                        heappush(todo, j)
            if not v:
                break
            g = gcd(*v.values())
            if g != 1:
                for j in v:
                    v[j] //= g
        return v

    def insert(self, vec):
        """Add vec to the span; True if it enlarged the basis."""
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        g = gcd(*v.values())
        if v[lead] < 0:
            g = -g
        if g != 1:
            v = {j: a // g for j, a in v.items()}
        self.rows[lead] = v
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def det_sign(rows):
    """Sign of the determinant of a square Fraction/int matrix: -1, 0, 1."""
    mat = [[Fraction(a) for a in row] for row in rows]
    n = len(mat)
    sign = 1
    for col in range(n):
        p = None
        for r in range(col, n):
            if mat[r][col] != 0:
                p = r
                break
        if p is None:
            return 0
        if p != col:
            mat[col], mat[p] = mat[p], mat[col]
            sign = -sign
        if mat[col][col] < 0:
            sign = -sign
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f != 0:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return sign
