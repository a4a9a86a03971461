"""Exact linear algebra on sparse rows, pure Python.

A matrix is a list of sparse rows {col: value} that store no zeros,
with int values where integral and Fraction values otherwise; its
column count is passed beside it where a routine needs one.  A vector is
one such row, and matvec, solve and the bases returned here are vectors
too.

Every routine first reads a row into a positive int multiple of it
(denominators cleared) and then eliminates fraction-free with one step,
_eliminate: a row becomes a*row - b*pivot_row, a/b the reduced ratio of
the two entries in the pivot column (cf. Bareiss 1968), divided by its
content, so every division is exact and entries stay small.

triangulate is the engine of rank and of membership tests: it pivots
freely in Markowitz order (Markowitz 1957; Duff, Erisman & Reid 1986),
which keeps fill low, and yields the pivot rows in elimination order.
Later pivot rows have no entry in an earlier pivot's column, so forward
elimination in that order decides membership in their span.  Echelon is
the one incremental basis: it starts from a triangulation, reduce() is
the one forward-elimination loop, and insert() appends a nonzero
residual as a new pivot at its leftmost entry.  rref, nullspace and
solve insert one row at a time and add one back-substitution pass,
which gives the canonical rational RREF scaled row by row to primitive
int rows with positive pivot.  That form is unique, so what they return
does not depend on the order of elimination.  rref_kernel reads the
nullspace off such an rref of a wider matrix, so one elimination can
serve several questions.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

# There is one kernel; the name is reported by the benchmark harness.
KERNEL = "pure"


def _int_row(row):
    """A positive int multiple of a sparse row, as a new dict."""
    for a in row.values():
        if type(a) is not int:
            break
    else:
        return dict(row)
    den = lcm(*[a.denominator for a in row.values()])
    if den == 1:
        return {j: int(a) for j, a in row.items()}
    return {j: a.numerator * (den // a.denominator) for j, a in row.items()}


def _primitive(row):
    """Divide an int row in place by its content, signed so that the
    leading entry is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _eliminate(row, prow, c):
    """Clear column c of the int row against the pivot row prow.

    In place, row becomes a*row - b*prow with a/b = prow[c]/row[c] in
    lowest terms, divided by its content.  Returns the columns where row
    gained an entry.
    """
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for j in row:
            row[j] *= a
    fill = []
    for j, y in prow.items():
        x = row.get(j)
        if x is None:
            row[j] = -b * y
            fill.append(j)
        else:
            x -= b * y
            if x:
                row[j] = x
            else:
                del row[j]
    if row:
        g = gcd(*row.values())
        if g != 1:
            for j in row:
                row[j] //= g
    return fill


def triangulate(rows):
    """Triangular basis of the row span of a list of sparse rows.

    The pivot is taken from a shortest remaining row, in its column with
    the fewest remaining entries (Markowitz 1957), ties broken by row
    index and then by column.  Every other row with an entry there is
    eliminated against it.  Yields the pivot rows in elimination order
    as (col, row) pairs with int rows; no row has an entry in an earlier
    pair's column.  rows may be any iterable.
    """
    live = {}  # row index -> {col: nonzero int}
    col_rows = {}  # col -> indices of live rows with an entry there
    for i, row in enumerate(rows):
        if row:
            live[i] = _int_row(row)
            for j in row:
                col_rows.setdefault(j, set()).add(i)
    # one heap key per live row, length * m + index: it orders rows by
    # (length, index) without a tuple per entry.  A key whose row has
    # since changed length or become a pivot is stale and skipped.
    m = max(live, default=0) + 1
    heap = [len(row) * m + i for i, row in live.items()]
    heapify(heap)
    while live:
        n, i = divmod(heappop(heap), m)
        prow = live.get(i)
        if prow is None or len(prow) != n:
            continue
        del live[i]
        for j in prow:
            col_rows[j].discard(i)
        # the column with the fewest live entries, then the lowest one
        c = best = None
        for j in prow:
            count = len(col_rows[j])
            if best is None or count < best or count == best and j < c:
                c, best = j, count
        yield c, prow
        for k in col_rows.pop(c):
            row = live[k]
            _eliminate(row, prow, c)
            for j in prow:
                if j != c:
                    if j in row:
                        col_rows[j].add(k)
                    else:
                        col_rows[j].discard(k)
            if row:
                heappush(heap, len(row) * m + k)
            else:
                del live[k]


def rank(rows):
    """Rank over Q of a list of sparse rows."""
    return sum(1 for _ in triangulate(rows))


class Echelon:
    """Incrementally maintained triangular sparse int basis of a span.

    rows holds (pivot column, int row) pairs in elimination order, and
    no row has an entry in an earlier pair's column; index maps each
    pivot column to its position.  The basis starts as triangulate(rows)
    and insert() appends a residual, primitive and pivoted at its
    leftmost entry, which is positive.  reduce() runs forward
    elimination only, which is enough for membership tests: it clears
    pivot columns in elimination order, so an elimination brings in only
    later pivot columns.
    """

    __slots__ = ("rows", "index")

    def __init__(self, rows=()):
        # an empty basis, the start of every rref, skips the triangulation
        self.rows = list(triangulate(rows)) if rows else []
        self.index = {c: k for k, (c, _) in enumerate(self.rows)}

    def reduce(self, vec):
        """Residual of vec as {col: nonzero int}; empty iff in the span."""
        v = _int_row(vec)
        rows, index = self.rows, self.index
        todo = [index[c] for c in v if c in index]
        heapify(todo)
        while todo and v:
            c, prow = rows[heappop(todo)]
            if c in v:
                for j in _eliminate(v, prow, c):
                    k = index.get(j)
                    if k is not None:
                        heappush(todo, k)
        return v

    def insert(self, vec):
        """Add vec to the span; True if it enlarged the basis."""
        v = self.reduce(vec)
        if not v:
            return False
        c = min(v)
        self.index[c] = len(self.rows)
        self.rows.append((c, _primitive(v)))
        return True


def rref(rows):
    """Canonical RREF of a list of sparse rows: (rows, pivot columns).

    Rows are primitive int vectors with positive pivot and no entry in
    any other row's pivot column; pivot columns ascend.
    """
    ech = Echelon()
    for row in rows:
        if row:
            ech.insert(row)
    basis = dict(ech.rows)
    pivots = sorted(basis)
    # back substitution: the rows below a pivot are already reduced, so
    # clearing their pivots brings in no other pivot column
    for c in reversed(pivots):
        row = basis[c]
        for p in [j for j in row if j != c and j in basis]:
            _eliminate(row, basis[p], p)
    return [basis[c] for c in pivots], pivots


def nullspace(rows, ncols):
    """Primitive int basis of {x : rows @ x = 0}.

    One vector per free column, in ascending order; each has a positive
    leading entry.
    """
    return rref_kernel(*rref(rows), ncols)


def rref_kernel(red, pivots, ncols):
    """The nullspace basis of the first ncols columns of a matrix, read
    off the rref (red, pivots) of the whole matrix.

    Those columns of the rref are the rref of the first ncols columns,
    padded with zero rows, so entries in later columns are never read.
    """
    hits = {}  # free column -> (pivot, entry, pivot entry) per row
    for row, p in zip(red, pivots):
        q = row[p]
        for j, x in row.items():
            if j != p:
                hits.setdefault(j, []).append((p, x, q))
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        col = hits.get(f, ())
        den = lcm(*[q for _, _, q in col])
        vec = {p: -x * (den // q) for p, x, q in col}
        vec[f] = den
        basis.append(_primitive(vec))
    return basis


def solve(rows, rhs, ncols):
    """One exact solution of rows @ x = rhs, or None if there is none.

    rhs is a sparse vector indexed by row.  Free variables are zero, and
    the solution is a sparse vector with int values where integral.
    """
    aug = []
    for i, row in enumerate(rows):
        if i in rhs:
            row = dict(row)
            row[ncols] = rhs[i]
        aug.append(row)
    red, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    sol = {}
    for row, p in zip(red, pivots):
        b = row.get(ncols)
        if b is not None:
            q = row[p]
            sol[p] = b // q if b % q == 0 else Fraction(b, q)
    return sol


def matvec(rows, vec):
    """rows @ vec as a sparse vector indexed by row."""
    out = {}
    for i, row in enumerate(rows):
        s = sum(x * row[j] for j, x in vec.items() if j in row)
        if s:
            out[i] = s
    return out


def transpose(rows, ncols):
    """The columns of a list of sparse rows, as sparse rows."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols

