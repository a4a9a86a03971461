"""Fraction-free exact linear algebra over the integers, pure Python.

All routines use the Montante (one-step fraction-free Gauss-Jordan)
scheme: every non-pivot row is updated as (p*row - row[col]*pivrow)/den
where den is the previous pivot, and the division is exact.  Pivoting is
deterministic (first nonzero entry, no column permutation), so the
normalized output is the canonical rational RREF scaled row by row to
primitive integer vectors with positive leading entry.

The compiled kernel in _fastrref.pyx mirrors rref_int, nullspace_int and
solve_int line for line.  Rank is not computed here: _linalg.rank is a
single sparse routine used with either kernel.
"""

from math import gcd


def _normalize(row):
    """Scale an integer row to a primitive vector with positive pivot."""
    g = 0
    for a in row:
        g = gcd(g, a)
        if g == 1:
            break
    if g == 0:
        return row
    lead = 0
    for a in row:
        if a != 0:
            lead = a
            break
    if lead < 0:
        g = -g
    if g != 1:
        return [a // g for a in row]
    return row


def rref_int(mat):
    """Reduced row echelon form of an integer matrix.

    Returns (rows, pivots): nonzero primitive integer rows with positive
    pivots and zeros elsewhere in each pivot column, pivot column indices
    strictly increasing.  The row space is preserved exactly.
    """
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    piv = 0
    pivots = []
    den = 1
    for col in range(ncols):
        if piv == nrows:
            break
        r = piv
        while r < nrows and rows[r][col] == 0:
            r += 1
        if r == nrows:
            continue
        if r != piv:
            rows[piv], rows[r] = rows[r], rows[piv]
        prow = rows[piv]
        p = prow[col]
        for i in range(nrows):
            if i == piv:
                continue
            ri = rows[i]
            f = ri[col]
            for j in range(ncols):
                ri[j] = (p * ri[j] - f * prow[j]) // den
        pivots.append(col)
        den = p
        piv += 1
    out = [_normalize(rows[i]) for i in range(piv)]
    return out, pivots


def nullspace_int(mat, ncols):
    """Primitive integer basis of the right kernel {x : mat @ x = 0}.

    One basis vector per free column, ordered by ascending free column;
    each vector is primitive with positive leading entry.
    """
    rows, pivots = rref_int(mat)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        den = 1
        for i, p in enumerate(pivots):
            if rows[i][f] != 0:
                q = rows[i][p]
                den = den * q // gcd(den, q)
        vec = [0] * ncols
        vec[f] = den
        for i, p in enumerate(pivots):
            if rows[i][f] != 0:
                vec[p] = -rows[i][f] * den // rows[i][p]
        basis.append(_normalize(vec))
    return basis


def solve_int(mat, rhs, ncols):
    """One exact solution of mat @ x = rhs, free variables set to zero.

    Returns (numerators, denominator) with denominator > 0, or None when
    the system is inconsistent.
    """
    aug = [list(r) + [b] for r, b in zip(mat, rhs)]
    rows, pivots = rref_int(aug)
    if pivots and pivots[-1] == ncols:
        return None
    den = 1
    for i, p in enumerate(pivots):
        q = rows[i][p]
        den = den * q // gcd(den, q)
    nums = [0] * ncols
    for i, p in enumerate(pivots):
        nums[p] = rows[i][ncols] * den // rows[i][p]
    return nums, den
