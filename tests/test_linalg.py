"""Tests of the one exact kernel in fansheaf._linalg: canonical RREF,
nullspace and solve, rank and the triangulation under it, the Echelon
basis and matvec, all on sparse rows.  The reference below redoes
everything densely with Fraction arithmetic and no shared code paths;
test matrices are written densely and passed through sparse(), and
results are compared after dense()."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf import _linalg

# the kernel's name stays in these test ids, so the ids are stable
KERNEL_ID = pytest.mark.parametrize("kernel", [_linalg.KERNEL])


def sparse(mat):
    """Dense rows as the sparse rows _linalg takes."""
    return [{j: a for j, a in enumerate(row) if a} for row in mat]


def dense(vec, n):
    assert all(vec.values()), "sparse vectors store no zeros"
    assert all(0 <= j < n for j in vec)
    return [vec.get(j, 0) for j in range(n)]


def rref_dense(mat):
    ncols = len(mat[0]) if mat else 0
    rows, pivots = _linalg.rref(sparse(mat))
    return [dense(r, ncols) for r in rows], pivots


def nullspace_dense(mat, ncols):
    return [dense(v, ncols) for v in _linalg.nullspace(sparse(mat), ncols)]


def in_rowspan(rows, vec):
    return _linalg.rank(rows + [vec]) == _linalg.rank(rows)


def reference_rref(mat):
    """Fraction Gauss-Jordan, then scale rows to primitive ints."""
    rows = [[Fraction(a) for a in r] for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    piv = 0
    pivots = []
    for col in range(ncols):
        r = piv
        while r < nrows and rows[r][col] == 0:
            r += 1
        if r == nrows:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        rows[piv] = [a / rows[piv][col] for a in rows[piv]]
        for i in range(nrows):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        pivots.append(col)
        piv += 1
        if piv == nrows:
            break
    out = []
    for i in range(piv):
        den = 1
        for a in rows[i]:
            den = den * a.denominator // gcd(den, a.denominator)
        ints = [int(a * den) for a in rows[i]]
        g = 0
        for a in ints:
            g = gcd(g, a)
        out.append([a // g for a in ints])
    return out, pivots


MATS = [
    [],
    [[0, 0, 0]],
    [[2, 4, 6], [1, 2, 3], [0, 0, 5]],
    [[1, 2], [3, 4]],
    [[0, 1], [1, 0], [1, 1]],
    [[6, 4], [9, 6]],
    [[3]],
    [[-2, 2, -2], [4, 0, 8], [0, -4, 4]],
    [[1, 0, 0, 5], [0, 0, 1, -7]],
]


@KERNEL_ID
@pytest.mark.parametrize("mat", MATS)
def test_rref_matches_reference(kernel, mat):
    assert rref_dense(mat) == reference_rref(mat)


@KERNEL_ID
def test_nullspace_orthogonality(kernel):
    mat = [[1, 2, 3, 0], [0, 0, 5, 1], [1, 2, 8, 1]]
    basis = nullspace_dense(mat, 4)
    assert len(basis) == 4 - _linalg.rank(sparse(mat))
    for v in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0


@KERNEL_ID
def test_nullspace_empty_matrix(kernel):
    basis = _linalg.nullspace([], 3)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


@KERNEL_ID
def test_solve(kernel):
    solve = _linalg.solve
    got = solve(sparse([[2, 0], [0, 3]]), {0: 4, 1: 9}, 2)
    assert got == {0: 2, 1: 3}
    assert all(type(x) is int for x in got.values())
    assert solve(sparse([[1, 1]]), {0: 1}, 2) == {0: 1}
    assert solve(sparse([[1, 0], [1, 0]]), {0: 1, 1: 2}, 2) is None
    assert solve(sparse([[2]]), {0: 1}, 1) == {0: Fraction(1, 2)}
    assert solve([], {}, 2) == {}
    # a zero row with a nonzero right-hand side is inconsistent
    assert solve([{0: 1}, {}], {1: 3}, 1) is None


int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(mat=int_matrices)
def test_rref_property_random(mat):
    got_rows, got_piv = rref_dense(mat)
    ref_rows, ref_piv = reference_rref(mat)
    assert got_piv == ref_piv
    assert got_rows == ref_rows


@settings(max_examples=100, deadline=None)
@given(mat=int_matrices)
def test_nullspace_property_random(mat):
    ncols = len(mat[0])
    basis = nullspace_dense(mat, ncols)
    assert len(basis) == ncols - _linalg.rank(sparse(mat))
    for v in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0


# three entries in four are zero, as in the differentials rank sees
sparse_entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(min_value=-9, max_value=9)
)
sparse_int_matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(
        st.lists(sparse_entries, min_size=n, max_size=n),
        min_size=0,
        max_size=12,
    )
)
fraction_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=200, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices))
def test_rank_matches_reference_pivots(mat):
    assert _linalg.rank(sparse(mat)) == len(reference_rref(mat)[1])


@settings(max_examples=100, deadline=None)
@given(mat=sparse_int_matrices, data=st.data())
def test_rank_invariant_under_permutations(mat, data):
    ncols = len(mat[0]) if mat else 0
    row_perm = data.draw(st.permutations(range(len(mat))))
    col_perm = data.draw(st.permutations(range(ncols)))
    permuted = [[mat[i][j] for j in col_perm] for i in row_perm]
    assert _linalg.rank(sparse(permuted)) == _linalg.rank(sparse(mat))


def test_fraction_wrappers():
    F = Fraction
    rows = [[F(1, 2), F(1, 3)], [F(3, 2), F(1, 5)]]
    got, piv = rref_dense(rows)
    assert piv == [0, 1]
    assert got == [[1, 0], [0, 1]]
    sol = _linalg.solve(sparse([[F(1, 2), 1]]), {0: F(3, 2)}, 2)
    assert sol == {0: 3} and type(sol[0]) is int
    assert nullspace_dense([[F(1, 2), F(1, 2)]], 2) == [[1, -1]]
    assert in_rowspan(sparse([[1, 1], [0, 2]]), {0: 5, 1: 3})
    assert not in_rowspan(sparse([[1, 1]]), {0: 1, 1: 2})


sparse_fractions = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def echelon_streams(draw):
    """Mostly-zero int or Fraction vectors, some of them combinations of
    earlier ones so that both insert outcomes occur."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    entries = draw(st.sampled_from([sparse_entries, sparse_fractions]))
    vecs = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if vecs and draw(st.booleans()):
            coeffs = draw(
                st.lists(
                    st.integers(min_value=-3, max_value=3),
                    min_size=len(vecs),
                    max_size=len(vecs),
                )
            )
            vecs.append(
                [sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(ncols)]
            )
        else:
            vecs.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return ncols, vecs


@settings(max_examples=200, deadline=None)
@given(stream=echelon_streams())
def test_echelon_tracks_rank_and_membership(stream):
    ncols, dense_vecs = stream
    vecs = sparse(dense_vecs)
    ech = _linalg.Echelon()
    seen = []
    for v in vecs:
        before = _linalg.rank(seen) if seen else 0
        inside = in_rowspan(seen, v) if seen else not v
        assert (not ech.reduce(v)) == inside
        seen.append(v)
        after = _linalg.rank(seen)
        assert ech.insert(v) == (after > before)
        ref_rank = len(reference_rref(dense_vecs[: len(seen)])[1])
        assert len(ech.rows) == after == ref_rank
        assert not ech.reduce(v)
    for lead, row in ech.rows:
        assert min(row) == lead and row[lead] > 0
        assert all(a for a in row.values())
        assert gcd(*row.values()) == 1


@settings(max_examples=200, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices))
def test_triangulate_is_triangular_with_reference_rank(mat):
    """One pivot per unit of the reference rank; each pivot row is a
    nonzero int row with an entry at its pivot column and none at an
    earlier pair's column."""
    pivots = list(_linalg.triangulate(sparse(mat)))
    assert len(pivots) == len(reference_rref(mat)[1])
    for k, (c, row) in enumerate(pivots):
        assert row.get(c) and all(type(x) is int and x for x in row.values())
        assert not any(e in row for e, _ in pivots[:k])


@settings(max_examples=200, deadline=None)
@given(stream=echelon_streams())
def test_echelon_from_triangulation_decides_membership(stream):
    """Against an Echelon started from a triangulation of the first
    rows, the residual of a later row avoids every pivot column and is
    empty exactly when the reference rank does not grow with it; insert
    appends it, so the pivot count follows the reference rank."""
    _, dense_vecs = stream
    vecs = sparse(dense_vecs)
    half = len(vecs) // 2
    ech = _linalg.Echelon(vecs[:half])
    for k in range(half, len(vecs)):
        res = ech.reduce(vecs[k])
        assert not any(c in res for c in ech.index)
        before = len(reference_rref(dense_vecs[:k])[1]) if k else 0
        after = len(reference_rref(dense_vecs[: k + 1])[1])
        assert (not res) == (after == before)
        assert ech.insert(vecs[k]) == bool(res)
        assert len(ech.rows) == after


@settings(max_examples=100, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices), data=st.data())
def test_matvec_matches_dense_product(mat, data):
    ncols = len(mat[0]) if mat else 0
    vec = data.draw(st.lists(sparse_fractions, min_size=ncols, max_size=ncols))
    want = [sum(a * x for a, x in zip(row, vec)) for row in mat]
    got = _linalg.matvec(sparse(mat), sparse([vec])[0])
    assert dense(got, len(mat)) == want


@settings(max_examples=50, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices))
def test_transpose_matches_dense(mat):
    ncols = len(mat[0]) if mat else 0
    cols = _linalg.transpose(sparse(mat), ncols)
    assert [dense(c, len(mat)) for c in cols] == [list(c) for c in zip(*mat)]


def reference_nullspace(mat, ncols):
    """One kernel vector per free column of the reference RREF: the free
    entry is the lcm of the pivots it meets, then the vector is made
    primitive with a positive leading entry."""
    rows, pivots = reference_rref(mat) if mat else ([], [])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        den = 1
        for row, p in zip(rows, pivots):
            if row[f]:
                den = den * row[p] // gcd(den, row[p])
        vec = [0] * ncols
        vec[f] = den
        for row, p in zip(rows, pivots):
            if row[f]:
                vec[p] = Fraction(-row[f] * den, row[p])
        g = 0
        for a in vec:
            g = gcd(g, int(a))
        lead = next(a for a in vec if a)
        basis.append([int(a) // (g if lead > 0 else -g) for a in vec])
    return basis


@settings(max_examples=100, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices))
def test_nullspace_matches_reference_basis(mat):
    """The stored basis is the canonical one, entry for entry."""
    ncols = len(mat[0]) if mat else 0
    assert nullspace_dense(mat, ncols) == reference_nullspace(mat, ncols)


@settings(max_examples=100, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices), data=st.data())
def test_solve_matches_reference(mat, data):
    """solve gives a solution exactly when the reference rank does not
    grow with the right-hand side, with free variables zero."""
    ncols = len(mat[0]) if mat else 0
    n = len(mat)
    rhs = data.draw(st.lists(sparse_fractions, min_size=n, max_size=n))
    sol = _linalg.solve(sparse(mat), sparse([rhs])[0], ncols)
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    consistent = len(reference_rref(aug)[1]) == len(reference_rref(mat)[1])
    assert (sol is not None) == consistent
    if sol is None:
        return
    x = dense(sol, ncols)
    assert [sum(a * y for a, y in zip(row, x)) for row in mat] == rhs
    assert all(type(y) is int for y in x if y.denominator == 1)
    pivots = reference_rref(mat)[1] if mat else []
    assert all(x[j] == 0 for j in range(ncols) if j not in pivots)
