"""Tests of the one exact kernel in fansheaf._linalg: canonical RREF,
nullspace and solve, the sparse rank and the sparse Echelon basis.  The
reference below redoes everything with Fraction arithmetic and no shared
code paths."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf import _linalg
from fansheaf._linalg import nullspace_int, rref_int, solve_int

# the kernel's name stays in these test ids, so the ids are stable
KERNEL_ID = pytest.mark.parametrize("kernel", [_linalg.KERNEL])


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
    assert rref_int(mat) == reference_rref(mat)


@KERNEL_ID
def test_nullspace_orthogonality(kernel):
    mat = [[1, 2, 3, 0], [0, 0, 5, 1], [1, 2, 8, 1]]
    basis = nullspace_int(mat, 4)
    assert len(basis) == 4 - _linalg.rank(mat)
    for v in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0


@KERNEL_ID
def test_nullspace_empty_matrix(kernel):
    basis = nullspace_int([], 3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@KERNEL_ID
def test_solve(kernel):
    assert solve_int([[2, 0], [0, 3]], [4, 9], 2) == ([2, 3], 1)
    assert solve_int([[1, 1]], [1], 2) == ([1, 0], 1)
    assert solve_int([[1, 0], [1, 0]], [1, 2], 2) is None
    assert solve_int([[2]], [1], 1) == ([1], 2)
    assert solve_int([], [], 2) == ([0, 0], 1)


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
    got_rows, got_piv = rref_int(mat)
    ref_rows, ref_piv = reference_rref(mat)
    assert got_piv == ref_piv
    assert got_rows == ref_rows


@settings(max_examples=100, deadline=None)
@given(mat=int_matrices)
def test_nullspace_property_random(mat):
    ncols = len(mat[0])
    basis = nullspace_int(mat, ncols)
    assert len(basis) == ncols - _linalg.rank(mat)
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
    assert _linalg.rank(mat) == len(reference_rref(mat)[1])


@settings(max_examples=100, deadline=None)
@given(mat=sparse_int_matrices, data=st.data())
def test_rank_invariant_under_permutations(mat, data):
    ncols = len(mat[0]) if mat else 0
    row_perm = data.draw(st.permutations(range(len(mat))))
    col_perm = data.draw(st.permutations(range(ncols)))
    permuted = [[mat[i][j] for j in col_perm] for i in row_perm]
    assert _linalg.rank(permuted) == _linalg.rank(mat)


def test_fraction_wrappers():
    F = Fraction
    rows = [[F(1, 2), F(1, 3)], [F(3, 2), F(1, 5)]]
    got, piv = _linalg.rref(rows)
    assert piv == [0, 1]
    assert got == [[1, 0], [0, 1]]
    sol = _linalg.solve([[F(1, 2), 1]], [F(3, 2)], 2)
    assert sol == [F(3), F(0)]
    assert _linalg.nullspace([[F(1, 2), F(1, 2)]], 2) == [[1, -1]]
    assert _linalg.in_rowspan([[1, 1], [0, 2]], [5, 3])
    assert not _linalg.in_rowspan([[1, 1]], [1, 2])


def test_det_sign():
    assert _linalg.det_sign([[1, 0], [0, 1]]) == 1
    assert _linalg.det_sign([[0, 1], [1, 0]]) == -1
    assert _linalg.det_sign([[1, 2], [2, 4]]) == 0
    assert _linalg.det_sign([[Fraction(1, 2)]]) == 1
    assert _linalg.det_sign([[2, 0, 0], [0, 3, 0], [0, 0, -1]]) == -1


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
    ncols, vecs = stream
    ech = _linalg.Echelon(ncols)
    seen = []
    for v in vecs:
        before = _linalg.rank(seen) if seen else 0
        inside = _linalg.in_rowspan(seen, v) if seen else not any(v)
        assert ech.contains(v) == inside
        assert (not ech.reduce(v)) == inside
        seen.append(v)
        after = _linalg.rank(seen)
        assert ech.insert(v) == (after > before)
        assert ech.rank == after == len(reference_rref(seen)[1])
        assert ech.contains(v)
    for lead, row in ech.rows.items():
        assert min(row) == lead and row[lead] > 0
        assert all(a for a in row.values())
        assert gcd(*row.values()) == 1


@settings(max_examples=100, deadline=None)
@given(mat=st.one_of(sparse_int_matrices, fraction_matrices), data=st.data())
def test_matvec_matches_dense_product(mat, data):
    ncols = len(mat[0]) if mat else 0
    vec = data.draw(st.lists(sparse_fractions, min_size=ncols, max_size=ncols))
    want = [sum(a * x for a, x in zip(row, vec)) for row in mat]
    assert _linalg.matvec(mat, vec) == want
