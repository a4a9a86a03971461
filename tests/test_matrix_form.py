"""The one matrix form between layers.

The sparse rows that PolyMatrix.evaluate, CoverMap.evaluate and assemble
emit store no zeros, hold int values where integral, and densify to the
matrices computed here column by column with Poly arithmetic.
"""

from fractions import Fraction

import pytest

from fansheaf.complexes import assemble, boundary_kernel
from fansheaf.minimal import build_minimal
from fansheaf.modules import minimal_free_cover, restriction
from fansheaf.polys import Poly

from brute_oracle import substitute


def dense(rows, nrows, ncols):
    assert len(rows) == nrows
    for row in rows:
        assert all(row.values()), "no stored zeros"
        assert all(0 <= c < ncols for c in row)
        assert all(
            type(x) is int or x.denominator != 1 for x in row.values()
        ), "int where integral"
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def poly_matrix(pm, d):
    """Dense matrix of pm on degree-d pieces: each source basis monomial
    is moved into the target ring by the naive substitution of
    brute_oracle, multiplied by the column's entries, and read off in
    the target basis."""
    src = pm.source.piece_basis(d)
    tgt = pm.target.piece_basis(d)
    mat = [[0] * len(src) for _ in tgt]
    nv = pm.target.ring.nvars
    var_images = restriction(pm.source.ring, pm.target.ring)
    for c, (j, u) in enumerate(src):
        if var_images is None:
            mono = Poly(nv, {u: Fraction(1)})
        else:
            terms = [p.terms for p in var_images]
            mono = Poly(nv, substitute({u: 1}, terms, nv))
        images = {i: mono * p for (i, jj), p in pm.entries.items() if jj == j}
        for r, (i, v) in enumerate(tgt):
            if i in images:
                mat[r][c] = images[i].terms.get(v, 0)
    return mat


def block_matrix(blocks, row_dims, col_dims):
    """Dense matrix from {(row block, col block): dense block}."""
    row_off = [sum(row_dims[:k]) for k in range(len(row_dims))]
    col_off = [sum(col_dims[:k]) for k in range(len(col_dims))]
    mat = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
    for (a, b), blk in blocks.items():
        for r, row in enumerate(blk):
            for c, x in enumerate(row):
                mat[row_off[a] + r][col_off[b] + c] = x
    return mat


@pytest.mark.parametrize("name", ["p2", "p2blow", "p3", "cubefan", "starsq"])
def test_producers_emit_sparse_rows(corpus, name):
    M = build_minimal(corpus[name])
    fan = M.fan
    lo, hi = M.window
    degrees = range(lo, hi + 1)
    for pm in M.maps.values():
        for d in degrees:
            got = dense(
                pm.evaluate(d), pm.target.dim_at(d), pm.source.dim_at(d)
            )
            assert got == poly_matrix(pm, d)
    for k in range(1, fan.n + 1):
        srcs = [i for i in fan.cones_of_dim(k) if M.rank_at(i)]
        tgts = [i for i in fan.cones_of_dim(k - 1) if M.rank_at(i)]
        for d in degrees:
            blocks = {}
            for b, s in enumerate(srcs):
                for a, t in enumerate(tgts):
                    if (s, t) in M.maps:
                        blocks[(a, b)] = poly_matrix(M.maps[(s, t)], d)
            row_dims = [M.dim_at(t, d) for t in tgts]
            col_dims = [M.dim_at(s, d) for s in srcs]
            got = dense(
                assemble(M, srcs, tgts, d), sum(row_dims), sum(col_dims)
            )
            assert got == block_matrix(blocks, row_dims, col_dims)
    for cone in fan.cones:
        if cone.dim == 0 or not M.rank_at(cone.index):
            continue
        fam, _ = boundary_kernel(M, cone.index, M.window)
        cover = minimal_free_cover(fam, M.tower.ring(cone.index))
        parts = fam.ambient.parts
        for d in degrees:
            blocks = {
                (k, 0): poly_matrix(blk, d)
                for k, blk in enumerate(cover.blocks)
            }
            row_dims = [part.dim_at(d) for part in parts]
            ncols = cover.module.dim_at(d)
            got = dense(cover.evaluate(d), sum(row_dims), ncols)
            assert got == block_matrix(blocks, row_dims, [ncols])
