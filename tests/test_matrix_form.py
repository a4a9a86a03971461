"""The one matrix form between layers.

The sparse rows that PolyMatrix.evaluate, CoverMap.evaluate and assemble
emit store no zeros, hold int values where integral, and densify to the
matrices computed here column by column with brute_oracle's product and
substitution.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf import decompose
from fansheaf import pushforward as pushforward_module
from fansheaf.complexes import assemble, boundary_kernel
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import build_minimal, build_shifted_minimal
from fansheaf.modules import (
    FreeGradedModule,
    PolyMatrix,
    kernel_cover,
    minimal_free_cover,
)
from fansheaf.polys import monomials
from fansheaf.pushforward import pushforward

from brute_oracle import linear_images, mul, substitute
from conftest import fan_path
from test_restriction import CORPUS, SUBDIVISIONS, corpus_pairs, tile_pairs


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
    brute_oracle, multiplied by the column's entries with brute_oracle's
    product, and read off in the target basis."""
    src = pm.source.piece_basis(d)
    tgt = pm.target.piece_basis(d)
    mat = [[0] * len(src) for _ in tgt]
    nv = pm.target.ring.nvars
    var_images = linear_images(pm.source.ring, pm.target.ring)
    for c, (j, u) in enumerate(src):
        mono = substitute({u: 1}, var_images, nv)
        images = {
            i: mul(mono, p)
            for (i, jj), p in pm.entries.items()
            if jj == j
        }
        for r, (i, v) in enumerate(tgt):
            if i in images:
                mat[r][c] = images[i].get(v, 0)
    return mat


def check_evaluate(pm, degrees):
    """pm.evaluate against the oracle, degrees taken in the given order."""
    for d in degrees:
        got = dense(pm.evaluate(d), pm.target.dim_at(d), pm.source.dim_at(d))
        assert got == poly_matrix(pm, d), d


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
        check_evaluate(pm, degrees)
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
        fam, _ = boundary_kernel(M, cone.index)
        cover = minimal_free_cover(fam)
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


@pytest.mark.parametrize("src,tgt", SUBDIVISIONS)
def test_pushforward_maps_match_oracle(monkeypatch, src, tgt):
    """Maps read off exact solves: the direct image's differential, and
    the cover blocks from target cone rings into the rings of tiles of
    another fan, one per target cone with tiles, whether its kernel
    cover was searched or reused."""
    fmap = subdivision_map(load_fan(fan_path(src)), load_fan(fan_path(tgt)))
    covers = []

    def recording(*args):
        covers.append(kernel_cover(*args))
        return covers[-1]

    monkeypatch.setattr(pushforward_module, "kernel_cover", recording)
    N = pushforward(fmap, build_minimal(fmap.source))
    lo, hi = N.window
    for pm in N.maps.values():
        check_evaluate(pm, range(lo, hi + 1))
    assert covers
    for cover in covers:
        for pm in cover.blocks:
            check_evaluate(pm, range(lo, hi + 1))


def test_peeled_summand_maps_match_oracle(monkeypatch):
    """The summands and embeddings of starsq -> conesquare: the origin
    summand's maps and every copy's embedding, the origin one on every
    cone."""
    fmap = subdivision_map(
        load_fan(fan_path("starsq")), load_fan(fan_path("conesquare"))
    )
    N = pushforward(fmap, build_minimal(fmap.source))
    peeled = []
    peel = decompose.peel_summand

    def recording(N, base_id, summand, base):
        peeled.append((summand, peel(N, base_id, summand, base)))
        return peeled[-1][1]

    monkeypatch.setattr(decompose, "peel_summand", recording)
    decompose.decomposition_multiplicities(N)
    lo, hi = N.window
    maps = [pm for _, embedding in peeled for pm in embedding.values()]
    maps += [pm for S, _ in peeled for pm in S.maps.values()]
    assert len(peeled) == 3 and len(maps) > 2 * len(N.modules)
    for pm in maps:
        check_evaluate(pm, range(lo, hi + 1))


@cache
def ring_pairs():
    """The (source, target) ring pairs of test_restriction: (cone, face)
    and ("A", cone) of every corpus fan, and (target cone, tile) of the
    five subdivision pairs."""
    pairs = []
    for name in CORPUS:
        pairs += corpus_pairs(load_fan(fan_path(name)))
    for src, tgt in SUBDIVISIONS:
        fan_map = subdivision_map(
            load_fan(fan_path(src)), load_fan(fan_path(tgt))
        )
        pairs += tile_pairs(fan_map)
    return tuple(pairs)


@st.composite
def poly_matrices(draw):
    """A random map of free modules of rank 1-2 between the rings of
    one pair, entries homogeneous with rational coefficients, and a
    random order of the degrees of its window."""
    src_ring, tgt_ring = draw(st.sampled_from(ring_pairs()))
    src_degs = draw(
        st.lists(st.sampled_from([-2, -1, 0, 2]), min_size=1, max_size=2)
    )
    shifted = draw(st.lists(st.sampled_from(src_degs), min_size=1, max_size=2))
    tgt_degs = [
        d - 2 * draw(st.integers(min_value=0, max_value=2)) for d in shifted
    ]
    coeff = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    entries = {}
    for i, dt in enumerate(tgt_degs):
        for j, ds in enumerate(src_degs):
            entries[(i, j)] = {
                u: c
                for u in monomials(tgt_ring.nvars, ds - dt)
                if (c := draw(coeff))
            }
    pm = PolyMatrix(
        FreeGradedModule(src_ring, src_degs),
        FreeGradedModule(tgt_ring, tgt_degs),
        entries,
    )
    lo = min(src_degs)
    order = draw(st.permutations(range(lo, lo + 7)))
    return pm, order


@settings(max_examples=60, deadline=None)
@given(case=poly_matrices())
def test_random_poly_matrix_matches_oracle(case):
    """Degrees evaluated in random order, each read off a lower one's
    cached rows, agree with the oracle."""
    pm, order = case
    pm.validate()
    check_evaluate(pm, order)
