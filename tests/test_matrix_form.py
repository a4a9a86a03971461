"""The one matrix form between layers.

The sparse rows that PolyMatrix.evaluate, CoverMap.evaluate and assemble
emit store no zeros, hold int values where integral, and densify to the
matrices computed here column by column with brute_oracle's product and
substitution.  Maps of equal content share one table of evaluations, so
maps that differ in one part of their content are checked to keep apart.
"""

import gc
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf import decompose, modules
from fansheaf import pushforward as pushforward_module
from fansheaf.complexes import (
    assemble,
    boundary,
    complex_from_text,
    kernel_cover,
)
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import build_minimal, build_shifted_minimal
from fansheaf.modules import (
    ConeRing,
    DirectSumAmbient,
    FreeGradedModule,
    PolyMatrix,
    cone_ring,
    minimal_free_cover,
)
from fansheaf.polys import monomials
from fansheaf.pushforward import pushforward

from brute_oracle import linear_images, mul, substitute
from conftest import EXTRA_FANS, fan_file, fan_path
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
        facets, _, _, C = boundary(M, cone.index)
        ambient = DirectSumAmbient(
            cone_ring(fan, cone.index), [M.modules[f] for f in facets]
        )
        cover = minimal_free_cover(ambient, C, M.window)
        parts = ambient.parts
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


PLANE = ConeRing("plane", 2, ((1, 0), (0, 1)))
E1 = ConeRing("e1", 1, ((1, 0),))
E2 = ConeRing("e2", 1, ((0, 1),))
# E1's basis with a second variable: the restriction forms, keyed by the
# bases, are E1's, so a zero map into it differs in target nvars alone
E1_WIDE = ConeRing("e1 wide", 2, ((1, 0),))
WINDOW = range(-2, 7)


def _map(src_degs=(0,), tgt_ring=E1, tgt_degs=(0,), entries=None):
    """A map from PLANE onto a ray's ring over fresh module objects; by
    default restriction of the generator, t_1 -> t_1 and t_2 -> 0."""
    if entries is None:
        entries = {(0, 0): {(0,): 1}}
    return PolyMatrix(
        FreeGradedModule(PLANE, src_degs),
        FreeGradedModule(tgt_ring, tgt_degs),
        entries,
    )


def test_equal_content_shares_one_table():
    """Two maps of equal content over distinct module objects: one
    table, so each degree is evaluated once for both."""
    a, b = _map(), _map()
    assert a.source is not b.source and a.target is not b.target
    for d in WINDOW:
        assert a.evaluate(d) is b.evaluate(d)
    check_evaluate(b, WINDOW)


@pytest.mark.parametrize(
    "base,variant",
    [
        # source degrees: a second, zero column
        (_map, lambda: _map(src_degs=(0, 2))),
        # target degrees: a second, zero row
        (_map, lambda: _map(tgt_degs=(0, 2))),
        # target nvars: zero maps into rings on one basis
        (
            lambda: _map(entries={}),
            lambda: _map(tgt_ring=E1_WIDE, entries={}),
        ),
        # restriction forms: t_1 -> t_1 against t_1 -> 0
        (_map, lambda: _map(tgt_ring=E2)),
        # entries
        (_map, lambda: _map(entries={(0, 0): {(0,): 2}})),
    ],
    ids=["source degrees", "target degrees", "target nvars", "forms",
         "entries"],
)
def test_content_that_differs_in_one_part_gets_its_own_table(base, variant):
    """A map whose content differs from another's in one part only gets
    its own rows, equal to the oracle's, in whichever order the two are
    evaluated."""
    for first, second in ((base(), variant()), (variant(), base())):
        for d in WINDOW:
            assert first.evaluate(d) is not second.evaluate(d)
        check_evaluate(first, WINDOW)
        check_evaluate(second, WINDOW)


def test_dropped_complex_leaves_no_evaluations():
    """The table refers to its rows weakly: once a complex is dropped,
    no entry is left for a content that only its maps had."""
    before = set(modules._EVALUATIONS.keys())
    M = build_shifted_minimal(load_fan(fan_path("p2")), 0, -1)
    lo, hi = M.window
    for pm in M.maps.values():
        for d in range(lo, hi + 1):
            pm.evaluate(d)
    own = {pm.content() for pm in M.maps.values()} - before
    assert own and own <= set(modules._EVALUATIONS.keys())
    del M, pm
    gc.collect()
    assert not own & set(modules._EVALUATIONS.keys())


@pytest.mark.parametrize("name", ["p4", "cubestar"])
def test_shared_evaluations_match_oracle(name):
    """Every map of the committed P^4 complex and of cubestar's minimal
    complex, many of them of equal content, against the oracle."""
    if name == "p4":
        path = EXTRA_FANS["p4"].with_suffix(".complex")
        M = complex_from_text(path.read_text())
    else:
        M = build_minimal(load_fan(fan_file(name)))
    lo, hi = M.window
    contents = {pm.content() for pm in M.maps.values()}
    assert len(contents) < len(M.maps)
    for pm in M.maps.values():
        check_evaluate(pm, range(hi, lo - 1, -1))
