"""Kernel covers reused by content within one builder call.

complexes.kernel_cover keys its memo on the full local data of a kernel,
read off its own arguments, so a reused cover must equal a fresh search
at every cone, and complexes whose tiles and walls differ in any part of
that data must each get their own search.  A memo entry is the pair
(kernel dimensions, generators): no kernel basis outlives the search.
A direct image's kernels are cut out by interior walls alone, so on
subdivisions that also subdivide a target facet, each kernel's image in
a facet's tiles is checked to lie in that facet's kernel.
"""

from functools import cache, partial

import pytest

from fansheaf import _linalg, complexes, minimal, modules
from fansheaf import pushforward as pushforward_module
from fansheaf.complexes import FanComplex, assemble, kernel_cover
from fansheaf.decompose import decomposition_theorem_report
from fansheaf.errors import CertificateError, WindowExhausted
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import build_minimal, ih_module
from fansheaf.modules import (
    DirectSumAmbient,
    FreeGradedModule,
    PolyMatrix,
    cone_ring,
    family_from_kernel,
    minimal_free_cover,
)
from fansheaf.pushforward import pushforward

from conftest import FACET_SUBDIVISIONS, fan_file, fan_path
from test_restriction import SUBDIVISIONS


@cache
def _map(src, tgt):
    return subdivision_map(load_fan(fan_file(src)), load_fan(fan_file(tgt)))


def _sections(M, ring, tiles, walls):
    """(ambient, rows_at): the tiles' modules summed over ring and the
    rows into the walls, built here apart from kernel_cover."""
    ambient = DirectSumAmbient(ring, [M.modules[i] for i in tiles])
    return ambient, partial(assemble, M, tiles, walls)


def _fresh_cover(M, ring, tiles, walls):
    return minimal_free_cover(*_sections(M, ring, tiles, walls), M.window)


def _assert_same_cover(got, want):
    assert got.window == want.window
    assert got.dims == want.dims
    assert got.gens == want.gens
    assert got.module.ring is want.module.ring
    assert got.module.degrees == want.module.degrees
    assert [(b.target, b.entries) for b in got.blocks] == [
        (b.target, b.entries) for b in want.blocks
    ]


@pytest.mark.parametrize(
    "src,tgt", [("cubestar", "cubefan"), *SUBDIVISIONS, *FACET_SUBDIVISIONS]
)
def test_reused_covers_equal_fresh_searches(monkeypatch, src, tgt):
    """Every cone of the source's minimal complex and of its direct
    image: the memoised cover against a fresh kernel and generator
    search over the same ambient."""
    fmap = _map(src, tgt)
    hits = []

    def checked(M, ring, tiles, walls, memo):
        known = len(memo)
        got = kernel_cover(M, ring, tiles, walls, memo)
        hits.append(len(memo) == known)
        _assert_same_cover(got, _fresh_cover(M, ring, tiles, walls))
        return got

    monkeypatch.setattr(minimal, "kernel_cover", checked)
    monkeypatch.setattr(pushforward_module, "kernel_cover", checked)
    pushforward(fmap, build_minimal(fmap.source))
    assert any(hits)


@pytest.mark.parametrize("src,tgt", FACET_SUBDIVISIONS)
def test_facet_images_lie_in_facet_families(monkeypatch, src, tgt):
    """The interior walls alone cut out a direct image's kernels: at
    every target cone s, finished facet f and window degree d, the block
    from s's tiles into f's tiles sends each basis vector of s's kernel
    into the span of f's kernel, both rebuilt by family_from_kernel on
    the arguments of the lookup.  Some facet kernel is a proper subspace
    of its ambient, so the check is not vacuous."""
    fmap = _map(src, tgt)
    M = build_minimal(fmap.source)
    families = []

    def recording(*args):
        ambient, rows_at = _sections(*args[:4])
        bases = family_from_kernel(ambient, rows_at, M.window)
        families.append((ambient, bases))
        return kernel_cover(*args)

    monkeypatch.setattr(pushforward_module, "kernel_cover", recording)
    pushforward(fmap, M)
    tiles = {
        c.index: [i for i in fmap.tiles[c.index] if M.rank_at(i)]
        for c in fmap.target.cones
    }
    # one search per cone with tiles, in cone order
    family = dict(zip([s for s in tiles if tiles[s]], families, strict=True))
    lo, hi = M.window
    proper = 0
    for sigma in fmap.target.cones:
        s = sigma.index
        for f in sigma.facet_ids:
            if s not in family or f not in family:
                continue
            for d in range(lo, hi + 1):
                span = family[f][1].get(d, ())
                rank = len(span)
                proper += rank < family[f][0].dim_at(d)
                D = assemble(M, tiles[s], tiles[f], d)
                for z in family[s][1].get(d, ()):
                    image = _linalg.matvec(D, z)
                    assert _linalg.rank([*span, image]) == rank, (s, f, d)
    assert proper


def test_generator_searches_counted_on_cubestar(monkeypatch):
    """Distinct local kernels: 3 searches build cubestar's 74 cones and
    4 push it onto cubefan's 27 cones with tiles."""
    calls = []
    real = modules.minimal_generators

    def counting(ambient, bases, window):
        calls.append(ambient.base_ring.label)
        return real(ambient, bases, window)

    monkeypatch.setattr(modules, "minimal_generators", counting)
    fmap = _map("cubestar", "cubefan")
    M = build_minimal(fmap.source)
    assert len(calls) == 3
    calls.clear()
    pushforward(fmap, M)
    assert len(calls) == 4


def test_memo_holds_dimensions_and_generators_only(monkeypatch):
    """Each lookup of cubefan's build: the entry a miss stores is the
    pair (kernel dimensions, generators) of its search, with no kernel
    basis, and a hit rebuilt from it, reading no rows, equals a fresh
    search in module degrees, generators, dimensions and each block's
    content."""
    lookups = []

    def checked(M, ring, tiles, walls, memo):
        stored = dict(memo)
        got = kernel_cover(M, ring, tiles, walls, memo)
        fresh = _fresh_cover(M, ring, tiles, walls)
        new = [entry for key, entry in memo.items() if key not in stored]
        lookups.append("miss" if new else "hit")
        assert new in ([], [(fresh.dims, fresh.gens)])
        with monkeypatch.context() as patch:
            patch.setattr(complexes, "assemble", _unassembled)
            again = kernel_cover(M, ring, tiles, walls, memo)
        assert len(memo) == len(stored) + len(new)
        for cover in (got, again):
            assert cover.module.degrees == fresh.module.degrees
            assert (cover.gens, cover.dims) == (fresh.gens, fresh.dims)
            assert [b.content() for b in cover.blocks] == [
                b.content() for b in fresh.blocks
            ]
        return got

    monkeypatch.setattr(minimal, "kernel_cover", checked)
    build_minimal(load_fan(fan_file("cubefan")))
    assert (lookups.count("miss"), lookups.count("hit")) == (3, 23)


def _count_lookups_and_searches(monkeypatch):
    """The calls list that every kernel_cover lookup, wherever a builder
    binds it, and every generator search append to."""
    calls = []
    real_cover = complexes.kernel_cover
    real_search = modules.minimal_generators

    def cover(*args):
        calls.append("lookup")
        return real_cover(*args)

    def search(*args):
        calls.append("search")
        return real_search(*args)

    for binding in (minimal, pushforward_module, complexes):
        monkeypatch.setattr(binding, "kernel_cover", cover)
    monkeypatch.setattr(modules, "minimal_generators", search)
    return calls


@pytest.mark.parametrize(
    "src,tgt,lookups,searches",
    [
        ("cubeedge", "cubefan", 91, 14),
        ("p3edge", "p3", 51, 13),
        ("orth4e", "orth4", 57, 17),
    ],
)
def test_cover_lookups_and_searches_per_decompose(
    monkeypatch, src, tgt, lookups, searches
):
    """One decompose, from the source's minimal complex to the summand
    builds, on the pairs that subdivide a target facet: the lookups, and
    one generator search per distinct local kernel."""
    calls = _count_lookups_and_searches(monkeypatch)
    decomposition_theorem_report(_map(src, tgt))
    assert (calls.count("lookup"), calls.count("search")) == (
        lookups, searches
    )


def test_cover_lookups_and_searches_per_ih(monkeypatch):
    """ih on cubefan: the build's 26 lookups with 3 searches, then the
    top module's lookup on a memo of its own, a miss and the fourth
    search."""
    calls = _count_lookups_and_searches(monkeypatch)
    ih_module(build_minimal(load_fan(fan_file("cubefan"))))
    assert (calls.count("lookup"), calls.count("search")) == (27, 4)
    assert calls[-2:] == ["lookup", "search"]


def _unassembled(*args):
    raise AssertionError("a memo hit assembles no rows")


# cone 0 is the origin, 1 and 2 the rays (0, 1) and (1, 0), 3 the quadrant
QUADRANT = load_fan(fan_path("quadrant"))
O, R1, R2, P = (cone_ring(QUADRANT, i) for i in range(4))


def _complex(fan, specs, entries=(), window=(-2, 6)):
    """A FanComplex of free modules, given as {cone: (ring, degrees)},
    and of the maps {(cone, facet): entry} from a rank-one module into
    a rank-one module, each entry a constant.  It holds any modules,
    so the tests below choose each ring and degree themselves."""
    mods = {i: FreeGradedModule(*spec) for i, spec in specs.items()}
    maps = {
        (s, t): PolyMatrix(
            mods[s], mods[t], {(0, 0): {(0,) * mods[t].ring.nvars: c}}
        )
        for (s, t), c in dict(entries).items()
    }
    return FanComplex(fan, mods, maps, window)


def test_key_separates_each_part_of_the_local_data(monkeypatch):
    """One memo, pairs of lookups on small complexes of the quadrant
    that differ in one part of the key only and whose searches give
    different generators: each gets the result of its own search.  The
    parts are the tiles' restriction forms from the ring and, through
    assemble_key, the tiles' shapes, the walls, a block's position and a
    block's content.  No pair differs in a part's variable count alone:
    for a ring built from its basis the forms fix it."""
    tile = {0: (O, [0]), 1: (R1, [0])}
    both = {**tile, 2: (R2, [0])}
    one_ring = {**tile, 2: (R1, [0])}
    pairs = [
        # generator degrees (0, 2) and (2, 0): the degree-2 generator
        # sits at another basis position
        (
            (_complex(QUADRANT, {1: (R1, [0, 2])}), R1, [1], []),
            (_complex(QUADRANT, {1: (R1, [2, 0])}), R1, [1], []),
        ),
        # restriction forms: with both tiles on the ray (0, 1)'s ring
        # the degree-0 kernel e - e' has a degree-2 generator beside it;
        # on the two rays' rings not
        (
            (
                _complex(QUADRANT, one_ring, {(1, 0): 1, (2, 0): 1}),
                P, [1, 2], [0],
            ),
            (
                _complex(QUADRANT, both, {(1, 0): 1, (2, 0): 1}),
                P, [1, 2], [0],
            ),
        ),
        # the walls: one tile, glued across the origin or across nothing
        (
            (_complex(QUADRANT, tile, {(1, 0): 1}), R1, [1], []),
            (_complex(QUADRANT, tile, {(1, 0): 1}), R1, [1], [0]),
        ),
        # block positions: the one map leaves the first tile or the
        # second, with equal content
        (
            (_complex(QUADRANT, both, {(1, 0): 1}), P, [1, 2], [0]),
            (_complex(QUADRANT, both, {(2, 0): 1}), P, [1, 2], [0]),
        ),
        # block content: the second tile's map is -1 or 2
        (
            (
                _complex(QUADRANT, both, {(1, 0): 1, (2, 0): -1}),
                P, [1, 2], [0],
            ),
            (
                _complex(QUADRANT, both, {(1, 0): 1, (2, 0): 2}),
                P, [1, 2], [0],
            ),
        ),
    ]
    memo = {}
    for pair in pairs:
        fresh = [_fresh_cover(*lookup) for lookup in pair]
        assert fresh[0].gens != fresh[1].gens
        for lookup, want in zip(pair, fresh):
            _assert_same_cover(kernel_cover(*lookup, memo), want)
    assert len(memo) == 2 * len(pairs)
    # a hit assembles no rows: equal local data on fresh modules and maps
    again = (_complex(QUADRANT, tile, {(1, 0): 1}), R1, [1], [0])
    monkeypatch.setattr(complexes, "assemble", _unassembled)
    got = kernel_cover(*again, memo)
    monkeypatch.undo()
    _assert_same_cover(got, _fresh_cover(*again))


def test_key_separates_windows():
    """At the origin a degree-0 generator leaves every other piece zero,
    so the windows (-2, 2) and (-2, 1) meet the same rows; the generator
    is in the second window's guard zone, which must still exhaust after
    the first window's search is stored."""
    memo = {}
    wide = _complex(QUADRANT, {0: (O, [0])}, window=(-2, 2))
    assert kernel_cover(wide, O, [0], [], memo).module.degrees == (0,)
    narrow = _complex(QUADRANT, {0: (O, [0])}, window=(-2, 1))
    with pytest.raises(WindowExhausted):
        kernel_cover(narrow, O, [0], [], memo)


def test_failures_are_not_memoised():
    """Equal local data on the two rays of P^1: each failing search
    raises again, and a window exhaustion names the cone it fires at.
    The closure failure needs rows that are no module map: each ray's
    map into the origin is bound to a rank-one module over the origin's
    ring in degree 2, not to the ray's module, so it kills t*e in degree
    2 and leaves e in degree 0 (check_complex refuses such a map;
    kernel_cover reads only the rows)."""
    fan = load_fan(fan_path("p1"))
    rings = {i: cone_ring(fan, i) for i in range(3)}
    memo = {}
    for c in (1, 2):
        M = _complex(fan, {c: (rings[c], [0])}, window=(-2, 0))
        with pytest.raises(WindowExhausted) as exc:
            kernel_cover(M, rings[c], [c], [], memo)
        assert exc.value.cone == c
        ray = FreeGradedModule(rings[c], [0])
        wall = FreeGradedModule(rings[0], [2])
        bound = FreeGradedModule(rings[0], [2])
        M = FanComplex(
            fan, {c: ray, 0: wall},
            {(c, 0): PolyMatrix(bound, wall, {(0, 0): {(): 1}})}, (-2, 6),
        )
        # t*e is outside the degree-2 kernel: not closed
        with pytest.raises(CertificateError, match="not closed"):
            kernel_cover(M, rings[c], [c], [0], memo)
    assert memo == {}
