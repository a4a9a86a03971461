"""Kernel covers reused by content within one builder call.

kernel_cover keys its memo on the full local data of a kernel, so a
reused cover must equal a fresh search at every cone, and ambients that
differ in any part of that data must each get their own search.  A memo
entry is the pair (kernel dimensions, generators): no kernel basis
outlives the search.  A direct image's kernels are cut out by interior
walls alone, so on subdivisions that also subdivide a target facet, each
kernel's image in a facet's tiles is checked to lie in that facet's
kernel.
"""

from functools import cache

import pytest

from fansheaf import _linalg, complexes, minimal, modules
from fansheaf import pushforward as pushforward_module
from fansheaf.complexes import assemble
from fansheaf.decompose import decomposition_theorem_report
from fansheaf.errors import CertificateError, WindowExhausted
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import build_minimal, ih_module
from fansheaf.modules import (
    ConeRing,
    DirectSumAmbient,
    FreeGradedModule,
    family_from_kernel,
    kernel_cover,
    minimal_free_cover,
)
from fansheaf.pushforward import pushforward

from conftest import FACET_SUBDIVISIONS, fan_file
from test_restriction import SUBDIVISIONS


@cache
def _map(src, tgt):
    return subdivision_map(load_fan(fan_file(src)), load_fan(fan_file(tgt)))


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

    def checked(ambient, rows_by_degree, window, memo, local):
        known = len(memo)
        got = kernel_cover(ambient, rows_by_degree, window, memo, local)
        hits.append(len(memo) == known)
        _assert_same_cover(
            got, minimal_free_cover(ambient, rows_by_degree, window)
        )
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

    def recording(ambient, rows_by_degree, window, memo, local):
        bases = family_from_kernel(ambient, rows_by_degree, window)
        families.append((ambient, bases))
        return kernel_cover(ambient, rows_by_degree, window, memo, local)

    monkeypatch.setattr(pushforward_module, "kernel_cover", recording)
    pushforward(fmap, M)
    tiles = {
        c.index: [i for i in fmap.preimage_cones(c.index) if M.rank_at(i)]
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

    def checked(ambient, rows_by_degree, window, memo, local):
        stored = dict(memo)
        got = kernel_cover(ambient, rows_by_degree, window, memo, local)
        fresh = minimal_free_cover(ambient, rows_by_degree, window)
        new = [entry for key, entry in memo.items() if key not in stored]
        lookups.append("miss" if new else "hit")
        assert new in ([], [(fresh.dims, fresh.gens)])
        again = kernel_cover(ambient, _unassembled, window, memo, local)
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
    real_cover, real_search = modules.kernel_cover, modules.minimal_generators

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


def _unit_ring(label, nvars, basis=None):
    if basis is None:
        basis = tuple(
            tuple(int(i == j) for j in range(nvars)) for i in range(nvars)
        )
    return ConeRing(label, nvars, basis)


def _no_rows(d):
    return []


def _unassembled(d):
    raise AssertionError("a memo hit assembles no rows")


def test_key_separates_each_part_of_the_local_data():
    """One memo, pairs of ambients that differ in one part of the key
    only and whose searches give different generators: each ambient gets
    the result of its own search.  No pair differs in a part's variable
    count alone: for a ring built from its basis the forms fix it.  The
    caller's key of the rows, local, names them here."""
    plane = _unit_ring("plane", 2)
    e1 = _unit_ring("e1", 1, ((1, 0),))
    e2 = _unit_ring("e2", 1, ((0, 1),))
    line = _unit_ring("line", 1)

    def free(*parts, base=line):
        return DirectSumAmbient(
            base, [FreeGradedModule(ring, degrees) for ring, degrees in parts]
        )

    def diagonal(d):
        return [{0: 1, 1: 1}] if d == 0 else []

    pairs = [
        # generator degrees (0, 2) and (2, 0): the degree-2 generator
        # sits at another basis position
        (
            (free((line, [0, 2])), _no_rows, "none"),
            (free((line, [2, 0])), _no_rows, "none"),
        ),
        # restriction forms: with both parts on e1 the degree-0 kernel
        # e - e' has a degree-2 generator beside it; on e1 and e2 not
        (
            (free((e1, [0]), (e1, [0]), base=plane), diagonal, "diagonal"),
            (free((e1, [0]), (e2, [0]), base=plane), diagonal, "diagonal"),
        ),
        # constraint rows on one ambient
        (
            (free((line, [0])), _no_rows, "none"),
            (free((line, [0])), lambda d: [{0: 1}] if d == 0 else [], "e"),
        ),
    ]
    memo = {}
    window = (-2, 6)
    for pair in pairs:
        fresh = [
            minimal_free_cover(ambient, rows, window)
            for ambient, rows, _ in pair
        ]
        assert fresh[0].gens != fresh[1].gens
        for (ambient, rows, local), want in zip(pair, fresh):
            got = kernel_cover(ambient, rows, window, memo, local)
            _assert_same_cover(got, want)
    assert len(memo) == 2 * len(pairs)
    # a hit reads no rows: equal local data on a fresh ambient
    ambient, rows, local = pairs[-1][-1]
    again = free((line, [0]))
    got = kernel_cover(again, _unassembled, window, memo, local)
    _assert_same_cover(got, minimal_free_cover(again, rows, window))


def test_key_separates_windows():
    """Over the origin's ring a degree-0 generator leaves every other
    piece zero, so the windows (-2, 2) and (-2, 1) meet the same rows;
    the generator is in the second window's guard zone, which must
    still exhaust after the first window's search is stored."""
    origin = _unit_ring("origin", 0)
    ambient = DirectSumAmbient(origin, [FreeGradedModule(origin, [0])])
    memo = {}
    cover = kernel_cover(ambient, _no_rows, (-2, 2), memo, "none")
    assert cover.module.degrees == (0,)
    with pytest.raises(WindowExhausted):
        kernel_cover(ambient, _no_rows, (-2, 1), memo, "none")


def test_failures_are_not_memoised():
    """Equal local data on two cones: each failing search raises again,
    and a window exhaustion names the cone it fires at."""
    memo = {}
    for label in ("a", "b"):
        ring = _unit_ring(label, 1)
        ambient = DirectSumAmbient(ring, [FreeGradedModule(ring, [0])])
        with pytest.raises(WindowExhausted) as exc:
            kernel_cover(ambient, _no_rows, (-2, 0), memo, "none")
        assert exc.value.cone == label
        # t*e is outside the degree-2 kernel: not closed
        with pytest.raises(CertificateError, match="not closed"):
            kernel_cover(
                ambient, lambda d: [{0: 1}] if d == 2 else [], (-2, 6), memo,
                "e at 2",
            )
    assert memo == {}
