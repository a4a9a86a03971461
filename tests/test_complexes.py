"""Complex structure, validity checks, cohomology, serialization.

The two reference complexes here are written out by hand, entry by
entry, so later builder output can be compared against them.
"""

from collections import Counter
from fractions import Fraction

import pytest

from fansheaf import _linalg, complexes
from fansheaf.complexes import (
    FanComplex,
    assemble,
    boundary_kernel,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
    complex_from_text,
    complex_to_text,
    top_module,
)
from fansheaf.decompose import decomposition_theorem_report
from fansheaf.errors import InputError
from fansheaf.fans import Fan, load_fan, subdivision_map
from fansheaf.minimal import build_minimal, ih_module
from fansheaf.modules import (
    FreeGradedModule,
    PolyMatrix,
    RingTower,
    default_window,
)
from fansheaf.polys import Poly

from conftest import fan_path


def quadrant_complex():
    """Minimal complex on the first quadrant, written out by hand.

    Cones: 0 origin, 1 ray (0,1), 2 ray (1,0), 3 the quadrant.  Every
    module has a single generator in degree -2 and every component of
    the differential is the constant 1, except cone 3 -> cone 2, whose
    -1 carries the cancellation.
    """
    fan = load_fan(fan_path("quadrant"))
    tower = RingTower(fan)
    mods = {
        i: FreeGradedModule(tower.ring(i), [-2]) for i in range(4)
    }
    maps = {}
    for s, t, c in [(1, 0, 1), (2, 0, 1), (3, 1, 1), (3, 2, -1)]:
        nv = tower.ring(t).nvars
        maps[(s, t)] = PolyMatrix(
            mods[s], mods[t], {(0, 0): Poly.const(nv, Fraction(c))}
        )
    return FanComplex(fan, tower, mods, maps, window=default_window(2))


def halfline_pair_complex():
    """Minimal complex on the complete fan in one dimension."""
    fan = load_fan(fan_path("p1"))
    tower = RingTower(fan)
    mods = {
        i: FreeGradedModule(tower.ring(i), [-1]) for i in range(3)
    }
    maps = {}
    for s in (1, 2):
        maps[(s, 0)] = PolyMatrix(
            mods[s], mods[0], {(0, 0): Poly.const(0, Fraction(1))}
        )
    return FanComplex(fan, tower, mods, maps, window=default_window(1))


def test_quadrant_is_valid_complex():
    M = quadrant_complex()
    report = check_complex(M)
    assert report.ok, report.problems
    assert M.support_ids() == (0, 1, 2, 3)


def test_corrupted_entry_breaks_d_squared():
    M = quadrant_complex()
    bad = dict(M.maps)
    bad[(3, 2)] = PolyMatrix(
        M.modules[3], M.modules[2], {(0, 0): Poly.const(1, Fraction(1))}
    )
    report = check_complex(FanComplex(M.fan, M.tower, M.modules, bad))
    assert not report.ok
    assert any("composite" in p for p in report.problems)


def test_inhomogeneous_entry_rejected():
    M = quadrant_complex()
    bad = dict(M.maps)
    bad[(3, 1)] = PolyMatrix(
        M.modules[3], M.modules[1], {(0, 0): Poly.variable(1, 0)}
    )
    report = check_complex(FanComplex(M.fan, M.tower, M.modules, bad))
    assert not report.ok


def test_assembled_differential_layout():
    M = quadrant_complex()
    mat = assemble(M, [3], [1, 2], -2)
    assert mat == [{0: 1}, {0: -1}]
    mat0 = assemble(M, [1, 2], [0], -2)
    assert mat0 == [{0: 1, 1: 1}]


def test_boundary_kernel_dims_quadrant():
    M = quadrant_complex()
    fam, facets = boundary_kernel(M, 3, (-2, 6))
    assert facets == [1, 2]
    assert [fam.dim_at(d) for d in (-2, 0, 2, 4, 6)] == [1, 2, 2, 2, 2]
    assert fam.basis_at(-2) == ({0: 1, 1: -1},)


def test_local_exactness_quadrant():
    M = quadrant_complex()
    report = check_locally_exact(M, M.window)
    assert report.ok, report.problems


def test_missing_top_module_fails_exactness():
    M = quadrant_complex()
    mods = {i: m for i, m in M.modules.items() if i != 3}
    maps = {k: v for k, v in M.maps.items() if k[0] != 3}
    N = FanComplex(M.fan, M.tower, mods, maps, window=M.window)
    report = check_locally_exact(N, M.window)
    assert not report.ok
    assert any(cone == 3 for cone, _, _ in report.problems)


def test_cohomology_quadrant():
    M = quadrant_complex()
    rep = cohomology_degreewise(M, M.window)
    assert rep.dims_at(-2) == {2: 1, 4: 2, 6: 3}
    assert rep.dims_at(-1) == {}
    assert rep.dims_at(0) == {}
    top = top_module(M, M.window)
    assert top.free
    assert top.generator_degrees == (2,)


def test_cohomology_complete_line_fan():
    M = halfline_pair_complex()
    rep = cohomology_degreewise(M, M.window)
    assert rep.dims_at(-1) == {-1: 1, 1: 2, 3: 2, 5: 2}
    assert rep.dims_at(0) == {}
    top = top_module(M, M.window)
    assert top.free
    assert top.generator_degrees == (-1, 1)


def test_euler_identity():
    M = quadrant_complex()
    rep = cohomology_degreewise(M, M.window)
    lo, hi = M.window
    for d in range(lo, hi + 1):
        chi_mod = sum(
            (-1) ** p * sum(M.dim_at(i, d) for i in M.fan.cones_of_dim(-p))
            for p in range(-2, 1)
        )
        chi_h = sum(
            (-1) ** p * rep.table.get((p, d), 0) for p in range(-2, 1)
        )
        assert chi_mod == chi_h


def slotwise_table(M):
    """Cohomology table with both ranks of every slot taken afresh."""
    n = M.fan.n
    by_dim = {
        k: [i for i in M.fan.cones_of_dim(k) if M.rank_at(i)]
        for k in range(n + 1)
    }
    lo, hi = M.window
    table = {}
    for p in range(-n, 1):
        srcs = by_dim[-p]
        tgts = by_dim.get(-p - 1, [])
        nxts = by_dim.get(-p + 1, [])
        for d in range(lo, hi + 1):
            h = sum(M.dim_at(i, d) for i in srcs)
            if tgts and srcs:
                h -= _linalg.rank(assemble(M, srcs, tgts, d))
            if nxts and srcs:
                h -= _linalg.rank(assemble(M, nxts, srcs, d))
            if h:
                table[(p, d)] = h
    return table


@pytest.mark.parametrize("name", ["p3", "cubefan"])
def test_cohomology_ranks_each_differential_once(corpus, monkeypatch, name):
    M = build_minimal(corpus[name])
    expected = slotwise_table(M)
    rank = _linalg.rank
    # id of each assembled matrix -> (the matrix, kept alive so ids stay
    # unique; its source dimension and degree)
    source_of = {}
    ranked = []

    def tagging_assemble(M, src_ids, tgt_ids, d):
        mat = assemble(M, src_ids, tgt_ids, d)
        source_of[id(mat)] = (mat, (M.fan.cones[src_ids[0]].dim, d))
        return mat

    def counting_rank(rows):
        ranked.append(source_of[id(rows)][1])
        return rank(rows)

    monkeypatch.setattr(complexes, "assemble", tagging_assemble)
    monkeypatch.setattr(_linalg, "rank", counting_rank)
    rep = cohomology_degreewise(M, M.window)
    assert ranked
    assert max(Counter(ranked).values()) == 1
    assert rep.table == expected


def test_serialization_round_trip():
    M = quadrant_complex()
    text = complex_to_text(M)
    N = complex_from_text(text)
    assert N.window == M.window
    assert N.support_ids() == M.support_ids()
    assert sorted(N.maps) == sorted(M.maps)
    for key in M.maps:
        assert N.maps[key].entries == M.maps[key].entries
    assert complex_to_text(N) == text


def test_orientation_signs_serve_only_the_file_format(monkeypatch):
    """Building, IH and decomposition compute no orientation sign; only
    writing a complex to text does."""
    calls = []
    orientation_sign = Fan._orientation_sign

    def counting(fan, i, j):
        calls.append((i, j))
        return orientation_sign(fan, i, j)

    monkeypatch.setattr(Fan, "_orientation_sign", counting)
    M = build_minimal(load_fan(fan_path("cubefan")))
    ih_module(M)
    src, tgt = load_fan(fan_path("starsq")), load_fan(fan_path("conesquare"))
    decomposition_theorem_report(subdivision_map(src, tgt))
    assert calls == []
    complex_to_text(M)
    assert calls


def test_serialization_rejects_wrong_sign():
    M = quadrant_complex()
    text = complex_to_text(M)
    assert "sign 3 2: -1" in text
    bad = text.replace("sign 3 2: -1", "sign 3 2: +1")
    with pytest.raises(InputError):
        complex_from_text(bad)


def test_serialization_rejects_missing_header():
    with pytest.raises(InputError):
        complex_from_text("dim 2\n")
