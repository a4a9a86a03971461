"""Restriction between cone rings against an evaluation oracle.

The image of a source monomial u in the target ring is read off column
(0, u) of PolyMatrix.evaluate for the map between rank-one modules whose
one entry is 1, and checked by value: at random integer points x of the
target ring's coordinates, the image of u must equal u evaluated at the
source-basis coordinates of the same vector sum(x_j b_j), which this
file solves with plain Fraction elimination.
The pairs are every (cone, face) of the corpus fans, every ("A", cone),
and every (target cone, tile) of the five subdivision pairs, of
cubestar -> cubefan, of the three pairs that also subdivide a facet of
a target cone, and of drawn stellar subdivisions of corpus fans.  A
tile with a basis ray outside its target cone's basis takes the solve
branch of restriction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fansheaf import modules
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.modules import (
    ConeRing,
    FreeGradedModule,
    PolyMatrix,
    cone_ring,
    restriction,
)
from fansheaf.polys import degree

from conftest import FACET_SUBDIVISIONS, fan_file, fan_path
from strategies import CORPUS, stellar_subdivisions
from test_fans import _count_calls

SUBDIVISIONS = [
    ("p2", "p2"),
    ("blowquad", "quadrant"),
    ("p2blow", "p2"),
    ("starsq", "conesquare"),
    ("twostep", "quadrant"),
]
MAX_DEGREE = 6


def monomial_images(src, tgt, top):
    """Image in the target ring of every source monomial of total degree
    at most top, by evaluating the one-entry map with entry 1."""
    pm = PolyMatrix(
        FreeGradedModule(src, [0]),
        FreeGradedModule(tgt, [0]),
        {(0, 0): {(0,) * tgt.nvars: 1}},
    )
    out = {}
    for d in range(0, 2 * top + 1, 2):
        rows = pm.evaluate(d)
        tgt_basis = pm.target.piece_basis(d)
        for col, (_, u) in enumerate(pm.source.piece_basis(d)):
            out[u] = {
                v: row[col]
                for (_, v), row in zip(tgt_basis, rows)
                if col in row
            }
    return out


def coords(basis, v):
    """Coordinates of v in a linearly independent basis, by Gauss-Jordan
    elimination on Fractions; None when v is outside the span."""
    k = len(basis)
    rows = [[Fraction(b[r]) for b in basis] + [Fraction(v[r])]
            for r in range(len(v))]
    for c in range(k):
        p = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return [rows[c][k] for c in range(k)]


def value(poly, x):
    """poly at the integer point x."""
    total = Fraction(0)
    for e, c in poly.items():
        m = 1
        for xi, ei in zip(x, e):
            m *= xi ** ei
        total += c * m
    return total


def check_pair(src, tgt, n, rng):
    """Every source monomial up to MAX_DEGREE against the oracle at two
    random points."""
    samples = []
    for _ in range(2):
        x = [rng.randint(-5, 5) for _ in range(tgt.nvars)]
        v = [sum(xj * b[r] for xj, b in zip(x, tgt.basis)) for r in range(n)]
        y = coords(src.basis, v)
        assert y is not None, "target span outside source span"
        samples.append((x, y))
    for u, img in monomial_images(src, tgt, MAX_DEGREE).items():
        assert all(len(e) == tgt.nvars for e in img)
        assert degree(img) in (None, 2 * sum(u))
        for x, y in samples:
            want = Fraction(1)
            for yi, ui in zip(y, u):
                want *= yi ** ui
            assert value(img, x) == want, (src.basis, tgt.basis, u)


def corpus_pairs(fan):
    """(source, target) rings: (cone, face) and ("A", cone)."""
    for sigma in fan.cones:
        yield cone_ring(fan, "A"), cone_ring(fan, sigma.index)
        for rho in sigma.face_ids:
            yield cone_ring(fan, sigma.index), cone_ring(fan, rho)


def tile_pairs(fmap):
    """(target cone, tile) rings of a subdivision map; the tiles' rings
    live in another fan."""
    for sigma in fmap.target.cones:
        for tile in fmap.tiles[sigma.index]:
            yield (
                cone_ring(fmap.target, sigma.index),
                cone_ring(fmap.source, tile),
            )


@pytest.mark.parametrize("name", CORPUS)
def test_restriction_matches_evaluation_oracle(corpus, name):
    rng = random.Random(name)
    fan = corpus[name]
    for src, tgt in corpus_pairs(fan):
        check_pair(src, tgt, fan.n, rng)


@pytest.mark.parametrize(
    "src,tgt", [*SUBDIVISIONS, ("cubestar", "cubefan"), *FACET_SUBDIVISIONS]
)
def test_tile_restriction_matches_evaluation_oracle(src, tgt):
    """Target cone rings restricted to the rings of their tiles, which
    live in another fan."""
    rng = random.Random(f"{src}-{tgt}")
    fmap = subdivision_map(load_fan(fan_file(src)), load_fan(fan_file(tgt)))
    checked = 0
    for sigma_ring, tile_ring in tile_pairs(fmap):
        check_pair(sigma_ring, tile_ring, fmap.target.n, rng)
        checked += 1
    assert checked >= len(fmap.target.cones)


@settings(max_examples=12, deadline=None)
@given(fmap=stellar_subdivisions())
def test_stellar_tile_restriction_matches_evaluation_oracle(fmap):
    """Every (target cone, tile) restriction of a drawn stellar
    subdivision of a corpus fan."""
    rng = random.Random(0)
    for sigma_ring, tile_ring in tile_pairs(fmap):
        check_pair(sigma_ring, tile_ring, fmap.target.n, rng)


@pytest.mark.parametrize("name", ["p4", "cubestar"])
def test_simplicial_faces_restrict_without_elimination(monkeypatch, name):
    """Every basis ray of a face of a simplicial cone is one of the
    cone's, so each (cone, face) restriction is read off by position,
    with no rref and no solve, from an empty table."""
    fan = load_fan(fan_file(name))
    monkeypatch.setattr(modules, "_RESTRICTIONS", {})
    calls = _count_calls(monkeypatch, "rref", "solve")
    for sigma in fan.cones:
        for rho in sigma.face_ids:
            restriction(cone_ring(fan, sigma.index), cone_ring(fan, rho))
    assert len(modules._RESTRICTIONS) > len(fan.cones)
    assert not calls["rref"] and not calls["solve"]


@pytest.mark.parametrize("name", ["p2blow", "p3", "cubefan", "conecube"])
def test_restriction_is_functorial(corpus, name):
    """A -> sigma -> rho equals A -> rho on every monomial up to degree 4."""
    fan = corpus[name]
    amb = cone_ring(fan, "A")
    for sigma in fan.cones:
        sig = cone_ring(fan, sigma.index)
        to_sig = monomial_images(amb, sig, 4)
        for rho in sigma.face_ids:
            r = cone_ring(fan, rho)
            sig_to_r = monomial_images(sig, r, 4)
            for u, p in monomial_images(amb, r, 4).items():
                two_steps = {}
                for v, c in to_sig[u].items():
                    for e, x in sig_to_r[v].items():
                        two_steps[e] = two_steps.get(e, 0) + c * x
                assert {e: x for e, x in two_steps.items() if x} == p


@pytest.mark.parametrize("name", CORPUS)
def test_two_parses_give_equal_restrictions(monkeypatch, name):
    """Each parse computes its restrictions from an empty cache."""

    def table():
        monkeypatch.setattr(modules, "_RESTRICTIONS", {})
        fan = load_fan(fan_path(name))
        out = {}
        for src, tgt in corpus_pairs(fan):
            out[(src.label, tgt.label)] = (
                restriction(src, tgt),
                monomial_images(src, tgt, 3),
            )
        return out

    assert table() == table()


def test_cache_is_keyed_by_basis_content():
    """Rings with equal bases share one entry, whatever their labels and
    fans; equal bases restrict by the identity pairs."""
    plane = ConeRing("A", 2, ((1, 0), (0, 1)))
    ray = ConeRing(3, 1, ((1, 1),))
    images = restriction(plane, ray)
    assert images == (((0, 1),), ((0, 1),))
    twin = ConeRing("other", 1, tuple(tuple(b) for b in [[1, 1]]))
    assert restriction(ConeRing(0, 2, ((1, 0), (0, 1))), twin) is images
    assert restriction(ray, twin) == (((0, 1),),)
    assert restriction(plane, plane) == (((0, 1),), ((1, 1),))
    assert monomial_images(ray, twin, 3)[(3,)] == {(3,): 1}
    for key in modules._RESTRICTIONS:
        assert all(
            isinstance(basis, tuple)
            and all(isinstance(a, int) for b in basis for a in b)
            for basis in key
        )


@pytest.mark.parametrize("name", CORPUS)
def test_origin_ring_restricts_by_empty_forms(monkeypatch, name):
    """The origin's ring has no variables and an empty basis: restricted
    to itself it gives (), and every source variable restricts to it as
    the empty form.  From an empty cache, so the equal-basis case is
    computed here and not read off an earlier entry."""
    monkeypatch.setattr(modules, "_RESTRICTIONS", {})
    fan = load_fan(fan_path(name))
    origin = cone_ring(fan, 0)
    assert origin.basis == () and origin.nvars == 0
    assert restriction(origin, origin) == ()
    for key in ["A"] + [c.index for c in fan.cones if c.dim]:
        ring = cone_ring(fan, key)
        assert restriction(ring, origin) == ((),) * ring.nvars
    assert monomial_images(origin, origin, 3) == {(): {(): 1}}
