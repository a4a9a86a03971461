"""Fan geometry: parsing, face lattices, signs, quotients, subdivisions."""

import itertools

import pytest

from fansheaf.errors import InputError
from fansheaf.fans import (
    Fan,
    is_complete,
    load_fan,
    parse_fan,
    quotient_fan,
    subdivision_map,
)

from conftest import fan_path


def test_parse_p2_counts(corpus):
    fan = corpus["p2"]
    assert fan.n == 2
    assert len(fan.rays) == 3
    # origin + 3 rays + 3 two-cones
    assert len(fan.cones) == 7
    assert [c.dim for c in fan.cones] == [0, 1, 1, 1, 2, 2, 2]
    assert fan.cones[0].rays == ()


def test_parse_cone_over_square_counts(corpus):
    fan = corpus["conesquare"]
    # origin + 4 rays + 4 walls + top: 10 faces from one listed cone
    assert len(fan.cones) == 10
    assert [c.dim for c in fan.cones].count(2) == 4
    top = fan.cones[-1]
    assert top.dim == 3 and len(top.rays) == 4


def test_rays_sorted_lex(corpus):
    for fan in corpus.values():
        assert list(fan.rays) == sorted(fan.rays)


def test_canonical_order_and_round_trip(corpus):
    for name, fan in corpus.items():
        keys = [(c.dim, c.rays) for c in fan.cones]
        assert keys == sorted(keys)
        fan2 = parse_fan(fan.to_text())
        assert fan2.to_text() == fan.to_text()
        assert len(fan2.cones) == len(fan.cones)


def test_parse_errors():
    with pytest.raises(InputError):
        parse_fan("dim 2\nray 0: 1 0\nray 1: 1 0\ncone: 0 1\n")  # duplicate ray
    with pytest.raises(InputError):
        parse_fan("dim 2\nray 0: 1 0\ncone: 0 1\n")  # unknown ray id
    with pytest.raises(InputError):
        parse_fan("dim 2\nray 0: 1 0\nray 1: 2 0\ncone: 0 1\n")  # non-primitive
    with pytest.raises(InputError):
        parse_fan("dim 1\nray 0: 1\nray 1: -1\ncone: 0 1\n")  # contains a line
    with pytest.raises(InputError):
        # e1+e2 is not an extreme ray of the quadrant
        parse_fan("dim 2\nray 0: 1 0\nray 1: 0 1\nray 2: 1 1\ncone: 0 1 2\n")
    with pytest.raises(InputError):
        # overlapping 2-cones that do not meet along a face
        parse_fan(
            "dim 2\nray 0: 1 0\nray 1: 0 1\nray 2: 1 1\nray 3: -1 1\n"
            "cone: 0 1\ncone: 2 3\n"
        )
    with pytest.raises(InputError):
        parse_fan("ray 0: 1 0\n")  # missing dim
    with pytest.raises(InputError):
        parse_fan("dim 2\nsphere 1\n")  # unknown directive


def test_face_relations(corpus):
    fan = corpus["p2"]
    for c in fan.cones:
        assert fan.is_face(0, c.index)
        assert fan.is_face(c.index, c.index)
    top = [c.index for c in fan.cones if c.dim == 2]
    rays = [c.index for c in fan.cones if c.dim == 1]
    for t in top:
        fs = fan.cones[t].facet_ids
        assert len(fs) == 2 and all(f in rays for f in fs)
    # stars
    assert fan.star(0) == tuple(range(7))
    r = rays[0]
    ray_idx = fan.cones[r].rays[0]
    star = fan.star(r)
    assert r in star
    assert all(ray_idx in fan.cones[s].rays for s in star)
    assert len(star) == 3


def test_is_complete(corpus):
    complete = {"p1", "p2", "p1xp1", "p3", "p2blow", "cubefan"}
    for name, fan in corpus.items():
        assert is_complete(fan) == (name in complete), name


def test_is_complete_grid_oracle(corpus):
    """Independent membership check on an integer grid."""
    for name in ["p2", "quadrant", "blowquad", "p1xp1"]:
        fan = corpus[name]
        pts = itertools.product(range(-3, 4), repeat=fan.n)
        covered = all(fan.contains_point(p) for p in pts)
        assert covered == is_complete(fan), name


def test_membership(corpus):
    fan = corpus["quadrant"]
    top = fan.cones[-1].index
    assert fan.contains_vector(top, (2, 5))
    assert fan.contains_vector(top, (0, 0))
    assert not fan.contains_vector(top, (-1, 2))
    ray = fan.cone_by_rays([fan.rays.index((1, 0))])
    assert fan.contains_vector(ray, (3, 0))
    assert not fan.contains_vector(ray, (3, 1))
    assert fan.contains_vector(0, (0, 0))
    assert not fan.contains_vector(0, (1, 0))


def test_incidence_sign_reference_example(corpus):
    """Quadrant: facet signs are (+1, -1) in canonical cone order."""
    fan = corpus["quadrant"]
    top = fan.cones[-1].index
    f1, f2 = fan.cones[top].facet_ids
    assert fan.rays[fan.cones[f1].rays[0]] == (0, 1)
    assert fan.incidence_sign(top, f1) == 1
    assert fan.incidence_sign(top, f2) == -1
    for r in (f1, f2):
        assert fan.incidence_sign(r, 0) == 1


def test_incidence_sign_codim2_products(corpus):
    """For each codim-2 pair rho < sigma the two paths have opposite
    products, equivalently the four signs multiply to -1."""
    for name in ["p2", "p3", "cubefan", "conesquare", "conecube", "p1xp1"]:
        fan = corpus[name]
        for sigma in fan.cones:
            if sigma.dim < 2:
                continue
            for rho_id in sigma.face_ids:
                if fan.cones[rho_id].dim != sigma.dim - 2:
                    continue
                paths = [
                    t
                    for t in sigma.facet_ids
                    if rho_id in fan.cones[t].facet_ids
                ]
                assert len(paths) == 2, (name, sigma.index, rho_id)
                t1, t2 = paths
                prod = (
                    fan.incidence_sign(sigma.index, t1)
                    * fan.incidence_sign(t1, rho_id)
                    * fan.incidence_sign(sigma.index, t2)
                    * fan.incidence_sign(t2, rho_id)
                )
                assert prod == -1


def test_quotient_by_origin_is_isomorphic(corpus):
    fan = corpus["p2"]
    qfan, cmap, proj = quotient_fan(fan, 0)
    assert len(qfan.cones) == len(fan.cones)
    assert sorted(cmap) == list(range(len(fan.cones)))
    assert [list(r) for r in proj] == [[1, 0], [0, 1]]


def test_quotient_p2_at_ray(corpus):
    """The star of a ray in the p2 fan maps onto a complete 1-dim fan."""
    fan = corpus["p2"]
    ray_id = fan.cones_of_dim(1)[0]
    qfan, cmap, _ = quotient_fan(fan, ray_id)
    assert qfan.n == 1
    assert is_complete(qfan)
    assert len(cmap) == 3  # the ray and its two 2-cones; o is not in the star
    assert qfan.cones[cmap[ray_id]].dim == 0


def test_quotient_top_cone_is_point(corpus):
    fan = corpus["quadrant"]
    top = fan.cones[-1].index
    qfan, cmap, _ = quotient_fan(fan, top)
    assert qfan.n == 0
    assert len(qfan.cones) == 1
    assert cmap[top] == 0


def test_quotient_cone_over_square_at_ray(corpus):
    fan = corpus["conesquare"]
    ray_id = fan.cones_of_dim(1)[0]
    qfan, cmap, _ = quotient_fan(fan, ray_id)
    assert qfan.n == 2
    dims = sorted(qfan.cones[v].dim for v in cmap.values())
    assert dims == [0, 1, 1, 2]


def test_subdivision_map_blowup(corpus):
    src, tgt = corpus["blowquad"], corpus["quadrant"]
    fm = subdivision_map(src, tgt)
    assert fm.proper
    quad = tgt.cones[-1].index
    pre = fm.preimage_cones(quad)
    assert len(pre) == 2
    assert all(src.cones[p].dim == 2 for p in pre)
    # the diagonal ray sits over the quadrant, not over a boundary ray
    diag = src.cone_by_rays([src.rays.index((1, 1))])
    assert fm.assignment[diag] == quad
    # boundary rays map to boundary rays
    for v in [(0, 1), (1, 0)]:
        s = src.cone_by_rays([src.rays.index(v)])
        t = tgt.cone_by_rays([tgt.rays.index(v)])
        assert fm.assignment[s] == t


def test_subdivision_map_not_proper(corpus):
    half = parse_fan("dim 2\nray 0: 1 0\nray 1: 1 1\ncone: 0 1\n")
    fm = subdivision_map(half, corpus["quadrant"])
    assert not fm.proper


def test_subdivision_map_not_contained(corpus):
    outside = parse_fan("dim 2\nray 0: -1 0\nray 1: 0 1\ncone: 0 1\n")
    with pytest.raises(InputError):
        subdivision_map(outside, corpus["quadrant"])


def test_subdivision_map_explicit_directives(corpus):
    """The assignment is always inferred, never read from the fan file:
    it matches the cone-by-cone directives written out here, and a
    `map:` line in a fan file is refused."""
    src, tgt = corpus["blowquad"], corpus["quadrant"]
    fm = subdivision_map(src, tgt)
    # origin, the two boundary rays, then the new ray and both 2-cones
    # inside the quadrant's interior
    assert fm.assignment == (0, 1, 2, 3, 3, 3)
    with pytest.raises(InputError):
        parse_fan(src.to_text() + "map: 0 -> 0\n")


def test_subdivision_identity(corpus):
    fan = corpus["p2"]
    fm = subdivision_map(fan, fan)
    assert fm.proper
    assert fm.assignment == tuple(range(len(fan.cones)))


def test_subdivision_two_step(corpus):
    fm = subdivision_map(corpus["twostep"], corpus["quadrant"])
    assert fm.proper
    assert len(fm.preimage_cones(corpus["quadrant"].cones[-1].index)) == 3


def test_subdivision_star_square(corpus):
    fm = subdivision_map(corpus["starsq"], corpus["conesquare"])
    assert fm.proper
    top = corpus["conesquare"].cones[-1].index
    assert len(fm.preimage_cones(top)) == 4
    # each wall of the target is its own preimage tile
    for w in corpus["conesquare"].cones_of_dim(2):
        assert len(fm.preimage_cones(w)) == 1


def test_fan_of_origin_only():
    fan = parse_fan("dim 2\n")
    assert len(fan.cones) == 1
    assert fan.cones[0].dim == 0
    assert not is_complete(fan)
    fan2 = parse_fan(fan.to_text())
    assert len(fan2.cones) == 1


def test_incidence_sign_cache_matches_fresh(corpus):
    """Cached signs equal a fresh computation on a newly parsed fan, for
    every (cone, facet) pair of every corpus fan."""
    for name, fan in corpus.items():
        fresh = load_fan(fan_path(name))
        for cone in fan.cones:
            for f in cone.facet_ids:
                want = fresh._orientation_sign(cone.index, f)
                assert fan.incidence_sign(cone.index, f) == want
                assert fan._signs[(cone.index, f)] == want
                assert fan.incidence_sign(cone.index, f) == want
        assert not fresh._signs
