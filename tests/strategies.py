"""Hypothesis strategies for valid fans.

Every fan a strategy draws is one that Fan.from_cones accepts; a drawn
fan that it rejects is a bug in the strategy, never a case to skip.
"""

from functools import lru_cache
from math import atan2, gcd

from hypothesis import assume
from hypothesis import strategies as st

from fansheaf.fans import Fan, load_fan, primitive, subdivision_map

from conftest import fan_path

CORPUS = [
    "p1", "p2", "p1xp1", "p3", "p2blow", "cubefan",
    "quadrant", "conesquare", "conecube", "blowquad", "starsq", "twostep",
]


@lru_cache(maxsize=None)
def _corpus_fan(name):
    return load_fan(fan_path(name))


@st.composite
def stellar_subdivisions(draw):
    """The stellar subdivision of a corpus fan at v = primitive(sum of
    the rays of a cone tau), dim tau >= 2, as its subdivision map onto
    that fan.

    Each maximal cone sigma containing tau becomes the cones on the rays
    of F and v, one per facet F of sigma that does not contain tau; v
    lies outside the span of such an F, so each is a pyramid over F.
    The other maximal cones stay.
    """
    fans = [_corpus_fan(name) for name in CORPUS]
    fan = draw(st.sampled_from([f for f in fans if f.n >= 2]))
    tau = draw(st.sampled_from([c.index for c in fan.cones if c.dim >= 2]))
    gens = [fan.rays[r] for r in fan.cones[tau].rays]
    v = primitive([sum(a) for a in zip(*gens)])
    on_tau = set(fan.cones[tau].rays)
    cones = []
    for s in fan.maximal_cone_ids():
        sigma = fan.cones[s]
        if not on_tau <= set(sigma.rays):
            cones.append(list(sigma.rays))
            continue
        for f in sigma.facet_ids:
            face = fan.cones[f].rays
            if not on_tau <= set(face):
                cones.append(list(face) + [len(fan.rays)])
    rays = list(fan.rays) + [v]
    fmap = subdivision_map(Fan.from_cones(fan.n, rays, cones), fan)
    assert fmap.proper, "a stellar subdivision has the support of its fan"
    return fmap


# primitive vectors of the plane with entries in [-3, 3]
PLANE_RAYS = [
    (a, b)
    for a in range(-3, 4)
    for b in range(-3, 4)
    if gcd(a, b) == 1
]


@st.composite
def complete_fans_2d(draw):
    """A complete fan of the plane on 3 to 6 distinct primitive rays
    with entries in [-3, 3].

    The rays are ordered by angle and each consecutive pair, the last
    with the first, spans a cone.  Every consecutive cross product must
    be positive: then each cone is strictly convex, turns less than a
    half-plane, and the cones go once round the origin, so they meet
    only in common rays and cover the plane.
    """
    rays = draw(
        st.lists(st.sampled_from(PLANE_RAYS), min_size=3, max_size=6,
                 unique=True)
    )
    rays.sort(key=lambda v: atan2(v[1], v[0]))
    pairs = [(i, (i + 1) % len(rays)) for i in range(len(rays))]
    assume(all(
        rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] > 0
        for i, j in pairs
    ))
    return Fan.from_cones(2, rays, [list(pair) for pair in pairs])


@st.composite
def incomplete_fans_2d(draw):
    """A fan drawn by complete_fans_2d(), the fan left when one or more
    of its maximal cones, not all, are dropped, and the dropped cones'
    ids in the first fan.

    The remaining cones, with only their own rays, still form a fan.
    Its support misses the interior of every dropped cone, since the
    cones of the complete fan meet only in common faces.
    """
    fan = draw(complete_fans_2d())
    top = fan.maximal_cone_ids()
    dropped = draw(st.sets(
        st.sampled_from(top), min_size=1, max_size=len(top) - 1
    ))
    kept = [fan.cones[i].rays for i in top if i not in dropped]
    rays = sorted({r for c in kept for r in c})
    part = Fan.from_cones(
        2,
        [fan.rays[r] for r in rays],
        [[rays.index(r) for r in c] for c in kept],
    )
    return fan, part, sorted(dropped)
