"""Hypothesis strategies for valid fans.

Every fan a strategy draws is one that Fan.from_cones accepts; a drawn
fan that it rejects is a bug in the strategy, never a case to skip.
"""

from functools import lru_cache

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
