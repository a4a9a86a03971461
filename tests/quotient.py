"""Quotient of a fan's star by a cone's span, for the stalk tests.

The stalk of a minimal complex at a cone is governed by the quotient
fan of the cone's star, so tests build the minimal complex on that
quotient and compare.  The package itself never forms quotients.
"""

from fansheaf.errors import CertificateError
from fansheaf.fans import Fan, dot, primitive

from brute_oracle import cone_data


def cone_by_rays(fan, ray_indices):
    """Id of the cone of a fan whose rays are exactly the listed ray
    indices."""
    key = frozenset(ray_indices)
    for c in fan.cones:
        if frozenset(c.rays) == key:
            return c.index
    raise CertificateError(f"no cone with rays {sorted(key)}")


def quotient_fan(fan, cone_id):
    """Quotient of the star of a cone by the cone's linear span.

    Returns (qfan, cone_map, projection) where projection is the integer
    matrix whose rows are the span equations of the cone (kernel exactly
    the span), and cone_map sends each star cone id to its image cone id.
    The image is checked to be a fan combinatorially isomorphic to the
    star; any failure raises CertificateError.
    """
    c = fan.cones[cone_id]
    proj = c.span_eqs
    m = len(proj)
    star = fan.star(cone_id)

    image_rays = {}
    image_sets = {}
    for t in star:
        vecs = []
        for r in fan.cones[t].rays:
            w = tuple(dot(row, fan.rays[r]) for row in proj)
            if any(w):
                vecs.append(primitive(w))
        if vecs:
            ext = cone_data(vecs, m, allow_redundant=True).extreme
        else:
            ext = ()
        image_sets[t] = ext
        for v in ext:
            image_rays.setdefault(v, len(image_rays))

    ray_vecs = list(image_rays)
    qfan = Fan.from_cones(
        m, ray_vecs, [[image_rays[v] for v in image_sets[t]] for t in star]
    )
    cone_map = {}
    for t in star:
        idxs = [qfan.rays.index(v) for v in image_sets[t]]
        cone_map[t] = cone_by_rays(qfan, idxs)
        if qfan.cones[cone_map[t]].dim != fan.cones[t].dim - c.dim:
            raise CertificateError("quotient image has wrong dimension")
    if len(set(cone_map.values())) != len(star) or len(qfan.cones) != len(star):
        raise CertificateError("quotient is not a bijection on the star")
    for a in star:
        for b in star:
            if fan.is_face(a, b) != qfan.is_face(cone_map[a], cone_map[b]):
                raise CertificateError("quotient does not preserve face relations")
    return qfan, cone_map, proj
