"""Hand-rolled graded dimension counts for two small fans, a naive
polynomial product and substitution, the symbolic composite of a
complex's differential, the leftmost-pivot minimal-generator scan, and
the all-pairs fan check.

All but the last share no code with the package: pieces are enumerated
monomial by monomial and the defining linear systems are solved with
plain Fraction elimination.  The all-pairs fan check runs the package's
own per-pair test on every pair of cones, so it checks the restriction
to pairs of maximal cones, not the geometry of one pair.

Functions on a full cone are homogeneous polynomials in
the ambient coordinates; on a ray they are polynomials in one parameter
via the parametrization t -> t * ray; at the origin only the ground
field survives.  All generators sit in degree -(ambient dimension), and
a variable has degree 2, so the piece of internal degree d on a cone
holds the monomials of polynomial degree (d + n) / 2.
"""

from fractions import Fraction
from itertools import combinations

from fansheaf.fans import intersect_cones


def monos2(j):
    """Monomials x^a y^b of polynomial degree j."""
    if j < 0:
        return []
    return [(a, j - a) for a in range(j + 1)]


def rank(mat):
    """Rank of a small matrix over the rationals, plain elimination."""
    rows = [[Fraction(x) for x in row] for row in mat if any(row)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def line_dims(window):
    """Module and cohomology dimensions for the fan of the line.

    Cones: origin 'o', rays 'plus' and 'minus'.  Each ray module is free
    of rank one on a degree -1 generator; its piece at degree d is the
    single monomial t^((d+1)/2).  The origin keeps the ground field in
    degree -1, and each ray generator restricts to it with coefficient 1.
    """
    lo, hi = window
    modules = {}
    cohom = {}
    for d in range(lo, hi + 1):
        ray_dim = 1 if d >= -1 and (d + 1) % 2 == 0 else 0
        o_dim = 1 if d == -1 else 0
        modules[("o", d)] = o_dim
        modules[("plus", d)] = ray_dim
        modules[("minus", d)] = ray_dim
        if ray_dim and o_dim:
            # t^0 generators restrict to the field generator
            boundary = [[1, 1]]
        else:
            boundary = []
        rk = rank(boundary) if boundary else 0
        h_rays = 2 * ray_dim - rk
        h_o = o_dim - rk
        if h_rays:
            cohom[(-1, d)] = h_rays
        if h_o:
            cohom[(0, d)] = h_o
    return modules, cohom


def _ray_row(j, ray):
    """Restriction of the degree-j monomials to a ray, coefficient of t^j."""
    return [
        Fraction(ray[0]) ** a * Fraction(ray[1]) ** b for (a, b) in monos2(j)
    ]


def subdivided_quadrant_dims(window):
    """Dimensions for the quadrant subdivided along the diagonal.

    Rays u = (1,0), m = (1,1), v = (0,1); full cones s1 = <u, m> and
    s2 = <m, v>.  Boundary coefficients on each full cone are +1 toward
    its first listed ray and -1 toward the second, which makes the
    composite through the origin cancel.  Returns module dimensions
    keyed by (rayset, degree) and cohomology keyed by (slot, degree).
    """
    lo, hi = window
    u, m, v = (1, 0), (1, 1), (0, 1)
    modules = {}
    cohom = {}
    for d in range(lo, hi + 1):
        if (d + 2) % 2:
            continue
        j = (d + 2) // 2
        two_dim = len(monos2(j))
        ray_dim = 1 if j >= 0 else 0
        o_dim = 1 if d == -2 else 0
        modules[(frozenset([u, m]), d)] = two_dim
        modules[(frozenset([m, v]), d)] = two_dim
        for r in (u, m, v):
            modules[(frozenset([r]), d)] = ray_dim
        modules[(frozenset(), d)] = o_dim
        # slot -2 -> slot -1: rows u, m, v over columns s1 then s2
        d2 = []
        if ray_dim:
            zero = [Fraction(0)] * two_dim
            d2.append(_ray_row(j, u) + zero)
            d2.append([-c for c in _ray_row(j, m)] + _ray_row(j, m))
            d2.append(zero + [-c for c in _ray_row(j, v)])
        # slot -1 -> slot 0: each ray generator restricts to the field
        d1 = [[1, 1, 1]] if (ray_dim and o_dim) else []
        rk2 = rank(d2) if d2 else 0
        rk1 = rank(d1) if d1 else 0
        h2 = 2 * two_dim - rk2
        h1 = 3 * ray_dim - rk2 - rk1
        h0 = o_dim - rk1
        for slot, val in ((-2, h2), (-1, h1), (0, h0)):
            if val:
                cohom[(slot, d)] = val
    return modules, cohom


def quadrant_image_dims(window):
    """Section dimensions of the direct image on the undivided quadrant.

    At the top cone, sections are pairs of polynomials on the two tiles
    whose boundary components along the shared interior ray cancel; on
    rays and at the origin the image keeps the single tile's module.
    """
    lo, hi = window
    m = (1, 1)
    out = {}
    for d in range(lo, hi + 1):
        if (d + 2) % 2:
            continue
        j = (d + 2) // 2
        two_dim = len(monos2(j))
        if two_dim == 0:
            continue
        wall = [[-c for c in _ray_row(j, m)] + _ray_row(j, m)]
        out[d] = 2 * two_dim - rank(wall)
    return out


def mul(a, b):
    """Product of two polynomials given as {exponent tuple: coefficient}."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def substitute(terms, images, target_nvars):
    """Ring map t_i -> images[i] by expanding every power afresh.

    terms and each image are {exponent tuple: coefficient} dicts, the
    images in target_nvars variables; returns the image as such a dict.
    """
    out = {}
    for exp, c in terms.items():
        term = {(0,) * target_nvars: Fraction(c)}
        for i, e in enumerate(exp):
            for _ in range(e):
                term = mul(term, images[i])
        for e, x in term.items():
            out[e] = out.get(e, 0) + x
    return {e: c for e, c in out.items() if c}


def nonzero_composites(M, var_images):
    """(sigma, rho) pairs of a complex whose composite differential
    sigma -> rho, summed over the facets between them, is nonzero.

    Composes symbolically: each entry of the first map is moved into the
    face's ring by substitute and multiplied by the second map's
    entries.  var_images(source ring, target ring) gives the source
    variables' images as {exponent tuple: coefficient} dicts, or None
    when the two rings share a basis.  Only the fan's face lists and the
    maps' entries are read.
    """
    fan = M.fan
    out = set()
    for sigma in fan.cones:
        s = sigma.index
        for rho in sigma.face_ids:
            if fan.cones[rho].dim != sigma.dim - 2:
                continue
            total = {}
            for t in sigma.facet_ids:
                if (s, t) not in M.maps or (t, rho) not in M.maps:
                    continue
                first, second = M.maps[(s, t)], M.maps[(t, rho)]
                images = var_images(first.target.ring, second.target.ring)
                nv = second.target.ring.nvars
                for (i, j), q in first.entries.items():
                    moved = (
                        dict(q)
                        if images is None
                        else substitute(q, images, nv)
                    )
                    for (k, i2), p in second.entries.items():
                        if i2 != i:
                            continue
                        acc = total.setdefault((k, j), {})
                        for e, c in mul(p, moved).items():
                            acc[e] = acc.get(e, 0) + c
            if any(c for acc in total.values() for c in acc.values()):
                out.add((s, rho))
    return out


class _Leftmost:
    """Span of sparse vectors kept as Fraction rows keyed by their
    leftmost column, each scaled to 1 there."""

    def __init__(self):
        self.rows = {}

    def insert(self, vec):
        """Add vec to the span; True if it enlarged it."""
        v = {j: Fraction(x) for j, x in vec.items() if x}
        while v:
            c = min(v)
            row = self.rows.get(c)
            if row is None:
                self.rows[c] = {j: x / v[c] for j, x in v.items()}
                return True
            f = v[c]
            for j, x in row.items():
                y = v.get(j, 0) - f * x
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
        return False


def leftmost_generators(window, nvars, basis_at, dim_at, mult):
    """Minimal generators of a graded subspace family, one vector at a
    time with leftmost pivots.

    basis_at(d) lists the degree-d basis as sparse vectors, dim_at(d) is
    the ambient dimension and mult(i, d, vec) the image of a degree-d
    vector under base variable i.  In each degree every image must lie
    in the span of the basis; then basis rows, scanned in order, that
    enlarge the span of the images and of the rows chosen before are
    generators.  Returns the (degree, row) list, or ("not closed", d)
    or ("window exhausted", d) for the first degree that fails, with
    the closure check first.
    """
    lo, hi = window
    gens = []
    for d in range(lo, hi + 1):
        zd = basis_at(d)
        if not zd and dim_at(d) == 0:
            continue
        prev = basis_at(d - 2) if d - 2 >= lo else ()
        zspan = _Leftmost()
        for z in zd:
            zspan.insert(z)
        reducer = _Leftmost()
        for i in range(nvars):
            for z in prev:
                img = mult(i, d - 2, z)
                if not img:
                    continue
                if zspan.insert(img):
                    return ("not closed", d)
                reducer.insert(img)
        for z in zd:
            if len(reducer.rows) == len(zd):
                break
            if reducer.insert(z):
                if d > hi - 2:
                    return ("window exhausted", d)
                gens.append((d, z))
    return gens


def all_pairs_valid(fan):
    """Do all pairs of positive-dimensional cones of a fan meet along a
    common face, spanned by their common rays?  The fan is built without
    its own pair check; every pair gets the membership test and the
    intersection test of Fan._validate_pairwise."""
    cones = [c for c in fan.cones if c.dim >= 1]
    for a, b in combinations(cones, 2):
        common = frozenset(a.rays) & frozenset(b.rays)
        if common not in a.face_ray_sets or common not in b.face_ray_sets:
            return False
        gens = [fan.rays[i] for i in a.rays]
        want = tuple(sorted(fan.rays[i] for i in common))
        if intersect_cones(gens, b) != want:
            return False
    return True
