"""Hand-rolled graded dimension counts for two small fans, a naive
polynomial product and substitution, the symbolic composite of a
complex's differential, the leftmost-pivot minimal-generator scan, the
exponent-arithmetic columns of multiplication by a variable, the
reference cone geometry, the all-pairs fan check, and local exactness
by kernel bases and span membership.

The first four share no code with the package: pieces are enumerated
monomial by monomial and the defining linear systems are solved with
plain Fraction elimination.  The multiplication columns read only
the variables' images (modules.restriction, turned into linear term
dicts by linear_images, which the symbolic composite also uses) and the
parts' piece bases from the package, and multiply monomials by adding
exponents.  The reference cone geometry, cone_data and
intersect_cones, is the package's earlier construction kept as it was:
one rank or solve per question in Fraction arithmetic, coordinates from
one solve per vector (span_coords), and each cone intersection built as
a cone with its own extreme rays.  The all-pairs fan check runs that
full intersection test on every pair of cones, so it checks the
restriction to pairs of maximal cones, not the geometry of one pair.
The exactness reference, membership_exactness, is the package's
earlier certificate: it builds each boundary kernel's basis and tests
every basis vector against the span of the module's image, so it also
catches an image that leaves the kernel, which the rank comparison
leaves to check_complex.

Functions on a full cone are homogeneous polynomials in
the ambient coordinates; on a ray they are polynomials in one parameter
via the parametrization t -> t * ray; at the origin only the ground
field survives.  All generators sit in degree -(ambient dimension), and
a variable has degree 2, so the piece of internal degree d on a cone
holds the monomials of polynomial degree (d + n) / 2.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from fansheaf import _linalg
from fansheaf.complexes import assemble, boundary_kernel
from fansheaf.errors import InputError
from fansheaf.fans import ConeData, _dense, _sparse, dot, primitive
from fansheaf.modules import restriction


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


def linear_images(source, target):
    """Images of the source ring's variables as linear term dicts in the
    target ring, read off the (target variable, coefficient) pairs of
    modules.restriction."""
    nv = target.nvars
    return tuple(
        {tuple(int(m == j) for m in range(nv)): c for j, c in form}
        for form in restriction(source, target)
    )


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


def nonzero_composites(M):
    """(sigma, rho) pairs of a complex whose composite differential
    sigma -> rho, summed over the facets between them, is nonzero.

    Composes symbolically: each entry of the first map is moved into the
    face's ring by substitute, the variables' images taken from
    linear_images, and multiplied by the second map's entries.  Only the
    fan's face lists, the rings and the maps' entries are read.
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
                images = linear_images(first.target.ring, second.target.ring)
                nv = second.target.ring.nvars
                for (i, j), q in first.entries.items():
                    moved = substitute(q, images, nv)
                    for (k, i2), p in second.entries.items():
                        if i2 != i:
                            continue
                        acc = total.setdefault((k, j), {})
                        for e, c in mul(p, moved).items():
                            acc[e] = acc.get(e, 0) + c
            if any(c for acc in total.values() for c in acc.values()):
                out.add((s, rho))
    return out


def ambient_basis(ambient, d):
    """Basis [(part, generator, monomial)] of a DirectSumAmbient's
    degree-d piece: the parts' piece bases, part after part."""
    return [
        (k, j, u)
        for k, part in enumerate(ambient.parts)
        for j, u in part.piece_basis(d)
    ]


def mult_by_var_columns(ambient, i, d):
    """Multiplication by base variable i from piece d to piece d + 2 of
    a DirectSumAmbient, built the way the package once did: each basis
    monomial times each term of the variable's image in the part's ring,
    exponents added and the product looked up in the degree-(d + 2)
    basis.  One tuple of (row, coefficient) pairs per column."""
    index = {x: r for r, x in enumerate(ambient_basis(ambient, d + 2))}
    images = [
        linear_images(ambient.base_ring, part.ring)[i]
        for part in ambient.parts
    ]
    return tuple(
        tuple(
            (index[(k, j, tuple(a + b for a, b in zip(u, exp)))], c)
            for exp, c in images[k].items()
        )
        for k, j, u in ambient_basis(ambient, d)
    )


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


def span_coords(basis, vectors):
    """Coordinates of vectors in a basis of a span containing them, one
    solve per vector: one dense tuple per vector, int where integral,
    else Fraction.  Raises InputError for a vector outside the span."""
    d = len(basis)
    rows = [_sparse(b[i] for b in basis) for i in range(len(basis[0]))]
    out = []
    for v in vectors:
        sol = _linalg.solve(rows, _sparse(v), d)
        if sol is None:
            raise InputError("vector outside the span of the basis")
        out.append(_dense(sol, d))
    return out


def _chosen_basis(vectors):
    """Lex-first maximal linearly independent subset, greedy by rank."""
    span = _linalg.Echelon()
    return tuple(v for v in sorted(vectors) if span.insert(_sparse(v)))


def _left_inverse_rows(basis):
    """Rows L_i with L_i . basis_j = delta_ij, free coords zero."""
    n = len(basis[0])
    bt = [_sparse(b) for b in basis]
    return [_dense(_linalg.solve(bt, {i: 1}, n), n) for i in range(len(basis))]


def _primitive_from_rational(vec):
    """Primitive integer vector on the same ray as a rational vector."""
    den = 1
    for a in vec:
        d = Fraction(a).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(a) * den) for a in vec]
    return primitive(ints)


def cone_data(vectors, n, allow_redundant=False):
    """Reference geometry of the cone generated by integer vectors in
    Z^n, with the fields and errors of fansheaf.fans.cone_data.

    Generators stay in input order; coordinates come from one solve per
    generator, extremeness from one rank per generator, and facet
    normals from a left inverse of the basis in Fraction arithmetic.
    """
    gens = []
    for v in vectors:
        p = primitive(v)
        if p not in gens:
            gens.append(p)
    if not allow_redundant and len(gens) != len(vectors):
        raise InputError("duplicate or non-primitive generators listed")
    data = ConeData()
    if not gens:
        data.extreme = ()
        data.dim = 0
        data.basis = ()
        data.span_eqs = tuple(_dense(r, n) for r in _linalg.nullspace([], n))
        data.facet_normals = ()
        data.facet_rays = ()
        data.face_sets = frozenset([frozenset()])
        return data

    basis = _chosen_basis(gens)
    d = len(basis)
    span_eqs = tuple(
        _dense(r, n) for r in _linalg.nullspace([_sparse(g) for g in gens], n)
    )

    if d == 1:
        if len(gens) > 1:
            raise InputError("cone contains a line")
        extreme = [gens[0]]
        left = _left_inverse_rows(basis)
        facet_normals = (_primitive_from_rational(left[0]),)
        facet_rays = (frozenset(),)
        face_sets = frozenset([frozenset(), frozenset(extreme)])
    else:
        coords = span_coords(basis, gens)
        normals = {}
        for sub in combinations(range(len(gens)), d - 1):
            ker = _linalg.nullspace([_sparse(coords[i]) for i in sub], d)
            if len(ker) != 1:
                continue
            f = _dense(ker[0], d)
            vals = [dot(f, c) for c in coords]
            if all(v >= 0 for v in vals):
                pass
            elif all(v <= 0 for v in vals):
                f = tuple(-a for a in f)
                vals = [-v for v in vals]
            else:
                continue
            onset = frozenset(i for i, v in enumerate(vals) if v == 0)
            normals[f] = onset
        if _linalg.rank([_sparse(f) for f in normals]) != d:
            raise InputError("cone is not strictly convex")
        extreme = []
        for i, g in enumerate(gens):
            containing = [onset for f, onset in normals.items() if i in onset]
            if containing:
                member = set.intersection(*map(set, containing))
            else:
                member = set(range(len(gens)))
            if _linalg.rank([_sparse(gens[j]) for j in member]) == 1:
                extreme.append(g)
        if not allow_redundant and len(extreme) != len(gens):
            raise InputError("listed generators are not the extreme rays")
        extreme.sort()
        eset = set(extreme)
        left = _left_inverse_rows(basis)
        facet_normals = []
        facet_rays = []
        seen = set()
        for f, onset in normals.items():
            rayset = frozenset(gens[i] for i in onset) & eset
            if rayset in seen:
                continue
            seen.add(rayset)
            amb = [
                sum(Fraction(f[i]) * left[i][j] for i in range(d))
                for j in range(n)
            ]
            facet_normals.append(_primitive_from_rational(amb))
            facet_rays.append(rayset)
        order = sorted(range(len(facet_rays)), key=lambda k: sorted(facet_rays[k]))
        facet_normals = tuple(facet_normals[k] for k in order)
        facet_rays = tuple(facet_rays[k] for k in order)
        faces = {frozenset(extreme)}
        work = [frozenset(extreme)]
        while work:
            cur = work.pop()
            for fr in facet_rays:
                nxt = cur & fr
                if nxt not in faces:
                    faces.add(nxt)
                    work.append(nxt)
        faces.add(frozenset())
        face_sets = frozenset(faces)

    data.extreme = tuple(sorted(extreme))
    data.dim = d
    data.basis = basis
    data.span_eqs = span_eqs
    data.facet_normals = tuple(tuple(a) for a in facet_normals)
    data.facet_rays = tuple(facet_rays)
    data.face_sets = face_sets
    return data


def intersect_cones(gens, other):
    """Extreme rays of cone(gens) intersected with another cone, a
    sorted tuple of primitive rays.

    Double description: impose other's span equations, then its facet
    halfspaces; then the reference cone_data of the result.
    """
    cur = [tuple(g) for g in gens]

    def step(functional, equation):
        nonlocal cur
        pos, zero, neg = [], [], []
        for v in cur:
            s = dot(functional, v)
            (pos if s > 0 else zero if s == 0 else neg).append((v, s))
        nxt = [v for v, _ in zero]
        if not equation:
            nxt.extend(v for v, _ in pos)
        for p, sp in pos:
            for m, sm in neg:
                w = tuple(sp * b - sm * a for a, b in zip(p, m))
                if any(w):
                    w = primitive(w)
                    if w not in nxt:
                        nxt.append(w)
        cur = nxt

    for eq in other.span_eqs:
        step(eq, True)
    for f in other.facet_normals:
        step(f, False)
    if not cur:
        return ()
    return cone_data(cur, len(gens[0]), allow_redundant=True).extreme


def all_pairs_valid(fan):
    """Do all pairs of positive-dimensional cones of a fan meet along a
    common face, spanned by their common rays?  The fan is built without
    its own pair check; every pair gets the face membership test of
    Fan._validate_pairwise, and the extreme rays of its intersection
    must be the common rays."""
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


def membership_exactness(M):
    """The (cone, degree, why) failures of local exactness, from each
    positive-dimensional cone's boundary kernel basis: the image rank
    must equal the kernel dimension and every kernel basis vector must
    lie in the span of the image, the columns of the assembled map."""
    lo, hi = M.window
    failures = []
    for cone in M.fan.cones:
        i = cone.index
        if not cone.dim:
            continue
        bases, facets = boundary_kernel(M, i)
        for d in range(lo, hi + 1):
            zdim = len(bases.get(d, ()))
            if not M.rank_at(i):
                if zdim:
                    failures.append((i, d, f"kernel dim {zdim}, no module"))
                continue
            mat = assemble(M, [i], facets, d)
            span = _linalg.Echelon(_linalg.transpose(mat, M.dim_at(i, d)))
            ri = len(span.rows)
            if ri != zdim:
                failures.append((i, d, f"image rank {ri}, kernel dim {zdim}"))
            elif any(span.reduce(z) for z in bases.get(d, ())):
                failures.append((i, d, "image not inside kernel"))
    return failures
