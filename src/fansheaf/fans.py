"""Rational polyhedral fans in a fixed lattice.

Cones are strictly convex and listed by their extreme primitive integer
rays.  A Fan stores the full face-closed cone collection in a canonical
order (rays sorted lexicographically, cones by (dim, ray tuple)), so two
runs over the same input produce identical ids, bases, and signs.

All geometric predicates -- facets, face lattices, intersections,
membership, coordinates, subdivision assignments -- are computed with
exact rational arithmetic on top of the sparse exact kernel in _linalg.
A fan is certified on its pairs of maximal cones: each pair must meet
in a common face, which implies the same for every pair of cones.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from fansheaf import _linalg
from fansheaf.errors import CertificateError, InputError


def primitive(vec):
    """Scale an integer vector to primitive form; error on zero."""
    g = 0
    for a in vec:
        g = gcd(g, a)
    if g == 0:
        raise InputError("zero vector cannot be a ray")
    return tuple(a // g for a in vec)


def _primitive_from_rational(vec):
    """Primitive integer vector on the same ray as a rational vector."""
    den = 1
    for a in vec:
        d = Fraction(a).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(a) * den) for a in vec]
    return primitive(ints)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _sparse(vec):
    """A dense vector as the sparse row that _linalg takes."""
    return {j: a for j, a in enumerate(vec) if a}


def _dense(vec, n):
    """A sparse vector of length n as a tuple."""
    return tuple(vec.get(j, 0) for j in range(n))


class ConeData:
    """Geometry of one strictly convex cone, independent of any fan.

    extreme: sorted tuple of primitive extreme rays (ambient vectors)
    dim: dimension of the linear span
    basis: tuple of extreme rays forming the chosen basis (lex-first
        maximal linearly independent subset, in lex order)
    span_eqs: integer functionals cutting out the linear span
    facet_normals: per facet, the primitive ambient functional that is
        zero on the facet and nonnegative on the cone (empty for dim 0;
        for dim 1 the single functional is positive on the ray)
    facet_rays: per facet, the frozenset of extreme rays lying on it
    face_sets: frozenset of frozensets of extreme rays, one per face,
        including the empty set (the origin) and the cone itself
    """

    __slots__ = (
        "extreme",
        "dim",
        "basis",
        "span_eqs",
        "facet_normals",
        "facet_rays",
        "face_sets",
    )


def _chosen_basis(vectors):
    """Lex-first maximal linearly independent subset, greedy by rank."""
    span = _linalg.Echelon()
    return tuple(v for v in sorted(vectors) if span.insert(_sparse(v)))


def span_coords(basis, vectors):
    """Coordinates of vectors in a basis of a span containing them: one
    dense tuple per vector, int where integral, else Fraction.  Raises
    InputError for a vector outside the span."""
    d = len(basis)
    rows = [_sparse(b[i] for b in basis) for i in range(len(basis[0]))]
    out = []
    for v in vectors:
        sol = _linalg.solve(rows, _sparse(v), d)
        if sol is None:
            raise InputError("vector outside the span of the basis")
        out.append(_dense(sol, d))
    return out


def _left_inverse_rows(basis):
    """Rows L_i with L_i . basis_j = delta_ij, free coords zero."""
    n = len(basis[0])
    bt = [_sparse(b) for b in basis]
    return [_dense(_linalg.solve(bt, {i: 1}, n), n) for i in range(len(basis))]


def cone_data(vectors, n, allow_redundant=False):
    """Geometry of the cone generated by integer vectors in Z^n.

    Raises InputError when the cone is not strictly convex, and, unless
    allow_redundant is set, when the listed generators are not exactly
    the extreme rays.
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
            # two distinct primitive generators of rank 1 are opposite
            raise InputError("cone contains a line")
        extreme = [gens[0]]
        left = _left_inverse_rows(basis)
        facet_normals = (_primitive_from_rational(left[0]),)
        facet_rays = (frozenset(),)
        face_sets = frozenset([frozenset(), frozenset(extreme)])
    else:
        coords = span_coords(basis, gens)
        # candidate facet hyperplanes from (d-1)-subsets of generators
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
        # extreme generators: minimal face containing the generator is a ray
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
            amb = [sum(Fraction(f[i]) * left[i][j] for i in range(d)) for j in range(n)]
            facet_normals.append(_primitive_from_rational(amb))
            facet_rays.append(rayset)
        order = sorted(range(len(facet_rays)), key=lambda k: sorted(facet_rays[k]))
        facet_normals = tuple(facet_normals[k] for k in order)
        facet_rays = tuple(facet_rays[k] for k in order)
        # face lattice: closure of the cone under intersections with facets
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
    """Extreme rays of cone(gens) intersected with another cone.

    Only other's span_eqs and facet_normals are read.  Double
    description: impose the other cone's span equations, then its facet
    halfspaces.  Returns a sorted tuple of primitive rays.
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
    n = len(gens[0])
    return cone_data(cur, n, allow_redundant=True).extreme


class Cone:
    """A cone of a fan: ray indices plus cached geometry."""

    __slots__ = (
        "index",
        "rays",
        "dim",
        "basis_rays",
        "span_eqs",
        "facet_normals",
        "facet_ray_sets",
        "face_ray_sets",
        "face_ids",
        "facet_ids",
    )

    def __repr__(self):
        return f"Cone({self.index}, rays={list(self.rays)}, dim={self.dim})"


class Fan:
    """Face-closed collection of cones with canonical ids.

    rays: lex-sorted tuple of primitive integer vectors
    cones: tuple of Cone, sorted by (dim, ray index tuple); cones[0] is
        always the origin cone
    """

    def __init__(self, n, rays, cones, by_rayset):
        self.n = n
        self.rays = rays
        self.cones = cones
        self._by_rayset = by_rayset
        self._star = None
        self._signs = {}

    @classmethod
    def from_cones(cls, n, ray_vectors, cone_ray_lists):
        """Build a fan from generating cones given by ray index lists.

        Faces are added automatically.  Each listed cone must be strictly
        convex and list exactly its extreme rays, and any two maximal
        cones must meet in a common face spanned by their common rays;
        that certifies the same for every pair of cones (see
        _validate_pairwise).  Raises InputError otherwise.
        """
        if n < 0:
            raise InputError("ambient dimension must be nonnegative")
        prim = []
        for v in ray_vectors:
            if len(v) != n:
                raise InputError(f"ray {v} has wrong length for dim {n}")
            prim.append(primitive(v))
        if len(set(prim)) != len(prim):
            raise InputError("duplicate rays listed")
        order = sorted(range(len(prim)), key=lambda i: prim[i])
        rays = tuple(prim[i] for i in order)
        old_to_new = {old: new for new, old in enumerate(order)}
        vec_to_idx = {v: i for i, v in enumerate(rays)}

        listed = []
        for lst in cone_ray_lists:
            mapped = []
            for i in lst:
                if not 0 <= i < len(prim):
                    raise InputError(f"cone references unknown ray id {i}")
                mapped.append(old_to_new[i])
            if len(set(mapped)) != len(mapped):
                raise InputError("cone lists a ray twice")
            listed.append(frozenset(mapped))

        # geometry of each listed cone; strictness and extremeness checks
        datas = {}

        def data_for(rayset):
            if rayset not in datas:
                vecs = [rays[i] for i in sorted(rayset)]
                datas[rayset] = cone_data(vecs, n)
            return datas[rayset]

        work = list(dict.fromkeys(listed))
        all_sets = set(work) | {frozenset()}
        while work:
            cur = work.pop()
            d = data_for(cur)
            for face_vecs in d.face_sets:
                fs = frozenset(vec_to_idx[v] for v in face_vecs)
                if fs not in all_sets:
                    all_sets.add(fs)
                    work.append(fs)
        data_for(frozenset())

        ordered = sorted(all_sets, key=lambda s: (data_for(s).dim, tuple(sorted(s))))
        by_rayset = {s: i for i, s in enumerate(ordered)}
        cones = []
        for idx, s in enumerate(ordered):
            d = data_for(s)
            c = Cone()
            c.index = idx
            c.rays = tuple(sorted(s))
            c.dim = d.dim
            c.basis_rays = tuple(vec_to_idx[v] for v in d.basis)
            c.span_eqs = d.span_eqs
            c.facet_normals = d.facet_normals
            c.facet_ray_sets = tuple(
                frozenset(vec_to_idx[v] for v in fr) for fr in d.facet_rays
            )
            c.face_ray_sets = frozenset(
                frozenset(vec_to_idx[v] for v in fs) for fs in d.face_sets
            )
            cones.append(c)
        for c in cones:
            c.face_ids = tuple(
                sorted(by_rayset[fs] for fs in c.face_ray_sets)
            )
            c.facet_ids = tuple(
                sorted(by_rayset[fs] for fs in c.facet_ray_sets)
            )
        fan = cls(n, rays, tuple(cones), by_rayset)
        fan._validate_pairwise()
        return fan

    def _validate_pairwise(self):
        """Certify that any two cones meet in a common face, checking only
        pairs of maximal cones.

        For maximal A and B the test is that the common rays span a face
        F of both and that A and B meet in cone(F) and nothing more.  That
        covers every pair of cones.  Write & for intersection and let
        a <= A and b <= B be faces.  Then a & F and b & F are faces of F,
        so a & b = (a & F) & (b & F) is a face of F, hence of a and of b,
        and its rays are rays(a) & rays(b).  Two faces of one maximal cone
        meet in a face of that cone.  Read the other way round: any
        defect between two cones shows up between two maximal cones that
        contain them.
        """
        cones = [self.cones[i] for i in self.maximal_cone_ids() if i]
        for a, b in combinations(cones, 2):
            common = frozenset(a.rays) & frozenset(b.rays)
            if (
                common not in a.face_ray_sets
                or common not in b.face_ray_sets
            ):
                raise InputError(
                    f"cones {a.index} and {b.index} do not meet along a common face"
                )
            gens = [self.rays[i] for i in a.rays]
            got = intersect_cones(gens, b)
            want = tuple(sorted(self.rays[i] for i in common))
            if got != want:
                raise InputError(
                    f"cones {a.index} and {b.index} overlap beyond their common face"
                )

    # ----- queries -----

    def cone_by_rays(self, ray_indices):
        key = frozenset(ray_indices)
        if key not in self._by_rayset:
            raise InputError(f"no cone with rays {sorted(key)}")
        return self._by_rayset[key]

    def is_face(self, i, j):
        """Is cone i a face of cone j?"""
        return frozenset(self.cones[i].rays) in self.cones[j].face_ray_sets

    def is_facet(self, i, j):
        return self.cones[i].dim == self.cones[j].dim - 1 and self.is_face(i, j)

    def star(self, i):
        """Ids of cones having cone i as a face, ascending."""
        if self._star is None:
            star = {c.index: [] for c in self.cones}
            for c in self.cones:
                for f in c.face_ids:
                    star[f].append(c.index)
            self._star = {k: tuple(v) for k, v in star.items()}
        return self._star[i]

    def maximal_cone_ids(self):
        return tuple(
            c.index for c in self.cones if len(self.star(c.index)) == 1
        )

    def cones_of_dim(self, d):
        return tuple(c.index for c in self.cones if c.dim == d)

    def interior_point(self, i):
        """Sum of the cone's rays: a relative interior point."""
        c = self.cones[i]
        v = [0] * self.n
        for r in c.rays:
            for k in range(self.n):
                v[k] += self.rays[r][k]
        return tuple(v)

    def contains_vector(self, i, vec):
        """Exact membership of a rational vector in cone i."""
        c = self.cones[i]
        if any(dot(eq, vec) != 0 for eq in c.span_eqs):
            return False
        return all(dot(f, vec) >= 0 for f in c.facet_normals)

    def contains_point(self, vec):
        return any(
            self.contains_vector(c.index, vec) for c in self.cones
        )

    def incidence_sign(self, i, j):
        """Orientation sign for facet j of cone i (+1 or -1).

        It serves the serialized complex format, whose `entry` lines
        hold each map divided by this sign.  Convention: express cone
        j's chosen basis followed by an interior point of cone i in cone
        i's chosen basis and take the determinant sign.  For a ray over
        the origin the sign is +1.  Signs are cached per (i, j); a fan
        is not changed after construction.
        """
        key = (i, j)
        if key not in self._signs:
            self._signs[key] = self._orientation_sign(i, j)
        return self._signs[key]

    def _orientation_sign(self, i, j):
        if not self.is_facet(j, i):
            raise InputError(f"cone {j} is not a facet of cone {i}")
        ci = self.cones[i]
        if ci.dim == 1:
            return 1
        vecs = [self.rays[r] for r in self.cones[j].basis_rays]
        vecs.append(self.interior_point(i))
        cols = span_coords([self.rays[r] for r in ci.basis_rays], vecs)
        mat = [[cols[c][r] for c in range(ci.dim)] for r in range(ci.dim)]
        s = _linalg.det_sign(mat)
        if s == 0:
            raise CertificateError("degenerate orientation determinant")
        return s

    # ----- canonical text form -----

    def to_text(self):
        lines = [f"dim {self.n}"]
        for i, r in enumerate(self.rays):
            lines.append(f"ray {i}: " + " ".join(str(a) for a in r))
        for i in self.maximal_cone_ids():
            c = self.cones[i]
            if c.dim == 0:
                continue
            lines.append("cone: " + " ".join(str(r) for r in c.rays))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Fan(n={self.n}, rays={len(self.rays)}, cones={len(self.cones)})"


def line_keyword(line):
    """The keyword of a text-format line: its first token before ':'."""
    head = line.partition(":")[0].split()
    return head[0] if head else ""


def parse_fan(text):
    """Parse the fan file format; returns the Fan.

    Format: a `dim n` line, then `ray i: a1 ... an` lines with ids
    0,1,2,..., then `cone: i1 ... ik` lines listing generating cones by
    ray ids.  Keywords match exactly.  '#' starts a comment.
    """
    n = None
    ray_list = []
    cone_lists = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line_keyword(line)
        try:
            if keyword == "dim":
                if n is not None:
                    raise InputError("duplicate dim line")
                n = int(line.split()[1])
            elif keyword == "ray":
                head, _, body = line.partition(":")
                idx = int(head.split()[1])
                if idx != len(ray_list):
                    raise InputError(f"ray ids must be consecutive, got {idx}")
                vec = tuple(int(t) for t in body.split())
                if n is None or len(vec) != n:
                    raise InputError("ray before dim line or wrong length")
                ray_list.append(vec)
            elif keyword == "cone":
                _, _, body = line.partition(":")
                cone_lists.append([int(t) for t in body.split()])
            else:
                raise InputError(f"unrecognized line: {raw.strip()!r}")
        except (ValueError, IndexError) as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise InputError("missing dim line")
    return Fan.from_cones(n, ray_list, cone_lists)


def load_fan(path):
    with open(path) as fh:
        return parse_fan(fh.read())


def is_complete(fan):
    """Does the fan's support cover the whole space?

    Criterion: nonempty top dimension, every maximal cone of dimension n,
    every (n-1)-cone a facet of exactly two n-cones, and the facet-dual
    graph on n-cones connected.
    """
    n = fan.n
    if n == 0:
        return True
    top = fan.cones_of_dim(n)
    if not top:
        return False
    if any(fan.cones[i].dim != n for i in fan.maximal_cone_ids()):
        return False
    adj = {i: [] for i in top}
    for w in fan.cones_of_dim(n - 1):
        cof = [i for i in fan.star(w) if fan.cones[i].dim == n]
        if len(cof) != 2:
            return False
        adj[cof[0]].append(cof[1])
        adj[cof[1]].append(cof[0])
    seen = {top[0]}
    work = [top[0]]
    while work:
        for j in adj[work.pop()]:
            if j not in seen:
                seen.add(j)
                work.append(j)
    return len(seen) == len(top)


class FanMap:
    """A subdivision map between fans with the same ambient lattice.

    assignment[i] is the id of the smallest target cone containing source
    cone i.  `proper` records whether the supports coincide (each maximal
    target cone is tiled by its same-dimension preimage cones).
    """

    def __init__(self, source, target, assignment, proper):
        self.source = source
        self.target = target
        self.assignment = assignment
        self.proper = proper

    def preimage_cones(self, target_cone_id):
        """Source cones of the same dimension contained in the target cone."""
        d = self.target.cones[target_cone_id].dim
        return tuple(
            i
            for i, t in enumerate(self.assignment)
            if t == target_cone_id and self.source.cones[i].dim == d
        )


def _cone_within(fan_src, i, fan_tgt, j):
    """Is every ray of source cone i inside target cone j?"""
    return all(
        fan_tgt.contains_vector(j, fan_src.rays[r]) for r in fan_src.cones[i].rays
    )


def subdivision_map(source, target):
    """Build the FanMap sending each source cone to the smallest target
    cone containing it.

    Raises InputError when some source cone is not contained in any
    target cone, or has no unique smallest one.  Properness (equal supports) is checked by verifying
    that the preimage cones tile every maximal target cone: each ridge of
    a tile either borders two tiles or lies on the target boundary.
    """
    if source.n != target.n:
        raise InputError("source and target fans live in different lattices")
    assignment = []
    for c in source.cones:
        candidates = [
            j
            for j in range(len(target.cones))
            if _cone_within(source, c.index, target, j)
        ]
        if not candidates:
            raise InputError(
                f"source cone {c.index} is not contained in the target support"
            )
        best = min(candidates, key=lambda j: target.cones[j].dim)
        for j in candidates:
            if not target.is_face(best, j):
                raise InputError(
                    f"no unique smallest target cone for source cone {c.index}"
                )
        assignment.append(best)

    fm = FanMap(source, target, tuple(assignment), proper=False)
    fm.proper = all(
        _covers(fm, t) for t in target.maximal_cone_ids()
    )
    return fm


def _covers(fm, tgt_id):
    """Do the same-dimension preimage cones tile the target cone?"""
    target, source = fm.target, fm.source
    tc = target.cones[tgt_id]
    pieces = fm.preimage_cones(tgt_id)
    if not pieces:
        return False
    ridge_count = {}
    for p in pieces:
        for f in source.cones[p].facet_ids:
            ridge_count[f] = ridge_count.get(f, 0) + 1
    for f, cnt in ridge_count.items():
        if cnt == 2:
            continue
        if cnt > 2:
            return False
        ridge_rays = [source.rays[r] for r in source.cones[f].rays]
        # a ridge with one tile must lie on some facet hyperplane of the
        # target (vacuously true for the origin ridge of a 1-dim target)
        on_boundary = any(
            all(dot(nrm, v) == 0 for v in ridge_rays) for nrm in tc.facet_normals
        )
        if not on_boundary:
            return False
    return True
