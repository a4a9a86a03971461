"""Rational polyhedral fans in a fixed lattice.

Cones are strictly convex and listed by their extreme primitive integer
rays.  A Fan stores the full face-closed cone collection in a canonical
order (rays sorted lexicographically, cones by (dim, ray tuple)), so two
runs over the same input produce identical ids and bases.

All geometric predicates -- facets, face lattices, intersections,
membership, subdivision assignments -- are computed with exact
integer arithmetic on top of the sparse exact kernel in _linalg.
A cone's frame is the pivot columns P of one elimination of its
generators, which also gives its span equations.  Its facet normals are
integer functionals on P: for independent generators (every ray and
2-cone, every cone of a simplicial fan) read off that elimination, else
one nullspace on P per candidate facet (see cone_data).  A fan is
certified on its pairs of maximal cones: each pair must meet in a
common face, which implies the same for every pair of cones.  For a
pair, double description generates the intersection, and every
generator must satisfy the span equations of the face on the common
rays (see Fan._validate_pairwise).

A subdivision map, FanMap, sends each source cone to the smallest
target cone containing it and names each target cone's tiles and
interior walls once, for its properness check and for direct images.
"""

from collections import Counter
from itertools import combinations, islice
from math import gcd

from fansheaf import _linalg
from fansheaf.errors import InputError


def primitive(vec):
    """Scale an integer vector to primitive form; error on zero."""
    g = 0
    for a in vec:
        g = gcd(g, a)
    if g == 0:
        raise InputError("zero vector cannot be a ray")
    return tuple(a // g for a in vec)


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


def cone_data(vectors, n):
    """Geometry of the cone generated by integer vectors in Z^n.

    Every cone starts with one rref of the rows [g_k | e_k]: the sorted
    generators, each followed by its unit vector in Z^k.  Its pivots
    below n are the span's frame P, so a functional on the span is one
    ambient functional supported on P, the form of every facet normal.
    Its kernel, one vector per free column, gives span_eqs on the free
    columns below n.  When every pivot lies below n the generators are
    linearly independent, as for every ray and 2-cone, and that one
    elimination is all the cone needs: it is simplicial, so strictly
    convex with every generator extreme, its faces are the subsets of
    the generators, and facet m's normal is x in the kernel vector
    (x, c e_m) of column n + m, as g_j . x = -c delta_jm.

    Generators that are linearly dependent -- a non-simplicial cone such
    as the cone over a square, or an invalid one -- take the general
    path.  Echelon inserts pick the lex-first basis.  Facets are the
    hyperplanes through d - 1 generators with all of them on one side,
    each normal the nullspace of those generators restricted to P; once
    the normals span (strict convexity), a generator is extreme iff the
    facets containing it meet in it alone.

    Raises InputError when the cone is not strictly convex, or when the
    listed generators are not exactly the extreme rays.
    """
    gens = []
    for v in vectors:
        p = primitive(v)
        if p not in gens:
            gens.append(p)
    if len(gens) != len(vectors):
        raise InputError("duplicate or non-primitive generators listed")
    gens.sort()
    k = len(gens)
    red, pivots = _linalg.rref(
        [{**_sparse(g), n + m: 1} for m, g in enumerate(gens)]
    )
    frame = [p for p in pivots if p < n]
    d = len(frame)
    # one vector per free column, the n - d below n first
    ker = _linalg.rref_kernel(red, pivots, n + k)
    data = ConeData()
    data.span_eqs = tuple(_dense(r, n) for r in ker[: n - d])
    data.extreme = tuple(gens)
    data.dim = d
    if d == k:
        data.basis = data.extreme
        # facet m drops generator m; dropping a later generator leaves
        # a lex-smaller sorted list, so facets come in descending m
        dropped = range(k - 1, -1, -1)
        data.facet_rays = tuple(
            frozenset(gens[:m] + gens[m + 1:]) for m in dropped
        )
        # x is primitive: (x, c) is, and c = -g_m . x
        normals = []
        for m in dropped:
            x, c = ker[n - d + m], ker[n - d + m][n + m]
            normals.append(tuple(-a if c > 0 else a for a in _dense(x, n)))
        data.facet_normals = tuple(normals)
        data.face_sets = frozenset(
            frozenset(face)
            for r in range(k + 1)
            for face in combinations(gens, r)
        )
        return data

    if d == 1:
        # two distinct primitive generators of rank 1 are opposite
        raise InputError("cone contains a line")
    ech = _linalg.Echelon()
    data.basis = tuple(islice((g for g in gens if ech.insert(_sparse(g))), d))
    on_frame = [_sparse(g[p] for p in frame) for g in gens]
    # candidate facet hyperplanes from (d-1)-subsets of generators
    normals = {}
    for sub in combinations(range(k), d - 1):
        null = _linalg.nullspace([on_frame[i] for i in sub], d)
        if len(null) != 1:
            continue
        f = _dense({frame[c]: a for c, a in null[0].items()}, n)
        vals = [dot(f, g) for g in gens]
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
    # a generator is extreme iff its minimal face holds no other one
    for i in range(k):
        member = set(range(k))
        for onset in normals.values():
            if i in onset:
                member &= onset
        if len(member) != 1:
            raise InputError("listed generators are not the extreme rays")
    facets = {}  # rays on the facet -> normal
    for f, onset in normals.items():
        facets.setdefault(frozenset(gens[i] for i in onset), f)
    data.facet_rays = tuple(sorted(facets, key=sorted))
    data.facet_normals = tuple(facets[fr] for fr in data.facet_rays)
    # face lattice: closure of the cone under intersections with facets
    faces = {frozenset(gens)}
    work = [frozenset(gens)]
    while work:
        cur = work.pop()
        for fr in data.facet_rays:
            nxt = cur & fr
            if nxt not in faces:
                faces.add(nxt)
                work.append(nxt)
    faces.add(frozenset())
    data.face_sets = frozenset(faces)
    return data


def intersection_generators(gens, other):
    """Generators of cone(gens) intersected with another cone, not
    necessarily extreme.

    Only other's span_eqs and facet_normals are read.  Double
    description (Fukuda & Prodon 1996): impose the other cone's span
    equations, then its facet halfspaces.
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
    return cur


class Cone:
    """A cone of a fan: ray indices plus cached geometry."""

    __slots__ = (
        "index",
        "rays",
        "dim",
        "basis_rays",
        "span_eqs",
        "facet_normals",
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

        # a listed cone's face_sets hold every face, so one pass collects
        # them all; the last distinct listed cone goes first, which fixes
        # which of two invalid cones is reported
        all_sets = {frozenset()}
        for cur in reversed(dict.fromkeys(listed)):
            for face_vecs in data_for(cur).face_sets:
                all_sets.add(frozenset(vec_to_idx[v] for v in face_vecs))

        ordered = sorted(all_sets, key=lambda s: (data_for(s).dim, tuple(sorted(s))))
        by_rayset = {s: i for i, s in enumerate(ordered)}

        def cone_ids(vec_sets):
            """Ascending ids of the cones on the given sets of ray vectors."""
            return tuple(sorted(
                by_rayset[frozenset(vec_to_idx[v] for v in vs)] for vs in vec_sets
            ))

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
            c.face_ids = cone_ids(d.face_sets)
            c.facet_ids = cone_ids(d.facet_rays)
            c.face_ray_sets = frozenset(ordered[f] for f in c.face_ids)
            cones.append(c)
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

        The intersection test needs no geometry of A & B.  Double
        description gives generators of A & B.  F lies in A & B, since it
        is a face of both, and F = A & span(F), since F is a face of A.
        So every generator lies in span(F), that is satisfies F's span
        equations, exactly when A & B = F, which is when the extreme rays
        of A & B are the common rays.
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
            eqs = self.cones[self._by_rayset[common]].span_eqs
            gens = [self.rays[i] for i in a.rays]
            if any(
                dot(eq, v)
                for v in intersection_generators(gens, b)
                for eq in eqs
            ):
                raise InputError(
                    f"cones {a.index} and {b.index} overlap beyond their common face"
                )

    # ----- queries -----

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

    def contains_vector(self, i, vec):
        """Exact membership of a rational vector in cone i."""
        c = self.cones[i]
        if any(dot(eq, vec) != 0 for eq in c.span_eqs):
            return False
        return all(dot(f, vec) >= 0 for f in c.facet_normals)

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


def line_fields(line, form):
    """Keys and body of a line shaped like form, e.g. 'ray i: a1 ... an'
    or 'dim n': the tokens after the keyword up to any colon, and the
    text after it.  ValueError naming the form unless the line has the
    form's number of keys and a colon exactly where the form has one."""
    form_head, form_colon, _ = form.partition(":")
    head, colon, body = line.partition(":")
    keys = head.split()[1:]
    if colon != form_colon or len(keys) != len(form_head.split()) - 1:
        keyword = form_head.split()[0]
        article = "an" if keyword[0] in "aeiou" else "a"
        raise ValueError(f"{article} {keyword} line is {form!r}")
    return keys, body


def parse_fan(text):
    """Parse the fan file format; returns the Fan.

    Format: a `dim n` line, then `ray i: a1 ... an` lines with ids
    0,1,2,..., then `cone: i1 ... ik` lines listing generating cones by
    ray ids.  Keywords and the number of tokens before the colon match
    exactly.  '#' starts a comment.
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
                keys, _ = line_fields(line, "dim n")
                n = int(keys[0])
            elif keyword == "ray":
                keys, body = line_fields(line, "ray i: a1 ... an")
                idx = int(keys[0])
                if idx != len(ray_list):
                    raise InputError(f"ray ids must be consecutive, got {idx}")
                vec = tuple(int(t) for t in body.split())
                if n is None or len(vec) != n:
                    raise InputError("ray before dim line or wrong length")
                ray_list.append(vec)
            elif keyword == "cone":
                _, body = line_fields(line, "cone: i1 ... ik")
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

    Criterion: every maximal cone of dimension n, and every (n-1)-cone a
    facet of exactly two n-cones.  Those two lie on either side of it,
    so every point of the support off the (n-2)-skeleton has a
    neighbourhood in the support.  The complement U of that skeleton is
    connected, so the support, closed and meeting U, contains U; being
    closed, it is the whole space.
    """
    n = fan.n
    if any(fan.cones[i].dim != n for i in fan.maximal_cone_ids()):
        return False
    return all(
        sum(fan.cones[i].dim == n for i in fan.star(w)) == 2
        for w in fan.cones_of_dim(n - 1)
    )


class FanMap:
    """A subdivision map between fans with the same ambient lattice.

    assignment[i] is the id of the smallest target cone containing
    source cone i.  Per target cone t, tiles[t] are the source cones of
    t's dimension assigned to t, and walls[t] those one dimension lower,
    t's interior walls; both are ascending tuples.  `proper` records
    whether the supports coincide: the tiles of each maximal target cone
    tile it (see _covers).
    """

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = assignment
        tiles = [[] for _ in target.cones]
        walls = [[] for _ in target.cones]
        for i, t in enumerate(assignment):
            gap = target.cones[t].dim - source.cones[i].dim
            if gap == 0:
                tiles[t].append(i)
            elif gap == 1:
                walls[t].append(i)
        self.tiles = tuple(map(tuple, tiles))
        self.walls = tuple(map(tuple, walls))
        self.proper = all(_covers(self, t) for t in target.maximal_cone_ids())


def subdivision_map(source, target):
    """Build the FanMap sending each source cone to the smallest target
    cone containing it.

    Raises InputError when some source cone is not contained in any
    target cone, or has no unique smallest one.  Properness (equal
    supports) is checked by verifying that the tiles cover every
    maximal target cone (see _covers).
    """
    if source.n != target.n:
        raise InputError("source and target fans live in different lattices")
    every = frozenset(range(len(target.cones)))
    # per source ray, the target cones containing it
    inside = [
        frozenset(j for j in every if target.contains_vector(j, v))
        for v in source.rays
    ]
    assignment = []
    for c in source.cones:
        candidates = sorted(every.intersection(*[inside[r] for r in c.rays]))
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
    return FanMap(source, target, tuple(assignment))


def _covers(fm, t):
    """Do the tiles of target cone t tile it?

    Every ridge of a tile borders two tiles, or borders one and lies on
    t's boundary, so it is not one of t's interior walls.
    """
    pieces = fm.tiles[t]
    ridges = Counter(f for p in pieces for f in fm.source.cones[p].facet_ids)
    return bool(pieces) and all(
        cnt == 2 or cnt == 1 and f not in fm.walls[t]
        for f, cnt in ridges.items()
    )
