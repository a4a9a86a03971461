"""Graded modules over cone rings and exact degreewise linear algebra.

A cone's ring is the polynomial ring on the coordinates dual to its
chosen ray basis, graded with linear part in degree 2.  A map between
two cone rings is the restriction of functions from the larger span to
the smaller one, so it is fixed by the two bases: restriction and
restrict_monomial compute it from the two rings alone and cache it once,
in one table keyed by the bases' content, which rings of different
towers and fans share.  Free modules carry generator degrees; maps
between them are PolyMatrix objects whose entries live in the target
ring.

Degree by degree everything is in _linalg's one matrix form: a matrix
is a list of sparse rows {col: value} storing no zeros, and a vector
(a family's basis vector, a generator representative, an apply_mult
image) is one such row, indexed by the (part, generator, monomial)
basis of a degree piece.  PolyMatrix.evaluate and CoverMap.evaluate
emit that form directly.  Subspace families store canonical primitive
integer bases of a graded subspace degree by degree, and the
minimal-generator machinery (completion of m*Z to Z) runs on top: each
basis vector of Z(d-2) is multiplied by every base variable through
cached sparse columns of mult_by_var, and span membership is decided
by forward reduction against one Markowitz triangulation per degree
(_linalg.triangulate).
"""

from fractions import Fraction

from fansheaf import _linalg
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.fans import span_coords
from fansheaf.polys import Poly, monomials


def default_window(n):
    """Window [-n, n + 4] used by builders; its top two degrees are the
    guard zone."""
    return (-n, n + 4)


class ConeRing:
    """Polynomial functions on a cone's span in chosen dual coordinates."""

    __slots__ = ("label", "nvars", "basis")

    def __init__(self, label, nvars, basis):
        self.label = label
        self.nvars = nvars
        self.basis = basis

    def __repr__(self):
        return f"ConeRing({self.label}, nvars={self.nvars})"


class RingTower:
    """Rings of one fan, cached and deterministic.

    Keys are cone ids; the key "A" denotes the ring of the full ambient
    space in the standard basis (used for module structures over the
    total coordinate ring).
    """

    def __init__(self, fan):
        self.fan = fan
        self._rings = {}

    def ring(self, key):
        if key not in self._rings:
            if key == "A":
                basis = tuple(
                    tuple(1 if i == j else 0 for j in range(self.fan.n))
                    for i in range(self.fan.n)
                )
            else:
                c = self.fan.cones[key]
                basis = tuple(self.fan.rays[r] for r in c.basis_rays)
            self._rings[key] = ConeRing(key, len(basis), basis)
        return self._rings[key]


# (source basis, target basis) -> (variable images or None, {monomial:
# image}).  Keyed by content, never by object identity: the ids of freed
# objects are reused.
_RESTRICTIONS = {}


def _pair(source, target):
    key = (source.basis, target.basis)
    pair = _RESTRICTIONS.get(key)
    if pair is None:
        images = None
        if source.basis != target.basis:
            # column j: target basis vector j in source coordinates
            cols = span_coords(source.basis, target.basis)
            images = tuple(
                Poly.linear(target.nvars, [col[i] for col in cols])
                for i in range(source.nvars)
            )
        one = Poly.const(target.nvars, 1)
        pair = _RESTRICTIONS[key] = (images, {(0,) * source.nvars: one})
    return pair


def _monomial(pair, u):
    images, monos = pair
    p = monos.get(u)
    if p is None:
        if images is None:
            p = Poly(len(u), {u: Fraction(1)})
        else:
            # degree by degree: image(u) = image(u / t_i) * image(t_i)
            i = next(k for k, e in enumerate(u) if e)
            p = _monomial(pair, u[:i] + (u[i] - 1,) + u[i + 1:]) * images[i]
        monos[u] = p
    return p


def restriction(source, target):
    """Images of the source ring's variables in the target ring, or None
    when the two rings have the same basis.

    Defined when the target basis spans a subspace of the source span;
    the rings may come from different fans in the same lattice.
    Variable i maps to the linear form whose value on target basis
    vector b_j is the i-th coordinate of b_j in the source basis.
    """
    return _pair(source, target)[0]


def restrict_monomial(source, target, u):
    """Image in the target ring of the source ring's monomial u."""
    return _monomial(_pair(source, target), u)


class FreeGradedModule:
    """Free graded module with listed generator degrees."""

    __slots__ = ("ring", "degrees", "_piece", "_index")

    def __init__(self, ring, degrees):
        self.ring = ring
        self.degrees = tuple(degrees)
        self._piece = {}
        self._index = {}

    def rank(self):
        return len(self.degrees)

    def piece_basis(self, d):
        """Basis [(generator, monomial)] of the degree-d piece."""
        if d not in self._piece:
            basis = []
            for j, g in enumerate(self.degrees):
                for u in monomials(self.ring.nvars, d - g):
                    basis.append((j, u))
            self._piece[d] = tuple(basis)
            self._index[d] = {bu: k for k, bu in enumerate(basis)}
        return self._piece[d]

    def index_at(self, d):
        self.piece_basis(d)
        return self._index[d]

    def dim_at(self, d):
        return sum(
            len(monomials(self.ring.nvars, d - g)) for g in self.degrees
        )

    def hilbert(self, window):
        lo, hi = window
        return {d: self.dim_at(d) for d in range(lo, hi + 1)}

    def __repr__(self):
        return f"FreeGradedModule({self.ring.label}, {list(self.degrees)})"


class PolyMatrix:
    """Graded map between free modules, entries in the target ring.

    A source monomial reaches the target ring by restriction between
    the two modules' rings.  Entry (i, j) sends generator j of the
    source to a multiple of generator i of the target, and must be
    homogeneous of degree source.degrees[j] - target.degrees[i].
    """

    __slots__ = ("source", "target", "entries", "_eval")

    def __init__(self, source, target, entries):
        self.source = source
        self.target = target
        self.entries = {
            ij: p for ij, p in entries.items() if not p.is_zero()
        }
        self._eval = {}

    def validate(self):
        for (i, j), p in self.entries.items():
            if not 0 <= i < self.target.rank() or not 0 <= j < self.source.rank():
                raise InputError(f"entry ({i},{j}) out of range")
            want = self.source.degrees[j] - self.target.degrees[i]
            if p.degree() != want:
                raise CertificateError(
                    f"entry ({i},{j}) has degree {p.degree()}, expected {want}"
                )
            if p.nvars != self.target.ring.nvars:
                raise InputError(f"entry ({i},{j}) lives in the wrong ring")

    def evaluate(self, d):
        """Sparse rows of the map on degree-d pieces, one per target
        basis element."""
        if d in self._eval:
            return self._eval[d]
        tgt_index = self.target.index_at(d)
        rows = [{} for _ in range(self.target.dim_at(d))]
        by_col = {}
        for (i, j), p in self.entries.items():
            by_col.setdefault(j, []).append((i, p))
        pair = _pair(self.source.ring, self.target.ring)
        for col, (j, u) in enumerate(self.source.piece_basis(d)):
            if j not in by_col:
                continue
            ru = _monomial(pair, u)
            for i, p in by_col[j]:
                # distinct (i, mono) pairs: each entry is written once
                for mono, c in (ru * p).terms.items():
                    rows[tgt_index[(i, mono)]][col] = (
                        int(c) if c.denominator == 1 else c
                    )
        self._eval[d] = rows
        return rows

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return (
            f"PolyMatrix({self.source!r} -> {self.target!r}, "
            f"{len(self.entries)} entries)"
        )


def pm_add(f, g):
    if f.source is not g.source or f.target is not g.target:
        raise InputError("can only add matrices with identical shape data")
    entries = dict(f.entries)
    for ij, p in g.entries.items():
        entries[ij] = entries.get(ij, Poly(p.nvars)) + p
    return PolyMatrix(f.source, f.target, entries)


def compose(second, first):
    """second after first: source of `second` must be target of `first`."""
    if second.source is not first.target:
        raise InputError("composition shape mismatch")
    nv = second.target.ring.nvars
    pair = _pair(second.source.ring, second.target.ring)
    entries = {}
    for (i, j), q in first.entries.items():
        q_moved = Poly(nv)
        for u, c in q.terms.items():
            q_moved = q_moved + _monomial(pair, u).scale(c)
        for (k, i2), p in second.entries.items():
            if i2 != i:
                continue
            add = p * q_moved
            if add.is_zero():
                continue
            key = (k, j)
            entries[key] = entries.get(key, Poly(nv)) + add
    return PolyMatrix(first.source, second.target, entries)


class DirectSumAmbient:
    """Direct sum of free modules over (possibly) different rings, seen
    as a graded module over a base ring through restriction to each
    part's ring.

    Multiplication by a base variable is cached per (variable, degree)
    as sparse columns; apply_mult touches only the nonzero entries of a
    vector.
    """

    __slots__ = ("base_ring", "parts", "_piece", "_index", "_mult")

    def __init__(self, base_ring, parts):
        self.base_ring = base_ring
        self.parts = tuple(parts)
        self._piece = {}
        self._index = {}
        self._mult = {}

    def piece_basis(self, d):
        """Basis [(part, generator, monomial)] of the degree-d piece."""
        if d not in self._piece:
            basis = []
            for k, part in enumerate(self.parts):
                for j, u in part.piece_basis(d):
                    basis.append((k, j, u))
            self._piece[d] = tuple(basis)
            self._index[d] = {x: i for i, x in enumerate(basis)}
        return self._piece[d]

    def index_at(self, d):
        self.piece_basis(d)
        return self._index[d]

    def dim_at(self, d):
        return sum(part.dim_at(d) for part in self.parts)

    def part_offsets(self, d):
        offs = []
        total = 0
        for part in self.parts:
            offs.append(total)
            total += part.dim_at(d)
        return offs, total

    def mult_by_var(self, i, d):
        """Multiplication by base variable i from piece d to piece d+2.

        Returns one sparse column per source basis element: a tuple of
        (target row, coefficient) pairs, coefficients int when integral.
        """
        key = (i, d)
        if key in self._mult:
            return self._mult[key]
        images = []
        for part in self.parts:
            var_images = restriction(self.base_ring, part.ring)
            image = (
                Poly.variable(part.ring.nvars, i)
                if var_images is None
                else var_images[i]
            )
            images.append(
                tuple(
                    (exp, int(c) if c.denominator == 1 else c)
                    for exp, c in image.terms.items()
                )
            )
        tgt_index = self.index_at(d + 2)
        cols = tuple(
            tuple(
                (tgt_index[(k, j, tuple(a + b for a, b in zip(u, exp)))], c)
                for exp, c in images[k]
            )
            for k, j, u in self.piece_basis(d)
        )
        self._mult[key] = cols
        return cols

    def apply_mult(self, i, d, vec):
        """Image of a sparse degree-d vector under base variable i.

        Integer vectors have integer images.
        """
        cols = self.mult_by_var(i, d)
        out = {}
        for col, x in vec.items():
            for r, c in cols[col]:
                out[r] = out.get(r, 0) + c * x
        return {r: y for r, y in out.items() if y}


class GradedSubspaceFamily:
    """Canonical degreewise bases of a graded subspace of an ambient sum."""

    __slots__ = ("ambient", "window", "bases")

    def __init__(self, ambient, window, bases):
        self.ambient = ambient
        self.window = window
        self.bases = {d: tuple(rows) for d, rows in bases.items() if rows}

    def basis_at(self, d):
        return self.bases.get(d, ())

    def dim_at(self, d):
        return len(self.bases.get(d, ()))

    def hilbert(self, window=None):
        lo, hi = window or self.window
        return {d: self.dim_at(d) for d in range(lo, hi + 1)}


def family_from_kernel(ambient, rows_by_degree, window):
    """Family of degreewise kernels: rows_by_degree(d) gives constraint
    rows acting on the ambient degree-d piece."""
    lo, hi = window
    bases = {}
    for d in range(lo, hi + 1):
        dim = ambient.dim_at(d)
        if dim == 0:
            continue
        bases[d] = _linalg.nullspace(rows_by_degree(d), dim)
    return GradedSubspaceFamily(ambient, window, bases)


def minimal_generators(family):
    """Minimal homogeneous generators of a subspace family as a module.

    Completes m*Z(d-2) to Z(d) degree by degree in one elimination: the
    images of Z(d-2) under the base variables span (m*Z)(d), and are
    triangulated once in Markowitz order.  Each row of the canonical
    degree-d basis is then forward-reduced, in order, against the pivot
    rows; a row with a nonzero residual is a new generator, and its
    residual joins the pivots.  Membership is exact, so the choice does
    not depend on the pivot order.  After the scan the pivot count is
    rank(images + Z(d)), and the family is closed under multiplication
    by the base ring variables exactly when that equals dim Z(d).

    Raises CertificateError when closure fails, checked first, and
    WindowExhausted when the top two window degrees still produce new
    generators.
    """
    lo, hi = family.window
    amb = family.ambient
    nvars = amb.base_ring.nvars
    gens = []
    for d in range(lo, hi + 1):
        zd = family.basis_at(d)
        if not zd and amb.dim_at(d) == 0:
            continue
        prev = family.basis_at(d - 2) if d - 2 >= lo else ()
        pivots = list(
            _linalg.triangulate(
                amb.apply_mult(i, d - 2, z) for i in range(nvars) for z in prev
            )
        )
        index = {c: k for k, (c, _) in enumerate(pivots)}
        new = []
        for z in zd:
            res = _linalg.forward_reduce(z, pivots, index)
            if res:
                index[min(res)] = len(pivots)
                pivots.append((min(res), res))
                new.append((d, z))
        if len(pivots) != len(zd):
            raise CertificateError(
                f"family not closed under multiplication at degree {d}"
            )
        if new and d > hi - 2:
            raise WindowExhausted(
                f"new generator in guard zone at degree {d}", degree=d
            )
        gens += new
    return gens


class CoverMap:
    """Minimal free cover of a family: a free module L, its generator
    representatives inside the ambient, and per-part PolyMatrix blocks."""

    __slots__ = ("module", "family", "gens", "blocks", "_eval")

    def __init__(self, module, family, gens, blocks):
        self.module = module
        self.family = family
        self.gens = gens
        self.blocks = blocks
        self._eval = {}

    def evaluate(self, d):
        """Sparse rows of the map from L's degree-d piece into the
        ambient degree-d piece: the blocks' rows, part after part."""
        if d not in self._eval:
            self._eval[d] = [
                row for block in self.blocks for row in block.evaluate(d)
            ]
        return self._eval[d]


def entries_from_vectors(module, vectors):
    """PolyMatrix entries of a map into `module` from coordinate vectors.

    vectors lists (degree, sparse vector) per source generator; a
    vector's coordinates in the (generator, monomial) basis of the
    module's degree piece are exactly the coefficients of the column's
    entries.
    """
    nv = module.ring.nvars
    terms = {}
    for col, (d, vec) in enumerate(vectors):
        basis = module.piece_basis(d)
        for c, x in vec.items():
            j, u = basis[c]
            terms.setdefault((j, col), {})[u] = Fraction(x)
    return {key: Poly(nv, t) for key, t in terms.items()}


def minimal_free_cover(family, base_ring):
    """Free module on the minimal generators plus the covering map.

    The covering map is returned as one PolyMatrix per ambient part,
    read off from each part's segment of the generator representatives.
    """
    gens = minimal_generators(family)
    module = FreeGradedModule(base_ring, [d for d, _ in gens])
    amb = family.ambient
    offsets = {d: amb.part_offsets(d)[0] for d, _ in gens}
    blocks = []
    for k, part in enumerate(amb.parts):
        segments = []
        for d, vec in gens:
            start = offsets[d][k]
            stop = start + part.dim_at(d)
            seg = {c - start: x for c, x in vec.items() if start <= c < stop}
            segments.append((d, seg))
        entries = entries_from_vectors(part, segments)
        block = PolyMatrix(module, part, entries)
        block.validate()
        blocks.append(block)
    return CoverMap(module, family, gens, tuple(blocks))


def cover_is_free_certificate(cover):
    """Hilbert equality of the free module and the family on the window.

    Surjectivity of the cover holds by construction; equal dimensions in
    every window degree therefore certify degreewise freeness.
    """
    lo, hi = cover.family.window
    for d in range(lo, hi + 1):
        if cover.module.dim_at(d) != cover.family.dim_at(d):
            return False, d
    return True, None
