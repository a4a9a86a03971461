"""Graded modules over cone rings and exact degreewise linear algebra.

A cone's ring is the polynomial ring on the coordinates dual to its
chosen ray basis, graded with linear part in degree 2; cone_ring builds
it from the fan.  restriction gives the ring map from a larger span to
a smaller one as each source variable's image, (target variable,
coefficient) pairs, cached in one table keyed by the two bases, which
rings of different fans share.  A polynomial is a term dict {exponent
tuple: coefficient}, int where integral (see polys).  Free modules
carry generator degrees; maps between them are PolyMatrix objects whose
entries are term dicts in the target ring.  Every map between complexes
is PolyMatrix.from_columns of its generators' images: a cover's
representatives as they are, or exact preimages (lift) of images under
a surjection onto the target.

Degree by degree everything is in _linalg's one matrix form: a matrix
is a list of sparse rows {col: value} storing no zeros, and a vector is
one such row, indexed by the (part, generator, monomial) basis of a
degree piece.  Multiplication by a variable is an index operation
(_successors, _divisors), and _mult_columns turns a variable's image
under restriction into sparse columns, applied by _apply_columns.
DirectSumAmbient caches them per variable and degree, for the kernel
search; PolyMatrix.evaluate reads degree d off degree d - 2 with them,
once per distinct map content: maps of equal content share one weakly
held table of rows.  minimal_free_cover completes m*Z to Z in canonical
primitive integer kernel bases, one _linalg.Echelon per degree, and its
CoverMap keeps the generators and the kernel's dimensions, all that a
builder's memo (complexes.kernel_cover) stores of a search.
"""

import weakref
from functools import lru_cache

from fansheaf import _linalg
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.polys import degree, monomials


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


def cone_ring(fan, key):
    """The ring of a fan's cone, by cone id in the basis of the cone's
    basis rays; the key "A" denotes the ring of the full ambient space
    in the standard basis (module structures over the total coordinate
    ring)."""
    if key == "A":
        basis = tuple(
            tuple(int(i == j) for j in range(fan.n)) for i in range(fan.n)
        )
    else:
        basis = tuple(fan.rays[r] for r in fan.cones[key].basis_rays)
    return ConeRing(key, len(basis), basis)


# (source basis, target basis) -> images of the source ring's variables.
# Keyed by content, never by object identity: the ids of freed objects
# are reused.
_RESTRICTIONS = {}


def restriction(source, target):
    """Images of the source ring's variables in the target ring: one
    tuple per source variable of (target variable, coefficient) pairs.

    Defined when the target basis spans a subspace of the source span;
    the rings may come from different fans in the same lattice.
    Variable i maps to the linear form whose value on target basis
    vector b_j is the i-th coordinate of b_j in the source basis.  When
    b_j is source basis vector k those coordinates are e_k, read off by
    position, as for every face of a simplicial cone, equal bases and
    the origin's empty basis; otherwise one solve against the source
    basis gives them, and a b_j outside the source span raises
    InputError.
    """
    key = (source.basis, target.basis)
    if key not in _RESTRICTIONS:
        position = {b: k for k, b in enumerate(source.basis)}
        images = [[] for _ in range(source.nvars)]
        for j, b in enumerate(target.basis):
            if b in position:
                images[position[b]].append((j, 1))
                continue
            # row i of B^T: coordinate i of every source basis vector
            rows = [
                {k: a[i] for k, a in enumerate(source.basis) if a[i]}
                for i in range(len(b))
            ]
            rhs = {i: x for i, x in enumerate(b) if x}
            col = _linalg.solve(rows, rhs, source.nvars)
            if col is None:
                raise InputError("vector outside the span of the basis")
            for k, x in col.items():
                images[k].append((j, x))
        _RESTRICTIONS[key] = tuple(tuple(im) for im in images)
    return _RESTRICTIONS[key]


@lru_cache(maxsize=None)
def _successors(nvars, e):
    """For each monomial u of internal degree e, in the order of
    polys.monomials, the positions of u * t_1, ..., u * t_nvars among
    the monomials of degree e + 2."""
    index = {u: p for p, u in enumerate(monomials(nvars, e + 2))}
    return tuple(
        tuple(index[u[:m] + (u[m] + 1,) + u[m + 1:]] for m in range(nvars))
        for u in monomials(nvars, e)
    )


@lru_cache(maxsize=None)
def _divisors(nvars, e):
    """For each monomial u of internal degree e, in the order of
    polys.monomials: None when u = 1, else (k, q) with t_k the first
    variable of u and q the position of u / t_k among the monomials of
    degree e - 2.  Of the divisors u / t_m, the first variable gives the
    lex-smallest, so it is the first one met in ascending order."""
    out = [None] * len(monomials(nvars, e))
    for q, succ in enumerate(_successors(nvars, e - 2)):
        for k, p in enumerate(succ):
            if out[p] is None:
                out[p] = (k, q)
    return tuple(out)


def _mult_columns(module, d, form, offset=0):
    """Multiplication by a linear form from a free module's piece d to
    its piece d + 2: one sparse column per basis element of piece d, a
    tuple of (row, coefficient) pairs, rows shifted by offset.  The form
    is (variable, coefficient) pairs in the module's ring."""
    nvars = module.ring.nvars
    cols = []
    for g in module.degrees:
        cols += [
            tuple([(offset + succ[m], c) for m, c in form])
            for succ in _successors(nvars, d - g)
        ]
        offset += len(monomials(nvars, d + 2 - g))
    return cols


def _apply_columns(cols, vec):
    """Image of a sparse vector under sparse columns; integer vectors
    and columns have integer images."""
    out = {}
    for col, x in vec.items():
        for r, c in cols[col]:
            out[r] = out.get(r, 0) + c * x
    return {r: y for r, y in out.items() if y}


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
        return self._piece[d]

    def index_at(self, d):
        if d not in self._index:
            self._index[d] = {
                bu: k for k, bu in enumerate(self.piece_basis(d))
            }
        return self._index[d]

    def dim_at(self, d):
        return len(self.piece_basis(d))

    def generator(self, j):
        """Generator j as (its degree, its unit vector in that piece)."""
        d = self.degrees[j]
        return d, {self.index_at(d)[(j, (0,) * self.ring.nvars)]: 1}

    def __repr__(self):
        return f"FreeGradedModule({self.ring.label}, {list(self.degrees)})"


class _Rows(dict):
    __slots__ = ("__weakref__",)  # so that _EVALUATIONS can hold it


# map content -> degree -> rows, shared while a map of that content lives
_EVALUATIONS = weakref.WeakValueDictionary()


class PolyMatrix:
    """Graded map between free modules; entries are term dicts in the
    target ring.

    The source ring acts on the target module through restriction
    between the two modules' rings.  Entry (i, j) sends generator j of
    the source to a multiple of generator i of the target, and must be
    homogeneous of degree source.degrees[j] - target.degrees[i].
    """

    __slots__ = ("source", "target", "entries", "_content", "_eval")

    def __init__(self, source, target, entries):
        self.source = source
        self.target = target
        self.entries = {ij: p for ij, p in entries.items() if p}
        self._content = self._eval = None

    @classmethod
    def from_columns(cls, source, target, columns):
        """The validated map sending source generator j to columns[j],
        a (degree, sparse vector) of target: the vector's coordinates in
        the (generator, monomial) basis are the column's coefficients."""
        terms = {}
        for col, (d, vec) in enumerate(columns):
            basis = target.piece_basis(d)
            for c, x in vec.items():
                i, u = basis[c]
                terms.setdefault((i, col), {})[u] = x
        pm = cls(source, target, terms)
        pm.validate()
        return pm

    def validate(self):
        for (i, j), p in self.entries.items():
            if not 0 <= i < self.target.rank() or not 0 <= j < self.source.rank():
                raise InputError(f"entry ({i},{j}) out of range")
            want = self.source.degrees[j] - self.target.degrees[i]
            if degree(p) != want:
                raise CertificateError(
                    f"entry ({i},{j}) has degree {degree(p)}, expected {want}"
                )
            if any(len(e) != self.target.ring.nvars for e in p):
                raise InputError(f"entry ({i},{j}) lives in the wrong ring")

    def content(self):
        """Everything evaluate reads, computed once: the source's and the
        target's (variable count, generator degrees), the restriction
        between their rings, and the entries as sorted term items."""
        if self._content is None:
            s, t = self.source, self.target
            terms = sorted(
                (ij, tuple(sorted(p.items())))
                for ij, p in self.entries.items()
            )
            self._content = (
                (s.ring.nvars, s.degrees), (t.ring.nvars, t.degrees),
                restriction(s.ring, t.ring), tuple(terms),
            )
        return self._content

    def evaluate(self, d):
        """Sparse rows of the map on degree-d pieces, one per target
        basis element.

        The image of source basis element (j, u) is column j's entries
        when u = 1.  Otherwise it is t_k times the image of (j, u / t_k),
        read off degree d - 2, where t_k is the first variable of u: the
        map is linear over the source ring, which acts on the target
        through restriction.  That image is zero when t_k restricts to
        zero or the column below is zero; otherwise the columns of t_k
        on the target's piece d - 2 are built once per call.  Maps of
        equal content share their read-only rows (_EVALUATIONS).
        """
        if self._eval is None:
            self._eval = _EVALUATIONS.setdefault(self.content(), _Rows())
        if d in self._eval:
            return self._eval[d]
        source, target = self.source, self.target
        nvars = source.ring.nvars
        forms = restriction(source.ring, target.ring)
        rows = [{} for _ in range(target.dim_at(d))]
        below = None
        mult = {}
        col = below_off = 0
        for j, g in enumerate(source.degrees):
            for div in _divisors(nvars, d - g):
                if div is None:
                    tgt_index = target.index_at(d)
                    image = {
                        tgt_index[(i, mono)]: c
                        for (i, jj), p in self.entries.items()
                        if jj == j
                        for mono, c in p.items()
                    }
                else:
                    k, q = div
                    if below is None:
                        below = _linalg.transpose(
                            self.evaluate(d - 2), source.dim_at(d - 2)
                        )
                    vec = below[below_off + q]
                    image = {}
                    if vec and forms[k]:
                        if k not in mult:
                            mult[k] = _mult_columns(target, d - 2, forms[k])
                        image = _apply_columns(mult[k], vec)
                for r, x in image.items():
                    rows[r][col] = int(x) if x.denominator == 1 else x
                col += 1
            below_off += len(monomials(nvars, d - 2 - g))
        self._eval[d] = rows
        return rows

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return (
            f"PolyMatrix({self.source!r} -> {self.target!r}, "
            f"{len(self.entries)} entries)"
        )


class DirectSumAmbient:
    """Direct sum of free modules over (possibly) different rings, seen
    as a graded module over a base ring through restriction to each
    part's ring.

    Multiplication by a base variable is cached per (variable, degree)
    as sparse columns, each part's block built by _mult_columns at the
    part's offset; apply_mult touches only the nonzero entries of a
    vector.  The kernel search multiplies through it; PolyMatrix.evaluate
    does not construct one.
    """

    __slots__ = ("base_ring", "parts", "_mult")

    def __init__(self, base_ring, parts):
        self.base_ring = base_ring
        self.parts = tuple(parts)
        self._mult = {}

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
        if key not in self._mult:
            offs, _ = self.part_offsets(d + 2)
            cols = []
            for part, off in zip(self.parts, offs):
                form = restriction(self.base_ring, part.ring)[i]
                cols += _mult_columns(part, d, form, off)
            self._mult[key] = tuple(cols)
        return self._mult[key]

    def apply_mult(self, i, d, vec):
        """Image of a sparse degree-d vector under base variable i.

        Integer vectors have integer images.
        """
        return _apply_columns(self.mult_by_var(i, d), vec)


def family_from_kernel(ambient, rows_by_degree, window):
    """Canonical kernel bases {degree: rows}, nonzero window degrees only:
    rows_by_degree(d) gives constraint rows on the ambient piece d."""
    lo, hi = window
    bases = {}
    for d in range(lo, hi + 1):
        dim = ambient.dim_at(d)
        if dim and (basis := _linalg.nullspace(rows_by_degree(d), dim)):
            bases[d] = tuple(basis)
    return bases


def minimal_generators(ambient, bases, window):
    """Minimal homogeneous generators (degree, row) of the subspace of
    the ambient with the bases {degree: rows} on the window.

    Completes m*Z(d-2) to Z(d) degree by degree in one elimination: the
    images of Z(d-2) under the base variables span (m*Z)(d), and one
    Echelon starts from their Markowitz triangulation.  Each row of the
    canonical degree-d basis is then inserted, in order; a row that
    enlarges the span is a new generator.  Membership is exact, so the
    choice does not depend on the pivot order.  After the scan the basis
    size is rank(images + Z(d)), and the subspace is closed under
    multiplication by the base ring variables exactly when that equals
    dim Z(d).

    Raises CertificateError when closure fails, checked first, and
    WindowExhausted when the top two window degrees still produce new
    generators; its cone is the base ring's label, a cone id or "A".
    """
    lo, hi = window
    nvars = ambient.base_ring.nvars
    gens = []
    for d in range(lo, hi + 1):
        zd = bases.get(d, ())
        if not zd and ambient.dim_at(d) == 0:
            continue
        span = _linalg.Echelon(
            ambient.apply_mult(i, d - 2, z)
            for i in range(nvars)
            for z in bases.get(d - 2, ())
        )
        new = [(d, z) for z in zd if span.insert(z)]
        if len(span.rows) != len(zd):
            raise CertificateError(
                f"family not closed under multiplication at degree {d}"
            )
        if new and d > hi - 2:
            cone = ambient.base_ring.label
            raise WindowExhausted(
                f"cone {cone}: new generator in guard zone at degree {d}",
                cone=cone, degree=d,
            )
        gens += new
    return gens


class CoverMap:
    """Minimal free cover of a kernel: the free module L on generator
    representatives inside the ambient, per-part PolyMatrix blocks read
    off each part's segment of them, the window, and the kernel's
    nonzero dimensions by degree."""

    __slots__ = ("module", "window", "dims", "gens", "blocks")

    def __init__(self, ambient, window, dims, gens):
        self.module = module = FreeGradedModule(
            ambient.base_ring, [d for d, _ in gens]
        )
        self.window, self.dims, self.gens = window, dims, gens
        offsets = {d: ambient.part_offsets(d)[0] for d, _ in gens}
        blocks = []
        for k, part in enumerate(ambient.parts):
            segments = []
            for d, v in gens:
                start = offsets[d][k]
                stop = start + part.dim_at(d)
                seg = {c - start: x for c, x in v.items() if start <= c < stop}
                segments.append((d, seg))
            blocks.append(PolyMatrix.from_columns(module, part, segments))
        self.blocks = tuple(blocks)

    def evaluate(self, d):
        """Sparse rows of the map from L's degree-d piece into the
        ambient degree-d piece: the blocks' rows, part after part."""
        return [row for block in self.blocks for row in block.evaluate(d)]


def lift(rows_at, module, images, what):
    """Exact preimages in `module` of (degree, sparse vector) images
    under the matrices rows_at(degree), in order, each certified by
    multiplying it back.  A zero image lifts to {}; one with no
    certified preimage raises CertificateError(what at degree)."""
    out = []
    for d, img in images:
        sol = {}
        if img:
            rows = rows_at(d)
            sol = _linalg.solve(rows, img, module.dim_at(d))
            if sol is None or _linalg.matvec(rows, sol) != img:
                raise CertificateError(f"{what} at degree {d}")
        out.append((d, sol))
    return out


def minimal_free_cover(ambient, rows_by_degree, window):
    """The kernel cover search: the kernel bases of rows_by_degree, their
    minimal generators, and the CoverMap, which keeps the dimensions."""
    bases = family_from_kernel(ambient, rows_by_degree, window)
    gens = minimal_generators(ambient, bases, window)
    dims = {d: len(rows) for d, rows in bases.items()}
    return CoverMap(ambient, window, dims, gens)


def cover_is_free_certificate(cover):
    """Hilbert equality of the free module and the kernel on the window.

    Surjectivity of the cover holds by construction; equal dimensions in
    every window degree therefore certify degreewise freeness.  Returns
    the lowest degree where they differ, or None when the cover is free.
    """
    lo, hi = cover.window
    for d in range(lo, hi + 1):
        if cover.module.dim_at(d) != cover.dims.get(d, 0):
            return d
    return None
