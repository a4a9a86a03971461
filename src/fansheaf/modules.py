"""Graded modules over cone rings and exact degreewise linear algebra.

A cone's ring is the polynomial ring on the coordinates dual to its
chosen ray basis, graded with linear part in degree 2.  Restriction to a
face is substitution along the coordinates of the face's basis.  Free
modules carry generator degrees; maps between them are PolyMatrix
objects whose entries live in the target ring.  Subspace families store
canonical integer bases of a graded subspace degree by degree, and the
minimal-generator machinery (completion of m*Z to Z) runs on top: each
basis vector of Z(d-2) is multiplied by every base variable through
cached sparse columns of mult_by_var, and span membership is tested
with the sparse integer _linalg.Echelon.
"""

from fractions import Fraction

from fansheaf import _linalg
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.polys import Poly, monomials


def default_window(n, shift_low=0):
    """Window [-n + min(0, shift), -n + 2(n+2) + pad] used by builders."""
    lo = -n + min(0, shift_low)
    hi = -n + 2 * (n + 2) + 2 * ((abs(shift_low) + 1) // 2)
    return (lo, hi)


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
    """Rings and restriction maps of one fan, cached and deterministic.

    Keys are cone ids; the key "A" denotes the ring of the full ambient
    space in the standard basis (used for module structures over the
    total coordinate ring).
    """

    def __init__(self, fan):
        self.fan = fan
        self._rings = {}
        self._restrictions = {}

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

    def restriction(self, src_key, tgt_key):
        """Images of the source ring's variables in the target ring.

        Defined when the target cone's span sits inside the source span;
        variable i maps to the linear form whose value on target basis
        vector b_j is the i-th source coordinate of b_j.
        """
        pair = (src_key, tgt_key)
        if pair not in self._restrictions:
            src, tgt = self.ring(src_key), self.ring(tgt_key)
            images = []
            coeff_cols = []
            for b in tgt.basis:
                if src_key == "A":
                    coords = tuple(Fraction(a) for a in b)
                else:
                    coords = self.fan.ray_coords(src_key, b)
                    if coords is None:
                        raise InputError(
                            f"cone {tgt_key} span not inside cone {src_key} span"
                        )
                coeff_cols.append(coords)
            for i in range(src.nvars):
                images.append(
                    Poly.linear(tgt.nvars, [col[i] for col in coeff_cols])
                )
            self._restrictions[pair] = tuple(images)
        return self._restrictions[pair]


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

    subst gives the images of the source ring's variables in the target
    ring; None means both modules share one ring.  Entry (i, j) sends
    generator j of the source to a multiple of generator i of the target,
    and must be homogeneous of degree source.degrees[j] - target.degrees[i].
    """

    __slots__ = ("source", "target", "subst", "entries", "_mono_cache", "_eval")

    def __init__(self, source, target, subst, entries):
        self.source = source
        self.target = target
        self.subst = subst
        self.entries = {
            ij: p for ij, p in entries.items() if not p.is_zero()
        }
        self._mono_cache = {}
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

    def _restrict_monomial(self, u):
        if u not in self._mono_cache:
            if self.subst is None:
                self._mono_cache[u] = Poly(
                    self.source.ring.nvars, {u: Fraction(1)}
                )
            else:
                p = Poly(self.source.ring.nvars, {u: Fraction(1)})
                self._mono_cache[u] = p.substitute(
                    self.subst, self.target.ring.nvars
                )
        return self._mono_cache[u]

    def evaluate(self, d):
        """Exact matrix of the map on degree-d pieces (rows: target basis)."""
        if d in self._eval:
            return self._eval[d]
        src = self.source.piece_basis(d)
        tgt_index = self.target.index_at(d)
        rows = [[Fraction(0)] * len(src) for _ in range(self.target.dim_at(d))]
        by_col = {}
        for (i, j), p in self.entries.items():
            by_col.setdefault(j, []).append((i, p))
        for col, (j, u) in enumerate(src):
            if j not in by_col:
                continue
            ru = self._restrict_monomial(u)
            for i, p in by_col[j]:
                prod = ru * p
                for mono, c in prod.terms.items():
                    rows[tgt_index[(i, mono)]][col] += c
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
    return PolyMatrix(f.source, f.target, f.subst, entries)


def pm_scale(f, c):
    return PolyMatrix(
        f.source, f.target, f.subst, {ij: p.scale(c) for ij, p in f.entries.items()}
    )


def compose(second, first):
    """second after first: source of `second` must be target of `first`."""
    if second.source is not first.target:
        raise InputError("composition shape mismatch")
    nv = second.target.ring.nvars
    entries = {}
    for (i, j), q in first.entries.items():
        if second.subst is None:
            q_moved = q
        else:
            q_moved = q.substitute(second.subst, nv)
        for (k, i2), p in second.entries.items():
            if i2 != i:
                continue
            add = p * q_moved
            if add.is_zero():
                continue
            key = (k, j)
            entries[key] = entries.get(key, Poly(nv)) + add
    if first.subst is None:
        subst = second.subst
    elif second.subst is None:
        subst = first.subst
    else:
        subst = tuple(
            p.substitute(second.subst, nv) for p in first.subst
        )
    return PolyMatrix(first.source, second.target, subst, entries)


class DirectSumAmbient:
    """Direct sum of free modules over (possibly) different rings, seen
    as a graded module over a base ring through per-part variable images.

    parts: tuple of FreeGradedModule; substs[k] gives the base ring's
    variable images in part k's ring (None = identity).  Multiplication
    by a base variable is cached per (variable, degree) as sparse
    columns; apply_mult touches only the nonzero entries of a vector.
    """

    __slots__ = ("base_ring", "parts", "substs", "_piece", "_index", "_mult")

    def __init__(self, base_ring, parts, substs):
        self.base_ring = base_ring
        self.parts = tuple(parts)
        self.substs = tuple(substs)
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
        for part, subst in zip(self.parts, self.substs):
            image = (
                Poly.variable(part.ring.nvars, i) if subst is None else subst[i]
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
        """Image of a degree-d vector under base variable i, as a list.

        Integer vectors have integer images.
        """
        out = [0] * len(self.piece_basis(d + 2))
        for col, x in zip(self.mult_by_var(i, d), vec):
            if x:
                for r, c in col:
                    out[r] += c * x
        return out


class GradedSubspaceFamily:
    """Canonical degreewise bases of a graded subspace of an ambient sum."""

    __slots__ = ("ambient", "window", "bases")

    def __init__(self, ambient, window, bases):
        self.ambient = ambient
        self.window = window
        self.bases = {
            d: tuple(tuple(v) for v in rows) for d, rows in bases.items() if rows
        }

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


def kernel_degreewise(f, window):
    """Kernel family of one PolyMatrix over its source module."""
    ambient = DirectSumAmbient(f.source.ring, (f.source,), (None,))
    return family_from_kernel(ambient, f.evaluate, window)


def minimal_generators(family):
    """Minimal homogeneous generators of a subspace family as a module.

    Completes m*Z(d-2) to Z(d) degree by degree: the images of Z(d-2)
    under the base variables span (m*Z)(d) inside Z(d), and
    representatives are rows of the canonical degree-d basis, scanned in
    order, that enlarge that span.  Membership is exact, so the choice
    does not depend on how the span is stored.  Raises WindowExhausted
    when the top two window degrees still produce new generators, and
    CertificateError when the family is not closed under multiplication
    by the base ring variables.
    """
    lo, hi = family.window
    nvars = family.ambient.base_ring.nvars
    gens = []
    for d in range(lo, hi + 1):
        zd = family.basis_at(d)
        if not zd and family.ambient.dim_at(d) == 0:
            continue
        prev = family.basis_at(d - 2) if d - 2 >= lo else ()
        ncols = family.ambient.dim_at(d)
        # span of Z(d) itself, to certify closure of the family
        zspan = _linalg.Echelon(ncols)
        for z in zd:
            zspan.insert(z)
        reducer = _linalg.Echelon(ncols)
        for i in range(nvars):
            for z in prev:
                img = family.ambient.apply_mult(i, d - 2, z)
                if not any(img):
                    continue
                if zspan.insert(img):
                    raise CertificateError(
                        f"family not closed under multiplication at degree {d}"
                    )
                reducer.insert(img)
        for z in zd:
            if reducer.rank == len(zd):
                break
            if reducer.insert(z):
                if d > hi - 2:
                    raise WindowExhausted(
                        f"new generator in guard zone at degree {d}", degree=d
                    )
                gens.append((d, tuple(z)))
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
        """Matrix from L's degree-d piece into the ambient degree-d piece."""
        if d in self._eval:
            return self._eval[d]
        amb = self.family.ambient
        amb_index = amb.index_at(d)
        src = self.module.piece_basis(d)
        rows = [[Fraction(0)] * len(src) for _ in range(amb.dim_at(d))]
        for k, part in enumerate(amb.parts):
            mat = self.blocks[k].evaluate(d)
            pb = part.piece_basis(d)
            for r, (j, u) in enumerate(pb):
                row_idx = amb_index[(k, j, u)]
                for c in range(len(src)):
                    if mat[r][c]:
                        rows[row_idx][c] = mat[r][c]
        self._eval[d] = rows
        return rows


def entries_from_vectors(module, vectors):
    """PolyMatrix entries of a map into `module` from coordinate vectors.

    vectors lists (degree, vector) per source generator; a vector's
    coordinates in the (generator, monomial) basis of the module's
    degree piece are exactly the coefficients of the column's entries.
    """
    nv = module.ring.nvars
    terms = {}
    for col, (d, vec) in enumerate(vectors):
        for (j, u), x in zip(module.piece_basis(d), vec):
            if x:
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
            segments.append((d, vec[start:start + part.dim_at(d)]))
        entries = entries_from_vectors(part, segments)
        block = PolyMatrix(module, part, amb.substs[k], entries)
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
