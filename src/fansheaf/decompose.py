"""Decomposing direct images into shifted minimal complexes.

decomposition_multiplicities reads the answer off generator degrees:
walking cones by dimension, any degrees not explained by the summands
assigned so far start new summands based at the current cone.

peel_summand certifies one summand: it builds the shifted minimal
complex, embeds it by a chain map (degreewise exact solves against the
differential), constructs an explicit complement subcomplex, and checks
at every cone that summand and complement generators together form a
basis of the module modulo the irrelevant ideal with matching counts.
By graded Nakayama that pins down a direct sum decomposition, so a
complex equals its claimed summand list exactly when iterated peeling
ends with the zero complex.
"""

from collections import Counter
from fractions import Fraction

from fansheaf import _linalg
from fansheaf.complexes import (
    FanComplex,
    assemble,
    boundary_setup,
    check_complex,
)
from fansheaf.errors import CertificateError
from fansheaf.minimal import build_minimal, build_shifted_minimal, stalk_report
from fansheaf.modules import (
    CoverMap,
    FreeGradedModule,
    GradedSubspaceFamily,
    PolyMatrix,
    entries_from_vectors,
    family_from_kernel,
    minimal_generators,
)
from fansheaf.polys import Poly
from fansheaf.pushforward import pushforward, verify_pushforward


def decomposition_multiplicities(N):
    """Multiplicities {(base cone, shift): count} explaining N's stalks.

    Raises when an assigned summand's stalk fails to appear in a later
    cone's generator degrees, which means no decomposition of this shape
    exists.
    """
    fan = N.fan
    n = fan.n
    mult = {}
    stalks = {}
    for cone in fan.cones:
        i = cone.index
        have = Counter(N.degrees_at(i))
        expected = Counter()
        for key, m in mult.items():
            for d in stalks[key].get(i, ()):
                expected[d] += m
        missing = expected - have
        if missing:
            raise CertificateError(
                f"cone {i}: degrees {sorted(missing.elements())} required "
                f"by assigned summands are absent"
            )
        residual = have - expected
        for d in sorted(residual):
            k = -n + cone.dim - d
            mult[(i, k)] = residual[d]
            stalks[(i, k)] = stalk_report(
                build_shifted_minimal(fan, i, k, window=N.window)
            )
    return mult


class PeelResult:
    """One summand split off a complex: the summand, the complement,
    and the per-cone embeddings of both into the original complex."""

    def __init__(self, summand, complement, embed_summand, embed_complement):
        self.summand = summand
        self.complement = complement
        self.embed_summand = embed_summand
        self.embed_complement = embed_complement


def _gen_columns(module, d):
    """Piece-basis positions holding bare generators (unit monomials)."""
    return [
        idx
        for idx, (j, u) in enumerate(module.piece_basis(d))
        if not any(u)
    ]


def _at_columns(vec, cols):
    """The entries of a sparse vector at the listed positions, renumbered
    in list order."""
    return {k: vec[c] for k, c in enumerate(cols) if c in vec}


def peel_summand(N, base_id, shift):
    """Split one copy of the shifted minimal complex off of N."""
    fan, tower, window = N.fan, N.tower, N.window
    lo, hi = window
    S = build_shifted_minimal(fan, base_id, shift, window=window)
    star = set(fan.star(base_id))
    NP = FanComplex(fan, tower, {}, {}, window=window)
    phi = {}
    psi = {}
    for cone in fan.cones:
        i = cone.index
        if not N.rank_at(i):
            if S.rank_at(i):
                raise CertificateError(
                    f"summand needs a module at cone {i}, complex has none"
                )
            continue
        Nmod = N.modules[i]
        ring = Nmod.ring
        if i not in star:
            # untouched by the summand: copy verbatim
            mod = FreeGradedModule(ring, Nmod.degrees)
            NP.modules[i] = mod
            psi[i] = PolyMatrix(
                mod,
                Nmod,
                {
                    (j, j): Poly.const(ring.nvars, Fraction(1))
                    for j in range(mod.rank())
                },
            )
            for f in cone.facet_ids:
                if (i, f) in N.maps and f in NP.modules:
                    NP.maps[(i, f)] = PolyMatrix(
                        mod, NP.modules[f], dict(N.maps[(i, f)].entries)
                    )
            continue
        ambient, facets, base_rows = boundary_setup(N, i)
        blocks = tuple(
            N.maps.get((i, f)) or PolyMatrix(Nmod, N.modules[f], {})
            for f in facets
        )
        Z = family_from_kernel(ambient, base_rows, window)
        cover = CoverMap(Nmod, Z, (), blocks)

        for f in facets:
            if S.rank_at(f) and f not in phi:
                raise CertificateError(
                    f"summand support at cone {f} was never embedded"
                )

        cols_at = {}

        def summand_cols(d):
            if d not in cols_at:
                cols_at[d] = _summand_boundary_columns(
                    S, phi, i, facets, ambient, d
                )
            return cols_at[d]

        zk_bases = {}
        for d in range(lo, hi + 1):
            live = [c for c in summand_cols(d) if c]
            if live:
                zk_bases[d] = tuple(_linalg.rref(live)[0])
        ZK = GradedSubspaceFamily(ambient, window, zk_bases)
        ZN = family_from_kernel(
            ambient,
            _complement_rows(base_rows, ambient, facets, psi, NP, N),
            window,
        )
        for d in range(lo, hi + 1):
            zdim = Z.dim_at(d)
            a, b = ZK.dim_at(d), ZN.dim_at(d)
            if a + b != zdim:
                raise CertificateError(
                    f"cone {i}: boundary kernel does not split at degree {d} "
                    f"({a} + {b} != {zdim})"
                )
            if a:
                stacked = Z.basis_at(d) + ZK.basis_at(d)
                if _linalg.rank(stacked) != zdim:
                    raise CertificateError(
                        f"cone {i}: summand boundary leaves the kernel "
                        f"at degree {d}"
                    )

        # summand generators: exact chain-map lifts; at the base cone the
        # boundary vanishes, so the generator is a completing cocycle
        k_vectors = []
        if i != base_id:
            smod = S.modules[i]
            for j, dg in enumerate(smod.degrees):
                idx = smod.index_at(dg)[(j, (0,) * smod.ring.nvars)]
                w = summand_cols(dg)[idx]
                sol = _linalg.solve(cover.evaluate(dg), w, Nmod.dim_at(dg))
                if sol is None:
                    raise CertificateError(
                        f"cone {i}: summand boundary has no preimage "
                        f"at degree {dg}"
                    )
                k_vectors.append((dg, sol))

        gn = minimal_generators(ZN)
        n_vectors = []
        for dg, vec in gn:
            sol = _linalg.solve(cover.evaluate(dg), vec, Nmod.dim_at(dg))
            if sol is None:
                raise CertificateError(
                    f"cone {i}: complement section has no preimage "
                    f"at degree {dg}"
                )
            n_vectors.append((dg, sol))

        # kernel completion: summands based here (the one being peeled at
        # its base cone included) have zero boundary, so their generators
        # are cocycles picked to extend the reduced generator basis
        ndegs = Counter(Nmod.degrees)
        sdegs = Counter(S.degrees_at(i))
        taken = Counter(d for d, _ in n_vectors)
        reducers = {}
        for d in sorted(ndegs):
            gcols = _gen_columns(Nmod, d)
            red = _linalg.Echelon()
            for dd, vec in k_vectors + n_vectors:
                if dd == d:
                    red.insert(_at_columns(vec, gcols))
            reducers[d] = red
        base_pick = None
        for d in sorted(ndegs):
            need = ndegs[d] - sdegs[d] - taken[d]
            if i == base_id and d == -fan.n + cone.dim - shift:
                need += 1  # the summand's own base generator
            if need < 0:
                raise CertificateError(
                    f"cone {i}: too many generators claimed at degree {d}"
                )
            if need == 0:
                continue
            gcols = _gen_columns(Nmod, d)
            red = reducers[d]
            kern = _linalg.nullspace(cover.evaluate(d), Nmod.dim_at(d))
            picked = []
            for v in kern:
                if len(picked) == need:
                    break
                if red.insert(_at_columns(v, gcols)):
                    picked.append((d, v))
            if len(picked) < need:
                raise CertificateError(
                    f"cone {i}: only {len(picked)} of {need} cocycle "
                    f"generators available at degree {d}"
                )
            if i == base_id and d == -fan.n + cone.dim - shift:
                base_pick = picked[0]
                picked = picked[1:]
            n_vectors.extend(picked)
        if i == base_id:
            if base_pick is None:
                raise CertificateError(
                    f"no cocycle generator for the summand at cone {i}"
                )
            k_vectors = [base_pick] + k_vectors
        n_vectors.sort(key=lambda t: t[0])

        if Counter(d for d, _ in k_vectors) != sdegs:
            raise CertificateError(
                f"cone {i}: summand generator degrees do not match"
            )
        if Counter(d for d, _ in n_vectors) + sdegs != ndegs:
            raise CertificateError(
                f"cone {i}: generator counts do not add up"
            )
        for d in sorted(ndegs):
            gcols = _gen_columns(Nmod, d)
            red = _linalg.Echelon()
            count = 0
            for dd, vec in k_vectors + n_vectors:
                if dd == d:
                    count += 1
                    if not red.insert(_at_columns(vec, gcols)):
                        raise CertificateError(
                            f"cone {i}: chosen generators dependent "
                            f"at degree {d}"
                        )
            assert count == ndegs[d]

        phi[i] = PolyMatrix(
            S.modules[i], Nmod, entries_from_vectors(Nmod, k_vectors)
        )
        phi[i].validate()
        if n_vectors:
            mod = FreeGradedModule(ring, [d for d, _ in n_vectors])
            NP.modules[i] = mod
            psi[i] = PolyMatrix(
                mod, Nmod, entries_from_vectors(Nmod, n_vectors)
            )
            psi[i].validate()
            for kf, f in enumerate(facets):
                fmod = NP.modules.get(f)
                solutions = []
                for dg, vec in n_vectors:
                    img = _linalg.matvec(blocks[kf].evaluate(dg), vec)
                    if not img:
                        solutions.append((dg, {}))
                        continue
                    if fmod is None:
                        raise CertificateError(
                            f"cone {i}: complement leaks into facet {f}"
                        )
                    sol = _linalg.solve(
                        psi[f].evaluate(dg), img, fmod.dim_at(dg)
                    )
                    if sol is None:
                        raise CertificateError(
                            f"cone {i}: complement differential into facet "
                            f"{f} not expressible at degree {dg}"
                        )
                    solutions.append((dg, sol))
                if fmod is None:
                    continue
                entries = entries_from_vectors(fmod, solutions)
                if entries:
                    mp = PolyMatrix(mod, fmod, entries)
                    mp.validate()
                    NP.maps[(i, f)] = mp

    rep = check_complex(NP)
    if not rep.ok:
        raise CertificateError(
            "complement is not a valid complex: " + "; ".join(rep.problems)
        )
    return PeelResult(S, NP, phi, psi)


def _summand_boundary_columns(S, phi, i, facets, ambient, d):
    """Images of the summand's degree-d basis at cone i under its own
    differential followed by the facet embeddings: one sparse vector in
    ambient coordinates per basis element."""
    ncols = S.dim_at(i, d)
    if ncols == 0:
        return []
    s_facets = [f for f in facets if S.rank_at(f)]
    T = assemble(S, [i], s_facets, d)
    out = [{} for _ in range(ncols)]
    offs, _ = ambient.part_offsets(d)
    pos = {f: k for k, f in enumerate(facets)}
    row0 = 0
    for f in s_facets:
        nf = S.dim_at(f, d)
        P = phi[f].evaluate(d)
        o = offs[pos[f]]
        block = _linalg.transpose(T[row0:row0 + nf], ncols)
        for c, seg in enumerate(block):
            if seg:
                for r, x in _linalg.matvec(P, seg).items():
                    out[c][o + r] = x
        row0 += nf
    return out


def _complement_rows(base_rows, ambient, facets, psi, NP, N):
    """Constraint rows for sections whose facet components stay inside
    the embedded complement."""

    def rows_at(d):
        rows = list(base_rows(d))
        offs, _ = ambient.part_offsets(d)
        for k, f in enumerate(facets):
            nf = N.dim_at(f, d)
            if nf == 0:
                continue
            pdim = NP.dim_at(f, d) if f in psi else 0
            cols = _linalg.transpose(psi[f].evaluate(d), pdim) if pdim else []
            for c in _linalg.nullspace(cols, nf):
                rows.append({offs[k] + r: x for r, x in c.items()})
        return rows

    return rows_at


class DecompositionReport:
    """Multiplicities plus the record of a complete peel."""

    def __init__(self, multiplicities, peel_sequence):
        self.multiplicities = multiplicities
        self.peel_sequence = peel_sequence

    @property
    def identity_summand_present(self):
        return self.multiplicities.get((0, 0), 0) == 1

    def sorted_items(self):
        return sorted(self.multiplicities.items())


def decompose_fully(N):
    """Compute multiplicities, then peel every claimed summand off.

    Returns the report; raises if any peel certificate fails or if
    peeling everything leaves a nonzero complex.
    """
    mult = decomposition_multiplicities(N)
    cur = N
    sequence = []
    for (b, k) in sorted(mult):
        for _ in range(mult[(b, k)]):
            res = peel_summand(cur, b, k)
            cur = res.complement
            sequence.append((b, k))
    if cur.support_ids():
        raise CertificateError(
            f"peeling left modules at cones {cur.support_ids()}"
        )
    return DecompositionReport(mult, sequence)


def decomposition_theorem_report(fan_map, window=None):
    """Full pipeline: minimal complex on the source, direct image,
    verification, multiplicities, and complete certified peeling."""
    M = build_minimal(fan_map.source, window=window)
    P = pushforward(fan_map, M)
    ver = verify_pushforward(P)
    if not ver.ok:
        raise CertificateError(
            "direct image failed verification: " + "; ".join(ver.problems)
        )
    return decompose_fully(P.complex)
