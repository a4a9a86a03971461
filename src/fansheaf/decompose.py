"""Decomposing direct images into shifted minimal complexes.

decomposition_multiplicities finds and peels the summands in one walk
over the cones in canonical (dimension) order.  A summand is supported
on the star of its base cone, so once every summand based at an earlier
cone is peeled off, the generators left at cone i are exactly the base
generators of the summands based at i: each degree d left there with
count m gives m summands of shift -n + dim i - d.

peel_summand certifies one summand: it embeds the shifted minimal
complex by a chain map (exact lifts through the differential),
constructs an explicit complement subcomplex, which is N itself outside
the summand's star, and checks at every cone that summand and
complement generators together form a basis of the module modulo the
irrelevant ideal with matching counts.  By graded Nakayama that pins
down a direct sum decomposition, so a complex equals the summands found
exactly when the walk ends with the zero complex.
"""

from collections import Counter

from fansheaf import _linalg
from fansheaf.complexes import FanComplex, boundary_setup, check_complex
from fansheaf.errors import CertificateError
from fansheaf.minimal import build_minimal, build_shifted_minimal
from fansheaf.modules import (
    FreeGradedModule,
    PolyMatrix,
    family_from_kernel,
    lift,
    minimal_generators,
)
from fansheaf.pushforward import pushforward, verify_pushforward


def decomposition_multiplicities(N):
    """Find and peel N's summands: {(base cone, shift): count}.

    Each summand complex is built once, on N's window, and peeled as
    many times as it occurs; at each cone the shifts ascend.  Raises
    CertificateError when a peel certificate fails or peeling
    everything leaves a nonzero complex.
    """
    fan = N.fan
    mult = {}
    cur = N
    for cone in fan.cones:
        i = cone.index
        left = Counter(cur.degrees_at(i))
        for d in sorted(left, reverse=True):
            k = -fan.n + cone.dim - d
            summand = build_shifted_minimal(fan, i, k, window=N.window)
            for _ in range(left[d]):
                cur, _ = peel_summand(cur, i, summand)
            mult[(i, k)] = left[d]
    if cur.support_ids():
        raise CertificateError(
            f"peeling left modules at cones {cur.support_ids()}"
        )
    return mult


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


def peel_summand(N, base_id, summand):
    """Split one copy of a shifted minimal complex based at base_id off
    of N; `summand` is that complex, built on N's window.

    Returns (complement, embedding): the complement subcomplex, and the
    summand's embedding into N as {cone id: PolyMatrix}.
    """
    fan, window = N.fan, N.window
    lo, hi = window
    star = set(fan.star(base_id))
    NP = FanComplex(fan, {}, {}, window)
    phi = {}
    psi = {}
    for cone in fan.cones:
        i = cone.index
        if not N.rank_at(i):
            if summand.rank_at(i):
                raise CertificateError(
                    f"summand needs a module at cone {i}, complex has none"
                )
            continue
        Nmod = N.modules[i]
        ring = Nmod.ring
        if i not in star:
            # untouched by the summand, and so are its faces: keep N's
            # module and maps, embedded by the identity
            NP.modules[i] = Nmod
            unit = {(0,) * ring.nvars: 1}
            psi[i] = PolyMatrix(
                Nmod, Nmod, {(j, j): unit for j in range(Nmod.rank())}
            )
            for f in cone.facet_ids:
                if (i, f) in N.maps:
                    NP.maps[(i, f)] = N.maps[(i, f)]
            continue
        ambient, facets, base_rows = boundary_setup(N, i)
        blocks = tuple(
            N.maps.get((i, f)) or PolyMatrix(Nmod, N.modules[f], {})
            for f in facets
        )
        Z = family_from_kernel(ambient, base_rows, window)

        def boundary(d):
            """N's differential at cone i on degree d: the blocks' rows,
            facet after facet."""
            return [row for block in blocks for row in block.evaluate(d)]

        for f in facets:
            if summand.rank_at(f) and f not in phi:
                raise CertificateError(
                    f"summand support at cone {f} was never embedded"
                )

        cols_at = {}

        def summand_cols(d):
            if d not in cols_at:
                cols_at[d] = _summand_boundary_columns(
                    summand, phi, i, facets, ambient, d
                )
            return cols_at[d]

        ZN = family_from_kernel(
            ambient,
            _complement_rows(base_rows, ambient, facets, psi, NP, N),
            window,
        )
        for d in range(lo, hi + 1):
            live = [c for c in summand_cols(d) if c]
            zk = _linalg.rref(live)[0] if live else []
            zdim = Z.dim_at(d)
            a, b = len(zk), ZN.dim_at(d)
            if a + b != zdim:
                raise CertificateError(
                    f"cone {i}: boundary kernel does not split at degree {d} "
                    f"({a} + {b} != {zdim})"
                )
            if a and _linalg.rank([*Z.basis_at(d), *zk]) != zdim:
                raise CertificateError(
                    f"cone {i}: summand boundary leaves the kernel "
                    f"at degree {d}"
                )

        # summand generators: exact chain-map lifts; at the base cone the
        # boundary vanishes, so the generator is picked among the cocycles
        # below
        k_vectors = []
        if i != base_id:
            smod = summand.modules[i]
            one = (0,) * smod.ring.nvars
            images = [
                (dg, summand_cols(dg)[smod.index_at(dg)[(j, one)]])
                for j, dg in enumerate(smod.degrees)
            ]
            k_vectors = lift(
                boundary, Nmod, images,
                f"cone {i}: summand boundary has no preimage",
            )
        n_vectors = lift(
            boundary, Nmod, minimal_generators(ZN),
            f"cone {i}: complement section has no preimage",
        )

        # kernel completion: generators with zero boundary (summands based
        # here, the one being peeled at its base cone included) are
        # cocycles picked to extend the reduced generator basis, the
        # first ones going to the summand; the same basis certifies that
        # every chosen generator is independent
        ndegs = Counter(Nmod.degrees)
        sdegs = Counter(summand.degrees_at(i))
        kdegs = Counter(d for d, _ in k_vectors)
        taken = kdegs + Counter(d for d, _ in n_vectors)
        for d in sorted(ndegs):
            gcols = _gen_columns(Nmod, d)
            red = _linalg.Echelon()
            for dd, vec in k_vectors + n_vectors:
                if dd == d and not red.insert(_at_columns(vec, gcols)):
                    raise CertificateError(
                        f"cone {i}: chosen generators dependent at degree {d}"
                    )
            need = ndegs[d] - taken[d]
            if need < 0:
                raise CertificateError(
                    f"cone {i}: too many generators claimed at degree {d}"
                )
            if need == 0:
                continue
            kern = _linalg.nullspace(boundary(d), Nmod.dim_at(d))
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
            short = sdegs[d] - kdegs[d]
            k_vectors += picked[:short]
            n_vectors += picked[short:]
        n_vectors.sort(key=lambda t: t[0])

        if Counter(d for d, _ in k_vectors) != sdegs:
            raise CertificateError(
                f"cone {i}: summand generator degrees do not match"
            )
        if Counter(d for d, _ in n_vectors) + sdegs != ndegs:
            raise CertificateError(
                f"cone {i}: generator counts do not add up"
            )

        phi[i] = PolyMatrix.from_columns(summand.modules[i], Nmod, k_vectors)
        if n_vectors:
            mod = FreeGradedModule(ring, [d for d, _ in n_vectors])
            NP.modules[i] = mod
            psi[i] = PolyMatrix.from_columns(mod, Nmod, n_vectors)
            for kf, f in enumerate(facets):
                images = [
                    (dg, _linalg.matvec(blocks[kf].evaluate(dg), vec))
                    for dg, vec in n_vectors
                ]
                fmod = NP.modules.get(f)
                if fmod is None:
                    if any(img for _, img in images):
                        raise CertificateError(
                            f"cone {i}: complement leaks into facet {f}"
                        )
                    continue
                columns = lift(
                    psi[f].evaluate, fmod, images,
                    f"cone {i}: complement differential into facet {f} "
                    f"not expressible",
                )
                mp = PolyMatrix.from_columns(mod, fmod, columns)
                if not mp.is_zero():
                    NP.maps[(i, f)] = mp

    problems = check_complex(NP)
    if problems:
        raise CertificateError(
            "complement is not a valid complex: " + "; ".join(problems)
        )
    return NP, phi


def _summand_boundary_columns(S, phi, i, facets, ambient, d):
    """Images of the summand's degree-d basis at cone i under its own
    differential followed by the facet embeddings: one sparse vector in
    ambient coordinates per basis element."""
    ncols = S.dim_at(i, d)
    if ncols == 0:
        return []
    out = [{} for _ in range(ncols)]
    offs, _ = ambient.part_offsets(d)
    for o, f in zip(offs, facets):
        if (i, f) not in S.maps:
            continue
        P = phi[f].evaluate(d)
        block = _linalg.transpose(S.maps[(i, f)].evaluate(d), ncols)
        for c, seg in enumerate(block):
            if seg:
                for r, x in _linalg.matvec(P, seg).items():
                    out[c][o + r] = x
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


def decomposition_theorem_report(fan_map, window=None):
    """Full pipeline: minimal complex on the source, direct image,
    verification, and the walk that finds and peels every summand.

    Returns the multiplicities {(base cone, shift): count}.
    """
    return decomposition_multiplicities(_verified_image(fan_map, window))


def _verified_image(fan_map, window):
    """The direct image of the source's minimal complex, verified
    against it; the source complex is dropped on return."""
    M = build_minimal(fan_map.source, window=window)
    N = pushforward(fan_map, M)
    problems = verify_pushforward(M, N)
    if problems:
        raise CertificateError(
            "direct image failed verification: " + "; ".join(problems)
        )
    return N
