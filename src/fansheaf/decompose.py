"""Decomposing direct images into shifted minimal complexes.

decomposition_multiplicities proves N = sum_j S_j, a sum of shifted
minimal complexes, with one chain map from the sum into N that is an
isomorphism at every cone.  It walks the cones in canonical (dimension)
order.  A summand is supported on the star of its base cone, so the
summands found before cone i that reach it are those based at faces of
i.  At cone i their generator images must be independent modulo the
irrelevant ideal; each degree d's shortfall is filled with cocycles of
N(i), each the base generator of a new summand based at i, of shift
-n + dim i - d.  The images at i are then a basis of N(i) modulo the
irrelevant ideal with matching counts, so by graded Nakayama the sum of
the embeddings maps onto N(i), and a graded map onto a free module of
the same generator degrees is an isomorphism.

Each summand complex is built once per (base, shift) key and its
stalks are checked against the face lattice's prediction before any
copy is embedded.  peel_summand embeds one copy of a summand: its base
generator goes to the cocycle picked for it and every other generator
to an exact lift through N's differential of its boundary's image, so
the embedding is a chain map.  A chain map that is an isomorphism on
every term is an isomorphism of complexes, so a walk that ends proves
the decomposition, whatever N is.
"""

from collections import Counter, defaultdict

from fansheaf import _linalg
from fansheaf.combinatorics import predicted_stalks
from fansheaf.complexes import boundary
from fansheaf.errors import CertificateError
from fansheaf.minimal import build_minimal, build_shifted_minimal, stalk_report
from fansheaf.modules import PolyMatrix, lift
from fansheaf.pushforward import pushforward, verify_pushforward


def decomposition_multiplicities(N):
    """Find N's summands and certify their sum: {(base cone, shift): count}.

    Each summand complex is built once, on N's window, and embedded as
    many times as it occurs; at each cone the shifts ascend.  Raises
    CertificateError when a summand complex's stalks differ from the
    face lattice's prediction, an embedding fails or, at some cone, the
    summands' generator images are not a basis of N's generators.
    """
    fan = N.fan
    mult = {}
    embedded = defaultdict(list)  # cone id -> the copies' maps there
    for cone in fan.cones:
        i = cone.index
        echelons = defaultdict(_linalg.Echelon)
        for pm in embedded.pop(i, ()):
            for d, cls in _classes(pm):
                if not echelons[d].insert(cls):
                    raise CertificateError(
                        f"cone {i}: chosen generators dependent at degree {d}"
                    )
        # independent images number at most N's generators in their
        # degree, so no degree of theirs lies outside N's
        want = Counter(N.degrees_at(i))
        _, _, block, _ = boundary(N, i)
        for d in sorted(want, reverse=True):
            need = want[d] - len(echelons[d].rows)
            if need == 0:
                continue
            picked = []
            for v in _linalg.nullspace(block(d), N.dim_at(i, d)):
                if len(picked) == need:
                    break
                if echelons[d].insert(_bare(N.modules[i], d, v)):
                    picked.append(v)
            if len(picked) < need:
                raise CertificateError(
                    f"cone {i}: only {len(picked)} of {need} cocycle "
                    f"generators available at degree {d}"
                )
            k = -fan.n + cone.dim - d
            summand = build_shifted_minimal(fan, i, k, window=N.window)
            _check_stalks(summand, i, k)
            for v in picked:
                for c, pm in peel_summand(N, i, summand, (d, v)).items():
                    embedded[c].append(pm)
            mult[(i, k)] = need
    return mult


def _check_stalks(S, base_id, shift):
    """Raise CertificateError unless the summand complex S, based at
    base_id with this shift, has the face lattice's predicted stalks."""
    have = stalk_report(S)
    want = predicted_stalks(S.fan, base_id, shift)
    for c in sorted(have.keys() | want.keys()):
        got, pred = have.get(c, ()), want.get(c, ())
        if got != pred:
            raise CertificateError(
                f"summand ({base_id}, {shift}): cone {c} has generator "
                f"degrees {got}, face lattice predicts {pred}"
            )


def peel_summand(N, base_id, summand, base):
    """Embed one copy of a shifted minimal complex based at base_id in N.

    `summand` is that complex, built on N's window, and base = (degree,
    vector) the cocycle of N at base_id that its generator goes to.
    The base vector is checked to be a cocycle, and every other
    generator goes to an exact lift through N's differential of its
    boundary's image, which lift certifies by multiplication, so the
    embedding is a chain map.  Returns it as {cone id: PolyMatrix}.
    """
    (g,) = summand.degrees_at(base_id)
    if base[0] != g:
        raise CertificateError(
            f"cone {base_id}: base cocycle at degree {base[0]}, summand "
            f"generator at degree {g}"
        )
    phi = {}
    for i in summand.support_ids():
        if not N.rank_at(i):
            raise CertificateError(
                f"summand needs a module at cone {i}, complex has none"
            )
        facets, _, block, _ = boundary(N, i)
        images = _boundary_images(summand, phi, N, i, facets)
        if i == base_id:
            columns = [base]
            ((d, img),) = images
            if _linalg.matvec(block(d), base[1]) != img:
                raise CertificateError(
                    f"cone {i}: embedding is not a chain map at degree {d}"
                )
        else:
            columns = lift(
                block, N.modules[i], images,
                f"cone {i}: summand boundary has no preimage",
            )
        phi[i] = PolyMatrix.from_columns(
            summand.modules[i], N.modules[i], columns
        )
    return phi


def _boundary_images(S, phi, N, i, facets):
    """Each generator of S at cone i taken by S's differential and the
    facets' embeddings into N: (degree, sparse vector) in the rows of
    N's differential at i, facet after facet."""
    smod = S.modules[i]
    out = []
    for j in range(smod.rank()):
        d, gen = smod.generator(j)
        img, off = {}, 0
        for f in facets:
            if (i, f) in S.maps:
                vec = _linalg.matvec(S.maps[(i, f)].evaluate(d), gen)
                for r, x in _linalg.matvec(phi[f].evaluate(d), vec).items():
                    img[off + r] = x
            off += N.dim_at(f, d)
        out.append((d, img))
    return out


def _classes(pm):
    """Each source generator's image under pm modulo the irrelevant
    ideal: (degree, {target generator: coefficient})."""
    one = (0,) * pm.target.ring.nvars
    out = [(d, {}) for d in pm.source.degrees]
    for (r, j), p in pm.entries.items():
        if one in p:
            out[j][1][r] = p[one]
    return out


def _bare(module, d, vec):
    """A degree-d vector of the module modulo the irrelevant ideal: its
    coefficients on bare generators, by generator index."""
    basis = module.piece_basis(d)
    return {basis[c][0]: x for c, x in vec.items() if not any(basis[c][1])}


def decomposition_theorem_report(fan_map, window=None):
    """Full pipeline: minimal complex on the source, direct image,
    verification, and the walk that finds and embeds every summand.

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
