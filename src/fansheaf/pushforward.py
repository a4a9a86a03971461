"""Direct images of complexes along proper subdivision maps.

For each target cone the direct image module is carved out of the sum of
the modules on its tiles: the sections of the tiles that glue across its
interior walls, where their differential components cancel.  The map's
FanMap.tiles and FanMap.walls name both.
Their minimal free cover, complexes.kernel_cover, gives the new module,
certified degreewise free by Hilbert comparison where it is built, and
the induced differential lifts each generator's image through the
facet's cover.  One call computes each distinct local kernel cover once
on a memo of its own; verify_pushforward never reads that memo.

That a section's image in a facet's tiles lies in the facet's module
needs no constraint of its own: it follows from d^2 = 0 in the source.
Let x glue across the interior walls of a target cone s, so dx is the
sum of its blocks D_f x into the tiles of s's facets f, and let w be an
interior wall of f.  A cone of dx's support that contains w is a tile
of f, since a tile of another facet f' would put w in the proper face
f & f' of f.  So d(D_f x) = d(dx) = 0 at w: D_f x glues across f's
interior walls, which is what cuts out f's module.  The lift still
certifies it: it multiplies each preimage back, and raises
CertificateError on an image outside the facet module; D_f is a module
map, so the generators stand for the module.
"""

from functools import cache, partial

from fansheaf import _linalg
from fansheaf.complexes import (
    FanComplex,
    assemble,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
    kernel_cover,
)
from fansheaf.errors import CertificateError, InputError
from fansheaf.modules import (
    PolyMatrix,
    cone_ring,
    cover_is_free_certificate,
    lift,
)


def pushforward(fan_map, M):
    """Direct image of a complex along a proper subdivision map, on M's
    window, over fan_map's tiles and walls where M has modules.  Raises
    CertificateError at the first target cone whose module is not
    degreewise free, naming the cone and degree."""
    if not fan_map.proper:
        raise InputError("direct image requires a proper subdivision map")
    if M.fan is not fan_map.source:
        raise InputError("complex does not live on the map's source fan")
    tgt_fan = fan_map.target
    N = FanComplex(tgt_fan, {}, {}, M.window)
    covers = {}  # target cone -> (its tiles, its cover)
    memo = {}
    for sigma in tgt_fan.cones:
        s = sigma.index
        tiles = tuple(i for i in fan_map.tiles[s] if M.rank_at(i))
        if not tiles:
            continue
        walls = tuple(w for w in fan_map.walls[s] if M.rank_at(w))
        cover = kernel_cover(M, cone_ring(tgt_fan, s), tiles, walls, memo)
        offender = cover_is_free_certificate(cover)
        if offender is not None:
            raise CertificateError(
                f"direct image over cone {s} is not degreewise free "
                f"at degree {offender}"
            )
        covers[s] = (tiles, cover)
        if cover.module.rank() == 0:
            continue
        N.modules[s] = cover.module
        # the differential from the tiles into a facet's tiles, per degree
        block = cache(partial(assemble, M, tiles))
        for f in sigma.facet_ids:
            if f not in N.modules:
                continue
            ftiles, fcover = covers[f]
            images = [
                (dg, _linalg.matvec(block(ftiles, dg), vec))
                for dg, vec in cover.gens
            ]
            columns = lift(
                fcover.evaluate, fcover.module, images,
                f"direct image differential {s}->{f} misses the facet module",
            )
            pm = PolyMatrix.from_columns(cover.module, fcover.module, columns)
            if not pm.is_zero():
                N.maps[(s, f)] = pm
    return N


def verify_pushforward(M, N):
    """Certify a direct image N against its source complex M: valid
    complex, locally exact, and global cohomology equal to M's.  A
    complex that fails the shape certificate is not checked further.
    Returns the list of problems, empty when N passes.
    """
    problems = ["invalid complex: " + p for p in check_complex(N)]
    if problems:
        return problems
    problems += [
        f"not exact at cone {i} degree {d}: {why}"
        for i, d, why in check_locally_exact(N)
    ]
    src_table = cohomology_degreewise(M)
    tgt_table = cohomology_degreewise(N)
    if src_table != tgt_table:
        diff = {
            k: (src_table.get(k, 0), tgt_table.get(k, 0))
            for k in set(src_table) | set(tgt_table)
            if src_table.get(k, 0) != tgt_table.get(k, 0)
        }
        problems.append(f"global cohomology changed: {diff}")
    return problems
