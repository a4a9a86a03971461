"""Direct images of complexes along proper subdivision maps.

For each target cone the direct image module is carved out of the sum of
the modules on its same-dimension preimage tiles: sections must glue
across interior walls (their differential components cancel) and
must map into the already-built module on every target facet.  A minimal
free cover of that kernel family gives the new module, certified
degreewise free by Hilbert comparison where it is built, and the induced
differential lifts each generator's image through the facet's cover.
One call computes each distinct local kernel cover once
(modules.kernel_cover); verify_pushforward never reads that memo.
"""

from fansheaf import _linalg
from fansheaf.complexes import (
    FanComplex,
    assemble,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
)
from fansheaf.errors import CertificateError, InputError
from fansheaf.modules import (
    DirectSumAmbient,
    PolyMatrix,
    cone_ring,
    cover_is_free_certificate,
    kernel_cover,
    lift,
)


def pushforward(fan_map, M):
    """Direct image of a complex along a proper subdivision map, on M's
    window.  Raises CertificateError at the first target cone whose
    module is not degreewise free, naming the cone and degree."""
    if not fan_map.proper:
        raise InputError("direct image requires a proper subdivision map")
    if M.fan is not fan_map.source:
        raise InputError("complex does not live on the map's source fan")
    src_fan, tgt_fan = fan_map.source, fan_map.target
    N = FanComplex(tgt_fan, {}, {}, M.window)
    covers, tiles_map = {}, {}
    # blocks of the current target cone, shared by its constraints and
    # its induced differential
    blocks = {}
    memo = {}

    def block(src_ids, tgt_ids, d):
        key = (tuple(src_ids), tuple(tgt_ids), d)
        if key not in blocks:
            blocks[key] = assemble(M, src_ids, tgt_ids, d)
        return blocks[key]

    walls = {}
    for w, t in enumerate(fan_map.assignment):
        if src_fan.cones[w].dim == tgt_fan.cones[t].dim - 1 and M.rank_at(w):
            walls.setdefault(t, []).append(w)
    for sigma in tgt_fan.cones:
        s = sigma.index
        blocks.clear()
        tiles = [i for i in fan_map.preimage_cones(s) if M.rank_at(i)]
        if not tiles:
            continue
        ring = cone_ring(tgt_fan, s)
        ambient = DirectSumAmbient(ring, [M.modules[i] for i in tiles])
        facet_data = [
            (f, tiles_map[f], covers[f].family)
            for f in sigma.facet_ids
            if f in covers
        ]
        rows_at = _constraints(
            block, ambient, tiles, walls.get(s, []), facet_data
        )
        cover = kernel_cover(ambient, rows_at, M.window, memo)
        offender = cover_is_free_certificate(cover)
        if offender is not None:
            raise CertificateError(
                f"direct image over cone {s} is not degreewise free "
                f"at degree {offender}"
            )
        covers[s] = cover
        tiles_map[s] = tiles
        if cover.module.rank() == 0:
            continue
        N.modules[s] = cover.module
        for f, ftiles, _ in facet_data:
            if f not in N.modules:
                continue
            fcover = covers[f]
            images = [
                (dg, _linalg.matvec(block(tiles, ftiles, dg), vec))
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


def _constraints(block, ambient, tiles, interior_walls, facet_data):
    """Degreewise constraint rows on the sections over the tiles (the
    parts of ambient): they glue across interior walls, and their image
    in each facet's tiles lies in that facet's family.  block(src, tgt,
    d) is assemble on the source complex."""

    def rows_at(d):
        rows = list(block(tiles, interior_walls, d))
        for _, ftiles, ffam in facet_data:
            D = block(tiles, ftiles, d)
            if not D:
                continue
            # each functional c vanishing on the facet family gives the
            # constraint row c D
            cols = _linalg.transpose(D, ambient.dim_at(d))
            for c in _linalg.nullspace(ffam.basis_at(d), len(D)):
                row = _linalg.matvec(cols, c)
                if row:
                    rows.append(row)
        return rows

    return rows_at


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
