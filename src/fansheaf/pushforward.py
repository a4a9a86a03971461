"""Direct images of complexes along proper subdivision maps.

For each target cone the direct image module is carved out of the sum of
the modules on its same-dimension preimage tiles: sections must glue
across interior walls (their differential components cancel) and
must map into the already-built module on every target facet.  A minimal
free cover of that kernel family gives the new module, with degreewise
freeness certified by Hilbert comparison, and the induced differential
is read off by exact solves against the facet covers.
"""

from fansheaf import _linalg
from fansheaf.complexes import (
    CertificateReport,
    FanComplex,
    assemble,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
)
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.modules import (
    DirectSumAmbient,
    PolyMatrix,
    RingTower,
    cover_is_free_certificate,
    default_window,
    entries_from_vectors,
    family_from_kernel,
    minimal_free_cover,
)


class Pushforward:
    """Direct image complex plus the per-cone section data behind it."""

    def __init__(self, complex, fan_map, source, families, covers):
        self.complex = complex
        self.fan_map = fan_map
        self.source = source
        self.families = families
        self.covers = covers


def pushforward(fan_map, M, window=None):
    """Direct image of a complex along a proper subdivision map."""
    if not fan_map.proper:
        raise InputError("direct image requires a proper subdivision map")
    if M.fan is not fan_map.source:
        raise InputError("complex does not live on the map's source fan")
    if window is None:
        window = M.window or default_window(fan_map.target.n)
    src_fan, tgt_fan = fan_map.source, fan_map.target
    tower = RingTower(tgt_fan)
    N = FanComplex(tgt_fan, tower, {}, {}, window=window)
    families, covers, tiles_map = {}, {}, {}
    # blocks of the current target cone, shared by its constraints and
    # its induced differential
    blocks = {}

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
        ring = tower.ring(s)
        ambient = DirectSumAmbient(ring, [M.modules[i] for i in tiles])
        facet_data = [
            (f, tiles_map[f], families[f])
            for f in sigma.facet_ids
            if f in families
        ]
        rows_at = _constraints(
            block, ambient, tiles, walls.get(s, []), facet_data
        )
        fam = family_from_kernel(ambient, rows_at, window)
        try:
            cover = minimal_free_cover(fam, ring)
        except WindowExhausted as exc:
            raise WindowExhausted(
                f"target cone {s}: {exc}", cone=s, degree=exc.degree
            ) from None
        ok, offender = cover_is_free_certificate(cover)
        if not ok:
            raise CertificateError(
                f"direct image over cone {s} is not degreewise free "
                f"at degree {offender}"
            )
        families[s] = fam
        covers[s] = cover
        tiles_map[s] = tiles
        if cover.module.rank() == 0:
            continue
        N.modules[s] = cover.module
        for f, ftiles, _ in facet_data:
            if f not in N.modules:
                continue
            fcover = covers[f]
            solutions = []
            for dg, vec in cover.gens:
                img = _linalg.matvec(block(tiles, ftiles, dg), vec)
                if not img:
                    solutions.append((dg, {}))
                    continue
                sol = _linalg.solve(
                    fcover.evaluate(dg), img, fcover.module.dim_at(dg)
                )
                if sol is None:
                    raise CertificateError(
                        f"direct image differential {s}->{f} misses the "
                        f"facet module at degree {dg}"
                    )
                solutions.append((dg, sol))
            entries = entries_from_vectors(fcover.module, solutions)
            if not entries:
                continue
            pm = PolyMatrix(cover.module, fcover.module, entries)
            pm.validate()
            N.maps[(s, f)] = pm
    return Pushforward(N, fan_map, M, families, covers)


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


def verify_pushforward(P):
    """Certify the direct image: valid complex, locally exact, modules
    degreewise free, and global cohomology equal to the source's.
    """
    problems = [
        "invalid complex: " + p for p in check_complex(P.complex).problems
    ]
    window = P.complex.window
    exact = check_locally_exact(P.complex, window)
    problems += [
        f"not exact at cone {i} degree {d}: {why}"
        for i, d, why in exact.problems
    ]
    for s, cover in P.covers.items():
        ok, offender = cover_is_free_certificate(cover)
        if not ok:
            problems.append(
                f"module over cone {s} not free at degree {offender}"
            )
    src_table = cohomology_degreewise(P.source, window).table
    tgt_table = cohomology_degreewise(P.complex, window).table
    if src_table != tgt_table:
        diff = {
            k: (src_table.get(k, 0), tgt_table.get(k, 0))
            for k in set(src_table) | set(tgt_table)
            if src_table.get(k, 0) != tgt_table.get(k, 0)
        }
        problems.append(f"global cohomology changed: {diff}")
    return CertificateReport(problems)
