"""Complexes of graded modules on a fan.

A FanComplex places a free graded module on each cone (missing = zero),
over the cone's ring, which the fan fixes (modules.cone_ring), and, on
each (cone, facet) pair, the component of the differential between
them; together they send the sum of the dimension-i modules to the sum
of the dimension-(i-1) modules.  Homological degree of a cone's slot is
minus its dimension.  A complex owns its degree window M.window, which
the kernels, certificates and cohomology below run on.  A serialized
complex holds each component as it acts.

assemble gives the differential between listed cones on one degree piece
in _linalg's one matrix form, a list of sparse rows {col: value} with no
stored zeros, and assemble_key the local data that fixes it in every
degree.  sections cuts out every module a builder covers: the sections
over listed tiles that glue across listed walls, over a ring.
boundary reads a cone's local data for every certificate: the blocks B
from the cone into its facets and C from those into its codimension-2
faces.  check_complex certifies shapes, grading, and C·B = 0 on each
module's generators; check_locally_exact certifies, cone by cone, that
each module surjects onto its boundary kernel, rank B = dim(facets) -
rank C per degree, once per distinct local data.  Ranks suffice only
once check_complex has passed, so every caller stops on its problems
first.  Neither builds a module of sections; both run on arbitrary
complexes and return their problems: an empty list means the complex
passes.
"""

from bisect import bisect_right
from contextlib import contextmanager
from functools import cache, partial
from itertools import accumulate

from fansheaf import _linalg
from fansheaf.errors import CertificateError, InputError
from fansheaf.fans import line_fields, line_keyword, parse_fan
from fansheaf.modules import (
    DirectSumAmbient,
    FreeGradedModule,
    PolyMatrix,
    cone_ring,
    cover_is_free_certificate,
    family_from_kernel,
    kernel_cover,
)
from fansheaf.polys import degree, format_poly, parse_poly


class FanComplex:
    """Modules on a fan's cones, the differential's facet components,
    and the degree window (lo, hi)."""

    def __init__(self, fan, modules, maps, window):
        self.fan = fan
        self.modules = dict(modules)
        self.maps = dict(maps)
        self.window = window

    def rank_at(self, i):
        m = self.modules.get(i)
        return m.rank() if m is not None else 0

    def degrees_at(self, i):
        m = self.modules.get(i)
        return m.degrees if m is not None else ()

    def dim_at(self, i, d):
        m = self.modules.get(i)
        return m.dim_at(d) if m is not None else 0

    def support_ids(self):
        return tuple(sorted(i for i, m in self.modules.items() if m.rank()))


def assemble(M, src_ids, tgt_ids, d):
    """Block matrix of the differential between listed cones.

    Sparse rows, one per basis element of the targets' degree-d pieces
    in tgt_ids order; columns follow src_ids order the same way.  The
    block of source s and target t is the stored map M.maps[(s, t)], the
    differential's component, where present.
    """
    col_off, _ = _offsets(M, src_ids, d)
    row_off, nrows = _offsets(M, tgt_ids, d)
    rows = [{} for _ in range(nrows)]
    for si, ti, pm in _blocks(M, src_ids, tgt_ids):
        r0, c0 = row_off[ti], col_off[si]
        for r, brow in enumerate(pm.evaluate(d)):
            out = rows[r0 + r]
            for c, x in brow.items():
                out[c0 + c] = x
    return rows


def assemble_key(M, src_ids, tgt_ids):
    """Everything assemble(M, src_ids, tgt_ids, d) reads, for any d: each
    listed module's (variable count, generator degrees), None where a
    cone has none, and each block's (source position, target position,
    map content).  Equal keys give equal rows; they compare in full."""
    get = M.modules.get
    shapes = (
        tuple(m and (m.ring.nvars, m.degrees) for m in map(get, ids))
        for ids in (src_ids, tgt_ids)
    )
    blocks = _blocks(M, src_ids, tgt_ids)
    return *shapes, tuple((si, ti, pm.content()) for si, ti, pm in blocks)


def _blocks(M, src_ids, tgt_ids):
    """(source position, target position, stored map) of each block."""
    tgt_pos = {t: k for k, t in enumerate(tgt_ids)}
    for si, s in enumerate(src_ids):
        for t in M.fan.cones[s].facet_ids:
            if t in tgt_pos and (s, t) in M.maps:
                yield si, tgt_pos[t], M.maps[(s, t)]


def _offsets(M, ids, d):
    *offs, total = accumulate((M.dim_at(i, d) for i in ids), initial=0)
    return offs, total


def check_complex(M):
    """Certify shapes, grading, and d after d = 0 on generators.

    At a cone of dimension at least 2 the composite is C·B, B its block
    into its facets and C theirs into its codimension-2 faces
    (boundary).  It is a map of free modules over the cone's ring,
    because restrictions compose: cone to facet to face is cone to face.
    A map of free modules vanishes exactly when it vanishes on the
    generators, so C·B applied to each generator, at its own degree,
    certifies d after d = 0 in every degree, whatever the window; each
    nonzero row names its codimension-2 face.  Returns the list of
    problems, empty when the complex passes.
    """
    problems = []
    fan = M.fan
    for (s, t), pm in M.maps.items():
        if not fan.is_facet(t, s):
            problems.append(f"map {s}->{t}: target is not a facet of source")
            continue
        if pm.source is not M.modules.get(s) or pm.target is not M.modules.get(t):
            problems.append(f"map {s}->{t}: bound to wrong modules")
            continue
        try:
            pm.validate()
        except (CertificateError, InputError) as exc:
            problems.append(f"map {s}->{t}: {exc}")
    if problems:
        return problems
    for sigma in fan.cones:
        s = sigma.index
        if M.rank_at(s) == 0 or sigma.dim < 2:
            continue
        module = M.modules[s]
        _, codim2, B, C = boundary(M, s)
        bad = set()
        for d, g in map(module.generator, range(module.rank())):
            offs, _ = _offsets(M, codim2, d)
            for r in _linalg.matvec(C(d), _linalg.matvec(B(d), g)):
                bad.add(bisect_right(offs, r) - 1)
        problems += [
            f"composite differential {s} -> {codim2[k]} is nonzero"
            for k in sorted(bad)
        ]
    return problems


def sections(M, ring, tiles, walls):
    """(ambient, rows_at, key): the tiles' modules summed over ring, the
    degreewise rows from the tiles into the walls, whose kernel is the
    sections that glue across the walls, and their assemble_key.  They
    cut out stalks (boundary_setup), direct images and the top module."""
    ambient = DirectSumAmbient(ring, [M.modules[i] for i in tiles])
    rows_at = partial(assemble, M, tiles, walls)
    return ambient, rows_at, assemble_key(M, tiles, walls)


def boundary(M, i):
    """(facets, codim2, B, C): a cone's local data, where every
    certificate reads it.  facets and codim2 are the ids of cone i's
    facets and codimension-2 faces where M has a module; B(d) and C(d)
    are M's differential on degree d from the cone into the facets and
    from the facets into codim2, each assembled once per degree."""
    fan = M.fan
    cone = fan.cones[i]
    facets = [f for f in cone.facet_ids if M.rank_at(f)]
    codim2 = [
        r
        for r in cone.face_ids
        if fan.cones[r].dim == cone.dim - 2 and M.rank_at(r)
    ]
    B = cache(partial(assemble, M, [i], facets))
    C = cache(partial(assemble, M, facets, codim2))
    return facets, codim2, B, C


def boundary_setup(M, cone_id):
    """(facets, ambient, rows_at, key) of a cone, for the builders: its
    facets' ids in part order, then the sections of the facets across
    its codimension-2 faces over its ring."""
    facets, codim2, _, _ = boundary(M, cone_id)
    return facets, *sections(M, cone_ring(M.fan, cone_id), facets, codim2)


def boundary_kernel(M, cone_id):
    """(bases, facets) of the restricted complex at a cone's own slot."""
    facets, ambient, rows_at, _ = boundary_setup(M, cone_id)
    return family_from_kernel(ambient, rows_at, M.window), facets


def local_exactness(M, i):
    """The (cone, degree, why) failures of a positive-dimensional cone's
    module to surject onto its boundary kernel.

    check_complex(M) must pass first: d after d = 0 puts the module's
    image inside the boundary kernel, so the two are equal exactly when
    their dimensions are.  Each degree takes two ranks on the cone's
    blocks (boundary): the kernel dimension is the facet pieces'
    dimension minus rank C, and the image dimension is rank B.
    """
    lo, hi = M.window
    facets, _, B, C = boundary(M, i)
    failures = []
    for d in range(lo, hi + 1):
        fdim = sum(M.dim_at(f, d) for f in facets)
        if not fdim:
            continue
        zdim = fdim - _linalg.rank(C(d))
        if not M.rank_at(i):
            if zdim:
                failures.append((i, d, f"kernel dim {zdim}, no module"))
            continue
        ri = M.dim_at(i, d) and _linalg.rank(B(d))
        if ri != zdim:
            failures.append((i, d, f"image rank {ri}, kernel dim {zdim}"))
    return failures


def check_locally_exact(M):
    """Certify that each module surjects onto its boundary kernel.

    For every positive-dimensional cone and every window degree, the
    image of the cone's module under its facet maps must span the
    kernel of the next differential of the restricted complex.  It
    compares ranks only, so run check_complex first and stop on a
    problem.  Cones with equal local data, the assemble_keys of their
    two blocks, share one local_exactness run per call, and each gets
    the failures under its own id.  Returns the (cone, degree, why)
    failures, empty when the complex passes.
    """
    memo = {}
    failures = []
    for i in range(1, len(M.fan.cones)):  # cone 0 is the origin
        facets, codim2, _, _ = boundary(M, i)
        key = (assemble_key(M, facets, codim2), assemble_key(M, [i], facets))
        if key not in memo:
            memo[key] = local_exactness(M, i)
        failures += [(i, d, why) for _, d, why in memo[key]]
    return failures


def cohomology_degreewise(M):
    """Cohomology dimensions {(slot, degree): dim} over the window, zero
    entries omitted.

    Slot p holds the cones of dimension -p.
    """
    lo, hi = M.window
    n = M.fan.n
    table = {}
    by_dim = {
        k: [i for i in M.fan.cones_of_dim(k) if M.rank_at(i)]
        for k in range(n + 1)
    }
    ranks = {}

    def diff_rank(k, d):
        """Rank of the degree-d differential out of the dimension-k cones.

        It is the out-rank of slot -k and the in-rank of slot -k + 1, so
        it is assembled and ranked once for both.
        """
        if (k, d) not in ranks:
            srcs, tgts = by_dim.get(k, []), by_dim.get(k - 1, [])
            ranks[(k, d)] = (
                _linalg.rank(assemble(M, srcs, tgts, d))
                if srcs and tgts
                else 0
            )
        return ranks[(k, d)]

    for p in range(-n, 1):
        srcs = by_dim.get(-p, [])
        if not srcs:
            continue
        for d in range(lo, hi + 1):
            dim_here = sum(M.dim_at(i, d) for i in srcs)
            if dim_here == 0:
                continue
            h = dim_here - diff_rank(-p, d) - diff_rank(-p + 1, d)
            if h < 0:
                raise CertificateError(
                    f"negative cohomology dimension at slot {p} degree {d}"
                )
            if h:
                table[(p, d)] = h
    return table


def top_module(M):
    """The kernel at the lowest slot as a module over the full ring: the
    maximal cones' sections over "A", covered by kernel_cover on a memo
    of its own.  Returns (generator degrees, offender), the offender None
    when the module is free, as in cover_is_free_certificate.
    """
    n = M.fan.n
    top_ids = [i for i in M.fan.cones_of_dim(n) if M.rank_at(i)]
    if not top_ids:
        return (), "no top-dimensional modules"
    walls = [i for i in M.fan.cones_of_dim(n - 1) if M.rank_at(i)]
    ring = cone_ring(M.fan, "A")
    ambient, rows_at, key = sections(M, ring, top_ids, walls)
    cover = kernel_cover(ambient, rows_at, M.window, {}, key)
    return cover.module.degrees, cover_is_free_certificate(cover)


# ----- serialization -----

FORMAT_LINE = "complex-format 2"
# the earlier format, still read: a `sign` line per map, +1 or -1, and
# `entry` lines holding the map divided by it
FORMAT_1 = "complex-format 1"


def complex_to_text(M):
    """Canonical text form embedding the fan, window, modules and maps.

    Each nonzero map is written as `entry` lines holding the map as it
    acts.
    """
    window = f"window {M.window[0]} {M.window[1]}"
    lines = [FORMAT_LINE, window, M.fan.to_text().rstrip("\n")]
    for i in sorted(M.modules):
        m = M.modules[i]
        if m.rank() == 0:
            continue
        lines.append(
            f"module {i}: " + " ".join(str(d) for d in m.degrees)
        )
    for (s, t) in sorted(M.maps):
        entries = M.maps[(s, t)].entries
        for (i, j) in sorted(entries):
            lines.append(
                f"entry {s} {t} {i} {j}: {format_poly(entries[(i, j)])}"
            )
    return "\n".join(lines) + "\n"


@contextmanager
def _at_line(lineno, line):
    """Report a malformed serialized line as InputError naming it."""
    try:
        yield
    except (ValueError, IndexError) as exc:
        raise InputError(f"line {lineno}: {exc}: {line!r}") from exc


def complex_from_text(text, validate=True):
    """Parse complex_to_text output, or a complex-format 1 file.

    Each keyed line appears once: one window line, which is required,
    one module line per cone and one entry line per map and position.
    Generator degrees lie in [lo, hi - 2] of the window lo hi, the range
    every builder writes.  Format 2 has no sign lines.  A format-1 file
    has exactly one sign line per map with entries, +1 or -1, and each
    of its maps is its entries times the sign the file states.
    With validate=False the parsed complex is returned without running
    check_complex, so callers can run the certificate suite themselves
    and report failures instead of refusing the file.
    """
    lines = text.splitlines()
    header = lines[0].strip() if lines else ""
    if header not in (FORMAT_LINE, FORMAT_1):
        if line_keyword(header) == "complex-format":
            raise InputError(
                f"unsupported header {header!r}: "
                f"read are {FORMAT_1!r} and {FORMAT_LINE!r}"
            )
        raise InputError("missing complex-format header")
    window = None
    # fan lines stay at their own positions, so parse_fan's line numbers
    # are the file's
    fan_lines = [""] * len(lines)
    module_lines = []
    entry_lines = []
    sign_lines = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line_keyword(line)
        if keyword == "window":
            with _at_line(lineno, line):
                keys, _ = line_fields(line, "window lo hi")
                lo, hi = int(keys[0]), int(keys[1])
                if lo > hi:
                    raise ValueError(f"window low end {lo} above high end {hi}")
                if window is not None:
                    raise ValueError("repeated window line")
                window = (lo, hi)
        elif keyword in ("dim", "ray", "cone"):
            fan_lines[lineno - 1] = line
        elif keyword == "module":
            module_lines.append((lineno, line))
        elif keyword == "entry":
            entry_lines.append((lineno, line))
        elif keyword == "sign" and header == FORMAT_1:
            sign_lines.append((lineno, line))
        else:
            raise InputError(f"line {lineno}: unrecognized line: {raw.strip()!r}")
    if window is None:
        raise InputError("serialized complex has no window line")
    lo, hi = window
    fan = parse_fan("\n".join(fan_lines))
    modules = {}
    for lineno, line in module_lines:
        with _at_line(lineno, line):
            keys, body = line_fields(line, "module i: d1 ... dk")
            i = int(keys[0])
            degs = [int(t) for t in body.split()]
            if not 0 <= i < len(fan.cones):
                raise InputError(f"module line for unknown cone {i}")
            if i in modules:
                raise ValueError(f"repeated module line for cone {i}")
            outside = [d for d in degs if not lo <= d <= hi - 2]
            if outside:
                raise ValueError(
                    f"generator degree {outside[0]} outside the window's "
                    f"generator range [{lo}, {hi - 2}]"
                )
            modules[i] = FreeGradedModule(cone_ring(fan, i), degs)
    entries_by_pair = {}
    first_entry = {}  # (s, t) -> (lineno, line) of the map's first entry
    for lineno, line in entry_lines:
        with _at_line(lineno, line):
            keys, body = line_fields(line, "entry s t i j: p")
            s, t, i, j = [int(k) for k in keys]
            if s not in modules or t not in modules:
                raise InputError(f"entry for cones without modules: {s}->{t}")
            if not (0 <= i < modules[t].rank() and 0 <= j < modules[s].rank()):
                raise InputError(f"entry ({i},{j}) out of range")
            poly = parse_poly(body, modules[t].ring.nvars)
            degree(poly)  # ValueError when inhomogeneous
            entries = entries_by_pair.setdefault((s, t), {})
            if (i, j) in entries:
                raise ValueError(f"repeated entry ({i},{j}) of map {s}->{t}")
            entries[(i, j)] = poly
            first_entry.setdefault((s, t), (lineno, line))
    for (s, t), at in first_entry.items():
        if not fan.is_facet(t, s):
            with _at_line(*at):
                raise ValueError(f"map {s}->{t}: target is not a facet")
    signs = {}
    for lineno, line in sign_lines:
        with _at_line(lineno, line):
            keys, body = line_fields(line, "sign s t: e")
            s, t = int(keys[0]), int(keys[1])
            for i in (s, t):
                if not 0 <= i < len(fan.cones):
                    raise InputError(f"sign line for unknown cone {i}")
            if (s, t) in signs:
                raise ValueError(f"repeated sign line for map {s}->{t}")
            if (s, t) not in entries_by_pair:
                raise ValueError(f"sign line for map {s}->{t} with no entries")
            sign = int(body)
            if sign not in (1, -1):
                raise ValueError(f"sign of map {s}->{t} is neither +1 nor -1")
            signs[(s, t)] = sign
    if header == FORMAT_1:
        for (s, t), at in first_entry.items():
            if (s, t) not in signs:
                with _at_line(*at):
                    raise ValueError(
                        f"map {s}->{t} has entries but no sign line"
                    )
    maps = {}
    for (s, t), entries in entries_by_pair.items():
        if signs.get((s, t)) == -1:
            entries = {
                ij: {u: -c for u, c in p.items()} for ij, p in entries.items()
            }
        maps[(s, t)] = PolyMatrix(modules[s], modules[t], entries)
    M = FanComplex(fan, modules, maps, window)
    if validate:
        problems = check_complex(M)
        if problems:
            raise InputError(
                "serialized complex fails validity: " + "; ".join(problems)
            )
    return M
