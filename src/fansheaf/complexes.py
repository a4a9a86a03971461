"""Complexes of graded modules on a fan.

A FanComplex places a free graded module on each cone (missing = zero)
and, on each (cone, facet) pair, the component of the differential
between them; together they send the sum of the dimension-i modules to
the sum of the dimension-(i-1) modules.  Homological degree of a cone's
slot is minus its dimension.  The fan's incidence signs enter only the
file format: a serialized complex stores each component divided by its
sign.

assemble gives the differential between listed cones on one
degree piece in _linalg's one matrix form, a list of sparse rows
{col: value} with no stored zeros; kernels, ranks and the certificates
below take it as it is.  check_complex certifies shapes, grading, and
the vanishing of the composite differential symbolically;
check_locally_exact certifies the surjectivity of each module onto the
boundary kernel of its own cone degree by degree.  Both run on
arbitrary complexes, not only the ones built by this package.
"""

from contextlib import contextmanager

from fansheaf import _linalg
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.fans import line_keyword, parse_fan
from fansheaf.modules import (
    DirectSumAmbient,
    FreeGradedModule,
    PolyMatrix,
    RingTower,
    compose,
    cover_is_free_certificate,
    family_from_kernel,
    minimal_free_cover,
    pm_add,
)
from fansheaf.polys import format_poly, parse_poly


class FanComplex:
    """Modules on a fan's cones and the differential's facet components."""

    def __init__(self, fan, tower, modules, maps, window=None):
        self.fan = fan
        self.tower = tower
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
    tgt_pos = {t: k for k, t in enumerate(tgt_ids)}
    for si, s in enumerate(src_ids):
        for t in M.fan.cones[s].facet_ids:
            if t not in tgt_pos or (s, t) not in M.maps:
                continue
            block = M.maps[(s, t)].evaluate(d)
            r0 = row_off[tgt_pos[t]]
            c0 = col_off[si]
            for r, brow in enumerate(block):
                out = rows[r0 + r]
                for c, x in brow.items():
                    out[c0 + c] = x
    return rows


def _offsets(M, ids, d):
    offs = []
    total = 0
    for i in ids:
        offs.append(total)
        total += M.dim_at(i, d)
    return offs, total


class CertificateReport:
    """Outcome of a certificate: it passes exactly when no problem was
    found.  Problems are strings, or (cone, degree, why) tuples for
    check_locally_exact."""

    def __init__(self, problems):
        self.problems = problems

    @property
    def ok(self):
        return not self.problems

    def __bool__(self):
        return self.ok


def check_complex(M):
    """Certify shapes, grading, and d after d = 0 symbolically."""
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
        return CertificateReport(problems)
    for sigma in M.fan.cones:
        s = sigma.index
        if M.rank_at(s) == 0 or sigma.dim < 2:
            continue
        for rho_id in sigma.face_ids:
            if fan.cones[rho_id].dim != sigma.dim - 2:
                continue
            total = None
            for t in sigma.facet_ids:
                if rho_id not in fan.cones[t].facet_ids:
                    continue
                if (s, t) not in M.maps or (t, rho_id) not in M.maps:
                    continue
                term = compose(M.maps[(t, rho_id)], M.maps[(s, t)])
                total = term if total is None else pm_add(total, term)
            if total is not None and not total.is_zero():
                problems.append(
                    f"composite differential {s} -> {rho_id} is nonzero"
                )
    return CertificateReport(problems)


def boundary_setup(M, cone_id):
    """Ambient sum of a cone's facet modules plus its constraint rows.

    Returns (ambient, facets, rows_at): the facet modules viewed over
    the cone's ring, the facet ids in part order, and the degreewise
    constraint rows (the differential from facets into codimension-2
    faces inside the cone).
    """
    fan = M.fan
    cone = fan.cones[cone_id]
    facets = [i for i in cone.facet_ids if M.rank_at(i)]
    ring = M.tower.ring(cone_id)
    ambient = DirectSumAmbient(ring, [M.modules[i] for i in facets])
    codim2 = [
        i
        for i in cone.face_ids
        if fan.cones[i].dim == cone.dim - 2 and M.rank_at(i)
    ]

    return ambient, facets, lambda d: assemble(M, facets, codim2, d)


def boundary_kernel(M, cone_id, window):
    """Kernel family of the restricted complex at a cone's own slot."""
    ambient, facets, rows_at = boundary_setup(M, cone_id)
    fam = family_from_kernel(ambient, rows_at, window)
    return fam, facets


def check_locally_exact(M, window):
    """Certify that each module surjects onto its boundary kernel.

    For every positive-dimensional cone and every window degree, the
    image of the cone's module under its facet maps must span the
    kernel of the next differential of the restricted complex.  The
    report's problems are (cone, degree, why) tuples.
    """
    lo, hi = window
    failures = []
    for cone in M.fan.cones:
        if cone.dim == 0:
            continue
        i = cone.index
        fam, facets = boundary_kernel(M, i, window)
        has_module = M.rank_at(i) > 0
        for d in range(lo, hi + 1):
            zdim = fam.dim_at(d)
            if not has_module:
                if zdim:
                    failures.append((i, d, f"kernel dim {zdim}, no module"))
                continue
            # image vectors are the columns of the assembled map, so the
            # image rank is its (row) rank
            mat = assemble(M, [i], facets, d)
            ri = _linalg.rank(mat)
            if ri != zdim:
                failures.append((i, d, f"image rank {ri}, kernel dim {zdim}"))
                continue
            if zdim:
                img_rows = _linalg.transpose(mat, M.dim_at(i, d))
                if _linalg.rank(img_rows + list(fam.basis_at(d))) != zdim:
                    failures.append((i, d, "image not inside kernel"))
    return CertificateReport(failures)


class CohomologyReport:
    """Degreewise cohomology dims."""

    def __init__(self, window, table):
        self.window = window
        self.table = table  # {(p, d): dim}, zero entries omitted

    def dims_at(self, p):
        return {d: v for (q, d), v in self.table.items() if q == p}


class TopModuleReport:
    """H at the top slot viewed over the full coordinate ring."""

    def __init__(self, free, generator_degrees, offender):
        self.free = free
        self.generator_degrees = generator_degrees
        self.offender = offender


def cohomology_degreewise(M, window):
    """Cohomology dimensions per (slot, degree) over the window.

    Slot p holds the cones of dimension -p.
    """
    lo, hi = window
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
    return CohomologyReport(window, table)


def top_module(M, window):
    """The kernel at the lowest slot as a module over the full ring.

    Its minimal generators are computed over the window and degreewise
    freeness is certified by Hilbert comparison.
    """
    n = M.fan.n
    top_ids = [i for i in M.fan.cones_of_dim(n) if M.rank_at(i)]
    if not top_ids:
        return TopModuleReport(False, (), "no top-dimensional modules")
    ring = M.tower.ring("A")
    ambient = DirectSumAmbient(ring, [M.modules[i] for i in top_ids])
    tgts = [i for i in M.fan.cones_of_dim(n - 1) if M.rank_at(i)]

    fam = family_from_kernel(
        ambient, lambda d: assemble(M, top_ids, tgts, d), window
    )
    try:
        cover = minimal_free_cover(fam, ring)
    except WindowExhausted as exc:
        raise WindowExhausted(
            f"cone A: {exc}", cone="A", degree=exc.degree
        ) from None
    free, offender = cover_is_free_certificate(cover)
    return TopModuleReport(free, tuple(cover.module.degrees), offender)


# ----- serialization -----

FORMAT_LINE = "complex-format 1"


def complex_to_text(M):
    """Canonical text form embedding the fan, window, modules and maps.

    Each nonzero map is written as a `sign` line, the fan's incidence
    sign, and `entry` lines holding the map divided by that sign.
    """
    lines = [FORMAT_LINE]
    if M.window is not None:
        lines.append(f"window {M.window[0]} {M.window[1]}")
    lines.append(M.fan.to_text().rstrip("\n"))
    for i in sorted(M.modules):
        m = M.modules[i]
        if m.rank() == 0:
            continue
        lines.append(
            f"module {i}: " + " ".join(str(d) for d in m.degrees)
        )
    for (s, t) in sorted(M.maps):
        pm = M.maps[(s, t)]
        if pm.is_zero():
            continue
        sign = M.fan.incidence_sign(s, t)
        lines.append(f"sign {s} {t}: {sign:+d}")
        for (i, j) in sorted(pm.entries):
            entry = format_poly(pm.entries[(i, j)].scale(sign))
            lines.append(f"entry {s} {t} {i} {j}: {entry}")
    return "\n".join(lines) + "\n"


@contextmanager
def _at_line(lineno, line):
    """Report a malformed serialized line as InputError naming it."""
    try:
        yield
    except (ValueError, IndexError) as exc:
        raise InputError(f"line {lineno}: {exc}: {line!r}") from exc


def complex_from_text(text, validate=True):
    """Parse complex_to_text output; signs are recomputed and verified.

    Each map is stored as its entries times the fan's incidence sign.
    With validate=False the parsed complex is returned without running
    check_complex, so callers can run the certificate suite themselves
    and report failures instead of refusing the file.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_LINE:
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
                parts = line.split()
                lo, hi = int(parts[1]), int(parts[2])
                if lo > hi:
                    raise ValueError(f"window low end {lo} above high end {hi}")
                window = (lo, hi)
        elif keyword in ("dim", "ray", "cone"):
            fan_lines[lineno - 1] = line
        elif keyword == "module":
            module_lines.append((lineno, line))
        elif keyword == "entry":
            entry_lines.append((lineno, line))
        elif keyword == "sign":
            sign_lines.append((lineno, line))
        else:
            raise InputError(f"line {lineno}: unrecognized line: {raw.strip()!r}")
    fan = parse_fan("\n".join(fan_lines))
    tower = RingTower(fan)
    modules = {}
    for lineno, line in module_lines:
        with _at_line(lineno, line):
            head, _, body = line.partition(":")
            i = int(head.split()[1])
            degs = [int(t) for t in body.split()]
            if not 0 <= i < len(fan.cones):
                raise InputError(f"module line for unknown cone {i}")
            modules[i] = FreeGradedModule(tower.ring(i), degs)
    entries_by_pair = {}
    for lineno, line in entry_lines:
        with _at_line(lineno, line):
            head, _, body = line.partition(":")
            _, s, t, i, j = head.split()
            s, t, i, j = int(s), int(t), int(i), int(j)
            if s not in modules or t not in modules:
                raise InputError(f"entry for cones without modules: {s}->{t}")
            if not (0 <= i < modules[t].rank() and 0 <= j < modules[s].rank()):
                raise InputError(f"entry ({i},{j}) out of range")
            poly = parse_poly(body, tower.ring(t).nvars)
            poly.degree()  # ValueError when inhomogeneous
            entries_by_pair.setdefault((s, t), {})[(i, j)] = poly
    maps = {}
    for (s, t), entries in entries_by_pair.items():
        if not fan.is_facet(t, s):
            raise InputError(f"map {s}->{t}: target is not a facet")
        sign = fan.incidence_sign(s, t)
        maps[(s, t)] = PolyMatrix(
            modules[s],
            modules[t],
            {ij: p.scale(sign) for ij, p in entries.items()},
        )
    for lineno, line in sign_lines:
        with _at_line(lineno, line):
            head, _, body = line.partition(":")
            _, s, t = head.split()
            s, t = int(s), int(t)
            got = int(body)
            for i in (s, t):
                if not 0 <= i < len(fan.cones):
                    raise InputError(f"sign line for unknown cone {i}")
            want = fan.incidence_sign(s, t)
            if got != want:
                raise InputError(
                    f"sign {s} {t} is {got}, convention gives {want}"
                )
    M = FanComplex(fan, tower, modules, maps, window=window)
    if validate:
        report = check_complex(M)
        if not report.ok:
            raise InputError(
                "serialized complex fails validity: "
                + "; ".join(report.problems)
            )
    return M
