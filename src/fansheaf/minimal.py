"""Builders for minimal complexes on a fan.

The origin-based minimal complex starts from the ground field placed in
degree minus the ambient dimension and walks the cones by increasing
dimension: each cone's boundary kernel gets a minimal free cover, whose
blocks become the differential's components.
Shifted variants run the same induction over the star of a base cone.
"""

from fansheaf.complexes import (
    CertificateReport,
    FanComplex,
    boundary_kernel,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
    top_module,
)
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.fans import is_complete
from fansheaf.modules import (
    FreeGradedModule,
    RingTower,
    default_window,
    minimal_free_cover,
    minimal_generators,
)


def build_minimal(fan, window=None):
    """Minimal complex based at the origin cone."""
    n = fan.n
    if window is None:
        window = default_window(n)
    tower = RingTower(fan)
    M = FanComplex(fan, tower, {}, {}, window=window)
    M.modules[0] = FreeGradedModule(tower.ring(0), [-n])
    _extend(M, [c.index for c in fan.cones if c.dim >= 1])
    return M


def build_shifted_minimal(fan, base_id, shift=0, window=None):
    """Minimal complex based at a cone, twisted by an internal shift.

    The base cone carries a free rank-one module whose generator sits in
    degree -(ambient dim) + (base dim) - shift; support is the star of
    the base.
    """
    if base_id not in range(len(fan.cones)):
        raise InputError(f"no cone {base_id} to base the complex at")
    n = fan.n
    base = fan.cones[base_id]
    gen_degree = -n + base.dim - shift
    if window is None:
        window = default_window(n)
    if gen_degree < window[0]:
        raise InputError(
            f"window low end {window[0]} above base generator {gen_degree}"
        )
    tower = RingTower(fan)
    M = FanComplex(fan, tower, {}, {}, window=window)
    M.modules[base_id] = FreeGradedModule(tower.ring(base_id), [gen_degree])
    _extend(M, [i for i in fan.star(base_id) if i != base_id])
    return M


def _extend(M, cone_ids):
    """Grow the complex over the listed cones, ascending dimension.

    Cone ids are canonical (dimension-sorted), so plain order works.
    """
    lo, hi = M.window
    for i in cone_ids:
        fam, facets = boundary_kernel(M, i, M.window)
        if all(fam.dim_at(d) == 0 for d in range(lo, hi + 1)):
            continue
        try:
            cover = minimal_free_cover(fam, M.tower.ring(i))
        except WindowExhausted as exc:
            raise WindowExhausted(
                f"cone {i}: {exc}", cone=i, degree=exc.degree
            ) from None
        if cover.module.rank() == 0:
            continue
        M.modules[i] = cover.module
        for rho, block in zip(facets, cover.blocks):
            if not block.is_zero():
                M.maps[(i, rho)] = block


def stalk_report(M):
    """Generator degrees per supported cone, as a plain dict."""
    return {
        c.index: M.degrees_at(c.index)
        for c in M.fan.cones
        if M.rank_at(c.index)
    }


def verify_minimality(M, base_id=0, shift=0):
    """Certify the defining conditions of a (shifted) minimal complex.

    Checks, degree by degree on the complex's window: the complex is
    valid; the base module is free of rank one with the right generator
    degree; support lies in the star of the base; every module surjects
    onto its boundary kernel; and every non-base module's generator
    degrees agree with the minimal generators of that kernel.
    """
    problems = []
    fan = M.fan
    n = fan.n
    rep = check_complex(M)
    if not rep.ok:
        return CertificateReport(["invalid complex: " + p for p in rep.problems])
    want = -n + fan.cones[base_id].dim - shift
    if M.degrees_at(base_id) != (want,):
        problems.append(
            f"base module degrees {M.degrees_at(base_id)}, expected ({want},)"
        )
    star = set(fan.star(base_id))
    outside = [i for i in M.support_ids() if i not in star]
    if outside:
        problems.append(f"support leaves the base star at cones {outside}")
    exact = check_locally_exact(M, M.window)
    problems.extend(
        f"not exact at cone {i} degree {d}: {why}"
        for i, d, why in exact.problems
    )
    for i in M.support_ids():
        if i == base_id:
            continue
        fam, _ = boundary_kernel(M, i, M.window)
        gens = tuple(sorted(d for d, _ in minimal_generators(fam)))
        have = tuple(sorted(M.degrees_at(i)))
        if gens != have:
            problems.append(
                f"cone {i}: module degrees {have}, kernel needs {gens}"
            )
    return CertificateReport(problems)


class IHReport:
    """The top-slot cohomology viewed over the full coordinate ring."""

    def __init__(self, generator_degrees, complete):
        self.generator_degrees = generator_degrees
        self.complete = complete

    @property
    def betti(self):
        counts = {}
        for d in self.generator_degrees:
            counts[d] = counts.get(d, 0) + 1
        return counts


def ih_module(M, require_complete=False):
    """Generator degrees of the top cohomology over the full ring.

    Requires the complex to be acyclic away from the top slot and the
    top module to be degreewise free; both are certified and violations
    raise.  With require_complete, non-complete fans are rejected up
    front.
    """
    complete = is_complete(M.fan)
    if require_complete and not complete:
        raise InputError("fan is not complete")
    window = M.window or default_window(M.fan.n)
    rep = cohomology_degreewise(M, window)
    top = top_module(M, window)
    n = M.fan.n
    stray = sorted({p for (p, d) in rep.table if p != -n})
    if stray:
        raise CertificateError(
            f"cohomology not concentrated in the top slot: also at {stray}"
        )
    if not top.free:
        raise CertificateError(
            f"top cohomology not free over the full ring at degree "
            f"{top.offender}"
        )
    return IHReport(top.generator_degrees, complete)
