"""Builders for minimal complexes on a fan.

A minimal complex based at a cone starts from a free rank-one module on
that cone and walks the cones of its star by increasing dimension: each
cone's boundary kernel, its facets' complexes.sections, gets a minimal
free cover, whose blocks become the differential's components.  One
build computes each distinct local kernel cover once
(modules.kernel_cover), keyed on the sections' key, so a repeated cone
assembles no rows; verify_minimality builds no kernel at all.  The
origin-based complex is the one based at the origin without shift: the
ground field placed in degree minus the ambient dimension, and the whole
fan as the star.
"""

from fansheaf import _linalg
from fansheaf.complexes import (
    FanComplex,
    boundary,
    boundary_setup,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
    top_module,
)
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.modules import (
    FreeGradedModule,
    cone_ring,
    default_window,
    kernel_cover,
)


def build_minimal(fan, window=None):
    """Minimal complex based at the origin cone."""
    return build_shifted_minimal(fan, 0, 0, window=window)


def build_shifted_minimal(fan, base_id, shift=0, window=None):
    """Minimal complex based at a cone, twisted by an internal shift.

    The base cone carries a free rank-one module whose generator sits in
    degree -(ambient dim) + (base dim) - shift; support is the star of
    the base.  A generator not below the guard zone is WindowExhausted.
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
    if gen_degree > window[1] - 2:
        raise WindowExhausted(
            f"cone {base_id}: base generator at degree {gen_degree} is "
            f"not below the guard zone", cone=base_id, degree=gen_degree,
        )
    M = FanComplex(fan, {}, {}, window)
    M.modules[base_id] = FreeGradedModule(
        cone_ring(fan, base_id), [gen_degree]
    )
    _extend(M, [i for i in fan.star(base_id) if i != base_id])
    return M


def _extend(M, cone_ids):
    """Grow the complex over the listed cones, ascending dimension.

    Cone ids are canonical (dimension-sorted), so plain order works.
    Cones with equal local data share one kernel cover search.
    """
    memo = {}
    for i in cone_ids:
        facets, ambient, rows_at, key = boundary_setup(M, i)
        cover = kernel_cover(ambient, rows_at, M.window, memo, key)
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
    onto its boundary kernel Z; and every supported non-base module L
    has Z's minimal generator degrees.  Exactness compares ranks
    (check_locally_exact), valid only once check_complex has passed, so
    an invalid complex stops there.  Degree d of L takes one elimination
    on the block B from the cone into its facets: seeded with the
    columns of L's non-bare basis elements, which span B(mL) in degree d
    (m the irrelevant ideal), each bare column that enlarges the span
    needs one generator in degree d.  Once exact, B(L) = Z and B(mL) =
    mZ, so the count is dim (Z/mZ)_d, which by graded Nakayama is Z's
    number of minimal generators in degree d; Z/mZ is a quotient of
    L/mL, so it is zero outside L's generator degrees.  Returns the list
    of problems, empty when M passes.
    """
    problems = ["invalid complex: " + p for p in check_complex(M)]
    if problems:
        return problems
    fan = M.fan
    n = fan.n
    want = -n + fan.cones[base_id].dim - shift
    if M.degrees_at(base_id) != (want,):
        problems.append(
            f"base module degrees {M.degrees_at(base_id)}, expected ({want},)"
        )
    star = set(fan.star(base_id))
    outside = [i for i in M.support_ids() if i not in star]
    if outside:
        problems.append(f"support leaves the base star at cones {outside}")
    problems.extend(
        f"not exact at cone {i} degree {d}: {why}"
        for i, d, why in check_locally_exact(M)
    )
    for i in M.support_ids():
        if i == base_id:
            continue
        module, (_, _, block, _) = M.modules[i], boundary(M, i)
        need = []
        for d in sorted(set(module.degrees)):
            basis = module.piece_basis(d)
            cols = _linalg.transpose(block(d), len(basis))
            bare = [not any(u) for _, u in basis]
            span = _linalg.Echelon([c for c, b in zip(cols, bare) if not b])
            need += [d] * sum(span.insert(c) for c, b in zip(cols, bare) if b)
        have, need = tuple(sorted(module.degrees)), tuple(need)
        if need != have:
            problems.append(
                f"cone {i}: module degrees {have}, kernel needs {need}"
            )
    return problems


def ih_module(M):
    """Generator degrees of the top cohomology over the full ring, as a
    tuple.

    Requires the complex to be acyclic away from the top slot and the
    top module to be degreewise free; both are certified and violations
    raise.
    """
    table = cohomology_degreewise(M)
    degrees, offender = top_module(M)
    n = M.fan.n
    stray = sorted({p for (p, d) in table if p != -n})
    if stray:
        raise CertificateError(
            f"cohomology not concentrated in the top slot: also at {stray}"
        )
    if offender is not None:
        raise CertificateError(
            f"top cohomology not free over the full ring at degree "
            f"{offender}"
        )
    return degrees
