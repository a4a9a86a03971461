"""Graded module layer: rings, restrictions, matrices, minimal covers."""

import random
from fractions import Fraction

import pytest

from fansheaf.complexes import boundary_setup
from fansheaf.errors import CertificateError, WindowExhausted
from fansheaf.fans import load_fan
from fansheaf.minimal import build_minimal
from fansheaf.modules import (
    ConeRing,
    DirectSumAmbient,
    FreeGradedModule,
    GradedSubspaceFamily,
    PolyMatrix,
    RingTower,
    compose,
    cover_is_free_certificate,
    family_from_kernel,
    kernel_degreewise,
    minimal_free_cover,
    minimal_generators,
)
from fansheaf.polys import Poly, parse_poly

from conftest import fan_path


def _ring(nvars):
    basis = tuple(
        tuple(1 if i == j else 0 for j in range(nvars)) for i in range(nvars)
    )
    return ConeRing("test", nvars, basis)


def test_free_module_dims():
    # two variables, generator degree -2: dims 1,2,3,4 at -2,0,2,4
    m = FreeGradedModule(_ring(2), [-2])
    assert [m.dim_at(d) for d in (-2, 0, 2, 4)] == [1, 2, 3, 4]
    assert m.dim_at(-3) == 0 and m.dim_at(-1) == 0
    m2 = FreeGradedModule(_ring(2), [-2, 0])
    assert m2.hilbert((-2, 2)) == {-2: 1, -1: 0, 0: 3, 1: 0, 2: 5}


def test_restriction_along_diagonal(corpus):
    """x + y restricts to 2t along the ray through (1,1)."""
    fan = corpus["blowquad"]
    tower = RingTower(fan)
    sigma = fan.cone_by_rays(
        [fan.rays.index((1, 0)), fan.rays.index((1, 1))]
    )
    rho = fan.cone_by_rays([fan.rays.index((1, 1))])
    amb_to_sigma = tower.restriction("A", sigma)
    x_plus_y = amb_to_sigma[0] + amb_to_sigma[1]
    sigma_to_rho = tower.restriction(sigma, rho)
    restricted = x_plus_y.substitute(sigma_to_rho, 1)
    assert restricted == Poly.variable(1, 0).scale(2)
    # functoriality: ambient -> rho directly gives the same answer
    amb_to_rho = tower.restriction("A", rho)
    assert amb_to_rho[0] + amb_to_rho[1] == restricted


def test_polymatrix_evaluate_and_compose():
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    t = Poly.variable(1, 0)
    f = PolyMatrix(a0, a2, None, {(0, 0): t})  # gen |-> t * gen'
    f.validate()
    m0 = f.evaluate(0)
    assert m0 == [[1]]  # source basis (gen, 1); target basis (gen', t)
    m2 = f.evaluate(2)
    assert m2 == [[1]]  # t*gen maps to t^2*gen', one monomial each side
    a4 = FreeGradedModule(r, [-4])
    g = PolyMatrix(a2, a4, None, {(0, 0): t})
    g.validate()
    gf = compose(g, f)
    assert gf.entries[(0, 0)] == t * t
    gf.validate()


def test_polymatrix_degree_validation():
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    bad = PolyMatrix(a0, a2, None, {(0, 0): Poly.const(1, 1)})
    with pytest.raises(CertificateError):
        bad.validate()


def test_kernel_degreewise_simple():
    # multiplication by t on a 1-variable ring is injective
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    f = PolyMatrix(a0, a2, None, {(0, 0): Poly.variable(1, 0)})
    fam = kernel_degreewise(f, (0, 6))
    assert all(fam.dim_at(d) == 0 for d in range(0, 7))
    # the zero map has everything as kernel
    z = PolyMatrix(a0, a2, None, {})
    fam2 = kernel_degreewise(z, (0, 6))
    assert [fam2.dim_at(d) for d in (0, 2, 4)] == [1, 1, 1]


def _full_family(module, window):
    amb = DirectSumAmbient(module.ring, (module,), (None,))
    return family_from_kernel(amb, lambda d: [], window)


def test_minimal_generators_free_module():
    r = _ring(2)
    m = FreeGradedModule(r, [-2, 0])
    fam = _full_family(m, (-2, 6))
    gens = minimal_generators(fam)
    assert [d for d, _ in gens] == [-2, 0]
    cover = minimal_free_cover(fam, r)
    assert cover.module.degrees == (-2, 0)
    ok, bad = cover_is_free_certificate(cover)
    assert ok and bad is None


def test_minimal_generators_positive_ideal():
    """The ideal (t) inside a 1-variable free module: one generator."""
    r = _ring(1)
    m = FreeGradedModule(r, [0])
    amb = DirectSumAmbient(r, (m,), (None,))
    bases = {d: [[1 if i == j else 0 for j in range(m.dim_at(d))]
                 for i in range(m.dim_at(d))]
             for d in range(2, 9)}
    fam = GradedSubspaceFamily(amb, (0, 8), bases)
    gens = minimal_generators(fam)
    assert [d for d, _ in gens] == [2]


def test_minimal_generators_guard_zone():
    r = _ring(1)
    m = FreeGradedModule(r, [0])
    fam = _full_family(m, (0, 8))
    # shrink the window so the generator at 0 falls in the guard zone
    small = GradedSubspaceFamily(fam.ambient, (-1, 0), {0: fam.basis_at(0)})
    with pytest.raises(WindowExhausted):
        minimal_generators(small)


def test_minimal_generators_closure_certificate():
    r = _ring(1)
    m = FreeGradedModule(r, [0])
    amb = DirectSumAmbient(r, (m,), (None,))
    # degree-0 line present, degree-2 image missing: not a submodule
    fam = GradedSubspaceFamily(amb, (0, 6), {0: [[1]]})
    with pytest.raises(CertificateError):
        minimal_generators(fam)


def test_cover_entries_read_off():
    """Cover map entries are the polynomial coordinates of the chosen
    generator representatives."""
    r = _ring(1)
    m = FreeGradedModule(r, [0])
    amb = DirectSumAmbient(r, (m,), (None,))
    bases = {d: [[1 if i == j else 0 for j in range(m.dim_at(d))]
                 for i in range(m.dim_at(d))]
             for d in range(2, 9)}
    fam = GradedSubspaceFamily(amb, (0, 8), bases)
    cover = minimal_free_cover(fam, r)
    assert cover.module.degrees == (2,)
    block = cover.blocks[0]
    assert block.entries[(0, 0)] == Poly.variable(1, 0)
    ok, _ = cover_is_free_certificate(cover)
    assert ok


def test_parse_poly_used_in_entries():
    r = _ring(2)
    a = FreeGradedModule(r, [0])
    b = FreeGradedModule(r, [-4])
    p = parse_poly("t1^2 + t1 t2", 2)
    f = PolyMatrix(a, b, None, {(0, 0): p})
    f.validate()
    assert f.evaluate(0)[0][0] in (0, 1)


def _oracle_image(ambient, i, d, col):
    """Coefficient vector of (image of variable i) * basis monomial col,
    multiplied out with Poly arithmetic."""
    k, j, u = ambient.piece_basis(d)[col]
    nv = ambient.parts[k].ring.nvars
    subst = ambient.substs[k]
    var = Poly.variable(nv, i) if subst is None else subst[i]
    prod = var * Poly(nv, {u: Fraction(1)})
    return [
        prod.terms.get(u2, 0) if (k2, j2) == (k, j) else 0
        for k2, j2, u2 in ambient.piece_basis(d + 2)
    ]


def _oracle_ambients(name):
    """Boundary ambients of every cone, and for cubefan also the ambient
    of the top modules over the full ring ("A")."""
    M = build_minimal(load_fan(fan_path(name)))
    for cone in M.fan.cones:
        yield boundary_setup(M, cone.index)[0], M.window
    if name == "cubefan":
        top = [i for i in M.fan.cones_of_dim(M.fan.n) if M.rank_at(i)]
        ambient = DirectSumAmbient(
            M.tower.ring("A"),
            tuple(M.modules[i] for i in top),
            tuple(M.tower.restriction("A", i) for i in top),
        )
        yield ambient, M.window


@pytest.mark.parametrize("name", ["p3", "cubefan"])
def test_apply_mult_matches_poly_oracle(name):
    """apply_mult on unit vectors against the Poly oracle, and linearity
    on random integer vectors."""
    rng = random.Random(0)
    for ambient, (lo, hi) in _oracle_ambients(name):
        nvars = ambient.base_ring.nvars
        for d in range(lo, hi - 1):
            dim = ambient.dim_at(d)
            if not dim:
                continue
            for i in range(nvars):
                images = [_oracle_image(ambient, i, d, c) for c in range(dim)]
                for c in range(dim):
                    e_c = [0] * dim
                    e_c[c] = 1
                    assert ambient.apply_mult(i, d, e_c) == images[c]
                x = [rng.randint(-3, 3) for _ in range(dim)]
                y = [rng.randint(-3, 3) for _ in range(dim)]
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                combo = [a * p + b * q for p, q in zip(x, y)]
                fx = ambient.apply_mult(i, d, x)
                fy = ambient.apply_mult(i, d, y)
                assert ambient.apply_mult(i, d, combo) == [
                    a * p + b * q for p, q in zip(fx, fy)
                ]
                assert fx == [
                    sum(x[c] * images[c][r] for c in range(dim))
                    for r in range(len(fx))
                ]
