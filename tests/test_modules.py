"""Graded module layer: rings, restrictions, matrices, minimal covers."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fansheaf import _linalg
from fansheaf.complexes import boundary
from fansheaf.errors import CertificateError, WindowExhausted
from fansheaf.fans import load_fan
from fansheaf.minimal import build_minimal
from fansheaf.modules import (
    ConeRing,
    DirectSumAmbient,
    FreeGradedModule,
    PolyMatrix,
    cone_ring,
    cover_is_free_certificate,
    family_from_kernel,
    lift,
    minimal_free_cover,
    minimal_generators,
)
from fansheaf.polys import monomials, parse_poly

from brute_oracle import (
    ambient_basis,
    leftmost_generators,
    linear_images,
    mul,
    mult_by_var_columns,
    substitute,
)
from conftest import fan_path
from quotient import cone_by_rays


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
    assert [m2.dim_at(d) for d in range(-2, 3)] == [1, 0, 3, 0, 5]


def test_restriction_along_diagonal(corpus):
    """x + y restricts to 2t along the ray through (1,1)."""
    fan = corpus["blowquad"]
    sigma = cone_by_rays(
        fan, [fan.rays.index((1, 0)), fan.rays.index((1, 1))]
    )
    rho = cone_by_rays(fan, [fan.rays.index((1, 1))])
    amb, sig, r = (cone_ring(fan, key) for key in ("A", sigma, rho))
    x_plus_y = {(1, 0): 1, (0, 1): 1}
    on_sigma = substitute(x_plus_y, linear_images(amb, sig), sig.nvars)
    restricted = substitute(on_sigma, linear_images(sig, r), 1)
    assert restricted == {(1,): 2}
    # functoriality: ambient -> rho directly gives the same answer
    assert substitute(x_plus_y, linear_images(amb, r), 1) == restricted


def test_polymatrix_evaluate_and_compose():
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    t = {(1,): 1}
    f = PolyMatrix(a0, a2, {(0, 0): t})  # gen |-> t * gen'
    f.validate()
    m0 = f.evaluate(0)
    assert m0 == [{0: 1}]  # source basis (gen, 1); target basis (gen', t)
    m2 = f.evaluate(2)
    assert m2 == [{0: 1}]  # t*gen maps to t^2*gen', one monomial each side
    # g after f, evaluated, is the map with entry t^2 evaluated
    a4 = FreeGradedModule(r, [-4])
    g = PolyMatrix(a2, a4, {(0, 0): t})
    g.validate()
    gf = PolyMatrix(a0, a4, {(0, 0): {(2,): 1}})
    gf.validate()
    for d in (0, 2, 4):
        cols = _linalg.transpose(f.evaluate(d), a0.dim_at(d))
        assert [_linalg.matvec(g.evaluate(d), c) for c in cols] == (
            _linalg.transpose(gf.evaluate(d), a0.dim_at(d))
        )


def test_polymatrix_degree_validation():
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    bad = PolyMatrix(a0, a2, {(0, 0): {(0,): 1}})
    with pytest.raises(CertificateError):
        bad.validate()


def test_from_columns_reads_entries_and_checks_grading():
    """Column j is the image of source generator j in the target's
    piece; a column in the wrong degree piece is a wrongly graded map."""
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    # target piece 0 has the one basis element (gen', t)
    f = PolyMatrix.from_columns(a0, a2, [(0, {0: 3})])
    assert f.entries == {(0, 0): {(1,): 3}}
    with pytest.raises(CertificateError, match="expected 2"):
        PolyMatrix.from_columns(a0, a2, [(2, {0: 1})])


def test_lift_zero_image_and_missing_preimage():
    """A zero image lifts to {}, an image in the span lifts exactly, and
    an image outside it raises naming its degree."""
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    f = PolyMatrix(a0, a2, {(0, 0): {(1,): 2}})
    images = [(0, {}), (0, {0: 4}), (2, {0: 1})]
    assert lift(f.evaluate, a0, images, "unused") == [
        (0, {}), (0, {0: 2}), (2, {0: Fraction(1, 2)})
    ]
    zero = PolyMatrix(a0, a2, {})
    assert lift(zero.evaluate, a0, [(2, {})], "unused") == [(2, {})]
    with pytest.raises(CertificateError, match=r"^no preimage at degree 2$"):
        lift(zero.evaluate, a0, [(0, {}), (2, {0: 1})], "no preimage")


def test_kernel_degreewise_simple():
    """Kernel bases of one PolyMatrix over its source module."""

    def kernel(f, window):
        ambient = DirectSumAmbient(f.source.ring, (f.source,))
        return family_from_kernel(ambient, f.evaluate, window)

    # multiplication by t on a 1-variable ring is injective
    r = _ring(1)
    a0 = FreeGradedModule(r, [0])
    a2 = FreeGradedModule(r, [-2])
    f = PolyMatrix(a0, a2, {(0, 0): {(1,): 1}})
    assert kernel(f, (0, 6)) == {}
    # the zero map has everything as kernel
    z = PolyMatrix(a0, a2, {})
    bases = kernel(z, (0, 6))
    assert [len(bases.get(d, ())) for d in (0, 2, 4)] == [1, 1, 1]


def _no_rows(d):
    return []


def _whole(module):
    """The ambient of one free module, whose kernel of no rows is all of
    it."""
    return DirectSumAmbient(module.ring, (module,))


def test_minimal_generators_free_module():
    r = _ring(2)
    amb = _whole(FreeGradedModule(r, [-2, 0]))
    window = (-2, 6)
    bases = family_from_kernel(amb, _no_rows, window)
    gens = minimal_generators(amb, bases, window)
    assert [d for d, _ in gens] == [-2, 0]
    cover = minimal_free_cover(amb, _no_rows, window)
    assert cover.module.degrees == (-2, 0)
    assert cover_is_free_certificate(cover) is None


def _ideal(nvars):
    """(ambient, rows_by_degree) of the maximal ideal (t_1, ..., t_nvars)
    inside a free module on one degree-0 generator: cut out by the one
    equation on the degree-0 piece."""
    r = _ring(nvars)
    amb = DirectSumAmbient(r, (FreeGradedModule(r, [0]),))
    return amb, lambda d: [{0: 1}] if d == 0 else []


def test_minimal_generators_positive_ideal():
    """The ideal (t) inside a 1-variable free module: one generator."""
    amb, rows = _ideal(1)
    bases = family_from_kernel(amb, rows, (0, 8))
    assert bases == {d: ({0: 1},) for d in (2, 4, 6, 8)}
    gens = minimal_generators(amb, bases, (0, 8))
    assert [d for d, _ in gens] == [2]


def test_minimal_generators_guard_zone():
    r = _ring(1)
    # a window so small that the generator at 0 falls in the guard zone
    amb = _whole(FreeGradedModule(r, [0]))
    small = family_from_kernel(amb, _no_rows, (-1, 0))
    with pytest.raises(WindowExhausted) as exc:
        minimal_generators(amb, small, (-1, 0))
    assert exc.value.cone == r.label


def test_minimal_generators_closure_certificate():
    amb = _whole(FreeGradedModule(_ring(1), [0]))
    # degree-0 line present, degree-2 image missing: not a submodule
    bases = family_from_kernel(amb, lambda d: [{0: 1}] if d else [], (0, 6))
    assert bases == {0: ({0: 1},)}
    with pytest.raises(CertificateError):
        minimal_generators(amb, bases, (0, 6))


def _two_lines():
    """The free module on two degree-0 generators over one variable;
    basis index 0 is t^k * e1 and index 1 is t^k * e2."""
    return _whole(FreeGradedModule(_ring(1), [0, 0]))


def test_minimal_generators_closure_with_nonempty_degree():
    """Z(2) is the line of t*e2, but t*e1, the image of Z(0), lies
    outside it: closure fails although Z(2) is not empty."""
    bases = {0: [{0: 1}], 2: [{1: 1}]}
    with pytest.raises(CertificateError, match="degree 2"):
        minimal_generators(_two_lines(), bases, (0, 6))


def test_minimal_generators_closure_checked_before_guard_zone():
    """Degree 2 is in the guard zone of the window (0, 2), and t*e2 is a
    new generator there; the closure failure at the same degree is the
    error raised."""
    amb = _two_lines()
    with pytest.raises(CertificateError, match="degree 2"):
        minimal_generators(amb, {0: [{0: 1}], 2: [{1: 1}]}, (0, 2))
    # closed, the same new generator exhausts the window
    closed = {0: [{0: 1}], 2: [{0: 1}, {1: 1}]}
    with pytest.raises(WindowExhausted) as exc:
        minimal_generators(amb, closed, (0, 2))
    assert exc.value.cone == amb.base_ring.label


@st.composite
def kernel_families(draw):
    """(ambient, bases, window): the kernel of a random map of free
    modules over 1-3 variables on a window, and sometimes one degree of
    it cut to its first rows so that closure may fail."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    ring = _ring(nvars)
    degs = st.sampled_from([-2, 0, 2])
    src = draw(st.lists(degs, min_size=2, max_size=3))
    tgt = [
        d - 2 * draw(st.integers(min_value=0, max_value=1))
        for d in draw(st.lists(degs, min_size=1, max_size=2))
    ]
    coeff = st.sampled_from([0, 0, 1, -1, 2])
    entries = {}
    for i, dt in enumerate(tgt):
        for j, ds in enumerate(src):
            entries[(i, j)] = {
                u: c
                for u in monomials(nvars, ds - dt)
                if (c := draw(coeff))
            }
    f = PolyMatrix(
        FreeGradedModule(ring, src), FreeGradedModule(ring, tgt), entries
    )
    lo = min(src)
    window = (lo, lo + draw(st.integers(min_value=2, max_value=10)))
    amb = _whole(f.source)
    bases = family_from_kernel(amb, f.evaluate, window)
    cut = draw(st.none() | st.sampled_from(sorted(bases) or [None]))
    if cut is not None:
        rows = bases[cut]
        keep = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        bases = {**bases, cut: rows[:keep]}
    return amb, bases, window


@settings(max_examples=80, deadline=None)
@given(fam=kernel_families())
def test_minimal_generators_match_leftmost_scan(fam):
    """Degrees, representatives and the first failure agree with the
    one-vector-at-a-time leftmost-pivot scan."""
    amb, bases, window = fam
    want = leftmost_generators(
        window, amb.base_ring.nvars, lambda d: bases.get(d, ()), amb.dim_at,
        amb.apply_mult,
    )
    try:
        got = minimal_generators(amb, bases, window)
    except (CertificateError, WindowExhausted) as exc:
        if isinstance(exc, WindowExhausted):
            assert exc.cone == amb.base_ring.label
            got = ("window exhausted", exc.degree)
        else:
            got = ("not closed", int(str(exc).rsplit(" ", 1)[1]))
    assert got == want


def test_cover_entries_read_off():
    """Cover map entries are the polynomial coordinates of the chosen
    generator representatives."""
    cover = minimal_free_cover(*_ideal(1), (0, 8))
    assert cover.module.degrees == (2,)
    block = cover.blocks[0]
    assert block.entries[(0, 0)] == {(1,): 1}
    assert cover_is_free_certificate(cover) is None


def test_freeness_certificate_names_the_first_unequal_degree():
    """The maximal ideal (t1, t2) is generated by t1 and t2 in degree 2
    but is not free: the cover's degree-4 piece has dimension 4, the
    ideal's 3 (t1^2, t1 t2, t2^2), and lower degrees agree."""
    cover = minimal_free_cover(*_ideal(2), (0, 8))
    assert cover.module.degrees == (2, 2)
    assert cover.dims == {2: 2, 4: 3, 6: 4, 8: 5}
    assert cover_is_free_certificate(cover) == 4


def test_parse_poly_used_in_entries():
    r = _ring(2)
    a = FreeGradedModule(r, [0])
    b = FreeGradedModule(r, [-4])
    p = parse_poly("t1^2 + t1 t2", 2)
    f = PolyMatrix(a, b, {(0, 0): p})
    f.validate()
    assert f.evaluate(0)[0].get(0, 0) in (0, 1)


def _sparse(dense):
    return {c: x for c, x in enumerate(dense) if x}


def _oracle_image(ambient, i, d, col):
    """Dense coefficient vector of (image of variable i) * basis monomial
    col, multiplied out with brute_oracle's product."""
    k, j, u = ambient_basis(ambient, d)[col]
    var = linear_images(ambient.base_ring, ambient.parts[k].ring)[i]
    prod = mul(var, {u: 1})
    return [
        prod.get(u2, 0) if (k2, j2) == (k, j) else 0
        for k2, j2, u2 in ambient_basis(ambient, d + 2)
    ]


def _boundary_ambient(M, i):
    """The sum of the modules on cone i's facets over cone i's ring, the
    ambient of its boundary kernel."""
    facets = boundary(M, i)[0]
    return DirectSumAmbient(
        cone_ring(M.fan, i), [M.modules[f] for f in facets]
    )


def _oracle_ambients(name):
    """Boundary ambients of every cone, and for cubefan also the ambient
    of the top modules over the full ring ("A")."""
    M = build_minimal(load_fan(fan_path(name)))
    for cone in M.fan.cones:
        yield _boundary_ambient(M, cone.index), M.window
    if name == "cubefan":
        top = [i for i in M.fan.cones_of_dim(M.fan.n) if M.rank_at(i)]
        ambient = DirectSumAmbient(
            cone_ring(M.fan, "A"), tuple(M.modules[i] for i in top)
        )
        yield ambient, M.window


@pytest.mark.parametrize("name", ["p3", "cubefan"])
def test_apply_mult_matches_poly_oracle(name):
    """apply_mult on unit vectors against the product oracle, and linearity
    on random integer vectors; images are sparse with no stored zeros."""
    rng = random.Random(0)
    for ambient, (lo, hi) in _oracle_ambients(name):
        nvars = ambient.base_ring.nvars
        for d in range(lo, hi - 1):
            dim = ambient.dim_at(d)
            if not dim:
                continue
            out_dim = ambient.dim_at(d + 2)
            for i in range(nvars):
                images = [_oracle_image(ambient, i, d, c) for c in range(dim)]
                for c in range(dim):
                    got = ambient.apply_mult(i, d, {c: 1})
                    assert all(got.values())
                    assert got == _sparse(images[c])
                x = [rng.randint(-3, 3) for _ in range(dim)]
                y = [rng.randint(-3, 3) for _ in range(dim)]
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                combo = [a * p + b * q for p, q in zip(x, y)]
                fx = ambient.apply_mult(i, d, _sparse(x))
                fy = ambient.apply_mult(i, d, _sparse(y))
                got = ambient.apply_mult(i, d, _sparse(combo))
                assert all(got.values())
                assert got == _sparse(
                    a * fx.get(r, 0) + b * fy.get(r, 0) for r in range(out_dim)
                )
                assert fx == _sparse(
                    sum(x[c] * images[c][r] for c in range(dim))
                    for r in range(out_dim)
                )


CUBESTAR = (
    Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    / "cubestar.fan"
)
ORACLE_FANS = [
    "p1", "p2", "p1xp1", "p3", "p2blow", "cubefan", "quadrant",
    "conesquare", "conecube", "blowquad", "starsq", "twostep", "cubestar",
]


@pytest.mark.parametrize("name", ORACLE_FANS)
def test_mult_by_var_matches_exponent_oracle(name):
    """The index-table columns of mult_by_var equal, column for column,
    the exponent-arithmetic construction of brute_oracle: on every
    boundary ambient of the minimal complex and on the ambient of
    its top modules over the full ring "A", for every base variable and
    every window degree."""
    path = CUBESTAR if name == "cubestar" else fan_path(name)
    M = build_minimal(load_fan(path))
    n = M.fan.n
    ambients = [_boundary_ambient(M, c.index) for c in M.fan.cones]
    top = [i for i in M.fan.cones_of_dim(n) if M.rank_at(i)]
    ambients.append(
        DirectSumAmbient(cone_ring(M.fan, "A"), [M.modules[i] for i in top])
    )
    lo, hi = M.window
    for ambient in ambients:
        for i in range(ambient.base_ring.nvars):
            for d in range(lo, hi + 1):
                want = mult_by_var_columns(ambient, i, d)
                assert ambient.mult_by_var(i, d) == want, (i, d)
