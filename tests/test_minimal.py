"""Minimal complex builders against hand-derived and lattice oracles."""

from pathlib import Path

import pytest
from hypothesis import given, settings

from fansheaf import _linalg, complexes, minimal, modules
from fansheaf.combinatorics import predicted_ih_degrees
from fansheaf.complexes import FanComplex, complex_from_text, complex_to_text
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.fans import Fan, is_complete, load_fan, subdivision_map
from fansheaf.minimal import (
    build_minimal,
    build_shifted_minimal,
    ih_module,
    stalk_report,
    verify_minimality,
)
from fansheaf.modules import FreeGradedModule, PolyMatrix
from fansheaf.pushforward import pushforward

from conftest import fan_file, fan_path
from quotient import quotient_fan
from strategies import complete_fans_2d
from test_complexes import quadrant_complex


def test_quadrant_matches_hand_built():
    M = build_minimal(load_fan(fan_path("quadrant")))
    H = quadrant_complex()
    assert stalk_report(M) == stalk_report(H)
    assert sorted(M.maps) == sorted(H.maps)
    for key in M.maps:
        assert M.maps[key].entries == H.maps[key].entries


def test_verify_minimality_quadrant_and_complete_line():
    for name in ("quadrant", "p1"):
        M = build_minimal(load_fan(fan_path(name)))
        assert verify_minimality(M) == []


def _forbid_kernel_searches(monkeypatch):
    """Make every kernel basis and generator search raise, wherever a
    module binds it."""

    def forbidden(*args):
        raise AssertionError("a certificate searched for a kernel")

    for binding in (modules, complexes, minimal):
        for name in ("family_from_kernel", "minimal_generators",
                     "kernel_cover"):
            if hasattr(binding, name):
                monkeypatch.setattr(binding, name, forbidden)
    monkeypatch.setattr(_linalg, "nullspace", forbidden)


@pytest.mark.parametrize(
    "name, base, shift", [("p3", 0, 0), ("cubefan", 0, 0), ("cubefan", 7, 1)]
)
def test_verify_minimality_builds_no_kernel(monkeypatch, name, base, shift):
    """Exactness compares ranks and the generator degrees take one
    elimination on each module's block into its facets: no kernel
    family, generator search, kernel cover or nullspace."""
    fan = load_fan(fan_path(name))
    M = build_shifted_minimal(fan, base, shift)
    _forbid_kernel_searches(monkeypatch)
    assert verify_minimality(M, base_id=base, shift=shift) == []


def test_verify_minimality_reports_exactness_before_degrees():
    """The quadrant complex without its top module, and with a spare
    generator in degree 0 at ray 1 that maps to zero: exactness fails at
    the top cone, then ray 1's degrees disagree with its kernel's
    generators, in that order."""
    M = build_minimal(load_fan(fan_path("quadrant")))
    top = M.fan.cones_of_dim(2)[0]
    spare = FreeGradedModule(M.modules[1].ring, [-2, 0])
    modules = {i: m for i, m in M.modules.items() if i != top}
    modules[1] = spare
    maps = {k: pm for k, pm in M.maps.items() if top not in k}
    maps[(1, 0)] = PolyMatrix(spare, M.modules[0], M.maps[(1, 0)].entries)
    N = FanComplex(M.fan, modules, maps, M.window)
    problems = verify_minimality(N)
    assert problems[-1] == "cone 1: module degrees (-2, 0), kernel needs (-2,)"
    assert problems[:-1] and all(
        p.startswith(f"not exact at cone {top} ") for p in problems[:-1]
    )


GOLDEN = Path(__file__).resolve().parent / "golden"


def _needs(cones, have, need):
    return [
        f"cone {i}: module degrees {have}, kernel needs {need}" for i in cones
    ]


# verify_minimality's exact problems on direct images: a direct image
# keeps generators its cones' kernels do not need, which the
# decomposition theorem splits off as summands
DIRECT_IMAGE_PROBLEMS = {
    ("blowquad", "quadrant"): _needs([3], (-2, 0), (-2,)),
    ("cubeedge", "cubefan"): _needs([20], (-3, -1), (-3,)),
    ("orth4e", "orth4"): _needs([10], (-4, -2), (-4,)),
    ("p2", "p2"): [],
    ("p2blow", "p2"): _needs([6], (-2, 0), (-2,)),
    ("p3edge", "p3"): _needs([10], (-3, -1), (-3,)),
    ("starsq", "conesquare"): _needs([9], (-3, -1, -1, 1), (-3, -1)),
    ("twostep", "quadrant"): _needs([3], (-2, 0, 0), (-2,)),
    ("cubestar", "cubefan"): _needs(range(21, 27), (-3, -1, -1, 1), (-3, -1)),
}


@pytest.mark.parametrize(
    "src, tgt", DIRECT_IMAGE_PROBLEMS, ids=lambda name: name
)
def test_verify_minimality_problems_on_direct_images(src, tgt):
    """The committed push-*.out images, and cubestar's image in cubefan,
    fail minimality at exactly the cones and degrees listed."""
    golden = GOLDEN / f"push-{src}-{tgt}.out"
    if golden.exists():
        N = complex_from_text(golden.read_text())
    else:
        src_fan, tgt_fan = load_fan(fan_file(src)), load_fan(fan_file(tgt))
        fmap = subdivision_map(src_fan, tgt_fan)
        N = pushforward(fmap, build_minimal(fmap.source))
    assert verify_minimality(N) == DIRECT_IMAGE_PROBLEMS[(src, tgt)]


def test_simplicial_stalks_are_single_bottom_generators():
    fan = load_fan(fan_path("p2"))
    M = build_minimal(fan)
    assert verify_minimality(M) == []
    for i, degs in stalk_report(M).items():
        assert degs == (-2,), (i, degs)


def test_cone_over_square_top_stalk():
    fan = load_fan(fan_path("conesquare"))
    M = build_minimal(fan)
    top = fan.cones_of_dim(3)[0]
    assert stalk_report(M)[top] == (-3, -1)
    assert verify_minimality(M) == []


def test_cone_over_cube_top_stalk():
    # generators of stalk modules on a 4-dim fan live in degrees <= -2,
    # so a window topping out at 2 keeps an honest two-degree guard zone
    fan = load_fan(fan_path("conecube"))
    M = build_minimal(fan, window=(-4, 2))
    report = stalk_report(M)
    top = fan.cones_of_dim(4)[0]
    assert report[top] == (-4, -2, -2, -2, -2)
    for i in fan.cones_of_dim(3):
        assert report[i] == (-4, -2)
    for k in (1, 2):
        for i in fan.cones_of_dim(k):
            assert report[i] == (-4,)


def test_determinism_via_serialization():
    fan = load_fan(fan_path("conesquare"))
    a = complex_to_text(build_minimal(fan))
    b = complex_to_text(build_minimal(fan))
    assert a == b


def test_shifted_minimal_base_and_support():
    fan = load_fan(fan_path("quadrant"))
    ray = fan.cones_of_dim(1)[0]
    M = build_shifted_minimal(fan, ray)
    assert set(stalk_report(M)) == set(fan.star(ray))
    assert stalk_report(M)[ray] == (-1,)
    assert verify_minimality(M, base_id=ray) == []


def test_shift_twists_all_stalks_uniformly():
    fan = load_fan(fan_path("conesquare"))
    ray = fan.cones_of_dim(1)[0]
    plain = stalk_report(build_shifted_minimal(fan, ray, 0))
    twisted = stalk_report(build_shifted_minimal(fan, ray, 1))
    assert set(plain) == set(twisted)
    for i, degs in plain.items():
        assert twisted[i] == tuple(d - 1 for d in degs)


def test_stalks_match_quotient_fan_build():
    """Stalks over a base cone agree with the quotient fan's own minimal
    complex, with no degree shift."""
    fan = load_fan(fan_path("conesquare"))
    ray = fan.cones_of_dim(1)[0]
    M = build_shifted_minimal(fan, ray, 0)
    qfan, cmap, _ = quotient_fan(fan, ray)
    Q = build_minimal(qfan)
    qstalks = stalk_report(Q)
    for i, degs in stalk_report(M).items():
        assert qstalks[cmap[i]] == degs


def test_verify_rejects_wrong_base_degree():
    fan = load_fan(fan_path("quadrant"))
    M = build_minimal(fan)
    assert verify_minimality(M, base_id=0, shift=1)


def test_window_exhaustion_is_loud():
    fan = load_fan(fan_path("conesquare"))
    with pytest.raises(WindowExhausted):
        build_minimal(fan, window=(-3, 0))


def test_shifted_window_must_reach_base_degree():
    fan = load_fan(fan_path("conesquare"))
    ray = fan.cones_of_dim(1)[0]
    with pytest.raises(InputError):
        build_shifted_minimal(fan, ray, shift=3, window=(-3, 5))


def test_window_must_reach_origin_generator():
    """The origin-based builder is the shifted one at the origin, so a
    window above the generator in degree -n is refused, not built empty."""
    with pytest.raises(InputError, match="above base generator -2"):
        build_minimal(load_fan(fan_path("p2")), window=(0, 6))


def test_ih_complete_line():
    M = build_minimal(load_fan(fan_path("p1")))
    assert ih_module(M) == (-1, 1)
    assert is_complete(M.fan)


def test_ih_projective_plane():
    M = build_minimal(load_fan(fan_path("p2")))
    assert ih_module(M) == (-2, 0, 2)


def test_ih_product_of_lines():
    M = build_minimal(load_fan(fan_path("p1xp1")))
    assert ih_module(M) == (-2, 0, 0, 2)


def test_ih_blown_up_plane():
    M = build_minimal(load_fan(fan_path("p2blow")))
    assert ih_module(M) == (-2, 0, 0, 2)


def test_ih_three_space():
    M = build_minimal(load_fan(fan_path("p3")))
    assert ih_module(M) == (-3, -1, 1, 3)


def test_ih_of_incomplete_quadrant():
    """ih_module leaves completeness to its caller: on the quadrant it
    returns the top module's generators (ih --require-complete refuses
    the fan, tests/test_cli.py)."""
    M = build_minimal(load_fan(fan_path("quadrant")))
    assert not is_complete(M.fan)
    assert ih_module(M) == (2,)


def test_ih_rejects_stray_cohomology():
    fan = Fan.from_cones(2, [(0, 1), (1, 0)], [[0], [1]])
    M = build_minimal(fan)
    with pytest.raises(CertificateError):
        ih_module(M)


@settings(max_examples=40, deadline=None)
@given(fan=complete_fans_2d())
def test_random_complete_plane_fans_match_ih_oracle(fan):
    """A drawn complete fan of the plane: its minimal complex passes
    verify_minimality, and the top module, cut out by sections over the
    full ring, has the g-polynomial's generator degrees."""
    assert is_complete(fan)
    M = build_minimal(fan)
    assert verify_minimality(M) == []
    assert ih_module(M) == predicted_ih_degrees(fan)
