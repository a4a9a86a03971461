"""Minimal complex builders against hand-derived and lattice oracles."""

from collections import Counter

import pytest
from hypothesis import given, settings

from fansheaf import complexes, modules
from fansheaf.combinatorics import predicted_ih_degrees
from fansheaf.complexes import FanComplex, complex_to_text
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.fans import Fan, is_complete, load_fan
from fansheaf.minimal import (
    build_minimal,
    build_shifted_minimal,
    ih_module,
    stalk_report,
    verify_minimality,
)
from fansheaf.modules import FreeGradedModule, PolyMatrix

from conftest import fan_path
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


def _count_boundary_kernels(monkeypatch):
    """Counter of the kernel families built per cone, wherever
    family_from_kernel is bound: a boundary kernel's ambient is over its
    cone's ring, labelled by the cone id."""
    calls = Counter()
    real = modules.family_from_kernel

    def counting(ambient, rows_by_degree, window):
        calls[ambient.base_ring.label] += 1
        return real(ambient, rows_by_degree, window)

    monkeypatch.setattr(complexes, "family_from_kernel", counting)
    monkeypatch.setattr(modules, "family_from_kernel", counting)
    return calls


@pytest.mark.parametrize(
    "name, base, shift", [("p3", 0, 0), ("cubefan", 0, 0), ("cubefan", 7, 1)]
)
def test_verify_minimality_takes_each_boundary_kernel_once(
    monkeypatch, name, base, shift
):
    """Exactness compares ranks and builds no kernel basis; the
    generator-degree check takes one boundary kernel at each supported
    non-base cone, computed from the complex."""
    fan = load_fan(fan_path(name))
    M = build_shifted_minimal(fan, base, shift)
    calls = _count_boundary_kernels(monkeypatch)
    assert verify_minimality(M, base_id=base, shift=shift) == []
    assert calls == Counter(i for i in M.support_ids() if i != base)


def test_verify_minimality_reports_exactness_before_degrees(monkeypatch):
    """The quadrant complex without its top module, and with a spare
    generator in degree 0 at ray 1 that maps to zero: exactness fails at
    the top cone, then ray 1's degrees disagree with its kernel's
    generators, in that order.  Only the supported non-base cones take a
    boundary kernel, once each."""
    M = build_minimal(load_fan(fan_path("quadrant")))
    top = M.fan.cones_of_dim(2)[0]
    spare = FreeGradedModule(M.modules[1].ring, [-2, 0])
    modules = {i: m for i, m in M.modules.items() if i != top}
    modules[1] = spare
    maps = {k: pm for k, pm in M.maps.items() if top not in k}
    maps[(1, 0)] = PolyMatrix(spare, M.modules[0], M.maps[(1, 0)].entries)
    N = FanComplex(M.fan, modules, maps, M.window)
    calls = _count_boundary_kernels(monkeypatch)
    problems = verify_minimality(N)
    assert calls == Counter(i for i in N.support_ids() if i != 0)
    assert problems[-1] == "cone 1: module degrees (-2, 0), kernel needs (-2,)"
    assert problems[:-1] and all(
        p.startswith(f"not exact at cone {top} ") for p in problems[:-1]
    )


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
