"""Direct images along subdivisions against hand-derived values."""

import pytest

from fansheaf import pushforward as pushforward_module
from fansheaf.complexes import assemble, top_module
from fansheaf.errors import InputError
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import build_minimal, stalk_report, verify_minimality
from fansheaf.pushforward import pushforward, verify_pushforward

from conftest import fan_path


def _push(src_name, tgt_name):
    src = load_fan(fan_path(src_name))
    tgt = load_fan(fan_path(tgt_name))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src)
    return pushforward(fmap, M), M


def test_blowup_of_quadrant_module_degrees():
    P, _ = _push("blowquad", "quadrant")
    N = P.complex
    top = N.fan.cones_of_dim(2)[0]
    assert N.degrees_at(top) == (-2, 0)
    for i in N.fan.cones_of_dim(1):
        assert N.degrees_at(i) == (-2,)
    assert N.degrees_at(0) == (-2,)


def test_blowup_of_quadrant_section_dims():
    P, _ = _push("blowquad", "quadrant")
    top = P.complex.fan.cones_of_dim(2)[0]
    fam = P.families[top]
    assert [fam.dim_at(-2 + 2 * k) for k in range(4)] == [1, 3, 5, 7]


def test_blowup_verifies():
    P, _ = _push("blowquad", "quadrant")
    rep = verify_pushforward(P)
    assert rep.ok, rep.problems


def test_blowup_top_cohomology():
    P, _ = _push("blowquad", "quadrant")
    top = top_module(P.complex, P.complex.window)
    assert top.free
    assert top.generator_degrees == (0, 2)


def test_pushforward_not_minimal_in_general():
    # the direct image has extra generators, so minimality must fail
    P, _ = _push("blowquad", "quadrant")
    assert not verify_minimality(P.complex).ok


def test_twostep_subdivision_top_degrees():
    P, _ = _push("twostep", "quadrant")
    N = P.complex
    top = N.fan.cones_of_dim(2)[0]
    assert N.degrees_at(top) == (-2, 0, 0)
    rep = verify_pushforward(P)
    assert rep.ok, rep.problems


def test_star_subdivision_of_cone_over_square():
    src = load_fan(fan_path("starsq"))
    tgt = load_fan(fan_path("conesquare"))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src)
    assert verify_minimality(M).ok
    P = pushforward(fmap, M)
    rep = verify_pushforward(P)
    assert rep.ok, rep.problems
    top = tgt.cones_of_dim(3)[0]
    degs = P.complex.degrees_at(top)
    assert stalk_report(build_minimal(tgt))[top] == (-3, -1)
    # beyond the target's own stalk, the star subdivision contributes one
    # extra generator pair placed symmetrically around degree 0
    assert degs == (-3, -1, -1, 1)


def test_identity_subdivision_reproduces_minimal():
    fan = load_fan(fan_path("quadrant"))
    fmap = subdivision_map(fan, fan)
    M = build_minimal(fan)
    P = pushforward(fmap, M)
    assert stalk_report(P.complex) == stalk_report(M)
    for key in M.maps:
        assert P.complex.maps[key].entries == M.maps[key].entries


def test_improper_map_rejected():
    half = load_fan(fan_path("quadrant"))
    tgt = load_fan(fan_path("p2"))
    with pytest.raises(InputError):
        fmap = subdivision_map(half, tgt)
        pushforward(fmap, build_minimal(half))


def test_wrong_source_complex_rejected():
    src = load_fan(fan_path("blowquad"))
    tgt = load_fan(fan_path("quadrant"))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(tgt)
    with pytest.raises(InputError):
        pushforward(fmap, M)


def test_each_block_assembled_once(monkeypatch):
    """The constraints and the induced differential of a target cone
    share each assembled (tiles -> facet tiles, degree) block."""
    src = load_fan(fan_path("starsq"))
    fmap = subdivision_map(src, load_fan(fan_path("conesquare")))
    M = build_minimal(src)
    calls = []

    def counting_assemble(M, src_ids, tgt_ids, d):
        calls.append((tuple(src_ids), tuple(tgt_ids), d))
        return assemble(M, src_ids, tgt_ids, d)

    monkeypatch.setattr(pushforward_module, "assemble", counting_assemble)
    P = pushforward(fmap, M)
    assert calls
    assert len(calls) == len(set(calls))
    assert verify_pushforward(P).ok
