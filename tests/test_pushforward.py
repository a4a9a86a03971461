"""Direct images along subdivisions against hand-derived values."""

from pathlib import Path

import pytest

from fansheaf import pushforward as pushforward_module
from fansheaf.complexes import assemble, complex_from_text, top_module
from fansheaf.errors import CertificateError, InputError
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
    N, _ = _push("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    assert N.degrees_at(top) == (-2, 0)
    for i in N.fan.cones_of_dim(1):
        assert N.degrees_at(i) == (-2,)
    assert N.degrees_at(0) == (-2,)


def test_blowup_of_quadrant_section_dims():
    N, _ = _push("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    # pushforward certifies the module free, so its pieces are the
    # section family's
    assert [N.dim_at(top, -2 + 2 * k) for k in range(4)] == [1, 3, 5, 7]


def test_blowup_verifies():
    N, M = _push("blowquad", "quadrant")
    assert verify_pushforward(M, N) == []


def test_blowup_image_changes_quadrant_cohomology():
    """Given the target's own minimal complex as its source, the
    blowquad image is caught by the cohomology comparison."""
    N, M = _push("blowquad", "quadrant")
    Q = build_minimal(N.fan, window=M.window)
    problems = verify_pushforward(Q, N)
    assert len(problems) == 1
    assert problems[0].startswith("global cohomology changed: {")
    assert "(-2, 0): (0, 1)" in problems[0]


PUSHED = Path(__file__).parent / "golden" / "push-blowquad-quadrant.out"


def test_parsed_image_verifies_against_built_source():
    N = complex_from_text(PUSHED.read_text())
    M = build_minimal(load_fan(fan_path("blowquad")))
    assert verify_pushforward(M, N) == []


def test_malformed_image_stops_at_shape_certificate():
    """A parsed image with an entry of the wrong degree gets the shape
    problem alone: local exactness and cohomology never read it."""
    text = PUSHED.read_text().replace("entry 3 1 0 0: 1", "entry 3 1 0 0: t1")
    N = complex_from_text(text, validate=False)
    M = build_minimal(load_fan(fan_path("blowquad")))
    assert verify_pushforward(M, N) == [
        "invalid complex: map 3->1: entry (0,0) has degree 2, expected 0"
    ]


def test_unfree_direct_image_rejected(monkeypatch):
    """pushforward certifies each module free where it builds it and
    names the first cone and degree that fail: here the top cone, the
    one quadrant cone with two tiles."""
    src = load_fan(fan_path("blowquad"))
    tgt = load_fan(fan_path("quadrant"))
    top = tgt.cones_of_dim(2)[0]
    real = pushforward_module.cover_is_free_certificate

    def failing(cover):
        return 4 if len(cover.blocks) == 2 else real(cover)

    monkeypatch.setattr(pushforward_module, "cover_is_free_certificate", failing)
    with pytest.raises(
        CertificateError,
        match=f"over cone {top} is not degreewise free at degree 4",
    ):
        pushforward(subdivision_map(src, tgt), build_minimal(src))


def test_freeness_certified_once_per_cone(monkeypatch):
    """Building and verifying a direct image run the freeness
    certificate once per target cone with tiles."""
    src = load_fan(fan_path("blowquad"))
    fmap = subdivision_map(src, load_fan(fan_path("quadrant")))
    M = build_minimal(src)
    calls = []
    real = pushforward_module.cover_is_free_certificate

    def counting(cover):
        calls.append(cover)
        return real(cover)

    monkeypatch.setattr(pushforward_module, "cover_is_free_certificate", counting)
    assert verify_pushforward(M, pushforward(fmap, M)) == []
    tiled = [
        c.index
        for c in fmap.target.cones
        if any(M.rank_at(i) for i in fmap.tiles[c.index])
    ]
    assert len(tiled) == 4
    assert len(calls) == len(tiled)


def test_blowup_top_cohomology():
    N, _ = _push("blowquad", "quadrant")
    assert top_module(N) == ((0, 2), None)


def test_pushforward_not_minimal_in_general():
    # the direct image has extra generators, so minimality must fail
    N, _ = _push("blowquad", "quadrant")
    assert verify_minimality(N)


def test_twostep_subdivision_top_degrees():
    N, M = _push("twostep", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    assert N.degrees_at(top) == (-2, 0, 0)
    assert verify_pushforward(M, N) == []


def test_star_subdivision_of_cone_over_square():
    src = load_fan(fan_path("starsq"))
    tgt = load_fan(fan_path("conesquare"))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src)
    assert verify_minimality(M) == []
    N = pushforward(fmap, M)
    assert verify_pushforward(M, N) == []
    top = tgt.cones_of_dim(3)[0]
    degs = N.degrees_at(top)
    assert stalk_report(build_minimal(tgt))[top] == (-3, -1)
    # beyond the target's own stalk, the star subdivision contributes one
    # extra generator pair placed symmetrically around degree 0
    assert degs == (-3, -1, -1, 1)


def test_identity_subdivision_reproduces_minimal():
    fan = load_fan(fan_path("quadrant"))
    fmap = subdivision_map(fan, fan)
    M = build_minimal(fan)
    N = pushforward(fmap, M)
    assert stalk_report(N) == stalk_report(M)
    for key in M.maps:
        assert N.maps[key].entries == M.maps[key].entries


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
    N = pushforward(fmap, M)
    assert calls
    assert len(calls) == len(set(calls))
    assert verify_pushforward(M, N) == []
