"""Decomposition of direct images: multiplicities and certified peels."""

from collections import Counter

import pytest

from fansheaf.complexes import FanComplex
from fansheaf.decompose import (
    decompose_fully,
    decomposition_multiplicities,
    decomposition_theorem_report,
    peel_summand,
)
from fansheaf.errors import CertificateError
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import build_minimal, stalk_report, verify_minimality
from fansheaf.pushforward import pushforward

from conftest import fan_path


def _image(src_name, tgt_name):
    src = load_fan(fan_path(src_name))
    tgt = load_fan(fan_path(tgt_name))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src)
    return pushforward(fmap, M), fmap


def test_blowup_multiplicities():
    P, _ = _image("blowquad", "quadrant")
    top = P.complex.fan.cones_of_dim(2)[0]
    assert decomposition_multiplicities(P.complex) == {(0, 0): 1, (top, 0): 1}


def test_twostep_multiplicities():
    P, _ = _image("twostep", "quadrant")
    top = P.complex.fan.cones_of_dim(2)[0]
    assert decomposition_multiplicities(P.complex) == {(0, 0): 1, (top, 0): 2}


def test_star_square_multiplicities():
    P, _ = _image("starsq", "conesquare")
    top = P.complex.fan.cones_of_dim(3)[0]
    mult = decomposition_multiplicities(P.complex)
    assert mult == {(0, 0): 1, (top, 1): 1, (top, -1): 1}
    # opposite shifts come in equal multiplicity
    assert mult[(top, 1)] == mult[(top, -1)]


def test_identity_subdivision_multiplicities():
    P, _ = _image("p2", "p2")
    assert decomposition_multiplicities(P.complex) == {(0, 0): 1}


def test_peel_top_summand_leaves_minimal_complex():
    P, _ = _image("blowquad", "quadrant")
    top = P.complex.fan.cones_of_dim(2)[0]
    res = peel_summand(P.complex, top, 0)
    assert stalk_report(res.summand) == {top: (0,)}
    # what remains is exactly the minimal complex, certified from scratch
    rep = verify_minimality(res.complement)
    assert rep.ok, rep.problems
    assert stalk_report(res.complement) == {i: (-2,) for i in range(4)}


def test_peel_partitions_generator_degrees():
    P, _ = _image("starsq", "conesquare")
    N = P.complex
    top = N.fan.cones_of_dim(3)[0]
    res = peel_summand(N, top, 1)
    assert set(res.embed_summand) == {top}
    for c in N.fan.cones:
        i = c.index
        have = Counter(N.degrees_at(i))
        split = Counter(res.summand.degrees_at(i)) + Counter(
            res.complement.degrees_at(i)
        )
        assert split == have


def test_full_peel_exhausts():
    for pair in [("blowquad", "quadrant"), ("twostep", "quadrant")]:
        P, _ = _image(*pair)
        rep = decompose_fully(P.complex)
        total = sum(rep.multiplicities.values())
        assert len(rep.peel_sequence) == total


def test_theorem_report_pipeline():
    _, fmap = _image("starsq", "conesquare")
    rep = decomposition_theorem_report(fmap)
    assert rep.identity_summand_present
    assert len(rep.peel_sequence) == 3


def test_peel_with_wrong_shift_rejected():
    P, _ = _image("blowquad", "quadrant")
    top = P.complex.fan.cones_of_dim(2)[0]
    with pytest.raises(CertificateError):
        peel_summand(P.complex, top, 1)


def test_peel_requires_supported_base():
    quadrant = load_fan(fan_path("quadrant"))
    M = build_minimal(quadrant)
    top = quadrant.cones_of_dim(2)[0]
    hollow = FanComplex(
        M.fan,
        M.tower,
        {i: m for i, m in M.modules.items() if i != top},
        {k: v for k, v in M.maps.items() if top not in k},
        window=M.window,
    )
    with pytest.raises(CertificateError):
        peel_summand(hollow, 0, 0)


def test_missing_stalk_rejected():
    quadrant = load_fan(fan_path("quadrant"))
    M = build_minimal(quadrant)
    ray = quadrant.cones_of_dim(1)[0]
    hollow = FanComplex(
        M.fan,
        M.tower,
        {i: m for i, m in M.modules.items() if i != ray},
        {k: v for k, v in M.maps.items() if ray not in k},
        window=M.window,
    )
    with pytest.raises(CertificateError):
        decomposition_multiplicities(hollow)
