"""Decomposition of direct images: multiplicities and certified peels."""

from collections import Counter

import pytest

from fansheaf import decompose
from fansheaf.complexes import FanComplex
from fansheaf.decompose import (
    decomposition_multiplicities,
    decomposition_theorem_report,
    peel_summand,
)
from fansheaf.errors import CertificateError
from fansheaf.fans import load_fan, subdivision_map
from fansheaf.minimal import (
    build_minimal,
    build_shifted_minimal,
    stalk_report,
    verify_minimality,
)
from fansheaf.pushforward import pushforward, verify_pushforward

from conftest import fan_path


def _image(src_name, tgt_name):
    src = load_fan(fan_path(src_name))
    tgt = load_fan(fan_path(tgt_name))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src)
    return pushforward(fmap, M), fmap


def _peel(N, base_id, shift):
    """peel_summand with the summand built on N's window: the summand,
    the complement and the embedding."""
    S = build_shifted_minimal(N.fan, base_id, shift, window=N.window)
    return (S, *peel_summand(N, base_id, S))


def _record_peels(monkeypatch):
    """List of (base cone, summand, complement), one per peel_summand
    call that decompose makes, in call order."""
    peels = []
    peel = decompose.peel_summand

    def recording(N, base_id, summand):
        complement, embedding = peel(N, base_id, summand)
        peels.append((base_id, summand, complement))
        return complement, embedding

    monkeypatch.setattr(decompose, "peel_summand", recording)
    return peels


def _keys(peels):
    """The (base cone, shift) of each recorded peel, the shift read off
    the summand's one generator at its base cone."""
    keys = []
    for b, S, _ in peels:
        (d,) = S.degrees_at(b)
        keys.append((b, -S.fan.n + S.fan.cones[b].dim - d))
    return keys


def _sequence(mult):
    """Each key of sorted(mult), repeated mult[key] times."""
    return [key for key in sorted(mult) for _ in range(mult[key])]


def test_blowup_multiplicities(monkeypatch):
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    peels = _record_peels(monkeypatch)
    mult = decomposition_multiplicities(N)
    assert mult == {(0, 0): 1, (top, 0): 1}
    assert set(_keys(peels)) == set(mult)


def test_twostep_multiplicities():
    N, _ = _image("twostep", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    mult = decomposition_multiplicities(N)
    assert mult == {(0, 0): 1, (top, 0): 2}


def test_star_square_multiplicities(monkeypatch):
    N, _ = _image("starsq", "conesquare")
    top = N.fan.cones_of_dim(3)[0]
    peels = _record_peels(monkeypatch)
    mult = decomposition_multiplicities(N)
    assert mult == {(0, 0): 1, (top, 1): 1, (top, -1): 1}
    # each peeled summand has its one base generator in its key's degree
    assert _keys(peels) == _sequence(mult)
    # opposite shifts come in equal multiplicity
    assert mult[(top, 1)] == mult[(top, -1)]


def test_identity_subdivision_multiplicities():
    N, _ = _image("p2", "p2")
    assert decomposition_multiplicities(N) == {(0, 0): 1}


def test_tower_decomposes_like_its_composite():
    """Functoriality on twostep -> blowquad -> quadrant: the image pushed
    one step at a time, each step verified, has the composite's
    multiplicities."""
    twostep, blowquad, quadrant = (
        load_fan(fan_path(name)) for name in ("twostep", "blowquad", "quadrant")
    )
    image = build_minimal(twostep)
    for fmap in (
        subdivision_map(twostep, blowquad),
        subdivision_map(blowquad, quadrant),
    ):
        N = pushforward(fmap, image)
        assert verify_pushforward(image, N) == []
        image = N
    top = quadrant.cones_of_dim(2)[0]
    mult = decomposition_multiplicities(image)
    assert mult == {(0, 0): 1, (top, 0): 2}
    direct, _ = _image("twostep", "quadrant")
    assert decomposition_multiplicities(direct) == mult


def test_peel_keeps_cones_outside_the_star():
    """Outside the star of the summand's base the complement is N as it
    is: the very module and map objects, not copies."""
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    _, complement, _ = _peel(N, top, 0)
    star = set(N.fan.star(top))
    outside = [i for i in N.support_ids() if i not in star]
    kept = [(s, t) for s, t in N.maps if s not in star]
    assert outside and kept
    for i in outside:
        assert complement.modules[i] is N.modules[i]
    for key in kept:
        assert complement.maps[key] is N.maps[key]


def test_peel_top_summand_leaves_minimal_complex():
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    summand, complement, _ = _peel(N, top, 0)
    assert stalk_report(summand) == {top: (0,)}
    # what remains is exactly the minimal complex, certified from scratch
    assert verify_minimality(complement) == []
    assert stalk_report(complement) == {i: (-2,) for i in range(4)}


def test_peel_partitions_generator_degrees():
    N, _ = _image("starsq", "conesquare")
    top = N.fan.cones_of_dim(3)[0]
    summand, complement, embedding = _peel(N, top, 1)
    assert set(embedding) == {top}
    for c in N.fan.cones:
        i = c.index
        have = Counter(N.degrees_at(i))
        split = Counter(summand.degrees_at(i)) + Counter(
            complement.degrees_at(i)
        )
        assert split == have


def test_full_peel_exhausts(monkeypatch):
    """One peel per counted summand, in sorted order, and the last
    complement is zero."""
    for pair in [("blowquad", "quadrant"), ("twostep", "quadrant")]:
        N, _ = _image(*pair)
        peels = _record_peels(monkeypatch)
        mult = decomposition_multiplicities(N)
        assert _keys(peels) == _sequence(mult)
        assert peels[-1][2].support_ids() == ()


def test_full_peel_builds_each_summand_once(monkeypatch):
    """The walk builds one shifted minimal complex per distinct
    (base cone, shift) key and peels it as often as it occurs:
    twostep -> quadrant has the summand (top, 0) twice."""
    N, _ = _image("twostep", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    built = []
    build = decompose.build_shifted_minimal

    def counting(fan, base_id, shift=0, window=None):
        built.append((base_id, shift))
        return build(fan, base_id, shift, window=window)

    monkeypatch.setattr(decompose, "build_shifted_minimal", counting)
    peels = _record_peels(monkeypatch)
    mult = decomposition_multiplicities(N)
    assert mult == {(0, 0): 1, (top, 0): 2}
    assert _keys(peels) == [(0, 0), (top, 0), (top, 0)]
    assert peels[1][1] is peels[2][1]
    assert sorted(built) == [(0, 0), (top, 0)]


def test_theorem_report_pipeline(monkeypatch):
    _, fmap = _image("starsq", "conesquare")
    peels = _record_peels(monkeypatch)
    mult = decomposition_theorem_report(fmap)
    assert mult.get((0, 0)) == 1
    assert sum(mult.values()) == 3
    assert _keys(peels) == _sequence(mult)


def test_peel_with_wrong_shift_rejected():
    """N has no generator at the base cone in the summand's base degree,
    so no cocycle is left to embed the summand's generator."""
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    with pytest.raises(CertificateError, match="generator degrees do not"):
        _peel(N, top, 1)


def test_peel_rejects_dependent_complement_generators(monkeypatch):
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    real = decompose.minimal_generators

    def doubled(family):
        gens = real(family)
        return gens[:1] + gens

    monkeypatch.setattr(decompose, "minimal_generators", doubled)
    with pytest.raises(CertificateError, match="chosen generators dependent"):
        _peel(N, top, 0)


def test_peel_requires_supported_base():
    quadrant = load_fan(fan_path("quadrant"))
    M = build_minimal(quadrant)
    top = quadrant.cones_of_dim(2)[0]
    hollow = FanComplex(
        M.fan,
        {i: m for i, m in M.modules.items() if i != top},
        {k: v for k, v in M.maps.items() if top not in k},
        window=M.window,
    )
    with pytest.raises(CertificateError):
        _peel(hollow, 0, 0)


def test_missing_stalk_rejected():
    quadrant = load_fan(fan_path("quadrant"))
    M = build_minimal(quadrant)
    ray = quadrant.cones_of_dim(1)[0]
    hollow = FanComplex(
        M.fan,
        {i: m for i, m in M.modules.items() if i != ray},
        {k: v for k, v in M.maps.items() if ray not in k},
        window=M.window,
    )
    with pytest.raises(CertificateError, match="needs a module"):
        decomposition_multiplicities(hollow)
