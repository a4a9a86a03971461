"""Face-lattice predictions against the module-theoretic builder."""

from fansheaf.combinatorics import (
    complete_fan_h_vector,
    g_vector,
    h_vector,
    predicted_ih_degrees,
    predicted_stalks,
)
from fansheaf.fans import is_complete, load_fan
from fansheaf.minimal import build_minimal, ih_module, stalk_report

from conftest import fan_path
from quotient import quotient_fan


def test_simplicial_cones_have_trivial_g(corpus):
    for name in ["p2", "p3", "p1xp1", "p2blow"]:
        fan = corpus[name]
        for c in fan.cones:
            assert g_vector(fan, c.index) == (1,)


def test_square_cones_of_cube_face_fan(corpus):
    fan = corpus["cubefan"]
    for i in fan.cones_of_dim(3):
        assert g_vector(fan, i) == (1, 1)


def test_square_cone_vectors():
    fan = load_fan(fan_path("conesquare"))
    top = fan.cones_of_dim(3)[0]
    assert h_vector(fan, top) == (1, 2, 1)
    assert g_vector(fan, top) == (1, 1)


def test_cube_cone_vectors():
    fan = load_fan(fan_path("conecube"))
    top = fan.cones_of_dim(4)[0]
    assert h_vector(fan, top) == (1, 5, 5, 1)
    assert g_vector(fan, top) == (1, 4)


def test_h_vectors_palindromic(corpus):
    for fan in corpus.values():
        for c in fan.cones:
            h = h_vector(fan, c.index)
            if c.dim:
                assert len(h) == c.dim
            assert h == tuple(reversed(h))


def test_predictions_match_builder(corpus):
    for name, fan in corpus.items():
        window = (-4, 2) if name == "conecube" else None
        M = build_minimal(fan, window=window)
        assert stalk_report(M) == predicted_stalks(fan), name


def test_predictions_match_builder_on_quotient():
    fan = load_fan(fan_path("conesquare"))
    ray = fan.cones_of_dim(1)[0]
    qfan, _, _ = quotient_fan(fan, ray)
    M = build_minimal(qfan)
    assert stalk_report(M) == predicted_stalks(qfan)


def test_complete_fan_h_vectors(corpus):
    expected = {
        "p1": (1, 1),
        "p2": (1, 1, 1),
        "p1xp1": (1, 2, 1),
        "p2blow": (1, 2, 1),
        "p3": (1, 1, 1, 1),
        "cubefan": (1, 5, 5, 1),
    }
    for name, h in expected.items():
        assert complete_fan_h_vector(corpus[name]) == h
    for name, fan in corpus.items():
        if is_complete(fan):
            h = complete_fan_h_vector(fan)
            assert h == tuple(reversed(h)), name


def test_ih_matches_accumulated_h(corpus):
    for name, fan in corpus.items():
        if not is_complete(fan):
            continue
        assert ih_module(build_minimal(fan)) == predicted_ih_degrees(fan), name
