"""Face-lattice predictions against the module-theoretic builder."""

from pathlib import Path

from fansheaf.combinatorics import (
    complete_fan_h_vector,
    interval_table,
    predicted_ih_degrees,
    predicted_stalks,
)
from fansheaf.fans import is_complete, load_fan
from fansheaf.minimal import (
    build_minimal,
    build_shifted_minimal,
    ih_module,
    stalk_report,
)

from conftest import fan_path
from quotient import quotient_fan

CUBESTAR = (
    Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    / "cubestar.fan"
)


def _g(fan, cone_id):
    """g([0, τ]) of the cone, the interval above the origin."""
    return interval_table(fan)[cone_id][1]


def test_simplicial_cones_have_trivial_g(corpus):
    for name in ["p2", "p3", "p1xp1", "p2blow"]:
        fan = corpus[name]
        for c in fan.cones:
            assert _g(fan, c.index) == (1,)


def test_square_cones_of_cube_face_fan(corpus):
    fan = corpus["cubefan"]
    for i in fan.cones_of_dim(3):
        assert _g(fan, i) == (1, 1)


def test_square_cone_vectors():
    fan = load_fan(fan_path("conesquare"))
    top = fan.cones_of_dim(3)[0]
    assert interval_table(fan)[top] == ((1, 2, 1), (1, 1))


def test_cube_cone_vectors():
    fan = load_fan(fan_path("conecube"))
    top = fan.cones_of_dim(4)[0]
    assert interval_table(fan)[top] == ((1, 5, 5, 1), (1, 4))


def test_h_vectors_palindromic(corpus):
    """h([σ, τ]) is palindromic on every interval of the face poset, as
    for any Eulerian poset, of length dim τ - dim σ when σ < τ."""
    for fan in corpus.values():
        for s in fan.cones:
            for tau, (h, _) in interval_table(fan, s.index).items():
                assert len(h) == max(fan.cones[tau].dim - s.dim, 1)
                assert h == tuple(reversed(h))


def test_predictions_match_builder(corpus):
    """Every base cone and shifts -1, 0 and 1; the builder refuses the
    origin at shift 1, whose generator would fall below the window."""
    fans = {**corpus, "cubestar": load_fan(CUBESTAR)}
    for name, fan in fans.items():
        for c in fan.cones:
            for shift in (-1, 0) if c.index == 0 else (-1, 0, 1):
                M = build_shifted_minimal(fan, c.index, shift)
                assert stalk_report(M) == predicted_stalks(
                    fan, c.index, shift
                ), (name, c.index, shift)


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
