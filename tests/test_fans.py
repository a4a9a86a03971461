"""Fan geometry: parsing, face lattices, quotients, subdivisions."""

import io
import itertools
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fansheaf import _linalg, fans, modules
from fansheaf.cli import main
from fansheaf.complexes import complex_from_text
from fansheaf.errors import InputError
from fansheaf.fans import (
    Cone,
    Fan,
    is_complete,
    load_fan,
    parse_fan,
    primitive,
    subdivision_map,
)
from fansheaf.modules import ConeRing, restriction

import brute_oracle
from brute_oracle import all_pairs_valid
from conftest import EXTRA_FANS, RAY_IN_QUADRANT, SQUARE_DIAGONAL, fan_path
from quotient import cone_by_rays, quotient_fan
from strategies import incomplete_fans_2d
from test_fuzz import FANS, FUZZ, mutated

TESTS = Path(__file__).resolve().parent


def test_parse_p2_counts(corpus):
    fan = corpus["p2"]
    assert fan.n == 2
    assert len(fan.rays) == 3
    # origin + 3 rays + 3 two-cones
    assert len(fan.cones) == 7
    assert [c.dim for c in fan.cones] == [0, 1, 1, 1, 2, 2, 2]
    assert fan.cones[0].rays == ()


def test_parse_cone_over_square_counts(corpus):
    fan = corpus["conesquare"]
    # origin + 4 rays + 4 walls + top: 10 faces from one listed cone
    assert len(fan.cones) == 10
    assert [c.dim for c in fan.cones].count(2) == 4
    top = fan.cones[-1]
    assert top.dim == 3 and len(top.rays) == 4


def test_rays_sorted_lex(corpus):
    for fan in corpus.values():
        assert list(fan.rays) == sorted(fan.rays)


def test_canonical_order_and_round_trip(corpus):
    for name, fan in corpus.items():
        keys = [(c.dim, c.rays) for c in fan.cones]
        assert keys == sorted(keys)
        fan2 = parse_fan(fan.to_text())
        assert fan2.to_text() == fan.to_text()
        assert len(fan2.cones) == len(fan.cones)


def test_parse_errors():
    with pytest.raises(InputError):
        parse_fan("dim 2\nray 0: 1 0\nray 1: 1 0\ncone: 0 1\n")  # duplicate ray
    with pytest.raises(InputError):
        parse_fan("dim 2\nray 0: 1 0\ncone: 0 1\n")  # unknown ray id
    with pytest.raises(InputError):
        parse_fan("dim 2\nray 0: 1 0\nray 1: 2 0\ncone: 0 1\n")  # non-primitive
    with pytest.raises(InputError):
        parse_fan("dim 1\nray 0: 1\nray 1: -1\ncone: 0 1\n")  # contains a line
    with pytest.raises(InputError):
        # e1+e2 is not an extreme ray of the quadrant
        parse_fan("dim 2\nray 0: 1 0\nray 1: 0 1\nray 2: 1 1\ncone: 0 1 2\n")
    with pytest.raises(InputError):
        # overlapping 2-cones that do not meet along a face
        parse_fan(
            "dim 2\nray 0: 1 0\nray 1: 0 1\nray 2: 1 1\nray 3: -1 1\n"
            "cone: 0 1\ncone: 2 3\n"
        )
    with pytest.raises(InputError, match="overlap"):
        parse_fan(RAY_IN_QUADRANT)
    with pytest.raises(InputError, match="do not meet along a common face"):
        parse_fan(SQUARE_DIAGONAL)
    with pytest.raises(InputError):
        parse_fan("ray 0: 1 0\n")  # missing dim
    with pytest.raises(InputError, match=r"^line 1: a dim line is 'dim n'"):
        parse_fan("dim 2 3\nray 0: 1 0\nray 1: 0 1\ncone: 0 1\n")
    with pytest.raises(InputError):
        parse_fan("dim 2\nsphere 1\n")  # unknown directive
    # a keyed line has exactly its form's tokens before the colon
    with pytest.raises(InputError, match=r"^line 2: a ray line is 'ray i: "):
        parse_fan("dim 2\nray 0 9: 0 1\nray 1: 1 0\ncone: 0 1\n")
    with pytest.raises(InputError, match=r"^line 1: a dim line is 'dim n'"):
        parse_fan("dim: 2\nray 0: 0 1\nray 1: 1 0\ncone: 0 1\n")
    with pytest.raises(InputError, match=r"^line 4: a cone line is 'cone: "):
        parse_fan("dim 2\nray 0: 0 1\nray 1: 1 0\ncone 5: 0 1\n")


def test_face_relations(corpus):
    fan = corpus["p2"]
    for c in fan.cones:
        assert fan.is_face(0, c.index)
        assert fan.is_face(c.index, c.index)
    top = [c.index for c in fan.cones if c.dim == 2]
    rays = [c.index for c in fan.cones if c.dim == 1]
    for t in top:
        fs = fan.cones[t].facet_ids
        assert len(fs) == 2 and all(f in rays for f in fs)
    # stars
    assert fan.star(0) == tuple(range(7))
    r = rays[0]
    ray_idx = fan.cones[r].rays[0]
    star = fan.star(r)
    assert r in star
    assert all(ray_idx in fan.cones[s].rays for s in star)
    assert len(star) == 3


def test_is_complete(corpus):
    complete = {"p1", "p2", "p1xp1", "p3", "p2blow", "cubefan"}
    for name, fan in corpus.items():
        assert is_complete(fan) == (name in complete), name


def test_is_complete_grid_oracle(corpus):
    """Independent membership check on an integer grid."""
    for name in ["p2", "quadrant", "blowquad", "p1xp1"]:
        fan = corpus[name]
        pts = itertools.product(range(-3, 4), repeat=fan.n)
        covered = all(
            any(fan.contains_vector(c.index, p) for c in fan.cones)
            for p in pts
        )
        assert covered == is_complete(fan), name


@settings(max_examples=30, deadline=None)
@given(case=incomplete_fans_2d())
def test_dropping_maximal_cones_leaves_an_incomplete_fan(case):
    """A complete plane fan with maximal cones dropped is not complete:
    the ray sum of each dropped cone lies in no remaining cone, and
    `fan check` of the remaining fan's text prints `complete no`."""
    fan, part, dropped = case
    assert is_complete(fan)
    assert not is_complete(part)
    for i in dropped:
        v = _ray_sum(fan, fan.cones[i])
        assert not any(part.contains_vector(c.index, v) for c in part.cones)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "part.fan"
        path.write_text(part.to_text())
        out = io.StringIO()
        argv = ["--format", "machine", "fan", "check", "--fan", str(path)]
        with redirect_stdout(out):
            code = main(argv)
    assert code == 0
    assert "complete\t-\t-\tno\t-" in out.getvalue().splitlines()


def test_membership(corpus):
    fan = corpus["quadrant"]
    top = fan.cones[-1].index
    assert fan.contains_vector(top, (2, 5))
    assert fan.contains_vector(top, (0, 0))
    assert not fan.contains_vector(top, (-1, 2))
    ray = cone_by_rays(fan, [fan.rays.index((1, 0))])
    assert fan.contains_vector(ray, (3, 0))
    assert not fan.contains_vector(ray, (3, 1))
    assert fan.contains_vector(0, (0, 0))
    assert not fan.contains_vector(0, (1, 0))


def test_quotient_by_origin_is_isomorphic(corpus):
    fan = corpus["p2"]
    qfan, cmap, proj = quotient_fan(fan, 0)
    assert len(qfan.cones) == len(fan.cones)
    assert sorted(cmap) == list(range(len(fan.cones)))
    assert [list(r) for r in proj] == [[1, 0], [0, 1]]


def test_quotient_p2_at_ray(corpus):
    """The star of a ray in the p2 fan maps onto a complete 1-dim fan."""
    fan = corpus["p2"]
    ray_id = fan.cones_of_dim(1)[0]
    qfan, cmap, _ = quotient_fan(fan, ray_id)
    assert qfan.n == 1
    assert is_complete(qfan)
    assert len(cmap) == 3  # the ray and its two 2-cones; o is not in the star
    assert qfan.cones[cmap[ray_id]].dim == 0


def test_quotient_top_cone_is_point(corpus):
    fan = corpus["quadrant"]
    top = fan.cones[-1].index
    qfan, cmap, _ = quotient_fan(fan, top)
    assert qfan.n == 0
    assert len(qfan.cones) == 1
    assert cmap[top] == 0


def test_quotient_cone_over_square_at_ray(corpus):
    fan = corpus["conesquare"]
    ray_id = fan.cones_of_dim(1)[0]
    qfan, cmap, _ = quotient_fan(fan, ray_id)
    assert qfan.n == 2
    dims = sorted(qfan.cones[v].dim for v in cmap.values())
    assert dims == [0, 1, 1, 2]


def test_subdivision_map_blowup(corpus):
    src, tgt = corpus["blowquad"], corpus["quadrant"]
    fm = subdivision_map(src, tgt)
    assert fm.proper
    quad = tgt.cones[-1].index
    pre = fm.preimage_cones(quad)
    assert len(pre) == 2
    assert all(src.cones[p].dim == 2 for p in pre)
    # the diagonal ray sits over the quadrant, not over a boundary ray
    diag = cone_by_rays(src, [src.rays.index((1, 1))])
    assert fm.assignment[diag] == quad
    # boundary rays map to boundary rays
    for v in [(0, 1), (1, 0)]:
        s = cone_by_rays(src, [src.rays.index(v)])
        t = cone_by_rays(tgt, [tgt.rays.index(v)])
        assert fm.assignment[s] == t


def test_subdivision_map_not_proper(corpus):
    half = parse_fan("dim 2\nray 0: 1 0\nray 1: 1 1\ncone: 0 1\n")
    fm = subdivision_map(half, corpus["quadrant"])
    assert not fm.proper


def test_subdivision_map_not_contained(corpus):
    outside = parse_fan("dim 2\nray 0: -1 0\nray 1: 0 1\ncone: 0 1\n")
    with pytest.raises(InputError):
        subdivision_map(outside, corpus["quadrant"])


def test_subdivision_map_explicit_directives(corpus):
    """The assignment is always inferred, never read from the fan file:
    it matches the cone-by-cone directives written out here, and a
    `map:` line in a fan file is refused."""
    src, tgt = corpus["blowquad"], corpus["quadrant"]
    fm = subdivision_map(src, tgt)
    # origin, the two boundary rays, then the new ray and both 2-cones
    # inside the quadrant's interior
    assert fm.assignment == (0, 1, 2, 3, 3, 3)
    with pytest.raises(InputError):
        parse_fan(src.to_text() + "map: 0 -> 0\n")


def test_subdivision_identity(corpus):
    fan = corpus["p2"]
    fm = subdivision_map(fan, fan)
    assert fm.proper
    assert fm.assignment == tuple(range(len(fan.cones)))


def test_subdivision_two_step(corpus):
    fm = subdivision_map(corpus["twostep"], corpus["quadrant"])
    assert fm.proper
    assert len(fm.preimage_cones(corpus["quadrant"].cones[-1].index)) == 3


def test_subdivision_star_square(corpus):
    fm = subdivision_map(corpus["starsq"], corpus["conesquare"])
    assert fm.proper
    top = corpus["conesquare"].cones[-1].index
    assert len(fm.preimage_cones(top)) == 4
    # each wall of the target is its own preimage tile
    for w in corpus["conesquare"].cones_of_dim(2):
        assert len(fm.preimage_cones(w)) == 1


def _ray_sum(fan, cone):
    """Sum of the cone's rays: a relative interior point."""
    v = (0,) * fan.n
    for r in cone.rays:
        v = tuple(a + b for a, b in zip(v, fan.rays[r]))
    return v


def _brute_subdivision(source, target):
    """(assignment, proper) by scanning every target cone for every
    source cone, or the expected InputError message; proper is read off
    equal supports on an integer grid and every cone's interior point."""
    assignment = []
    for c in source.cones:
        rays = [source.rays[r] for r in c.rays]
        candidates = [
            t.index
            for t in target.cones
            if all(target.contains_vector(t.index, v) for v in rays)
        ]
        if not candidates:
            return f"source cone {c.index} is not contained in the target support"
        best = min(candidates, key=lambda j: target.cones[j].dim)
        if not all(target.is_face(best, j) for j in candidates):
            return f"no unique smallest target cone for source cone {c.index}"
        assignment.append(best)
    points = list(itertools.product(range(-2, 3), repeat=source.n))
    points += [_ray_sum(f, c) for f in (source, target) for c in f.cones]

    def covered(fan, v):
        return any(fan.contains_vector(c.index, v) for c in fan.cones)

    proper = all(covered(source, v) == covered(target, v) for v in points)
    return tuple(assignment), proper


def _subdivision_outcome(source, target):
    try:
        fm = subdivision_map(source, target)
    except InputError as exc:
        return str(exc)
    return fm.assignment, fm.proper


SUBDIVISION_PAIRS = [
    ("blowquad", "quadrant"),
    ("twostep", "quadrant"),
    ("starsq", "conesquare"),
    ("p2blow", "p2"),
    ("p2", "p2"),
]


def test_subdivision_map_matches_brute_scan(corpus):
    half = parse_fan("dim 2\nray 0: 1 0\nray 1: 1 1\ncone: 0 1\n")
    outside = parse_fan("dim 2\nray 0: -1 0\nray 1: 0 1\ncone: 0 1\n")
    cubestar = load_fan(TESTS.parent / "perfbench" / "inputs" / "cubestar.fan")
    cases = [(corpus[a], corpus[b]) for a, b in SUBDIVISION_PAIRS]
    cases += [(cubestar, corpus["cubefan"])]
    cases += [(fan, fan) for fan in corpus.values()]
    cases += [(half, corpus["quadrant"]), (outside, corpus["quadrant"])]
    for source, target in cases:
        want = _brute_subdivision(source, target)
        assert _subdivision_outcome(source, target) == want, (source, target)
    assert _brute_subdivision(half, corpus["quadrant"])[1] is False
    assert "not contained" in _brute_subdivision(outside, corpus["quadrant"])


def test_fan_of_origin_only():
    fan = parse_fan("dim 2\n")
    assert len(fan.cones) == 1
    assert fan.cones[0].dim == 0
    assert not is_complete(fan)
    fan2 = parse_fan(fan.to_text())
    assert len(fan2.cones) == 1


@pytest.mark.parametrize(
    "path, pairs",
    [(TESTS.parent / "perfbench" / "inputs" / "cubestar.fan", 276),
     (TESTS / "cube4.fan", 28)],
)
def test_pair_check_intersects_each_pair_of_maximal_cones_once(
    monkeypatch, path, pairs
):
    calls = []
    real = fans.intersection_generators

    def counted(gens, other):
        calls.append(gens)
        return real(gens, other)

    monkeypatch.setattr(fans, "intersection_generators", counted)
    fan = load_fan(path)
    assert len(calls) == math.comb(len(fan.maximal_cone_ids()), 2) == pairs


GEOMETRY_FANS = FANS + list(EXTRA_FANS.values())


def _typed(value):
    """A field value with the type of every number in it spelled out."""
    if isinstance(value, (tuple, frozenset)):
        return type(value)(_typed(v) for v in value)
    return type(value).__name__, value


@pytest.mark.parametrize("path", GEOMETRY_FANS, ids=lambda p: p.name)
def test_cone_fields_match_reference_geometry(monkeypatch, path):
    """Every field of every cone equals the one built on the reference
    cone_data of brute_oracle, number types included."""
    fan = load_fan(path)
    monkeypatch.setattr(fans, "cone_data", brute_oracle.cone_data)
    ref = load_fan(path)
    assert fan.rays == ref.rays
    assert len(fan.cones) == len(ref.cones)
    for got, want in zip(fan.cones, ref.cones):
        for field in Cone.__slots__:
            a, b = getattr(got, field), getattr(want, field)
            assert _typed(a) == _typed(b), (path.name, got.index, field)


def _outcome(build, *args):
    """The fields of build(*args), or the message of its InputError."""
    try:
        data = build(*args)
    except InputError as exc:
        return str(exc)
    return [(field, _typed(getattr(data, field))) for field in data.__slots__]


@st.composite
def generator_sets(draw):
    """1 to 6 integer vectors in dimension 1 to 4, entries in [-3, 3]."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    return n, draw(st.lists(vec, min_size=1, max_size=6))


@FUZZ
@given(case=generator_sets())
def test_cone_data_matches_reference_on_random_generators(case):
    n, vectors = case
    got = _outcome(fans.cone_data, vectors, n)
    want = _outcome(brute_oracle.cone_data, vectors, n)
    assert got == want


@st.composite
def span_cases(draw):
    """A basis of 1 to n independent vectors in dimension n = 1 to 4,
    entries in [-3, 3], and 1 to 4 vectors: combinations of the basis,
    some divided by their content so that coordinates are fractions,
    and vectors drawn freely, which may lie outside the span."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    basis = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=n))
    assume(_linalg.rank([fans._sparse(b) for b in basis]) == len(basis))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["combination", "divided", "free"]))
        if kind == "free":
            vectors.append(draw(st.tuples(*[entry] * n)))
            continue
        coeffs = draw(st.lists(entry, min_size=len(basis), max_size=len(basis)))
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
        if kind == "divided" and any(v):
            v = primitive(v)
        vectors.append(v)
    return basis, vectors


@FUZZ
@given(case=span_cases())
@example(case=(((1, 0, 0), (0, 1, 0)), [(1, 1, 0), (2, 0, 0), (0, 0, 1)]))
@example(case=(((1, 1), (1, -1)), [(1, 0), (0, 1)]))
@example(case=(((1, 0), (1, 1)), [(1, 1), (2, 1)]))
def test_span_coords_matches_per_vector_solve(case):
    """The coordinates that restriction reads back off its forms, from
    the ring of the basis to a ring whose basis is the vectors, are the
    per-vector solve coordinates, number types included; it raises
    exactly when some vector, possibly only the last, lies outside the
    span."""
    basis, vectors = case

    def by_restriction(basis, vectors):
        source = ConeRing("source", len(basis), tuple(basis))
        target = ConeRing("target", len(vectors), tuple(vectors))
        with patch.object(modules, "_RESTRICTIONS", {}):
            forms = [dict(form) for form in restriction(source, target)]
        return [tuple(f.get(j, 0) for f in forms) for j in range(len(vectors))]

    def outcome(coords):
        try:
            return _typed(tuple(coords(basis, vectors)))
        except InputError as exc:
            return str(exc)

    assert outcome(by_restriction) == outcome(brute_oracle.span_coords)


def _count_calls(monkeypatch, *names):
    """Per name, the list that records each call of that _linalg routine."""
    calls = {}
    for name in names:
        real = getattr(_linalg, name)
        calls[name] = []

        def counted(*args, real=real, log=calls[name]):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(_linalg, name, counted)
    return calls


def test_simplicial_geometry_takes_one_elimination_per_cone(monkeypatch):
    """Every cone of cubestar is simplicial, so loading it takes one
    rref per cone.  Parsing the P^4 complex, whose cones are simplicial
    too, takes no more: its format-1 signs are read as stated."""
    calls = _count_calls(monkeypatch, "rref")["rref"]
    fan = load_fan(TESTS.parent / "perfbench" / "inputs" / "cubestar.fan")
    assert len(fan.cones) == 75 and len(calls) <= 75
    calls.clear()
    text = (TESTS.parent / "perfbench" / "inputs" / "p4.complex").read_text()
    M = complex_from_text(text, validate=False)
    assert len(M.fan.cones) == 31 and len(calls) <= 31


def test_non_simplicial_geometry_solves_nothing(monkeypatch):
    """cubefan has 27 cones, six of them over a square (d = 3, four
    generators).  Loading it takes one rref per cone for its frame and
    one nullspace per pair of a square's generators, 27 + 6 * 6, and no
    solve: every facet normal is read on the frame."""
    calls = _count_calls(monkeypatch, "rref", "solve")
    fan = load_fan(fan_path("cubefan"))
    assert len(fan.cones) == 27
    assert sum(len(c.rays) == 4 for c in fan.cones) == 6
    assert len(calls["rref"]) == 27 + 6 * 6
    assert not calls["solve"]


def _all_pairs_rejects(build):
    """Does build() fail, with the pair check over all pairs of cones in
    place of the one over maximal cones?"""
    with patch.object(Fan, "_validate_pairwise", lambda self: None):
        try:
            fan = build()
        except InputError:
            return True
    return not all_pairs_valid(fan)


def _rejects(build):
    try:
        build()
    except InputError:
        return True
    return False


@st.composite
def cone_lists(draw):
    """Random cone lists over random small primitive rays in dimension 2
    or 3.  A cone lists 1 to n + 1 rays, n most often; a fan with a cone
    listing a non-extreme ray, or with two cones that overlap, is
    rejected."""
    n = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(primitive)
    rays = draw(st.lists(vec, min_size=n, max_size=7, unique=True))
    ids = st.permutations(range(len(rays)))
    size = st.sampled_from([1, 2, n, n, n + 1])
    cone = st.tuples(ids, size).map(lambda t: t[0][: t[1]])
    return n, rays, draw(st.lists(cone, min_size=2, max_size=6))


@FUZZ
@given(case=cone_lists())
def test_maximal_pairs_agree_with_all_pairs_on_random_cones(case):
    build = lambda: Fan.from_cones(*case)
    assert _rejects(build) == _all_pairs_rejects(build)


@FUZZ
@given(text=mutated(FANS))
def test_maximal_pairs_agree_with_all_pairs_on_mutated_corpus(text):
    build = lambda: parse_fan(text)
    assert _rejects(build) == _all_pairs_rejects(build)
