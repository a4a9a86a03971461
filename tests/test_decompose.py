"""Decomposition of direct images: multiplicities, summand embeddings and
the isomorphism they certify."""

from collections import Counter
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from fansheaf import _linalg, decompose, modules
from fansheaf.combinatorics import predicted_stalks
from fansheaf.complexes import (
    FanComplex,
    boundary,
    check_complex,
    check_locally_exact,
)
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
from fansheaf.modules import FreeGradedModule, PolyMatrix, cone_ring
from fansheaf.pushforward import pushforward, verify_pushforward

from brute_oracle import membership_exactness
from conftest import fan_path
from test_restriction import SUBDIVISIONS

CUBESTAR = (
    Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    / "cubestar.fan"
)


def _image(src_name, tgt_name):
    src = load_fan(fan_path(src_name))
    tgt = load_fan(fan_path(tgt_name))
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src)
    return pushforward(fmap, M), fmap


def _cocycle(N, i, d):
    """A cocycle of N at cone i in degree d that is a generator modulo
    the irrelevant ideal."""
    _, _, block, _ = boundary(N, i)
    for v in _linalg.nullspace(block(d), N.dim_at(i, d)):
        if decompose._bare(N.modules[i], d, v):
            return v


def _peel(N, base_id, shift, degree=None):
    """peel_summand with the summand built on N's window and its base
    generator sent to a cocycle of N in `degree`, by default the
    summand's own base degree: the summand and the embedding."""
    S = build_shifted_minimal(N.fan, base_id, shift, window=N.window)
    if degree is None:
        (degree,) = S.degrees_at(base_id)
    base = (degree, _cocycle(N, base_id, degree))
    return S, peel_summand(N, base_id, S, base)


def _record_peels(monkeypatch):
    """List of (base cone, summand, embedding), one per peel_summand
    call that decompose makes, in call order."""
    peels = []
    peel = decompose.peel_summand

    def recording(N, base_id, summand, base):
        embedding = peel(N, base_id, summand, base)
        peels.append((base_id, summand, embedding))
        return embedding

    monkeypatch.setattr(decompose, "peel_summand", recording)
    return peels


def _summed_degrees(peels, i):
    """The generator degrees of all recorded summands at cone i."""
    return sum((Counter(S.degrees_at(i)) for _, S, _ in peels), Counter())


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


def _stalk_multiplicities(N):
    """The multiplicities that N's stalks alone determine, by Moebius
    inversion over the face poset.  At each cone tau, in dimension
    order, every summand (sigma, k) found at a proper face sigma of tau
    takes its predicted stalk at tau out of N's generator degrees there;
    each degree d left over is one summand based at tau, of shift
    -n + dim tau - d.  No lift and no cocycle enter."""
    fan = N.fan
    predicted = cache(partial(predicted_stalks, fan))
    mult = Counter()
    for tau in fan.cones:
        left = Counter(N.degrees_at(tau.index))
        for (sigma, k), m in mult.items():
            if sigma in tau.face_ids:
                for d in predicted(sigma, k)[tau.index]:
                    left[d] -= m
        assert min(left.values(), default=0) >= 0, (tau.index, left)
        for d, count in left.items():
            if count:
                mult[(tau.index, -fan.n + tau.dim - d)] += count
    return dict(mult)


@pytest.mark.parametrize("src,tgt", [*SUBDIVISIONS, ("cubestar", "cubefan")])
def test_multiplicities_follow_from_stalks(src, tgt):
    """The walk's multiplicities are the ones the direct image's stalks
    and the face lattice determine."""
    source = load_fan(CUBESTAR if src == "cubestar" else fan_path(src))
    fmap = subdivision_map(source, load_fan(fan_path(tgt)))
    N = pushforward(fmap, build_minimal(source))
    assert decomposition_multiplicities(N) == _stalk_multiplicities(N)


REPO = Path(__file__).resolve().parent.parent
DECOMPOSE_RECORDS = sorted((REPO / "tests" / "golden").glob("decompose-*.tsv"))
DECOMPOSE_RECORDS.append(REPO / "perfbench" / "expected" / "decompose-cubestar.tsv")


@pytest.mark.parametrize("path", DECOMPOSE_RECORDS, ids=lambda p: p.stem)
def test_recorded_multiplicities_are_symmetric_and_unimodal(path):
    """Every recorded decomposition: m(sigma, k) = m(sigma, -k), since
    the direct image of a self-dual complex is self-dual, and
    m(sigma, k - 2) <= m(sigma, k) for k <= 0, as relative hard Lefschetz
    gives for projective maps."""
    mult = {}
    for line in path.read_text().splitlines():
        kind, sigma, k, m, _ = line.split("\t")
        if kind == "summand":
            mult[(int(sigma), int(k))] = int(m)
    assert mult
    for (sigma, k), m in mult.items():
        assert mult.get((sigma, -k), 0) == m, (sigma, k)
        for j in range(-abs(k), 1):
            assert mult.get((sigma, j - 2), 0) <= mult.get((sigma, j), 0)


def test_embedding_has_no_cone_outside_the_star(monkeypatch):
    """Each copy is embedded exactly on its summand's support, which lies
    in the star of its base; outside the star of the top cone N still has
    modules, which the top summands leave alone."""
    for pair in [("blowquad", "quadrant"), ("starsq", "conesquare")]:
        N, _ = _image(*pair)
        top = N.fan.cones_of_dim(N.fan.n)[0]
        peels = _record_peels(monkeypatch)
        decomposition_multiplicities(N)
        for b, S, embedding in peels:
            assert set(embedding) == set(S.support_ids())
            assert set(embedding) <= set(N.fan.star(b))
        star = set(N.fan.star(top))
        assert [i for i in N.support_ids() if i not in star]
        assert any(b == top for b, _, _ in peels)


def test_peel_top_summand_leaves_minimal_complex(monkeypatch):
    """Beside the summand based at the top cone, the summand that makes
    up N is the minimal complex, certified from scratch."""
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    peels = _record_peels(monkeypatch)
    decomposition_multiplicities(N)
    (summand,) = [S for b, S, _ in peels if b == top]
    (rest,) = [S for b, S, _ in peels if b != top]
    assert stalk_report(summand) == {top: (0,)}
    assert verify_minimality(rest) == []
    assert stalk_report(rest) == {i: (-2,) for i in range(4)}


def test_peel_partitions_generator_degrees(monkeypatch):
    """The summands' generator degrees add up to N's at every cone, and
    the (top, 1) copy is embedded at the top cone alone."""
    N, _ = _image("starsq", "conesquare")
    top = N.fan.cones_of_dim(3)[0]
    peels = _record_peels(monkeypatch)
    decomposition_multiplicities(N)
    (embedding,) = [
        e for key, (_, _, e) in zip(_keys(peels), peels) if key == (top, 1)
    ]
    assert set(embedding) == {top}
    for c in N.fan.cones:
        i = c.index
        assert _summed_degrees(peels, i) == Counter(N.degrees_at(i))


def test_full_peel_exhausts(monkeypatch):
    """One copy per counted summand, in sorted order, and together they
    account for every generator of N."""
    for pair in [("blowquad", "quadrant"), ("twostep", "quadrant")]:
        N, _ = _image(*pair)
        peels = _record_peels(monkeypatch)
        mult = decomposition_multiplicities(N)
        assert _keys(peels) == _sequence(mult)
        for i in N.support_ids():
            assert _summed_degrees(peels, i) == Counter(N.degrees_at(i))


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


def test_walk_refuses_a_summand_off_its_prediction(monkeypatch):
    """A summand complex whose stalks differ from the face lattice's
    prediction is refused as soon as it is built, before it is embedded:
    here the prediction for (top, 0) has its base generator 2 degrees
    too high."""
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    predicted = decompose.predicted_stalks

    def off_by_two(fan, base=0, shift=0):
        want = predicted(fan, base, shift)
        if (base, shift) == (top, 0):
            want[top] = tuple(d + 2 for d in want[top])
        return want

    monkeypatch.setattr(decompose, "predicted_stalks", off_by_two)
    peels = _record_peels(monkeypatch)
    with pytest.raises(
        CertificateError, match=rf"^summand \({top}, 0\): cone {top} "
    ):
        decomposition_multiplicities(N)
    assert _keys(peels) == [(0, 0)]


def test_theorem_report_pipeline(monkeypatch):
    _, fmap = _image("starsq", "conesquare")
    peels = _record_peels(monkeypatch)
    mult = decomposition_theorem_report(fmap)
    assert mult.get((0, 0)) == 1
    assert sum(mult.values()) == 3
    assert _keys(peels) == _sequence(mult)


def test_peel_with_wrong_shift_rejected():
    """A base cocycle outside the summand's base degree is refused: the
    shift-1 summand at the top cone has its generator in degree -1, and
    N's generator there sits in degree 0."""
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    with pytest.raises(CertificateError, match="base cocycle at degree 0"):
        _peel(N, top, 1, degree=0)


def test_peel_refuses_a_base_that_is_not_a_cocycle():
    """The base generator's image must be a cocycle of N: the first
    basis vector of N's degree-0 piece at the top cone is not one."""
    N, _ = _image("blowquad", "quadrant")
    top = N.fan.cones_of_dim(2)[0]
    S = build_shifted_minimal(N.fan, top, 0, window=N.window)
    with pytest.raises(
        CertificateError,
        match=rf"^cone {top}: embedding is not a chain map at degree 0$",
    ):
        peel_summand(N, top, S, (0, {0: 1}))


def test_wrong_lifts_are_refused(monkeypatch):
    """lift multiplies each preimage back.  With modules' solve bound to
    one that returns twice the solution, the direct image's induced
    differential and a summand's embedding both raise."""
    N, fmap = _image("blowquad", "quadrant")
    M = build_minimal(fmap.source)

    def doubled(rows, rhs, ncols):
        sol = _linalg.solve(rows, rhs, ncols)
        return sol and {j: 2 * x for j, x in sol.items()}

    # only the lifts' solves: the restrictions were cached by _image
    linalg = SimpleNamespace(**vars(_linalg))
    linalg.solve = doubled
    monkeypatch.setattr(modules, "_linalg", linalg)
    with pytest.raises(CertificateError, match="misses the facet module"):
        pushforward(fmap, M)
    with pytest.raises(
        CertificateError, match="summand boundary has no preimage at degree"
    ):
        _peel(N, 0, 0)


def test_walk_rejects_dependent_generator_images(monkeypatch):
    """Summands built with their first generator repeated at each cone
    send two generators to one image, which the walk refuses at the
    first ray.  Their stalks differ from the face lattice's, so the
    summand check refuses them first; with that check bypassed, the
    walk's own independence check refuses them."""
    N, _ = _image("blowquad", "quadrant")
    real = modules.minimal_generators

    def doubled(ambient, bases, window):
        gens = real(ambient, bases, window)
        return gens[:1] + gens

    monkeypatch.setattr(modules, "minimal_generators", doubled)
    with pytest.raises(CertificateError, match=r"^summand \(0, 0\): cone 1 "):
        decomposition_multiplicities(N)
    monkeypatch.setattr(decompose, "_check_stalks", lambda S, base, k: None)
    with pytest.raises(CertificateError, match="chosen generators dependent"):
        decomposition_multiplicities(N)


def test_walk_needs_enough_cocycles(monkeypatch):
    """Two summands are based at the top cone of twostep -> quadrant; a
    kernel that offers one cocycle twice leaves one of them unfilled."""
    N, _ = _image("twostep", "quadrant")

    def repeated(rows, ncols):
        basis = _linalg.nullspace(rows, ncols)
        return basis[:1] * len(basis)

    # only the walk's kernels: the summand builds keep the real one
    linalg = SimpleNamespace(**vars(_linalg))
    linalg.nullspace = repeated
    monkeypatch.setattr(decompose, "_linalg", linalg)
    with pytest.raises(CertificateError, match="only 1 of 2 cocycle"):
        decomposition_multiplicities(N)


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
    with pytest.raises(CertificateError, match="needs a module at cone"):
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


def _direct_sum(A, B):
    """The direct sum of two complexes on one fan, A's generators first
    at each cone."""
    fan = A.fan
    mods = {
        i: FreeGradedModule(
            cone_ring(fan, i), A.degrees_at(i) + B.degrees_at(i)
        )
        for i in A.modules.keys() | B.modules.keys()
    }
    maps = {}
    for s, t in A.maps.keys() | B.maps.keys():
        entries = dict(A.maps[(s, t)].entries) if (s, t) in A.maps else {}
        if (s, t) in B.maps:
            for (r, c), p in B.maps[(s, t)].entries.items():
                entries[(r + A.rank_at(t), c + A.rank_at(s))] = p
        maps[(s, t)] = PolyMatrix(mods[s], mods[t], entries)
    return FanComplex(fan, mods, maps, A.window)


def test_sum_with_a_contractible_pair_is_refused():
    """N = M + C on P^2, with M the minimal complex and C the identity
    A_tau -> A_rho on a maximal cone tau and its facet rho, in degree 0,
    is a valid complex but no sum of shifted minimal complexes.  It is
    not locally exact either: at the other maximal cone on rho, cone 5,
    N's module misses the new kernel that C's module at rho makes."""
    p2 = load_fan(fan_path("p2"))
    M = build_minimal(p2)
    tau, rho = 4, 1
    assert p2.is_facet(rho, tau) and set(p2.star(rho)) == {rho, tau, 5}
    C = FanComplex(
        p2,
        {
            tau: FreeGradedModule(cone_ring(p2, tau), [0]),
            rho: FreeGradedModule(cone_ring(p2, rho), [0]),
        },
        {},
        M.window,
    )
    one = (0,) * C.modules[rho].ring.nvars
    C.maps[(tau, rho)] = PolyMatrix(
        C.modules[tau], C.modules[rho], {(0, 0): {one: 1}}
    )
    N = _direct_sum(M, C)
    assert check_complex(N) == []
    failures = check_locally_exact(N)
    assert [(i, d) for i, d, _ in failures] == [
        (5, 0), (5, 2), (5, 4), (5, 6)
    ]
    assert failures == membership_exactness(N)
    with pytest.raises(CertificateError, match="cone 5: summand boundary"):
        decomposition_multiplicities(N)
