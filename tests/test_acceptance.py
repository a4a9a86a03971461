"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints a single CRITERION line on success; the pytest -v
output is the per-criterion pass/fail record.  Shared builds are cached
at module scope so the gate stays fast.
"""

import math
from collections import Counter

from fansheaf import _linalg, decompose
from fansheaf.combinatorics import predicted_stalks
from fansheaf.complexes import (
    FanComplex,
    check_complex,
    cohomology_degreewise,
    complex_to_text,
)
from fansheaf.decompose import (
    decomposition_multiplicities,
    decomposition_theorem_report,
)
from fansheaf.fans import is_complete, load_fan, subdivision_map
from fansheaf.minimal import (
    _extend,
    build_minimal,
    ih_module,
    stalk_report,
)
from fansheaf.modules import FreeGradedModule, cone_ring
from fansheaf.pushforward import pushforward, verify_pushforward

import brute_oracle
from conftest import fan_path

WINDOWS = {"conecube": (-4, 2)}

COMPLETE = ["p1", "p2", "p1xp1", "p3", "p2blow", "cubefan"]
FULL_CONES = ["quadrant", "conesquare", "conecube"]
SUBDIVISIONS = [
    ("p2", "p2"),
    ("blowquad", "quadrant"),
    ("p2blow", "p2"),
    ("starsq", "conesquare"),
    ("twostep", "quadrant"),
]

_fans = {}
_builds = {}
_images = {}


def _fan(name):
    if name not in _fans:
        _fans[name] = load_fan(fan_path(name))
    return _fans[name]


def _built(name):
    if name not in _builds:
        _builds[name] = build_minimal(_fan(name), window=WINDOWS.get(name))
    return _builds[name]


def _image(src, tgt):
    key = (src, tgt)
    if key not in _images:
        fmap = subdivision_map(_fan(src), _fan(tgt))
        _images[key] = (pushforward(fmap, _built(src)), fmap)
    return _images[key]


def test_criterion_1_acyclic_outside_top_slot():
    checked = 0
    for name in COMPLETE + FULL_CONES:
        M = _built(name)
        table = cohomology_degreewise(M)
        slots = {p for (p, d) in table}
        assert slots == {-M.fan.n}, (name, sorted(slots))
        assert table, name
        checked += 1
    print(
        f"CRITERION 1: PASS - cohomology concentrated in the top slot "
        f"for {checked} fans"
    )


def _ih_degrees_from_face_counts(fan):
    # classical h-vector of a complete simplicial fan from face counts
    n = fan.n
    coeff = [0] * (n + 1)
    for cone in fan.cones:
        m = n - cone.dim
        for i in range(m + 1):
            coeff[i] += math.comb(m, i) * (-1) ** (m - i)
    degrees = []
    for power, c in enumerate(coeff):
        assert c >= 0, (power, c)
        degrees.extend([n - 2 * power] * c)
    return sorted(degrees)


def test_criterion_2_ih_matches_face_count_oracle():
    pinned = {
        "p2": [-2, 0, 2],
        "p1xp1": [-2, 0, 0, 2],
        "p3": [-3, -1, 1, 3],
    }
    for name in ["p1", "p2", "p1xp1", "p3", "p2blow"]:
        assert is_complete(_fan(name)), name
        got = sorted(ih_module(_built(name)))
        assert got == _ih_degrees_from_face_counts(_fan(name)), name
        if name in pinned:
            assert got == pinned[name], name
    print(
        "CRITERION 2: PASS - intersection cohomology degrees equal the "
        "face-count oracle on 5 complete simplicial fans"
    )


def test_criterion_3_nonsimplicial_cone_stalks():
    pinned = {
        "conesquare": (-3, -1),
        "conecube": (-4, -2, -2, -2, -2),
    }
    for name, want in pinned.items():
        fan = _fan(name)
        top = fan.cones_of_dim(fan.n)[0]
        got = stalk_report(_built(name))[top]
        assert got == want, (name, got)
        assert got == predicted_stalks(fan)[top], name
    print(
        "CRITERION 3: PASS - cone-over-square stalk (-3, -1) and "
        "cone-over-cube stalk (-4, -2, -2, -2, -2), both matching the "
        "recursion oracle"
    )


def test_criterion_4_simplicial_cones_have_plain_stalks():
    names = COMPLETE + FULL_CONES + ["blowquad", "starsq", "twostep"]
    checked = 0
    for name in names:
        fan = _fan(name)
        stalks = stalk_report(_built(name))
        for cone in fan.cones:
            if len(cone.rays) != cone.dim:
                continue
            assert stalks[cone.index] == (-fan.n,), (name, cone.index)
            checked += 1
    print(
        f"CRITERION 4: PASS - {checked} simplicial cones across "
        f"{len(names)} fans all carry a single generator in the base "
        f"degree"
    )


def test_criterion_5_direct_images_verify():
    for src, tgt in SUBDIVISIONS:
        N, _ = _image(src, tgt)
        problems = verify_pushforward(_built(src), N)
        assert problems == [], (src, tgt)
    print(
        f"CRITERION 5: PASS - direct image certificates hold on "
        f"{len(SUBDIVISIONS)} subdivisions"
    )


def test_criterion_6_decomposition_reports():
    for src, tgt in SUBDIVISIONS:
        _, fmap = _image(src, tgt)
        mult = decomposition_theorem_report(fmap, window=WINDOWS.get(src))
        assert mult.get((0, 0)) == 1, (src, tgt)
        others = [k for (b, k) in mult if b == 0 and k != 0]
        assert not others, (src, tgt, others)
        if src == "blowquad":
            top = fmap.target.cones_of_dim(2)[0]
            assert mult == {(0, 0): 1, (top, 0): 1}
    print(
        f"CRITERION 6: PASS - full decompositions on "
        f"{len(SUBDIVISIONS)} subdivisions, identity summand always "
        f"multiplicity one"
    )


def _is_chain_map(N, S, phi):
    """d_N phi = phi d_S on every generator of S, each composite applied
    to the generator at its own degree (a map of free modules vanishes
    when it vanishes on generators)."""
    for c in S.support_ids():
        smod = S.modules[c]
        one = (0,) * smod.ring.nvars
        for j, g in enumerate(smod.degrees):
            gen = {smod.index_at(g)[(j, one)]: 1}
            for f in N.fan.cones[c].facet_ids:
                left = {}
                if (c, f) in N.maps:
                    left = _linalg.matvec(
                        N.maps[(c, f)].evaluate(g),
                        _linalg.matvec(phi[c].evaluate(g), gen),
                    )
                right = {}
                if (c, f) in S.maps:
                    right = _linalg.matvec(
                        phi[f].evaluate(g),
                        _linalg.matvec(S.maps[(c, f)].evaluate(g), gen),
                    )
                if left != right:
                    return False
    return True


def _generator_classes(pm):
    """The images of pm's source generators modulo the irrelevant ideal,
    as sparse rows over the target's generators."""
    one = (0,) * pm.target.ring.nvars
    rows = [{} for _ in pm.source.degrees]
    for (r, j), p in pm.entries.items():
        if p.get(one):
            rows[j][r] = p[one]
    return rows


def test_criterion_7_summand_embeddings_sum_to_an_isomorphism(monkeypatch):
    copies = 0
    peel = decompose.peel_summand
    for src, tgt in [("starsq", "conesquare"), ("twostep", "quadrant")]:
        N, _ = _image(src, tgt)
        fan = N.fan
        found = Counter()
        embeddings = []

        def checked(cur, b, S, base):
            (d,) = S.degrees_at(b)
            key = (b, -fan.n + fan.cones[b].dim - d)
            assert check_complex(S) == [], (src, key)
            phi = peel(cur, b, S, base)
            assert _is_chain_map(cur, S, phi), (src, key)
            found[key] += 1
            embeddings.append(phi)
            return phi

        monkeypatch.setattr(decompose, "peel_summand", checked)
        mult = decomposition_multiplicities(N)
        copies += len(embeddings)
        assert dict(found) == mult, src
        # graded Nakayama: a basis modulo the irrelevant ideal at every
        # cone makes the summed embedding an isomorphism there
        for cone in fan.cones:
            i = cone.index
            rows = [
                row
                for phi in embeddings if i in phi
                for row in _generator_classes(phi[i])
            ]
            assert len(rows) == N.rank_at(i), (src, i)
            assert _linalg.rank(rows) == N.rank_at(i), (src, i)
    print(
        f"CRITERION 7: PASS - {copies} summand copies, each a valid "
        f"complex embedded by a chain map, their sum an isomorphism at "
        f"every cone, multiplicity multisets reproduced"
    )


def _reversed_order_build(fan, window):
    M0 = build_minimal(fan, window=window)
    M = FanComplex(fan, {}, {}, window=M0.window)
    M.modules[0] = FreeGradedModule(cone_ring(fan, 0), [-fan.n])
    order = []
    for k in range(1, fan.n + 1):
        order.extend(sorted(fan.cones_of_dim(k), reverse=True))
    _extend(M, order)
    return M0, M


def test_criterion_8_reversed_build_order_is_immaterial():
    for src, tgt in [("blowquad", "quadrant"), ("starsq", "conesquare")]:
        fan = _fan(src)
        M1, M2 = _reversed_order_build(fan, WINDOWS.get(src))
        assert stalk_report(M1) == stalk_report(M2), src
        assert cohomology_degreewise(M1) == cohomology_degreewise(M2), src
        assert complex_to_text(M1) == complex_to_text(M2), src
        fmap = subdivision_map(fan, _fan(tgt))
        # the multiplicities fix the peel order, sorted keys each
        # repeated by its count, so equal dicts mean equal peel orders
        d1 = decomposition_multiplicities(pushforward(fmap, M1))
        d2 = decomposition_multiplicities(pushforward(fmap, M2))
        assert d1 == d2, src
    print(
        "CRITERION 8: PASS - reversed within-dimension build order "
        "leaves stalks, cohomology tables, serializations, and "
        "decompositions unchanged on 2 subdivisions"
    )


def _rayset_ids(fan):
    return {
        frozenset(fan.rays[r] for r in cone.rays): cone.index
        for cone in fan.cones
    }


def test_criterion_9_brute_force_micro_oracle():
    # line fan: every module piece and every cohomology entry
    M = _built("p1")
    lo, hi = M.window
    mods, coh = brute_oracle.line_dims(M.window)
    fan = M.fan
    labels = {0: "o"}
    for cone in fan.cones:
        if cone.dim == 1:
            ray = fan.rays[cone.rays[0]]
            labels[cone.index] = "plus" if ray[0] > 0 else "minus"
    for cone in fan.cones:
        for d in range(lo, hi + 1):
            want = mods.get((labels[cone.index], d), 0)
            assert M.dim_at(cone.index, d) == want, (cone.index, d)
    assert cohomology_degreewise(M) == coh

    # subdivided quadrant: modules, cohomology, and the direct image
    M = _built("blowquad")
    lo, hi = M.window
    mods, coh = brute_oracle.subdivided_quadrant_dims(M.window)
    ids = _rayset_ids(M.fan)
    for rayset, i in ids.items():
        for d in range(lo, hi + 1):
            want = mods.get((rayset, d), 0)
            assert M.dim_at(i, d) == want, (sorted(rayset), d)
    assert cohomology_degreewise(M) == coh

    N, _ = _image("blowquad", "quadrant")
    img = brute_oracle.quadrant_image_dims(N.window)
    qfan = N.fan
    top = qfan.cones_of_dim(2)[0]
    plo, phi = N.window
    for d in range(plo, phi + 1):
        want = img.get(d, 0)
        assert N.dim_at(top, d) == want, d
    qids = _rayset_ids(qfan)
    for rayset, i in qids.items():
        if i == top:
            continue
        for d in range(plo, phi + 1):
            want = mods.get((rayset, d), 0)
            assert N.dim_at(i, d) == want, (sorted(rayset), d)
    print(
        "CRITERION 9: PASS - brute-force enumeration reproduces every "
        "graded piece on the line fan and the subdivided quadrant, "
        "direct image included"
    )
