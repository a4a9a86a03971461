"""Complex structure, validity checks, cohomology, serialization.

The two reference complexes here are written out by hand, entry by
entry, so later builder output can be compared against them.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from fansheaf import _linalg, complexes, modules
from fansheaf.complexes import (
    FanComplex,
    assemble,
    assemble_key,
    boundary_kernel,
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
    complex_from_text,
    complex_to_text,
    sections,
    top_module,
)
from fansheaf.cli import main
from fansheaf.errors import InputError
from fansheaf.fans import load_fan
from fansheaf.minimal import build_minimal, verify_minimality
from fansheaf.modules import (
    DirectSumAmbient,
    FreeGradedModule,
    PolyMatrix,
    cone_ring,
    default_window,
)
from fansheaf.pushforward import verify_pushforward

from brute_oracle import membership_exactness, nonzero_composites
from conftest import fan_file, fan_path

GOLDEN = Path(__file__).resolve().parent / "golden"
P4_COMPLEX = GOLDEN.parent.parent / "perfbench" / "inputs" / "p4.complex"
FORMAT1 = GOLDEN.parent / "format1"
# a complex file in the earlier format, the fan it was built from, and
# its format-2 golden, where there is one
FORMAT1_CASES = [
    (FORMAT1 / "quadrant.complex", fan_path("quadrant"),
     GOLDEN / "quadrant.complex"),
    (FORMAT1 / "cubefan.complex", fan_path("cubefan"),
     GOLDEN / "cubefan.complex"),
    (P4_COMPLEX, P4_COMPLEX.with_suffix(".fan"), None),
]


def _degrees(M):
    """Generator degrees of each nonzero module."""
    return {i: m.degrees for i, m in M.modules.items() if m.rank()}


def _entries(M):
    """Entries of each stored map."""
    return {key: pm.entries for key, pm in M.maps.items()}


def quadrant_complex():
    """Minimal complex on the first quadrant, written out by hand.

    Cones: 0 origin, 1 ray (0,1), 2 ray (1,0), 3 the quadrant.  Every
    module has a single generator in degree -2 and every component of
    the differential is the constant 1, except cone 3 -> cone 2, whose
    -1 carries the cancellation.
    """
    fan = load_fan(fan_path("quadrant"))
    mods = {
        i: FreeGradedModule(cone_ring(fan, i), [-2]) for i in range(4)
    }
    maps = {}
    for s, t, c in [(1, 0, 1), (2, 0, 1), (3, 1, 1), (3, 2, -1)]:
        nv = mods[t].ring.nvars
        maps[(s, t)] = PolyMatrix(
            mods[s], mods[t], {(0, 0): {(0,) * nv: c}}
        )
    return FanComplex(fan, mods, maps, window=default_window(2))


def halfline_pair_complex():
    """Minimal complex on the complete fan in one dimension."""
    fan = load_fan(fan_path("p1"))
    mods = {
        i: FreeGradedModule(cone_ring(fan, i), [-1]) for i in range(3)
    }
    maps = {}
    for s in (1, 2):
        maps[(s, 0)] = PolyMatrix(
            mods[s], mods[0], {(0, 0): {(): 1}}
        )
    return FanComplex(fan, mods, maps, window=default_window(1))


def test_quadrant_is_valid_complex():
    M = quadrant_complex()
    assert check_complex(M) == []
    assert M.support_ids() == (0, 1, 2, 3)


def test_corrupted_entry_breaks_d_squared():
    M = quadrant_complex()
    bad = dict(M.maps)
    bad[(3, 2)] = PolyMatrix(
        M.modules[3], M.modules[2], {(0, 0): {(0,): 1}}
    )
    problems = check_complex(FanComplex(M.fan, M.modules, bad, M.window))
    assert problems
    assert any("composite" in p for p in problems)


COMPOSITE = re.compile(r"composite differential (\d+) -> (\d+) is nonzero")


@pytest.mark.parametrize("name", ["cubefan", "conecube"])
def test_corrupted_entries_flagged_as_symbolic_composition_finds(name):
    """Each entry of a golden complex in turn is scaled by 2; the pairs
    check_complex flags, one problem each in ascending order, are
    exactly those whose composite the symbolic reference finds nonzero.  The golden modules
    have up to two generators and the restrictions of these fans are
    not all simplicial."""
    M = complex_from_text((GOLDEN / f"{name}.complex").read_text())
    assert nonzero_composites(M) == set()
    flagged = 0
    for key, pm in M.maps.items():
        for ij, p in pm.entries.items():
            maps = dict(M.maps)
            maps[key] = PolyMatrix(
                pm.source, pm.target, {**pm.entries, ij: {u: 2 * c for u, c in p.items()}}
            )
            bad = FanComplex(M.fan, M.modules, maps, M.window)
            problems = check_complex(bad)
            pairs = []
            for why in problems:
                match = COMPOSITE.fullmatch(why)
                pairs.append((int(match[1]), int(match[2])))
            # cone by cone, each cone's faces ascending, none twice
            assert pairs == sorted(set(pairs))
            got = set(pairs)
            assert got == nonzero_composites(bad), (key, ij)
            flagged += bool(got)
    assert flagged


def test_inhomogeneous_entry_rejected():
    M = quadrant_complex()
    bad = dict(M.maps)
    bad[(3, 1)] = PolyMatrix(
        M.modules[3], M.modules[1], {(0, 0): {(1,): 1}}
    )
    assert check_complex(FanComplex(M.fan, M.modules, bad, M.window))


def test_assembled_differential_layout():
    M = quadrant_complex()
    mat = assemble(M, [3], [1, 2], -2)
    assert mat == [{0: 1}, {0: -1}]
    mat0 = assemble(M, [1, 2], [0], -2)
    assert mat0 == [{0: 1, 1: 1}]


def test_boundary_kernel_dims_quadrant():
    M = quadrant_complex()
    bases, facets = boundary_kernel(M, 3)
    assert facets == [1, 2]
    assert [len(bases[d]) for d in (-2, 0, 2, 4, 6)] == [1, 2, 2, 2, 2]
    assert bases[-2] == ({0: 1, 1: -1},)


def test_local_exactness_quadrant():
    M = quadrant_complex()
    assert check_locally_exact(M) == []


def quadrant_without_top():
    """The quadrant complex with its top module and maps removed."""
    M = quadrant_complex()
    mods = {i: m for i, m in M.modules.items() if i != 3}
    maps = {k: v for k, v in M.maps.items() if k[0] != 3}
    return FanComplex(M.fan, mods, maps, window=M.window)


def test_missing_top_module_fails_exactness():
    failures = check_locally_exact(quadrant_without_top())
    assert failures
    assert any(cone == 3 for cone, _, _ in failures)


def test_rank_exactness_matches_membership_reference():
    """The two-rank certificate reports the same (cone, degree, why)
    failures as the kernel-basis membership reference on every golden
    complex and on the quadrant complex without its top module."""
    cases = [
        complex_from_text(path.read_text())
        for path in sorted(GOLDEN.glob("*.complex"))
    ]
    cases.append(quadrant_without_top())
    for M in cases:
        assert check_complex(M) == []
        assert check_locally_exact(M) == membership_exactness(M)
    assert check_locally_exact(cases[-1])


def test_exactness_builds_no_kernel_basis_on_p4(monkeypatch):
    """On the benchmark's P^4 complex the certificate ranks only: no
    kernel family, wherever it is bound, and no nullspace."""
    M = complex_from_text(P4_COMPLEX.read_text())
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(_linalg, "nullspace")
    counting(complexes, "family_from_kernel")
    counting(modules, "family_from_kernel")
    assert check_locally_exact(M) == []
    assert calls == Counter()


def _without(M, cone, maps_only=False):
    """M without the maps out of a top-dimensional cone, and without its
    module unless maps_only: no composite runs through such a cone."""
    assert not any(cone in c.facet_ids for c in M.fan.cones)
    mods = {i: m for i, m in M.modules.items() if maps_only or i != cone}
    maps = {k: v for k, v in M.maps.items() if k[0] != cone}
    return FanComplex(M.fan, mods, maps, M.window)


def _every_cone_exactness(M):
    """local_exactness run on every positive-dimensional cone."""
    return [
        failure
        for cone in M.fan.cones if cone.dim
        for failure in complexes.local_exactness(M, cone.index)
    ]


def test_exactness_runs_once_per_local_data_on_p4(monkeypatch):
    """The 30 positive-dimensional cones of the P^4 complex have 4
    distinct local data sets, one per dimension, and every cone still
    gets a verdict."""
    M = complex_from_text(P4_COMPLEX.read_text())
    runs = []
    real = complexes.local_exactness

    def counting(M, i):
        runs.append(i)
        return real(M, i)

    monkeypatch.setattr(complexes, "local_exactness", counting)
    assert check_locally_exact(M) == []
    assert len(runs) == 4
    assert check_locally_exact(_without(M, 28)) != []
    assert len(runs) == 9


def test_p4_without_a_top_module_fails_only_there():
    """Cone 28 shares its local data with the other top cones except its
    own module: its failures are the rank certificate's, and no other
    cone takes them."""
    M = _without(complex_from_text(P4_COMPLEX.read_text()), 28)
    assert check_complex(M) == []
    assert check_locally_exact(M) == [
        (28, -4, "kernel dim 1, no module"),
        (28, -2, "kernel dim 4, no module"),
        (28, 0, "kernel dim 10, no module"),
        (28, 2, "kernel dim 20, no module"),
        (28, 4, "kernel dim 34, no module"),
        (28, 6, "kernel dim 52, no module"),
        (28, 8, "kernel dim 74, no module"),
    ]


def _scaled_facet_map(M):
    """M with one map from a 3-cone into a 2-cone doubled: the boundary
    of the two top cones on that 3-cone changes, their own maps not."""
    (s, t), pm = next(
        (st, pm) for st, pm in sorted(M.maps.items())
        if M.fan.cones[st[0]].dim == 3
    )
    doubled = {
        ij: {u: 2 * c for u, c in p.items()} for ij, p in pm.entries.items()
    }
    maps = {**M.maps, (s, t): PolyMatrix(pm.source, pm.target, doubled)}
    return FanComplex(M.fan, M.modules, maps, M.window)


def test_exactness_memo_equals_a_run_per_cone():
    """Complexes made so that cones share all local data but one part:
    a missing module (cone 28), a module without maps beside a missing
    one (cones 28 and 27), a changed boundary (a doubled map into a
    2-cone).  The memoised certificate returns what local_exactness
    returns cone by cone."""
    P = complex_from_text(P4_COMPLEX.read_text())
    cases = [
        _without(P, 28),
        _without(_without(P, 28, maps_only=True), 27),
        _scaled_facet_map(P),
    ]
    for M in cases:
        want = _every_cone_exactness(M)
        assert want
        assert check_locally_exact(M) == want


def test_assemble_key_fixes_the_rows():
    """Equal keys give equal rows in every degree, over every ordered
    choice of one or two source cones and one or two target cones of
    P^2's minimal complex; some distinct choices share a key.  sections
    of the sources across the targets gives the same rows and key."""
    M = build_minimal(load_fan(fan_path("p2")))
    ring = cone_ring(M.fan, "A")
    ids = [c.index for c in M.fan.cones]
    choices = [(i,) for i in ids] + [
        (i, j) for i in ids for j in ids if i != j
    ]
    lo, hi = M.window
    rows = {}
    shared = 0
    for src in choices:
        for tgt in choices:
            got = [assemble(M, src, tgt, d) for d in range(lo, hi + 1)]
            key = assemble_key(M, src, tgt)
            _, rows_at, sections_key = sections(M, ring, src, tgt)
            assert sections_key == key
            assert [rows_at(d) for d in range(lo, hi + 1)] == got
            shared += key in rows
            assert rows.setdefault(key, got) == got, (src, tgt)
    assert shared


def test_exactness_runs_only_after_check_complex(monkeypatch, tmp_path):
    """Rank exactness holds only once d after d = 0 does: verify,
    verify_pushforward and verify_minimality never reach local_exactness
    on a complex that fails check_complex, and do on one that passes."""
    calls = []
    real = complexes.local_exactness

    def counting(M, i):
        calls.append(i)
        return real(M, i)

    monkeypatch.setattr(complexes, "local_exactness", counting)
    good = quadrant_complex()
    bad = FanComplex(
        good.fan,
        good.modules,
        {**good.maps, (3, 1): PolyMatrix(
            good.modules[3], good.modules[1], {(0, 0): {(0,): 2}}
        )},
        good.window,
    )
    assert check_complex(bad)
    paths = {}
    for name, M in (("good", good), ("bad", bad)):
        paths[M] = tmp_path / f"{name}.complex"
        paths[M].write_text(complex_to_text(M))

    def cli_verify(M):
        return main(["verify", "--complex", str(paths[M])])

    runs = [
        cli_verify,
        lambda M: verify_pushforward(good, M),
        verify_minimality,
    ]
    for run in runs:
        calls.clear()
        assert run(bad)
        assert calls == []
        assert not run(good)
        assert calls


def test_cohomology_quadrant():
    M = quadrant_complex()
    assert cohomology_degreewise(M) == {(-2, 2): 1, (-2, 4): 2, (-2, 6): 3}
    assert top_module(M) == ((2,), None)


def test_cohomology_complete_line_fan():
    M = halfline_pair_complex()
    table = cohomology_degreewise(M)
    assert table == {(-1, -1): 1, (-1, 1): 2, (-1, 3): 2, (-1, 5): 2}
    assert top_module(M) == ((-1, 1), None)


def test_euler_identity():
    M = quadrant_complex()
    table = cohomology_degreewise(M)
    lo, hi = M.window
    for d in range(lo, hi + 1):
        chi_mod = sum(
            (-1) ** p * sum(M.dim_at(i, d) for i in M.fan.cones_of_dim(-p))
            for p in range(-2, 1)
        )
        chi_h = sum(
            (-1) ** p * table.get((p, d), 0) for p in range(-2, 1)
        )
        assert chi_mod == chi_h


def slotwise_table(M):
    """Cohomology table with both ranks of every slot taken afresh."""
    n = M.fan.n
    by_dim = {
        k: [i for i in M.fan.cones_of_dim(k) if M.rank_at(i)]
        for k in range(n + 1)
    }
    lo, hi = M.window
    table = {}
    for p in range(-n, 1):
        srcs = by_dim[-p]
        tgts = by_dim.get(-p - 1, [])
        nxts = by_dim.get(-p + 1, [])
        for d in range(lo, hi + 1):
            h = sum(M.dim_at(i, d) for i in srcs)
            if tgts and srcs:
                h -= _linalg.rank(assemble(M, srcs, tgts, d))
            if nxts and srcs:
                h -= _linalg.rank(assemble(M, nxts, srcs, d))
            if h:
                table[(p, d)] = h
    return table


@pytest.mark.parametrize("name", ["p3", "cubefan"])
def test_cohomology_ranks_each_differential_once(corpus, monkeypatch, name):
    M = build_minimal(corpus[name])
    expected = slotwise_table(M)
    rank = _linalg.rank
    # id of each assembled matrix -> (the matrix, kept alive so ids stay
    # unique; its source dimension and degree)
    source_of = {}
    ranked = []

    def tagging_assemble(M, src_ids, tgt_ids, d):
        mat = assemble(M, src_ids, tgt_ids, d)
        source_of[id(mat)] = (mat, (M.fan.cones[src_ids[0]].dim, d))
        return mat

    def counting_rank(rows):
        ranked.append(source_of[id(rows)][1])
        return rank(rows)

    monkeypatch.setattr(complexes, "assemble", tagging_assemble)
    monkeypatch.setattr(_linalg, "rank", counting_rank)
    table = cohomology_degreewise(M)
    assert ranked
    assert max(Counter(ranked).values()) == 1
    assert table == expected


def test_serialization_round_trip():
    M = quadrant_complex()
    text = complex_to_text(M)
    N = complex_from_text(text)
    assert N.window == M.window
    assert N.support_ids() == M.support_ids()
    assert sorted(N.maps) == sorted(M.maps)
    for key in M.maps:
        assert N.maps[key].entries == M.maps[key].entries
    assert complex_to_text(N) == text


@pytest.mark.parametrize(
    "path, fan, golden", FORMAT1_CASES, ids=["quadrant", "cubefan", "p4"]
)
def test_format1_maps_are_entries_times_stated_signs(path, fan, golden):
    """A format-1 file parses to the maps of a fresh build of its fan,
    each its entries times the sign its file states, and is written back
    as the format-2 golden: the fixtures kept from the earlier format
    and the benchmark's P^4 input, read in place, whose golden is the
    fresh build's text."""
    text = path.read_text()
    assert text.startswith("complex-format 1\n")
    # both signs occur, so a reader that ignores or inverts them fails
    stated = {
        line.partition(":")[2].strip()
        for line in text.splitlines()
        if line.startswith("sign ")
    }
    assert stated == {"+1", "-1"}
    M = complex_from_text(text)
    built = build_minimal(load_fan(fan))
    assert M.window == built.window
    assert _degrees(M) == _degrees(built)
    assert _entries(M) == _entries(built)
    written = complex_to_text(M)
    assert written.startswith("complex-format 2\n")
    want = golden.read_text() if golden else complex_to_text(built)
    assert written == want
    assert _entries(complex_from_text(written)) == _entries(M)


def test_serialization_rejects_missing_header():
    with pytest.raises(InputError, match="missing complex-format header"):
        complex_from_text("dim 2\n")
    text = (GOLDEN / "quadrant.complex").read_text()
    later = text.replace("complex-format 2", "complex-format 3", 1)
    with pytest.raises(InputError, match=(
        r"^unsupported header 'complex-format 3': read are "
        r"'complex-format 1' and 'complex-format 2'$"
    )):
        complex_from_text(later)


def test_serialization_rejects_generators_outside_window():
    """Moving the window of the golden quadrant complex above its
    generators in degree -2 names the first module line; no certificate
    would look at the degrees below the window."""
    text = (GOLDEN / "quadrant.complex").read_text()
    bad = text.replace("window -2 6", "window 0 6")
    with pytest.raises(InputError, match=r"^line 7: generator degree -2 "):
        complex_from_text(bad, validate=False)


def _ambient_callers(monkeypatch, capsys, *argv):
    """Run the CLI with machine records, which must exit 0, counting
    each DirectSumAmbient by (its constructor's caller, that caller's
    caller) and recording each apply_mult's (variable, degree): (callers,
    applied, the records)."""
    callers = Counter()
    applied = []
    init, apply_mult = DirectSumAmbient.__init__, DirectSumAmbient.apply_mult

    def counting_init(self, base_ring, parts):
        frames = sys._getframe(1), sys._getframe(2)
        callers[tuple(f.f_code.co_name for f in frames)] += 1
        init(self, base_ring, parts)

    def counting_apply(self, i, d, vec):
        applied.append((i, d))
        return apply_mult(self, i, d, vec)

    monkeypatch.setattr(DirectSumAmbient, "__init__", counting_init)
    monkeypatch.setattr(DirectSumAmbient, "apply_mult", counting_apply)
    code = main(["--format", "machine", *map(str, argv)])
    assert code == 0
    return callers, applied, capsys.readouterr().out


def test_verify_builds_no_ambient_and_cuts_no_sections(monkeypatch, capsys):
    """verify of a golden complex reads each cone through its two
    boundary blocks: it builds no DirectSumAmbient, calls no sections
    and multiplies by no variable."""
    cut = []
    real = complexes.sections
    monkeypatch.setattr(
        complexes, "sections", lambda *args: cut.append(args) or real(*args)
    )
    callers, applied, out = _ambient_callers(
        monkeypatch, capsys, "verify", "--complex", GOLDEN / "cubefan.complex"
    )
    assert "complex\t" in out
    assert not callers
    assert not cut
    assert not applied


@pytest.mark.parametrize(
    "path", [P4_COMPLEX, GOLDEN / "cubefan.complex"], ids=["p4", "cubefan"]
)
def test_certificates_need_no_sections_or_rings(monkeypatch, path):
    """check_complex and check_locally_exact pass with sections,
    DirectSumAmbient and cone_ring all raising: they read only the
    stored maps, through each cone's blocks."""
    M = complex_from_text(path.read_text(), validate=False)

    def refuse(*args):
        raise AssertionError("a certificate built a module of sections")

    monkeypatch.setattr(complexes, "sections", refuse)
    monkeypatch.setattr(complexes, "cone_ring", refuse)
    monkeypatch.setattr(modules, "cone_ring", refuse)
    monkeypatch.setattr(DirectSumAmbient, "__init__", refuse)
    assert check_complex(M) == []
    assert check_locally_exact(M) == []


@pytest.mark.parametrize(
    "argv, routes, record",
    [
        (
            ("ih", "--fan", fan_file("cubefan")),
            {"boundary_setup", "top_module"},
            "ih-oracle\t",
        ),
        (
            (
                "decompose", "--fan", fan_file("cubefan"),
                "--subdivision", fan_file("cubestar"),
            ),
            {"boundary_setup", "pushforward"},
            "decomposition\t",
        ),
    ],
    ids=["ih-cubefan", "decompose-cubestar-cubefan"],
)
def test_builders_build_ambients_only_in_sections(
    monkeypatch, capsys, argv, routes, record
):
    """ih and decompose: every DirectSumAmbient comes from sections,
    called for stalks (boundary_setup), direct images (pushforward) and
    the top module, which takes one."""
    callers, _, out = _ambient_callers(monkeypatch, capsys, *argv)
    assert record in out
    assert {caller for caller, _ in callers} == {"sections"}
    assert {route for _, route in callers} == routes
    assert callers[("sections", "top_module")] == ("top_module" in routes)
