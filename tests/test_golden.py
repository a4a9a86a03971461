"""CLI outputs compared byte for byte with committed golden files.

tests/golden/ih-<fan>.tsv holds the `ih --format machine` records of each
complete corpus fan and of two dimension-4 fans outside the corpus, P^4
and the face fan of the 4-cube, and tests/golden/<fan>.complex the
`minimal build --out` text of every corpus fan.  For the five corpus
subdivision pairs and three pairs whose subdivision also subdivides a
facet of a target cone (tests/cubeedge.fan, p3edge.fan and orth4e.fan),
push-<src>-<tgt>.tsv holds the `pushforward --format machine` records
(without the `serialized` line), push-<src>-<tgt>.out its `--out` text
and decompose-<src>-<tgt>.tsv the `decompose --format machine` records,
which also hold for cube4star -> cube4 (tests/cube4star.fan); cubestar ->
cubefan is compared with the benchmark's expected records, and so is
`verify` of the benchmark's P^4 complex, a format-1 file.
verify-<fan>.tsv holds the `verify --format machine` records of each
<fan>.complex followed by an `exit` line with the exit code.  A change
that alters a generator choice, a serialized entry or a report record
fails here.
"""

import random
from pathlib import Path

import pytest

from fansheaf.cli import main
from fansheaf.fans import load_fan

from conftest import FACET_SUBDIVISIONS, fan_file, fan_path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
PERFBENCH = TESTS.parent / "perfbench"
COMPLETE = ["p1", "p2", "p1xp1", "p3", "p2blow", "cubefan"]
# complete fans outside the corpus whose IH is pinned too
EXTRA_IH = ["p4", "cube4"]
PAIRS = [
    ("p2", "p2"),
    ("blowquad", "quadrant"),
    ("p2blow", "p2"),
    ("starsq", "conesquare"),
    ("twostep", "quadrant"),
    *FACET_SUBDIVISIONS,
]
# the smallest --degree-max at which each pair decomposes; one below it
# a summand's base generator reaches the guard zone (exit 3)
SMALLEST_WINDOW = {
    "p2": 2, "blowquad": 2, "p2blow": 2, "starsq": 3, "twostep": 2,
    "cubeedge": 1, "p3edge": 1, "orth4e": 0,
}
CORPUS = sorted(p.stem for p in GOLDEN.glob("*.complex"))
# the decompose records of a subdivision onto its target
DECOMPOSED = {
    src: (tgt, GOLDEN / f"decompose-{src}-{tgt}.tsv") for src, tgt in PAIRS
}
DECOMPOSED["cubestar"] = (
    "cubefan", PERFBENCH / "expected" / "decompose-cubestar.tsv"
)


def _decompose(src, tgt, *options):
    """Run `decompose --format machine` of the fan file src onto the fan
    named tgt; the exit code."""
    return main(
        [
            "--format",
            "machine",
            "decompose",
            "--fan",
            str(fan_file(tgt)),
            "--subdivision",
            str(src),
            *options,
        ]
    )


def test_golden_set_covers_corpus():
    fans = sorted(p.stem for p in fan_path("p1").parent.glob("*.fan"))
    assert CORPUS == fans
    ih_golden = sorted(p.stem[3:] for p in GOLDEN.glob("ih-*.tsv"))
    assert ih_golden == sorted(COMPLETE + EXTRA_IH)
    verify_golden = sorted(p.stem[7:] for p in GOLDEN.glob("verify-*.tsv"))
    assert verify_golden == CORPUS


@pytest.mark.parametrize("name", COMPLETE + EXTRA_IH)
def test_ih_records_match_golden(capsys, name):
    code = main(["--format", "machine", "ih", "--fan", str(fan_file(name))])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"ih-{name}.tsv").read_text()


@pytest.mark.parametrize("name", CORPUS)
def test_minimal_build_text_matches_golden(tmp_path, capsys, name):
    out = tmp_path / f"{name}.complex"
    code = main(
        ["minimal", "build", "--fan", str(fan_path(name)), "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    assert out.read_text() == (GOLDEN / f"{name}.complex").read_text()


@pytest.mark.parametrize("name", CORPUS)
def test_verify_records_match_golden(capsys, name):
    path = GOLDEN / f"{name}.complex"
    code = main(["--format", "machine", "verify", "--complex", str(path)])
    got = capsys.readouterr().out + f"exit\t{code}\n"
    assert got == (GOLDEN / f"verify-{name}.tsv").read_text()


@pytest.mark.parametrize("src,tgt", PAIRS)
def test_pushforward_matches_golden(tmp_path, capsys, src, tgt):
    out = tmp_path / "image.complex"
    code = main(
        [
            "--format",
            "machine",
            "pushforward",
            "--fan",
            str(fan_file(tgt)),
            "--subdivision",
            str(fan_file(src)),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = (GOLDEN / f"push-{src}-{tgt}.tsv").read_text()
    assert capsys.readouterr().out == records + f"serialized\t-\t-\t{out}\t-\n"
    assert out.read_text() == (GOLDEN / f"push-{src}-{tgt}.out").read_text()


@pytest.mark.parametrize("src,tgt", PAIRS + [("cube4star", "cube4")])
def test_decompose_records_match_golden(capsys, src, tgt):
    """The records on the default window and, for the corpus pairs, again
    on the smallest one, where the summands' lifts reach the guard zone."""
    golden = (GOLDEN / f"decompose-{src}-{tgt}.tsv").read_text()
    windows = [[]]
    if src in SMALLEST_WINDOW:
        windows.append(["--degree-max", str(SMALLEST_WINDOW[src])])
    for options in windows:
        assert _decompose(fan_file(src), tgt, *options) == 0, options
        assert capsys.readouterr().out == golden, options


def test_decompose_cubestar_matches_benchmark_records(capsys):
    """The richest decomposition in the repo: the star subdivision of
    the cube fan splits into 13 summands, shifts -1 and 1 at each of the
    six maximal cones.  The expected records are the benchmark's own."""
    tgt, expected = DECOMPOSED["cubestar"]
    assert _decompose(fan_file("cubestar"), tgt) == 0
    assert capsys.readouterr().out == expected.read_text()


@pytest.mark.parametrize("flag", ["--fan", "--complex"])
def test_verify_p4_matches_benchmark_records(capsys, flag):
    """verify of the benchmark's committed P^4 complex, a format-1 file
    read by its stated signs, gives exactly the benchmark's expected
    records, through either flag."""
    path = PERFBENCH / "inputs" / "p4.complex"
    assert main(["--format", "machine", "verify", flag, str(path)]) == 0
    expected = PERFBENCH / "expected" / "verify-p4.tsv"
    assert capsys.readouterr().out == expected.read_text()


def _relabelled(fan, rng):
    """The fan's file text with its rays relabelled and its cone lines,
    and the rays within each, shuffled."""
    label = list(range(len(fan.rays)))
    rng.shuffle(label)
    rays = [None] * len(fan.rays)
    for old, new in enumerate(label):
        rays[new] = fan.rays[old]
    cones = [
        [label[r] for r in fan.cones[i].rays]
        for i in fan.maximal_cone_ids()
        if i
    ]
    rng.shuffle(cones)
    lines = [f"dim {fan.n}"]
    lines += [f"ray {i}: " + " ".join(map(str, v)) for i, v in enumerate(rays)]
    for c in cones:
        rng.shuffle(c)
        lines.append("cone: " + " ".join(map(str, c)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", CORPUS + ["cubestar"])
def test_ray_and_cone_order_is_immaterial(tmp_path, capsys, name):
    """Relabelled rays and shuffled cones give the same canonical fan
    and, for a complete fan, the same ih records; a subdivision gives the
    same decompose records onto its target."""
    fan = load_fan(fan_file(name))
    path = tmp_path / f"{name}.fan"
    path.write_text(_relabelled(fan, random.Random(name)))
    assert load_fan(path).to_text() == fan.to_text()
    if name in COMPLETE:
        code = main(["--format", "machine", "ih", "--fan", str(path)])
        assert code == 0
        golden = (GOLDEN / f"ih-{name}.tsv").read_text()
        assert capsys.readouterr().out == golden
    if name in DECOMPOSED:
        tgt, golden = DECOMPOSED[name]
        assert _decompose(path, tgt) == 0
        assert capsys.readouterr().out == golden.read_text()
