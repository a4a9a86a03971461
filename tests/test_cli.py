"""End-to-end CLI runs through main(), checking reports and exit codes."""

import re
from pathlib import Path

import pytest

from fansheaf import cli
from fansheaf.cli import main
from fansheaf.errors import CertificateError

from conftest import RAY_IN_QUADRANT, SQUARE_DIAGONAL, fan_path

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_ih_reports_oracle_match(capsys):
    code, out = _run(capsys, "ih", "--fan", str(fan_path("p2")))
    assert code == 0
    assert "match" in out
    assert "-2,0,2" in out


def test_machine_format_is_five_tab_fields(capsys):
    code, out = _run(
        capsys, "--format", "machine", "ih", "--fan", str(fan_path("p2"))
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        assert len(line.split("\t")) == 5


def test_format_flag_after_subcommand(capsys):
    code, out = _run(
        capsys, "ih", "--fan", str(fan_path("p2")), "--format", "machine"
    )
    assert code == 0
    assert all(len(l.split("\t")) == 5 for l in out.strip().splitlines())


def test_fan_check_complete(capsys):
    code, out = _run(capsys, "fan", "check", "--fan", str(fan_path("p2")))
    assert code == 0
    assert "complete" in out and "yes" in out


def test_fan_check_overlap_exits_two(tmp_path, capsys):
    bad = tmp_path / "overlap.fan"
    bad.write_text(
        "dim 2\n"
        "ray 0: 1 0\n"
        "ray 1: 1 1\n"
        "ray 2: 0 1\n"
        "cone: 0 2\n"
        "cone: 1 2\n"
        "cone: 0 1\n"
    )
    code, out = _run(capsys, "fan", "check", "--fan", str(bad))
    assert code == 2
    assert "overlap" in out


@pytest.mark.parametrize(
    "text, defect",
    [
        (RAY_IN_QUADRANT, "overlap beyond their common face"),
        (SQUARE_DIAGONAL, "do not meet along a common face"),
    ],
)
def test_fan_check_maximal_cone_defects_exit_two(
    tmp_path, capsys, text, defect
):
    bad = tmp_path / "bad.fan"
    bad.write_text(text)
    code, out = _run(
        capsys, "--format", "machine", "fan", "check", "--fan", str(bad)
    )
    assert code == 2
    (record,) = out.strip().splitlines()
    kind, cone, degree, value, certificate = record.split("\t")
    assert (kind, certificate) == ("error", "input-error")
    assert defect in value


def test_build_serialize_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "quadrant.cx"
    code, _ = _run(
        capsys,
        "minimal",
        "build",
        "--fan",
        str(fan_path("quadrant")),
        "--out",
        str(out_file),
    )
    assert code == 0
    code, out = _run(capsys, "verify", "--fan", str(out_file))
    assert code == 0
    assert "pass" in out


def test_verify_flags_corrupted_complex(tmp_path, capsys):
    out_file = tmp_path / "quadrant.cx"
    _run(
        capsys,
        "minimal",
        "build",
        "--fan",
        str(fan_path("quadrant")),
        "--out",
        str(out_file),
    )
    text = out_file.read_text()
    broken = text.replace("entry 3 1 0 0: 1", "entry 3 1 0 0: 2")
    assert broken != text
    out_file.write_text(broken)
    code, out = _run(capsys, "verify", "--fan", str(out_file))
    assert code == 1
    assert "fail" in out


def test_stalks_oracle_matches(capsys):
    code, out = _run(capsys, "stalks", "--fan", str(fan_path("conesquare")))
    assert code == 0
    assert "mismatch" not in out
    assert out.count("match") == 10


def test_shifted_stalks_skip_oracle(capsys):
    code, out = _run(
        capsys,
        "stalks",
        "--fan",
        str(fan_path("conesquare")),
        "--base",
        "9",
        "--shift",
        "1",
    )
    assert code == 0
    assert "match" not in out


@pytest.mark.parametrize(
    "command, base",
    [(("minimal", "build"), "99"), (("stalks",), "-1")],
)
def test_base_outside_the_fan_exits_two(capsys, command, base):
    code, out = _run(
        capsys,
        "--format",
        "machine",
        *command,
        "--fan",
        str(fan_path("p2")),
        "--base",
        base,
    )
    assert code == 2
    (record,) = out.splitlines()
    assert record == (
        f"error\t-\t-\tno cone {base} to base the complex at\tinput-error"
    )


def test_pushforward_command(tmp_path, capsys):
    out_file = tmp_path / "image.cx"
    code, out = _run(
        capsys,
        "pushforward",
        "--fan",
        str(fan_path("quadrant")),
        "--subdivision",
        str(fan_path("blowquad")),
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "pass" in out
    code, _ = _run(capsys, "verify", "--fan", str(out_file))
    assert code == 0


def test_decompose_blowup(capsys):
    code, out = _run(
        capsys,
        "--format",
        "machine",
        "decompose",
        "--fan",
        str(fan_path("quadrant")),
        "--subdivision",
        str(fan_path("blowquad")),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "summand\t0\t0\t1\tpeeled" in lines
    assert "summand\t3\t0\t1\tpeeled" in lines
    assert any("complete" in line for line in lines)


def test_decompose_identity_subdivision(capsys):
    code, out = _run(
        capsys,
        "--format",
        "machine",
        "decompose",
        "--fan",
        str(fan_path("p2")),
        "--subdivision",
        str(fan_path("p2")),
    )
    assert code == 0
    rows = [l for l in out.strip().splitlines() if l.startswith("summand")]
    assert rows == ["summand\t0\t0\t1\tpeeled"]


def test_window_exhaustion_exits_three(capsys):
    code, out = _run(
        capsys,
        "minimal",
        "build",
        "--fan",
        str(fan_path("conesquare")),
        "--degree-max",
        "0",
    )
    assert code == 3
    assert "window-exhausted" in out
    assert "cone 9" in out


def test_window_exhausted_names_retry_degree(capsys):
    """The record names a --degree-max to retry with: the exhausted
    degree plus 2.  That is a lower bound, since the larger window can
    exhaust again higher up."""
    argv = ["--format", "machine", "ih", "--fan", str(fan_path("p3"))]
    for degree_max, degree in ((2, 1), (3, 3)):
        code, out = _run(capsys, *argv, "--degree-max", str(degree_max))
        assert code == 3
        (record,) = out.splitlines()
        assert record.split("\t")[2] == str(degree)
        assert record.endswith(
            f"raise --degree-max to at least {degree + 2}\twindow-exhausted"
        )
    code, out = _run(capsys, *argv, "--degree-max", "5")
    assert code == 0
    assert "window-exhausted" not in out


def test_window_exhausted_in_top_module_names_full_ring(capsys):
    """Exhaustion while covering the top cohomology over the full ring
    names that ring's key, A, as the cone."""
    code, out = _run(
        capsys, "--format", "machine", "ih", "--fan", str(fan_path("p3")),
        "--degree-max", "2",
    )
    assert code == 3
    (record,) = out.splitlines()
    obj, cone, degree, value, certificate = record.split("\t")
    assert (obj, cone, degree, certificate) == (
        "error", "A", "1", "window-exhausted"
    )
    assert value.startswith("cone A: new generator in guard zone")


def test_verify_complex_flag_and_fan_alias_agree(tmp_path, capsys):
    """verify reads the complex from --complex; --fan is an alias, with
    the same records and exit code, also on a failing complex."""
    corrupt = tmp_path / "quadrant.cx"
    text = (GOLDEN / "quadrant.complex").read_text()
    corrupt.write_text(text.replace("entry 3 1 0 0: 1", "entry 3 1 0 0: 2"))
    for path, want in ((GOLDEN / "quadrant.complex", 0), (corrupt, 1)):
        runs = [
            _run(capsys, "--format", "machine", "verify", flag, str(path))
            for flag in ("--complex", "--fan")
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == want


def test_degree_max_floor_enforced(capsys):
    code, out = _run(
        capsys,
        "minimal",
        "build",
        "--fan",
        str(fan_path("p2")),
        "--degree-max",
        "-1",
    )
    assert code == 2
    assert "input-error" in out


# what the record must say besides the line, where the fault is specific
MALFORMED_WHY = {
    "sign 3 9: -1": "sign line for unknown cone 9",
    "entry 3 1 0 0: 1 + t1": "inhomogeneous polynomial",
    "window 4 -2": "window low end 4 above high end -2",
}


@pytest.mark.parametrize(
    "old, new",
    [
        ("entry 1 0 0 0: 1", "entry 1 0 0 0: t9"),
        ("module 0: -2", "module 0: x"),
        ("entry 3 1 0 0: 1", "entry 3 1 5 0: 1"),
        ("ray 1: 1 0", "ray 1: 1 x"),
        ("sign 3 2: -1", "sign 3 9: -1"),
        ("entry 3 1 0 0: 1", "entry 3 1 0 0: 1 + t1"),
        ("window -2 6", "window 4 -2"),
    ],
)
def test_verify_malformed_complex_exits_two(tmp_path, capsys, old, new):
    out_file = tmp_path / "quadrant.cx"
    _run(
        capsys,
        "minimal",
        "build",
        "--fan",
        str(fan_path("quadrant")),
        "--out",
        str(out_file),
    )
    text = out_file.read_text()
    assert old in text
    out_file.write_text(text.replace(old, new))
    code, out = _run(
        capsys, "--format", "machine", "verify", "--fan", str(out_file)
    )
    assert code == 2
    lineno = text.splitlines().index(old) + 1
    (record,) = out.splitlines()
    assert record.startswith(f"error\t-\t-\tline {lineno}: ")
    assert record.endswith("\tinput-error")
    assert MALFORMED_WHY.get(new, "") in record


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("fan", "ray 0: 0 1", "rays 0: 0 1"),
        ("fan", "cone: 0 1", "cones: 0 1"),
        ("fan", "dim 2", "dimension 2"),
        ("fan", "cone: 0 1", "cone: 0 1\nmap: 0 -> 0"),
        ("complex", "module 3: -2", "modules 3: -2"),
    ],
)
def test_keywords_match_exactly(tmp_path, capsys, kind, old, new):
    """A keyword that merely starts with a known one is refused."""
    if kind == "fan":
        source, argv = fan_path("quadrant"), ["fan", "check"]
    else:
        source, argv = GOLDEN / "quadrant.complex", ["verify"]
    text = source.read_text()
    assert old in text
    path = tmp_path / "input"
    path.write_text(text.replace(old, new))
    code, out = _run(capsys, "--format", "machine", *argv, "--fan", str(path))
    assert code == 2
    (record,) = out.splitlines()
    assert record.startswith("error\t-\t-\t")
    assert "unrecognized line" in record
    assert record.endswith("\tinput-error")


def _readme_exit_codes():
    """{code: meaning} read from the README's "Exit codes: ..." sentence."""
    text = " ".join(README.read_text().split())
    sentence = re.search(r"Exit codes: (.*?)\. ", text).group(1)
    return {
        int(code): what.strip()
        for code, what in re.findall(r"(\d) ([^,(]+)", sentence)
    }


def test_exit_codes_match_readme(tmp_path, capsys, monkeypatch):
    """Drive every documented exit code through main(); each run has a
    record whose certificate fits the README's meaning of its code."""
    corrupt = tmp_path / "quadrant.cx"
    text = (GOLDEN / "quadrant.complex").read_text()
    corrupt.write_text(text.replace("entry 3 1 0 0: 1", "entry 3 1 0 0: 2"))
    p2 = str(fan_path("p2"))
    missing = tmp_path / "none.fan"
    exhausting = [
        "minimal", "build", "--fan", str(fan_path("conesquare")),
        "--degree-max", "0",
    ]
    # code -> runs of (argv, certificate of one of its records), and
    # words of the README's meaning of the code
    cases = {
        0: ([(["ih", "--fan", p2], "match")], "pass"),
        1: (
            [
                (["verify", "--fan", str(corrupt)], "fail"),
                (["ih", "--fan", p2], "certificate-failure"),
            ],
            "certificate failed",
        ),
        2: (
            [(["fan", "check", "--fan", str(missing)], "input-error")],
            "bad input",
        ),
        3: ([(exhausting, "window-exhausted")], "window exhausted"),
    }
    documented = _readme_exit_codes()
    assert sorted(documented) == sorted(cases)

    def failing_ih(M, require_complete=False):
        raise CertificateError("top cohomology not free")

    for code, (runs, meaning) in cases.items():
        assert meaning in documented[code]
        for argv, certificate in runs:
            if certificate == "certificate-failure":
                monkeypatch.setattr(cli, "ih_module", failing_ih)
            got, out = _run(capsys, "--format", "machine", *argv)
            monkeypatch.undo()
            assert got == code, argv
            assert certificate in [r.split("\t")[4] for r in out.splitlines()]
