"""End-to-end CLI runs through main(), checking reports and exit codes."""

from pathlib import Path

import pytest

from fansheaf.cli import main

from conftest import fan_path

GOLDEN = Path(__file__).resolve().parent / "golden"


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
MALFORMED_WHY = {"sign 3 9: -1": "sign line for unknown cone 9"}


@pytest.mark.parametrize(
    "old, new",
    [
        ("entry 1 0 0 0: 1", "entry 1 0 0 0: t9"),
        ("module 0: -2", "module 0: x"),
        ("entry 3 1 0 0: 1", "entry 3 1 5 0: 1"),
        ("ray 1: 1 0", "ray 1: 1 x"),
        ("sign 3 2: -1", "sign 3 9: -1"),
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
