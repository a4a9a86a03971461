"""End-to-end CLI runs through main(), checking reports and exit codes."""

import re
from pathlib import Path

import pytest

from fansheaf import cli
from fansheaf.cli import main
from fansheaf.errors import CertificateError

from conftest import RAY_IN_QUADRANT, SQUARE_DIAGONAL, fan_path

GOLDEN = Path(__file__).resolve().parent / "golden"
# a complex kept in the earlier format, which states a sign per map
FORMAT1_QUADRANT = GOLDEN.parent / "format1" / "quadrant.complex"
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


SHIFTED_STALKS = (
    "--format", "machine", "stalks", "--fan", str(fan_path("conesquare")),
    "--base", "9", "--shift", "1",
)


def test_shifted_stalks_match_oracle(capsys):
    """A based, shifted complex is certified at every cone, off its
    base's star too, where both sides are empty."""
    code, out = _run(capsys, *SHIFTED_STALKS)
    assert code == 0
    records = [r.split("\t") for r in out.splitlines()]
    assert len(records) == 10
    assert all(r[0] == "stalk" and r[4] == "match" for r in records)


def test_shifted_stalks_mismatch_exits_one(capsys, monkeypatch):
    """An oracle that puts the base generator 2 degrees too low flags
    that cone alone and fails the run."""
    predicted = cli.predicted_stalks

    def off_by_two(fan, base=0, shift=0):
        return {**predicted(fan, base, shift), 9: (-3,)}

    monkeypatch.setattr(cli, "predicted_stalks", off_by_two)
    code, out = _run(capsys, *SHIFTED_STALKS)
    assert code == 1
    certs = {r.split("\t")[1]: r.split("\t")[4] for r in out.splitlines()}
    assert certs["9"] == "mismatch"
    assert list(certs.values()).count("mismatch") == 1


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


def test_shifted_base_above_guard_zone_exits_three(capsys):
    """A base generator above the window's guard zone is window
    exhaustion at the base cone, not a build with its stalks cut off.
    p2's window is (-2, 6); shift -5 at ray 1 puts the generator at 4,
    the top degree below the guard zone, and shift -8 puts it at 7."""
    p2 = str(fan_path("p2"))
    code, out = _run(
        capsys, "--format", "machine", "minimal", "build", "--fan", p2,
        "--base", "1", "--shift", "-5",
    )
    assert code == 0
    stalks = [r.split("\t")[1] for r in out.splitlines() if "stalk" in r]
    assert stalks == ["1", "4", "5"]
    for argv, cone, degree in (
        (["minimal", "build", "--base", "1", "--shift", "-8"], 1, 7),
        (["stalks", "--base", "6", "--shift", "-20"], 6, 20),
    ):
        code, out = _run(capsys, "--format", "machine", *argv, "--fan", p2)
        assert code == 3
        (record,) = out.splitlines()
        obj, got_cone, got_degree, value, certificate = record.split("\t")
        assert (obj, got_cone, got_degree, certificate) == (
            "error", str(cone), str(degree), "window-exhausted"
        )
        assert value.endswith(f"raise --degree-max to at least {degree + 2}")


@pytest.mark.parametrize("command", ["pushforward", "decompose"])
def test_window_exhausted_at_target_cone(capsys, command):
    """Exhaustion while building the direct image names the target cone
    and the degree."""
    code, out = _run(
        capsys, "--format", "machine", command,
        "--fan", str(fan_path("quadrant")),
        "--subdivision", str(fan_path("blowquad")),
        "--degree-max", "0",
    )
    assert code == 3
    (record,) = out.splitlines()
    obj, cone, degree, value, certificate = record.split("\t")
    assert (obj, cone, degree, certificate) == (
        "error", "3", "0", "window-exhausted"
    )
    assert value.startswith("cone 3: new generator in guard zone at degree 0")


def test_verify_complex_without_window_exits_two(tmp_path, capsys):
    """A serialized complex must carry its window; the one record names
    no line, since the fault is a line that is absent."""
    text = (GOLDEN / "quadrant.complex").read_text()
    assert "window -2 6\n" in text
    path = tmp_path / "quadrant.cx"
    path.write_text(text.replace("window -2 6\n", ""))
    code, out = _run(
        capsys, "--format", "machine", "verify", "--complex", str(path)
    )
    assert code == 2
    assert out.splitlines() == [
        "error\t-\t-\tserialized complex has no window line\tinput-error"
    ]


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


def test_format1_complex_is_read_by_its_stated_signs(tmp_path, capsys):
    """A format-1 map is its entries times its sign line's value.  The
    quadrant fixture verifies as its format-2 golden does; with one sign
    flipped it is read as stated, and the composite through the flipped
    map is nonzero (exit 1), as for a corrupted entry."""
    text = FORMAT1_QUADRANT.read_text()
    want = _run(
        capsys, "--format", "machine", "verify", "--complex",
        str(GOLDEN / "quadrant.complex"),
    )
    assert want[0] == 0
    got = _run(
        capsys, "--format", "machine", "verify", "--complex",
        str(FORMAT1_QUADRANT),
    )
    assert got == want
    flipped = tmp_path / "quadrant.cx"
    assert "sign 3 2: -1" in text
    flipped.write_text(text.replace("sign 3 2: -1", "sign 3 2: +1"))
    code, out = _run(
        capsys, "--format", "machine", "verify", "--complex", str(flipped)
    )
    assert code == 1
    assert out.splitlines() == [
        "complex\t-\t-\t-\tfail",
        "problem\t-\t-\tcomposite differential 3 -> 0 is nonzero\t-",
    ]


@pytest.mark.parametrize(
    "old, new",
    [
        ("entry 3 1 0 0: 1\n", "entry 3 1 0 0: t1\n"),
        ("module 3: -2", "module 3: 0"),
    ],
)
def test_verify_wrongly_graded_complex_skips_later_certificates(
    tmp_path, capsys, old, new
):
    """A complex that fails the shape check is not evaluated further: the
    records are the failed shape certificate and its problems."""
    path = tmp_path / "quadrant.cx"
    text = (GOLDEN / "quadrant.complex").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, out = _run(
        capsys, "--format", "machine", "verify", "--complex", str(path)
    )
    assert code == 1
    head, *problems = out.splitlines()
    assert head == "complex\t-\t-\t-\tfail"
    assert problems
    assert all(r.startswith("problem\t") and "degree" in r for r in problems)


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
    "sign 3 2: 2": "sign of map 3->2 is neither +1 nor -1",
    "sign 3 2: -1\nentry 3 2 0 0: -1": "unrecognized line: 'sign 3 2: -1'",
    "entry 3 1 0 0: 1 + t1": "inhomogeneous polynomial",
    "entry 3 1 0 0: - - 1": "bad token '-'",
    "entry 3 1 0 0: 1 +": "bad token '+'",
    "entry 3 2 0 0: t1^": "bad token 't1^'",
    "window 4 -2": "window low end 4 above high end -2",
    "window -2 6 9": "a window line is 'window lo hi'",
    "dim 2 3": "a dim line is 'dim n'",
    "dim: 2": "a dim line is 'dim n'",
    "window: -2 6": "a window line is 'window lo hi'",
    "ray 0 9: 0 1": "a ray line is 'ray i: a1 ... an'",
    "module 0 9: -2": "a module line is 'module i: d1 ... dk'",
    "entry 3 1 0 0 7: 1": "an entry line is 'entry s t i j: p'",
    "module 0: -4": "generator degree -4 outside the window's generator "
    "range [-2, 4]",
    "module 3: -2 6": "generator degree 6 outside",
    "": "map 3->2 has entries but no sign line",
    "sign 2 1: +1\nsign 3 2: -1": "sign line for map 2->1 with no entries",
    "sign 3 1: +1\nsign 3 2: -1": "repeated sign line for map 3->1",
    "module 2: -2\nmodule 3: -2": "repeated module line for cone 2",
    "entry 3 1 0 0: 1\nentry 3 2 0 0: -1": "repeated entry (0,0) of map 3->1",
    "entry 3 1 0 0: 1\nentry 3 2 0 0: 1": "repeated entry (0,0) of map 3->1",
    "window -2 8\ndim 2": "repeated window line",
    "entry 1 2 0 0: 1\nentry 3 2 0 0: -1": "map 1->2: target is not a facet",
    "entry 1 2 0 0: 1\nsign 1 2: +1\nentry 3 2 0 0: 1": (
        "map 1->2: target is not a facet"
    ),
}


def _edit(old, new, source=None):
    """A case replacing old by new in the complex file at source, or,
    when source is None, in the format-2 text that `minimal build --out`
    writes for the quadrant; named by the edit alone."""
    return pytest.param(old, new, source, id=f"{old}-{new}")


@pytest.mark.parametrize(
    "old, new, source",
    [
        _edit("entry 1 0 0 0: 1", "entry 1 0 0 0: t9"),
        _edit("module 0: -2", "module 0: x"),
        _edit("entry 3 1 0 0: 1", "entry 3 1 5 0: 1"),
        _edit("ray 1: 1 0", "ray 1: 1 x"),
        _edit("entry 3 1 0 0: 1", "entry 3 1 0 0: 1 + t1"),
        # a polynomial is never read past a doubled or trailing sign or a
        # caret with no exponent
        _edit("entry 3 1 0 0: 1", "entry 3 1 0 0: - - 1"),
        _edit("entry 3 1 0 0: 1", "entry 3 1 0 0: 1 +"),
        _edit("entry 3 2 0 0: -1", "entry 3 2 0 0: t1^"),
        _edit("window -2 6", "window 4 -2"),
        _edit("window -2 6", "window -2 6 9"),
        _edit("dim 2", "dim 2 3"),
        # keyed lines: exactly the form's tokens before the colon
        _edit("dim 2", "dim: 2"),
        _edit("window -2 6", "window: -2 6"),
        _edit("ray 0: 0 1", "ray 0 9: 0 1"),
        _edit("module 0: -2", "module 0 9: -2"),
        _edit("entry 3 1 0 0: 1", "entry 3 1 0 0 7: 1"),
        # generators outside the window's range [lo, hi - 2]
        _edit("module 0: -2", "module 0: -4"),
        _edit("module 3: -2", "module 3: -2 6"),
        _edit("module 3: -2", "module 2: -2\nmodule 3: -2"),
        _edit("entry 3 2 0 0: -1", "entry 3 1 0 0: 1\nentry 3 2 0 0: -1"),
        _edit("dim 2", "window -2 8\ndim 2"),
        # a map whose target is not a facet is named by its first entry
        _edit("entry 3 2 0 0: -1", "entry 1 2 0 0: 1\nentry 3 2 0 0: -1"),
        # format 2 has no sign lines
        _edit("entry 3 2 0 0: -1", "sign 3 2: -1\nentry 3 2 0 0: -1"),
        # sign lines of a format-1 file
        _edit("sign 3 2: -1", "sign 3 9: -1", FORMAT1_QUADRANT),
        _edit("sign 3 2: -1", "sign 3 2: 2", FORMAT1_QUADRANT),
        # the entry line moves up to the deleted sign line's number
        _edit("sign 3 2: -1\n", "", FORMAT1_QUADRANT),
        _edit("sign 3 2: -1", "sign 2 1: +1\nsign 3 2: -1", FORMAT1_QUADRANT),
        _edit("sign 3 2: -1", "sign 3 1: +1\nsign 3 2: -1", FORMAT1_QUADRANT),
        # entry faults of a format-1 file, which has a sign line per map
        _edit(
            "entry 3 2 0 0: 1",
            "entry 1 2 0 0: 1\nsign 1 2: +1\nentry 3 2 0 0: 1",
            FORMAT1_QUADRANT,
        ),
        _edit("entry 3 2 0 0: 1", "entry 3 2 0 0: t1^", FORMAT1_QUADRANT),
        _edit(
            "entry 3 2 0 0: 1",
            "entry 3 1 0 0: 1\nentry 3 2 0 0: 1",
            FORMAT1_QUADRANT,
        ),
    ],
)
def test_verify_malformed_complex_exits_two(
    tmp_path, capsys, old, new, source
):
    out_file = tmp_path / "quadrant.cx"
    if source is None:
        _run(
            capsys,
            "minimal",
            "build",
            "--fan",
            str(fan_path("quadrant")),
            "--out",
            str(out_file),
        )
        source = out_file
    text = source.read_text()
    assert old in text
    out_file.write_text(text.replace(old, new))
    code, out = _run(
        capsys, "--format", "machine", "verify", "--fan", str(out_file)
    )
    assert code == 2
    lineno = text[: text.index(old)].count("\n") + 1
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


@pytest.mark.parametrize(
    "argv",
    [["fan", "check", "--fan"], ["verify", "--complex"]],
    ids=["fan-check", "verify"],
)
def test_non_utf8_input_exits_two(tmp_path, capsys, argv):
    """A file that is not UTF-8 text is bad input: exit 2 and one
    input-error record, no traceback."""
    path = tmp_path / "binary.fan"
    path.write_bytes(b"dim 2\nray 0: 1 0\n\xd0\x00\xff\n")
    code = main(["--format", "machine", *argv, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    (record,) = out.splitlines()
    assert record.startswith("error\t-\t-\t")
    assert record.endswith("\tinput-error")
    assert "Traceback" not in out + err


def test_ih_require_complete_refuses_incomplete_fan(capsys):
    """ih --require-complete refuses an incomplete fan with exit 2 before
    it builds anything, so a window the build would exhaust (conecube's
    cone 21, conesquare's cone 9) still gives the one input-error
    record; without the flag the quadrant's top module is reported with
    no prediction."""
    for name, window in [
        ("quadrant", ()),
        ("conecube", ("--degree-max", "-1")),
        ("conesquare", ("--degree-max", "0")),
    ]:
        code, out = _run(
            capsys, "--format", "machine",
            "ih", "--require-complete", "--fan", str(fan_path(name)), *window,
        )
        assert code == 2, name
        assert out.splitlines() == [
            "error\t-\t-\tfan is not complete\tinput-error"
        ], name
    quadrant = str(fan_path("quadrant"))
    code, out = _run(capsys, "--format", "machine", "ih", "--fan", quadrant)
    assert code == 0
    assert out.splitlines() == [
        "ih\t-\t2\t1\t-",
        "ih-oracle\t-\t-\tfan not complete, no prediction\t-",
    ]


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

    def failing_ih(M):
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
