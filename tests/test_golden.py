"""CLI outputs compared byte for byte with committed golden files.

tests/golden/ih-<fan>.tsv holds the `ih --format machine` records of each
complete corpus fan, and tests/golden/<fan>.complex the `minimal build
--out` text of every corpus fan.  A change that alters a generator
choice, a serialized entry or a report record fails here.
"""

from pathlib import Path

import pytest

from fansheaf.cli import main

from conftest import fan_path

GOLDEN = Path(__file__).resolve().parent / "golden"
COMPLETE = ["p1", "p2", "p1xp1", "p3", "p2blow", "cubefan"]
CORPUS = sorted(p.stem for p in GOLDEN.glob("*.complex"))


def test_golden_set_covers_corpus():
    fans = sorted(p.stem for p in fan_path("p1").parent.glob("*.fan"))
    assert CORPUS == fans
    assert sorted(p.stem[3:] for p in GOLDEN.glob("ih-*.tsv")) == sorted(COMPLETE)


@pytest.mark.parametrize("name", COMPLETE)
def test_ih_records_match_golden(capsys, name):
    code = main(["--format", "machine", "ih", "--fan", str(fan_path(name))])
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
