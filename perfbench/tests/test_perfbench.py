"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# a decompose job of about a second that reaches most traced layers
SMALL = run.Workload(
    argv=(
        "decompose",
        "--fan",
        "data/fans/conesquare.fan",
        "--subdivision",
        "data/fans/starsq.fan",
    ),
    setup=(),
    why="",
    moves=(),
)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_valid():
    s = spec()
    metrics = s["end_to_end"] + s["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in s["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
    assert [m["name"] for m in s["per_layer"]] == (
        spans.layer_metric_names() + ["trace.overhead_frac"]
    )


def test_workloads_match_benchmark_json():
    s = spec()
    assert {w["name"]: w["why"] for w in s["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    for w in s["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_output_check_rejects_a_changed_record(name):
    good = run.expected_output(name)
    assert run.output_ok(name, run.Job(0, good, b"", 1.0, 1.0))
    assert not run.output_ok(name, run.Job(1, good, b"", 1.0, 1.0))
    lines = good.splitlines(keepends=True)
    for i, line in enumerate(lines):
        obj, cone, degree, value, cert = line.split(b"\t")
        changed = b"\t".join((obj, cone, degree, value + b"0", cert))
        bad = b"".join(lines[:i] + [changed] + lines[i + 1:])
        assert not run.output_ok(name, run.Job(0, bad, b"", 1.0, 1.0))
        dropped = b"".join(lines[:i] + lines[i + 1:])
        assert not run.output_ok(name, run.Job(0, dropped, b"", 1.0, 1.0))


@pytest.fixture(scope="module")
def small_jobs():
    return run.run_job(SMALL), run.run_job(SMALL, traced=True)


def test_traced_output_is_byte_identical(small_jobs):
    plain, traced = small_jobs
    assert plain.code == 0 and traced.code == 0
    assert b"summand" in plain.stdout
    assert traced.stdout == plain.stdout


def test_no_self_time_exceeds_inclusive_time(small_jobs):
    trace = json.loads(small_jobs[1].stderr.splitlines()[-1])
    assert set(trace["metrics"]) == set(spans.layer_metric_names())
    called = {k: v for k, v in trace["spans"].items() if v["calls"]}
    assert len(called) > 20
    for name, s in called.items():
        assert 0 <= s["self_s"] <= s["incl_s"], name


def test_tracer_patches_every_binding():
    from fansheaf import cli, complexes, decompose, fans, minimal
    from fansheaf.fans import load_fan

    before = complexes.check_complex
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert complexes.check_complex is not before
        assert cli.check_complex is complexes.check_complex
        assert cli.build_minimal is minimal.build_minimal
        assert decompose.build_shifted_minimal is (
            minimal.build_shifted_minimal
        )
        fan = load_fan(ROOT / "data" / "fans" / "p2.fan")
        cli.build_minimal(fan)
    finally:
        tracer.remove()
    assert cli.check_complex is complexes.check_complex is before
    assert "__wrapped__" not in vars(fans.Fan.from_cones.__func__)
    got = tracer.spans()
    assert got["fans.parse_fan"]["calls"] == 1
    assert got["fans.Fan.from_cones"]["calls"] == 1
    assert got["minimal.build_minimal"]["calls"] == 1
    assert got["_linalg.nullspace"]["calls"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-p4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
