"""Benchmark of three fansheaf CLI pipelines, run the way a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Each job is one `fansheaf` command in a fresh Python process, and its
exit code and `--format machine` output are checked against
perfbench/expected/<workload>.tsv.  --trace 0 reports end-to-end
medians over about S seconds of jobs; --trace 1 reports per-layer
metrics from one job traced by traced_job.py.  perfbench/README.md
describes the metrics.  The last line of stdout is the result as JSON;
the line before it records the environment and the workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The host's CPU speed drifts for seconds at a time, so set-up samples
# are spread over the run instead of taken in one burst.
SETUP_SAMPLES = 3
CLI_MAIN = "import sys; from fansheaf.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    argv: tuple  # fansheaf command line, paths relative to the checkout
    setup: tuple  # setup_probe.py arguments: the inputs the command parses
    why: str
    moves: tuple  # "layer metric -> end-to-end metric it should move here"


WORKLOADS = {
    "ih-cubefan": Workload(
        argv=("ih", "--fan", "data/fans/cubefan.fan"),
        setup=("fan", "data/fans/cubefan.fan"),
        why="IH of the non-simplicial cube fan: apply_mult takes about "
        "two thirds of the time and rank about 6%, so a matrix-evaluation "
        "change shows here and a rank change does not.",
        moves=(
            "modules.DirectSumAmbient.apply_mult.self_s -> wall_s",
            "modules.DirectSumAmbient.mult_by_var.self_s -> wall_s",
            "linalg.Echelon.reduce.self_s -> wall_s",
            "linalg.Echelon.insert.useful_frac: share of inserts that grew "
            "the basis",
            "linalg.rank.self_s -> no measurable change in wall_s",
            "fans.Fan.from_cones.self_s -> setup_s",
        ),
    ),
    "verify-p4": Workload(
        argv=("verify", "--fan", "perfbench/inputs/p4.complex"),
        setup=("complex", "perfbench/inputs/p4.complex"),
        why="Certificates only, on the committed minimal complex of P^4: "
        "rank on sparse matrices up to 280x420 is most of the time and "
        "apply_mult is never called.",
        moves=(
            "linalg.rank.self_s -> wall_s",
            "linalg.rank.repeat_s_frac: rank time spent on matrices "
            "already ranked in the run",
            "linalg.rank.nnz / linalg.rank.cells: density a sparse "
            "kernel exploits",
            "modules.DirectSumAmbient.apply_mult.calls stays 0: a "
            "matrix-evaluation change must read as no change in wall_s",
            "complexes.check_complex/check_locally_exact/"
            "cohomology_degreewise.calls: a drop means a certificate "
            "stopped running, not a speed-up",
            "complexes.complex_from_text.incl_s -> setup_s",
        ),
    ),
    "decompose-cubestar": Workload(
        argv=(
            "decompose",
            "--fan",
            "data/fans/cubefan.fan",
            "--subdivision",
            "perfbench/inputs/cubestar.fan",
        ),
        setup=(
            "subdivision",
            "data/fans/cubefan.fan",
            "perfbench/inputs/cubestar.fan",
        ),
        why="Every stage from fan geometry to peel_summand; many tiny "
        "solves beside a few big ranks, so a kernel that adds per-call "
        "overhead shows here.",
        moves=(
            "linalg.rank.self_s -> wall_s",
            "linalg.solve.self_s / linalg.solve.calls -> wall_s",
            "modules.PolyMatrix.evaluate.self_s -> wall_s",
            "modules.CoverMap.evaluate.self_s -> wall_s",
            "complexes.assemble.self_s -> wall_s",
            "decompose.peel_summand.calls: one per peeled summand (13)",
            "fans.parse_fan/Fan.from_cones/subdivision_map.self_s "
            "-> setup_s",
        ),
    ),
}


@dataclass
class Job:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def spawn(args):
    """Run `python3 args` in the checkout; time it from start to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    with proc.stdout, proc.stderr, ThreadPoolExecutor(1) as pool:
        err = pool.submit(proc.stderr.read)
        out = proc.stdout.read()
        err = err.result()
    # wait4 rather than proc.wait(), to get this child's own peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(proc.returncode, out, err, wall, usage.ru_maxrss / 1024)


def run_job(workload, traced=False):
    script = [str(BENCH / "traced_job.py")] if traced else ["-c", CLI_MAIN]
    return spawn([*script, *workload.argv, "--format", "machine"])


def expected_output(name):
    return (BENCH / "expected" / f"{name}.tsv").read_bytes()


def output_ok(name, job):
    """Exit code 0 and exactly the expected records."""
    return job.code == 0 and job.stdout == expected_output(name)


def setup_sample(workload):
    job = spawn([str(BENCH / "setup_probe.py"), *workload.setup])
    if job.code != 0:
        sys.stderr.write(job.stderr.decode(errors="replace"))
        raise SystemExit(f"set-up probe failed with exit code {job.code}")
    return json.loads(job.stdout)


def timed_run(name, workload, seconds):
    deadline = time.perf_counter() + seconds
    # the first probe may write bytecode caches; users pay that once
    setup_sample(workload)
    probes = []
    jobs = []
    while True:
        probes += [setup_sample(workload) for _ in range(SETUP_SAMPLES)]
        jobs.append(run_job(workload))
        walls = [j.wall_s for j in jobs]
        # start another job if it should end by the deadline, give or take
        # half a job, so a run measures S seconds of jobs on average
        if time.perf_counter() + statistics.median(walls) / 2 > deadline:
            break
    probes += [setup_sample(workload) for _ in range(SETUP_SAMPLES)]
    failed = sum(not output_ok(name, j) for j in jobs)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (
            statistics.median(j.peak_rss_mb for j in jobs),
            "MiB",
        ),
        "ok_frac": ((len(jobs) - failed) / len(jobs), "frac"),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, probes[0]["kernel"]


def traced_run(name, workload):
    plain = run_job(workload)
    traced = run_job(workload, traced=True)
    try:
        trace = json.loads(traced.stderr.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(traced.stderr.decode(errors="replace"))
        raise SystemExit("traced job wrote no trace")
    failed = (not output_ok(name, plain)) + (
        not output_ok(name, traced) or traced.stdout != plain.stdout
    )
    metrics = trace["metrics"]
    metrics["trace.overhead_frac"] = {
        "value": traced.wall_s / plain.wall_s - 1,
        "unit": "frac",
    }
    result = {
        "correct": failed == 0,
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
    }
    return result, trace["kernel"]


def commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            # never report the commit of a repository enclosing the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def missing_files(workload):
    need = [ROOT / "src" / "fansheaf" / "cli.py"]
    need += [ROOT / a for a in workload.argv if a.endswith((".fan", ".complex"))]
    return [str(p) for p in need if not p.is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = missing_files(workload)
    if missing:
        print("not a fansheaf checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    if args.trace:
        result, kernel = traced_run(args.workload, workload)
    else:
        result, kernel = timed_run(args.workload, workload, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workload.why,
        "moves": workload.moves,
        "env": {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "kernel": kernel,
        },
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
