"""Time set-up in a fresh process: importing fansheaf and parsing inputs.

python3 perfbench/setup_probe.py fan FAN
python3 perfbench/setup_probe.py complex COMPLEX
python3 perfbench/setup_probe.py subdivision TARGET_FAN SOURCE_FAN

Prints one JSON line: the seconds taken, and which linear-algebra kernel
the import selected.  The parsing mirrors what the CLI command does with
the same inputs before it computes anything.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import fansheaf.cli  # noqa: E402, F401
from fansheaf import _linalg  # noqa: E402
from fansheaf.complexes import complex_from_text  # noqa: E402
from fansheaf.fans import load_fan, subdivision_map  # noqa: E402


def parse(kind, paths):
    if kind == "fan":
        return load_fan(paths[0])
    if kind == "complex":
        return complex_from_text(Path(paths[0]).read_text(), validate=False)
    if kind == "subdivision":
        return subdivision_map(load_fan(paths[1]), load_fan(paths[0]))
    raise SystemExit(f"unknown input kind {kind!r}")


if __name__ == "__main__":
    parse(sys.argv[1], sys.argv[2:])
    seconds = time.perf_counter() - START
    print(json.dumps({"setup_s": seconds, "kernel": _linalg.KERNEL}))
