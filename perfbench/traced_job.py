"""One traced CLI job: python3 perfbench/traced_job.py <fansheaf arguments>.

Runs ``fansheaf.cli.main`` with the functions of spans.LAYERS wrapped.
The CLI's own output goes to stdout unchanged; the trace goes to stderr
as one JSON line, the last one written.  The exit code is the CLI's.
"""

import json
import sys

from spans import Tracer

from fansheaf import _linalg, cli


def main(argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.remove()
    sys.stdout.flush()
    trace = {
        "metrics": tracer.metrics(),
        "spans": tracer.spans(),
        "kernel": _linalg.KERNEL,
    }
    print(json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
