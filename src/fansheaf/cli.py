"""Command line interface: parse, build, verify, report.

Each command collects records with fields (object, cone, degree, value,
certificate) and prints them once at the end of the run, as an aligned
table by default or one tab-separated record per line with --format
machine.  Serialized complexes go to --out; reports go to stdout.

Exit codes: 0 all certificates pass, 1 a certificate failed, 2 invalid
input, 3 a computation ran out of degree window (the report names the
cone and degree at fault, and a --degree-max of at least that degree
plus 2 to retry with).
"""

import argparse
from collections import Counter
from pathlib import Path

from fansheaf.combinatorics import predicted_ih_degrees, predicted_stalks
from fansheaf.complexes import (
    check_complex,
    check_locally_exact,
    cohomology_degreewise,
    complex_from_text,
    complex_to_text,
)
from fansheaf.decompose import decomposition_theorem_report
from fansheaf.errors import CertificateError, InputError, WindowExhausted
from fansheaf.fans import is_complete, load_fan, subdivision_map
from fansheaf.minimal import (
    build_minimal,
    build_shifted_minimal,
    ih_module,
    stalk_report,
    verify_minimality,
)
from fansheaf.pushforward import pushforward, verify_pushforward


class Report:
    """Record accumulator, rendered once at the end of the run."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.rows = []

    def add(self, obj, cone="-", degree="-", value="-", certificate="-"):
        self.rows.append(
            tuple(str(x) for x in (obj, cone, degree, value, certificate))
        )

    def render(self):
        if self.fmt == "machine":
            return "\n".join("\t".join(r) for r in self.rows)
        head = ("object", "cone", "degree", "value", "certificate")
        rows = [head] + self.rows
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        return "\n".join(
            "  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip()
            for r in rows
        )


def _window(args, fan):
    if args.degree_max is None:
        return None
    lo = -fan.n
    if args.degree_max < lo + 2:
        raise InputError(
            f"--degree-max {args.degree_max} below minimum {lo + 2}"
        )
    return (lo, args.degree_max)


def _degs(degs):
    return ",".join(str(d) for d in degs) if degs else "-"


def _add_certificate(rep, obj, problems):
    """Add a certificate's pass/fail record for obj and a problem record
    per message in problems; returns the exit code, 1 on a problem."""
    rep.add(obj, certificate="fail" if problems else "pass")
    for p in problems:
        rep.add("problem", value=p)
    return 1 if problems else 0


def _build(args, fan):
    window = _window(args, fan)
    return build_shifted_minimal(fan, args.base, args.shift, window=window)


def _cmd_fan_check(args, rep):
    fan = load_fan(args.fan)
    rep.add("fan", value=f"n={fan.n}", certificate="valid")
    for d in range(fan.n + 1):
        ids = fan.cones_of_dim(d)
        if ids:
            rep.add("cones", degree=d, value=len(ids))
    rep.add("complete", value="yes" if is_complete(fan) else "no")
    return 0


def _cmd_minimal_build(args, rep):
    fan = load_fan(args.fan)
    M = _build(args, fan)
    for i, degs in sorted(stalk_report(M).items()):
        rep.add("stalk", cone=i, value=_degs(degs))
    problems = verify_minimality(M, base_id=args.base, shift=args.shift)
    code = _add_certificate(rep, "minimal", problems)
    if args.out:
        Path(args.out).write_text(complex_to_text(M))
        rep.add("serialized", value=args.out)
    return code


def _cmd_stalks(args, rep):
    fan = load_fan(args.fan)
    M = _build(args, fan)
    stalks = stalk_report(M)
    predicted = predicted_stalks(fan, args.base, args.shift)
    ok = True
    for c in fan.cones:
        i = c.index
        have = stalks.get(i, ())
        cert = "match" if have == predicted.get(i, ()) else "mismatch"
        ok = ok and cert == "match"
        rep.add("stalk", cone=i, value=_degs(have), certificate=cert)
    return 0 if ok else 1


def _cmd_ih(args, rep):
    fan = load_fan(args.fan)
    window = _window(args, fan)
    complete = is_complete(fan)
    if args.require_complete and not complete:
        raise InputError("fan is not complete")
    degrees = ih_module(build_minimal(fan, window=window))
    for d, count in sorted(Counter(degrees).items()):
        rep.add("ih", degree=d, value=count)
    if not complete:
        rep.add("ih-oracle", value="fan not complete, no prediction")
        return 0
    pred = predicted_ih_degrees(fan)
    cert = "match" if pred == degrees else "mismatch"
    rep.add("ih-oracle", value=_degs(pred), certificate=cert)
    return 0 if cert == "match" else 1


def _cmd_pushforward(args, rep):
    tgt = load_fan(args.fan)
    src = load_fan(args.subdivision)
    fmap = subdivision_map(src, tgt)
    M = build_minimal(src, window=_window(args, src))
    N = pushforward(fmap, M)
    for i, degs in sorted(stalk_report(N).items()):
        rep.add("module", cone=i, value=_degs(degs))
    code = _add_certificate(rep, "pushforward", verify_pushforward(M, N))
    if args.out:
        Path(args.out).write_text(complex_to_text(N))
        rep.add("serialized", value=args.out)
    return code


def _cmd_decompose(args, rep):
    tgt = load_fan(args.fan)
    src = load_fan(args.subdivision)
    fmap = subdivision_map(src, tgt)
    mult = decomposition_theorem_report(fmap, window=_window(args, src))
    for (b, k), m in sorted(mult.items()):
        rep.add("summand", cone=b, degree=k, value=m, certificate="peeled")
    rep.add(
        "decomposition",
        value=f"{sum(mult.values())} summands",
        certificate="complete",
    )
    return 0


def _cmd_verify(args, rep):
    M = complex_from_text(Path(args.complex).read_text(), validate=False)
    # each certificate runs only on a complex that passed the ones before
    if _add_certificate(rep, "complex", check_complex(M)):
        return 1
    failures = check_locally_exact(M)
    rep.add("local-exactness", certificate="fail" if failures else "pass")
    for i, d, why in failures:
        rep.add("problem", cone=i, degree=d, value=why)
    if failures:
        return 1
    table = cohomology_degreewise(M)
    for (p, d), dim in sorted(table.items()):
        rep.add(f"h[{p}]", degree=d, value=dim)
    return 0


def _add_format(parser, leaf=True):
    # SUPPRESS on leaves so a subcommand default never shadows the
    # top-level value; the flag works before or after the subcommand
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default=argparse.SUPPRESS if leaf else "human",
        help="report style: aligned table or tab-separated records",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fansheaf",
        description="minimal complexes on fans: build, push, decompose, verify",
    )
    _add_format(parser, leaf=False)
    sub = parser.add_subparsers(dest="command", required=True)

    fan = sub.add_parser("fan", help="fan file operations")
    fan_sub = fan.add_subparsers(dest="subcommand", required=True)
    check = fan_sub.add_parser("check", help="validate a fan file")
    check.add_argument("--fan", required=True)
    check.set_defaults(func=_cmd_fan_check)
    _add_format(check)

    minimal = sub.add_parser("minimal", help="minimal complex operations")
    minimal_sub = minimal.add_subparsers(dest="subcommand", required=True)
    build = minimal_sub.add_parser(
        "build", help="build, certify, and optionally serialize"
    )
    build.add_argument("--fan", required=True)
    build.add_argument("--base", type=int, default=0, help="base cone id")
    build.add_argument("--shift", type=int, default=0)
    build.add_argument("--degree-max", type=int, default=None)
    build.add_argument("--out", default=None)
    build.set_defaults(func=_cmd_minimal_build)
    _add_format(build)

    stalks = sub.add_parser(
        "stalks", help="stalk degrees with lattice-oracle comparison"
    )
    stalks.add_argument("--fan", required=True)
    stalks.add_argument("--base", type=int, default=0)
    stalks.add_argument("--shift", type=int, default=0)
    stalks.add_argument("--degree-max", type=int, default=None)
    stalks.set_defaults(func=_cmd_stalks)
    _add_format(stalks)

    ih = sub.add_parser(
        "ih", help="top cohomology generators with oracle comparison"
    )
    ih.add_argument("--fan", required=True)
    ih.add_argument("--require-complete", action="store_true")
    ih.add_argument("--degree-max", type=int, default=None)
    ih.set_defaults(func=_cmd_ih)
    _add_format(ih)

    push = sub.add_parser(
        "pushforward", help="direct image along a subdivision"
    )
    push.add_argument("--fan", required=True, help="target fan file")
    push.add_argument(
        "--subdivision", required=True, help="subdividing fan file"
    )
    push.add_argument("--degree-max", type=int, default=None)
    push.add_argument("--out", default=None)
    push.set_defaults(func=_cmd_pushforward)
    _add_format(push)

    dec = sub.add_parser(
        "decompose", help="decompose a direct image into shifted summands"
    )
    dec.add_argument("--fan", required=True, help="target fan file")
    dec.add_argument(
        "--subdivision", required=True, help="subdividing fan file"
    )
    dec.add_argument("--degree-max", type=int, default=None)
    dec.set_defaults(func=_cmd_decompose)
    _add_format(dec)

    verify = sub.add_parser(
        "verify", help="certificate suite on a serialized complex"
    )
    verify.add_argument(
        "--complex",
        "--fan",
        dest="complex",
        required=True,
        help="serialized complex file (--fan is an alias)",
    )
    verify.set_defaults(func=_cmd_verify)
    _add_format(verify)

    return parser


# Exit code and error-record certificate of each failure the commands
# raise; classes are tried in this order.
FAILURES = {
    WindowExhausted: (3, "window-exhausted"),
    InputError: (2, "input-error"),
    OSError: (2, "input-error"),
    UnicodeDecodeError: (2, "input-error"),
    CertificateError: (1, "certificate-failure"),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    rep = Report(args.format)
    try:
        code = args.func(args, rep)
    except tuple(FAILURES) as exc:
        code, label = next(
            FAILURES[cls] for cls in FAILURES if isinstance(exc, cls)
        )
        cone = getattr(exc, "cone", None)
        degree = getattr(exc, "degree", None)
        value = str(exc)
        if isinstance(exc, WindowExhausted):
            # a lower bound: the larger window may exhaust higher up
            value += f"; raise --degree-max to at least {degree + 2}"
        rep.add(
            "error",
            cone="-" if cone is None else cone,
            degree="-" if degree is None else degree,
            value=value,
            certificate=label,
        )
    print(rep.render())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
