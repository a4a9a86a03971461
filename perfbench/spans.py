"""Span tracer that wraps fansheaf's public functions from outside.

The program itself has no spans yet, so the traced run patches each
function listed in LAYERS for the life of one process: every module
binding of a function (``from ... import`` copies included), and methods
on their class.  Each call opens a span on a stack.  A span's inclusive
time is its duration; its self time is that minus the inclusive time of
the spans it opened.  The tracer's own bookkeeping (sizing matrices,
hashing them for repeat detection) is timed and subtracted from every
enclosing span, so it lands in no layer's time.

Times are integer nanoseconds from ``time.perf_counter_ns`` until
``metrics()`` converts them, so ``0 <= self <= inclusive`` holds exactly.
"""

import importlib
import sys
from fractions import Fraction
from time import perf_counter_ns

# (module under fansheaf, qualified name, quantities reported, matrix
# sized for cells/nnz/max_bits: argument 0, the result, or neither)
LAYERS = (
    ("_linalg", "rank", "self_s calls cells nnz max_bits repeat_s_frac", "arg"),
    ("_linalg", "nullspace", "self_s calls cells nnz max_bits", "arg"),
    ("_linalg", "solve", "self_s calls cells", "arg"),
    ("_linalg", "rref", "self_s calls", ""),
    ("_linalg", "Echelon.insert", "self_s calls useful_frac", ""),
    ("_linalg", "Echelon.reduce", "self_s", ""),
    ("modules", "DirectSumAmbient.apply_mult", "self_s calls", ""),
    ("modules", "DirectSumAmbient.mult_by_var", "self_s calls", ""),
    ("modules", "PolyMatrix.evaluate", "self_s calls cells", "result"),
    ("modules", "CoverMap.evaluate", "self_s calls", ""),
    ("modules", "minimal_generators", "self_s calls", ""),
    ("modules", "family_from_kernel", "self_s calls", ""),
    ("modules", "minimal_free_cover", "self_s", ""),
    ("complexes", "assemble", "self_s calls cells", "result"),
    ("complexes", "boundary_kernel", "incl_s calls", ""),
    ("complexes", "check_complex", "incl_s calls", ""),
    ("complexes", "check_locally_exact", "incl_s calls", ""),
    ("complexes", "cohomology_degreewise", "incl_s calls", ""),
    ("complexes", "complex_from_text", "incl_s", ""),
    ("fans", "parse_fan", "self_s calls", ""),
    ("fans", "Fan.from_cones", "self_s calls", ""),
    ("fans", "subdivision_map", "self_s calls", ""),
    ("minimal", "build_minimal", "incl_s", ""),
    ("minimal", "build_shifted_minimal", "incl_s calls", ""),
    ("minimal", "ih_module", "incl_s", ""),
    ("pushforward", "pushforward", "incl_s", ""),
    ("pushforward", "verify_pushforward", "incl_s", ""),
    ("decompose", "decomposition_multiplicities", "incl_s", ""),
    ("decompose", "peel_summand", "incl_s calls", ""),
    ("combinatorics", "predicted_ih_degrees", "incl_s", ""),
)

UNITS = {
    "self_s": "s",
    "incl_s": "s",
    "calls": "count",
    "cells": "count",
    "nnz": "count",
    "max_bits": "bits",
    "repeat_s_frac": "frac",
    "useful_frac": "frac",
}


def metric_name(module, qualname, quantity):
    """Metric names may not start with '_', so `_linalg` reads `linalg`."""
    return f"{module.lstrip('_')}.{qualname}.{quantity}"


def layer_metric_names():
    return [
        metric_name(mod, qual, q)
        for mod, qual, quantities, _ in LAYERS
        for q in quantities.split()
    ]


def _entry_bits(a):
    if isinstance(a, Fraction):
        return max(abs(a.numerator).bit_length(), a.denominator.bit_length())
    return abs(a).bit_length()


class Stats:
    __slots__ = (
        "calls", "self_ns", "incl_ns", "cells", "nnz",
        "max_bits", "repeat_ns", "true_calls", "seen",
    )

    def __init__(self):
        self.calls = self.self_ns = self.incl_ns = 0
        self.cells = self.nnz = self.max_bits = 0
        self.repeat_ns = self.true_calls = 0
        self.seen = set()


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []  # [child inclusive ns, overhead ns at entry]
        self.overhead_ns = 0
        self._patches = []

    def wrap(self, key, fn, quantities, sized):
        stats = self.stats.setdefault(key, Stats())
        size_args = sized == "arg"
        size_result = sized == "result"
        repeat = "repeat_s_frac" in quantities
        count_true = "useful_frac" in quantities
        stack = self.stack

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            digest = None
            if size_args and isinstance(args[0], (list, tuple)):
                rows = args[0]
                stats.cells += sum(len(r) for r in rows)
                stats.nnz += sum(1 for r in rows for a in r if a)
                stats.max_bits = max(
                    stats.max_bits,
                    max((_entry_bits(a) for r in rows for a in r), default=0),
                )
                if repeat:
                    digest = hash(tuple(tuple(r) for r in rows))
            frame = [0, self.overhead_ns]
            stack.append(frame)
            t1 = perf_counter_ns()
            self.overhead_ns += t1 - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter_ns()
                stack.pop()
                incl = t2 - t1 - (self.overhead_ns - frame[1])
                stats.calls += 1
                stats.self_ns += incl - frame[0]
                stats.incl_ns += incl
                if stack:
                    stack[-1][0] += incl
                if digest is not None:
                    if digest in stats.seen:
                        stats.repeat_ns += incl - frame[0]
                    else:
                        stats.seen.add(digest)
            if size_result:
                stats.cells += sum(len(r) for r in result)
            if count_true and result is True:
                stats.true_calls += 1
            self.overhead_ns += perf_counter_ns() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS):
        """Patch every binding of every listed function; undo with remove()."""
        for modname, _, _, _ in layers:
            importlib.import_module(f"fansheaf.{modname}")
        loaded = [
            m for name, m in sys.modules.items()
            if name == "fansheaf" or name.startswith("fansheaf.")
        ]
        for modname, qualname, quantities, sized in layers:
            home = sys.modules[f"fansheaf.{modname}"]
            quantities = quantities.split()
            key = (modname, qualname)
            if "." in qualname:
                clsname, attr = qualname.split(".")
                cls = getattr(home, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    fn = self.wrap(key, raw.__func__, quantities, sized)
                    new = classmethod(fn)
                else:
                    new = self.wrap(key, raw, quantities, sized)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(home, qualname)
            new = self.wrap(key, fn, quantities, sized)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, new)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self):
        """Per function: calls, self and inclusive seconds."""
        return {
            ".".join(key): {
                "calls": s.calls,
                "self_s": s.self_ns / 1e9,
                "incl_s": s.incl_ns / 1e9,
            }
            for key, s in self.stats.items()
        }

    def metrics(self, layers=LAYERS):
        out = {}
        for modname, qualname, quantities, _ in layers:
            s = self.stats.get((modname, qualname), Stats())
            values = {
                "self_s": s.self_ns / 1e9,
                "incl_s": s.incl_ns / 1e9,
                "calls": s.calls,
                "cells": s.cells,
                "nnz": s.nnz,
                "max_bits": s.max_bits,
                "repeat_s_frac": s.repeat_ns / s.self_ns if s.self_ns else 0.0,
                "useful_frac": s.true_calls / s.calls if s.calls else 0.0,
            }
            for q in quantities.split():
                out[metric_name(modname, qualname, q)] = {
                    "value": values[q],
                    "unit": UNITS[q],
                }
        return out
