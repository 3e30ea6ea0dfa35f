"""Per-layer tracing from outside the program.

Installing a :class:`Tracer` replaces each listed public function of
qwmetric by a wrapper that records a span (function, job, parent span,
start, end) and counts the call.  The wrapper is put in the defining
module, in every qwmetric module that imported the function by name, and on
the class for methods, so calls between modules are seen too.  Nothing is
wrapped unless tracing is asked for.  Spans stay in memory and are written
out once, at the end of the round.

A function's self time is the duration of its spans minus the time of the
wrapped calls nested directly inside them.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, public function or Class.method) for each layer of qwmetric
TARGETS = [
    ("numerics", "op_norm"),
    ("numerics", "hermitian_eig"),
    ("numerics", "spectral_projection"),
    ("numerics", "range_projection"),
    ("opspace", "span"),
    ("opspace", "sum_spaces"),
    ("opspace", "product_span"),
    ("opspace", "intersect"),
    ("opspace", "complement"),
    ("opspace", "commutant"),
    ("opspace", "null_space_rows"),
    ("opspace", "OperatorSubspace.contains"),
    ("filtration", "from_classical"),
    ("filtration", "to_classical"),
    ("filtration", "validate"),
    ("filtration", "descriptors"),
    ("filtration", "StepFiltration.displacement_gauge"),
    ("geometry", "rho"),
    ("geometry", "separating_projections"),
    ("geometry", "probes_for_level"),
    ("geometry", "rebuild_level"),
    ("lipschitz", "spectral_lipschitz"),
    ("lipschitz", "commutation_lipschitz_lower"),
    ("lipschitz", "distance_operator"),
    ("constructions", "generated_filtration"),
    ("constructions", "lp_product"),
    ("constructions", "metric_product"),
    ("constructions", "truncate"),
    ("codes", "hamming_filtration"),
    ("codes", "kl_check"),
    ("codes", "min_distance"),
    ("codes", "volume_bound"),
    ("cli", "main"),
    ("cli", "parse_filtration"),
    ("cli", "emit_filtration"),
]

# computed sizes: (metric name, unit, better)
SIZES = [
    ("opspace.span.rows_in", "count", "lower"),
    ("opspace.product_span.rows_in", "count", "lower"),
    ("opspace.product_span.rank_per_row", "ratio", "higher"),
    ("opspace.null_space_rows.elements_in", "count", "lower"),
    ("codes.hamming_filtration.bytes_out", "bytes", "lower"),
    ("cli.main.json_bytes", "bytes", "lower"),
]


def labels():
    return [f"{mod}.{name}" for mod, name in TARGETS]


def _tell(stream) -> int:
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return 0


class Tracer:
    def __init__(self):
        self.names = labels()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.sizes = {name: 0.0 for name, _, _ in SIZES}
        self.product_span_dims = 0
        self.spans = []  # [label index, job, parent span, start, end]
        self.job = -1  # -1 while setting up
        self._open = []  # span indices of the calls in progress
        self._child = []  # wrapped time nested in each open call

    def _wrap(self, idx: int, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, state = before(args)
            pos = len(self.spans)
            self.spans.append([idx, self.job, self._open[-1] if self._open else -1, 0.0, 0.0])
            self._open.append(pos)
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                nested = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                self.spans[pos][3] = start
                self.spans[pos][4] = end
                self.calls[idx] += 1
                self.self_s[idx] += end - start - nested
            if after is not None:
                after(args, result, state if before is not None else None)
            return result

        return traced

    # size hooks ------------------------------------------------------
    def _span_before(self, args):
        mats = list(args[0])
        self.sizes["opspace.span.rows_in"] += len(mats)
        return (mats, *args[1:]), None

    def _product_span_after(self, args, result, _):
        self.sizes["opspace.product_span.rows_in"] += args[0].dim * args[1].dim
        self.product_span_dims += result.dim

    def _null_space_before(self, args):
        self.sizes["opspace.null_space_rows.elements_in"] += args[0].size
        return args, None

    def _hamming_after(self, args, result, _):
        self.sizes["codes.hamming_filtration.bytes_out"] += sum(lv.basis.nbytes for lv in result.levels)

    def _main_before(self, args):
        return args, (_tell(sys.stdout), _tell(sys.stderr))

    def _main_after(self, args, result, state):
        out0, err0 = state
        self.sizes["cli.main.json_bytes"] += _tell(sys.stdout) - out0 + _tell(sys.stderr) - err0

    def install(self):
        """Wrap every target in place; call after importing qwmetric."""
        hooks = {
            "opspace.span": (self._span_before, None),
            "opspace.product_span": (None, self._product_span_after),
            "opspace.null_space_rows": (self._null_space_before, None),
            "codes.hamming_filtration": (None, self._hamming_after),
            "cli.main": (self._main_before, self._main_after),
        }
        package = [m for name, m in list(sys.modules.items()) if name == "qwmetric" or name.startswith("qwmetric.")]
        for idx, (mod, name) in enumerate(TARGETS):
            module = sys.modules[f"qwmetric.{mod}"]
            before, after = hooks.get(f"{mod}.{name}", (None, None))
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(idx, cls.__dict__[meth], before, after))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(idx, original, before, after)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def report(self) -> dict:
        """calls, self times and computed sizes, keyed by metric name."""
        out = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        sizes = dict(self.sizes)
        rows = sizes["opspace.product_span.rows_in"]
        sizes["opspace.product_span.rank_per_row"] = self.product_span_dims / rows if rows else 0.0
        out.update(sizes)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["label", "job", "parent", "start", "end"], "spans": self.spans}, fh)


def metric_units() -> list:
    """The per-layer metrics as (name, unit, better), in report order."""
    out = []
    for name in labels():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + SIZES
