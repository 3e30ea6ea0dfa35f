"""Batch front-end: JSON serialization of the domain objects and subcommands
for building, transforming, validating and auditing filtrations.

Schema family "qwm/1".  Complex scalars serialize as [re, im] pairs, matrices
as row-major nested arrays, subspaces as {"dim", "basis"}, projections as
{"m", "matrix"}.  A filtration is written as "qwm/2", its graded basis once:
{"dim", "steps": [{"t", "enters"}]}, level i spanned by the "enters" lists of
steps 0..i.  A basis of matrix units is written as its labels, steps
{"t", "units": [[x, y], ...]} with [x, y] the unit E_xy, and read back into
MatrixUnits; a label that is not an integer (a bool included) or lies
outside 0..n-1, a repeated unit, an item that is not a pair, and "units"
beside "enters" in one file are schema errors with a pointer.  An empty
"units" or "enters" list is a repeated level.  The reader also takes the
"qwm/1" shape, every level's basis in full, {"dim", "steps": [{"t",
"basis"}]}.  Exit codes: 0 success, 1 usage/schema error, 2 validation
failure (report still emitted) or other typed error, running out of memory
included (a "SizeLimit").
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import codes, constructions
from .errors import NotNested, QwmError, SchemaError
from .filtration import MatrixUnits, MetricContext, StepFiltration, ValidationReport, descriptors, from_classical, validate
from .geometry import AmplifiedProjection, rho
from .lipschitz import AscentBudget, commutation_lipschitz_lower, spectral_lipschitz
from .numerics import DEFAULT_CONFIG, NumericConfig
from .opspace import _extend, _is_orthonormal, _orthonormalize

SCHEMA = "qwm/1"
FILTRATION_SCHEMA = "qwm/2"


def _fmt(x: float) -> float:
    """Canonical float formatting: 12 significant digits."""
    if math.isinf(x):
        return x
    return float(f"{x:.12e}")


def _fmt_array(x: np.ndarray) -> np.ndarray:
    """_fmt of every entry of a float array, computed once per bit pattern
    (so -0.0 stays apart from 0.0)."""
    bits, inv = np.unique(x.reshape(-1).view(np.uint64), return_inverse=True)
    return np.array([_fmt(v) for v in bits.view(float).tolist()])[inv].reshape(x.shape)


def emit_matrix(m: np.ndarray):
    """Row-major nested [re, im] pairs; a stack of matrices gives a list of them."""
    m = np.asarray(m, dtype=complex)
    return _fmt_array(np.stack([m.real, m.imag], axis=-1)).tolist()


def _numbers(obj) -> np.ndarray | None:
    """obj as one float array when numpy reads every leaf as a number (JSON
    ints and bools included, as the walker accepts them), else None."""
    try:
        a = np.array(obj)
    except (ValueError, OverflowError):  # ragged rows, or ints past 64 bits
        return None
    return a.astype(float, copy=False) if a.dtype.kind in "biuf" else None


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _complex_entry_error(v) -> str | None:
    if not (isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v)):
        return "complex scalar must be a [re, im] pair"
    if not (_finite(v[0]) and _finite(v[1])):
        return "complex entries must be finite numbers"
    return None


def _distance_entry_error(v) -> str | None:
    if v == "inf":
        return None
    if not isinstance(v, (int, float)):
        return "distance entries must be numbers or 'inf'"
    if v != v or (isinstance(v, int) and not _finite(v)):
        return "distance entries must not be NaN or beyond the float range"
    return None


def _check_entries(obj, pointer: str, entry_error) -> None:
    """Raise SchemaError at the first ragged row or bad entry, row-major."""
    for i, row in enumerate(obj):
        if len(row) != len(obj[0]):
            raise SchemaError("ragged matrix rows", f"{pointer}/{i}")
        for j, v in enumerate(row):
            message = entry_error(v)
            if message:
                raise SchemaError(message, f"{pointer}/{i}/{j}")


def _is_nested(obj) -> bool:
    return isinstance(obj, list) and bool(obj) and all(isinstance(r, list) for r in obj)


def parse_matrix(obj, pointer: str) -> np.ndarray:
    if not _is_nested(obj):
        raise SchemaError("matrix must be a nested array", pointer)
    a = _numbers(obj)
    if a is None or a.ndim != 3 or a.shape[2] != 2 or not np.isfinite(a).all():
        _check_entries(obj, pointer, _complex_entry_error)
        # what passes the check here: empty rows, or ints past 64 bits
        a = np.array(obj, dtype=float).reshape(len(obj), len(obj[0]), 2)
    return a.view(complex)[..., 0]


def _parse_basis(obj: list, n: int, pointer: str, first: int = 0) -> np.ndarray:
    """A list of n x n matrices at ``pointer`` as one (k, n, n) array; an
    error names a matrix by its index counted from ``first``."""
    a = _numbers(obj)
    if a is not None and a.shape[1:] == (n, n, 2) and np.isfinite(a).all():
        return a.view(complex)[..., 0]
    mats = [parse_matrix(b, f"{pointer}/{first + i}") for i, b in enumerate(obj)]
    for i, m in enumerate(mats):
        if m.shape != (n, n):
            raise SchemaError(f"basis matrix of shape {m.shape}, ambient {n}", f"{pointer}/{first + i}")
    return np.asarray(mats, dtype=complex).reshape(len(mats), n, n)


def emit_filtration(f: StepFiltration):
    """The "qwm/2" file: matrix units as their [x, y] labels, any other basis
    as its matrices."""
    units = f._graded
    if isinstance(units, MatrixUnits):
        key, items = "units", np.stack([units.rows, units.cols], axis=1).tolist()
    else:
        key, items = "enters", emit_matrix(f.basis)
    return {
        "schema": FILTRATION_SCHEMA,
        "kind": "filtration",
        "dim": f.n,
        # the graded basis once: level i is spanned by the elements entering at steps 0..i
        "steps": [{"t": _fmt(t), key: items[lo:hi]} for t, lo, hi in zip(f.breakpoints, [0] + f.cuts, f.cuts)],
    }


def parse_filtration(obj, cfg: NumericConfig) -> StepFiltration:
    """A "qwm/2" file, or a "qwm/1" or untagged one (each level in full):
    one block per step, its "units" or "enters" list, its matrices past the
    previous step's basis, or its whole level.  Units are held as
    MatrixUnits.  Blocks alone whose graded basis is orthonormal are kept as
    given, as MatrixUnits when every element is a matrix unit exactly; any
    other file is read by _grown_levels."""
    if not isinstance(obj, dict):
        raise SchemaError("filtration must be an object", "")
    schema = obj.get("schema", SCHEMA)
    if schema not in (SCHEMA, FILTRATION_SCHEMA):
        raise SchemaError(f"unknown schema {schema!r}", "/schema")
    if obj.get("kind", "filtration") != "filtration":
        raise SchemaError(f"expected kind 'filtration', got {obj.get('kind')!r}", "/kind")
    if "dim" not in obj or "steps" not in obj:
        raise SchemaError("filtration needs 'dim' and 'steps'", "")
    n = obj["dim"]
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise SchemaError("'dim' must be a positive integer", "/dim")
    if n * n > np.iinfo(np.intp).max // 16:  # checked here: an empty basis has no matrix to check it against
        raise SchemaError(f"'dim' {n} is past the largest n x n complex array", "/dim")
    if not isinstance(obj["steps"], list):
        raise SchemaError("'steps' must be a list", "/steps")
    key = "basis"
    if schema == FILTRATION_SCHEMA:  # the shape of the first step: "units" or "enters"
        first_step = obj["steps"][0] if obj["steps"] else {}
        key = "units" if isinstance(first_step, dict) and "units" in first_step else "enters"
    other = {"units": "enters", "enters": "units"}.get(key)
    bps, blocks, whole, prev, seen = [], [], [], [], set()
    for i, step in enumerate(obj["steps"]):
        ptr = f"/steps/{i}"
        if not isinstance(step, dict) or "t" not in step or key not in step:
            raise SchemaError(f"step needs 't' and '{key}'", ptr)
        if other in step:
            raise SchemaError("a file lists 'units' or 'enters', not both", ptr)
        t = step["t"]
        if not isinstance(t, (int, float)) or not _finite(t):
            raise SchemaError("breakpoints must be finite numbers", f"{ptr}/t")
        bps.append(float(t))
        if key == "units":
            blocks.append(_parse_units(step[key], n, f"{ptr}/units", seen))
            continue
        mats = step[key]
        if not isinstance(mats, list):
            raise SchemaError(f"'{key}' must be a list of matrices", f"{ptr}/{key}")
        # a "qwm/1" basis that begins with the previous step's (as JSON values) parses only its new matrices
        first = len(prev) if mats[: len(prev)] == prev else 0
        blocks.append(_parse_basis(mats[first:], n, f"{ptr}/{key}", first))
        whole.append(bool(prev) and not first)
        prev = mats if key == "basis" else []
    cuts = list(itertools.accumulate(map(len, blocks)))
    try:
        if key == "units":
            labels = np.array([xy for block in blocks for xy in block], dtype=np.intp).reshape(-1, 2)
            return StepFiltration.from_graded(n, bps, MatrixUnits(n, labels[:, 0], labels[:, 1]), cuts)
        if not any(whole):
            basis = np.concatenate([np.zeros((0, n, n), dtype=complex), *blocks])
            flat = basis.reshape(len(basis), n * n)
            if _is_orthonormal(flat, cfg, np.abs(flat).max(initial=0.0)):
                return StepFiltration.from_graded(n, bps, MatrixUnits.found_in(basis) or basis, cuts)
        return _grown_levels(n, bps, blocks, whole, cfg)
    except NotNested:
        raise
    except QwmError as exc:
        raise SchemaError(str(exc), "/steps")


def _parse_units(obj, n: int, pointer: str, seen: set) -> list:
    """A "units" list at ``pointer``: [x, y] pairs of integer labels in
    0..n-1, none in ``seen`` (the units of the steps before), which gains
    them."""
    if not isinstance(obj, list):
        raise SchemaError("'units' must be a list of [x, y] pairs", pointer)
    for j, item in enumerate(obj):
        if not (isinstance(item, list) and len(item) == 2):
            raise SchemaError("a unit must be an [x, y] pair", f"{pointer}/{j}")
        for c, v in enumerate(item):
            if type(v) is not int:  # a bool is an int to isinstance
                raise SchemaError("unit labels must be integers", f"{pointer}/{j}/{c}")
            if not 0 <= v < n:
                raise SchemaError(f"unit label {v} outside 0..{n - 1}", f"{pointer}/{j}/{c}")
        if tuple(item) in seen:
            raise SchemaError(f"unit {item} repeated", f"{pointer}/{j}")
        seen.add(tuple(item))
    return obj


def _grown_levels(n: int, bps: list, blocks: list, whole: list, cfg: NumericConfig) -> StepFiltration:
    """Grown one block per step: each block, re-spanned from rows of unit
    size, adds its part outside the basis so far (opspace._extend).  A whole
    level nests exactly when the basis then has its rank, else NotNested; an
    empty block keeps its cut, so validate sees a repeated level."""
    rows, cuts = np.zeros((0, n * n), dtype=complex), []
    for i, (block, full) in enumerate(zip(blocks, whole)):
        level = _orthonormalize(block.reshape(len(block), n * n), n, cfg, unit_rows=True).reshape(-1, n * n)
        new = _extend(rows, level, n, cfg)
        if full and len(rows) + len(new) != len(level):
            raise NotNested(f"level {i} does not contain level {i - 1}", i)
        rows = np.concatenate([rows, new])
        cuts.append(len(rows))
    return StepFiltration.from_graded(n, bps, rows.reshape(-1, n, n), cuts)


def emit_projection(p: AmplifiedProjection):
    return {"schema": SCHEMA, "kind": "projection", "m": p.m, "matrix": emit_matrix(p.matrix)}


def parse_projection(obj, base_dim: int, cfg: NumericConfig) -> AmplifiedProjection:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SchemaError("projection needs 'matrix'", "")
    m = obj.get("m", 1)
    if not isinstance(m, int) or m < 1:
        raise SchemaError("amplification 'm' must be a positive integer", "/m")
    mat = parse_matrix(obj["matrix"], "/matrix")
    try:
        return AmplifiedProjection(base_dim, m, mat, cfg)
    except QwmError as exc:
        raise SchemaError(str(exc), "/matrix")


def parse_real_matrix(obj, pointer: str) -> np.ndarray:
    if not _is_nested(obj):
        raise SchemaError("distance matrix must be a nested array", pointer)
    a = _numbers(obj)
    if a is None or a.ndim != 2 or np.isnan(a).any():
        _check_entries(obj, pointer, _distance_entry_error)
        # what passes the check here: 'inf' tokens, or ints past 64 bits
        a = np.array(obj, dtype=object)
        a[a == "inf"] = math.inf
        a = a.astype(float)
    return a


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "")


def _dump(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.  A
    rectangular nest of lists of floats is rendered in one pass over one
    array, and a flat list of exact ints (bools are not) item by item
    through str."""
    chunks = []
    _encode(obj, 0, chunks)
    return "".join(chunks)


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


def _encode(o, depth: int, chunks: list) -> None:
    """Append the text of o, which starts at indent depth ``depth``."""
    if isinstance(o, (list, tuple)):
        # a flat list of exact ints, such as a unit's label: str is json's text of each
        items = list(map(str, o)) if o and all(type(v) is int for v in o) else _float_items(o, depth)
        if items is not None:
            sep = "," + _indent(depth + 1)
            chunks.append("[" + _indent(depth + 1) + sep.join(items) + _indent(depth) + "]")
        elif not o:
            chunks.append("[]")
        else:
            for i, v in enumerate(o):
                chunks.append(("," if i else "[") + _indent(depth + 1))
                _encode(v, depth + 1, chunks)
            chunks.append(_indent(depth) + "]")
    elif isinstance(o, dict):
        if not o:
            chunks.append("{}")
            return
        for i, (k, v) in enumerate(sorted(o.items())):
            chunks.append(("," if i else "{") + _indent(depth + 1) + json.dumps(_key(k)) + ": ")
            _encode(v, depth + 1, chunks)
        chunks.append(_indent(depth) + "}")
    else:
        chunks.append(json.dumps(o))


def _key(k) -> str:
    """json's conversion of a dict key to a string."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _float_items(o, depth: int) -> list | None:
    """The texts of the items of o, each at indent depth + 1, when o is a
    nonempty rectangular nest of lists whose leaves are all Python floats,
    else None."""
    a = np.array(o, dtype=object)
    if a.size == 0 or set(map(type, a.reshape(-1).tolist())) != {float}:
        return None
    return _float_item_texts(a.astype(float), depth)


# json's spelling of the floats whose repr is not JSON
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_item_texts(a: np.ndarray, depth: int) -> list:
    """json's indented text of each a[g].tolist(), g along the first axis,
    for a nonempty float array whose items start at indent depth
    ``depth + 1``."""
    k, per = a.ndim, a[0].size
    bits, inv = np.unique(a.reshape(-1).view(np.uint64), return_inverse=True)
    words = np.array([_JSON_FLOATS.get(w, w) for w in map(repr, bits.view(float).tolist())], dtype=object)

    def opened(r):  # open the r innermost lists
        return "".join("[" + _indent(depth + p + 1) for p in range(k - r, k))

    def closed(r):  # close the r innermost lists
        return "".join(_indent(depth + p) + "]" for p in reversed(range(k - r, k)))

    # between leaves g and g + 1 of an item the r innermost lists close and
    # reopen, r the number of trailing axes whose index wraps to 0
    seps = np.array([closed(r) + "," + _indent(depth + k - r) + opened(r) for r in range(k - 1)], dtype=object)
    g = np.arange(1, per)
    r = np.zeros(per - 1, dtype=np.intp)
    for j in range(2, k):
        r += g % math.prod(a.shape[j:]) == 0
    out = np.empty((len(a), 2 * per + 1), dtype=object)
    out[:, 0], out[:, -1] = opened(k - 1), closed(k - 1)
    out[:, 1::2] = words[inv].reshape(len(a), per)
    out[:, 2:-1:2] = seps[r]
    return ["".join(row) for row in out.tolist()]


def _cfg_from_args(args) -> NumericConfig:
    if args.tol is None:
        return DEFAULT_CONFIG
    if not 0 < args.tol < math.inf:  # NaN fails this too
        raise SchemaError(f"--tol must be a positive finite number, got {args.tol!r}", "")
    return NumericConfig(rank_tol=min(args.tol, 0.1), membership_tol=args.tol, eig_cluster_tol=min(args.tol, 1e-6))


def _check_counts(args) -> None:
    """The integer global options: a degree of at least 1, a seed and a
    budget of at least 0."""
    for name, value, least in (("amplification", args.amplification, 1), ("seed", args.seed, 0), ("budget", args.budget, 0)):
        if value < least:
            raise SchemaError(f"--{name} must be an integer >= {least}, got {value}", "")


def _check_floats(args) -> None:
    """The float options of transform are finite numbers; each construction
    checks its own domain."""
    for name in ("at", "alpha", "p", "bridge"):
        if not math.isfinite(getattr(args, name) or 0.0):
            raise SchemaError(f"--{name} must be a finite number, got {getattr(args, name)!r}", "")


def _load_filtration(path: str, cfg: NumericConfig) -> StepFiltration:
    return parse_filtration(_read_json(path), cfg)


def _load_matrix(path: str, size: int, what: str) -> np.ndarray:
    """A size x size matrix file; any other shape is a schema error."""
    m = parse_matrix(_read_json(path), "")
    if m.shape != (size, size):
        raise SchemaError(f"{what} of shape {m.shape}, expected ({size}, {size})", "")
    return m


def cmd_validate(args, cfg) -> int:
    try:
        f = _load_filtration(args.filtration, cfg)
    except NotNested as exc:
        # a chain that is not nested cannot be built; report the axiom it breaks
        report = ValidationReport(False, False, False, [("not_strictly_increasing", exc.level - 1)])
    else:
        ctx = None
        if args.algebra:
            gens_obj = _read_json(args.algebra)
            if not isinstance(gens_obj, list):
                raise SchemaError("algebra must be a list of generator matrices", "")
            gens = [parse_matrix(g, f"/{i}") for i, g in enumerate(gens_obj)]
            for i, g in enumerate(gens):
                if g.shape != (f.n, f.n):
                    raise SchemaError(f"generator of shape {g.shape}, expected ({f.n}, {f.n})", f"/{i}")
            ctx = MetricContext.from_generators(gens, f.n, cfg)
        report = validate(f, ctx, cfg)
    desc = descriptors(f, cfg) if report.is_filtration else None
    out = {
        "schema": SCHEMA,
        "kind": "validation",
        "is_filtration": report.is_filtration,
        "is_pseudometric": report.is_pseudometric,
        "is_metric": report.is_metric,
        "violations": [[str(kind), repr(where)] for kind, where in report.violations],
    }
    if desc is not None:
        out["diameter"] = "inf" if math.isinf(desc["diameter"]) else _fmt(desc["diameter"])
        out["gap"] = "inf" if math.isinf(desc["gap"]) else _fmt(desc["gap"])
        out["path_flag"] = desc["path_flag"]
    print(_dump(out))
    return 0 if report.is_filtration else 2


def cmd_gauge(args, cfg) -> int:
    f = _load_filtration(args.filtration, cfg)
    a = _load_matrix(args.matrix, f.n, "matrix")
    d = f.displacement_gauge(a, cfg)
    print(_dump({"schema": SCHEMA, "kind": "gauge", "displacement": "inf" if math.isinf(d) else _fmt(d)}))
    return 0


def cmd_distance(args, cfg) -> int:
    f = _load_filtration(args.filtration, cfg)
    p = parse_projection(_read_json(args.p), f.n, cfg)
    q = parse_projection(_read_json(args.q), f.n, cfg)
    r = rho(f, p, q, cfg)
    print(_dump({"schema": SCHEMA, "kind": "distance", "rho": "inf" if math.isinf(r) else _fmt(r)}))
    return 0


def cmd_lipschitz(args, cfg) -> int:
    f = _load_filtration(args.filtration, cfg)
    a = _load_matrix(args.matrix, f.n * args.amplification, "matrix")
    ls = spectral_lipschitz(f, a, amp_degree=args.amplification, cfg=cfg)
    budget = AscentBudget(restarts=args.budget, steps=200) if args.budget else AscentBudget.deterministic()
    lc = commutation_lipschitz_lower(f, a, budget=budget, seed=args.seed, cfg=cfg) if args.amplification == 1 else None
    out = {
        "schema": SCHEMA,
        "kind": "lipschitz",
        "spectral": "inf" if math.isinf(ls.value) else _fmt(ls.value),
    }
    if lc is not None:
        out["commutation_lower"] = _fmt(lc.value)
    print(_dump(out))
    return 0


def cmd_build(args, cfg) -> int:
    if args.what == "hamming":
        f = codes.hamming_filtration(args.sites, args.local_dim, cfg)
    elif args.what == "blocks":
        f = codes.block_filtration([int(b) for b in args.blocks.split(",")], cfg)
    elif args.what == "m2":
        f = constructions.m2_metric(args.a, args.b, args.c, cfg)
    elif args.what == "classical":
        d = parse_real_matrix(_read_json(args.matrix), "")
        f, _ = from_classical(d, cfg)
    else:
        raise SchemaError(f"unknown build target {args.what!r}", "")
    print(_dump(emit_filtration(f)))
    return 0


def cmd_transform(args, cfg) -> int:
    _check_floats(args)
    f = _load_filtration(args.filtration, cfg)
    if args.what == "truncate":
        out = constructions.truncate(f, args.at, cfg)
    elif args.what == "hoelder":
        out = constructions.hoelder(f, args.alpha, cfg)
    elif args.what == "meet":
        others = [_load_filtration(p, cfg) for p in args.with_ or []]
        out = constructions.meet([f] + others, cfg)
    elif args.what == "product":
        out = constructions.metric_product(f, _load_filtration(args.with_[0], cfg), cfg)
    elif args.what == "lp":
        out = constructions.lp_product(f, _load_filtration(args.with_[0], cfg), args.p, cfg)
    elif args.what == "direct-sum":
        out = constructions.direct_sum(f, _load_filtration(args.with_[0], cfg), args.bridge, cfg)
    else:
        raise SchemaError(f"unknown transform {args.what!r}", "")
    print(_dump(emit_filtration(out)))
    return 0


def cmd_code_check(args, cfg) -> int:
    f = _load_filtration(args.filtration, cfg)
    p = _load_matrix(args.projector, f.n, "projector")
    code = codes.QuantumCode(p, f)
    audit = codes.kl_check(code, args.k, cfg)
    delta = codes.min_distance(code, cfg)
    out = {
        "schema": SCHEMA,
        "kind": "code-check",
        "detects": audit.detects,
        "worst_residual": _fmt(audit.worst_residual),
        "worst_index": audit.worst_index,
        "min_distance": "inf" if math.isinf(delta) else _fmt(delta),
    }
    if audit.detects:
        vol = codes.volume_bound(code, args.k, cfg)
        out["volume"] = {
            "dim_k": vol.dim_k,
            "code_dim": vol.code_dim,
            "bound": "inf" if math.isinf(vol.bound) else _fmt(vol.bound),
            "holds": vol.holds,
        }
    print(_dump(out))
    return 0 if audit.detects else 2


def cmd_classify_m2(args, cfg) -> int:
    f = _load_filtration(args.filtration, cfg)
    a, b, c, u = constructions.canonicalize_m2(f, cfg)
    print(
        _dump(
            {
                "schema": SCHEMA,
                "kind": "m2-classification",
                "a": _fmt(a),
                "b": _fmt(b),
                "c": "inf" if math.isinf(c) else _fmt(c),
                "unitary": emit_matrix(u),
                "reflexive": b == c,
            }
        )
    )
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qwmetric", description=__doc__)
    ap.add_argument("--tol", type=float, default=None, help="membership tolerance override")
    ap.add_argument("--amplification", type=int, default=1, help="amplification degree for operators")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized search")
    ap.add_argument("--budget", type=int, default=0, help="random restarts for the commutation bound")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the filtration axioms")
    p.add_argument("--filtration", required=True)
    p.add_argument("--algebra", help="JSON list of generator matrices for the context algebra")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gauge", help="displacement gauge of a matrix")
    p.add_argument("--filtration", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_gauge)

    p = sub.add_parser("distance", help="rho between two projections")
    p.add_argument("--filtration", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("lipschitz", help="spectral and commutation Lipschitz numbers")
    p.add_argument("--filtration", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_lipschitz)

    p = sub.add_parser("build", help="construct a filtration")
    p.add_argument("what", choices=["hamming", "blocks", "m2", "classical"])
    p.add_argument("--sites", type=int, default=1)
    p.add_argument("--local-dim", type=int, default=2, dest="local_dim")
    p.add_argument("--blocks", default="1")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--matrix", help="distance matrix JSON for 'classical'")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("transform", help="apply a construction")
    p.add_argument("what", choices=["truncate", "hoelder", "meet", "product", "lp", "direct-sum"])
    p.add_argument("--filtration", required=True)
    p.add_argument("--with", dest="with_", action="append", help="other filtration file(s)")
    p.add_argument("--at", type=float, default=1.0, help="truncation level")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--p", type=float, default=1.0, help="exponent for lp")
    p.add_argument("--bridge", type=float, default=None)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("code-check", help="detectability audit, distance and volume bound")
    p.add_argument("--filtration", required=True)
    p.add_argument("--projector", required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.set_defaults(fn=cmd_code_check)

    p = sub.add_parser("classify-m2", help="canonical parameters of an M_2 pseudometric")
    p.add_argument("--filtration", required=True)
    p.set_defaults(fn=cmd_classify_m2)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _check_counts(args)
        return args.fn(args, _cfg_from_args(args))
    except SchemaError as exc:
        print(_dump({"schema": SCHEMA, "kind": "error", "error": str(exc), "pointer": exc.pointer}), file=sys.stderr)
        return 1
    except (QwmError, MemoryError) as exc:  # memory runs out as a size limit, not a traceback
        kind = "SizeLimit" if isinstance(exc, MemoryError) else type(exc).__name__
        print(_dump({"schema": SCHEMA, "kind": "error", "error": f"{kind}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
