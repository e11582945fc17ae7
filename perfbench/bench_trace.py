"""In-memory span tracing of ffperm's public functions, installed from outside.

`install` wraps every public module-level function of the eight layers
(plus a few named methods) and rebinds each reference ffperm's modules
hold to it, so calls between modules are traced too.  A span is
(id, name, start, end, parent) plus its self time, two "outermost" flags
and an optional note (a work count taken from the call's arguments or
result).  `layer_metrics` derives the per-layer figures from the spans.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import statistics
import sys
import time
import weakref

LAYERS = ("gf", "polyring", "carlitz", "fastfield", "counting", "lincomp",
          "verify", "cli")
ROOT_LAYER = "bench"

# Methods traced besides the module-level functions.
METHODS = {
    "gf": {"Fe": ("__mul__",)},
    "fastfield": {"FieldTables": ("eval_matrix", "interp_matrix", "batch_eval",
                                  "batch_interp")},
}

# Called so often that a recorded span each would outweigh the call: these
# are timed and counted in aggregate, and their time is still charged to
# the enclosing span as child time.
HOT = frozenset({"gf.Fe.__mul__", "gf.inv0", "gf.is_prime", "gf.lucas_binom",
                 "polyring.evaluate"})


def _criterion_name(layer: str, name: str) -> str:
    if layer == "verify" and name.startswith("check_") and name[6:].isdigit():
        return f"verify.criterion_{int(name[6:]):02d}"
    return f"{layer}.{name}"


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        # (sid, name, start_ns, end_ns, parent_sid, self_ns, outer_name, outer_layer, note)
        self.spans: list[tuple] = []
        # name -> [calls, self_ns, outer_layer_ns] for the HOT functions
        self.hot: dict[str, list[int]] = {}
        self._stack: list[list] = []   # [sid or -1, enclosing span sid, child_ns]
        self._depth = collections.defaultdict(int)
        self._next_id = 0
        self._seen_tables = weakref.WeakSet()

    # -- recording ---------------------------------------------------------
    def _call(self, name, layer, fn, args, kwargs):
        depth, stack = self._depth, self._stack
        outer_name = depth[name] == 0
        outer_layer = depth[layer] == 0
        depth[name] += 1
        depth[layer] += 1
        parent = stack[-1][1] if stack else -1
        sid = self._next_id
        self._next_id += 1
        frame = [sid, sid, 0]
        stack.append(frame)
        result = None
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            depth[name] -= 1
            depth[layer] -= 1
            if stack:
                stack[-1][2] += t1 - t0
            note = None
            if name in NOTES:
                try:
                    note = NOTES[name](self, args, result)
                except (IndexError, TypeError, AttributeError):
                    pass        # called another way than expected: no work count
            self.spans.append((sid, name, t0, t1, parent, t1 - t0 - frame[2],
                               outer_name, outer_layer, note))

    def _wrap_hot(self, name: str, layer: str, fn):
        """Aggregate-only wrapper: [calls, self_ns, ns outside any same-layer call]."""
        depth, stack, clock = self._depth, self._stack, time.perf_counter_ns
        agg = self.hot.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [-1, stack[-1][1] if stack else -1, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][2] += dur
                agg[0] += 1
                agg[1] += dur - frame[2]
                if outer:
                    agg[2] += dur
        return traced

    def wrap(self, name: str, layer: str, fn):
        if name in HOT:
            traced = self._wrap_hot(name, layer, fn)
        else:
            def traced(*args, **kwargs):
                return self._call(name, layer, fn, args, kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, fn, *args):
        """Run fn(*args) as the root span of a pass."""
        return self._call(f"{ROOT_LAYER}.pass", ROOT_LAYER, fn, args, {})

    def write(self, path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "self_ns",
                  "outer_name", "outer_layer", "note")
        with open(path, "w") as fh:
            fh.write(json.dumps({"hot": self.hot}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")


def _note_interp_matrix(tracer, args, result):
    """Bytes of the float64 matrix when this call built it (first call per tables)."""
    tables = args[0]
    if tables in tracer._seen_tables:
        return 0
    tracer._seen_tables.add(tables)
    return (tables.q * tables.n) ** 2 * 8


NOTES = {
    "counting.nu_p": lambda tr, args, res: args[0],
    "fastfield.chain_value_tables": lambda tr, args, res: len(args[1][0]),
    "fastfield.FieldTables.batch_interp": lambda tr, args, res: len(args[1]),
    "fastfield.FieldTables.interp_matrix": _note_interp_matrix,
    "carlitz.rank_upto2": lambda tr, args, res: int(
        res is not None and res.witness is not None and res.rank_class in (1, 2)),
    "cli.main": lambda tr, args, res: (args[0][0] if args and args[0] else None),
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers

def install(tracer: Tracer):
    """Wrap the layers' public functions; returns a callable that undoes it."""
    originals: dict[int, tuple] = {}
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ffperm.{layer}")
        for name, obj in list(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                originals[id(obj)] = (obj, tracer.wrap(_criterion_name(layer, name), layer, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", layer, fn))
                    undo.append(lambda c=cls, m=meth, f=fn: setattr(c, m, f))

    def swap(val):
        hit = originals.get(id(val))
        return hit[1] if hit is not None and hit[0] is val else None

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "ffperm" and not mod_name.startswith("ffperm."):
            continue
        for key, val in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            new = swap(val)
            if new is not None:
                setattr(mod, key, new)
                undo.append(lambda m=mod, k=key, v=val: setattr(m, k, v))
            elif isinstance(val, dict):       # e.g. the CLI's handler table
                for k2, v2 in list(val.items()):
                    new = swap(v2)
                    if new is not None:
                        val[k2] = new
                        undo.append(lambda d=val, k=k2, v=v2: d.__setitem__(k, v))
            elif isinstance(val, list):       # e.g. verify's list of checks
                for i, v2 in enumerate(val):
                    new = swap(v2)
                    if new is not None:
                        val[i] = new
                        undo.append(lambda l=val, i=i, v=v2: l.__setitem__(i, v))

    def uninstall():
        for fn in reversed(undo):
            fn()
    return uninstall


# ---------------------------------------------------------------------------
# work counts computed outside the library

def _phi(m: int) -> int:
    out, k, d = m, m, 2
    while d * d <= k:
        if k % d == 0:
            out -= out // d
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out -= out // k
    return out


def nu_elems(p: int) -> int:
    """(gamma, j) elements of the grouped nu_p kernel: sum of phi(l)(l-2), l | p-1, l >= 3."""
    n = p - 1
    return sum(_phi(l) * (l - 2) for l in range(3, n + 1) if n % l == 0)


# ---------------------------------------------------------------------------
# per-layer metrics

def quantile(values, which: str) -> float:
    """"p50" or "p90" of the samples; 0 when there are none."""
    if not values:
        return 0.0
    if which == "p50" or len(values) == 1:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_layer_names():
    names = ["gf.make_field_s", "gf.primitive_element_s", "gf.fe_mul_count", "gf.fe_mul_ns",
             "polyring.eval_table_s", "polyring.eval_table_calls", "polyring.interpolate_s",
             "carlitz.expand_chain_s", "carlitz.rank_upto2_s", "carlitz.rank_checks_per_query",
             "carlitz.rank_useful_ratio", "carlitz.sweep_rank2_s", "carlitz.sweep_rank1_s",
             "fastfield.tables_s", "fastfield.eval_matrix_s", "fastfield.interp_matrix_s",
             "fastfield.interp_matrix_bytes", "fastfield.chain_value_tables_s",
             "fastfield.chain_rows", "fastfield.batch_interp_s",
             "fastfield.batch_interp_rows_per_s", "fastfield.batch_eval_s",
             "counting.nu_p_small_s", "counting.nu_p_large_s", "counting.nu_elems",
             "counting.nu_ns_per_elem", "counting.count_full_s", "counting.window_bound_scan_s",
             "lincomp.berlekamp_massey_s", "lincomp.bm_calls", "lincomp.bm_us_per_seq",
             "lincomp.sequence_from_poly_s"]
    names += [f"verify.criterion_{k:02d}_s" for k in range(1, 14)]
    names += ["cli.rank_p50_ms", "cli.rank_p90_ms", "cli.expand_p50_ms", "cli.blahut_p50_ms",
              "cli.weight_p50_ms", "cli.overhead_ms"]
    for layer in LAYERS:
        names += [f"{layer}.busy_s", f"{layer}.self_s", f"{layer}.self_share"]
    names += [f"{ROOT_LAYER}.self_s", f"{ROOT_LAYER}.self_share",
              "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
              "trace.overhead_share", "env.blas_threads"]
    return names


def unit_of(name: str) -> str:
    for suffix, unit in (("_rows_per_s", "1/s"), ("_ms", "ms"), ("_us_per_seq", "us"),
                         ("_ns_per_elem", "ns"), ("_ns", "ns"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_share", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = _per_layer_names()


def layer_metrics(tracer: Tracer, wall_untraced: float, wall_traced: float,
                  blas_threads: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by the names in PER_LAYER."""
    spans = sorted(tracer.spans)           # by id: parents before children
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def busy(name):                        # outermost spans only, so recursion counts once
        return sum(s[3] - s[2] for s in by_name[name] if s[6]) / 1e9

    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    fe_mul = tracer.hot.get("gf.Fe.__mul__", [0, 0, 0])
    m["gf.make_field_s"] = busy("gf.make_field")
    m["gf.primitive_element_s"] = busy("gf.primitive_element")
    m["gf.fe_mul_count"] = fe_mul[0]
    m["gf.fe_mul_ns"] = fe_mul[1] / fe_mul[0] if fe_mul[0] else 0.0

    m["polyring.eval_table_s"] = busy("polyring.eval_table")
    m["polyring.eval_table_calls"] = len(by_name["polyring.eval_table"])
    m["polyring.interpolate_s"] = busy("polyring.interpolate")

    # candidate checks: expand_chain spans inside a rank_upto2 span
    in_rank: dict[int, bool] = {}
    for s in spans:
        in_rank[s[0]] = s[1] == "carlitz.rank_upto2" or in_rank.get(s[4], False)
    checks = sum(1 for s in by_name["carlitz.expand_chain"] if in_rank.get(s[4], False))
    ranks = by_name["carlitz.rank_upto2"]
    found = sum(s[8] or 0 for s in ranks)
    m["carlitz.expand_chain_s"] = busy("carlitz.expand_chain")
    m["carlitz.rank_upto2_s"] = busy("carlitz.rank_upto2")
    m["carlitz.rank_checks_per_query"] = checks / len(ranks) if ranks else 0.0
    m["carlitz.rank_useful_ratio"] = found / checks if checks else 0.0
    m["carlitz.sweep_rank2_s"] = busy("carlitz.sweep_rank2")
    m["carlitz.sweep_rank1_s"] = busy("carlitz.sweep_rank1")

    bi = by_name["fastfield.FieldTables.batch_interp"]
    bi_rows = sum(s[8] or 0 for s in bi)
    bi_self = sum(s[5] for s in bi) / 1e9
    m["fastfield.tables_s"] = busy("fastfield.tables")
    m["fastfield.eval_matrix_s"] = busy("fastfield.FieldTables.eval_matrix")
    m["fastfield.interp_matrix_s"] = busy("fastfield.FieldTables.interp_matrix")
    m["fastfield.interp_matrix_bytes"] = sum(
        s[8] or 0 for s in by_name["fastfield.FieldTables.interp_matrix"])
    m["fastfield.chain_value_tables_s"] = busy("fastfield.chain_value_tables")
    m["fastfield.chain_rows"] = sum(s[8] or 0 for s in by_name["fastfield.chain_value_tables"])
    m["fastfield.batch_interp_s"] = busy("fastfield.FieldTables.batch_interp")
    m["fastfield.batch_interp_rows_per_s"] = bi_rows / bi_self if bi_self else 0.0
    m["fastfield.batch_eval_s"] = busy("fastfield.FieldTables.batch_eval")

    threshold = getattr(importlib.import_module("ffperm.counting"), "NU_FAST_THRESHOLD", 400)
    nu_calls = [s for s in by_name["counting.nu_p"] if s[6] and s[8] is not None]
    large = [s for s in nu_calls if s[8] >= threshold]
    small = [s for s in nu_calls if s[8] < threshold]
    elems = sum(nu_elems(s[8]) for s in large)
    large_ns = sum(s[3] - s[2] for s in large)
    m["counting.nu_p_small_s"] = sum(s[3] - s[2] for s in small) / 1e9
    m["counting.nu_p_large_s"] = large_ns / 1e9
    m["counting.nu_elems"] = elems
    m["counting.nu_ns_per_elem"] = large_ns / elems if elems else 0.0
    m["counting.count_full_s"] = busy("counting.count_full")
    m["counting.window_bound_scan_s"] = busy("counting.window_bound_scan")

    bm = by_name["lincomp.berlekamp_massey"]
    m["lincomp.berlekamp_massey_s"] = busy("lincomp.berlekamp_massey")
    m["lincomp.bm_calls"] = len(bm)
    m["lincomp.bm_us_per_seq"] = m["lincomp.berlekamp_massey_s"] * 1e6 / len(bm) if bm else 0.0
    m["lincomp.sequence_from_poly_s"] = busy("lincomp.sequence_from_poly")

    for k in range(1, 14):
        m[f"verify.criterion_{k:02d}_s"] = busy(f"verify.criterion_{k:02d}")

    # CLI: latency by subcommand, and CLI-layer self time per query
    main_of: dict[int, int] = {}
    cli_self = collections.Counter()
    for s in spans:
        main_of[s[0]] = s[0] if s[1] == "cli.main" else main_of.get(s[4], -1)
        if s[1].startswith("cli.") and main_of[s[0]] >= 0:
            cli_self[main_of[s[0]]] += s[5]
    lat = collections.defaultdict(list)
    for s in by_name["cli.main"]:
        lat[s[8]].append((s[3] - s[2]) / 1e6)
    m["cli.rank_p50_ms"] = quantile(lat["rank"], "p50")
    m["cli.rank_p90_ms"] = quantile(lat["rank"], "p90")
    m["cli.expand_p50_ms"] = quantile(lat["expand"], "p50")
    m["cli.blahut_p50_ms"] = quantile(lat["blahut"], "p50")
    m["cli.weight_p50_ms"] = quantile(lat["weight"], "p50")
    m["cli.overhead_ms"] = quantile([cli_self[s[0]] / 1e6 for s in by_name["cli.main"]], "p50")

    layer_busy = collections.Counter()
    layer_self = collections.Counter()
    for s in spans:
        layer = s[1].split(".", 1)[0]
        layer_self[layer] += s[5]
        if s[7]:
            layer_busy[layer] += s[3] - s[2]
    for name, (calls, self_ns, outer_layer_ns) in tracer.hot.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_ns
        layer_busy[layer] += outer_layer_ns
    total_self = sum(layer_self.values())  # the root span's duration
    for layer in LAYERS + (ROOT_LAYER,):
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9
        m[f"{layer}.self_share"] = layer_self[layer] / total_self if total_self else 0.0
        if layer != ROOT_LAYER:
            m[f"{layer}.busy_s"] = layer_busy[layer] / 1e9

    m["trace.untraced_wall_s"] = wall_untraced
    m["trace.traced_wall_s"] = wall_traced
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.overhead_share"] = (wall_traced - wall_untraced) / wall_untraced if wall_untraced else 0.0
    m["env.blas_threads"] = blas_threads
    return m
