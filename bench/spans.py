"""Span tracing of hullforge from outside the package.

`install` wraps the public functions of each layer module, a few
`MatrixFq` methods and the `FieldSpec` arithmetic, on the defining
module and on every hullforge module that imported the name.  `restore`
puts the originals back.  Nothing under `src/` is edited.

Each span records its name, its parent span and its start and end.
Spans are folded into per-name totals whenever a top-level span closes,
so memory stays bounded by the depth of one top-level call.  A span's
self time is its duration minus the durations of its direct children;
children run one after another inside the parent, so that is the part
of the parent's interval the children cover.

`FieldSpec` arithmetic is counted, never spanned: a span per element
operation would cost more than the operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

from hullforge.codes import resolve_budget

LAYERS = ("gf", "matfq", "codes", "diag", "eaqecc", "cli")
MATRIX_METHODS = ("__init__", "rref", "kernel", "__matmul__", "gramian")
GF_OPS = ("add", "sub", "mul", "neg", "inv", "pow", "conjugate", "sqrt",
          "is_square")

# metric prefix -> span names that feed it
SPAN_METRICS = {
    "matfq.rref": ("matfq.MatrixFq.rref",),
    "matfq.matmul": ("matfq.MatrixFq.__matmul__",),
    "matfq.kernel": ("matfq.MatrixFq.kernel",),
    "matfq.gramian": ("matfq.MatrixFq.gramian",),
    "matfq.pair_reduce": ("matfq.pair_reduce_diagonal",),
    "matfq.construct": ("matfq.MatrixFq.__init__",),
    "codes.make_code": ("codes.make_code",),
    "codes.dual": ("codes.dual",),
    "codes.hull": ("codes.hull",),
    "codes.min_distance": ("codes.min_distance",),
    "codes.maximal": ("codes.is_hull_maximal_so_in",),
    "diag.odd": ("diag.diagonalize_odd",),
    "diag.maximal_hull": ("diag.diagonalize_maximal_hull",),
    "diag.pair": ("diag.pair_diagonal_generators",),
    "eaqecc.base": ("eaqecc.base_params",),
    "eaqecc.extend": ("eaqecc.extend_euclidean", "eaqecc.extend_hermitian"),
    "cli.main": ("cli.main",),
    "cli.parse": ("cli.parse_code_file",),
}

COUNTERS = ("matfq.rref.cells", "matfq.matmul.macs", "matfq.construct.entries",
            "codes.min_distance.refused", "codes.min_distance.words",
            "codes.maximal.refused", "codes.maximal.words",
            "diag.maximal_hull.refused")


def self_times(spans):
    """Per-name [calls, total_ns, self_ns] from (name, parent, start, end)
    records, where parent is the index of the parent record or -1."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = {}
    for (name, _, start, end), self_ns in zip(spans, own):
        agg = out.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += self_ns
    return out


class Tracer:
    """Span and counter sink; records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.gf_ops = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.records = 0            # d_exact bookkeeping for eaqecc records
        self.records_exact = 0
        self.totals = {}            # name -> [calls, total_ns, self_ns]
        self.covered_ns = 0         # summed duration of top-level spans
        self._spans = []
        self._stack = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self._spans))
        self._spans.append([name, parent, perf_counter_ns(), 0])

    def exit(self):
        span = self._spans[self._stack.pop()]
        span[3] = perf_counter_ns()
        if not self._stack:
            self.covered_ns += span[3] - span[2]
            for name, (calls, total, own) in self_times(self._spans).items():
                agg = self.totals.setdefault(name, [0, 0, 0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
            self._spans.clear()


# -- counter hooks: (tracer, args, kwargs, outcome) after the span closes --

def _rref_hook(tracer, args, kwargs, outcome):
    m = args[0]
    tracer.counters["matfq.rref.cells"] += m.rows * m.cols


def _matmul_hook(tracer, args, kwargs, outcome):
    a, b = args[0], args[1]
    tracer.counters["matfq.matmul.macs"] += a.rows * a.cols * b.cols


def _construct_hook(tracer, args, kwargs, outcome):
    tracer.counters["matfq.construct.entries"] += args[2] * args[3]


def _min_distance_hook(tracer, args, kwargs, outcome):
    if isinstance(outcome, Exception):
        tracer.counters["codes.min_distance.refused"] += 1
    else:
        code = args[0]
        tracer.counters["codes.min_distance.words"] += code.spec.q ** code.k


def _maximal_hook(tracer, args, kwargs, outcome):
    """Words are computed from the input: q^k of the code enumerated, when
    it fits the budget; a call that could not enumerate counts as refused."""
    code = args[0]
    side = args[2] if len(args) > 2 else kwargs.get("side", "code")
    budget = args[3] if len(args) > 3 else kwargs.get("budget")
    dim = code.k if side == "code" else code.n - code.k
    words = code.spec.q ** dim
    if isinstance(outcome, Exception) or words > resolve_budget(budget):
        tracer.counters["codes.maximal.refused"] += 1
    else:
        tracer.counters["codes.maximal.words"] += words


def _maximal_hull_hook(tracer, args, kwargs, outcome):
    if isinstance(outcome, Exception):
        tracer.counters["diag.maximal_hull.refused"] += 1


def _count_records(tracer, records):
    for rec in records:
        tracer.records += 1
        tracer.records_exact += rec.d_exact is not None


def _base_hook(tracer, args, kwargs, outcome):
    if not isinstance(outcome, Exception):
        _count_records(tracer, outcome)


def _extend_hook(tracer, args, kwargs, outcome):
    if not isinstance(outcome, Exception):
        _count_records(tracer, outcome[1:])


HOOKS = {
    "matfq.MatrixFq.rref": _rref_hook,
    "matfq.MatrixFq.__matmul__": _matmul_hook,
    "matfq.MatrixFq.__init__": _construct_hook,
    "codes.min_distance": _min_distance_hook,
    "codes.is_hull_maximal_so_in": _maximal_hook,
    "diag.diagonalize_maximal_hull": _maximal_hull_hook,
    "eaqecc.base_params": _base_hook,
    "eaqecc.extend_euclidean": _extend_hook,
    "eaqecc.extend_hermitian": _extend_hook,
}


def _span_wrapper(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        outcome = None
        tracer.enter(name)
        try:
            outcome = fn(*args, **kwargs)
        except Exception as exc:
            outcome = exc
            raise
        finally:
            tracer.exit()
            if hook is not None:
                hook(tracer, args, kwargs, outcome)
        return outcome

    return wrapper


def _count_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        if tracer.active:
            tracer.gf_ops += 1
        return fn(*args)

    return wrapper


def _public_functions(module):
    """Public callables defined in the module itself (lru-cached ones too)."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer):
    """Wrap every traced callable; returns the patch list for `restore`."""
    layer_modules = [importlib.import_module(f"hullforge.{layer}")
                     for layer in LAYERS]
    holders = [mod for name, mod in sorted(sys.modules.items())
               if name == "hullforge" or name.startswith("hullforge.")]
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for layer, module in zip(LAYERS, layer_modules):
        for attr, fn in _public_functions(module):
            wrapper = _span_wrapper(tracer, f"{layer}.{attr}", fn)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        patch(holder, name, wrapper)
    matrix = sys.modules["hullforge.matfq"].MatrixFq
    for attr in MATRIX_METHODS:
        patch(matrix, attr, _span_wrapper(tracer, f"matfq.MatrixFq.{attr}",
                                          vars(matrix)[attr]))
    field = sys.modules["hullforge.gf"].FieldSpec
    for attr in GF_OPS:
        patch(field, attr, _count_wrapper(tracer, vars(field)[attr]))
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer, wall_ns, untraced_ns, build_ns):
    """Every per-layer metric as name -> (value, unit).

    wall_ns is the traced pipeline time, untraced_ns the untraced time of
    the same inputs, build_ns the uncached field construction time.
    """
    ms = 1e-6
    totals = tracer.totals
    out = {"gf.build_ms": (build_ns * ms, "ms"),
           "gf.ops": (tracer.gf_ops, "count")}
    for prefix, names in SPAN_METRICS.items():
        aggs = [totals.get(name, (0, 0, 0)) for name in names]
        out[f"{prefix}.calls"] = (sum(a[0] for a in aggs), "count")
        out[f"{prefix}.self_ms"] = (sum(a[2] for a in aggs) * ms, "ms")
    for name, value in tracer.counters.items():
        out[name] = (value, "count")
    share = tracer.records_exact / tracer.records if tracer.records else 0.0
    out["eaqecc.d_exact_share"] = (share, "ratio")
    for layer in LAYERS:
        own = sum(agg[2] for name, agg in totals.items()
                  if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_ms"] = (own * ms, "ms")
    out["trace.wall_ms"] = (wall_ns * ms, "ms")
    out["trace.uncovered_ms"] = ((wall_ns - tracer.covered_ns) * ms, "ms")
    out["trace.overhead"] = (wall_ns / untraced_ns - 1.0, "ratio")
    return out
