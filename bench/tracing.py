"""Traced run: spans around fisusc's public functions, installed from outside.

`Tracer.installed()` replaces every public function of the fisusc modules
(in every fisusc namespace that holds a reference to it), the methods
listed in `METHODS`, the check functions in `fisusc.verify.CHECKS` and the
`numpy.linalg` routines in `KERNEL` with wrappers that record one span per
call: name, parent span, start and end.  Leaving the context restores the
originals, so untraced passes run the unmodified program.

Spans stay in memory; `Tracer.aggregate()` turns them into per-name call
counts, total times and self times (span duration minus the part of it
covered by child spans, so pool threads running under one parent are not
double counted).  Kernel wrappers also record batch and matrix sizes, from
which the computed cubic work sum(batch * m * n * min(m, n)) follows.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy

import fisusc.verify

LAYERS = ("linalg", "model", "fisher", "susceptibility", "models", "sweep",
          "verify", "cli")

# (module, class, attribute) -> span name
METHODS = {
    ("model", "StatisticalModel", "state_at"): "model.state_at",
    ("model", "StatisticalModel", "derivatives_at"): "model.derivatives_at",
    ("model", "Povm", "__init__"): "model.Povm",
    ("sweep", "SweepSpec", "validate"): "sweep.validate",
}

KERNEL = ("eigh", "eigvalsh", "qr", "svd", "inv", "cond", "det")

OP_SPAN = "sweep.evaluate_point"


def _matrix_work(a):
    """(batch, cubic work) of a (..., m, n) array argument."""
    shape = numpy.shape(a)
    if len(shape) < 2:
        return 1, 0
    m, n = shape[-2], shape[-1]
    batch = 1
    for s in shape[:-2]:
        batch *= s
    return batch, batch * m * n * min(m, n)


class Tracer:
    """Span recorder for one or more traced passes over the program."""

    def __init__(self, fisusc_package):
        self._pkg = fisusc_package
        self._mods = {name: importlib.import_module(f"fisusc.{name}")
                      for name in LAYERS}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()    # counters are updated from pool threads
        self._main_stack = []
        self.spans = []                  # (id, parent, name, t0, t1)
        self.kernel = defaultdict(lambda: [0, 0, 0])   # calls, matrices, work
        self.failures = Counter()        # "Class@function" -> ops
        self.failure_chains = Counter()  # "Class: outer > ... > inner" -> ops

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, name, fn, op=None):
        """Wrapper recording a span; `op` marks an op boundary ('row'/'check')."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's outermost call belongs to the span that
                # is open on the main thread (run_sweep waiting on the pool)
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            if op is not None:
                self._local.raised = None
            if name.startswith("kernel."):
                batch, work = _matrix_work(args[0] if args else None)
                with self._lock:
                    entry = self.kernel[name]
                    entry[0] += 1
                    entry[1] += batch
                    entry[2] += work
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                raised = getattr(self._local, "raised", None)
                if raised is not None and raised[0] is err:
                    raised[1].append(name)
                else:
                    self._local.raised = (err, [name])
                if op is not None:
                    self._count_failure(name)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if op == "row" and result["error"]:
                self._count_failure(name)
            elif op == "check" and not result[0]:
                with self._lock:
                    self.failures[f"CheckFailed@{name}"] += 1
                    self.failure_chains[f"CheckFailed: {name}"] += 1
            return result

        return traced

    def _count_failure(self, op_name):
        raised = getattr(self._local, "raised", None)
        self._local.raised = None
        if raised is None:
            key, chain = f"unknown@{op_name}", f"unknown: {op_name}"
        else:
            err, path = raised
            path = [p for p in path if p != op_name] or [op_name]
            cls = type(err).__name__
            key = f"{cls}@{path[-1]}"
            chain = f"{cls}: " + " > ".join(reversed(path))
        with self._lock:
            self.failures[key] += 1
            self.failure_chains[chain] += 1

    # -- installing and removing the wrappers ------------------------------

    @contextlib.contextmanager
    def installed(self):
        restore = []

        def patch(owner, attr, value):
            restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            wrappers = {}
            for layer, mod in self._mods.items():
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        op = "row" if f"{layer}.{attr}" == OP_SPAN else None
                        wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, op)
            for mod in (self._pkg, *self._mods.values()):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in wrappers:
                        patch(mod, attr, wrappers[id(obj)])
            verify = self._mods["verify"]
            patch(verify, "CHECKS",
                  [(name, self._wrap(f"verify.{name}", fn, op="check"))
                   for name, fn in verify.CHECKS])
            for (layer, cls_name, attr), name in METHODS.items():
                cls = getattr(self._mods[layer], cls_name)
                patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
            for routine in KERNEL:
                patch(numpy.linalg, routine,
                      self._wrap(f"kernel.{routine}", getattr(numpy.linalg, routine)))
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def aggregate(self):
        """{span name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - covered
        return stats


# ---------------------------------------------------------------------------
# Per-layer metrics reported by the traced run
# ---------------------------------------------------------------------------

CHECK_NAMES = [name for name, _ in fisusc.verify.CHECKS]

# metric name -> (span name, statistic, per): statistic is calls, self or
# total (inclusive) time; per is "op" or "unit" (a verify unit is a suite)
SPAN_METRICS = {
    "cli.main.self_ms_per_unit": ("cli.main", "self", "unit"),
    "sweep.validate.ms_per_unit": ("sweep.validate", "total", "unit"),
    "sweep.run_sweep.self_ms_per_unit": ("sweep.run_sweep", "self", "unit"),
    "sweep.evaluate_point.self_ms_per_op": ("sweep.evaluate_point", "self", "op"),
    "sweep.build_model_povm.self_ms_per_op": ("sweep.build_model_povm", "self", "op"),
    "models.point_source_model.self_ms_per_op": ("models.point_source_model", "self", "op"),
    "models.optimal_povm_point_sources.self_ms_per_op":
        ("models.optimal_povm_point_sources", "self", "op"),
    "models.hg_overlap.calls_per_suite": ("models.hg_overlap", "calls", "unit"),
    "models.hg_overlap.self_ms_per_suite": ("models.hg_overlap", "self", "unit"),
    "model.state_at.calls_per_op": ("model.state_at", "calls", "op"),
    "model.state_at.self_ms_per_op": ("model.state_at", "self", "op"),
    "model.derivatives_at.calls_per_op": ("model.derivatives_at", "calls", "op"),
    "model.derivatives_at.self_ms_per_op": ("model.derivatives_at", "self", "op"),
    "model.Povm.calls_per_op": ("model.Povm", "calls", "op"),
    "fisher.fisher_bundle.calls_per_op": ("fisher.fisher_bundle", "calls", "op"),
    "fisher.fisher_bundle.self_ms_per_op": ("fisher.fisher_bundle", "self", "op"),
    "fisher.qfi_matrix.calls_per_op": ("fisher.qfi_matrix", "calls", "op"),
    "fisher.qfi_matrix.self_ms_per_op": ("fisher.qfi_matrix", "self", "op"),
    "fisher.sld.calls_per_op": ("fisher.sld", "calls", "op"),
    "susceptibility.susceptibility_report.self_ms_per_op":
        ("susceptibility.susceptibility_report", "self", "op"),
    "susceptibility.a_tensor.calls_per_op": ("susceptibility.a_tensor", "calls", "op"),
    "susceptibility.a_tensor.self_ms_per_op": ("susceptibility.a_tensor", "self", "op"),
    "susceptibility.diagonalize_frame.self_ms_per_op":
        ("susceptibility.diagonalize_frame", "self", "op"),
    "susceptibility.noise_search_oracle.self_ms_per_op":
        ("susceptibility.noise_search_oracle", "self", "op"),
    "linalg.hermitize.calls_per_op": ("linalg.hermitize", "calls", "op"),
    "linalg.hermitize.self_ms_per_op": ("linalg.hermitize", "self", "op"),
    "linalg.trace_norm.calls_per_op": ("linalg.trace_norm", "calls", "op"),
    "linalg.trace_norm.self_ms_per_op": ("linalg.trace_norm", "self", "op"),
    **{f"kernel.{r}.calls_per_op": (f"kernel.{r}", "calls", "op") for r in KERNEL},
    **{f"verify.{c}.ms_per_suite": (f"verify.{c}", "total", "unit") for c in CHECK_NAMES},
}

# metrics computed from more than one span, with their units
OTHER_METRICS = {
    "sweep.csv_bytes_per_unit": "bytes",
    "susceptibility.oracle_useful_share": "ratio",
    "kernel.qr.matrices_per_op": "count",
    "kernel.cubic_work_per_op": "computed_d3",
    "kernel.self_ms_per_op": "ms",
    "failures.op_share": "ratio",
    "failures.HermiticityError.fisher.qfi_matrix.op_share": "ratio",
    "failures.other.op_share": "ratio",
    "setup.import_numpy_ms": "ms",
    "setup.import_scipy_ms": "ms",
    "setup.import_fisusc_ms": "ms",
    "tracing_overhead": "ratio",
}


def span_metric_unit(name):
    return "count" if SPAN_METRICS[name][1] == "calls" else "ms"


def layer_metrics(tracer, ops, failed, units, extra):
    """Per-layer metrics {name: (value, unit)} of the traced passes, which
    ran `ops` ops (`failed` of them failed) in `units` units.

    `extra` supplies the values the spans cannot give: csv_bytes,
    oracle_useful_share, import breakdown and tracing_overhead.
    """
    stats = tracer.aggregate()
    per = {"op": ops, "unit": units}
    out = {}
    for name, (span, stat, norm) in SPAN_METRICS.items():
        entry = stats.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        value = entry["calls"] if stat == "calls" else entry[f"{stat}_s"] * 1e3
        out[name] = (value / per[norm], span_metric_unit(name))
    kernel_self = sum(v["self_s"] for k, v in stats.items() if k.startswith("kernel."))
    hermiticity = tracer.failures.get("HermiticityError@fisher.qfi_matrix", 0)
    computed = {
        "sweep.csv_bytes_per_unit": extra["csv_bytes"] / per["unit"],
        "susceptibility.oracle_useful_share": extra["oracle_useful_share"],
        "kernel.qr.matrices_per_op": tracer.kernel["kernel.qr"][1] / ops,
        "kernel.cubic_work_per_op": sum(v[2] for v in tracer.kernel.values()) / ops,
        "kernel.self_ms_per_op": kernel_self * 1e3 / ops,
        "failures.op_share": failed / ops,
        "failures.HermiticityError.fisher.qfi_matrix.op_share": hermiticity / ops,
        "failures.other.op_share": (failed - hermiticity) / ops,
        "setup.import_numpy_ms": extra["import_ms"]["numpy"],
        "setup.import_scipy_ms": extra["import_ms"]["scipy"],
        "setup.import_fisusc_ms": extra["import_ms"]["fisusc"],
        "tracing_overhead": extra["tracing_overhead"],
    }
    out.update({name: (value, OTHER_METRICS[name]) for name, value in computed.items()})
    return out

