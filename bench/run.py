"""fisusc benchmark: drives `fisusc.cli.main` in-process on generated inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.

--trace 0  End-to-end metrics of a closed loop (one unit at a time): a
           small fixed set of units generated from the seed is run in
           rounds until --seconds have passed (and at least 3 rounds).
           Every invocation and cold start is bracketed by a host-speed
           probe and its times are scaled to the probe's reference speed
           (bench/speed.py), because the host's speed changes by up to
           ~1.5x in states that can outlast a run.  Each unit and each op
           is then timed by its median over the rounds.  Metrics:
           set-up (median of cold starts made between rounds), ops/s,
           per-op latency p50/p90 over at least 100 ops, per-unit latency,
           share of ops that succeed, peak RSS.  One warm-up unit precedes
           the timed phase.
--trace 1  Per-layer metrics: a fixed set of units run alternately without
           and with spans around every public fisusc function and the
           numpy.linalg routines (bench/tracing.py) until --seconds have
           passed, plus an import-time breakdown of the cold start.

`attempted` and `failed` in the result line count the distinct ops of the
units run (each op once, however many rounds repeated it), so they depend
on the seed alone; a broken gate item adds to `failed`.

Both modes then run the correctness gate (bench/gate.py), print a
human-readable summary, write it with the environment to
`.bench_out/<workload>-seed<N>-trace<T>.json`, and print one JSON object
as the last line of stdout.  The exit code is 1 when the gate fails, 2
when the checkout has no fisusc sources and 3 when the metrics differ
from those BENCHMARK.json lists.
"""

import os

# one BLAS thread, so that no workload runs more threads than its pool size
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S, SpeedClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
COLDSTART = Path(__file__).resolve().parent / "coldstart.py"

COLD_STARTS = 9
MIN_ROUNDS = 3
IMPORT_PROFILES = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "unit_s_p50": "s", "ok_op_share": "ratio",
                    "peak_rss_mb": "MB"}


class OpRecorder:
    """Times each op with one perf_counter pair and counts failed ops.

    Sweep ops are calls of `fisusc.sweep.evaluate_point`; their row dicts
    are kept for the gate while `keep_rows` is set (repeats of a unit give
    identical rows, and keeping them all would inflate peak RSS).  Verify
    ops are the check functions of `fisusc.verify.CHECKS`.  Each time is
    recorded with its op's key (grid index or check name, because pool
    threads finish points out of grid order) and whether the op failed.
    """

    def __init__(self, fisusc, kind):
        self._fisusc = fisusc
        self.kind = kind
        self.times = []          # (op key, ms, failed)
        self.failed = 0
        self.rows = []
        self.keep_rows = True
        self.failed_checks = set()

    @contextlib.contextmanager
    def installed(self):
        if self.kind == "sweep":
            sweep = self._fisusc.sweep
            original = sweep.evaluate_point

            def timed_point(spec, index, sweep_value):
                t0 = time.perf_counter()
                row = original(spec, index, sweep_value)
                failed = bool(row["error"])
                self.times.append((index, (time.perf_counter() - t0) * 1e3, failed))
                self.failed += failed
                if self.keep_rows:
                    self.rows.append(row)
                return row

            sweep.evaluate_point = timed_point
            try:
                yield self
            finally:
                sweep.evaluate_point = original
        else:
            verify = self._fisusc.verify
            original = verify.CHECKS

            def timed_check(name, fn):
                def run(seed):
                    t0 = time.perf_counter()
                    passed = False
                    try:
                        result = fn(seed)
                        passed = bool(result[0])
                        return result
                    finally:
                        self.times.append((name, (time.perf_counter() - t0) * 1e3,
                                           not passed))
                        if not passed:
                            self.failed += 1
                            self.failed_checks.add(name)
                return run

            verify.CHECKS = [(name, timed_check(name, fn)) for name, fn in original]
            try:
                yield self
            finally:
                verify.CHECKS = original


def fold_ops(slots, j, entries, scale=1.0):
    """Fold one run of unit j's ops into `slots`, keyed by (unit, op key),
    each [ms of every run times `scale`, failed in any run].  The slots are
    the set's distinct ops, so their count and failures depend on the seed
    alone and not on how many rounds fit in the run."""
    for key, ms, failed in entries:
        slot = slots.setdefault((j, key), [[], False])
        slot[0].append(ms * scale)
        slot[1] = slot[1] or failed


def run_unit(fisusc, unit):
    """Run one CLI invocation with its output silenced; (exit code, seconds)."""
    if unit.config is not None:
        Path(unit.config_path).write_text(unit.config)
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = fisusc.cli.main(list(unit.argv))
        return rc, time.perf_counter() - t0


def cold_start(unit, *flags):
    """Launch a fresh interpreter that imports fisusc.cli and validates the
    unit's spec; (seconds from launch to validated spec, its stderr)."""
    job = json.dumps({"src": str(SRC), "argv": list(unit.argv), "spec": unit.spec})
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *flags, str(COLDSTART), job],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["done"] - t0, proc.stderr


def _importtime_breakdown(stderr):
    """ms spent importing numpy, scipy and the rest of fisusc.cli (-X importtime)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    numpy_ms = scipy_ms = fisusc_ms = 0.0
    path = []
    # importtime lists a module after its imports; reversed, parents come first
    for depth, name, ms in reversed(entries):
        del path[depth:]
        inside = list(path)
        path.append(name)
        root = name.split(".")[0]
        if any(p.split(".")[0] in ("numpy", "scipy") for p in inside):
            continue
        if root == "numpy":
            numpy_ms += ms
        elif root == "scipy":
            scipy_ms += ms
        elif root == "fisusc" and depth == 0:
            fisusc_ms += ms
    return {"numpy": numpy_ms, "scipy": scipy_ms,
            "fisusc": fisusc_ms - numpy_ms - scipy_ms}


def import_profiles(unit, n):
    """Median import breakdown over n cold starts under -X importtime."""
    runs = [_importtime_breakdown(cold_start(unit, "-X", "importtime")[1])
            for _ in range(n)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment(args, workload):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpu.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/size")
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": model, "caches": caches,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pool_workers": workload.workers,
    }


def quantile(values, q):
    """Quantile with linear interpolation between order statistics."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, fisusc, workload, args, workdir):
        self.fisusc = fisusc
        self.workload = workload
        self.args = args
        self.workdir = workdir
        self.problems = []       # correctness-gate failures
        self.gate_ops = 0        # gate items broken (count towards `failed`)
        self.samples = {}        # metric -> sample description
        self.notes = {}
        self.raw = {}            # samples behind the metrics, for the report file

    def path(self, name):
        return str(self.workdir / name)

    def check_rc(self, unit, rc):
        if rc != 0:
            self.problems.append(f"fisusc {unit.argv[0]} exited {rc}")
            self.gate_ops += 1

    # -- correctness gate ------------------------------------------------

    def gate(self, recorder, warm_unit):
        from gate import (README_SWEEPS, compare_to_reference, load_reference,
                          read_csv_rows, row_violations)
        reference = load_reference()
        for name, argv in README_SWEEPS.items():
            out = self.path(f"readme-{name}.csv")
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = self.fisusc.cli.main(list(argv) + ["--out", out])
            if rc != 0:
                self.problems.append(f"README sweep {name} exited {rc}")
            rows = read_csv_rows(out)
            found = compare_to_reference(name, rows, reference)
            self.notes[f"readme_{name}_failed_rows"] = sum(1 for row in rows if row["error"])
            self.problems += found
            self.gate_ops += len(found)
        if recorder.kind == "sweep":
            found = row_violations(recorder.rows)
            self.problems += found
            self.gate_ops += len(found)
        else:
            if recorder.failed_checks:
                self.problems.append(f"verify checks failed: {sorted(recorder.failed_checks)}")
        if self.workload.workers > 1:
            single = self.workload.unit(0, self.path("single-worker.csv"), workers=1)
            self.check_rc(single, run_unit(self.fisusc, single)[0])
            if Path(single.out).read_bytes() != Path(warm_unit.out).read_bytes():
                self.problems.append(
                    f"CSV differs between --workers {self.workload.workers} and "
                    f"--workers 1 for the same spec")
                self.gate_ops += 1

    # -- untraced run: end-to-end metrics -----------------------------------

    def end_to_end(self):
        wl = self.workload
        units = [wl.unit(j, self.path(f"timed-{j}.out")) for j in range(wl.set_size)]
        warm = wl.unit(0, self.path("warmup.out"))
        self.check_rc(warm, run_unit(self.fisusc, warm)[0])
        recorder = OpRecorder(self.fisusc, wl.kind)
        unit_s = [[] for _ in units]          # scaled time of each unit, per round
        raw_unit_s = [[] for _ in units]
        slots = {}                            # (unit, op key) -> [scaled ms, failed]
        rounds = 0
        setup, raw_setup = [], []

        def timed_cold_start():
            seconds = cold_start(units[0])[0]
            raw_setup.append(seconds)
            setup.append(seconds * clock.factor())

        clock = SpeedClock()
        t_start = time.perf_counter()
        with recorder.installed():
            while rounds < MIN_ROUNDS or time.perf_counter() - t_start < self.args.seconds:
                # cold starts go between rounds, spread over the run like the
                # units' repeats, and never between two units of one round
                if (len(setup) < COLD_STARTS and time.perf_counter() - t_start
                        >= len(setup) * self.args.seconds / COLD_STARTS):
                    timed_cold_start()
                for j, unit in enumerate(units):
                    before = len(recorder.times)
                    rc, seconds = run_unit(self.fisusc, unit)
                    scale = clock.factor()
                    self.check_rc(unit, rc)
                    unit_s[j].append(seconds * scale)
                    raw_unit_s[j].append(seconds)
                    fold_ops(slots, j, recorder.times[before:], scale)
                rounds += 1
                recorder.keep_rows = False
        elapsed = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < COLD_STARTS:
            timed_cold_start()
        ops = len(slots)
        failed = sum(1 for _, f in slots.values() if f)
        op_ms = [statistics.median(ms) for ms, _ in slots.values()]
        unit_med = [statistics.median(t) for t in unit_s]
        cycles = [statistics.fmean(unit_med[c:c + wl.cycle])
                  for c in range(0, len(units), wl.cycle)]
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops / sum(unit_med),
            "op_ms_p50": quantile(op_ms, 0.5),
            "op_ms_p90": quantile(op_ms, 0.9),
            "unit_s_p50": statistics.median(cycles),
            "ok_op_share": (ops - failed) / ops,
            "peak_rss_mb": peak_rss_mb,
        }
        self.samples = {
            "setup_s": f"median of {len(setup)} cold starts between rounds",
            "ops_per_s": f"{ops} ops of {len(units)} units, each unit's median of "
                         f"{rounds} rounds",
            "op_ms_p50": f"{ops} ops, each its median of {rounds} rounds",
            "op_ms_p90": f"{ops} ops, each its median of {rounds} rounds",
            "unit_s_p50": f"median of {len(cycles)} cycles of {wl.cycle} units",
            "ok_op_share": f"{ops - failed} of {ops} distinct ops; "
                           f"failed_op_share = {failed / ops:.6f}",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        probe_ms = statistics.median(clock.probes) * 1e3
        self.notes["host_probe_ms"] = {"median": probe_ms,
                                       "reference": REFERENCE_S * 1e3,
                                       "min": min(clock.probes) * 1e3,
                                       "max": max(clock.probes) * 1e3}
        self.raw = {"setup_s": setup, "unscaled_setup_s": raw_setup, "rounds": rounds,
                    "unit_s_median": unit_med,
                    "unscaled_unit_s_median": [statistics.median(t) for t in raw_unit_s],
                    "ops_run": len(recorder.times),
                    "unscaled_all_ops_per_s": len(recorder.times) / elapsed}
        self.gate(recorder, warm)
        return ({name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
                ops, failed)

    # -- traced run: per-layer metrics ----------------------------------------

    def per_layer(self):
        from tracing import Tracer, layer_metrics
        wl = self.workload
        units = [wl.unit(k, self.path(f"traced-{k}.out")) for k in range(wl.trace_units)]
        imports = import_profiles(units[0], IMPORT_PROFILES)
        warm = wl.unit(0, self.path("warmup.out"))
        self.check_rc(warm, run_unit(self.fisusc, warm)[0])
        tracer = Tracer(self.fisusc)
        best = {False: math.inf, True: math.inf}   # fastest pass of each kind
        passes = traced_ops = traced_failed = traced_units = 0
        slots = {}                                  # (unit, op key) -> [ms, failed]
        csv_bytes = 0
        checked = OpRecorder(self.fisusc, wl.kind)   # what the gate checks
        t_start = time.perf_counter()
        while True:
            for traced in (False, True):
                recorder = OpRecorder(self.fisusc, wl.kind)
                with (tracer.installed() if traced else contextlib.nullcontext()), \
                        recorder.installed():
                    t0 = time.perf_counter()
                    for j, unit in enumerate(units):
                        before = len(recorder.times)
                        self.check_rc(unit, run_unit(self.fisusc, unit)[0])
                        fold_ops(slots, j, recorder.times[before:])
                    best[traced] = min(best[traced], time.perf_counter() - t0)
                if passes == 0:
                    checked.rows += recorder.rows
                checked.failed_checks |= recorder.failed_checks
                if traced:
                    traced_ops += len(recorder.times)
                    traced_failed += recorder.failed
                    traced_units += len(units)
                    if wl.kind == "sweep":
                        csv_bytes += sum(os.path.getsize(u.out) for u in units)
            passes += 1
            if time.perf_counter() - t_start >= self.args.seconds:
                break
        searched = [r for r in checked.rows
                    if not r["error"] and r["oracle_best_X"] != ""]
        useful = sum(1 for r in searched
                     if r["oracle_best_X"] > r["sigma_lower"] * (1 + 1e-9))
        extra = {"csv_bytes": csv_bytes,
                 "oracle_useful_share": useful / len(searched) if searched else 0.0,
                 "import_ms": imports,
                 "tracing_overhead": 1.0 - best[False] / best[True]}
        metrics = layer_metrics(tracer, traced_ops, traced_failed, traced_units, extra)
        self.samples = {"traced": f"{traced_ops} ops in {traced_units} units",
                        "attempted": f"{len(slots)} distinct ops of {len(units)} units",
                        "tracing_overhead": f"fastest of {passes} untraced and "
                                            f"{passes} traced passes",
                        "import breakdown": f"median of {IMPORT_PROFILES} cold starts"}
        self.notes["failures_by_class"] = dict(tracer.failures)
        self.notes["failure_chains"] = dict(tracer.failure_chains)
        self.notes["kernel"] = {name: {"calls": c, "matrices": m, "computed_d3": w}
                                for name, (c, m, w) in sorted(tracer.kernel.items())}
        self.notes["top_self_ms_per_op"] = {
            name: round(s["self_s"] * 1e3 / traced_ops, 4)
            for name, s in sorted(tracer.aggregate().items(),
                                  key=lambda kv: -kv[1]["self_s"])[:12]}
        self.gate(checked, warm)
        return metrics, len(slots), sum(1 for _, f in slots.values() if f)


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "fisusc" / "__init__.py").is_file():
        print(f"no fisusc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fisusc
    import fisusc.cli
    if Path(fisusc.__file__).resolve().parent != SRC / "fisusc":
        print(f"imported fisusc from {fisusc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(fisusc, workload, args, workdir)
        metrics, attempted, failed = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    manifest = ROOT / "BENCHMARK.json"
    if manifest.is_file():
        listed = json.loads(manifest.read_text())["per_layer" if args.trace else "end_to_end"]
        if {m["name"] for m in listed} != set(metrics):
            print("reported metrics differ from those listed in BENCHMARK.json",
                  file=sys.stderr)
            return 3

    env = environment(args, workload)
    correct = not run.problems
    failed = min(attempted, failed + run.gate_ops)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {"env": env, "samples": run.samples, "notes": run.notes,
              "problems": run.problems[:50], "raw": run.raw, "metrics": reported}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{attempted} distinct ops attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        sample = run.samples.get(name)
        print(f"  {name:<52} {value:>14.6g} {unit:<12}" + (f" ({sample})" if sample else ""))
    if args.trace:
        print(f"  samples: {json.dumps(run.samples)}")
    for key, value in run.notes.items():
        print(f"  {key}: {json.dumps(value)}")
    for problem in run.problems[:20]:
        print(f"  GATE FAILURE: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
