"""Benchmark workloads: fisusc CLI invocations generated from a seed.

A workload is an endless, deterministic stream of *units*, each one CLI
invocation (`fisusc.cli.main(argv)`): one sweep or one verify suite.  An
*op* is one sweep point (one CSV row) or one verify check.  The timed
phase repeats, in rounds, a fixed set of the first `set_size` units; the
set follows the workload's `cycle` pattern of unit kinds.  Sets are kept
small (100 to 400 ops), so that a run holds many rounds.

Why each workload exists:

* qubit-sweeps   d = 2 and 4: per-point time is Python and validation
                 overhead.  The only user of the two-copy `tensor_model`
                 path; keeps the small-delta Bell region where points fail
                 today with HermiticityError.
* point-sources  dense d = 21 and d = 49 algebra through the whole per-point
                 pipeline, via a YAML config (the CLI config path).  Two
                 n_max = 20 sweeps per n_max = 48 sweep, so the median op
                 sits inside the d = 21 cluster and p90 inside the d = 49
                 cluster instead of on the boundary between them.
* worst-case     the sampled noise search on a two-thread pool: the only
                 user of the pool path of `run_sweep`.  250 samples, not
                 1000, so that a round of 100 ops takes ~3 s and a run
                 holds enough rounds; the search is still ~85% of a point.
* verify         `fisusc verify` suites on successive seeds: Hermite-Gauss
                 quadrature and the cross-checks no sweep runs.
"""

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Unit:
    """One CLI invocation and what it needs on disk before it runs."""

    argv: tuple
    out: str                 # CSV or JSON report the invocation writes
    spec: dict = None        # SweepSpec fields of a sweep, None for verify
    config: str = None       # YAML text for argv's --config file
    config_path: str = None


def _sweep_argv(spec):
    argv = ["sweep", "--model", spec["model"], "--measurement", spec["measurement"]]
    for name, value in spec["fixed"].items():
        argv += ["--fix", f"{name}={value!r}"]
    argv += ["--sweep", f"{spec['sweep_name']}:{spec['start']!r}:{spec['stop']!r}:"
                        f"{spec['count']}:{spec['scale']}",
             "--oracle-samples", str(spec["oracle_samples"]),
             "--seed", str(spec["seed"]),
             "--workers", str(spec["workers"]), "--out", spec["out"]]
    return tuple(argv)


def _yaml_config(spec):
    fixed = ", ".join(f"{k}: {v!r}" for k, v in spec["fixed"].items())
    return (f"model: {spec['model']}\n"
            f"measurement: {spec['measurement']}\n"
            f"fix: {{{fixed}}}\n"
            f"sweep: {{name: {spec['sweep_name']}, start: {spec['start']!r}, "
            f"stop: {spec['stop']!r}, count: {spec['count']}, scale: {spec['scale']}}}\n"
            f"n_max: {spec['n_max']}\n"
            f"oracle_samples: {spec['oracle_samples']}\n"
            f"seed: {spec['seed']}\n"
            f"workers: {spec['workers']}\n"
            f"out: {spec['out']}\n")


def _sweep_spec(model, measurement, fixed, name, start, stop, count, out,
                oracle_samples=0, seed=0, workers=1, n_max=20):
    return {"model": model, "measurement": measurement, "fixed": fixed,
            "sweep_name": name, "start": start, "stop": stop, "count": count,
            "scale": "log", "oracle_samples": oracle_samples, "seed": seed,
            "out": out, "workers": workers, "n_max": n_max}


class Workload:
    """Deterministic unit stream of one workload."""

    kind = "sweep"       # ops are sweep rows ('sweep') or verify checks
    set_size = 1         # units in the timed set (>= 100 ops together)
    cycle = 1            # units per cycle of the set's pattern
    trace_units = 1      # units per traced pass
    workers = 1

    def __init__(self, seed):
        self.seed = seed

    def _rng(self, k):
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def unit(self, k, out):
        raise NotImplementedError


class QubitSweeps(Workload):
    name = "qubit-sweeps"
    set_size = 8
    cycle = 2
    trace_units = 4

    def unit(self, k, out):
        measurement = "separable" if k % 2 == 0 else "bell"
        phi = self._rng(k).uniform(0.0, 2.0 * math.pi)
        spec = _sweep_spec("phase-dephasing", measurement, {"phi": phi},
                           "delta", 1e-3, 1.0, 50, out)
        return Unit(argv=_sweep_argv(spec), out=out, spec=spec)


class PointSources(Workload):
    name = "point-sources"
    set_size = 3
    cycle = 3
    trace_units = 3
    N_MAX = (20, 20, 48)

    def unit(self, k, out):
        rng = self._rng(k)
        fixed = {"x_c": rng.uniform(-1.0, 1.0), "q": rng.uniform(0.1, 0.9)}
        spec = _sweep_spec("point-sources", "optimal-hg", fixed, "dx", 0.01, 1.0,
                           50, out, n_max=self.N_MAX[k % 3])
        config_path = out + ".yaml"
        return Unit(argv=("sweep", "--config", config_path), out=out, spec=spec,
                    config=_yaml_config(spec), config_path=config_path)


class WorstCase(Workload):
    name = "worst-case"
    set_size = 10
    trace_units = 2
    workers = 2

    def unit(self, k, out, workers=None):
        rng = self._rng(k)
        fixed = {"x_c": rng.uniform(-1.0, 1.0), "q": rng.uniform(0.1, 0.9)}
        spec = _sweep_spec("point-sources", "optimal-hg", fixed, "dx", 0.01, 1.0,
                           10, out, oracle_samples=250,
                           seed=rng.randrange(2 ** 31),
                           workers=workers or self.workers)
        return Unit(argv=_sweep_argv(spec), out=out, spec=spec)


class Verify(Workload):
    name = "verify"
    kind = "verify"
    set_size = 5
    trace_units = 2

    def unit(self, k, out):
        return Unit(argv=("verify", "--seed", str(self.seed * 1000 + k), "--out", out),
                    out=out)


WORKLOADS = {w.name: w for w in (QubitSweeps, PointSources, WorstCase, Verify)}
