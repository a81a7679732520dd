"""Parameter sweeps with CSV output.

A sweep fixes all but one model parameter, walks the remaining one over
a linear or logarithmic grid and records Fisher/quantum-Fisher matrices,
optimality ratios and susceptibility bounds per point.  Points where the
Fisher matrix is singular are recorded with an error message and the
sweep continues.
"""

import csv
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fisher, susceptibility
from .fisher import SingularFisherError, SingularScoreError, fisher_bundle
from .linalg import HermiticityError
from .model import DomainError, tensor_model
from .models import (N_MAX_LIMIT, PointSourceConfig, bell_povm,
                     optimal_povm_point_sources, point_source_model,
                     qubit_phase_dephasing, separable_povm, x_opt)

ModelEntry = namedtuple("ModelEntry", "params measurements log_axes")
# each model's parameter names, measurements (with the copies each acts on)
# and the axes a sweep spaces on a log grid by default: their limits of
# interest, delta -> 0 and dx -> 0, sit at zero
MODEL_TABLE = {
    "phase-dephasing": ModelEntry(("phi", "delta"), {"separable": 1, "bell": 2}, ("delta",)),
    "point-sources": ModelEntry(("x_c", "dx", "q"), {"optimal-hg": 1}, ("dx",)),
}
MODELS = tuple(MODEL_TABLE)
MEASUREMENTS = tuple(m for entry in MODEL_TABLE.values() for m in entry.measurements)
# failures of the numerics at a point; any other exception is a bug and
# propagates out of the sweep
NUMERICAL_ERRORS = (SingularFisherError, SingularScoreError, DomainError,
                    HermiticityError, np.linalg.LinAlgError)


# each SweepSpec field's kind for `check_value`: a name, a finite real number or an
# integer; ``fixed`` maps names to numbers, and ``scale`` is one of two names
FIELD_KINDS = {"model": str, "measurement": str, "sweep_name": str, "start": float,
               "stop": float, "count": int, "oracle_samples": int, "seed": int,
               "out": str, "workers": int, "n_max": int}
_KIND_TYPES = {str: (str, "a string"), float: (numbers.Real, "a number"),
               int: (numbers.Integral, "an integer")}


class SweepSpecError(ValueError):
    """The sweep specification is invalid."""


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    The field defaults are the only sweep defaults: the CLI passes just what
    a config or flag sets.  A ``scale`` left None becomes "log" on the
    model's `MODEL_TABLE` log axes and "linear" on any other.  `run_sweep`
    writes the CSV to ``out``.  `validate` judges each field by `check_value`,
    as the CLI judges a YAML config's values, then its range; a grid numpy
    cannot build is refused.  Any ``oracle_samples`` > 0 fills
    ``oracle_best_X`` with `sigma_exact`; neither its magnitude nor
    ``seed`` changes a result.  ``workers`` is validated (>= 1) but does
    not change how points run: `run_sweep` evaluates them in order on the
    calling thread, since threads only pass the interpreter lock between a
    point's small numpy calls.
    """

    model: str
    measurement: str
    fixed: dict
    sweep_name: str
    start: float
    stop: float
    count: int
    scale: str = None
    oracle_samples: int = 0
    seed: int = 0
    out: str = "sweep.csv"
    workers: int = 1
    n_max: int = 20

    def __post_init__(self):
        if self.scale is None and self.model in MODELS:     # else validate refuses the model
            log = self.sweep_name in MODEL_TABLE[self.model].log_axes
            object.__setattr__(self, "scale", "log" if log else "linear")

    def validate(self):
        for key, kind in FIELD_KINDS.items():
            check_value(key, getattr(self, key), kind)
        check_model_spec(self.model, self.measurement, self.fixed, self.sweep_name)
        if not 3 <= self.n_max <= N_MAX_LIMIT:
            raise SweepSpecError(f"n_max must be between 3 and {N_MAX_LIMIT}")
        if self.count < 2:
            raise SweepSpecError("count must be >= 2")
        if self.scale not in ("linear", "log"):
            raise SweepSpecError("scale must be 'linear' or 'log'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise SweepSpecError("log scale needs positive start/stop")
        if self.oracle_samples < 0 or self.workers < 1:
            raise SweepSpecError("oracle_samples must be >= 0 and workers >= 1")
        try:
            ends = self.grid()[[0, -1]]
        except (ValueError, OverflowError) as err:     # numpy refuses before it allocates
            raise SweepSpecError(f"count is too large for a grid: {err}")
        for value in ends:
            checked_model_povm(self.model, self.measurement, _theta_for(self, value),
                               f"sweep endpoint {self.sweep_name} = {value}", self.n_max)

    def grid(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def check_model_spec(model, measurement, fixed, swept=None):
    """Check a model/measurement choice and its fixed values.

    Every model parameter except ``swept`` needs a fixed value, and only
    those may have one; `check_value` judges the values.  Returns the
    model's parameter names; raises :class:`SweepSpecError`.
    """
    if model not in MODELS:
        raise SweepSpecError(f"unknown model {model!r}; choose from {MODELS}")
    if measurement not in MEASUREMENTS:
        raise SweepSpecError(
            f"unknown measurement {measurement!r}; choose from {MEASUREMENTS}")
    if measurement not in MODEL_TABLE[model].measurements:
        raise SweepSpecError(
            f"measurement {measurement!r} does not apply to model {model!r}")
    names = MODEL_TABLE[model].params
    if swept is not None and swept not in names:
        raise SweepSpecError(f"sweep parameter {swept!r} not in {names}")
    fixable = [n for n in names if n != swept]
    missing = [n for n in fixable if n not in fixed]
    if missing:
        raise SweepSpecError(f"missing fixed values for {missing}")
    unknown = [n for n in fixed if n not in fixable]
    if unknown:
        raise SweepSpecError(f"cannot fix {unknown}; fixable parameters are {fixable}")
    for name, value in fixed.items():
        check_value(f"fix {name}", value, float)
    return names


def check_value(key, value, kind):
    """Refuse a ``value`` of ``key`` that is not of its `FIELD_KINDS` ``kind``:
    a str, a finite real number (float; no bool, no int too large for a
    double) or an integer (int; no bool, no float whatever its value).  A
    value is named by its repr if it is a bool, float, str or bytes, else by
    its type (a deep list's repr exhausts the stack)."""
    base, what = _KIND_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, base):
        got = repr(value) if isinstance(value, (bool, float, str, bytes)) else type(value).__name__
        raise SweepSpecError(f"{key} must be {what}, got {got}")
    try:
        finite = kind is not float or math.isfinite(value)
    except OverflowError:
        finite, value = False, "an integer too large for a double"
    if not finite:
        raise SweepSpecError(f"{key} must be finite, got {value}")


def _theta_for(spec, sweep_value):
    values = {**spec.fixed, spec.sweep_name: float(sweep_value)}
    return np.array([values[n] for n in MODEL_TABLE[spec.model].params])


def build_model_povm(model_id, measurement, theta, n_max=SweepSpec.n_max):
    """Model, measurement POVM and copy count at one parameter point.

    The Hermite-Gauss modes are re-aligned to the intensity centroid of
    the supplied point, mirroring how the optimal measurement is defined;
    within a point the apparatus is fixed.  The POVM itself, in the
    aligned basis, depends on ``n_max`` alone, and the qubit models on
    nothing: each is built once per process (`_measurement_povm`,
    `_phase_dephasing_model`).  The model is the base model's tensor
    power over the copies its measurement acts on (`MODEL_TABLE`: two for
    Bell; one copy is the model itself).  Returns ``(model, povm, copies)``.
    """
    copies = MODEL_TABLE[model_id].measurements[measurement]
    if model_id == "phase-dephasing":
        model = _phase_dephasing_model(copies)
    else:
        model = tensor_model(point_source_model(
            PointSourceConfig(n_max=n_max, x_m=x_opt(*theta))), copies)
    return model, _measurement_povm(measurement, n_max), copies


@lru_cache(maxsize=None)
def _phase_dephasing_model(copies):
    """The qubit model's power over ``copies``; shared, it keeps its last point."""
    return tensor_model(qubit_phase_dephasing(), copies)


def checked_model_povm(model_id, measurement, theta, where, n_max=SweepSpec.n_max):
    """`build_model_povm`; a point outside the domain is a `SweepSpecError` at ``where``."""
    built = build_model_povm(model_id, measurement, theta, n_max)
    if not built[0].in_domain(theta):
        raise SweepSpecError(f"{where} leaves the model domain")
    return built


@lru_cache(maxsize=32)
def _measurement_povm(measurement, n_max):
    """The validated POVM of a measurement; shared, its elements are read-only."""
    if measurement == "bell":
        return bell_povm()
    if measurement == "separable":
        return separable_povm()
    # the elements depend on n_max only, not on the alignment point x_m
    return optimal_povm_point_sources(PointSourceConfig(n_max=n_max, x_m=0.0))


def _upper_triangle(M):
    """The upper triangle of M, row by row, as Python floats."""
    rows = M.tolist()
    return [rows[i][j] for i in range(len(rows)) for j in range(i, len(rows))]


@lru_cache(maxsize=None)
def _keys(model_id):
    """The per-parameter column names of a model: ``(F_*, Q_*, r_nuisance_*,
    sigma_*)``, the matrix entries in `_upper_triangle` order."""
    names = MODEL_TABLE[model_id].params
    pairs = [f"{names[i]}_{names[j]}" for i in range(len(names))
             for j in range(i, len(names))]
    return (tuple(f"F_{p}" for p in pairs), tuple(f"Q_{p}" for p in pairs),
            tuple(f"r_nuisance_{n}" for n in names), tuple(f"sigma_{n}" for n in names))


@lru_cache(maxsize=None)
def _columns(model_id):
    f_keys, q_keys, r_keys, sigma_keys = _keys(model_id)
    return ("sweep_value", *f_keys, *q_keys, "r_multi", *r_keys,
            "sigma_lower", "sigma_upper", *sigma_keys,
            "oracle_best_X", "condition_number_F", "error")


def evaluate_point(spec, index, sweep_value):
    """One sweep row as a dict; numerical failures land in 'error'.

    One pass: each stage helper that the library functions and the bundle's
    attributes call runs once, in order, on explicit arrays.  The point's
    bundle (F and rho with its derivatives on their joint support) gives Q
    (`_eigen_slds`); one checked inverse of (F, Q) gives eigh(F) too
    (`_checked_inverse_and_eigh`), then the ratios, both bounds from one
    kernel call and one spectrum (`_pair_bounds`), the exact worst case
    when ``spec.oracle_samples`` > 0 (`_exact_worst_case`, which never
    builds its noise) and cond(F).  Every value has the bits of the public
    functions on a fresh bundle.  F and Q are written before they are
    inverted, so a row that refuses either still carries them.  A Bell
    row's model is the two-copy state, whose Q is 2 Q_1 for the single-copy Q_1, so
    ``tr F^-1 / tr Q^-1`` is its two-copies-per-shot
    ``r_multi = 2 tr F^-1 / tr Q_1^-1``; no single-copy Q is computed.
    The row does not depend on ``index``, its grid position.
    """
    f_keys, q_keys, r_keys, sigma_keys = _keys(spec.model)
    row = dict.fromkeys(_columns(spec.model), "")
    row["sweep_value"] = float(sweep_value)
    try:
        theta = _theta_for(spec, sweep_value)
        model, povm, _ = build_model_povm(spec.model, spec.measurement, theta, spec.n_max)
        bundle = fisher_bundle(model, theta, povm)
        _, rho, derivs = bundle.support
        F, Q = bundle.fisher, fisher._eigen_slds(rho, derivs, bundle.rho_eigh)[2]
        row.update(zip(f_keys, _upper_triangle(F)))
        row.update(zip(q_keys, _upper_triangle(Q)))
        (Finv, Qinv), eig = fisher._checked_inverse_and_eigh((F, Q))
        row["r_multi"], r_nuisance = fisher._ratios(Finv, Qinv)
        row.update(zip(r_keys, r_nuisance.tolist()))
        bounds = susceptibility._pair_bounds(bundle, Finv, eig)
        row["sigma_lower"], row["sigma_upper"] = bounds.lower, bounds.upper
        row.update(zip(sigma_keys, bounds.sigmas))
        if spec.oracle_samples > 0:
            row["oracle_best_X"] = susceptibility._exact_worst_case(
                bundle, bounds.best_pair, bounds.k_operators).value
        row["condition_number_F"] = fisher._condition(eig[0])
    except NUMERICAL_ERRORS as err:
        row["error"] = str(err)
    return row


def run_sweep(spec):
    """Run the sweep, write its CSV to ``spec.out`` and return the row dicts.

    Points run in grid order on the calling thread, whatever ``spec.workers``
    says; the output, opened before the first point, is byte-identical
    for an identical spec.  Every number is written with 17 significant
    digits, and the error text as it is.
    """
    spec.validate()
    cols = _columns(spec.model)
    with open(spec.out, "w", newline="") as fh:
        rows = [evaluate_point(spec, i, v) for i, v in enumerate(spec.grid())]
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows([v if isinstance(v, str) else f"{v:.17g}"
                          for v in map(row.__getitem__, cols)] for row in rows)
    return rows
