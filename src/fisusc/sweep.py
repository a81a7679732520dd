"""Parameter sweeps with CSV output.

A sweep fixes all but one model parameter, walks the remaining one over
a linear or logarithmic grid and records Fisher/quantum-Fisher matrices,
optimality ratios and susceptibility bounds per point.  Points where the
Fisher matrix is singular are recorded with an error message and the
sweep continues.
"""

import csv
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fisher import (SingularFisherError, SingularScoreError, _qfi_inverse,
                     _ratios, fisher_bundle)
from .linalg import HermiticityError
from .model import DomainError, tensor_model
from .models import (N_MAX_LIMIT, PointSourceConfig, bell_povm,
                     optimal_povm_point_sources, point_source_model,
                     qubit_phase_dephasing, separable_povm, x_opt)
from .susceptibility import sigma_exact, sigma_lower, sigma_upper

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


class SweepSpecError(ValueError):
    """The sweep specification is invalid."""


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    The field defaults are the only sweep defaults: the CLI passes just what
    a config or flag sets.  `run_sweep` writes the CSV to ``out``.  Any
    ``oracle_samples`` > 0 fills ``oracle_best_X`` with `sigma_exact`;
    neither its magnitude nor ``seed`` changes a result.  ``workers`` is
    validated (>= 1) but does not change how points run: `run_sweep`
    evaluates them in order on the calling thread, since threads only pass
    the interpreter lock between a point's small numpy calls.
    """

    model: str
    measurement: str
    fixed: dict
    sweep_name: str
    start: float
    stop: float
    count: int
    scale: str = "log"
    oracle_samples: int = 0
    seed: int = 0
    out: str = "sweep.csv"
    workers: int = 1
    n_max: int = 20

    def validate(self):
        check_model_spec(self.model, self.measurement, self.fixed, self.sweep_name)
        if not np.all(np.isfinite([self.start, self.stop])):
            raise SweepSpecError("sweep limits must be finite")
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
        for value in self.grid()[[0, -1]]:
            checked_model_povm(self.model, self.measurement, _theta_for(self, value),
                               f"sweep endpoint {self.sweep_name} = {value}", self.n_max)

    def grid(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def check_model_spec(model, measurement, fixed, swept=None):
    """Check a model/measurement choice and its fixed values.

    Every model parameter except ``swept`` needs a finite fixed value, and
    only those may have one.  Returns the model's parameter names; raises
    :class:`SweepSpecError`.
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
    if not np.all(np.isfinite(list(fixed.values()))):
        raise SweepSpecError("fixed values must be finite")
    return names


def _theta_for(spec, sweep_value):
    values = {**spec.fixed, spec.sweep_name: float(sweep_value)}
    return np.array([values[n] for n in MODEL_TABLE[spec.model].params])


def build_model_povm(model_id, measurement, theta, n_max=SweepSpec.n_max):
    """Model, measurement POVM and copy count at one parameter point.

    The Hermite-Gauss modes are re-aligned to the intensity centroid of
    the supplied point, mirroring how the optimal measurement is defined;
    within a point the apparatus is fixed.  The POVM itself, in the
    aligned basis, depends on ``n_max`` alone and is built once per
    process (`_measurement_povm`).  The model is the base model's tensor
    power over the copies its measurement acts on (`MODEL_TABLE`: two for
    Bell; one copy is the model itself).  Returns ``(model, povm, copies)``.
    """
    copies = MODEL_TABLE[model_id].measurements[measurement]
    if model_id == "phase-dephasing":
        base = qubit_phase_dephasing()
    else:
        base = point_source_model(PointSourceConfig(n_max=n_max, x_m=x_opt(*theta)))
    return tensor_model(base, copies), _measurement_povm(measurement, n_max), copies


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

    State, derivatives, F and Q are evaluated once; every column reads them
    from the point's Fisher bundle, which holds rho and its derivatives on
    their joint support.  Q (the bundle's `qfi`), `sigma_lower`,
    `sigma_upper` (its total and terms) and, when ``spec.oracle_samples``
    > 0, the exact worst case (one K and best pair) come from those
    operators, and the condition number from the bundle's eigh(F); the
    worst case's noise is never lifted, and Q reads only the eigenbasis
    SLDs.  F and Q are written before F^-1, so a row it refuses still
    carries them.  A Bell row's model is the two-copy state, whose Q is
    2 Q_1 for the single-copy Q_1, so ``tr F^-1 / tr Q^-1`` is its
    two-copies-per-shot ``r_multi = 2 tr F^-1 / tr Q_1^-1``; no
    single-copy Q is computed.
    The row does not depend on ``index``, its grid position.
    """
    f_keys, q_keys, r_keys, sigma_keys = _keys(spec.model)
    row = dict.fromkeys(_columns(spec.model), "")
    row["sweep_value"] = float(sweep_value)
    try:
        theta = _theta_for(spec, sweep_value)
        model, povm, _ = build_model_povm(spec.model, spec.measurement, theta, spec.n_max)
        bundle = fisher_bundle(model, theta, povm)
        F, Q = bundle.fisher, bundle.qfi
        row.update(zip(f_keys, _upper_triangle(F)))
        row.update(zip(q_keys, _upper_triangle(Q)))
        row["r_multi"], r_nuisance = _ratios(bundle.fisher_inverse, _qfi_inverse(Q))
        row.update(zip(r_keys, r_nuisance.tolist()))
        row["sigma_lower"] = sigma_lower(bundle)[0]
        row["sigma_upper"], sigmas = sigma_upper(bundle)
        row.update(zip(sigma_keys, sigmas))
        if spec.oracle_samples > 0:
            row["oracle_best_X"] = sigma_exact(bundle).value
        row["condition_number_F"] = bundle.fisher_condition
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
