"""Parameter sweeps with CSV output.

A sweep fixes all but one model parameter, walks the remaining one over
a linear or logarithmic grid and records Fisher/quantum-Fisher matrices,
optimality ratios and susceptibility bounds per point.  Points where the
Fisher matrix is singular are recorded with an error message and the
sweep continues.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fisher import (SingularFisherError, SingularScoreError, _eigen_slds,
                     _qfi_inverse, _ratios, fisher_bundle)
from .linalg import HermiticityError
from .model import DomainError, tensor_model
from .models import (N_MAX_LIMIT, PointSourceConfig, bell_povm,
                     optimal_povm_point_sources, point_source_model,
                     qubit_phase_dephasing, separable_povm, x_opt)
from .susceptibility import sigma_exact, sigma_lower, sigma_upper

MODELS = ("phase-dephasing", "point-sources")
MEASUREMENTS = ("separable", "bell", "optimal-hg")
# failures of the numerics at a point; any other exception is a bug and
# propagates out of the sweep
NUMERICAL_ERRORS = (SingularFisherError, SingularScoreError, DomainError,
                    HermiticityError, np.linalg.LinAlgError)
_MEASUREMENT_FOR_MODEL = {
    "phase-dephasing": ("separable", "bell"),
    "point-sources": ("optimal-hg",),
}


class SweepSpecError(ValueError):
    """The sweep specification is invalid."""


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    Any ``oracle_samples`` > 0 fills ``oracle_best_X`` with `sigma_exact`;
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
        grid = self.grid()
        for value in (grid[0], grid[-1]):
            check_in_domain(_build_model(self, value)[0], _theta_for(self, value),
                            f"sweep endpoint {self.sweep_name} = {value}")

    def grid(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def _param_names(model_id):
    return ("phi", "delta") if model_id == "phase-dephasing" else ("x_c", "dx", "q")


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
    if measurement not in _MEASUREMENT_FOR_MODEL[model]:
        raise SweepSpecError(
            f"measurement {measurement!r} does not apply to model {model!r}")
    names = _param_names(model)
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


def check_in_domain(model, theta, where):
    """Raise :class:`SweepSpecError` when ``theta`` is outside the model domain."""
    if not model.in_domain(theta):
        raise SweepSpecError(f"{where} leaves the model domain")


def _theta_for(spec, sweep_value):
    values = dict(spec.fixed)
    values[spec.sweep_name] = float(sweep_value)
    return np.array([values[n] for n in _param_names(spec.model)])


def build_model_povm(model_id, measurement, theta, n_max=20):
    """Model, measurement POVM and copy count at one parameter point.

    The Hermite-Gauss modes are re-aligned to the intensity centroid of
    the supplied point, mirroring how the optimal measurement is defined;
    within a point the apparatus is fixed.  The POVM itself, in the
    aligned basis, depends on ``n_max`` alone and is built once per
    process (`_measurement_povm`).  The Bell measurement acts on two
    copies, so its model is the tensor square of the qubit model.
    Returns ``(model, povm, copies)``.
    """
    povm = _measurement_povm(measurement, n_max)
    if model_id == "phase-dephasing":
        base = qubit_phase_dephasing()
        if measurement == "bell":
            return tensor_model(base, 2), povm, 2
        return base, povm, 1
    model = point_source_model(PointSourceConfig(n_max=n_max, x_m=x_opt(*theta)))
    return model, povm, 1


@lru_cache(maxsize=32)
def _measurement_povm(measurement, n_max):
    """The validated POVM of a measurement; shared, its elements are read-only."""
    if measurement == "bell":
        return bell_povm()
    if measurement == "separable":
        return separable_povm()
    # the elements do not depend on the alignment point x_m
    return optimal_povm_point_sources(PointSourceConfig(n_max=n_max, x_m=0.0))


def _build_model(spec, sweep_value):
    theta = _theta_for(spec, sweep_value)
    return build_model_povm(spec.model, spec.measurement, theta, spec.n_max)


def _upper_triangle(M):
    """The upper triangle of M, row by row, as Python floats."""
    rows = M.tolist()
    return [rows[i][j] for i in range(len(rows)) for j in range(i, len(rows))]


def sweep_columns(spec):
    return list(_columns(spec.model))


@lru_cache(maxsize=None)
def _columns(model_id):
    names = _param_names(model_id)
    cols = ["sweep_value"]
    cols += [f"F_{names[i]}_{names[j]}" for i in range(len(names))
             for j in range(i, len(names))]
    cols += [f"Q_{names[i]}_{names[j]}" for i in range(len(names))
             for j in range(i, len(names))]
    cols += ["r_multi"]
    cols += [f"r_nuisance_{n}" for n in names]
    cols += ["sigma_lower", "sigma_upper"]
    cols += [f"sigma_{n}" for n in names]
    cols += ["oracle_best_X", "condition_number_F", "error"]
    return tuple(cols)


def evaluate_point(spec, index, sweep_value):
    """One sweep row as a dict; numerical failures land in 'error'.

    State, derivatives, F and Q are evaluated once; every column reads
    them from the point's Fisher bundle, which holds rho and its
    derivatives on their joint support.  Q, `sigma_lower`, `sigma_upper`
    (its total and terms) and, when ``spec.oracle_samples`` > 0, the exact
    worst case (one K and best pair) come from those operators, and the
    condition number from the bundle's eigh(F); the worst case's noise is
    never lifted, and Q reads only the eigenbasis SLDs.  F and Q are
    written before F^-1, so a row it refuses still carries them.  A Bell
    row's model is the two-copy state, whose Q is 2 Q_1 for the
    single-copy Q_1, so ``tr F^-1 / tr Q^-1`` is its two-copies-per-shot
    ``r_multi = 2 tr F^-1 / tr Q_1^-1``; no single-copy Q is computed.
    The row does not depend on ``index``, its grid position.
    """
    names = _param_names(spec.model)
    row = dict.fromkeys(_columns(spec.model), "")
    row["sweep_value"] = float(sweep_value)
    try:
        model, povm, _ = _build_model(spec, sweep_value)
        theta = _theta_for(spec, sweep_value)
        bundle = fisher_bundle(model, theta, povm)
        F, Q = bundle.fisher, _eigen_slds(*bundle.support[1:])[2]
        pairs = [f"{names[i]}_{names[j]}" for i in range(len(names))
                 for j in range(i, len(names))]
        for key, f, q in zip(pairs, _upper_triangle(F), _upper_triangle(Q)):
            row[f"F_{key}"], row[f"Q_{key}"] = f, q
        row["r_multi"], r_nuisance = _ratios(bundle.fisher_inverse, _qfi_inverse(Q))
        for n, r in zip(names, r_nuisance.tolist()):
            row[f"r_nuisance_{n}"] = r
        row["sigma_lower"] = sigma_lower(bundle)[0]
        row["sigma_upper"], sigmas = sigma_upper(bundle)
        for n, s in zip(names, sigmas):
            row[f"sigma_{n}"] = s
        if spec.oracle_samples > 0:
            row["oracle_best_X"] = sigma_exact(bundle).value
        row["condition_number_F"] = bundle.fisher_condition
    except NUMERICAL_ERRORS as err:
        row["error"] = str(err)
    return row


def run_sweep(spec, out_path=None):
    """Run the sweep and write a CSV; returns the list of row dicts.

    Points run in grid order on the calling thread, whatever ``spec.workers``
    says; the output, opened before the first point, is byte-identical
    for an identical spec.  Every number is written with 17 significant
    digits, and the error text as it is.
    """
    spec.validate()
    cols = sweep_columns(spec)
    with open(out_path or spec.out, "w", newline="") as fh:
        rows = [evaluate_point(spec, i, v) for i, v in enumerate(spec.grid())]
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows([v if isinstance(v, str) else f"{v:.17g}"
                          for v in map(row.__getitem__, cols)] for row in rows)
    return rows
