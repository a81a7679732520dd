"""The README sweeps against the recorded reference values.

Runs the three README sweeps through the command line and applies the
benchmark's correctness gate (`bench/gate.py`): the F_*, Q_*, r_* and
sigma_* columns must match `bench/reference.json` within relative 1e-9,
and every error-free row must satisfy the bound-order invariants.
"""

import contextlib
import csv
import importlib.util
import io
from pathlib import Path

import pytest

import fisusc.sweep as sweep
from fisusc.cli import main
from fisusc.sweep import SweepSpec, run_sweep

_spec = importlib.util.spec_from_file_location(
    "bench_gate", Path(__file__).resolve().parent.parent / "bench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

REFERENCE = gate.load_reference()


def _csv_rows_as_values(path):
    """CSV rows as evaluate_point-style dicts: floats, '' for empty cells."""
    with open(path, newline="") as fh:
        return [{k: v if k == "error" or v == "" else float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("name", sorted(gate.README_SWEEPS))
def test_readme_sweep_matches_reference(name, tmp_path):
    out = str(tmp_path / f"{name}.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(gate.README_SWEEPS[name]) + ["--out", out]) == 0
    assert gate.compare_to_reference(name, gate.read_csv_rows(out), REFERENCE) == []
    assert gate.row_violations(_csv_rows_as_values(out)) == []


def test_n_max_48_point_source_sweep_rows_hold_the_invariants(tmp_path):
    # d = 49: the largest dimension a shipped sweep configuration runs
    spec = SweepSpec(model="point-sources", measurement="optimal-hg",
                     fixed={"x_c": 0.0, "q": 0.3}, sweep_name="dx", start=0.01,
                     stop=1.0, count=50, n_max=48, out=str(tmp_path / "n48.csv"))
    rows = run_sweep(spec)
    assert not any(row["error"] for row in rows)
    assert gate.row_violations(rows) == []


@pytest.mark.parametrize("n_max", [20, 48])
def test_point_source_sweep_points_reduce_to_rank_four(tmp_path, monkeypatch, n_max):
    # the README point-source sweep (n_max = 20) and its d = 49 version: every
    # point has a 4-dimensional joint support of rho and its derivatives,
    # dx = 0.01 included, where the 4th singular value of the operator stack
    # is 2.6e-8 of the largest
    ranks, build = [], sweep.fisher_bundle

    def recording(*args):
        bundle = build(*args)
        ranks.append(bundle.support[1].shape[0])
        return bundle

    monkeypatch.setattr(sweep, "fisher_bundle", recording)
    spec = SweepSpec(model="point-sources", measurement="optimal-hg",
                     fixed={"x_c": 0.0, "q": 0.3}, sweep_name="dx", start=0.01,
                     stop=1.0, count=50, n_max=n_max, out=str(tmp_path / "ps.csv"))
    rows = run_sweep(spec)
    assert not any(row["error"] for row in rows)
    assert ranks == [4] * 50
