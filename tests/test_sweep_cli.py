import csv
import json
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import fisusc.cli
import fisusc.fisher as fisher
import fisusc.linalg as linalg
import fisusc.model
import fisusc.models as models
import fisusc.susceptibility as susceptibility
import fisusc.sweep as sweep
import fisusc.verify as verify
from fisusc.cli import main
from fisusc.fisher import fisher_bundle, qfi_matrix, r_metric, r_nuisance
from fisusc.model import DomainError, Povm, StatisticalModel, tensor_model
from fisusc.models import (PointSourceConfig, bell_povm,
                           optimal_povm_point_sources, qubit_phase_dephasing,
                           separable_povm, x_opt)
from fisusc.susceptibility import sigma_exact
from fisusc.sweep import (SweepSpec, SweepSpecError, build_model_povm,
                          evaluate_point, run_sweep)
from fisusc.verify import (check_hg_orthonormality, check_p1_collapse,
                           check_tensor_associativity, check_trace_identity,
                           check_truncation_convergence, run_verify)

PHI = float(np.pi / 4)


def small_spec(tmp_path, **overrides):
    kwargs = dict(model="phase-dephasing", measurement="separable",
                  fixed={"phi": PHI}, sweep_name="delta", start=1e-3, stop=1.0,
                  count=4, scale="log", oracle_samples=0, seed=7,
                  out=str(tmp_path / "out.csv"), workers=1)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_sweep_columns_contract(tmp_path):
    spec = small_spec(tmp_path)
    cols = sweep._columns(spec.model)
    assert cols[0] == "sweep_value"
    for name in ("F_phi_phi", "F_phi_delta", "F_delta_delta", "Q_phi_phi",
                 "r_multi", "r_nuisance_phi", "r_nuisance_delta",
                 "sigma_lower", "sigma_upper", "sigma_phi", "sigma_delta",
                 "oracle_best_X", "condition_number_F", "error"):
        assert name in cols


def test_sweep_runs_and_r_is_two(tmp_path):
    spec = small_spec(tmp_path, count=6)
    rows = run_sweep(spec)
    assert len(rows) == 6
    for row in rows:
        assert row["error"] == ""
        assert abs(row["r_multi"] - 2.0) <= 1e-9
        assert row["oracle_best_X"] == ""


def test_sweep_csv_byte_identical_and_worker_independent(tmp_path):
    out1, out2, out3 = (str(tmp_path / f"{n}.csv") for n in "abc")
    run_sweep(small_spec(tmp_path, oracle_samples=200, out=out1))
    run_sweep(small_spec(tmp_path, oracle_samples=200, out=out2))
    run_sweep(small_spec(tmp_path, oracle_samples=200, workers=3, out=out3))
    b1, b2, b3 = (Path(p).read_bytes() for p in (out1, out2, out3))
    assert b1 == b2 == b3
    assert b"\r\n" in b1    # RFC-4180 line endings


def test_point_source_search_csv_worker_independent(tmp_path):
    # one spec reaches both paths of the exact worst case: at q = 1/2 the
    # rows with dx >= 0.2 need the interior-point method, and the pair
    # certificate settles the smaller separations
    spec = dict(model="point-sources", measurement="optimal-hg",
                fixed={"x_c": 0.0, "q": 0.5}, sweep_name="dx", start=0.05, stop=0.8,
                count=6, oracle_samples=1)
    outs = []
    for workers in (1, 2, 3):
        outs.append(str(tmp_path / f"w{workers}.csv"))
        rows = run_sweep(small_spec(tmp_path, workers=workers, out=outs[-1], **spec))
        assert not any(row["error"] for row in rows)
    b1, b2, b3 = (Path(p).read_bytes() for p in outs)
    assert b1 == b2 == b3
    rows = list(csv.DictReader(b1.decode().splitlines()))
    assert len(rows) == 6
    interior = [float(row["sweep_value"]) >= 0.2 for row in rows]
    assert interior == [False] * 3 + [True] * 3
    for row, solved in zip(rows, interior):
        if solved:
            assert float(row["oracle_best_X"]) > float(row["sigma_lower"])
        else:
            assert row["oracle_best_X"] == row["sigma_lower"]


def test_sweep_points_run_on_the_calling_thread(tmp_path, monkeypatch):
    # workers is accepted but every point is evaluated in grid order on the
    # thread that called run_sweep
    seen = []

    def recording(spec, index, value):
        seen.append((index, threading.get_ident()))
        return evaluate_point(spec, index, value)

    monkeypatch.setattr(sweep, "evaluate_point", recording)
    rows = run_sweep(small_spec(tmp_path, count=5, oracle_samples=20, workers=3))
    assert len(rows) == 5
    assert seen == [(i, threading.get_ident()) for i in range(5)]


@pytest.mark.parametrize("model_id, measurement", [
    (m, meas) for m, entry in sweep.MODEL_TABLE.items() for meas in entry.measurements])
def test_model_table_entry_builds_its_model_and_measurement(model_id, measurement):
    # every (model, measurement) of the catalogue builds a model with the
    # table's parameters on the space its POVM acts on
    entry = sweep.MODEL_TABLE[model_id]
    theta = np.array([0.3, 0.2, 0.4][:len(entry.params)])
    model, povm, copies = build_model_povm(model_id, measurement, theta)
    assert model.param_names == entry.params and model.dim == povm.dim
    assert copies == entry.measurements[measurement]


def test_measurement_povm_is_built_once():
    theta_a, theta_b = [0.1, 0.2, 0.3], [-0.4, 0.7, 0.6]
    povm = build_model_povm("point-sources", "optimal-hg", theta_a, 20)[1]
    assert build_model_povm("point-sources", "optimal-hg", theta_b, 20)[1] is povm
    fresh = optimal_povm_point_sources(PointSourceConfig(n_max=20, x_m=x_opt(*theta_b)))
    np.testing.assert_array_equal(povm.elements, fresh.elements)
    assert povm.labels == fresh.labels and not povm.elements.flags.writeable
    assert build_model_povm("point-sources", "optimal-hg", theta_a, 21)[1].dim == 22
    for measurement, build in (("separable", separable_povm), ("bell", bell_povm)):
        povm = build_model_povm("phase-dephasing", measurement, [0.3, 0.1])[1]
        assert build_model_povm("phase-dephasing", measurement, [1.1, 0.5])[1] is povm
        np.testing.assert_array_equal(povm.elements, build().elements)


def test_sweep_bell_rows_match_closed_form(tmp_path):
    spec = small_spec(tmp_path, measurement="bell", count=3, start=0.05, stop=0.3)
    rows = run_sweep(spec)
    for row, delta in zip(rows, spec.grid()):
        closed = (1 - 2 * np.exp(4 * delta)) / (1 - 2 * np.exp(2 * delta))
        assert row["error"] == ""
        assert abs(row["r_multi"] - closed) <= 1e-9
        # two-copy model: reported Q is the doubled single-copy matrix
        assert row["Q_phi_phi"] == pytest.approx(2 * np.exp(-2 * delta), abs=1e-10)
        assert row["sigma_lower"] <= row["sigma_upper"] + 1e-8


def test_sweep_oracle_column_filled_when_sampling(tmp_path):
    # any oracle_samples > 0 fills the column with the exact worst case;
    # neither its magnitude nor the seed changes a row
    rows = run_sweep(small_spec(tmp_path, count=3, oracle_samples=300))
    for row in rows:
        bundle = fisher_bundle(qubit_phase_dephasing(), [PHI, row["sweep_value"]],
                               separable_povm())
        assert row["oracle_best_X"] == sigma_exact(bundle).value
        assert row["sigma_lower"] <= row["oracle_best_X"] <= row["sigma_upper"]
    assert run_sweep(small_spec(tmp_path, count=3, oracle_samples=1, seed=8)) == rows


def test_sweep_error_rows_continue(tmp_path):
    # dx = 0 gives a singular Fisher matrix; the sweep must record the
    # failure and keep going
    spec = small_spec(tmp_path, model="point-sources", measurement="optimal-hg",
                      fixed={"x_c": 0.0, "q": 0.5}, sweep_name="dx",
                      start=0.0, stop=0.4, count=3, scale="linear")
    rows = run_sweep(spec)
    assert "singular or ill-conditioned" in rows[0]["error"]
    assert rows[1]["error"] == "" and rows[2]["error"] == ""


def test_small_separation_row_is_not_refused_for_its_units(tmp_path):
    # at dx = 1e-3 the raw condition number of F is ~5e12, but only because
    # dx is barely visible in these units; unit-scaled it is ~3e7
    spec = small_spec(tmp_path, model="point-sources", measurement="optimal-hg",
                      fixed={"x_c": 0.0, "q": 0.3}, sweep_name="dx")
    row = evaluate_point(spec, 0, 1e-3)
    assert row["error"] == ""
    assert row["condition_number_F"] > 1e12
    assert row["sigma_lower"] <= row["sigma_upper"]
    assert row["r_multi"] >= 1.0
    assert all(row[f"r_nuisance_{n}"] >= 1.0 for n in ("x_c", "dx", "q"))


def test_sweep_spec_validation_errors(tmp_path):
    with pytest.raises(SweepSpecError, match="does not apply to model"):
        small_spec(tmp_path, measurement="optimal-hg").validate()
    with pytest.raises(SweepSpecError, match="^unknown measurement 'nope'; choose from "):
        small_spec(tmp_path, measurement="nope").validate()
    with pytest.raises(SweepSpecError, match="^count must be >= 2, got 1$"):
        small_spec(tmp_path, count=1).validate()
    with pytest.raises(SweepSpecError, match=r"^missing fixed values for \['phi'\]$"):
        small_spec(tmp_path, fixed={}).validate()
    with pytest.raises(SweepSpecError, match="^log scale needs positive start/stop$"):
        small_spec(tmp_path, start=-1.0).validate()
    with pytest.raises(SweepSpecError, match=r"^sweep parameter 'nope' not in \('phi', "):
        small_spec(tmp_path, sweep_name="nope").validate()
    with pytest.raises(SweepSpecError, match="^scale must be 'linear' or 'log'$"):
        small_spec(tmp_path, scale="LOG").validate()
    for key, value, low in (("oracle_samples", -1, 0), ("workers", 0, 1)):
        with pytest.raises(SweepSpecError, match=f"^{key} must be >= {low}, got {value}$"):
            small_spec(tmp_path, **{key: value}).validate()
    with pytest.raises(SweepSpecError):
        # endpoint outside the domain (delta must stay positive)
        small_spec(tmp_path, scale="linear", start=0.0).validate()


POINT_SOURCES = dict(model="point-sources", measurement="optimal-hg",
                     fixed={"x_c": 0.0, "q": 0.3}, sweep_name="dx", start=0.01)


@pytest.mark.parametrize("overrides", [
    {"count": 5.0}, {"count": 2.5}, {"count": np.float64(4.0)}, {"count": True},
    {"n_max": 20.0}, {"n_max": 20.5}, {"n_max": True},
    {**POINT_SOURCES, "count": 5.0}, {**POINT_SOURCES, "n_max": 20.0},
], ids=lambda o: f"{o.get('model', 'phase-dephasing')}-" + "-".join(
    f"{k}={o[k]!r}" for k in ("count", "n_max") if k in o))
def test_sweep_spec_refuses_a_non_integer_count_or_n_max(tmp_path, overrides):
    # the library refuses what the CLI refuses (exit 2): a float or a bool
    # is no count or n_max, whatever its value; numpy integers are integers
    key = "count" if "count" in overrides else "n_max"
    with pytest.raises(SweepSpecError, match=f"{key} must be an integer"):
        small_spec(tmp_path, **overrides).validate()
    small_spec(tmp_path, **{**overrides, key: np.int64(4 if key == "count" else 20)}).validate()


@pytest.mark.parametrize("key, value", [
    ("phi", "0.7"), ("phi", True), ("start", "0.1"), ("stop", True),
    ("oracle_samples", "5"), ("oracle_samples", True), ("oracle_samples", 1.0),
    ("workers", 2.5), ("workers", True),
])
def test_sweep_spec_refuses_a_string_or_bool_where_a_number_is_due(tmp_path, key, value):
    # the library refuses what the CLI refuses (exit 2), before any point is
    # evaluated: a string is no number, and a bool (YAML's true) is neither
    # a real number nor an integer, although Python reads True as 1
    overrides = {"fixed": {key: value}} if key == "phi" else {key: value}
    kind = "an integer" if key in ("oracle_samples", "workers") else "a number"
    with pytest.raises(SweepSpecError, match=f"{key} must be {kind}"):
        small_spec(tmp_path, **overrides).validate()


@pytest.mark.parametrize("seed", ["7", True, 1.5], ids=["string", "bool", "fractional"])
def test_sweep_spec_refuses_a_seed_that_is_no_integer(tmp_path, seed):
    # the library refuses the seed the CLI refuses in a config (exit 2)
    with pytest.raises(SweepSpecError, match="seed must be an integer"):
        small_spec(tmp_path, seed=seed).validate()
    small_spec(tmp_path, seed=np.int64(7)).validate()


@pytest.mark.parametrize("overrides", [
    {"fixed": {"phi": 10 ** 400}}, {"start": 10 ** 400}, {"stop": 10 ** 400},
    {"stop": -10 ** 400},
], ids=["fixed-value", "start", "stop", "negative-stop"])
def test_sweep_spec_refuses_an_int_too_large_for_a_double(tmp_path, overrides):
    # such an int is a real number, but no double holds it: it is refused as
    # infinite, as the CLI refuses it in a config (exit 2)
    with pytest.raises(SweepSpecError, match="must be finite"):
        small_spec(tmp_path, **overrides).validate()


DEEP = object()     # a list nested 100,000 deep, built in the test


@pytest.mark.parametrize("key, value, message", [
    ("model", DEEP, "model must be a string, got list"),
    ("measurement", DEEP, "measurement must be a string, got list"),
    ("sweep_name", DEEP, "sweep_name must be a string, got list"),
    ("phi", DEEP, "fix phi must be a number, got list"),
    ("start", DEEP, "start must be a number, got list"),
    ("seed", DEEP, "seed must be an integer, got list"),
    ("out", None, "out must be a string, got NoneType"),
    ("out", ["a"], "out must be a string, got list"),
], ids=["deep-model", "deep-measurement", "deep-sweep_name", "deep-fixed-value",
        "deep-start", "deep-seed", "out-none", "out-list"])
def test_run_sweep_names_a_deep_list_or_an_out_that_is_no_string_by_type(
        tmp_path, monkeypatch, key, value, message):
    # a library spec is refused as a config is: by key and type, never by a
    # repr that a 100,000-deep list would take the stack to build, and
    # before the output is opened
    if value is DEEP:
        value = []
        for _ in range(100_000):
            value = [value]
    overrides = {"fixed": {"phi": value}} if key == "phi" else {key: value}
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SweepSpecError) as err:
        run_sweep(small_spec(tmp_path, **overrides))
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fixed", [None, "phi", [("phi", PHI)], PHI],
                         ids=["none", "str", "list-of-pairs", "number"])
def test_run_sweep_refuses_a_fixed_that_is_no_mapping(tmp_path, monkeypatch, fixed):
    # None is not "nothing fixed", and "phi" is not the names 'p', 'h' and
    # 'i': one refusal names the type, before the output is opened
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SweepSpecError) as err:
        run_sweep(small_spec(tmp_path, fixed=fixed))
    assert str(err.value) == ("fixed must be a mapping of names to values, "
                              f"got {type(fixed).__name__}")
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_and_config_override(tmp_path):
    config = {
        "model": "phase-dephasing",
        "measurement": "separable",
        "fix": {"phi": PHI},
        "sweep": {"name": "delta", "start": 1e-3, "stop": 1.0, "count": 3,
                  "scale": "log"},
        "seed": 1,
        "out": str(tmp_path / "from_config.csv"),
    }
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config.csv").exists()
    # flags win over the config file
    out2 = tmp_path / "override.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2),
                 "--sweep", "delta:0.01:0.5:4:log"]) == 0
    with open(out2) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert float(rows[0]["sweep_value"]) == pytest.approx(0.01)


def test_cli_invalid_spec_exit_code(tmp_path):
    assert main(["sweep", "--model", "phase-dephasing", "--measurement",
                 "optimal-hg", "--fix", f"phi={PHI}",
                 "--sweep", "delta:0.01:1:3:log"]) == 2
    assert main(["sweep", "--model", "phase-dephasing", "--measurement",
                 "separable", "--fix", "phi=abc",
                 "--sweep", "delta:0.01:1:3:log"]) == 2


def _unwritable(tmp_path):
    return str(tmp_path / "missing" / "out.csv")


def test_cli_sweep_unwritable_out_fails_before_any_point(tmp_path, monkeypatch, capsys):
    # the output is opened first: no point is evaluated, and the refusal is
    # one line with the invalid-specification exit code
    evaluated = []
    monkeypatch.setattr(sweep, "evaluate_point", lambda *args: evaluated.append(args))
    code = main(["sweep", "--model", "phase-dephasing", "--measurement", "separable",
                 "--fix", f"phi={PHI}", "--sweep", "delta:0.01:1:3:log",
                 "--oracle-samples", "1", "--out", _unwritable(tmp_path)])
    assert code == 2 and evaluated == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing" in err


def test_cli_verify_unwritable_out_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(fisusc.cli, "run_verify", lambda seed: ran.append(seed))
    assert main(["verify", "--seed", "0", "--out", _unwritable(tmp_path)]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "missing" in captured.err
    assert captured.out == ""


def test_cli_verify_negative_seed_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    # numpy refuses a negative seed: the suite would report raised checks
    ran = []
    monkeypatch.setattr(fisusc.cli, "run_verify", lambda seed: ran.append(seed))
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "-1", "--out", str(out)]) == 2
    assert ran == [] and not out.exists()
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "-1" in captured.err
    assert captured.out == ""


POINT_SOURCE_CONFIG = {"model": "point-sources", "measurement": "optimal-hg",
                       "fix": {"x_c": 0.0, "q": 0.3},
                       "sweep": {"name": "dx", "start": 0.01, "stop": 1.0, "count": 3}}


@pytest.mark.parametrize("entry", [
    {"n_max": 2}, {"n_max": "abc"}, {"workers": "two"},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "count": 3.9}}, {"n_max": 20.7},
    {"seed": 1.5}, {"workers": 1.5}, {"oracle_samples": 2.5}, {"seed": float("nan")},
    {"n_mx": 48}, {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "sacle": "log"}},
    {"fix": ["x_c=0", "q=0.3"]}, {"sweep": ["dx", 0.01, 1, 5]}, {"n_max": 171},
    {"out": None}, {"out": ["a", "b"]}, {"fix": {"x_c": True, "q": 0.3}},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "stop": True}}, {"oracle_samples": True},
    {"seed": True}, {"workers": True}, {"fix": {"x_c": "0", "q": 0.3}},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "start": "0.01"}},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "count": "3"}}, {"seed": "7"},
    {"fix": {"x_c": 10 ** 400, "q": 0.3}},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "start": 10 ** 400}},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "stop": 10 ** 400}},
], ids=["n_max-below-3", "n_max-not-a-number", "workers-not-a-number",
        "fractional-count", "fractional-n_max", "fractional-seed", "fractional-workers",
        "fractional-oracle_samples", "nan-seed", "unknown-key", "unknown-sweep-key",
        "fix-not-a-mapping", "sweep-not-a-mapping", "n_max-above-170",
        "out-null", "out-not-a-string", "bool-fix-value", "bool-stop",
        "bool-oracle_samples", "bool-seed", "bool-workers", "string-fix-value",
        "string-start", "string-count", "string-seed", "401-digit-fix-value",
        "401-digit-start", "401-digit-stop"])
def test_cli_malformed_config_value_exit_code(tmp_path, capsys, entry):
    # a malformed config value is refused even where a flag (here --out) wins
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**POINT_SOURCE_CONFIG, **entry}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid sweep specification" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("entry, message", [
    ({"fix": {"x_c": True, "q": 0.3}}, "fix x_c must be a number, got True"),
    ({"seed": [1]}, "seed must be an integer, got list"),
    ({"seed": None}, "seed must be an integer, got NoneType"),
    ({"fix": {"x_c": [[[0.0]]], "q": 0.3}}, "fix x_c must be a number, got list"),
    ({"sweep": {**POINT_SOURCE_CONFIG["sweep"], "count": {"n": 3}}},
     "count must be an integer, got dict"),
    ({"n_max": b"48"}, "n_max must be an integer, got b'48'"),
    ({"fix": {"x_c": 10 ** 400, "q": 0.3}},
     "fix x_c must be finite, got an integer too large for a double"),
], ids=["bool-fix-value", "list-seed", "null-seed", "nested-list-fix-value", "dict-count",
        "binary-n_max", "401-digit-fix-value"])
def test_cli_config_value_refusal_is_one_message(tmp_path, capsys, entry, message):
    # each refusal is printed once, naming the config file and its key, and
    # a value that is no number is named by its type
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**POINT_SOURCE_CONFIG, **entry}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"invalid sweep specification: config {cfg_path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b"model: [point-sources\n", b"measurement: \xff\n",
    b"model: " + b"[" * 5000 + b"]" * 5000 + b"\n",
    b"model: " + b"[" * 200000 + b"]" * 200000 + b"\n",
    b"fix: {phi: " + b"[" * 200000 + b"]" * 200000 + b"}\n",
    b"fix: {x_c: 1" + b"0" * 5000 + b", q: 0.3}\n", b"model: 2001-13-45\n",
], ids=["unclosed-bracket", "non-utf8-byte", "nested-too-deeply", "model-nested-200k-deep",
        "fix-nested-200k-deep", "int-past-the-digit-limit", "date-out-of-range"])
def test_cli_unreadable_yaml_config_is_refused_in_one_line(tmp_path, capsys, content):
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_bytes(content)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid sweep specification") and err.count("\n") == 1
    assert str(cfg_path) in err
    assert not out.exists()


def test_cli_sweep_validates_its_spec_once(tmp_path, monkeypatch, capsys):
    # each validation builds both endpoint models: run_sweep's is the only one,
    # and it still refuses a bad config before the CSV is opened
    calls = []
    validate = SweepSpec.validate
    monkeypatch.setattr(SweepSpec, "validate",
                        lambda spec: calls.append(spec) or validate(spec))
    cfg_path, out = tmp_path / "sweep.yaml", tmp_path / "out.csv"
    cfg_path.write_text(yaml.safe_dump(POINT_SOURCE_CONFIG))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(calls) == 1 and out.exists()
    cfg_path.write_text(yaml.safe_dump({**POINT_SOURCE_CONFIG, "n_max": 2}))
    bad = tmp_path / "bad.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(bad)]) == 2
    assert len(calls) == 2 and not bad.exists()
    assert "n_max must be in [3, 170], got 2" in capsys.readouterr().err


def test_cli_sweep_empty_out_is_refused(tmp_path, monkeypatch, capsys):
    # an empty --out names no file: it is not read as "no flag", so the
    # config's out or the default sweep.csv is not written in its place
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**POINT_SOURCE_CONFIG, "out": "cfg.csv"}))
    assert main(["sweep", "--config", str(cfg_path), "--out", ""]) == 2
    assert main(["sweep", "--model", "phase-dephasing", "--measurement", "separable",
                 "--fix", f"phi={PHI}", "--sweep", "delta:0.01:1:3", "--out", ""]) == 2
    assert "invalid sweep specification" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_cli_unset_settings_take_the_sweep_spec_defaults(tmp_path):
    # a config (or flags) without oracle_samples, seed, workers, n_max and
    # out leaves each to the SweepSpec field default
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(POINT_SOURCE_CONFIG))
    expected = SweepSpec(model="point-sources", measurement="optimal-hg",
                         fixed={"x_c": 0.0, "q": 0.3}, sweep_name="dx", start=0.01,
                         stop=1.0, count=3, scale="log")
    from_flags = ["sweep", "--model", "point-sources", "--measurement", "optimal-hg",
                  "--fix", "x_c=0", "--fix", "q=0.3", "--sweep", "dx:0.01:1:3"]
    for argv in (["sweep", "--config", str(cfg_path)], from_flags):
        spec = fisusc.cli._spec_from_args(fisusc.cli._parser().parse_args(argv))
        assert spec == expected
        assert (spec.oracle_samples, spec.seed, spec.workers, spec.n_max, spec.out) == \
            (0, 0, 1, 20, "sweep.csv")


def test_sweep_spec_takes_the_default_scale_of_its_model_table_axis(tmp_path):
    # a spec without a scale sweeps the model's log axes (delta, dx) on a log
    # grid and any other on a linear one, as the command line does
    spec = SweepSpec(model="phase-dephasing", measurement="separable", fixed={"delta": 0.3},
                     sweep_name="phi", start=0.0, stop=3.0, count=5,
                     out=str(tmp_path / "lib.csv"))
    spec.validate()
    assert spec.scale == "linear"
    out = tmp_path / "cli.csv"
    assert main(["sweep", "--model", "phase-dephasing", "--measurement", "separable",
                 "--fix", "delta=0.3", "--sweep", "phi:0:3:5", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        column = [float(r["sweep_value"]) for r in csv.DictReader(fh)]
    assert spec.grid().tolist() == column
    assert run_sweep(spec) and (tmp_path / "lib.csv").read_bytes() == out.read_bytes()
    logs = [SweepSpec(model=m, measurement=meas, fixed={}, sweep_name=name, start=0.1,
                      stop=1.0, count=2).scale
            for m, meas, name in (("phase-dephasing", "bell", "delta"),
                                  ("point-sources", "optimal-hg", "dx"),
                                  ("point-sources", "optimal-hg", "q"))]
    assert logs == ["log", "log", "linear"]
    assert SweepSpec(model="phase-dephasing", measurement="separable", fixed={},
                     sweep_name="delta", start=0.1, stop=1.0, count=2,
                     scale="linear").scale == "linear"
    with pytest.raises(SweepSpecError, match="unknown model"):
        SweepSpec(model="no-such-model", measurement="separable", fixed={},
                  sweep_name="delta", start=0.1, stop=1.0, count=2).validate()


@pytest.mark.parametrize("entry", [
    {"model": ["point-sources"]}, {"measurement": 3},
    {"model": [[[["point-sources"]]]]},
    {"sweep": {**POINT_SOURCE_CONFIG["sweep"], "name": ["dx"]}},
], ids=["model-list", "measurement-number", "model-nested", "sweep-name-list"])
def test_cli_config_names_must_be_strings(tmp_path, capsys, entry):
    # a model, measurement or sweep name that is not a string is refused by
    # its type, with the config's path, even where a flag gives the value
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({**POINT_SOURCE_CONFIG, **entry}))
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out)]
    for flags in ([], ["--model", "point-sources", "--measurement", "optimal-hg"]):
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid sweep specification") and err.count("\n") == 1
        assert str(cfg_path) in err and "must be a string" in err
        assert not out.exists()


def test_cli_config_loader_is_built_once_on_libyaml():
    # the loader class is made once per process, on libyaml's parser where
    # PyYAML has it, and reads plain exponents as floats either way
    fisusc.cli._config_loader.cache_clear()
    loader = fisusc.cli._config_loader()
    assert fisusc.cli._config_loader() is loader
    assert issubclass(loader, yaml._yaml.CParser if yaml.__with_libyaml__ else yaml.SafeLoader)
    assert yaml.load("a: 1e-3\nb: '1e-3'\n", Loader=loader) == {"a": 0.001, "b": "1e-3"}
    assert yaml.load("a: 1e-3\n", Loader=yaml.SafeLoader) == {"a": "1e-3"}


def test_cli_config_pure_python_loader_reads_what_libyaml_reads(tmp_path, monkeypatch, capsys):
    # where PyYAML has no libyaml the loader is PyYAML's own SafeLoader with the
    # same float rule: the README config and a config in the bench's form load
    # to the same mappings, and a 200,000-deep nest is refused in one line
    readme = Path(__file__).resolve().parents[1] / "README.md"
    texts = [*re.findall(r"```yaml\n(.*?)```", readme.read_text(), re.S),
             "model: point-sources\nmeasurement: optimal-hg\nfix: {x_c: 0.0, q: 0.3}\n"
             "sweep: {name: dx, start: 0.01, stop: 1.0, count: 50, scale: log}\n"
             "n_max: 48\noracle_samples: 0\nseed: 0\nworkers: 1\nout: ps48.csv\n"]
    fisusc.cli._config_loader.cache_clear()
    expected = [yaml.load(text, Loader=fisusc.cli._config_loader()) for text in texts]
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    fisusc.cli._config_loader.cache_clear()
    try:
        loader = fisusc.cli._config_loader()
        assert loader.__bases__ == (yaml.SafeLoader,)
        assert [yaml.load(text, Loader=loader) for text in texts] == expected
        assert expected[1]["n_max"] == 48 and len(texts) == 2
        assert yaml.load("a: 1e-3\n", Loader=loader) == {"a": 0.001}
        cfg_path, out = tmp_path / "sweep.yaml", tmp_path / "out.csv"
        cfg_path.write_bytes(b"model: " + b"[" * 200000 + b"]" * 200000 + b"\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid sweep specification: config {cfg_path} is not "
                              "readable YAML: ") and err.count("\n") == 1
        assert not out.exists()
    finally:
        fisusc.cli._config_loader.cache_clear()


def test_cli_plain_exponents_are_numbers_and_quoted_ones_strings(tmp_path, capsys):
    # PyYAML's YAML 1.1 rules read a plain 1e-2 as a string; the config loader
    # reads it as the float YAML 1.2 makes it, so only a quoted number is refused
    cfg_path = tmp_path / "sweep.yaml"
    text = ("model: point-sources\nmeasurement: optimal-hg\nfix: {x_c: 0e0, q: 3E-1}\n"
            "sweep: {name: dx, start: 1e-2, stop: 1.e0, count: 3e0}\nseed: 7e0\n")
    cfg_path.write_text(text)
    spec = fisusc.cli._spec_from_args(
        fisusc.cli._parser().parse_args(["sweep", "--config", str(cfg_path)]))
    assert (spec.fixed, spec.start, spec.stop, spec.count, spec.seed) == \
        ({"x_c": 0.0, "q": 0.3}, 0.01, 1.0, 3, 7)
    cfg_path.write_text(text.replace("start: 1e-2", 'start: "1e-2"'))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "start must be a number, got '1e-2'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_integral_float_config_values_are_accepted(tmp_path):
    # YAML reads 3.0 as a float; a whole number is taken as it is
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump({
        **POINT_SOURCE_CONFIG, "sweep": {**POINT_SOURCE_CONFIG["sweep"], "count": 3.0},
        "n_max": 20.0, "seed": 2.0, "workers": 1.0, "oracle_samples": 0.0}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("count, message, judged", [
    (10 ** 48, "count is too large for a grid", False),
    (10 ** 400, "count must be finite, got an integer too large for a double", True),
], ids=["49-digit", "401-digit"])
def test_a_count_numpy_cannot_grid_is_refused_by_every_front_end(
        tmp_path, capsys, count, message, judged):
    # numpy refuses such a grid before it allocates, and no number too large
    # for a double is taken (the CLI judges a config's value, naming the
    # config): the library, a config and --sweep each refuse it naming count,
    # with exit 2 and one line
    with pytest.raises(SweepSpecError, match=f"^{message}"):
        small_spec(tmp_path, count=count).validate()
    cfg_path, out = tmp_path / "sweep.yaml", tmp_path / "out.csv"
    cfg_path.write_text(yaml.safe_dump(
        {**POINT_SOURCE_CONFIG, "sweep": {**POINT_SOURCE_CONFIG["sweep"], "count": count}}))
    flags = ["--model", "phase-dephasing", "--measurement", "separable",
             "--fix", f"phi={PHI}", "--sweep", f"delta:0.001:1:{count}"]
    for argv, where in ((["--config", str(cfg_path)], f"config {cfg_path}: "), (flags, "")):
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid sweep specification: {where if judged else ''}{message}")
        assert err.count("\n") == 1 and not out.exists()


# where each SweepSpec field sits in a config
CONFIG_PLACES = {"model": ("model",), "measurement": ("measurement",),
                 "fix x_c": ("fix", "x_c"), "fix q": ("fix", "q"),
                 "sweep_name": ("sweep", "name"), "start": ("sweep", "start"),
                 "stop": ("sweep", "stop"), "count": ("sweep", "count"),
                 "scale": ("sweep", "scale"), "oracle_samples": ("oracle_samples",),
                 "seed": ("seed",), "out": ("out",), "workers": ("workers",),
                 "n_max": ("n_max",)}


@pytest.mark.parametrize("field", CONFIG_PLACES, ids=lambda f: f.replace(" ", "-"))
def test_the_library_and_a_config_refuse_the_same_values(tmp_path, monkeypatch, capsys, field):
    # one checker judges both front ends: the library refuses a value exactly
    # when a --config sweep exits 2, with the same message but for the
    # config's path; the one exception is YAML's whole-number float (3.0),
    # which a config gives where an integer is due and the library refuses
    monkeypatch.chdir(tmp_path)      # an accepted config writes sweep.csv or 7 here
    cfg_path = tmp_path / "sweep.yaml"
    for value in (True, "7", b"48", None, [1], {"n": 3}, float("nan"), float("inf"),
                  10 ** 400, 2.5, 3.0):
        config = {**POINT_SOURCE_CONFIG, "fix": {**POINT_SOURCE_CONFIG["fix"]},
                  "sweep": {**POINT_SOURCE_CONFIG["sweep"]}}
        place = CONFIG_PLACES[field]
        (config[place[0]] if len(place) == 2 else config)[place[-1]] = value
        settings = {k: config[k] for k in ("oracle_samples", "seed", "out", "workers",
                                           "n_max") if k in config}
        spec = SweepSpec(model=config["model"], measurement=config["measurement"],
                         fixed=config["fix"], sweep_name=config["sweep"]["name"],
                         start=config["sweep"]["start"], stop=config["sweep"]["stop"],
                         count=config["sweep"]["count"], scale=config["sweep"].get("scale"),
                         **settings)
        try:
            spec.validate()
            refusal = None
        except SweepSpecError as err:
            refusal = str(err)
        cfg_path.write_text(yaml.safe_dump(config))
        code = main(["sweep", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        if value == 3.0 and field in (
                "count", "oracle_samples", "seed", "workers", "n_max"):
            assert refusal.endswith("must be an integer, got 3.0") and code != 2, field
            continue
        assert (code == 2) == (refusal is not None), (field, value, refusal, err)
        if refusal is not None:
            assert err in (f"invalid sweep specification: {refusal}\n",
                           f"invalid sweep specification: config {cfg_path}: {refusal}\n"), \
                (field, value, err)


@pytest.mark.parametrize("fix, sweep_arg, message", [
    ("phi=0.7", "delta:0.001:1:1.5", "--sweep 'delta:0.001:1:1.5': invalid literal for int()"),
    ("phi=nan", "delta:0.001:1:5", "fix phi must be finite, got nan"),
    ("phi=0.7", "delta:0.001:inf:5", "stop must be finite, got inf"),
    ("phi", "delta:0.001:1:5", "--fix expects name=value, got 'phi'"),
    ("phi=abc", "delta:0.001:1:5", "--fix value for 'phi' is not a number: 'abc'"),
    ("phi=0.7", "delta:1:2", "--sweep expects name:start:stop:count[:log|:linear], got "),
    ("phi=0.7", "delta:a:1:3", "--sweep 'delta:a:1:3': could not convert string to float"),
    ("phi=0.7", "delta:0.1:1:5:LOG", "scale must be 'linear' or 'log'"),
    ("phi=0.7", None, "a sweep needs name, start, stop and count (--sweep or config 'sweep:')"),
], ids=["fractional-count", "nan-fixed-value", "infinite-sweep-limit", "fix-without-value",
        "fix-value-no-number", "sweep-of-three-fields", "sweep-start-no-number",
        "sweep-scale-unknown", "no-sweep"])
def test_cli_malformed_flag_value_exit_code(tmp_path, capsys, fix, sweep_arg, message):
    # each malformed flag is refused in one line, before the CSV is opened
    out = tmp_path / "out.csv"
    argv = ["sweep", "--model", "phase-dephasing", "--measurement", "separable",
            "--fix", fix, "--out", str(out)]
    assert main(argv + (["--sweep", sweep_arg] if sweep_arg else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid sweep specification: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_cli_numerical_failure_exit_code(tmp_path):
    # every point at dx = 0 fails: exit code 3
    out = str(tmp_path / "fail.csv")
    code = main(["sweep", "--model", "point-sources", "--measurement",
                 "optimal-hg", "--fix", "x_c=0", "--fix", "q=0.5",
                 "--sweep", "dx:0:0:2:linear", "--out", out])
    assert code == 3


def test_cli_show_model(tmp_path, capsys):
    code = main(["show-model", "--model", "phase-dephasing", "--measurement",
                 "separable", "--fix", f"phi={PHI}", "--fix", "delta=0.3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rho =" in out and "F =" in out and "Q =" in out
    assert main(["show-model", "--model", "phase-dephasing", "--measurement",
                 "separable", "--fix", f"phi={PHI}"]) == 2


def test_cli_show_model_keeps_print_options_and_prints_plain_floats(capsys):
    before = np.get_printoptions()
    assert main(["show-model", "--model", "phase-dephasing", "--measurement",
                 "separable", "--fix", "phi=0.7", "--fix", "delta=0.3"]) == 0
    assert np.get_printoptions() == before
    out = capsys.readouterr().out
    assert "theta = {'phi': 0.7, 'delta': 0.3}" in out
    assert "np.float64" not in out
    # the matrices are still printed with 10 digits
    assert "0.2833045141" in out
    # a point-source point is real throughout: rho prints without imaginary
    # parts, and Q is the model's quantum Fisher matrix
    theta = [0.0, 0.5, 0.3]
    assert main(["show-model", "--model", "point-sources", "--measurement",
                 "optimal-hg", "--fix", "x_c=0", "--fix", "dx=0.5", "--fix", "q=0.3"]) == 0
    assert np.get_printoptions() == before
    out = capsys.readouterr().out
    assert "theta = {'x_c': 0.0, 'dx': 0.5, 'q': 0.3}" in out
    assert "np.float64" not in out and "j" not in out.split("rho =")[1]
    model = build_model_povm("point-sources", "optimal-hg", np.array(theta))[0]
    with np.printoptions(precision=10, suppress=False, linewidth=140):
        assert np.array2string(fisher.qfi_matrix(model, theta)) in out


@pytest.mark.parametrize("measurement, fixes", [
    ("separable", ["phi=0.7", "delta=0.3"]),
    ("bell", ["phi=0.3", "delta=0.2"]),
    ("optimal-hg", ["x_c=0.1", "dx=0.05", "q=0.3"]),      # drops "rest"
    ("optimal-hg", ["x_c=0.1", "dx=0.2", "q=0.3"]),       # keeps every outcome
])
def test_cli_show_model_restricts_its_point_once(monkeypatch, capsys, measurement, fixes):
    # F and Q are read off one support of the point: one QR and SVD of a
    # point-source frame, one Cholesky of a dense state, and Q off one
    # eigh of its state (the bundle's qfi)
    calls, support, slds, eigen_slds = [], fisher._support, [], fisher._eigen_slds
    monkeypatch.setattr(fisher, "_support", lambda *ops: calls.append(1) or support(*ops))
    monkeypatch.setattr(fisher, "_eigen_slds", lambda *ops: slds.append(1) or eigen_slds(*ops))
    model = "point-sources" if measurement == "optimal-hg" else "phase-dephasing"
    argv = ["show-model", "--model", model, "--measurement", measurement]
    assert main(argv + [arg for fix in fixes for arg in ("--fix", fix)]) == 0
    assert "Q =" in capsys.readouterr().out
    assert len(calls) == 1 and len(slds) == 1


def test_cli_show_model_exits_3_on_numerical_errors_only(monkeypatch, capsys):
    # a numerical failure of the point exits 3, as a sweep row records it;
    # any other ValueError is a bug and propagates, as it does out of a sweep
    argv = ["show-model", "--model", "phase-dephasing", "--measurement", "separable",
            "--fix", "phi=0.7", "--fix", "delta=0.3"]

    def failing(error):
        def bundle(*args):
            raise error
        return bundle

    monkeypatch.setattr(fisusc.cli, "fisher_bundle",
                        failing(fisher.SingularFisherError("singular here")))
    assert main(argv) == 3
    assert "numerical failure: singular here" in capsys.readouterr().err
    monkeypatch.setattr(fisusc.cli, "fisher_bundle", failing(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        main(argv)


CENTROID_OVERFLOW = r"has no finite alignment point: x_c \+ \(q - 1/2\) dx = inf$"


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "point-sources", "--measurement", "optimal-hg", "--fix", "x_c=0",
     "--fix", "q=1e300", "--sweep", "dx:1e10:1e11:3:log"],
    ["show-model", "--model", "point-sources", "--measurement", "optimal-hg",
     "--fix", "x_c=1.5e308", "--fix", "q=0.9", "--fix", "dx=1e308"],
], ids=["sweep", "show-model-inside-the-domain"])
def test_a_point_whose_centroid_overflows_is_refused_in_one_line(tmp_path, capsys, argv):
    # x_c + (q - 1/2) dx overflows: the point has no alignment point for its
    # modes, a DomainError naming it, so the CLI exits 2 before any CSV
    out = tmp_path / "f.csv"
    assert main(argv + (["--out", str(out)] if argv[0] == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and re.search(CENTROID_OVERFLOW, err.strip()), err
    assert not out.exists()
    # a row records the error text, as it records any DomainError
    theta = np.array([1.5e308, 1e308, 0.9])
    with pytest.raises(DomainError, match="^theta = {'x_c': 1.5e\\+308, 'dx': 1e\\+308, 'q': 0.9} "
                       + CENTROID_OVERFLOW):
        build_model_povm("point-sources", "optimal-hg", theta)
    spec = small_spec(tmp_path, model="point-sources", measurement="optimal-hg",
                      fixed={"x_c": 1.5e308, "q": 0.9}, sweep_name="dx", start=1e308,
                      stop=1.2e308)
    row = evaluate_point(spec, 0, 1e308)
    assert re.search(CENTROID_OVERFLOW, row["error"]) and row["F_x_c_x_c"] == ""


def test_cli_show_model_spec_errors():
    # the same model/measurement/parameter checks as a sweep specification
    assert main(["show-model", "--model", "point-sources", "--measurement", "bell",
                 "--fix", "x_c=0", "--fix", "dx=0.1", "--fix", "q=0.3"]) == 2
    assert main(["show-model", "--model", "phase-dephasing", "--measurement",
                 "separable", "--fix", f"phi={PHI}", "--fix", "delta=0.3",
                 "--fix", "gamma=1"]) == 2


@pytest.mark.parametrize("fixes, message", [
    (["phi=nan", "delta=0.3"], "must be finite"),
    (["phi=0.7", "delta=inf"], "must be finite"),
    (["phi=0.7", "delta=-1"], "leaves the model domain"),
    (["phi=0.7", "delta=0"], "leaves the model domain"),
], ids=["nan-phi", "infinite-delta", "negative-delta", "zero-delta"])
def test_cli_show_model_refuses_invalid_points(capsys, fixes, message):
    argv = ["show-model", "--model", "phase-dephasing", "--measurement", "separable"]
    for fix in fixes:
        argv += ["--fix", fix]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_verify_report_and_seeds(tmp_path):
    report = run_verify(seed=0)
    assert report.all_passed, [r for r in report.results if not r.passed]
    payload = json.loads(report.to_json())
    assert payload["all_passed"]
    assert len(payload["checks"]) == len(report.results)
    # verdicts are stable across seeds (tolerances dominate Monte-Carlo noise)
    verdicts = [tuple(r.passed for r in run_verify(seed=s).results)
                for s in range(5)]
    assert all(v == verdicts[0] for v in verdicts)


def test_verify_negative_control_corrupted_weights(monkeypatch):
    corrupted = np.eye(4)
    corrupted[0, 0] = 0.7
    monkeypatch.setattr(verify, "POINT_SOURCE_WEIGHTS", corrupted)
    passed, detail = check_hg_orthonormality(0)
    assert not passed
    assert "orthonormal" in detail


def test_tensor_associativity_check_sees_a_transposed_factor(monkeypatch):
    # the check passes on tensor_povm and fails on a product that transposes
    # its second factor, which is not associative for complex Hermitians
    assert check_tensor_associativity(0)[0]
    monkeypatch.setattr(verify, "tensor_povm", lambda a, b: Povm(
        [np.kron(x, y.T) for x in a.elements for y in b.elements]))
    passed, detail = check_tensor_associativity(0)
    assert not passed, detail


def test_p1_collapse_check_sees_an_error_the_bounds_share(monkeypatch):
    # sigma_single, Sigma_L and Sigma_U all read one _pair_values call per
    # bundle, over the pairs of both bounds; the check's closed form does
    # not, so an error in it fails the check, in each of the three values
    passed, detail = check_p1_collapse(0)
    assert passed and max(float(x.rsplit(" ", 1)[1]) for x in detail.split(", ")) > 0.0
    calls, pair_values = [], susceptibility._pair_values
    monkeypatch.setattr(susceptibility, "_pair_values",
                        lambda K, i, j: calls.append(1) or pair_values(K, i, j) + 1e-6)
    passed, detail = check_p1_collapse(0)
    assert not passed, detail
    assert len(calls) == 3                  # one per bundle of the check
    assert all(float(x.rsplit(" ", 1)[1]) > 5e-7 for x in detail.split(", ")), detail


def test_trace_identity_check_sees_misaligned_noise_terms(monkeypatch):
    # the check's random noise has Tr[d_j rho N_a] != 0 (white noise has 0),
    # so a convex-sum route that pairs delta_a with the wrong F-eigendirection
    # fails it on every seed
    def reversed_delta(bundle, noise):
        w, U = bundle.fisher_eigh
        slots, elements = susceptibility._aligned_noise_elements(bundle, noise)
        c, n = fisher._outcome_traces(*bundle.support[1:], elements)
        L = bundle.scores[slots] @ U / np.sqrt(w)
        delta = (2.0 * (n @ U) / np.sqrt(w))[:, ::-1]
        return float(w.size + c @ np.sum(L * L, axis=1) - np.sum(L * delta))

    assert all(check_trace_identity(seed)[0] for seed in range(5))
    monkeypatch.setattr(verify, "x_from_extremal_sum", reversed_delta)
    for seed in range(5):
        passed, detail = check_trace_identity(seed)
        assert not passed, detail


def test_truncation_check_sees_a_dropped_mode(monkeypatch):
    # the check's point leaks visibly at the smaller n_max: the change reads
    # non-zero on working code, and losing the last retained mode fails it
    passed, detail = check_truncation_convergence(0)
    assert passed and 1e-9 < float(detail.rsplit(" ", 1)[1]) < 1e-6
    ladder = models._hg_ladder

    def drop_last_mode(n_max):
        modes, sqrt_factorial, lower = (a.copy() for a in ladder(n_max))
        sqrt_factorial[-1], lower[-1] = np.inf, 0.0     # zero coefficient and derivative
        return modes, sqrt_factorial, lower

    monkeypatch.setattr(models, "_hg_ladder", drop_last_mode)
    passed, detail = check_truncation_convergence(0)
    assert not passed, detail


def test_cli_verify_exit_code(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"]


def test_cli_runtime_imports_no_scipy(tmp_path):
    # the runtime needs numpy and PyYAML only; scipy is a test dependency
    out = tmp_path / "verify.json"
    code = ("import sys, fisusc.cli\n"
            f"rc = fisusc.cli.main(['verify', '--seed', '0', '--out', {str(out)!r}])\n"
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(fisusc.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
    assert json.loads(out.read_text())["all_passed"]


def test_cli_imports_yaml_and_the_suite_on_first_use(tmp_path):
    # a flag-only sweep loads neither PyYAML, the invariant suite nor
    # numpy.polynomial; a --config sweep and verify load what they run and
    # write the bytes this process writes, which imported all three up front
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(POINT_SOURCE_CONFIG))
    runs = {"flag.csv": ["sweep", "--model", "phase-dephasing", "--measurement",
                         "separable", "--fix", f"phi={PHI}", "--sweep", "delta:0.001:1:5"],
            "config.csv": ["sweep", "--config", str(cfg_path)],
            "verify.json": ["verify", "--seed", "0"]}
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    code = ("import json, sys, fisusc.cli\n"
            "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
            "result = []\n"
            "for name, argv in runs.items():\n"
            "    rc = fisusc.cli.main(argv + ['--out', f'{out}/{name}'])\n"
            "    result.append([rc, [m for m in ('yaml', 'fisusc.verify', 'numpy.polynomial')\n"
            "                        if m in sys.modules]])\n"
            "print(json.dumps(result))\n")
    src = str(Path(fisusc.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(fresh)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [0, []], [0, ["yaml"]], [0, ["yaml", "fisusc.verify", "numpy.polynomial"]]]
    for name, argv in runs.items():
        assert main(argv + ["--out", str(here / name)]) == 0
        assert (fresh / name).read_bytes() == (here / name).read_bytes()


def test_non_numerical_error_in_a_point_propagates(tmp_path, monkeypatch):
    # only the package's numerical errors become error rows; anything else
    # is a bug and must stop the sweep
    def broken(*args):
        raise ValueError("not a numerical failure")

    monkeypatch.setattr(susceptibility, "_pair_bounds", broken)
    with pytest.raises(ValueError, match="not a numerical failure"):
        run_sweep(small_spec(tmp_path))


def test_row_refusing_q_alone_keeps_its_f_and_q_cells(tmp_path, monkeypatch):
    # F and Q are refused and inverted as one stack, F first: a row whose Q
    # alone is refused keeps its F_* and Q_* cells and names the quantum
    # Fisher matrix; no cell that reads an inverse is filled
    spec = small_spec(tmp_path)
    clean = evaluate_point(spec, 0, 0.3)
    eigen_slds = fisher._eigen_slds

    def singular_q(*args):        # (rho, derivs, the support test's eigh of rho)
        V, Lp, Q = eigen_slds(*args)
        return V, Lp, np.diag([Q[0, 0], 0.0])

    monkeypatch.setattr(fisher, "_eigen_slds", singular_q)
    row = evaluate_point(spec, 0, 0.3)
    assert row["error"].startswith("quantum Fisher matrix is singular"), row["error"]
    for key in ("F_phi_phi", "F_phi_delta", "F_delta_delta"):
        assert row[key] == clean[key] != ""
    assert (row["Q_phi_phi"], row["Q_phi_delta"], row["Q_delta_delta"]) == \
        (clean["Q_phi_phi"], 0.0, 0.0)
    assert all(row[k] == "" for k in ("r_multi", "r_nuisance_phi", "sigma_lower",
                                      "sigma_upper", "condition_number_F"))


def _count_evaluations(monkeypatch):
    """Count the outermost _point/frame_at/state_at/derivatives_at calls per
    model and record every checked inverse's stack, with the name of the
    function that took it.  Calls made inside another (tensor_model
    reading its base model) are not counted; how often a model's own state
    and derivative functions run is counted by
    test_bell_point_runs_the_single_copy_functions_once."""
    calls, inverted, depth = Counter(), [], [0]
    for name in ("_point", "frame_at", "state_at", "derivatives_at"):
        original = getattr(StatisticalModel, name)

        def counted(self, theta, _original=original, _name=name):
            if depth[0] == 0:
                calls[(self, _name)] += 1
            depth[0] += 1
            try:
                return _original(self, theta)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(StatisticalModel, name, counted)

    def recording(stack, _checked=fisher._checked_inverse_and_eigh):
        inverted.append(("_checked_inverse_and_eigh", np.array(stack, dtype=float)))
        return _checked(stack)

    monkeypatch.setattr(fisher, "_checked_inverse_and_eigh", recording)
    return calls, inverted


@pytest.mark.parametrize("model, measurement, fixed, swept, value", [
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.2),   # pair-certified
    ("phase-dephasing", "bell", {"phi": PHI}, "delta", 0.1),             # interior point
])
def test_point_builds_one_kernel_and_no_noise_povm(tmp_path, monkeypatch, model,
                                                   measurement, fixed, swept, value):
    # Sigma_L, Sigma_U and the exact worst case read one kernel call on the
    # stack [F^-1; C_1 .. C_P] and one _pair_values call over the pairs of
    # both bounds, and the row never reads the worst-case noise, so no POVM
    # is built once the measurement POVM is cached
    spec = small_spec(tmp_path, model=model, measurement=measurement, fixed=fixed,
                      sweep_name=swept, start=value, stop=1.0, oracle_samples=1)
    assert evaluate_point(spec, 0, value)["error"] == ""      # warms _measurement_povm
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    kernels, kernel = [], susceptibility._k_operators
    monkeypatch.setattr(susceptibility, "_k_operators", lambda bundle, C=None: kernels.append(
        None if C is None else np.shape(C)) or kernel(bundle, C))
    monkeypatch.setattr(susceptibility, "_pair_values",
                        counted("_pair_values", susceptibility._pair_values))
    monkeypatch.setattr(Povm, "__init__", counted("Povm", Povm.__init__))
    row = evaluate_point(spec, 0, value)
    assert row["error"] == "" and row["oracle_best_X"] != ""
    P = len(fixed) + 1
    assert kernels == [(P + 1, P, P)] and calls["_pair_values"] == 1
    assert calls["Povm"] == 0


@pytest.fixture
def fresh_qubit_models():
    """The qubit models are built once per process; a test that patches their
    constructor builds its own, and leaves none behind."""
    sweep._phase_dephasing_model.cache_clear()
    yield
    sweep._phase_dephasing_model.cache_clear()


def test_bell_point_runs_the_single_copy_functions_once(tmp_path, monkeypatch,
                                                        fresh_qubit_models):
    # the two-copy state and its product-rule derivatives read one
    # evaluation of the single-copy model
    calls = Counter()

    def counted(name, fn):
        def wrapper(values):
            calls[name] += 1
            return fn(values)
        return wrapper

    class CountedModel(StatisticalModel):
        # the dense models' constructor, with their two functions counted
        def __init__(self, dim, param_names, state_fn=None, derivative_fn=None, **kwargs):
            super().__init__(dim, param_names, counted("state_fn", state_fn),
                             counted("derivative_fn", derivative_fn), **kwargs)

    monkeypatch.setattr(models, "StatisticalModel", CountedModel)
    spec = small_spec(tmp_path, measurement="bell", oracle_samples=1)
    row = evaluate_point(spec, 0, 0.1)
    assert row["error"] == "" and row["oracle_best_X"] != ""
    assert calls == {"state_fn": 1, "derivative_fn": 1}


def test_bell_point_checks_each_model_once(tmp_path, monkeypatch):
    # the single-copy and the two-copy model each run one domain check and
    # one hermitize of their (1 + P, d, d) stack of state and derivatives
    spec = small_spec(tmp_path, measurement="bell", oracle_samples=1)
    assert evaluate_point(spec, 0, 0.2)["error"] == ""     # warms _measurement_povm
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(StatisticalModel, "_check_domain",
                        counted("_check_domain", StatisticalModel._check_domain))
    monkeypatch.setattr(fisusc.model, "hermitize", counted("hermitize", fisusc.model.hermitize))
    row = evaluate_point(spec, 0, 0.1)
    assert row["error"] == "" and row["oracle_best_X"] != ""
    assert calls == {"_check_domain": 2, "hermitize": 2}


def test_bell_r_multi_reads_the_two_copy_q(tmp_path):
    # the two-copy state rho x rho has Q = 2 Q_1, so the row's
    # tr F^-1 / tr Q^-1 is the two-copies-per-shot 2 tr F^-1 / tr Q_1^-1
    readme = small_spec(tmp_path, measurement="bell", count=50)
    for row in run_sweep(readme):
        delta = row["sweep_value"]
        closed = (1 - 2 * np.exp(4 * delta)) / (1 - 2 * np.exp(2 * delta))
        assert row["error"] == ""
        assert abs(row["r_multi"] - closed) <= 1e-12 * closed, delta
    base = qubit_phase_dephasing()
    for phi in np.random.default_rng(23).uniform(0.0, 2 * np.pi, 5).tolist():
        spec = small_spec(tmp_path, measurement="bell", fixed={"phi": phi}, count=50)
        for delta in spec.grid():
            row = evaluate_point(spec, 0, delta)
            F = np.array([[row["F_phi_phi"], row["F_phi_delta"]],
                          [row["F_phi_delta"], row["F_delta_delta"]]])
            Q1 = qfi_matrix(base, [phi, delta])
            assert row["r_multi"] == pytest.approx(r_metric(F, Q1, m=2), rel=1e-13, abs=0)


@pytest.mark.filterwarnings("error")
def test_far_separation_is_an_error_row_under_strict_warnings(tmp_path):
    # at dx = 1e16 the coefficients' (d/2)^n overflows: the row reports the
    # NaN truncation leakage instead of raising the overflow warning
    spec = small_spec(tmp_path, model="point-sources", measurement="optimal-hg",
                      fixed={"x_c": 0.0, "q": 0.3}, sweep_name="dx", start=1.0,
                      stop=1e16, count=3)
    rows = run_sweep(spec)
    assert rows[0]["error"] == ""
    assert rows[-1]["error"].startswith("truncation leakage nan for psi+ exceeds")


def test_cli_reused_parser_carries_no_state(tmp_path, capsys):
    # one parser serves every call of a process; a flag sweep with --fix,
    # a config sweep with other fixed values, show-model and verify each
    # give the bytes of a run with a freshly built parser
    config = {"model": "phase-dephasing", "measurement": "bell", "fix": {"phi": 1.3},
              "sweep": {"name": "delta", "start": 0.05, "stop": 0.9, "count": 5},
              "out": str(tmp_path / "config.csv")}
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    flag_out = tmp_path / "flags.csv"
    runs = [
        ["sweep", "--model", "phase-dephasing", "--measurement", "separable",
         "--fix", "phi=0.4", "--sweep", "delta:0.01:1:5:log", "--out", str(flag_out)],
        ["sweep", "--config", str(cfg_path)],
        ["show-model", "--model", "phase-dephasing", "--measurement", "bell",
         "--fix", "phi=0.7", "--fix", "delta=0.2"],
        ["verify", "--seed", "3"],
    ]
    outputs = {flag_out, tmp_path / "config.csv"}

    def run_all(run):
        results = []
        for argv in runs:
            code = run(list(argv))
            printed = capsys.readouterr()
            written = [p.read_bytes() for p in sorted(outputs) if p.exists()]
            for p in outputs:
                p.unlink(missing_ok=True)
            results.append((code, printed.out, printed.err, written))
        return results

    def fresh(argv):
        args = fisusc.cli.build_parser().parse_args(argv)
        return args.func(args)

    fisusc.cli._parser.cache_clear()
    reused = run_all(main)
    assert fisusc.cli._parser.cache_info()[:2] == (len(runs) - 1, 1)   # (hits, misses)
    assert run_all(fresh) == reused
    assert [r[0] for r in reused] == [0, 0, 0, 0]
    assert [len(r[3]) for r in reused] == [1, 1, 0, 0]


def public_cells(spec, value):
    """The cells of a sweep row through the public library path, on a fresh
    model and a fresh bundle: `fisher_bundle`, ``.qfi``, `r_metric`,
    `r_nuisance`, `sigma_lower`, `sigma_upper`, `sigma_exact` and
    ``.fisher_condition``; a numerical failure fills 'error' alone."""
    names = sweep.MODEL_TABLE[spec.model].params
    theta = np.array([{**spec.fixed, spec.sweep_name: float(value)}[n] for n in names])
    if spec.model == "phase-dephasing":
        copies = sweep.MODEL_TABLE[spec.model].measurements[spec.measurement]
        model = tensor_model(qubit_phase_dephasing(), copies)
        povm = bell_povm() if spec.measurement == "bell" else separable_povm()
    else:
        cfg = PointSourceConfig(n_max=spec.n_max, x_m=x_opt(*theta))
        model, povm = models.point_source_model(cfg), optimal_povm_point_sources(cfg)
    pairs = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
    cells = {}
    try:
        bundle = fisher_bundle(model, theta, povm)
        F, Q = bundle.fisher, bundle.qfi
        for i, j in pairs:
            cells[f"F_{names[i]}_{names[j]}"] = F[i, j]
            cells[f"Q_{names[i]}_{names[j]}"] = Q[i, j]
        cells["r_multi"] = r_metric(F, Q)
        cells.update((f"r_nuisance_{n}", r_nuisance(F, Q, j)) for j, n in enumerate(names))
        cells["sigma_lower"] = susceptibility.sigma_lower(bundle)[0]
        cells["sigma_upper"], sigmas = susceptibility.sigma_upper(bundle)
        cells.update((f"sigma_{n}", s) for n, s in zip(names, sigmas))
        if spec.oracle_samples > 0:
            cells["oracle_best_X"] = sigma_exact(bundle).value
        cells["condition_number_F"] = bundle.fisher_condition
    except sweep.NUMERICAL_ERRORS as err:
        cells["error"] = str(err)
    return cells


@pytest.mark.parametrize("overrides, n_errors", [
    ({}, 0),                                                              # README separable
    ({"measurement": "bell"}, 0),                                         # README Bell
    ({**POINT_SOURCES, "stop": 1.0}, 0),                                  # README point sources
    ({"measurement": "bell", "fixed": {"phi": 0.3}, "start": 1e-8}, 0),   # bell-small
    ({**POINT_SOURCES, "fixed": {"x_c": 0.0, "q": 0.5}, "oracle_samples": 1}, 0),
    ({**POINT_SOURCES, "start": 0.0, "stop": 3.0, "scale": "linear"}, 1),  # singular F at dx = 0
], ids=["separable", "bell", "point-sources", "bell-small", "q-0.5-exact", "ps-linear"])
def test_row_cells_are_the_public_functions_bit_for_bit(tmp_path, overrides, n_errors):
    # the row calls each stage helper once on explicit arrays; the library
    # functions on a fresh bundle call the same helpers through the bundle's
    # attributes, so every cell, the error text included, is the same bytes
    spec = small_spec(tmp_path, **{"count": 50, **overrides})
    errors = 0
    for value in spec.grid():
        row, cells = evaluate_point(spec, 0, value), public_cells(spec, value)
        errors += bool(row["error"])
        for key in sweep._columns(spec.model)[1:]:
            want = cells.get(key, "")
            if isinstance(want, str):
                assert row[key] == want, (value, key)
            else:
                assert np.float64(row[key]).tobytes() == np.float64(want).tobytes(), (value, key)
    assert errors == n_errors


@pytest.mark.parametrize("model, measurement, fixed, swept, value, expected", [
    ("phase-dephasing", "separable", {"phi": 0.7}, "delta", 0.3,
     {"eigh": 2, "eigvalsh": 1, "inv": 1}),
    ("phase-dephasing", "bell", {"phi": 0.3}, "delta", 0.1,
     {"eigh": 2, "eigvalsh": 1, "inv": 1}),
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.2,
     {"qr": 1, "svd": 1, "eigh": 2, "eigvalsh": 1, "inv": 1}),
])
def test_row_lapack_calls(tmp_path, monkeypatch, model, measurement, fixed, swept, value,
                          expected):
    # a dense row: eigh(rho) decides its support and serves its SLDs, one
    # eigh of [F~, Q~, F] refuses F and Q and gives F's frame, one inv of
    # (F, Q) and one eigvalsh over the pairs of both bounds; a point-source
    # row adds the QR of its frame and one SVD of its cores, and takes
    # eigh of its support's state
    spec = small_spec(tmp_path, model=model, measurement=measurement, fixed=fixed,
                      sweep_name=swept, start=value, stop=1.0)
    assert evaluate_point(spec, 0, value)["error"] == ""     # warms _measurement_povm
    calls = _count_lapack_calls(monkeypatch)
    assert evaluate_point(spec, 0, value)["error"] == ""
    assert dict(calls) == expected


def _count_lapack_calls(monkeypatch):
    calls = Counter()
    # qr and svd from numpy.linalg, the other routines from the package's kernel
    for name in ("cholesky", "qr", "svd", "eigh", "eigvalsh", "inv"):
        owner = np.linalg if name in ("qr", "svd") else linalg
        monkeypatch.setattr(owner, name, lambda *a, _f=getattr(owner, name), _n=name,
                            **k: calls.update([_n]) or _f(*a, **k))
    return calls


def test_pair_certified_worst_case_row_lapack_calls(tmp_path, monkeypatch):
    # the point-source row's calls, plus the exact worst case's eigh of
    # K_a - K_b and eigvalsh of K - Y: its noise is never built
    spec = small_spec(tmp_path, model="point-sources", measurement="optimal-hg",
                      fixed={"x_c": 0.1, "q": 0.3}, sweep_name="dx", start=0.2, stop=1.0,
                      oracle_samples=50)
    assert evaluate_point(spec, 0, 0.2)["error"] == ""       # warms _measurement_povm
    calls = _count_lapack_calls(monkeypatch)
    row = evaluate_point(spec, 0, 0.2)
    assert row["error"] == "" and row["oracle_best_X"] == row["sigma_lower"]
    assert dict(calls) == {"qr": 1, "svd": 1, "eigh": 3, "eigvalsh": 2, "inv": 1}


@pytest.mark.parametrize("model, measurement, fixed, swept, value", [
    ("phase-dephasing", "separable", {"phi": 0.7}, "delta", 0.3),
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.2),
], ids=["separable", "point-sources"])
def test_fresh_bundle_bounds_lapack_calls(tmp_path, monkeypatch, model, measurement, fixed,
                                          swept, value):
    # on a fresh bundle the bounds take one checked eigh of F alone (its
    # refusal and its frame), one inv and the pairs' eigvalsh, with the bits
    # of a sweep row's bounds, which refuses (F, Q) together
    spec = small_spec(tmp_path, model=model, measurement=measurement, fixed=fixed,
                      sweep_name=swept, start=value, stop=1.0)
    theta = sweep._theta_for(spec, value)
    built = build_model_povm(model, measurement, theta)
    bundle = fisher_bundle(built[0], theta, built[1])
    calls = _count_lapack_calls(monkeypatch)
    lower, upper = susceptibility.sigma_lower(bundle), susceptibility.sigma_upper(bundle)
    assert dict(calls) == {"eigh": 1, "inv": 1, "eigvalsh": 1}
    row = evaluate_point(spec, 0, value)
    assert row["error"] == ""
    assert (lower[0], upper[0]) == (row["sigma_lower"], row["sigma_upper"])
    assert upper[1] == [row[k] for k in sweep._keys(model)[3]]
    assert bundle.fisher_condition == row["condition_number_F"]


@pytest.mark.parametrize("model, measurement, fixed, swept, value, n_models, n_matrices", [
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.2, 1, 2),
    ("phase-dephasing", "bell", {"phi": PHI}, "delta", 0.1, 1, 2),
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.05, 1, 2),  # drops "rest"
    ("phase-dephasing", "separable", {"phi": PHI}, "delta", 0.3, 1, 2),
])
def test_point_evaluates_each_model_once(tmp_path, monkeypatch, model, measurement,
                                         fixed, swept, value, n_models, n_matrices):
    spec = small_spec(tmp_path, model=model, measurement=measurement, fixed=fixed,
                      sweep_name=swept, start=value, stop=1.0, oracle_samples=50)
    calls, inverted = _count_evaluations(monkeypatch)
    slds, eigen_slds = [], fisher._eigen_slds
    monkeypatch.setattr(fisher, "_eigen_slds", lambda *ops: slds.append(1) or eigen_slds(*ops))
    row = evaluate_point(spec, 0, value)
    assert row["error"] == ""
    # Q is the bundle's: one eigh of the state for all its SLDs
    assert len(slds) == 1
    # the row's model is evaluated once, to its stack of frame cores (a
    # Bell row's single-copy model only inside the two-copy one); a
    # point-source point builds no dense state or derivatives
    assert len({m for m, _ in calls}) == n_models
    assert set(calls.values()) == {1} and len(calls) == n_models
    assert {name for _, name in calls} == {"_point"}
    # one checked inverse of the stack of distinct matrices, F and Q, whose
    # one eigh also gives F's frame; a Bell row reads r_multi off the
    # two-copy Q = 2 Q_1, with no single-copy Q_1
    assert [name for name, _ in inverted] == ["_checked_inverse_and_eigh"]
    members = inverted[0][1]
    assert len(members) == n_matrices
    assert all(not np.array_equal(a, b) for i, a in enumerate(members)
               for b in members[i + 1:])


@pytest.mark.parametrize("model, measurement, fixed, swept, value", [
    ("phase-dephasing", "separable", {"phi": PHI}, "delta", 0.3),
    ("phase-dephasing", "bell", {"phi": PHI}, "delta", 0.1),
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.05),   # drops "rest"
    ("point-sources", "optimal-hg", {"x_c": 0.1, "q": 0.3}, "dx", 0.2),    # keeps it
])
def test_row_operators_are_one_stack(tmp_path, monkeypatch, model, measurement, fixed,
                                     swept, value):
    # the model's checked (1 + P, r, r) stack of cores reaches the traces
    # whole, and its restriction to the support reaches the SLDs and the
    # kernel whole: rho and the derivatives arrive as views of one
    # read-only array, never as a tuple that is stacked again
    spec = small_spec(tmp_path, model=model, measurement=measurement, fixed=fixed,
                      sweep_name=swept, start=value, stop=1.0, oracle_samples=1)
    points, received = [], {"traces": [], "slds": [], "kernel": []}

    def spy(module, name, key, operators):
        original = getattr(module, name)

        def recording(*args):
            received[key].append(operators(*args))
            return original(*args)

        monkeypatch.setattr(module, name, recording)

    def bundle_of(model, theta, povm):
        points.append((model, theta, fisher_bundle(model, theta, povm)))
        return points[-1][2]

    monkeypatch.setattr(sweep, "fisher_bundle", bundle_of)
    spy(fisher, "_outcome_traces", "traces", lambda rho, derivs, elements: (rho, derivs))
    spy(fisher, "_eigen_slds", "slds", lambda rho, derivs, eig=None: (rho, derivs))
    spy(susceptibility, "_k_operators", "kernel", lambda bundle, C=None: bundle.support[1:])
    assert evaluate_point(spec, 0, value)["error"] == ""
    [(m, theta, bundle)] = points
    _, rho, derivs = bundle.support
    support = rho.base
    assert isinstance(derivs, np.ndarray) and support is derivs.base is not None
    assert support.shape == (1 + len(theta),) + rho.shape and not support.flags.writeable
    assert received["traces"] and received["slds"] and received["kernel"]
    cores = m._point(theta)[1]
    for key, stack in (("traces", cores), ("slds", support), ("kernel", support)):
        for rho, derivs in received[key]:
            assert isinstance(derivs, np.ndarray), key
            assert rho.base is stack and derivs.base is stack, key
