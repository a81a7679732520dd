"""Correctness gate, run outside the timed phase.

* The three README sweeps must reproduce `reference.json` (recorded with
  `record_reference.py`) within relative 1e-9 on the F_*, Q_*, r_* and
  sigma_* columns.  F and Q entries are compared relative to the largest
  entry of their matrix, so rounding-level off-diagonal entries do not
  need to agree digit for digit.  A reference row that failed may now
  succeed; a reference row that succeeded must still succeed.
* Every error-free timed row must satisfy sigma_lower <= sigma_upper,
  sigma_lower >= P, r_multi >= 1 and r_nuisance_* >= 1, and a searched row
  oracle_best_X >= sigma_lower, all within relative 1e-9.
"""

import csv
import json
import os

RTOL = 1e-9
COMPARED_PREFIXES = ("F_", "Q_", "r_", "sigma_")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

README_SWEEPS = {
    "separable": ("sweep", "--model", "phase-dephasing", "--measurement", "separable",
                  "--fix", "phi=0.7853981633974483", "--sweep", "delta:0.001:1:50:log"),
    "bell": ("sweep", "--model", "phase-dephasing", "--measurement", "bell",
             "--fix", "phi=0.7853981633974483", "--sweep", "delta:0.001:1:50:log"),
    "point-sources": ("sweep", "--model", "point-sources", "--measurement", "optimal-hg",
                      "--fix", "x_c=0", "--fix", "q=0.3", "--sweep", "dx:0.01:1:50:log"),
}


def read_csv_rows(path):
    """CSV rows with the compared columns as floats and the error string."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        values = {k: float(v) for k, v in row.items()
                  if k.startswith(COMPARED_PREFIXES) and v != ""}
        out.append({"values": values, "error": row["error"]})
    return out


def _close(a, b, scale):
    return abs(a - b) <= RTOL * max(abs(b), scale)


def compare_to_reference(name, rows, reference):
    """Problems of one README sweep against its reference rows."""
    ref_rows = reference[name]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if ref["error"]:
            continue
        if row["error"]:
            problems.append(f"{name} row {i}: fails now ({row['error'][:80]})")
            continue
        for family in ("F_", "Q_"):
            scale = max((abs(v) for k, v in ref["values"].items()
                         if k.startswith(family)), default=0.0)
            for key, want in ref["values"].items():
                if key.startswith(family) and not _close(row["values"].get(key, float("nan")),
                                                         want, scale):
                    problems.append(f"{name} row {i}: {key} = "
                                    f"{row['values'].get(key)!r}, reference {want!r}")
        for key, want in ref["values"].items():
            if key.startswith(("r_", "sigma_")) and not _close(
                    row["values"].get(key, float("nan")), want, 0.0):
                problems.append(f"{name} row {i}: {key} = "
                                f"{row['values'].get(key)!r}, reference {want!r}")
    return problems


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _at_least(value, bound):
    return value >= bound - RTOL * max(1.0, abs(bound))


def row_violations(rows):
    """Invariant violations among error-free sweep rows (dicts from evaluate_point)."""
    problems = []
    for i, row in enumerate(rows):
        if row["error"]:
            continue
        param_names = [k[len("r_nuisance_"):] for k in row if k.startswith("r_nuisance_")]
        P = len(param_names)
        lo, up = row["sigma_lower"], row["sigma_upper"]
        checks = [("sigma_lower <= sigma_upper", _at_least(up, lo)),
                  ("sigma_lower >= P", _at_least(lo, P)),
                  ("r_multi >= 1", _at_least(row["r_multi"], 1.0))]
        checks += [(f"r_nuisance_{n} >= 1", _at_least(row[f"r_nuisance_{n}"], 1.0))
                   for n in param_names]
        if row["oracle_best_X"] != "":
            checks.append(("oracle_best_X >= sigma_lower",
                           _at_least(row["oracle_best_X"], lo)))
        problems += [f"row {i} at {row['sweep_value']!r}: {what}"
                     for what, ok in checks if not ok]
    return problems
