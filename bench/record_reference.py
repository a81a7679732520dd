"""Record the README sweeps' reference values into bench/reference.json.

    python3 bench/record_reference.py

Run from the root of a checkout.  The correctness gate (bench/gate.py)
compares every benchmark run against this file; re-record it only when a
change to the numbers is intended and explained.
"""

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fisusc.cli  # noqa: E402
from gate import README_SWEEPS, REFERENCE, read_csv_rows  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, argv in README_SWEEPS.items():
            out = os.path.join(tmp, f"{name}.csv")
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                if fisusc.cli.main(list(argv) + ["--out", out]) != 0:
                    raise SystemExit(f"README sweep {name} failed")
            reference[name] = read_csv_rows(out)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    for name, rows in reference.items():
        print(f"{name}: {len(rows)} rows, {sum(1 for r in rows if r['error'])} failed")


if __name__ == "__main__":
    main()
