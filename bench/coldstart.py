"""Cold start of the fisusc CLI, timed by the parent process.

Run as `python3 bench/coldstart.py '<json>'` with the JSON holding the
source directory, the argv of the workload's first unit and, for a sweep,
its SweepSpec fields.  Imports `fisusc.cli`, parses the argv, validates
the spec and prints `time.monotonic()` at that moment; the parent took
`time.monotonic()` just before launching, and on Linux both read the same
system-wide clock.
"""

import json
import sys
import time

job = json.loads(sys.argv[1])
sys.path.insert(0, job["src"])

import fisusc.cli  # noqa: E402
import fisusc.sweep  # noqa: E402

fisusc.cli.build_parser().parse_args(job["argv"])
if job["spec"] is not None:
    fisusc.sweep.SweepSpec(**job["spec"]).validate()
print(json.dumps({"done": time.monotonic(), "module": fisusc.__file__}))
