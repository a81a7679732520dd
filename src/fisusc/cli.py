"""Command-line front end.

Verbs:

* ``sweep``      - run a parameter sweep and write a CSV,
* ``verify``     - run the invariant suite, JSON report, exit 0/1,
* ``show-model`` - print rho, F and Q at one parameter point.

Sweeps can be described in a YAML config file; command-line flags
override config values.  Exit codes: 0 success, 1 invariant failure,
2 invalid specification, 3 numerical failure at every sweep point.
"""

import argparse
import sys

import numpy as np
import yaml

from .fisher import fisher_bundle, qfi_matrix
from .sweep import (MEASUREMENTS, MODELS, SweepSpec, SweepSpecError,
                    build_model_povm, check_in_domain, check_model_spec,
                    run_sweep)
from .verify import run_verify

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_INVALID_SPEC = 2
EXIT_NUMERICAL_FAILURE = 3


def _parse_fix(items):
    fixed = {}
    for item in items or []:
        if "=" not in item:
            raise SweepSpecError(f"--fix expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            fixed[name.strip()] = float(value)
        except ValueError:
            raise SweepSpecError(f"--fix value for {name!r} is not a number: {value!r}")
    return fixed


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise SweepSpecError(
            f"--sweep expects name:start:stop:count[:log|:linear], got {text!r}")
    try:
        name, start, stop, count = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as err:
        raise SweepSpecError(f"--sweep {text!r}: {err}")
    scale = parts[4] if len(parts) == 5 else None
    if scale is not None and scale not in ("log", "linear"):
        raise SweepSpecError(f"unknown sweep scale {scale!r}")
    return name, start, stop, count, scale


def _integer(value, key):
    """``value`` as an int; a number with a fractional part is refused, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise SweepSpecError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise SweepSpecError("config file must contain a mapping")
    return data


def _spec_from_args(args):
    """Merge config file and flags (flags win) into a SweepSpec."""
    cfg = _load_config(args.config)
    fixed = dict(cfg.get("fix") or {})
    fixed.update(_parse_fix(args.fix))
    sweep_cfg = cfg.get("sweep") or {}
    name = sweep_cfg.get("name")
    start, stop = sweep_cfg.get("start"), sweep_cfg.get("stop")
    count, scale = sweep_cfg.get("count"), sweep_cfg.get("scale")
    if args.sweep:
        name, start, stop, count, flag_scale = _parse_sweep(args.sweep)
        if flag_scale is not None:
            scale = flag_scale
    if name is None or start is None or stop is None or count is None:
        raise SweepSpecError("a sweep needs name, start, stop and count "
                             "(--sweep or config 'sweep:')")
    if scale is None:
        # both limits of interest (delta -> 0, dx -> 0) sit at zero, so
        # log spacing is the default for those axes
        scale = "log" if name in ("delta", "dx") else "linear"
    def pick(flag, key, default):
        if flag is not None:
            return flag
        return cfg.get(key, default)
    try:
        spec = SweepSpec(
            model=pick(args.model, "model", None) or "",
            measurement=pick(args.measurement, "measurement", None) or "",
            fixed={k: float(v) for k, v in fixed.items()},
            sweep_name=name, start=float(start), stop=float(stop),
            count=_integer(count, "count"), scale=scale,
            oracle_samples=_integer(pick(args.oracle_samples, "oracle_samples", 0),
                                    "oracle_samples"),
            seed=_integer(pick(args.seed, "seed", 0), "seed"),
            out=str(pick(args.out, "out", "sweep.csv")),
            workers=_integer(pick(args.workers, "workers", 1), "workers"),
            n_max=_integer(cfg.get("n_max", 20), "n_max"),
        )
    except (TypeError, ValueError) as err:
        raise SweepSpecError(f"malformed value in the sweep specification: {err}")
    spec.validate()
    return spec


def _cmd_sweep(args):
    try:
        spec = _spec_from_args(args)
    except (SweepSpecError, OSError, yaml.YAMLError) as err:
        print(f"invalid sweep specification: {err}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    rows = run_sweep(spec)
    n_failed = sum(1 for r in rows if r["error"])
    print(f"wrote {len(rows)} rows to {spec.out} ({n_failed} with errors)")
    if n_failed == len(rows):
        print("every sweep point failed numerically", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    return EXIT_OK


def _cmd_verify(args):
    report = run_verify(seed=args.seed if args.seed is not None else 0)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_INVARIANT_FAILURE


def _cmd_show_model(args):
    try:
        fixed = _parse_fix(args.fix)
        model_id = args.model or ""
        measurement = args.measurement or ""
        names = check_model_spec(model_id, measurement, fixed)
        theta = np.array([fixed[n] for n in names])
        model, povm, copies, _ = build_model_povm(model_id, measurement, theta)
        check_in_domain(model, theta, f"point {fixed}")
    except SweepSpecError as err:
        print(f"invalid specification: {err}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    try:
        rho = model.state_at(theta)
        F = fisher_bundle(model, theta, povm).fisher
        Q = qfi_matrix(model, theta).qfi
    except ValueError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    np.set_printoptions(precision=10, suppress=False, linewidth=140)
    print(f"model = {model_id}, measurement = {measurement}, copies = {copies}")
    print(f"theta = {dict(zip(names, theta))}")
    for name, value in (("rho", rho), ("F", F), ("Q", Q)):
        print(f"{name} =")
        print(np.array2string(value))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fisusc",
        description="Fisher-information noise susceptibility for quantum measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep, write CSV")
    sweep.add_argument("--model", choices=MODELS)
    sweep.add_argument("--measurement", choices=MEASUREMENTS)
    sweep.add_argument("--fix", action="append", metavar="NAME=VALUE",
                       help="fixed parameter (repeatable)")
    sweep.add_argument("--sweep", metavar="NAME:START:STOP:COUNT[:log|:linear]")
    sweep.add_argument("--oracle-samples", type=int, dest="oracle_samples")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out")
    sweep.add_argument("--workers", type=int)
    sweep.add_argument("--config", help="YAML config file; flags override")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--out", help="write the JSON report here instead of stdout")
    verify.set_defaults(func=_cmd_verify)

    show = sub.add_parser("show-model", help="print rho, F, Q at a point")
    show.add_argument("--model", choices=MODELS)
    show.add_argument("--measurement", choices=MEASUREMENTS)
    show.add_argument("--fix", action="append", metavar="NAME=VALUE")
    show.set_defaults(func=_cmd_show_model)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
