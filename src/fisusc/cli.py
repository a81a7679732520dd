"""Command-line front end.

Verbs:

* ``sweep``      - run a parameter sweep and write a CSV,
* ``verify``     - run the invariant suite, JSON report, exit 0/1,
* ``show-model`` - print rho, F and Q at one parameter point.

Sweeps can be described in a YAML config file; flags override its values,
which `SweepSpec`'s checker judges all the same.  Exit codes: 0 success,
1 invariant failure, 2 invalid specification or unwritable output,
3 numerical failure at every sweep point.

A process loads only what its verb runs: PyYAML is imported by a
``--config`` sweep and the invariant suite (``fisusc.verify``) by ``verify``.
"""

import argparse
import contextlib
import re
import sys
from functools import lru_cache

import numpy as np

from .fisher import fisher_bundle
from .model import check_value
from .sweep import (FIELD_KINDS, MEASUREMENTS, MODELS, NUMERICAL_ERRORS, SweepSpec,
                    SweepSpecError, check_model_spec, checked_model_povm, run_sweep)

EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 1
EXIT_INVALID_SPEC = 2
EXIT_NUMERICAL_FAILURE = 3
# the keys a YAML config may hold, at the top level and under 'sweep:'
CONFIG_KEYS = ("model", "measurement", "fix", "sweep", "oracle_samples", "seed", "out",
               "workers", "n_max")
SWEEP_KEYS = ("name", "start", "stop", "count", "scale")


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
        fields = dict(sweep_name=parts[0], start=float(parts[1]), stop=float(parts[2]),
                      count=int(parts[3]))
    except ValueError as err:
        raise SweepSpecError(f"--sweep {text!r}: {err}")
    if len(parts) == 5:
        fields["scale"] = parts[4]
    return fields


def _mapping(value, what, keys=None):
    """A config mapping (None reads as empty); refuses another type or a key not in ``keys``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SweepSpecError(f"{what} must be a mapping, got {type(value).__name__}")
    unknown = [str(k) for k in value if keys is not None and k not in keys]
    if unknown:
        raise SweepSpecError(f"unknown {what} key(s) {unknown}; allowed: {', '.join(keys)}")
    return value


@lru_cache(maxsize=None)
def _config_loader():
    """The config's YAML loader class, built once.

    Where PyYAML has libyaml, its C parser reads the events (the pure-Python
    parser is several times slower) and PyYAML's Python composer builds the
    nodes: that composer's recursion ends deeply nested brackets in a
    RecursionError, where libyaml's C composer overflows the C stack.
    """
    import yaml
    if getattr(yaml, "__with_libyaml__", False):
        from yaml._yaml import CParser
        from yaml.composer import Composer
        from yaml.constructor import SafeConstructor
        from yaml.resolver import Resolver

        class ConfigLoader(Composer, CParser, SafeConstructor, Resolver):
            def __init__(self, stream):
                CParser.__init__(self, stream)
                SafeConstructor.__init__(self)
                Resolver.__init__(self)
                Composer.__init__(self)
    else:
        ConfigLoader = type("ConfigLoader", (yaml.SafeLoader,), {})
    # a plain 1e-3 or 2.5e3 is a float (YAML 1.2), not a string (PyYAML's YAML 1.1)
    ConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return ConfigLoader


def _load_config(path):
    """The config file's mapping; YAML that cannot be read is refused in one line."""
    if path is None:
        return {}
    import yaml
    # read as bytes, so that PyYAML detects the encoding and reports a bad
    # byte as a YAMLError (a text-mode read raises UnicodeDecodeError); the
    # Python composer recurses, and exhausts the stack on deeply nested brackets;
    # a scalar the constructor cannot build (an integer past Python's digit
    # limit, a date such as 2001-13-45) raises ValueError
    with open(path, "rb") as fh:
        try:
            config = yaml.load(fh, Loader=_config_loader())
        except (yaml.YAMLError, RecursionError, ValueError) as err:
            raise SweepSpecError(f"config {path} is not readable YAML: "
                                 f"{' '.join(str(err).split())}")
    return _mapping(config, "config", CONFIG_KEYS)


def _spec_from_args(args):
    """Merge config file and flags (flags win) into a SweepSpec (`run_sweep` validates);
    `model.check_value` judges each config value's kind, YAML's ``3.0`` as an int, even
    where a flag wins (`validate` judges the bounds)."""
    cfg = _load_config(args.config)
    fixed = _mapping(cfg.get("fix"), "config 'fix:'")
    sweep_cfg = _mapping(cfg.get("sweep"), "config 'sweep:'", SWEEP_KEYS)
    fields = {k: v for k, v in cfg.items() if k not in ("fix", "sweep")}
    fields.update(("sweep_name" if k == "name" else k, v) for k, v in sweep_cfg.items())
    try:
        for name, value in fixed.items():
            check_value(f"fix {name}", value, float, error=SweepSpecError)
        for key, (kind, *_) in FIELD_KINDS.items():
            if key in fields:
                if kind is int and isinstance(fields[key], float) and fields[key].is_integer():
                    fields[key] = int(fields[key])
                check_value(key, fields[key], kind, error=SweepSpecError)
    except SweepSpecError as err:
        raise SweepSpecError(f"config {args.config}: {err}") from None
    fixed.update(_parse_fix(args.fix))
    fields.update((k, v) for k, v in vars(args).items() if k in FIELD_KINDS and v is not None)
    if args.sweep:
        fields.update(_parse_sweep(args.sweep))
    if any(k not in fields for k in ("sweep_name", "start", "stop", "count")):
        raise SweepSpecError("a sweep needs name, start, stop and count "
                             "(--sweep or config 'sweep:')")
    return SweepSpec(**{"model": "", "measurement": "", **fields, "fixed": fixed})


def _cmd_sweep(args):
    try:
        spec = _spec_from_args(args)
        rows = run_sweep(spec)       # opens spec.out before the first point
    except (SweepSpecError, OSError) as err:
        print(f"invalid sweep specification: {err}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    n_failed = sum(1 for r in rows if r["error"])
    print(f"wrote {len(rows)} rows to {spec.out} ({n_failed} with errors)")
    if n_failed == len(rows):
        print("every sweep point failed numerically", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    return EXIT_OK


def run_verify(seed):
    """:func:`fisusc.verify.run_verify`, the suite imported on first use."""
    from . import verify
    return verify.run_verify(seed=seed)


def _cmd_verify(args):
    seed = args.seed if args.seed is not None else 0
    if seed < 0:     # numpy refuses a negative seed in most checks
        print(f"invalid verify seed {seed}: must be >= 0", file=sys.stderr)
        return EXIT_INVALID_SPEC
    try:      # an unwritable --out fails before the suite runs
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            report = run_verify(seed=seed)
            print(report.to_json(), file=fh)
    except OSError as err:
        print(f"cannot write the verify report: {err}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_INVARIANT_FAILURE


def _cmd_show_model(args):
    try:
        fixed = _parse_fix(args.fix)
        model_id, measurement = args.model or "", args.measurement or ""
        names = check_model_spec(model_id, measurement, fixed)
        theta = np.array([fixed[n] for n in names])
        model, povm, copies = checked_model_povm(model_id, measurement, theta, f"point {fixed}")
    except SweepSpecError as err:
        print(f"invalid specification: {err}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    try:
        bundle = fisher_bundle(model, theta, povm)
        rho, F, Q = bundle.rho, bundle.fisher, bundle.qfi   # a sweep row's Q, bit for bit
    except NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    print(f"model = {model_id}, measurement = {measurement}, copies = {copies}")
    print(f"theta = { {n: float(t) for n, t in zip(names, theta)} }")
    with np.printoptions(precision=10, suppress=False, linewidth=140):
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


@lru_cache(maxsize=None)
def _parser():
    """The process's one parser; `parse_args` keeps no state between calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
