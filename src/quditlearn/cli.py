"""Command-line entry point: learn, experiment, sweep, verify.

Exit codes: 0 success / secret recovered, 1 abstention or failed checks,
2 usage errors, 3 internal errors.  A learn/experiment ``--config`` file is
a JSON object of flag names and values, read as those flags placed before
the command-line ones (so a flag given on the command line wins, and a null
value means "not given"; a string is the flag's text, any other value its
JSON); each sweep entry is such an object for ``experiment``, without
``csv`` or ``config``.  A value that its flag rejects exits 2 with one error
line naming the file or entry.  QUDITLEARN_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .experiments import (
    PROBLEMS, ExperimentConfig, build_trial, run_experiment, sweep, write_csv,
)
from .field import FieldParams, ParameterError
from .learners import ENGINES
from .ring import ring_dimension
from .samples import NoiseModel
from .verify import format_results, run_verification

NOISE_MODELS = {  # --noise value -> the NoiseModel built from the parsed flags
    "none": lambda args: NoiseModel.none(),
    "bounded": lambda args: NoiseModel.bounded_uniform(args.k),
    "gaussian": lambda args: NoiseModel.gaussian(args.sigma, args.k),
    "bernoulli": lambda args: NoiseModel.bernoulli(args.eta),
    "global": lambda args: NoiseModel.global_shift(NoiseModel.bounded_uniform(args.k)),
}


class _EntryParser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting, so the message can name its config."""

    def error(self, message: str):
        raise ParameterError(message)


@functools.cache
def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """One shared quditlearn parser per ``parser_class``, also its subparsers' class; callers must not modify it."""
    parser = parser_class(prog="quditlearn")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", choices=PROBLEMS, default="lwe")
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--v", type=int)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--eta", type=float, default=0.1)
        p.add_argument("--p", type=int)
        p.add_argument("--m", type=int, help="ring conductor (ring-global, default 4)")
        p.add_argument("--L", type=int)
        p.add_argument("--M", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--engine", choices=ENGINES, help="default: dense for sis and ring-global, else analytic")
        p.add_argument("--noise", choices=tuple(NOISE_MODELS))
        p.add_argument("--config", help="JSON object of flag values; command-line flags win")

    learn = sub.add_parser("learn", help="run one learner, print the recovered secret or BOT")
    add_common(learn)

    experiment = sub.add_parser("experiment", help="Monte Carlo run, print a report")
    add_common(experiment)
    experiment.add_argument("--trials", type=int, default=1000)
    experiment.add_argument("--csv", help="also write the report to this CSV file, replacing its contents")

    sweep_p = sub.add_parser("sweep", help="run a list of configs from --config, emit CSV")
    sweep_p.add_argument(
        "--config", required=True, help="JSON list of experiment --config objects (no csv or config key)"
    )
    sweep_p.add_argument("--csv", help="CSV output path")

    verify = sub.add_parser("verify", help="run the built-in invariant suite")
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def _config_flags(obj, keys: set[str], what: str) -> list[str]:
    """The ``--key=value`` flags that a config object names; each key must be one of ``keys``."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object")
    for key in obj:
        if key not in keys:
            raise ParameterError(f"{what} key {key!r} names no flag it can set")
    # a string is the flag's text; any other value is written as JSON (true, not True)
    return [f"--{key}={value if isinstance(value, str) else json.dumps(value)}"
            for key, value in obj.items() if value is not None]


def _format_vector(vec: tuple[int, ...]) -> str:
    return "[" + ", ".join(str(x) for x in vec) + "]"


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The parsed learn/experiment flags, with the defaults that depend on other flags."""
    lpn = args.problem == "lpn"
    q = args.q if args.q is not None else (2 if lpn else 5)
    noise = NOISE_MODELS[args.noise or ("bernoulli" if lpn else "none")](args)
    noisy = noise.kind != "none"
    default_L = math.ceil(20 * max(args.k, 1) * math.log(10)) if noisy else 1
    ring = args.problem == "ring-global"
    m = 4 if ring and args.m is None else args.m
    env_seed = os.environ.get("QUDITLEARN_SEED", "0")
    try:
        seed = args.seed if args.seed is not None else int(env_seed)
    except ValueError:
        raise ParameterError(f"QUDITLEARN_SEED must be an integer, got {env_seed!r}") from None
    config = ExperimentConfig(
        problem=args.problem,
        q=q,
        n=2 if args.n is None else args.n,
        trials=getattr(args, "trials", 1),
        seed=seed,
        engine=args.engine,
        noise=noise,
        v=args.v,
        L=default_L if args.L is None else args.L,
        M=int(noisy) if args.M is None else args.M,
        k=args.k,
        p=args.p,
        m=m,
    )
    if ring and args.n is None:  # n = phi(m), once the config has checked m; no embedding is built
        config = dataclasses.replace(config, n=ring_dimension(FieldParams(q), m))
    return config


def cmd_learn(args: argparse.Namespace) -> int:
    """One harness trial whose secret and samples both come from Philox(key=seed)."""
    config = _experiment_config(args)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    trial = build_trial(config, rng)
    recovered = trial.run(rng)
    print(f"secret = {_format_vector(trial.secret)}")
    if recovered is None:
        print("recovered = FAIL" if config.problem == "sis" else "recovered = BOT")
        return 1
    print(f"recovered = {_format_vector(recovered)}")
    return 0 if tuple(recovered) == trial.secret else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    report = run_experiment(_experiment_config(args))
    print(report.to_text())
    if args.csv:
        write_csv([report], args.csv)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list) or not entries:
        raise ParameterError("sweep config must be a non-empty JSON list")
    parser = build_parser(_EntryParser)
    keys = set(vars(parser.parse_args(["experiment"]))) - {"subcommand", "config", "csv"}
    configs = []
    for index, entry in enumerate(entries, 1):
        flags = _config_flags(entry, keys, f"sweep entry {index}")
        try:
            configs.append(_experiment_config(parser.parse_args(["experiment", *flags])))
        except ValueError as exc:
            raise ParameterError(f"sweep entry {index}: {exc}") from exc
    reports = sweep(configs, csv_path=args.csv)
    for report in reports:
        print(report.canonical_text())
        print()
    failures = sum(1 for r in reports if r.error is not None)
    if failures:
        print(f"{failures} configuration(s) failed", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(inject_fault=args.inject_fault)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    handlers = {
        "learn": cmd_learn,
        "experiment": cmd_experiment,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        args = parser.parse_args(argv)
        if args.subcommand in ("learn", "experiment") and args.config is not None:
            with open(args.config) as handle:
                obj = json.load(handle)
            what = f"{args.subcommand} config file"
            flags = _config_flags(obj, set(vars(args)) - {"subcommand", "config"}, what)
            at = argv.index(args.subcommand) + 1
            try:  # the command-line flags parsed above, so a usage error here is the file's
                args = build_parser(_EntryParser).parse_args(argv[:at] + flags + argv[at:])
            except ValueError as exc:
                raise ParameterError(f"{what}: {exc}") from exc
        csv_path = getattr(args, "csv", None)  # checked before any trial, creating nothing
        if csv_path is not None and (
            not csv_path or os.path.isdir(csv_path) or not os.path.isdir(os.path.dirname(csv_path) or ".")
        ):
            raise ParameterError(f"cannot write --csv {csv_path or repr(csv_path)}: not a file in an existing directory")
        return handlers[args.subcommand](args)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code) if exc.code is not None else 2
    except (OSError, ValueError) as exc:  # ParameterError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a crash is not an abstention (exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
