"""Command-line entry point: learn, experiment, sweep, verify.

Exit codes: 0 success / secret recovered, 1 abstention or failed checks,
2 usage errors, 3 internal errors.  A learn/experiment ``--config`` file is
a JSON object of flag names and values, read as those flags placed before
the command-line ones (so a flag given on the command line wins, and a null
value means "not given"); each sweep entry is such an object for
``experiment``, without ``csv`` or ``config``.  QUDITLEARN_SEED provides the
default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .experiments import (
    PROBLEMS, ExperimentConfig, build_trial, draw_secret, run_experiment, sweep, write_csv,
)
from .field import FieldParams, ParameterError
from .ring import RingEmbedding
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
    """Raises a usage error instead of printing usage and exiting, so a sweep can name the entry."""

    def error(self, message: str):
        raise ParameterError(message)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The quditlearn parser; its subcommand parsers are of ``parser_class`` too."""
    parser = parser_class(prog="quditlearn")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", choices=PROBLEMS, default="lwe")
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--v", type=int)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--eta", type=float, default=0.1)
        p.add_argument("--p", type=int)
        p.add_argument("--m", type=int, default=4, help="ring conductor (ring-global)")
        p.add_argument("--L", type=int)
        p.add_argument("--M", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--engine", choices=("dense", "analytic"), default="analytic")
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
    return [f"--{key}={value}" for key, value in obj.items() if value is not None]


def _format_vector(vec: tuple[int, ...]) -> str:
    return "[" + ", ".join(str(x) for x in vec) + "]"


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The parsed learn/experiment flags, with the defaults that depend on other flags."""
    lpn = args.problem == "lpn"
    q = args.q if args.q is not None else (2 if lpn else 5)
    noise = NOISE_MODELS[args.noise or ("bernoulli" if lpn else "none")](args)
    noisy = noise.kind != "none"
    default_L = math.ceil(20 * max(args.k, 1) * math.log(10)) if noisy else 1
    m = args.m if args.problem == "ring-global" else None
    return ExperimentConfig(
        problem=args.problem,
        q=q,
        n=args.n if m is None else RingEmbedding.build(FieldParams(q), m).n,
        trials=getattr(args, "trials", 1),
        seed=args.seed if args.seed is not None else int(os.environ.get("QUDITLEARN_SEED", "0")),
        engine=args.engine,
        noise=noise,
        v=args.v,
        L=default_L if args.L is None else args.L,
        M=int(noisy) if args.M is None else args.M,
        k=args.k,
        p=args.p,
        m=m,
    )


def cmd_learn(args: argparse.Namespace) -> int:
    """One harness trial whose secret and samples both come from Philox(key=seed)."""
    config = _experiment_config(args)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    secret = draw_secret(config, rng)
    recovered = build_trial(config, secret)[0](rng)
    print(f"secret = {_format_vector(secret)}")
    if recovered is None:
        print("recovered = FAIL" if config.problem == "sis" else "recovered = BOT")
        return 1
    print(f"recovered = {_format_vector(recovered)}")
    return 0 if tuple(recovered) == secret else 1


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
            keys = set(vars(args)) - {"subcommand", "config"}
            flags = _config_flags(obj, keys, f"{args.subcommand} config file")
            at = argv.index(args.subcommand) + 1
            args = parser.parse_args(argv[:at] + flags + argv[at:])
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
