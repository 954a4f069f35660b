"""Command-line entry point: learn, experiment, sweep, verify.

Exit codes: 0 success / secret recovered, 1 abstention or failed checks,
2 usage errors, 3 internal errors.  Flag values override config-file values
(JSON, keys named after the flags), which override defaults; QUDITLEARN_SEED
provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .experiments import PROBLEMS, ExperimentConfig, build_trial, draw_secret, run_experiment, sweep
from .field import FieldParams, ParameterError
from .ring import RingEmbedding
from .samples import NoiseModel, _noise_from_obj
from .verify import DEFAULT_MAX_QN, format_results, run_verification


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quditlearn")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--q", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--v", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--p", type=int)
        p.add_argument("--m", type=int, help="ring conductor (ring-global)")
        p.add_argument("--L", type=int)
        p.add_argument("--M", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--engine", choices=("dense", "analytic"))
        p.add_argument("--noise", choices=("none", "bounded", "gaussian", "bernoulli", "global"))
        p.add_argument("--config", help="JSON file with default flag values")

    learn = sub.add_parser("learn", help="run one learner, print the recovered secret or BOT")
    add_common(learn)

    experiment = sub.add_parser("experiment", help="Monte Carlo run, print a report")
    add_common(experiment)
    experiment.add_argument("--trials", type=int)
    experiment.add_argument("--csv", help="also write the report to this CSV file, replacing its contents")

    sweep_p = sub.add_parser("sweep", help="run a list of configs from --config, emit CSV")
    sweep_p.add_argument("--config", required=True, help="JSON list of experiment configs")
    sweep_p.add_argument("--csv", help="CSV output path")
    sweep_p.add_argument("--seed", type=int)

    verify = sub.add_parser("verify", help="run the built-in invariant suite")
    verify.add_argument("--max-qn", type=int, default=DEFAULT_MAX_QN)
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ParameterError("config file for learn/experiment must be a JSON object")
    return obj


def _resolve(args: argparse.Namespace, file_values: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in file_values:
        return file_values[name]
    return default


def _resolve_seed(args: argparse.Namespace, file_values: dict) -> int:
    value = _resolve(args, file_values, "seed")
    if value is not None:
        return int(value)
    env = os.environ.get("QUDITLEARN_SEED")
    return int(env) if env is not None else 0


def _build_noise(kind: str, k: int, sigma: float, eta: float) -> NoiseModel:
    if kind == "none":
        return NoiseModel.none()
    if kind == "bounded":
        return NoiseModel.bounded_uniform(k)
    if kind == "gaussian":
        return NoiseModel.gaussian(sigma, k)
    if kind == "bernoulli":
        return NoiseModel.bernoulli(eta)
    return NoiseModel.global_shift(NoiseModel.bounded_uniform(k))


def _format_vector(vec: tuple[int, ...]) -> str:
    return "[" + ", ".join(str(x) for x in vec) + "]"


def _gather(args: argparse.Namespace) -> dict:
    file_values = _load_config_file(getattr(args, "config", None))
    problem = _resolve(args, file_values, "problem", "lwe")
    q = int(_resolve(args, file_values, "q", 2 if problem == "lpn" else 5))
    n = int(_resolve(args, file_values, "n", 2))
    k = int(_resolve(args, file_values, "k", 1))
    noise_kind = _resolve(args, file_values, "noise", "bernoulli" if problem == "lpn" else "none")
    noise = _build_noise(
        noise_kind,
        k,
        float(_resolve(args, file_values, "sigma", 1.0)),
        float(_resolve(args, file_values, "eta", 0.1)),
    )
    default_L = 1 if noise.kind == "none" else max(1, math.ceil(20 * max(k, 1) * math.log(10)))
    default_M = 0 if noise.kind == "none" else 1
    return {
        "problem": problem,
        "q": q,
        "n": n,
        "v": _resolve(args, file_values, "v"),
        "k": k,
        "noise": noise,
        "p": _resolve(args, file_values, "p"),
        "m": _resolve(args, file_values, "m", 4),
        "L": int(_resolve(args, file_values, "L", default_L)),
        "M": int(_resolve(args, file_values, "M", default_M)),
        "engine": _resolve(args, file_values, "engine", "analytic"),
        "seed": _resolve_seed(args, file_values),
        "trials": _resolve(args, file_values, "trials", 1000),
    }


def cmd_learn(args: argparse.Namespace) -> int:
    """One harness trial whose secret and samples both come from Philox(key=seed)."""
    opts = _gather(args)
    config = _experiment_config(opts, trials=1)
    rng = np.random.Generator(np.random.Philox(key=opts["seed"]))
    secret = draw_secret(config, rng)
    recovered = build_trial(config, secret)[0](rng)
    print(f"secret = {_format_vector(secret)}")
    if recovered is None:
        print("recovered = FAIL" if config.problem == "sis" else "recovered = BOT")
        return 1
    print(f"recovered = {_format_vector(recovered)}")
    return 0 if tuple(recovered) == secret else 1


def _experiment_config(opts: dict, trials: int) -> ExperimentConfig:
    m = int(opts["m"]) if opts["problem"] == "ring-global" else None
    return ExperimentConfig(
        problem=opts["problem"],
        q=opts["q"],
        n=opts["n"] if m is None else RingEmbedding.build(FieldParams(opts["q"]), m).n,
        trials=trials,
        seed=opts["seed"],
        engine=opts["engine"],
        noise=opts["noise"],
        v=opts["v"],
        L=opts["L"],
        M=opts["M"],
        k=opts["k"],
        p=opts["p"],
        m=m,
    )


def cmd_experiment(args: argparse.Namespace) -> int:
    opts = _gather(args)
    config = _experiment_config(opts, int(opts["trials"]))
    report = run_experiment(config)
    print(report.to_text())
    if getattr(args, "csv", None):
        from .experiments import write_csv

        write_csv([report], args.csv)
    return 0


def _config_from_obj(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ParameterError("each sweep entry must be a JSON object")
    for key in ("problem", "q", "n", "trials"):
        if key not in obj:
            raise ParameterError(f"sweep entry lacks the {key!r} key")
    for key in ("q", "n", "trials", "seed", "v", "L", "M", "k", "p", "m"):
        value = obj.get(key)
        optional = value is None and key in ("v", "k", "p", "m")  # null keeps the default
        if key in obj and not optional and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParameterError(f"sweep entry key {key!r} must be an integer, got {value!r}")
    try:
        noise = _noise_from_obj(obj.get("noise", {"kind": "none"}))
    except KeyError as exc:
        raise ParameterError(f"sweep entry noise lacks the {exc.args[0]!r} key") from None
    fields = {k: obj[k] for k in ("v", "L", "M", "k", "p", "m", "engine") if k in obj}
    if "s" in obj:
        if not isinstance(obj["s"], list):
            raise ParameterError("sweep entry key 's' must be a list of integers")
        fields["s"] = tuple(obj["s"])
    return ExperimentConfig(
        problem=obj["problem"],
        q=obj["q"],
        n=obj["n"],
        trials=obj["trials"],
        seed=obj.get("seed", 0),
        noise=noise,
        **fields,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list) or not entries:
        raise ParameterError("sweep config must be a non-empty JSON list")
    configs = [_config_from_obj(entry) for entry in entries]
    reports = sweep(configs, csv_path=args.csv)
    for report in reports:
        print(report.canonical_text())
        print()
    failures = sum(1 for r in reports if r.error is not None)
    if failures:
        print(f"{failures} configuration(s) failed", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(max_qn=args.max_qn, inject_fault=args.inject_fault)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code) if exc.code is not None else 2
    handlers = {
        "learn": cmd_learn,
        "experiment": cmd_experiment,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.subcommand](args)
    except (OSError, ValueError) as exc:  # ParameterError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a crash is not an abstention (exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
