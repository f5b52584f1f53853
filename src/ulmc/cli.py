"""Command-line front end.

Subcommands:
  sample         run chains, write final positions as CSV
  convergence    normalized W2 versus epsilon on a quadratic target
  coupled-error  strong error versus step size against a shared-path reference
  schedule       print the (h, N) or (h, R, K, N) rule as JSON

A JSON config file (--config) may pre-set any long flag (keys with dashes
or underscores); explicit flags override it.  All outputs are deterministic
given (config, seed): no wall-clock anywhere.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import __version__
from .analysis import coupled_error_experiment, stationary_error_study
from .errors import ConfigError, ScheduleError, UlmcError
from .samplers import METHODS, _resolve_start, run_chain, schedule, schedule_parallel
from .targets import load_libsvm, logistic_target, quadratic_target


def _parse_floats(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulmc",
        description="Underdamped Langevin sampling with randomized midpoints",
    )
    parser.add_argument("--version", action="version", version=f"ulmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file pre-setting any flag")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_target(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (no wall-clock seeding)")
        p.add_argument("--target", choices=("quadratic", "logistic"), default="quadratic")
        p.add_argument("--quad-diag", default="1", help="comma-separated curvature diagonal")
        p.add_argument("--quad-center", default=None, help="comma-separated center (default 0)")
        p.add_argument("--dataset", help="LIBSVM file for the logistic target")
        p.add_argument("--lambda", dest="lam", type=float, default=1e-2, help="ridge weight")
        p.add_argument("--scale-features", action="store_true", help="scale columns to [-1,1]")

    p = sub.add_parser("sample", help="run chains and write final positions")
    add_common(p)
    add_target(p)
    p.add_argument("--method", choices=METHODS, default="rmm")
    p.add_argument("--epsilon", type=float, help="accuracy target; derives h and N")
    p.add_argument("--h", type=float, help="explicit step size")
    p.add_argument("--n-steps", type=int, help="explicit iteration count")
    p.add_argument("--r-midpoints", type=int, default=1)
    p.add_argument("--k-iters", type=int, default=2)
    p.add_argument("--c-const", type=float, default=0.5, help="step-size rule constant")
    p.add_argument("--chains", type=int, default=1)

    p = sub.add_parser("convergence", help="normalized W2 across an epsilon grid")
    add_common(p)
    add_target(p)
    p.add_argument("--epsilon", default="0.5,0.25", help="comma-separated epsilon grid")
    p.add_argument("--c-const", type=float, default=0.5)
    p.add_argument("--chains", type=int, default=1000)

    p = sub.add_parser("coupled-error", help="strong error versus step size")
    add_common(p)
    add_target(p)
    p.add_argument("--h", default="0.025,0.05,0.1,0.2", help="comma-separated step sizes")
    p.add_argument("--total-time", type=float, default=10.0)
    p.add_argument("--refinement", type=int, default=32, help="reference refinement of min(h)")
    p.add_argument("--chains", type=int, default=10)

    p = sub.add_parser("schedule", help="print the step-size rule as JSON")
    add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--c-const", type=float, default=0.5)
    p.add_argument("--parallel", action="store_true", help="use the R-midpoint rule")
    p.add_argument("--c-r", type=float, default=1.0)
    p.add_argument("--c-k", type=float, default=3.0)
    return parser


def _apply_config_file(parser, argv):
    """Pre-parse --config and fold the file values in as parser defaults."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {known.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object of flag values")
    defaults = {str(k).replace("-", "_"): v for k, v in raw.items()}
    if "lambda" in defaults:
        defaults["lam"] = defaults.pop("lambda")
    for sub_action in parser._subparsers._group_actions[0].choices.values():
        valid = {a.dest for a in sub_action._actions}
        sub_action.set_defaults(**{k: v for k, v in defaults.items() if k in valid})


def _make_target(args):
    if args.target == "quadratic":
        diag = np.array(_parse_floats(args.quad_diag))
        if args.quad_center is None:
            center = np.zeros_like(diag)
        else:
            center = np.array(_parse_floats(args.quad_center))
        if center.shape != diag.shape:
            raise ConfigError("quad-diag and quad-center lengths differ")
        return quadratic_target(diag, center)
    if not args.dataset:
        raise ConfigError("logistic target needs --dataset")
    data = load_libsvm(args.dataset, scale_features=args.scale_features)
    return logistic_target(data, args.lam)


def _resolved_config(args):
    skip = {"command", "config", "out"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return json.dumps(cfg, sort_keys=True, default=str)


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _write_table(args, header, rows, notes=(), footer=()):
    """Write the version and config lines, "# " note lines, the CSV table
    and "# " footer lines.  Floats are written with repr, so they round-trip.
    """
    with _open_out(args) as fh:
        fh.write(f"# ulmc {__version__}\n")
        fh.write(f"# config {_resolved_config(args)}\n")
        for line in notes:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        for line in footer:
            fh.write(f"# {line}\n")


def cmd_sample(args) -> int:
    target = _make_target(args)
    if args.epsilon is not None:
        sched = schedule(args.epsilon, target.kappa, C=args.c_const, L=target.smoothness)
        h, n_steps = sched.h, sched.N
    elif args.h is not None and args.n_steps is not None:
        h, n_steps = args.h, args.n_steps
    else:
        raise ConfigError("give either --epsilon or both --h and --n-steps")
    if args.chains < 1:
        raise ConfigError(f"chain count must be >= 1, got {args.chains}")

    start = np.tile(_resolve_start(target, None), (args.chains, 1))
    result = run_chain(target, args.method, h, n_steps, args.seed,
                       R=args.r_midpoints, K=args.k_iters, x0=start)
    _write_table(
        args,
        ["chain"] + [f"x{i}" for i in range(target.dim)],
        ([i, *x.tolist()] for i, x in enumerate(result.final.x)),
        notes=[f"method={args.method} h={h!r} n_steps={n_steps} "
               f"seed={args.seed} grad_evals={result.grad_evals}"],
    )
    return 0


def cmd_convergence(args) -> int:
    if args.target != "quadratic":
        raise ConfigError("convergence study requires a quadratic target")
    target = _make_target(args)
    epsilons = _parse_floats(args.epsilon)
    rows = []
    for idx, eps in enumerate(epsilons):
        sched = schedule(eps, target.kappa, C=args.c_const, L=target.smoothness)
        study = stationary_error_study(target, sched, args.chains, args.seed + idx)
        w2 = study.w2
        rows.append((eps, sched.h, sched.N, w2.distance, w2.normalized,
                     study.ci_low, study.ci_high))
    header = ["epsilon", "h", "N", "w2", "w2_normalized", "ci_low", "ci_high"]
    _write_table(args, header, rows)
    return 0


def cmd_coupled_error(args) -> int:
    target = _make_target(args)
    h_values = _parse_floats(args.h)
    result = coupled_error_experiment(
        target,
        h_values,
        args.total_time,
        args.seed,
        reference_refinement=args.refinement,
        chains=args.chains,
    )
    _write_table(
        args,
        ["h", "method", "mean_error"],
        result.rows,
        footer=[f"slope {m} {slope!r}" for m, slope in sorted(result.slopes.items())],
    )
    return 0


def cmd_schedule(args) -> int:
    if args.parallel:
        sched = schedule_parallel(args.epsilon, args.kappa, C=args.c_const,
                                  c_R=args.c_r, c_K=args.c_k)
        payload = {"h": sched.h, "R": sched.R, "K": sched.K, "N": sched.N}
    else:
        sched = schedule(args.epsilon, args.kappa, C=args.c_const)
        payload = {"h": sched.h, "N": sched.N}
    text = json.dumps(payload, sort_keys=True)
    with _open_out(args) as fh:
        fh.write(text + "\n")
    return 0


_DISPATCH = {
    "sample": cmd_sample,
    "convergence": cmd_convergence,
    "coupled-error": cmd_coupled_error,
    "schedule": cmd_schedule,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ConfigError, ScheduleError) as exc:
        print(f"ulmc: configuration error: {exc}", file=sys.stderr)
        return 2
    except (UlmcError, OSError) as exc:
        print(f"ulmc: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
