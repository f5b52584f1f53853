"""Command-line front end.

Subcommands:
  sample         run chains, write final positions as CSV
  convergence    normalized W2 versus epsilon on a quadratic target
  coupled-error  strong error versus step size against a shared-path reference
  schedule       print the (h, N) or (h, R, K, N) rule as JSON

A JSON config file (--config) may pre-set any long flag of the subcommand
(keys with dashes or underscores); explicit flags override it, a key that
the subcommand does not take is a configuration error, and a value passes
the checks of the flag's text.  All outputs are deterministic given
(config, seed): no wall-clock anywhere.

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
from .errors import ConfigError, InvalidTargetError, ScheduleError, UlmcError, _require_count
from .samplers import (
    METHODS,
    _resolve_start,
    run_chain,
    schedule,
    schedule_parallel,
)
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

    def add_target(p, logistic=True):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (no wall-clock seeding)")
        p.add_argument("--quad-diag", help="comma-separated quadratic diagonal (default 1)")
        p.add_argument("--quad-center", help="comma-separated quadratic center (default 0)")
        if logistic:
            p.add_argument("--dataset",
                           help="LIBSVM file; the target is its ridge-logistic posterior")
            p.add_argument("--lambda", dest="lam", type=float,
                           help="ridge weight of the posterior (default 0.01)")
            p.add_argument("--scale-features", action="store_true", default=None,
                           help="scale the dataset's columns to [-1,1]")

    p = sub.add_parser("sample", help="run chains and write final positions")
    add_common(p)
    add_target(p)
    p.add_argument("--method", choices=METHODS, default="rmm")
    p.add_argument("--epsilon", type=float, help="accuracy target; derives h and N (and R, K)")
    p.add_argument("--h", type=float, help="explicit step size")
    p.add_argument("--n-steps", type=int, help="explicit iteration count")
    p.add_argument("--r-midpoints", type=int, default=1)
    p.add_argument("--k-iters", type=int, default=2)
    p.add_argument("--c-const", type=float, help="constant of the --epsilon rule (default 0.5)")
    p.add_argument("--chains", type=int, default=1)

    p = sub.add_parser("convergence", help="normalized W2 across an epsilon grid")
    add_common(p)
    add_target(p, logistic=False)  # the study's oracles are those of a quadratic
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
    # required, but checked in cmd_schedule: argparse's required=True ignores
    # the defaults a config file sets
    p.add_argument("--epsilon", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--c-const", type=float, default=0.5)
    p.add_argument("--parallel", action="store_true", help="use the R-midpoint rule")
    p.add_argument("--c-r", type=float, help="midpoint constant of --parallel (default 1)")
    return parser


def _apply_config_file(parser, argv):
    """Pre-parse --config and fold the file values in as the command's
    defaults, each checked as its flag's text would be."""
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
    subparsers = parser._subparsers._group_actions[0].choices
    # no option of the main parser takes a value, so the first command name
    # in argv is the command; without one, argparse reports the missing command
    command = next((tok for tok in argv if tok in subparsers), None)
    # --config and --help are dests of every command, but a file cannot act on them
    actions = [a for a in subparsers[command]._actions
               if a.dest not in ("config", "help")] if command else ()
    unknown = sorted({"lam": "lambda"}.get(key, key)
                     for key in set(defaults).difference(a.dest for a in actions))
    if command and unknown:
        raise ConfigError(f"config file keys that {command} does not take: {', '.join(unknown)}")
    for action in actions:
        if action.dest in defaults:
            action.default = _config_value(action, defaults[action.dest])


def _config_value(action, value):
    """A config file value, checked and converted as the flag's text is: a
    JSON boolean for a switch, else a string or a number."""
    flag, switch = action.option_strings[-1], action.nargs == 0
    if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
        kind = "true or false" if switch else "a string or a number"
        raise ConfigError(f"config value for {flag} must be {kind}, got {value!r}")
    try:
        value = value if switch else (action.type or str)(str(value))
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value for {flag}: {exc}") from exc
    return value


def _only_with(args, acts, where, **defaults):
    """Check flags, given as {dest: default}, that act only when `acts`.

    They default to None in the parser, so a flag given is told from one
    left out.  If the run does not act on them, one given (as a flag or a
    config key) is a configuration error; if it does, one left out takes
    its default, which the config line then shows.
    """
    given = [dest for dest in defaults if getattr(args, dest, None) is not None]
    if given and not acts:
        flags = [f"--{'lambda' if d == 'lam' else d.replace('_', '-')}" for d in given]
        raise ConfigError(f"{' and '.join(flags)} would be ignored {where} "
                          "(flags and config keys count together)")
    for dest, default in defaults.items() if acts else ():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _make_target(args):
    """The ridge-logistic posterior of --dataset when it is given, else the
    quadratic of --quad-diag and --quad-center.  Every command that builds
    a target takes --seed, so the seed is checked here first."""
    _require_count(args.seed, "seed", 0, ConfigError)
    logistic = getattr(args, "dataset", None) is not None
    _only_with(args, not logistic, "beside --dataset", quad_diag="1", quad_center=None)
    _only_with(args, logistic, "without --dataset", lam=1e-2, scale_features=False)
    if logistic:
        data = load_libsvm(args.dataset, scale_features=args.scale_features)
        return logistic_target(data, args.lam)
    diag = np.array(_parse_floats(args.quad_diag))
    if args.quad_center is None:
        center = np.zeros_like(diag)
    else:
        center = np.array(_parse_floats(args.quad_center))
    if center.shape != diag.shape:
        raise ConfigError("quad-diag and quad-center lengths differ")
    return quadratic_target(diag, center)


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
    explicit = sum(value is not None for value in (args.h, args.n_steps))
    if explicit != (0 if args.epsilon is not None else 2):
        raise ConfigError("give --epsilon alone or both --h and --n-steps "
                          "(flags and config keys count together)")
    if args.epsilon is not None and (args.r_midpoints, args.k_iters) != (1, 2):
        raise ConfigError("--epsilon sets R and K: give it without --r-midpoints and --k-iters")
    _only_with(args, args.epsilon is not None, "without --epsilon", c_const=0.5)
    _require_count(args.chains, "chain count", 1, ConfigError)
    target = _make_target(args)
    if args.epsilon is not None:
        rule = schedule_parallel if args.method == "rmm_parallel" else schedule
        sched = rule(args.epsilon, target.kappa, C=args.c_const, L=target.smoothness)
        h, n_steps = sched.h, sched.N
        args.r_midpoints, args.k_iters = sched.R, sched.K  # the config line shows them
    else:
        h, n_steps = args.h, args.n_steps

    # a read-only view of one start row: run_chain's own start is the only
    # state-sized copy
    start = np.broadcast_to(_resolve_start(target, None, 1), (args.chains, target.dim))
    result = run_chain(target, args.method, h, n_steps, args.seed, R=args.r_midpoints,
                       K=args.k_iters, x0=start)
    _write_table(
        args,
        ["chain"] + [f"x{i}" for i in range(target.dim)],
        ([i, *x.tolist()] for i, x in enumerate(result.final.x)),
        notes=[f"method={args.method} h={h!r} n_steps={n_steps} "
               f"seed={args.seed} grad_evals={result.grad_evals}"],
    )
    return 0


def cmd_convergence(args) -> int:
    target = _make_target(args)
    epsilons = _parse_floats(args.epsilon)
    if not epsilons:
        raise ConfigError(f"convergence needs at least one epsilon, got {args.epsilon!r}")
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
    missing = [f"--{name}" for name in ("epsilon", "kappa") if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"schedule needs {' and '.join(missing)}, as a flag or config key")
    _only_with(args, args.parallel, "without --parallel", c_r=1.0)
    if args.parallel:
        sched = schedule_parallel(args.epsilon, args.kappa, C=args.c_const, c_R=args.c_r)
    else:
        sched = schedule(args.epsilon, args.kappa, C=args.c_const)
    keys = ("h", "R", "K", "N") if args.parallel else ("h", "N")
    with _open_out(args) as fh:
        fh.write(json.dumps({key: getattr(sched, key) for key in keys}, sort_keys=True) + "\n")
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
    except (ConfigError, ScheduleError, InvalidTargetError) as exc:
        print(f"ulmc: configuration error: {exc}", file=sys.stderr)
        return 2
    except (UlmcError, OSError) as exc:
        print(f"ulmc: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
