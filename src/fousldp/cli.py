"""Command-line interface.

Subcommands cover every analytic and Monte Carlo operation:

* ``rate``: rate-function tables over a grid of levels;
* ``tail``: sharp tail approximations, branch-tagged;
* ``saddle``: time-varying saddlepoint diagnostics;
* ``simulate``: path simulation with optional per-path CSV dumps;
* ``mc``: Monte Carlo tail comparisons;
* ``clt``: central-limit validation;
* ``oracle``: Legendre, Gamma-contour and Bessel-product cross-checks.

All numeric output is CSV with a header row, full-precision scientific
notation and a locale-independent decimal point, so identical invocations
produce byte-identical files. The columns of ``mc`` and ``oracle`` are the
fields of ``validate.MCReport`` and ``validate.OracleReport``, in order.
``--target`` names an entry of ``validate.FUNCTIONALS``. A JSON config file
may supply any long-form option, ``--target`` and ``--kind`` included;
explicit command-line flags win over config values. A config value converts
as the option's command-line token would (a list for a repeatable option,
true or false for a switch); one that does not is an invalid parameter.
Every option a command reads needs a value from the command line, the config
or its default; one message names each option that has none (``--kind``
alone for an ``oracle`` without one).

Exit codes: 0 success, 2 invalid parameter values, 3 numerical failure,
64 usage errors (unknown subcommand or flag, a flag abbreviated, a missing
option, an explicit ``oracle`` flag that its ``--kind`` does not read, or
``oracle --kind bessel`` without mpmath, which the ``test`` extra installs).

scipy is slow to import, so each command loads only the scipy module it
calls: ``rate``, ``tail``, ``saddle``, ``simulate``, ``mc`` and
``oracle --kind legendre`` load none, ``oracle --kind bessel`` loads
``scipy.special``, ``oracle --kind gamma-contour`` loads ``scipy.integrate``
(which imports ``scipy.optimize`` itself) and ``clt`` loads ``scipy.stats``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import energy, validate
from .model import ModelParams
from .sim import RngSpec, make_grid, simulate_martingale_batch, simulate_martingale_path

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # each option by dest, and the dests of the repeatable ones: a
        # config file is checked and converted against them
        self.options: dict[str, argparse.Action] = {}
        self.repeatable: set[str] = set()
        # an abbreviated flag would escape the config check, which knows
        # the explicit flags by their full names
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on bad usage; the contract here is 64
    def error(self, message):
        if "expected one argument" in message:
            # argparse reads a space-separated -1e-3 as an option
            message += "; write a negative value with =, as in --theta=-1e-3"
        raise _UsageError(message)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest != "help":
            self.options[action.dest] = action
        if kwargs.get("action") == "append":
            self.repeatable.add(action.dest)
        return action


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17e}"
    if x is None:
        return ""
    return str(x)


def _emit(rows: list[dict], out: Optional[str]) -> None:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines += [",".join(_fmt(r[k]) for k in header) for r in rows]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> ModelParams:
    return ModelParams(theta=args.theta, hurst=args.hurst)


def _each_level(args, row) -> int:
    # the one loop of rate, tail, saddle, mc and oracle --kind legendre:
    # row(c) builds the row of level c as a run of that level alone would
    _emit([row(c) for c in args.c], args.out)
    return EXIT_OK


def _cmd_rate(args) -> int:
    params = _params(args)
    functional = validate.FUNCTIONALS[args.target]

    def row(c):
        return {"target": args.target, "c": c, "rate": functional.rate(params, c),
                "branch": functional.branch(params, c, args.T)}

    return _each_level(args, row)


def _cmd_tail(args) -> int:
    params = _params(args)
    tail = validate.FUNCTIONALS[args.target].tail

    def row(c):
        approx = tail(params, c, args.T, with_order1=args.order1)
        return {
            "target": args.target,
            "c": c,
            "T": args.T,
            "branch": approx.branch.name,
            "lower_tail": approx.lower_tail,
            "rate": approx.rate,
            "log_prefactor": approx.log_prefactor,
            "t_power": approx.t_power,
            "order1": approx.order1,
            "value": approx.value(args.T),
        }

    return _each_level(args, row)


def _cmd_saddle(args) -> int:
    params = _params(args)

    def row(c):
        sol = energy.saddle_solve(params, c, args.T)
        return {
            "c": c,
            "T": args.T,
            "a_T": sol.a_T,
            "phi_T": sol.phi_T,
            "scale": sol.scale,
            "a0": sol.a_coeffs[0],
            "a1": sol.a_coeffs[1],
            "a2": sol.a_coeffs[2],
            "phi0": sol.phi_coeffs[0],
            "phi1": sol.phi_coeffs[1],
            "phi2": sol.phi_coeffs[2],
            "expansion": sol.a_expansion(args.T),
        }

    return _each_level(args, row)


def _draw_batch(args, params: ModelParams):
    # the batch of simulate, mc and clt: --replicates paths to --T on a
    # --grid-n grid, from --seed
    grid = make_grid(args.T, args.grid_n)
    return simulate_martingale_batch(params, grid, args.seed, args.replicates)


def _cmd_simulate(args) -> int:
    params = _params(args)
    if args.dump_paths:
        grid = make_grid(args.T, args.grid_n)
        if args.replicates < 1:
            raise ValueError("replicates must be >= 1")
        ends = []
        for rep in range(args.replicates):
            path = simulate_martingale_path(params, grid, RngSpec(args.seed, rep))
            dump = [
                {"t": t, "M": m, "Y": y, "Q": q, "S": s}
                for t, m, y, q, s in zip(path.grid.nodes, path.M, path.Y, path.Q, path.S)
            ]
            _emit(dump, f"{args.out or 'path'}_{rep}.csv")
            ends.append((path.s_terminal, path.theta_hat))
    else:
        res = _draw_batch(args, params)
        ends = zip(res.s_terminal, res.theta_hat)
    _emit([{"replicate": i, "S_T": float(s), "theta_hat": float(th)}
           for i, (s, th) in enumerate(ends)], args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    params = _params(args)
    # one batch serves every level; every level is checked before it is
    # drawn, and none is drawn if every level is underpowered
    underpowered = [
        validate._mc_closed_form(
            params, args.target, c, args.T, args.replicates, args.order1
        )[2]
        for c in args.c
    ]
    result = None if all(underpowered) else _draw_batch(args, params)
    return _each_level(args, lambda c: asdict(validate.mc_tail(
        params, args.target, c, args.T, args.replicates, args.seed,
        with_order1=args.order1, result=result)))


def _cmd_clt(args) -> int:
    params = _params(args)
    reports = validate.clt_test(params, args.T, args.replicates, args.seed,
                                result=_draw_batch(args, params))
    _emit([asdict(r) for r in reports], args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.kind == "legendre":
        params = _params(args)
        return _each_level(
            args, lambda c: asdict(validate.legendre_oracle(params, args.target, c)))
    if args.kind == "gamma-contour":
        reports = [validate.gamma_contour_oracle(
            args.shape, args.nu, args.gamma_freq, args.sigma2, args.T, args.ell, args.p
        )]
    else:  # bessel
        try:
            import mpmath  # noqa: F401  (r_h_oracle's reference arithmetic)
        except ImportError:
            raise _UsageError("oracle --kind bessel needs mpmath; install the "
                              "test extra: pip install 'fousldp[test]'") from None
        reports = [validate.r_h_oracle(hurst, z)
                   for z in map(float, np.geomspace(0.01, 500.0, 40))
                   for hurst in (0.51, 0.6, 0.75, 0.9, 0.99)]
    _emit([asdict(r) for r in reports], args.out)
    return EXIT_OK


#: the options each ``oracle --kind`` reads, by dest; ``--kind``, ``--out``
#: and ``--config`` are read by every kind
_ORACLE_READS = {
    "legendre": {"theta", "hurst", "target", "c"},
    "gamma-contour": {"shape", "nu", "gamma_freq", "sigma2", "T", "ell", "p"},
    "bessel": set(),
}


def _check_reads(command: _Parser, args: argparse.Namespace,
                 explicit: set[str]) -> None:
    # every option the command reads needs a value from the command line,
    # the config or its default; oracle reads the options of its --kind
    # alone, so an explicit flag that kind does not read would be dropped
    # without a word
    reads = set(command.options) - {"out", "config"}
    if args.command == "oracle":
        reads = {"kind"} | _ORACLE_READS.get(args.kind, set())
        unread = explicit - reads - {"out", "config"}
        if args.kind and unread:
            flags = sorted(command.options[d].option_strings[0] for d in unread)
            raise _UsageError(f"oracle --kind {args.kind} does not read {', '.join(flags)}")
    missing = [action.option_strings[0] for dest, action in command.options.items()
               if dest in reads and getattr(args, dest) is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")


#: the --replicates default of each command that draws a batch
_REPLICATES = {"simulate": 1, "mc": 100_000, "clt": 5000}


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    # the parser and each subcommand's parser by name
    parser = _Parser(prog="fousldp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}
    for name, func, help in (
        ("rate", _cmd_rate, "rate function table"),
        ("tail", _cmd_tail, "sharp tail approximations"),
        ("saddle", _cmd_saddle, "saddlepoint diagnostics (energy)"),
        ("simulate", _cmd_simulate, "simulate paths"),
        ("mc", _cmd_mc, "Monte Carlo tail comparison"),
        ("clt", _cmd_clt, "central limit validation"),
        ("oracle", _cmd_oracle, "numerical cross-checks"),
    ):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--theta", type=float)
        p.add_argument("--hurst", type=float)
        p.add_argument("--T", type=float, default=100.0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--config", type=str, default=None)
        if name in ("rate", "tail", "mc", "oracle"):
            p.add_argument("--target", choices=tuple(validate.FUNCTIONALS))
        if name in ("rate", "tail", "saddle", "mc", "oracle"):
            p.add_argument("--c", type=float, action="append")
        if name in _REPLICATES:
            p.add_argument("--replicates", type=int, default=_REPLICATES[name])
            p.add_argument("--grid-n", dest="grid_n", type=int, default=2000)
            p.add_argument("--seed", type=int, default=0)
        if name in ("tail", "mc"):
            p.add_argument("--order1", action="store_true")

    commands["simulate"].add_argument("--dump-paths", action="store_true")
    p = commands["oracle"]
    p.set_defaults(target="energy")
    p.add_argument("--kind", choices=tuple(_ORACLE_READS))
    p.add_argument("--shape", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--gamma-freq", dest="gamma_freq", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--p", type=int, default=2)
    return parser, commands


def _config_value(action: argparse.Action, repeatable: bool, value):
    # a config value converts as the command-line token it stands for would
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {value!r}")
        return value
    if repeatable:
        items = value if isinstance(value, list) else [value]
        if not items:
            raise ValueError("expected at least one value")
        return [_config_token(action, v) for v in items]
    return _config_token(action, value)


def _config_token(action: argparse.Action, value):
    if isinstance(value, (list, dict)) or value is None:
        raise ValueError(f"expected a single value, got {value!r}")
    if action.type is not None:
        value = action.type(str(value))
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {list(action.choices)}, got {value!r}")
    return value


def _apply_config(command: _Parser, args: argparse.Namespace,
                  explicit: set[str]) -> None:
    # config supplies defaults; the dests of flags explicitly present on
    # the command line keep their parsed values
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _UsageError("config file must contain a JSON object")
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in command.options:
            raise _UsageError(f"unknown config key {key!r}")
        if attr not in explicit:
            try:
                setattr(args, attr, _config_value(
                    command.options[attr], attr in command.repeatable, value))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and execute a subcommand; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        explicit = {tok.split("=", 1)[0].lstrip("-").replace("-", "_")
                    for tok in argv if tok.startswith("--")}
        _apply_config(commands[args.command], args, explicit)
        _check_reads(commands[args.command], args, explicit)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
