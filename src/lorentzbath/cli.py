"""Command-line surface: evolve, heatmap, cmax, sideband, verify.

Every subcommand emits a structured table either as CSV (metadata in
``#``-prefixed comment lines, then a header row, 17 significant digits,
LF endings) or as JSON ``{"metadata": ..., "data": [...]}``.  A flat
``key = value`` config file can seed any subcommand's flags; explicit
command-line flags always win over the file, the file wins over built-in
defaults.  Exit codes: 0 success, 1 numeric failure, 2 usage error.

Sweep parallelism is controlled by the LORENTZBATH_WORKERS environment
variable (default 1); it changes wall time only, never output bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import sweep
from ._version import SCHEMA_VERSION, __version__
from .errors import DomainError, IntegrationError, TargetNotReachable
from .sideband import SidebandConfig, effective_coupling, solve_amplitude

_EVOLVE_COLUMNS_ANALYTIC = (
    "tau", "c_re_e0", "c_im_e0", "c_re_g1", "c_im_g1",
    "p_e0", "p_g1", "p_g0", "survival", "concurrence",
)
_EVOLVE_COLUMNS_ORACLE = ("tau", "p_e0", "p_g1", "p_g0", "survival", "concurrence")
_HEATMAP_COLUMNS = ("xi", "tau", "concurrence")
_SIDEBAND_COLUMNS = ("mode", "g", "kappa", "nu", "n", "epsilon", "mu", "lambda", "xi")
_VERIFY_COLUMNS = ("name", "budget", "measured", "status")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_column(column, fmt: str) -> list:
    """The cells of one column as text, encoded once by the column's type."""
    values = np.asarray(column)
    items = values.tolist()
    kind = values.dtype.kind
    if kind == "b":
        return ["true" if v else "false" for v in items]
    if kind in "iu":
        return list(map(str, items))
    if kind == "f":
        if fmt == "csv":
            return ["%.17g" % v for v in items]
        cells = list(map(float.__repr__, items))
        if not np.isfinite(values).all():
            cells = [_JSON_NONFINITE.get(c, c) for c in cells]
        return cells
    return items if fmt == "csv" else list(map(encode_basestring_ascii, items))


def _emit(args, metadata: dict, names, columns) -> int:
    """Write one table; ``columns`` holds one equal-length sequence per name
    (the transpose of a 2-D array works)."""
    metadata = dict(metadata)
    metadata["artifact_version"] = __version__
    metadata["schema_version"] = SCHEMA_VERSION
    metadata["config"] = _resolved_config(args)
    rows = zip(*(_encode_column(c, args.format) for c in columns))
    if args.format == "json":
        # the layout json.dumps(..., indent=2) gives the data list
        data = "\n    ],\n    [\n      ".join(map(",\n      ".join, rows))
        data = f"[\n    [\n      {data}\n    ]\n  ]" if data else "[]"
        head = json.dumps({"metadata": {**_jsonable(metadata), "columns": list(names)}}, indent=2)
        text = f'{head[:-2]},\n  "data": {data}\n}}\n'
    else:
        lines = [
            f"# {key}: {json.dumps(_jsonable(val), sort_keys=True)}"
            for key, val in metadata.items()
        ]
        lines.append(",".join(names))
        lines.extend(map(",".join, rows))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _resolved_config(args) -> dict:
    skip = {"handler", "command"}
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}


# ----------------------------------------------------------------- evolve


def _cmd_evolve(args) -> int:
    if args.xi is None:
        raise DomainError("--xi is required (on the command line or in --config)")
    if args.xi <= 0 or not np.isfinite(args.xi):
        raise DomainError(f"--xi must be positive, got {args.xi}")
    if args.steps < 2:
        raise DomainError(f"--steps must be at least 2, got {args.steps}")
    if args.tau_max <= 0 or not np.isfinite(args.tau_max):
        raise DomainError(f"--tau-max must be positive, got {args.tau_max}")
    taus = np.linspace(0.0, args.tau_max, args.steps)
    columns, extra = sweep.evaluate(args.method, args.xi, taus, args.n_modes, args.window)
    names = _EVOLVE_COLUMNS_ANALYTIC if args.method == "analytic" else _EVOLVE_COLUMNS_ORACLE
    metadata = {"command": "evolve", "method": args.method, **extra}
    return _emit(args, metadata, names, [columns[name] for name in names])


# ---------------------------------------------------------------- heatmap


def _axis(lo: float, hi: float, steps: int, scale: str, name: str) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise DomainError(f"{name} range [{lo}, {hi}] is empty or not finite")
    if steps < 2:
        raise DomainError(f"{name} needs at least 2 steps, got {steps}")
    if scale == "log":
        if lo <= 0:
            raise DomainError(f"log-scaled {name} needs a positive minimum, got {lo}")
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def _cmd_heatmap(args) -> int:
    xi = _axis(args.xi_min, args.xi_max, args.xi_steps, args.xi_scale, "xi")
    if args.tau_max <= 0:
        raise DomainError(f"--tau-max must be positive, got {args.tau_max}")
    tau = _axis(0.0, args.tau_max, args.tau_steps, "linear", "tau")
    grid = sweep.SweepGrid(
        xi_values=xi,
        tau_values=tau,
        method=args.method,
        xi_spacing=args.xi_scale,
        tau_spacing="linear",
    )
    result = sweep.heatmap(grid, n_modes=args.n_modes, window=args.window)
    return _emit(args, result.metadata, _HEATMAP_COLUMNS, result.records[:, :3].T)


# ------------------------------------------------------------------ cmax


def _cmd_cmax(args) -> int:
    xi = _axis(args.xi_min, args.xi_max, args.steps, args.scale, "xi")
    curve = sweep.cmax_curve(xi, spacing=args.scale)
    return _emit(args, curve.metadata, sweep.CMAX_COLUMNS, curve.columns)


# -------------------------------------------------------------- sideband


def _cmd_sideband(args) -> int:
    for name in ("g", "kappa", "n"):
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required (on the command line or in --config)")
    if (args.target_xi is None) == (args.epsilon is None):
        raise DomainError("exactly one of --target-xi / --epsilon must be given")
    if args.kappa <= 0 or not np.isfinite(args.kappa):
        raise DomainError(f"--kappa must be positive, got {args.kappa}")
    if args.target_xi is not None:
        eps = solve_amplitude(
            g=args.g, nu=args.nu, n=args.n, kappa=args.kappa, target_xi=args.target_xi
        )
        lam = effective_coupling(SidebandConfig(g=args.g, epsilon=eps, nu=args.nu, n=args.n))
        row = (
            "inverse", args.g, args.kappa, args.nu, args.n,
            eps, eps / args.nu, lam, args.target_xi,
        )
    else:
        cfg = SidebandConfig(g=args.g, epsilon=args.epsilon, nu=args.nu, n=args.n)
        lam = effective_coupling(cfg)
        row = (
            "forward", args.g, args.kappa, args.nu, args.n,
            args.epsilon, args.epsilon / args.nu, lam, 4.0 * abs(lam) / args.kappa,
        )
    return _emit(args, {"command": "sideband"}, _SIDEBAND_COLUMNS, [[v] for v in row])


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    report = sweep.verify(quick=args.quick)
    metadata = dict(report.metadata)
    metadata["overall"] = "pass" if report.passed else "FAIL"
    code = _emit(args, metadata, _VERIFY_COLUMNS, list(zip(*report.rows())))
    if code != 0:
        return code
    return 0 if report.passed else 1


# ------------------------------------------------------------ the parser


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write to PATH instead of standard output")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="flat key = value file seeding these flags; "
                        "explicit flags override the file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lorentzbath",
        description="Extractable qubit-reservoir entanglement for a Lorentzian bath.",
        epilog=f"Set {sweep.WORKERS_ENV} to parallelize sweeps (wall time only; "
               "output bytes are identical).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = subs.add_parser("evolve", help="time series at one xi")
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--tau-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=301)
    p.add_argument("--method", choices=sweep.METHODS, default="analytic")
    p.add_argument("--n-modes", type=int, default=sweep.DEFAULT_N_MODES,
                   help="bath modes (multimode method only)")
    p.add_argument("--window", type=float, default=sweep.DEFAULT_WINDOW,
                   help="bath half-width in units of kappa (multimode only)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_evolve)
    registry["evolve"] = p

    p = subs.add_parser("heatmap", help="concurrence over a xi x tau grid")
    p.add_argument("--xi-min", type=float, default=0.01)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--xi-steps", type=int, default=81)
    p.add_argument("--xi-scale", choices=("log", "linear"), default="log")
    p.add_argument("--tau-max", type=float, default=3.0)
    p.add_argument("--tau-steps", type=int, default=301)
    p.add_argument("--method", choices=sweep.METHODS, default="analytic")
    p.add_argument("--n-modes", type=int, default=sweep.DEFAULT_N_MODES)
    p.add_argument("--window", type=float, default=sweep.DEFAULT_WINDOW)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_heatmap)
    registry["heatmap"] = p

    p = subs.add_parser("cmax", help="C_max and its derivative versus xi")
    p.add_argument("--xi-min", type=float, default=0.01)
    p.add_argument("--xi-max", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_cmax)
    registry["cmax"] = p

    p = subs.add_parser("sideband", help="effective coupling / drive inversion")
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nu", type=float, default=1.0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--target-xi", type=float, default=None)
    mode.add_argument("--epsilon", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sideband)
    registry["sideband"] = p

    p = subs.add_parser("verify", help="run the cross-check battery")
    depth = p.add_mutually_exclusive_group()
    depth.add_argument("--quick", action="store_true",
                       help="coarse grids, well under 30 s")
    depth.add_argument("--full", action="store_true",
                       help="complete budgets (the default)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)
    registry["verify"] = p

    return parser, registry


def _parse_config_value(raw: str, action) -> object:
    if isinstance(action.const, bool) or isinstance(action.default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise DomainError(f"expected a boolean for {action.dest!r}, got {raw!r}")
    convert = action.type or str
    try:
        value = convert(raw)
    except (TypeError, ValueError):
        raise DomainError(f"bad value {raw!r} for config key {action.dest!r}") from None
    if action.choices is not None and value not in action.choices:
        raise DomainError(
            f"config key {action.dest!r} must be one of {sorted(action.choices)}, got {value!r}"
        )
    return value


def load_config(path: str, subparser: argparse.ArgumentParser) -> dict:
    """Read a flat ``key = value`` file into defaults for one subcommand."""
    actions = {
        a.dest: a
        for a in subparser._actions
        if a.dest not in ("help", "config") and a.option_strings
    }
    overrides = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in actions:
            raise DomainError(f"{path}:{ln}: unknown config key {key.strip()!r}")
        overrides[dest] = _parse_config_value(val.strip(), actions[dest])
    return overrides


def main(argv=None) -> int:
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = load_config(args.config, registry[args.command])
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        registry[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)  # explicit flags still take precedence
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TargetNotReachable, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric machinery failed somewhere deeper
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
