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
import math
import os
import sys
from contextlib import nullcontext
from itertools import product
from json.encoder import encode_basestring_ascii

from . import sideband, sweep
from ._version import DEFAULT_N_MODES, DEFAULT_WINDOW, METHODS, SCHEMA_VERSION, WORKERS_ENV
from ._version import __version__
from .errors import DomainError, IntegrationError, TargetNotReachable, _positive

_EVOLVE_COLUMNS_ANALYTIC = (
    "tau", "c_re_e0", "c_im_e0", "c_re_g1", "c_im_g1",
    "p_e0", "p_g1", "p_g0", "survival", "concurrence",
)
_EVOLVE_COLUMNS_ORACLE = ("tau", "p_e0", "p_g1", "p_g0", "survival", "concurrence")
_HEATMAP_COLUMNS = ("xi", "tau", "concurrence")
_CMAX_COLUMNS = ("xi", "tau_opt", "c_max", "dcmax_dxi", "source")
_SIDEBAND_COLUMNS = ("mode", "g", "kappa", "nu", "n", "epsilon", "mu", "lambda", "xi")
_VERIFY_COLUMNS = ("name", "budget", "measured", "status")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_column(items, fmt: str):
    """A column's cells as an iterator of text, by the first one's type: bool, int, float, str."""
    first = items[0] if len(items) else ""
    if isinstance(first, bool):
        return ("true" if v else "false" for v in items)
    if isinstance(first, int):
        return map(str, items)
    if isinstance(first, float):
        if fmt == "csv":
            return map("%.17g".__mod__, items)
        cells = map(float.__repr__, items)
        if not math.isfinite(sum(items)):  # a nan or inf cell, or an overflowing sum
            cells = (_JSON_NONFINITE.get(c, c) for c in cells)
        return cells
    return iter(items) if fmt == "csv" else map(encode_basestring_ascii, items)


def _emit(args, metadata: dict, names, columns) -> int:
    """Write one table; ``columns`` holds one sequence of cells of one type per name."""
    return _write(args, metadata, names, zip(*(_encode_column(c, args.format) for c in columns)))


def _write(args, metadata: dict, names, rows) -> int:
    """Stream the metadata, then ``rows`` of encoded cells, to ``--out`` or stdout."""
    metadata = {**metadata, "artifact_version": __version__, "schema_version": SCHEMA_VERSION,
                "config": _resolved_config(args)}
    if args.format == "json":
        head = json.dumps({"metadata": {**metadata, "columns": list(names)}}, indent=2, default=str)
        # the layout json.dumps(..., indent=2) gives the data list, "[]" when empty
        head, sep, end, empty = f'{head[:-2]},\n  "data": [', ",", "\n  ]\n}\n", "]\n}\n"
        row = "\n    [\n      " + ",\n      ".join(["%s"] * len(names)) + "\n    ]"
    else:
        head = "".join(f"# {key}: {json.dumps(val, sort_keys=True, default=str)}\n"
                       for key, val in metadata.items()) + ",".join(names) + "\n"
        sep = end = empty = ""
        row = ",".join(["%s"] * len(names)) + "\n"
    with _open_out(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        first = next(rows, None)
        fh.write(head if first is None else head + row % first)
        fh.writelines(map((sep + row).__mod__, rows))
        fh.write(empty if first is None else end)
    return 0


def _open_out(path: str, mode: str):
    try:
        return open(path, mode, newline="\n")
    except OSError as exc:
        raise DomainError(f"cannot write output file {path}: {exc}") from None


def _resolved_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("handler", "command")}


# ----------------------------------------------------------------- evolve


def _cmd_evolve(args) -> int:
    if args.xi is None:
        raise DomainError("--xi is required (on the command line or in --config)")
    taus = sweep._axis(0.0, args.tau_max, args.steps, "linear", "tau")
    columns, extra = sweep.evaluate(args.method, args.xi, taus, args.n_modes, args.window)
    names = _EVOLVE_COLUMNS_ANALYTIC if args.method == "analytic" else _EVOLVE_COLUMNS_ORACLE
    metadata = {"command": "evolve", "method": args.method, **extra}
    return _emit(args, metadata, names, [columns[name] for name in names])


# ---------------------------------------------------------------- heatmap


def _cmd_heatmap(args) -> int:
    xi = sweep._axis(args.xi_min, args.xi_max, args.xi_steps, args.xi_scale, "xi")
    tau = sweep._axis(0.0, args.tau_max, args.tau_steps, "linear", "tau")
    grid = sweep.SweepGrid(xi, tau, args.method, xi_spacing=args.xi_scale, tau_spacing="linear")
    result = sweep.heatmap(grid, n_modes=args.n_modes, window=args.window)
    # each xi and tau is encoded once and repeated over the rows that share it
    xi, tau = (list(_encode_column(a, args.format)) for a in (grid.xi_values, grid.tau_values))
    conc = _encode_column(result.concurrence, args.format)
    rows = map(tuple.__add__, product(xi, tau), zip(conc))
    return _write(args, result.metadata, _HEATMAP_COLUMNS, rows)


# ------------------------------------------------------------------ cmax


def _cmd_cmax(args) -> int:
    xi = sweep._axis(args.xi_min, args.xi_max, args.steps, args.scale, "xi")
    curve = sweep.cmax_curve(xi, spacing=args.scale)
    # every row comes from the closed-form optimum
    columns = (curve.xi, curve.tau_opt, curve.c_max, curve.derivative, ("formula",) * len(xi))
    return _emit(args, curve.metadata, _CMAX_COLUMNS, columns)


# -------------------------------------------------------------- sideband


def _cmd_sideband(args) -> int:
    for name in ("g", "kappa", "n"):
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required (on the command line or in --config)")
    if (args.target_xi is None) == (args.epsilon is None):
        raise DomainError("exactly one of --target-xi / --epsilon must be given")
    _positive("--kappa", args.kappa)
    inverse, eps = args.target_xi is not None, args.epsilon
    if inverse:
        eps = sideband.solve_amplitude(
            g=args.g, nu=args.nu, n=args.n, kappa=args.kappa, target_xi=args.target_xi
        )
    cfg = sideband.SidebandConfig(g=args.g, epsilon=eps, nu=args.nu, n=args.n)
    lam = sideband.effective_coupling(cfg)
    row = (
        "inverse" if inverse else "forward", args.g, args.kappa, args.nu, args.n,
        eps, eps / args.nu, lam, 4.0 * abs(lam) / args.kappa,
    )
    return _emit(args, {"command": "sideband"}, _SIDEBAND_COLUMNS, [[v] for v in row])


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    report = sweep.verify(quick=args.quick)
    metadata = {**report.metadata, "overall": "pass" if report.passed else "FAIL"}
    rows = [(c.name, c.budget, c.measured, "pass" if c.passed else "FAIL") for c in report.checks]
    _emit(args, metadata, _VERIFY_COLUMNS, list(zip(*rows)))
    sys.stderr.writelines(f"FAIL {c.name}: {c.detail}\n" for c in report.checks if not c.passed)
    return 0 if report.passed else 1


# ------------------------------------------------------------ the parser


def _add_method_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default="analytic")
    p.add_argument("--n-modes", type=int, default=DEFAULT_N_MODES,
                   help="bath modes (multimode method only)")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW,
                   help="bath half-width in units of kappa (multimode only)")


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
        epilog=f"Set {WORKERS_ENV} to parallelize sweeps (wall time only; "
               "output bytes are identical).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("evolve", help="time series at one xi")
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--tau-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=301)
    _add_method_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_evolve)

    p = subs.add_parser("heatmap", help="concurrence over a xi x tau grid")
    p.add_argument("--xi-min", type=float, default=0.01)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--xi-steps", type=int, default=81)
    p.add_argument("--xi-scale", choices=("log", "linear"), default="log")
    p.add_argument("--tau-max", type=float, default=3.0)
    p.add_argument("--tau-steps", type=int, default=301)
    _add_method_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_heatmap)

    p = subs.add_parser("cmax", help="C_max and its derivative versus xi")
    p.add_argument("--xi-min", type=float, default=0.01)
    p.add_argument("--xi-max", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_cmax)

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

    p = subs.add_parser("verify", help="run the cross-check battery")
    depth = p.add_mutually_exclusive_group()
    depth.add_argument("--quick", action="store_true",
                       help="fewer xi values, bath modes and random draws than --full")
    depth.add_argument("--full", action="store_true",
                       help="complete budgets (the default)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser, subs.choices  # subcommand name -> its parser


def _parse_config_value(raw: str, action, where: str) -> object:
    """One config value for ``action``; ``where`` (path:line) prefixes any error."""
    if isinstance(action.const, bool) or isinstance(action.default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise DomainError(f"{where}: expected a boolean for {action.dest!r}, got {raw!r}")
    convert = action.type or str
    try:
        value = convert(raw)
    except (TypeError, ValueError):
        raise DomainError(f"{where}: bad value {raw!r} for config key {action.dest!r}") from None
    if action.choices is not None and value not in action.choices:
        raise DomainError(f"{where}: config key {action.dest!r} must be one of "
                          f"{sorted(action.choices)}, got {value!r}")
    return value


def _chosen(group, values: dict) -> list:
    """Dests of an exclusive group that ``values`` sets off their defaults (argparse's test)."""
    return [a.dest for a in group._group_actions if values.get(a.dest, a.default) != a.default]


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
        overrides[dest] = _parse_config_value(val.strip(), actions[dest], f"{path}:{ln}")
    for group in subparser._mutually_exclusive_groups:
        if len(clash := _chosen(group, overrides)) > 1:
            raise DomainError(f"{path}: keys {' and '.join(map(repr, clash))} exclude each other")
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
        for group in registry[args.command]._mutually_exclusive_groups:
            if _chosen(group, vars(args)):  # the command line picked this group's member
                for action in group._group_actions:
                    overrides.pop(action.dest, None)
        registry[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)  # explicit flags still take precedence
    made = False
    try:
        if args.out:
            existed = os.path.exists(args.out)
            _open_out(args.out, "a").close()  # an unwritable path fails before the work
            made = not existed
        return args.handler(args)
    except BrokenPipeError:  # the reader left early (`| head`); the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        if made:  # a failed run leaves no empty file where there was none
            os.remove(args.out)
        # str(exc) leaves out the notes, such as the grid row a sweep adds
        text = " ".join([str(exc), *getattr(exc, "__notes__", ())])
        if not isinstance(exc, (ValueError, IntegrationError)):  # failed somewhere deeper
            text = f"{type(exc).__name__}: {text}"
        print(f"error: {text}", file=sys.stderr)
        # bad input (DomainError or any other ValueError) is a usage error
        return 2 if isinstance(exc, ValueError) and not isinstance(exc, TargetNotReachable) else 1


if __name__ == "__main__":
    raise SystemExit(main())
