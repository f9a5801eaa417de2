"""Command-line driver: parameter scans, the weak-coupling fit, the
identity-verification suite, and capacitance comparison tables.

Output is deterministic and machine readable (CSV or JSON, every numeric
cell printed with 17 significant digits).  Every command runs its solves
and reports in order, in the calling thread.
Exit codes: 0 success, 1 numerical failure, 2 usage error.

Importing this module loads the solver alone; each command imports the
other modules it runs (the asymptotics, the identity suite, json) when it
runs, so a `solve` process never loads them.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import math
import os
import re
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from . import love
from .errors import LoveLabError

# epsilon_of_gamma truncates its series, so a solve aimed at gamma lands
# slightly below it (relative 1.1e-5 at gamma = 1e-3, growing with gamma);
# solver targets stay this factor above the fit window's lower edge so every
# solved point falls inside the window.
_TARGET_FLOOR = 1.0 + 5e-5

_FORMATS = ("csv", "json")


def _fmt(value) -> str:
    """One cell: floats at 17 significant digits, ints/str verbatim."""
    if isinstance(value, float):
        return f"{value:.16e}"
    if value is None:
        return ""
    return str(value)


def _json_cell(value) -> str:
    """One JSON value: finite floats as 17-digit cells, other floats null."""
    import json

    if isinstance(value, float):
        return _fmt(value) if math.isfinite(value) else "null"
    if value is None or isinstance(value, (str, bool)):
        return json.dumps(value)
    return _fmt(value)


def _write_rows(columns: Sequence[str], rows: Iterable[dict], fmt: str,
                path: str | None) -> None:
    if fmt == "csv":
        # minimal quoting: only cells holding a comma, quote or newline
        # (error messages, method notes) are quoted
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
        text = buffer.getvalue()
    else:
        import json

        body = []
        for row in rows:
            cells = [f"{json.dumps(c)}: {_json_cell(row.get(c))}" for c in columns]
            body.append("  {" + ", ".join(cells) + "}")
        text = "[\n" + ",\n".join(body) + "\n]\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            # a comment starts at a "#" that begins the line or follows a space
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, key: str, default, cast):
    """Option precedence: command-line flag > config file > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in args._config:
        return cast(args._config[key])
    return default


def _format(args: argparse.Namespace) -> str:
    fmt = _resolve(args, "format", "csv", str)
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {fmt!r}")
    return fmt


def _nodes(args: argparse.Namespace) -> int | None:
    """The node budget, None for the solver's default; a budget below the
    solver's minimum is a usage error."""
    nodes = _resolve(args, "nodes", None, int)
    if nodes is not None and nodes < love._MIN_NODES:
        raise ValueError(f"nodes must be >= {love._MIN_NODES}, got {nodes}")
    return nodes


def _kappa_grid(args: argparse.Namespace) -> list[float]:
    """The --kappa point or the --kappa-min/max/points grid; never empty."""
    kappa = _resolve(args, "kappa", None, float)
    if kappa is not None:
        if not 0 < kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa:g}")
        return [float(kappa)]
    kmin = _resolve(args, "kappa_min", None, float)
    kmax = _resolve(args, "kappa_max", None, float)
    points = _resolve(args, "kappa_points", 5, int)
    if kmin is None or kmax is None:
        raise ValueError("provide --kappa or both --kappa-min and --kappa-max")
    if not 0 < kmin <= kmax < math.inf:
        raise ValueError("need 0 < kappa-min <= kappa-max < inf")
    if points < 1:
        raise ValueError("kappa-points must be >= 1")
    return [float(v) for v in np.geomspace(kmin, kmax, points)]


# ----------------------------------------------------------------------
# kappa scans: solve and compare-asymptotics
# ----------------------------------------------------------------------

def _kappa_scan(args: argparse.Namespace, columns: Sequence[str],
                cells: Callable[[love.LoveSolution], dict],
                kappa_max: float = math.inf) -> int:
    """Solve at each kappa of the grid, in grid order, and write one row
    per kappa: the cells computed from the solution, or the message of a
    LoveLabError in the error column.  A grid past kappa_max (the validity
    window of the expansions a command compares with) is a usage error,
    raised before any solve.  Exit 1 when any row failed."""
    try:
        grid = _kappa_grid(args)
        if grid[-1] > kappa_max:
            raise ValueError(f"capacitance expansions need kappa <= {kappa_max:g}")
        nodes = _nodes(args)
    except ValueError as exc:
        return _usage_error(str(exc))

    def row(kappa: float) -> dict:
        try:
            sol = love.solve_love(love.LoveProblem(kappa=kappa), n=nodes)
            return {"kappa": kappa, **cells(sol)}
        except LoveLabError as exc:
            return {"kappa": kappa, "error": str(exc)}

    rows = [row(kappa) for kappa in grid]
    _write_rows(["kappa", *columns, "error"], rows, args.format, args.output)
    return 1 if any(r.get("error") for r in rows) else 0


def cmd_solve(args: argparse.Namespace) -> int:
    def cells(sol: love.LoveSolution) -> dict:
        point = love.observables(sol)
        return {"gamma": point.gamma, "capacitance": point.capacitance,
                "energy": point.energy, "residual": sol.residual}

    return _kappa_scan(args, ["gamma", "capacitance", "energy", "residual"], cells)


def cmd_compare(args: argparse.Namespace) -> int:
    from . import asymptotics

    def cells(sol: love.LoveSolution) -> dict:
        kappa = sol.problem.kappa
        c = love.observables(sol).capacitance
        ck = asymptotics.capacitance_series("kirchhoff", kappa)
        ce = asymptotics.capacitance_series("extended", kappa)
        return {"c_numeric": c, "c_kirchhoff": ck, "c_extended": ce,
                "err_kirchhoff": abs(c - ck), "err_extended": abs(c - ce)}

    return _kappa_scan(args, ["c_numeric", "c_kirchhoff", "c_extended",
                              "err_kirchhoff", "err_extended"], cells,
                       kappa_max=asymptotics._KAPPA_WINDOW)


# ----------------------------------------------------------------------
# fit-weak
# ----------------------------------------------------------------------

def cmd_fit_weak(args: argparse.Namespace) -> int:
    from . import asymptotics

    try:
        gmin = _resolve(args, "gamma_min", 2e-3, float)
        gmax = _resolve(args, "gamma_max", 5e-2, float)
        points = _resolve(args, "gamma_points", 9, int)
        lo, hi = love._WEAK_WINDOW
        if not lo <= gmin <= gmax <= hi:
            raise ValueError(f"gamma grid must lie inside [{lo:g}, {hi:g}]")
        if gmin == gmax:
            raise ValueError("need gamma-min < gamma-max")
        if points < love._MIN_FIT_POINTS:
            raise ValueError(f"need at least {love._MIN_FIT_POINTS} gamma points")
        nodes = _nodes(args)
        synthetic = _resolve(args, "synthetic", None, str)
        if synthetic is not None and synthetic not in asymptotics._ENERGY_SERIES:
            raise ValueError(f"unknown synthetic source {synthetic!r}")
        grid = np.geomspace(gmin, gmax, points)
    except ValueError as exc:
        return _usage_error(str(exc))

    if synthetic:
        pts = [love.EnergyPoint(kappa=math.nan, gamma=g,
                                capacitance=math.nan,
                                energy=asymptotics.energy_series(synthetic, g))
               for g in grid]
    else:
        def solve_point(gamma_target: float) -> love.EnergyPoint:
            gamma_target = max(gamma_target, lo * _TARGET_FLOOR)
            kappa = 2.0 * asymptotics.epsilon_of_gamma(gamma_target)
            sol = love.solve_love(love.LoveProblem(kappa=kappa), n=nodes)
            return love.observables(sol)

        pts = [solve_point(g) for g in grid]
    c2, residual = love.weak_coupling_fit(pts)
    dist_tak = abs(c2 - asymptotics.ENERGY_GAMMA2)
    dist_kw = abs(c2 - asymptotics.ENERGY_GAMMA2_RIVAL)
    verdict = "takahashi" if dist_tak < dist_kw else "kaminaka_wadati"
    row = {"c2": c2, "fit_residual": residual,
           "dist_takahashi": dist_tak, "dist_kaminaka_wadati": dist_kw,
           "verdict": verdict}
    _write_rows(["c2", "fit_residual", "dist_takahashi", "dist_kaminaka_wadati",
                 "verdict"], [row], args.format, args.output)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    from . import conjectures

    which = _resolve(args, "which", "all", str)
    suite = conjectures.SUITE
    if which != "all" and which not in suite:
        return _usage_error(f"unknown conjecture {which!r}; expected one of "
                            + ", ".join(["all", *suite]))
    reports = conjectures.run_all() if which == "all" else suite[which]()
    rows = [{"name": r.name, "computed": r.computed, "target": r.target,
             "abs_error": r.abs_error, "digits": r.digits, "method": r.method}
            for r in reports]
    _write_rows(["name", "computed", "target", "abs_error", "digits", "method"],
                rows, args.format, args.output)
    return 0 if all(r.digits >= conjectures.MIN_DIGITS for r in reports) else 1


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

# built once per process: parse_args never changes the parser, and building
# it (hundreds of help-formatter lookups) costs about a millisecond
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lovelab",
        description="Love/Lieb-Liniger equation solver and asymptotics toolkit")
    parser.add_argument("--config", help="flat key = value option file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=_FORMATS, help="table format (default: csv)")
        p.add_argument("--output", help="write table here instead of stdout")
        p.add_argument("--workers", type=int,
                       help="accepted and ignored (an integer >= 1); commands "
                            "run in the calling thread")

    def kappa_scan(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kappa", type=float)
        p.add_argument("--kappa-min", type=float, dest="kappa_min")
        p.add_argument("--kappa-max", type=float, dest="kappa_max")
        p.add_argument("--kappa-points", type=int, dest="kappa_points")
        p.add_argument("--nodes", type=int)
        common(p)

    p_solve = sub.add_parser("solve", help="solve the Love equation on a kappa grid")
    kappa_scan(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_fit = sub.add_parser("fit-weak", help="extract the gamma^2 energy coefficient")
    p_fit.add_argument("--gamma-min", type=float, dest="gamma_min")
    p_fit.add_argument("--gamma-max", type=float, dest="gamma_max")
    p_fit.add_argument("--gamma-points", type=int, dest="gamma_points")
    p_fit.add_argument("--nodes", type=int)
    p_fit.add_argument("--synthetic",
                       help="fit series-generated energies instead of solver output")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit_weak)

    p_verify = sub.add_parser("verify", help="run the integral-identity suite")
    p_verify.add_argument("--which")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare-asymptotics",
                           help="numeric capacitance vs truncated expansions")
    kappa_scan(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _read_config(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    # one attribute per option of the chosen command; --workers is a flag only
    options = set(vars(args)) - {"command", "config", "_config", "func", "workers"}
    unknown = sorted(set(args._config) - options)
    if unknown:
        return _usage_error(f"{args.config}: not an option of {args.command}: "
                            + ", ".join(unknown))
    try:
        if args.workers is not None and args.workers < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        args.format = _format(args)
        args.output = _resolve(args, "output", None, str)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.output is not None:
        # refuse a table that could not be written before doing the work; a
        # path that names no file (empty, a directory, or ending in a
        # separator) gets the message open() would give
        path = args.output
        if not path:
            exc = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            return _usage_error(f"cannot write the table: {exc}")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
            return _usage_error(f"cannot write the table: {directory!r} is not "
                                f"a writable directory")
        if os.path.isdir(path) or not os.path.basename(path):
            exc = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            return _usage_error(f"cannot write the table: {exc}")
    try:
        return args.func(args)
    except LoveLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the one file a command opens is its --output table
        return _usage_error(f"cannot write the table: {exc}")


if __name__ == "__main__":
    sys.exit(main())
