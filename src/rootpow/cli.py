"""Command line surface: grid evaluation, accuracy sweeps, partition
tables, and IRLS fits, all with deterministic text output.

Data goes to stdout, diagnostics to stderr.  Floats are printed with 17
significant digits so every CSV/JSON value parses back to the exact
double.  Exit codes: 0 success, 1 data or I/O failure, 2 validation
failure (also what argparse uses), and for `irls` specifically 2 when the
iteration cap is hit before convergence.  An error no command diagnoses
exits 1 with a one-line ``error: <type>: <message>`` instead of a
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import accuracy as accuracy_mod
from . import distribution as dist_mod
from . import signed as signed_mod
from .boxcox import boxcox, boxcox_normalized
from .bump import bump
from .core import derivative, inverse, parse_lambda, transform
from .irls import IrlsProblem, fit_location
from .kernel import kernel
from .loss import loss

__all__ = ["main", "entrypoint", "build_parser"]


class CliError(Exception):
    """Validation failure reportable as a one-line diagnostic."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse_lambda_flag(text: str) -> float:
    try:
        return parse_lambda(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_xs(text: str) -> list[float]:
    """Either a comma-separated list or an inclusive lo:hi:count range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"range must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise CliError(f"range must be lo:hi:count, got {text!r}") from None
        if count < 1:
            raise CliError("range count must be at least 1")
        if count == 1:
            return [lo]
        return [float(v) for v in np.linspace(lo, hi, count)]
    try:
        xs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse x list {text!r}") from None
    if not xs:
        raise CliError("empty x samples")
    if any(map(math.isnan, xs)):
        raise CliError("x values must not be NaN")
    return xs


def _need_lambda(args) -> float:
    if args.lam is None:
        raise CliError(f"--lambda is required for --fn {args.fn}")
    return _parse_lambda_flag(args.lam)


def _eval_function(args):
    """Resolve --fn into a scalar callable, validating its parameters."""
    fn = args.fn
    c = float(args.c)
    if not (c > 0.0) or math.isnan(c):
        raise CliError(f"--c must be a positive real, got {args.c}")
    if fn == "f":
        lam = _need_lambda(args)
        return lambda x: transform(x, lam)
    if fn == "finv":
        lam = _need_lambda(args)
        return lambda x: inverse(x, lam)
    if fn == "g":
        lam = _need_lambda(args)
        return lambda x: derivative(x, lam)
    if fn == "rho":
        lam = _need_lambda(args)
        return lambda x: loss(x, lam, c)
    if fn == "k":
        lam = _need_lambda(args)
        return lambda x: kernel(x, lam, c)
    if fn == "pdf":
        lam = _need_lambda(args)
        if lam < -1.0:
            raise CliError("pdf requires lambda >= -1")
        table = None
        if args.ztable is not None:
            try:
                table = dist_mod.ZTable.load(args.ztable)
            except (OSError, ValueError) as exc:
                raise CliError(f"cannot load ztable: {exc}") from None
        return lambda x: dist_mod.pdf(x, lam, c, table=table)
    if fn == "bump":
        lam = _need_lambda(args)
        if not (1.0 < lam < math.inf):
            raise CliError("bump requires 1 < lambda < inf")
        return lambda x: bump(x, lam)
    if fn == "fpm":
        lam = _need_lambda(args)
        if args.lam_neg is None:
            raise CliError("--lambda-neg is required for --fn fpm")
        lam_neg = _parse_lambda_flag(args.lam_neg)
        return lambda x: signed_mod.signed_transform(x, lam, lam_neg)
    if fn == "softplus":
        return signed_mod.softplus
    if fn == "sigmoid":
        return signed_mod.sigmoid
    if fn == "tanh":
        return signed_mod.tanh
    if fn == "relu":
        lam_neg = _parse_lambda_flag(args.lam_neg) if args.lam_neg is not None else 0.0
        return lambda x: signed_mod.relu(x, lam_neg)
    if fn == "h":
        lam = _need_lambda(args)
        if math.isinf(lam):
            raise CliError("h requires finite lambda")
        return lambda x: boxcox(x, lam)
    if fn == "hhat":
        lam = _need_lambda(args)
        if math.isinf(lam):
            raise CliError("hhat requires finite lambda")
        return lambda x: boxcox_normalized(x, lam)
    raise CliError(f"unknown fn {fn!r}")


def _cmd_eval(args) -> int:
    func = _eval_function(args)
    xs = sorted(_parse_xs(args.x))
    lines = ["x,value"]
    for x in xs:
        try:
            value = func(x)
        except ValueError as exc:
            raise CliError(f"at x = {_fmt(x)}: {exc}") from None
        lines.append(f"{_fmt(x)},{_fmt(value)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_accuracy(args) -> int:
    lams = None
    if args.lambdas is not None:
        lams = [_parse_lambda_flag(tok) for tok in args.lambdas.split(",") if tok.strip()]
        if not lams:
            raise CliError("empty --lambdas list")
    if not (0.0 < args.xmin < args.xmax):
        raise CliError("need 0 < --xmin < --xmax")
    if args.n < 2:
        raise CliError("--n must be at least 2")
    report = accuracy_mod.error_sweep(lams, x_lo=args.xmin, x_hi=args.xmax, n=args.n)
    sys.stdout.write(accuracy_mod.report_to_csv(report))
    return 0


def _cmd_ztable(args) -> int:
    if args.grid_size < 16:
        raise CliError(f"--grid-size must be at least 16, got {args.grid_size}")
    if args.num_points < 16:
        raise CliError(f"--num-points must be at least 16, got {args.num_points}")
    table = dist_mod.build_table(args.grid_size, args.num_points)
    try:
        table.save(args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    worst = 0.0
    for i in range(0, len(table.s_grid) - 1, max(1, len(table.s_grid) // 16)):
        s_mid = 0.5 * (table.s_grid[i] + table.s_grid[i + 1])
        lam = dist_mod._decompactify(s_mid)
        direct = dist_mod.partition_function(lam, args.num_points)
        worst = max(worst, abs(table.lookup(lam) - direct) / direct)
    print(
        f"ztable: {len(table.s_grid)} nodes, {args.num_points} quadrature points, "
        f"spot-check max rel err {worst:.3e}",
        file=sys.stderr,
    )
    return 0


def _read_observations(path: str, skip_header: bool) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    values = []
    for lineno, line in enumerate(raw, start=1):
        if skip_header and lineno == 1:
            continue
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            print(f"error: line {lineno}: cannot parse {text!r}", file=sys.stderr)
            raise SystemExit(1) from None
    return values


def _cmd_irls(args) -> int:
    lam = _parse_lambda_flag(args.lam)
    if lam > 0.0:
        raise CliError(f"--lambda must be <= 0 for irls, got {args.lam}")
    observations = _read_observations(args.data, args.skip_header)
    try:
        problem = IrlsProblem(
            observations=tuple(observations),
            lam=lam,
            c=args.c,
            max_iters=args.max_iters,
            tol=args.tol,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    result = fit_location(problem)
    payload = {
        "mu": result.mu,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "converged": result.converged,
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0 if result.converged else 2


_EVAL_FUNCTIONS = [
    "f", "finv", "g", "rho", "k", "pdf", "bump",
    "fpm", "softplus", "sigmoid", "tanh", "relu", "h", "hhat",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootpow",
        description="Evaluate the self-inverting power transform and its families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function over an x grid, CSV to stdout")
    p_eval.add_argument("--fn", required=True, choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("--lambda", dest="lam", default=None,
                        help='shape parameter ("inf", "-inf", or a decimal)')
    p_eval.add_argument("--lambda-neg", dest="lam_neg", default=None,
                        help="negative-side shape for fpm/relu")
    p_eval.add_argument("--c", type=float, default=1.0, help="scale (default 1)")
    p_eval.add_argument("--x", required=True,
                        help="samples: comma list or inclusive lo:hi:count range")
    p_eval.add_argument("--ztable", default=None,
                        help="partition table JSON for --fn pdf")
    p_eval.set_defaults(func=_cmd_eval)

    p_acc = sub.add_parser("accuracy", help="naive vs stable error sweep, CSV to stdout")
    p_acc.add_argument("--lambdas", default=None,
                       help="comma list of shape values (default: built-in sweep grid)")
    p_acc.add_argument("--xmin", type=float, default=0.01)
    p_acc.add_argument("--xmax", type=float, default=1.0)
    p_acc.add_argument("--n", type=int, default=128, help="x samples per row")
    p_acc.set_defaults(func=_cmd_accuracy)

    p_zt = sub.add_parser("ztable", help="build and save a partition-function table")
    p_zt.add_argument("--grid-size", type=int, default=dist_mod.DEFAULT_GRID_SIZE)
    p_zt.add_argument("--num-points", type=int, default=dist_mod.DEFAULT_NUM_POINTS)
    p_zt.add_argument("--output", required=True, help="path for the JSON table")
    p_zt.set_defaults(func=_cmd_ztable)

    p_irls = sub.add_parser("irls", help="robust location fit, JSON to stdout")
    p_irls.add_argument("--data", required=True, help="one-column CSV of observations")
    p_irls.add_argument("--lambda", dest="lam", required=True, help="shape, must be <= 0")
    p_irls.add_argument("--c", type=float, default=1.0)
    p_irls.add_argument("--tol", type=float, default=1e-12)
    p_irls.add_argument("--max-iters", type=int, default=100)
    p_irls.add_argument("--skip-header", action="store_true",
                        help="ignore the first line of the data file")
    p_irls.set_defaults(func=_cmd_irls)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
