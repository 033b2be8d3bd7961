"""Command line surface: grid evaluation, accuracy sweeps, partition
tables, and IRLS fits, all with deterministic text output.

Data goes to stdout, diagnostics to stderr.  Floats are printed with 17
significant digits so every CSV/JSON value parses back to the exact
double; `irls` prints a saturated grad_norm as null, which keeps its JSON
strict.  Every command reads each flag once, before any data file, with
the library's reader of the argument the flag feeds, and a refusal names
the flag: ``error: <flag>: <library reason>``.  `main` sets the exit code
from the exception type alone: 2 for a ValueError, every validation
failure, a usage error too (one ``error: <prog>: <message>`` line); 1 for
a CliError, a data or I/O failure, and for anything else
(``error: <type>: <message>``, never a traceback).  `irls` also exits 2
when its cap is hit before convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import islice, repeat

from . import distribution as dist
from .core import _plan, _require_count, _sorted_linspace, parse_lambda
from .families import (
    _float_boxcox, _float_boxcox_normalized, _float_bump, _float_kernel, _float_loss, _float_relu,
    _float_sigmoid, _float_signed, _float_softplus, _float_tanh, _require_boxcox_lambda,
    _require_bump_lambda, _require_scale,
)

__all__ = ["main", "entrypoint", "build_parser"]


class CliError(Exception):
    """A data or I/O failure, which main reports as one line with exit 1;
    a validation failure is a ValueError instead, exit 2."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one-line ValueErrors (exit
    2); add_subparsers builds the subcommands from the same class."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _parse_xs(text: str):
    """The samples of --x in ascending order: a comma list, or the nodes of
    the inclusive range lo:hi:count, generated one at a time."""
    text = text.strip()
    if ":" not in text:
        try:
            xs = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"cannot parse x list {text!r}") from None
        if not xs:
            raise ValueError("empty x samples")
        if any(map(math.isnan, xs)):
            raise ValueError("x values must not be NaN")
        return sorted(xs)
    try:
        lo, hi, count = text.split(":")  # a wrong part count raises ValueError too
        lo, hi, count = float(lo), float(hi), float(count)
    except ValueError:
        raise ValueError(f"range must be lo:hi:count, got {text!r}") from None
    count = _require_count(count, "range count", 1)
    # hi - lo is inf or NaN whenever lo or hi is
    if not math.isfinite(hi - lo):
        raise ValueError(f"range needs finite lo, hi and hi - lo, got {text!r}")
    return _sorted_linspace(lo, hi, count) if count > 1 else [lo]


def _param(args, flag: str, read, default=None):
    """A flag's value as read by read, the library's reader of the argument
    the flag feeds, run once on argparse's value; its refusal becomes the
    ValueError ``<flag>: <library reason>``.  An unset flag takes default;
    with no default it is one that eval's --fn requires."""
    value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
    if value is None:
        if default is None:
            raise ValueError(f"{flag} is required for --fn {args.fn}")
        value = default
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _shape(check):
    # the reader of a shape flag: its text parsed as every shape's is, then
    # the library's check of the argument it feeds
    return lambda text: check(parse_lambda(text))


def _count(name: str, least: int):
    # the reader of a count flag: the count rule, under the library's name
    return lambda value: _require_count(value, name, least)


_LAMBDA = ("--lambda", parse_lambda)
_SCALE = ("--c", _require_scale, 1.0)


# --fn -> (step, its parameters as (flag, reader[, default])).  Each reader
# runs once, on the flag's value; every x then runs step(x, *params), the
# float step the public function calls, less its checks, so the same bits.
# f, finv and g name a field of the lam's plan row instead: its float
# transform (9) or derivative (10), which takes x alone.
_EVAL_FUNCTIONS = {
    "f": (9, [_LAMBDA]),
    "finv": (9, [("--lambda", lambda text: -parse_lambda(text))]),
    "g": (10, [_LAMBDA]),
    "rho": (_float_loss, [_LAMBDA, _SCALE]),
    "k": (_float_kernel, [_LAMBDA, _SCALE]),
    "pdf": (dist._float_pdf, [("--lambda", _shape(dist._require_dist_lambda)), _SCALE,
                              ("--ztable",)]),  # no reader: _eval_function loads it
    "bump": (_float_bump, [("--lambda", _shape(_require_bump_lambda))]),
    "fpm": (_float_signed, [_LAMBDA, ("--lambda-neg", parse_lambda)]),
    "softplus": (_float_softplus, []),
    "sigmoid": (_float_sigmoid, []),
    "tanh": (_float_tanh, []),
    "relu": (_float_relu, [("--lambda-neg", parse_lambda, "0")]),
    "h": (_float_boxcox, [("--lambda", _shape(_require_boxcox_lambda))]),
    "hhat": (_float_boxcox_normalized, [("--lambda", _shape(_require_boxcox_lambda))]),
}


def _eval_function(args):
    """The float step of --fn and its checked parameters."""
    step, flags = _EVAL_FUNCTIONS[args.fn]
    params = [_param(args, *flag) for flag in flags if flag[0] != "--ztable"]
    if args.fn == "pdf":
        table = None
        if args.ztable is not None:
            import json

            try:
                table = dist.ZTable.load(args.ztable)
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CliError(f"cannot load ztable: {exc}") from None
            except ValueError as exc:  # a parsed payload the table refuses
                raise ValueError(f"cannot load ztable: {exc}") from None
        return step, dist._pdf_params(*params, table)
    if type(step) is int:  # f, finv, g: the row's closure is the step
        return _plan[params[0]][step], []
    return step, params


_CHUNK = 4096  # rows per write


def _value_at(step, x, params):
    # one x's value, its refusal naming the x
    try:
        return step(x, *params)
    except ValueError as exc:
        raise ValueError(f"at x = {x:.17g}: {exc}") from None


def _cmd_eval(args) -> int:
    # an optional flag that --fn does not read is refused, not dropped
    reads = [param[0] for param in _EVAL_FUNCTIONS[args.fn][1]]
    for flag in ("--lambda", "--lambda-neg", "--c", "--ztable"):
        if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag}: --fn {args.fn} does not read it")
    xs = iter(_param(args, "--x", _parse_xs))
    step, params = _eval_function(args)
    # Only h and hhat fail at an x, and only below a bound, so in ascending
    # order a failure comes in the first chunk, before anything is written;
    # the header goes out with that chunk.
    header = "x,value\n"
    while chunk := list(islice(xs, _CHUNK)):
        row = [None] * (2 * len(chunk))  # x, value, x, value, ...
        row[0::2] = chunk
        try:
            row[1::2] = map(step, chunk, *map(repeat, params))
        except ValueError:  # again x by x, to name the x that fails
            row[1::2] = [_value_at(step, x, params) for x in chunk]
        # %.17g and {:.17g} print a float through the same call
        sys.stdout.write((header + "%.17g,%.17g\n" * len(chunk)) % tuple(row))
        header = ""
    return 0


def _cmd_accuracy(args) -> int:
    from .accuracy import _MIN_SAMPLES, _require_window, error_sweep, report_to_csv

    lams = None
    if args.lambdas is not None:
        lams = _param(args, "--lambdas",
                      lambda text: [parse_lambda(tok) for tok in text.split(",") if tok.strip()])
        if not lams:
            raise ValueError("empty --lambdas list")
    x_lo, x_hi = _require_window(args.xmin, args.xmax, "--xmin", "--xmax")
    n = _param(args, "--n", _count("n", _MIN_SAMPLES))
    report = error_sweep(lams, x_lo=x_lo, x_hi=x_hi, n=n)
    sys.stdout.write(report_to_csv(report))
    return 0


def _cmd_ztable(args) -> int:
    grid_size = _param(args, "--grid-size", _count("grid_size", dist._MIN_GRID_SIZE))
    table = dist.build_table(grid_size)
    try:
        table.save(args.output)
    except (OSError, ValueError) as exc:  # ValueError: a path open rejects (a NUL byte)
        raise CliError(f"cannot write {args.output}: {exc}") from None
    print(f"ztable: {len(table.s_grid)} nodes, {table.num_points} quadrature points", file=sys.stderr)
    return 0


def _read_observations(path: str, skip_header: bool) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, or a path open rejects
        raise CliError(f"cannot read {path}: {exc}") from None
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
            raise CliError(f"line {lineno}: cannot parse {text!r}") from None
    return values


def _cmd_irls(args) -> int:
    import json

    from .irls import _MIN_ITERS, IrlsProblem, _require_irls_lambda, _require_tol, fit_location

    lam = _param(args, "--lambda", _shape(_require_irls_lambda))
    c = _param(args, *_SCALE)
    tol = _param(args, "--tol", _require_tol)
    max_iters = _param(args, "--max-iters", _count("max_iters", _MIN_ITERS))
    observations = _read_observations(args.data, args.skip_header)
    problem = IrlsProblem(observations, lam, c=c, max_iters=max_iters, tol=tol)
    result = fit_location(problem)
    payload = result._asdict()
    if not math.isfinite(result.grad_norm):
        payload["grad_norm"] = None  # strict JSON has no Infinity
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
    return 0 if result.converged else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rootpow",
        description="Evaluate the self-inverting power transform and its families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function over an x grid, CSV to stdout")
    p_eval.add_argument("--fn", required=True, choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("--lambda", default=None,
                        help='shape parameter ("inf", "-inf", or a decimal)')
    p_eval.add_argument("--lambda-neg", default=None,
                        help="negative-side shape for fpm/relu")
    p_eval.add_argument("--c", type=float, help="scale for rho, k and pdf (default 1)")
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
    p_zt.add_argument("--grid-size", type=int, default=dist.DEFAULT_GRID_SIZE)
    p_zt.add_argument("--output", required=True, help="path for the JSON table")
    p_zt.set_defaults(func=_cmd_ztable)

    p_irls = sub.add_parser("irls", help="robust location fit, JSON to stdout")
    p_irls.add_argument("--data", required=True, help="one-column CSV of observations")
    p_irls.add_argument("--lambda", required=True, help="shape, must be <= 0")
    p_irls.add_argument("--c", type=float, help="scale (default 1)")
    p_irls.add_argument("--tol", type=float, default=1e-12)
    p_irls.add_argument("--max-iters", type=int, default=100,
                        help="cap on the passes over the observations")
    p_irls.add_argument("--skip-header", action="store_true",
                        help="ignore the first line of the data file")
    p_irls.set_defaults(func=_cmd_irls)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
