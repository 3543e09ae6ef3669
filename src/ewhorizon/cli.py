"""Command-line driver: `ewh verify | scan-c | export-plot`.

Exit codes: 0 when the verdict matches expectation (pass, or fail under
--expect-fail), 2 when it does not, 1 for usage or evaluation errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .errors import EwhError
from .nearhorizon import _family_row
from .report import (_FAMILY_PARAMS, CHECKS, GridSpec, export_plot,
                     run_check, scan_c, scan_rows_csv)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _param_types() -> dict:
    """One flag per parameter name of any registered check: str where
    the default is a string, float otherwise."""
    return {name: str if isinstance(default, str) else float
            for check in CHECKS.values()
            for name, default in check.params.items()}


def _add_param_flags(parser, shown):
    """The flags of `_param_types`, hidden from the help unless shown."""
    for name, kind in _param_types().items():
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name,
                            type=kind, default=None, help=None
                            if name in shown else argparse.SUPPRESS)


def _collect_params(args):
    return {name: getattr(args, name) for name in _param_types()
            if getattr(args, name) is not None}


def _parse_grid(text: str) -> GridSpec:
    kwargs = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise _UsageError(f"bad grid piece {piece!r}; "
                              f"want axis=min:max:count")
        axis, spec = piece.split("=", 1)
        axis = axis.strip()
        if axis not in ("nu", "r", "x"):
            raise _UsageError(f"unknown grid axis {axis!r}")
        if axis in kwargs:
            raise _UsageError(f"grid axis {axis!r} given twice")
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError(f"bad grid spec {spec!r}; "
                              f"want min:max:count")
        try:
            kwargs[axis] = (float(parts[0]), float(parts[1]),
                            int(parts[2]))
        except ValueError:
            raise _UsageError(f"bad grid numbers in {spec!r}")
    return GridSpec(**kwargs)


def _build_parser() -> _Parser:
    top = _Parser(prog="ewh",
                  description="residual certification of near-horizon "
                              "einstein-weyl structures")
    sub = top.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", parents=[], add_help=True,
                        help="run one named check and report residuals")
    pv.add_argument("check", type=str)
    _add_param_flags(pv, _param_types())
    pv.add_argument("--grid", type=str, default=None,
                    help="axis=min:max:count[,axis=...]")
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--expect-fail", action="store_true")
    pv.add_argument("--json", type=str, default=None, metavar="PATH")
    pv.add_argument("--csv", type=str, default=None, metavar="PATH")
    pv.add_argument("--quiet", action="store_true")

    ps = sub.add_parser("scan-c",
                        help="integrate the quartic profile equation "
                             "over a range of c from a family seed")
    ps.add_argument("--from", dest="c_from", type=float, required=True)
    ps.add_argument("--to", dest="c_to", type=float, required=True)
    ps.add_argument("--steps", type=int, default=11)
    ps.add_argument("--seed", type=str, default="quadratic")
    _add_param_flags(ps, _FAMILY_PARAMS)
    ps.add_argument("--csv", type=str, default=None, metavar="PATH")

    pp = sub.add_parser("export-plot",
                        help="write a 1d residual sweep as csv")
    pp.add_argument("check", type=str)
    _add_param_flags(pp, _param_types())
    pp.add_argument("--axis", type=str, default="x",
                    choices=("nu", "r", "x"))
    pp.add_argument("--samples", type=int, default=200)
    pp.add_argument("--out", type=str, default=None, metavar="PATH")
    return top


def _cmd_verify(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else GridSpec()
    rep = run_check(args.check, params=_collect_params(args), grid=grid,
                    tolerance=args.tol, expect_fail=args.expect_fail)
    if not args.quiet:
        sys.stdout.write(rep.human())
    if args.json:
        with open(args.json, "w") as f:
            f.write(rep.to_json())
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(rep.to_csv())
    return 0 if rep.passed != args.expect_fail else 2


# scan-c flags that are the scan's own; a seed family taking a parameter
# of the same name (numeric: x0, span) cannot be given it from scan-c
_SCAN_OWN = {"x0": "the scan's start", "span": "the scan's half-width"}


def _cmd_scan_c(args) -> int:
    params = _collect_params(args)
    # check flags no seed takes are hidden, so --e cannot abbreviate --ell
    extra = sorted(params.keys() - _FAMILY_PARAMS.keys())
    if extra:
        raise _UsageError(f"no scan-c seed takes --{extra[0]}")
    seed_params = _family_row(args.seed)[1]
    clash = sorted(set(params) & set(_SCAN_OWN) & set(seed_params))
    if clash:
        name = clash[0]
        raise _UsageError(f"--{name} means {_SCAN_OWN[name]} and also the "
                          f"{args.seed} seed's own {name}; scan-c cannot "
                          f"set the seed's {name}")
    x0 = params.pop("x0", 1.0)
    span = params.pop("span", 6.0)
    rows = scan_c(args.c_from, args.c_to, args.steps, seed=args.seed,
                  seed_params=params, x0=x0, span=span)
    text = scan_rows_csv(rows)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(text)
        counts = Counter(status for _, status, *_ in rows)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        sys.stdout.write(f"wrote {len(rows)} rows to {args.csv} "
                         f"({summary})\n")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_plot(args) -> int:
    params = _collect_params(args)
    lines = export_plot(args.check, params=params, axis=args.axis,
                        samples=args.samples)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        sys.stdout.write(f"wrote {len(lines) - 1} lines to {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scan-c":
            return _cmd_scan_c(args)
        return _cmd_export_plot(args)
    except (_UsageError, EwhError, OSError, ValueError) as e:
        sys.stderr.write(f"ewh: error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
