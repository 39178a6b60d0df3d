"""Command-line front end: single-state reports, ordering scans, bound experiments.

Exit codes: 0 success, 2 unphysical input, 3 bound violation in --strict
mode, 64 usage or parse error.  A CSV is written once its command has
computed every row, from the columns of the library's ``ColumnTable``
(scan cells and boundary, bound points) without building a row object:
%.17g for floats, so every double round-trips exactly, %d for ints and
flags, and CRLF line ends.  JSON floats use Python's shortest round-trip
representation.  The parser and ``measure`` load neither ``bounds`` nor
``extremal``, which import NumPy: each command imports the modules it uses.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import operator
import os
import re
import sys
from dataclasses import asdict

from .errors import (
    DomainError,
    MalformedInputError,
    TwoModeError,
    UnphysicalStateError,
)
from .gaussian_em import minimize_m
from .negativity import log_negativity, negativity_report
from .symplectic import cm_from_json_dict, make_two_mode_squeezed, to_standard_form

EXIT_OK = 0
EXIT_UNPHYSICAL = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64

SEED_ENV_VAR = "TWOMODE_SEED"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads "-2e0" as an option, not a number;
        # subparsers are built by this class too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bounds():
    """The ``bounds`` module, imported on first use.  ``from . import
    bounds`` would reach it through the package's ``__getattr__``, which
    measured 5-7 ms slower on a cold ``twomode bounds`` (median of 40 runs
    on a 2-vCPU Xeon) than this statement."""
    import twomode.bounds

    return twomode.bounds


def _above(kind, floor, *, inclusive=False, ceiling=None):
    """argparse type converting with ``kind``, requiring > ``floor`` (>= if
    inclusive) and, given a ``ceiling``, <= the ``bounds`` constant of that
    name, read when a value is parsed."""
    def parse(text):
        value = kind(text)
        if ceiling is not None:
            limit = getattr(_bounds(), ceiling)
        if not ((value >= floor if inclusive else value > floor)
                and (ceiling is None or value <= limit)):
            relation = "be at least" if inclusive else "exceed"
            at_most = ""
            if ceiling is not None:
                shown = f"{limit:g}" if kind is float else limit
                at_most = f" and be at most {shown}"
            raise argparse.ArgumentTypeError(f"must {relation} {floor}{at_most}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _bounded(text: str) -> float:
    """argparse type: a float of magnitude at most ``extremal.SCAN_LIMIT``."""
    from .extremal import SCAN_LIMIT

    value = float(text)
    if not abs(value) <= SCAN_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be finite and at most {SCAN_LIMIT:g} in magnitude, got {text}")
    return value


_bounded.__name__ = "float"  # argparse names the type in "invalid float value"


#: Rows formatted by one ``%`` call of ``_write_csv``.
_ROWS_PER_CALL = 256


def _write_csv(path: str, header: list[str], row_template: str, columns) -> None:
    """Write ``header`` and then ``row_template`` for each row of
    ``columns``, a sequence of equal-length sequences (none for no rows).
    Each slice of ``_ROWS_PER_CALL`` rows is one ``(row_template * k) %
    values`` call on its values, row by row.  Templates use %.17g for
    floats, %d for ints and bools and end in CRLF, so the bytes are those
    of ``csv.writer`` on the values formatted that way (no field here needs
    quoting)."""
    width = len(columns)
    rows = len(columns[0]) if width else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _ROWS_PER_CALL):
            stop = min(start + _ROWS_PER_CALL, rows)
            values = [None] * (width * (stop - start))
            for j, column in enumerate(columns):
                values[j::width] = column[start:stop]
            fh.write((row_template * (stop - start)) % tuple(values))


_FLOATS_3 = "%.17g,%.17g,%.17g\r\n"


def _log_base(text: str):
    return 2 if text == "2" else "e"


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 12345
    try:
        seed = int(env)
    except ValueError:
        raise _ParseFailure(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed < 0:
        raise _ParseFailure(f"{SEED_ENV_VAR} must be at least 0, got {env!r}")
    return seed


def _read_state_json(source: str):
    # bytes that are not UTF-8, nesting past the recursion limit and integer
    # literals past Python's digit limit are parse errors too
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _ParseFailure(f"invalid JSON input: {exc}")
    return cm_from_json_dict(obj)


class _ParseFailure(Exception):
    pass


def _measure_report(cm, params, args) -> dict:
    sf = to_standard_form(cm)
    inv = sf.invariants()
    base = _log_base(args.log_base)
    neg = negativity_report(sf, log_base=base)
    gem = minimize_m(sf, log_base=base)
    report = {
        "standard_form": asdict(sf),
        "purities": {
            "global": 1.0 / math.sqrt(inv.det_sigma),
            "local_1": 1.0 / math.sqrt(inv.det_alpha),
            "local_2": 1.0 / math.sqrt(inv.det_beta),
        },
        "invariants": asdict(inv),
        "spectrum": asdict(sf.spectrum()),
        "negativity": asdict(neg),
        "gaussian_em": asdict(gem),
        "closed_form": None,
    }
    if params is not None:
        from .extremal import _PARAM_TOL, m_opt_glems, m_opt_gmems

        s, d, g, lam = params
        family = None
        m_closed = None
        if abs(g - (2.0 * abs(d) + 1.0)) <= _PARAM_TOL:
            family, m_closed = "gmemms", m_opt_gmems(s=s, d=d, g=g)
        elif lam == 1.0:
            family, m_closed = "gmems", m_opt_gmems(s=s, d=d, g=g)
        elif lam == -1.0:
            family, m_closed = "glems", m_opt_glems(s=s, d=d, g=g)
        report["params"] = {"s": s, "d": d, "g": g, "lambda": lam}
        if family is not None:
            report["closed_form"] = {"family": family, "m_opt": m_closed}
    return report


def _cmd_measure(args) -> int:
    sources = [
        args.input is not None,
        args.squeezed_r is not None,
        args.params is not None,
    ]
    if sum(sources) != 1:
        raise _ParseFailure("provide exactly one of INPUT, --squeezed-r, --params")
    params = None
    if args.squeezed_r is not None:
        cm = make_two_mode_squeezed(args.squeezed_r)
    elif args.params is not None:
        from .extremal import ExtremalParams, build_state

        s, d, g, lam = args.params
        params = (s, d, g, lam)
        cm = build_state(ExtremalParams(s, d, g, lam)).to_matrix()
    else:
        cm = _read_state_json(args.input)
    report = _measure_report(cm, params, args)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


_SCAN_HEADER = ["s", "d", "g", "m_gmems", "m_glems",
                "nu_tilde_gmems", "nu_tilde_glems", "regime"]
_SCAN_ROW = "%s%s%.17g,%.17g,%.17g,%.17g,%s\r\n"


def _cmd_scan(args) -> int:
    from .extremal import Regime, scan_ordering_3d, scan_ordering_slice

    if args.command == "scan":
        cells, boundary = scan_ordering_slice(
            args.fixed_a, tuple(args.b_range), tuple(args.g_range), args.resolution
        )
    else:
        cells, boundary = scan_ordering_3d(
            tuple(args.s_range), tuple(args.d_range), tuple(args.g_range), args.resolution
        )
    # each grid column's (s, d) and each g are formatted once, and a regime's
    # text is read as ``_value_``, not through the slow ``.value``
    s, d, g, *measures, regimes = cells.columns
    r = args.resolution
    heads = ["%.17g,%.17g," % sd for sd in zip(s[::r], d[::r])]
    texts = list(map(operator.attrgetter("_value_"), regimes))
    _write_csv(args.grid, _SCAN_HEADER, _SCAN_ROW,
               [[head for head in heads for _ in range(r)],
                ["%.17g," % x for x in g[:r]] * len(heads), *measures, texts])
    _write_csv(args.boundary, ["s", "d", "g_boundary"], _FLOATS_3, boundary.columns)
    counts = dict(collections.Counter(texts))  # in order of first appearance
    json.dump({"cells": len(cells), "boundary_points": len(boundary),
               "regimes": counts}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if counts.keys() <= {Regime.UNPHYSICAL.value}:
        sys.stderr.write("warning: scan window contains no physical cells\n")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.seed is None:
        args.seed = _default_seed()
    bounds_mod = _bounds()
    base = _log_base(args.log_base)
    cfg = bounds_mod.SamplerConfig(
        seed=args.seed, count=args.samples, s_max=args.s_max, mode=args.mode
    )
    result = bounds_mod.bound_experiment(cfg, log_base=base)
    _write_csv(
        args.points,
        ["index", "s", "d", "g", "lambda", "nu_tilde_sigma", "nu_tilde_opt",
         "log_neg", "geof", "violates_42", "violates_46"],
        "%d," + "%.17g," * 8 + "%d,%d\r\n",
        result.points.columns,
    )
    curves = bounds_mod.bound_curves(args.curve_resolution)
    _write_csv(args.curves, ["nu_tilde", "lower", "upper"], _FLOATS_3, list(zip(*curves)))
    if args.geof_curves:
        # every curve's nu is below 1, so every log_neg is positive
        rows = [(e_n, *bounds_mod.geof_bounds(e_n, base))
                for e_n in (log_negativity(nu, base) for nu, _, _ in curves)]
        _write_csv(args.geof_curves, ["log_neg", "geof_lower", "geof_upper"], _FLOATS_3,
                   list(zip(*rows)))
    summary = {
        "samples": args.samples,
        "seed": args.seed,
        "s_max": args.s_max,
        "mode": args.mode,
        "violations_42": result.violations_upper,
        "violations_46": result.violations_lower,
        "numerical_failures": len(result.failures),
        "min_slack_42": result.min_upper_slack,
        "min_m_max_slack": result.min_m_max_slack,
    }
    with open(args.summary, "w") if args.summary else contextlib.nullcontext(sys.stdout) as out:
        json.dump(summary, out, indent=2)
        out.write("\n")
    if args.strict and result.violations_upper > 0:
        return EXIT_VIOLATION
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="twomode",
                     description="Entanglement measures for two-mode Gaussian states.")
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="full report for a single state")
    measure.add_argument("input", nargs="?", default=None,
                         help="path to a state JSON file, or - for stdin")
    measure.add_argument("--squeezed-r", type=float, default=None,
                         help="two-mode squeezed state with this squeezing parameter")
    measure.add_argument("--params", type=float, nargs=4, default=None,
                         metavar=("S", "D", "G", "LAMBDA"),
                         help="mixedness parameters of an extremal-family state")
    measure.add_argument("--log-base", choices=["2", "e"], default="2")
    measure.set_defaults(func=_cmd_measure)

    scan = sub.add_parser("scan", help="extremal-ordering map over (b, g) at fixed a")
    scan.add_argument("--fixed-a", type=_bounded, required=True)
    scan.add_argument("--b-range", type=_bounded, nargs=2, required=True, metavar=("LO", "HI"))
    scan.add_argument("--g-range", type=_bounded, nargs=2, required=True, metavar=("LO", "HI"))
    scan.add_argument("--resolution", type=_above(int, 1), default=200)
    scan.add_argument("--grid", default="ordering_grid.csv", help="cell table output path")
    scan.add_argument("--boundary", default="ordering_boundary.csv",
                      help="equal-measure polyline output path")
    scan.set_defaults(func=_cmd_scan)

    scan3d = sub.add_parser("scan3d", help="extremal-ordering map over (s, d, g)")
    scan3d.add_argument("--s-range", type=_bounded, nargs=2, required=True, metavar=("LO", "HI"))
    scan3d.add_argument("--d-range", type=_bounded, nargs=2, required=True, metavar=("LO", "HI"))
    scan3d.add_argument("--g-range", type=_bounded, nargs=2, required=True, metavar=("LO", "HI"))
    scan3d.add_argument("--resolution", type=_above(int, 1), default=48)
    scan3d.add_argument("--grid", default="ordering_grid_3d.csv")
    scan3d.add_argument("--boundary", default="ordering_boundary_3d.csv")
    scan3d.set_defaults(func=_cmd_scan)

    bnd = sub.add_parser("bounds", help="random-state bound experiment")
    bnd.add_argument("--samples", type=_above(int, 0, ceiling="COUNT_LIMIT"),
                     required=True)
    bnd.add_argument("--seed", type=_above(int, 0, inclusive=True), default=None)
    bnd.add_argument("--s-max", type=_above(float, 1.0, ceiling="S_MAX_LIMIT"),
                     default=20.0)
    bnd.add_argument("--mode", choices=["extremal_params", "raw_standard_form"],
                     default="extremal_params")
    bnd.add_argument("--strict", action="store_true",
                     help="exit 3 if the proven upper curve is violated")
    bnd.add_argument("--points", default="bound_points.csv")
    bnd.add_argument("--curves", default="bound_curves.csv")
    bnd.add_argument("--geof-curves", default=None,
                     help="optional CSV of the bounds in (log_neg, geof) coordinates")
    bnd.add_argument("--curve-resolution", type=_above(int, 1), default=512)
    bnd.add_argument("--summary", default=None,
                     help="write the summary JSON here instead of stdout")
    bnd.add_argument("--log-base", choices=["2", "e"], default="2")
    bnd.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as exc:
        sys.stderr.write(f"twomode: error: {exc}\n")
        return EXIT_USAGE
    except (UnphysicalStateError, MalformedInputError, DomainError) as exc:
        sys.stderr.write(f"twomode: unphysical or invalid state: {exc}\n")
        return EXIT_UNPHYSICAL
    except TwoModeError as exc:
        sys.stderr.write(f"twomode: error: {exc}\n")
        return EXIT_UNPHYSICAL
    except OSError as exc:
        sys.stderr.write(f"twomode: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
