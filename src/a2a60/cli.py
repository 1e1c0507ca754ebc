"""Command-line front end.

Four subcommands: `fit` (estimate a path-loss law from aggregated
measurements), `compare` (evaluate the fitted law against the terrestrial
reference models and free space over a distance grid), `sample` (draw
shadowed path-loss values), and `report` (regenerate the campaign tables
side by side with the published values). `fit`, `compare` and `report` read
aggregated points from `--input` or the bundled data through one loader, which
rejects a raw-trial CSV in every subcommand: aggregate raw trials first.

Results go to stdout, diagnostics to stderr; the exit code is nonzero iff a
diagnostic was emitted. Output contains no timestamps, so identical
arguments and input files give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import sys

from . import published
from .dataset import (
    RANK_FILES,
    load_csv,
    load_measurement_points,
    load_rank_points,
    to_fit_points,
)
from .fitting import fit_ci, fit_fi
from .pathloss import CiModel, FiModel, _check_finite, free_space_pl, mean_pl, sample_pl
from .tr38901 import SCENARIOS, pl_3gpp_los, scenario_defaults

FORMATS = ("csv", "json", "markdown-table")
REPORT_COLUMNS = ("section", "param", "computed", "published", "abs_delta", "note")

_SAMPLE_BLOCK = 1 << 10  # values formatted per stdout write by `sample`
_MAX_GRID_POINTS = 10 ** 6  # distances `compare` evaluates, all held in memory before output

# dispersion note shown wherever a mean-square residual meets a published value
_MSE_NOTE = "published dispersion values follow the mean-square (dB^2) convention"


def _full(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _human(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _emit(fmt: str, columns, rows, out=None) -> None:
    out = out or sys.stdout
    if fmt == "csv":
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_full(v) for v in row])
    elif fmt == "json":
        doc = [dict(zip(columns, row)) for row in rows]
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif fmt == "markdown-table":
        out.write("| " + " | ".join(columns) + " |\n")
        out.write("|" + "|".join(" --- " for _ in columns) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(_human(v) for v in row) + " |\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _read_points(args):
    """Aggregated points from --input or the bundled fixture; raw trials are rejected."""
    if not args.input:
        return load_measurement_points()
    points = load_csv(args.input)
    if not isinstance(points, list):  # raw trials load as a numpy table
        raise ValueError(
            f"{args.command} expects the aggregated schema "
            "(distance_m,height_m,rank,path_loss_db); aggregate raw trials first"
        )
    return points


def _load_points(args):
    # to_fit_points converts and matches the "all", height and rank numbers itself
    rank = None if args.rank.lower() in ("none", "best", "") else args.rank
    return to_fit_points(_read_points(args), height=args.height, rank=rank)


def cmd_fit(args) -> None:
    points = _load_points(args)
    report = fit_ci(points, args.freq_ghz) if args.model == "ci" else fit_fi(points)
    columns = ("model", "points", "intercept_db", "ple", "sigma_db", "mse_db2")
    rows = [(args.model, report.point_count, report.model.intercept_db, report.model.ple,
             report.sigma_db, report.mse_db2)]
    _emit(args.format, columns, rows)


def _parse_distances(spec: str) -> tuple[float, float, int]:
    """START, STEP and the index of the last grid point of START:STOP:STEP."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"invalid --distances {spec!r}, expected START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
        _check_finite("START", start)
        _check_finite("STOP", stop, ge=start, note=" (START)")
        _check_finite("STEP", step, gt=0.0)
        _check_finite("(STOP - START) / STEP", (stop - start) / step)
    except ValueError as exc:
        raise ValueError(f"invalid --distances {spec!r}: {exc}") from None
    return start, step, int((stop - start) / step + 1e-9)


def cmd_compare(args) -> None:
    start, step, last = _parse_distances(args.distances)
    ci = fit_ci(to_fit_points(_read_points(args)), args.freq_ghz).model
    umi, uma, rma, inoo = (scenario_defaults(name) for name in SCENARIOS)

    def row(d):
        return (d, mean_pl(ci, d), pl_3gpp_los(umi, args.freq_ghz, d),
                pl_3gpp_los(uma, args.freq_ghz, d), pl_3gpp_los(rma, args.freq_ghz, d),
                pl_3gpp_los(inoo, args.freq_ghz, d), free_space_pl(args.freq_ghz, d))

    # each column's valid distances form an interval: if the grid's two ends
    # pass, every point does, so an out-of-range grid is never built
    row(start), row(start + last * step)
    try:  # then its size, before it is built
        _check_finite("grid point count", last + 1, le=_MAX_GRID_POINTS)
    except ValueError as exc:
        raise ValueError(f"invalid --distances {args.distances!r}: {exc}") from None
    _emit(args.format, ("distance_m", "ci_fit", *SCENARIOS, "fspl"),
          [row(start + i * step) for i in range(last + 1)])


def cmd_sample(args) -> None:
    pub = published.TABLE1[args.model]
    ple = pub["ple"] if args.ple is None else args.ple
    sigma = pub["sigma"] if args.sigma is None else args.sigma
    if args.model == "ci":
        model = CiModel(args.freq_ghz, ple, sigma)
    else:
        model = FiModel(pub["intercept_db"] if args.intercept is None else args.intercept,
                        ple, sigma)
    values = sample_pl(model, args.distance, args.n, args.seed)
    # one write per block of lines: the whole text at once would hold every line in memory
    for start in range(0, values.size, _SAMPLE_BLOCK):
        sys.stdout.write("\n".join(map(repr, values[start:start + _SAMPLE_BLOCK].tolist())) + "\n")


def _row(section, param, computed, pub, note=""):
    """One report row; abs_delta is empty unless both values are present."""
    delta = None if computed is None or pub is None else abs(computed - pub)
    return (section, param, computed, pub, delta, note)


def _residual_rows(section, report, pub_sigma):
    return [
        _row(section, "mean_sq_resid_db2", report.mse_db2, pub_sigma, _MSE_NOTE),
        _row(section, "sigma_db", report.sigma_db, None, "rms residual of this fit"),
    ]


def _fit_rows(section, report, pub):
    return [
        _row(section, "intercept_db", report.model.intercept_db, pub["intercept_db"]),
        _row(section, "ple", report.model.ple, pub["ple"]),
        *_residual_rows(section, report, pub["sigma"]),
    ]


def _report_table1(args):
    points = to_fit_points(_read_points(args))
    return (_fit_rows("ci", fit_ci(points, args.freq_ghz), published.TABLE1["ci"])
            + _fit_rows("fi", fit_fi(points), published.TABLE1["fi"]))


def _report_table2(args):
    points = _read_points(args)
    rows = []
    mirror = "published h=6 / h=15 columns are mirrored relative to the bundled series"
    for key, label in (("all", "all"), (6.0, "h=6"), (12.0, "h=12"), (15.0, "h=15")):
        report = fit_ci(to_fit_points(points, height=key), args.freq_ghz)
        note = mirror if key in (6.0, 15.0) else ""
        rows.append(_row(label, "ple", report.model.ple, published.TABLE2_PLE[key], note))
        rows += _residual_rows(label, report, published.TABLE2_SIGMA[key])
    return rows


def _report_table3(args):
    rank_points, missing = {}, []
    for rank, name in RANK_FILES.items():
        try:
            rank_points[rank] = load_rank_points(rank)
        except FileNotFoundError:
            missing.append(name)
    if missing:
        raise ValueError(f"missing rank fixtures: {', '.join(sorted(missing))}")

    reports = {1: fit_ci(to_fit_points(_read_points(args)), args.freq_ghz)}
    for rank, points in rank_points.items():
        reports[rank] = fit_fi(to_fit_points(points, rank=rank))
    needs_beams = "requires beam-level data"
    rows = []
    for rank in range(1, 10):
        section = f"rank {rank}"
        report = reports.get(rank)
        if report is None:
            values, notes = (None, None, None), (needs_beams,) * 3
        else:
            values = (report.model.ple, report.model.intercept_db, report.mse_db2)
            notes = ("", "", _MSE_NOTE)
        for param, value, pub, note in zip(
                ("ple", "intercept_db", "mean_sq_resid_db2"), values,
                (published.TABLE3_PLE, published.TABLE3_INTERCEPT_DB, published.TABLE3_SIGMA),
                notes):
            rows.append(_row(section, param, value, pub[rank], note))
        if rank == 1:
            rows.append(_row(section, "delta_deg", 0.0, published.TABLE3_DELTA_DEG[rank],
                             "zero by definition for the best pair"))
        else:
            rows.append(_row(section, "delta_deg", None, published.TABLE3_DELTA_DEG[rank],
                             needs_beams))
    return rows


def _report_conclusion(args):
    report = fit_ci(to_fit_points(_read_points(args)), args.freq_ghz)
    pub = published.CONCLUSION
    return [
        _row("conclusion", "intercept_db", report.model.intercept_db, pub["intercept_db"]),
        _row("conclusion", "slope_db_per_decade", 10.0 * report.model.ple,
             pub["slope_db_per_decade"]),
        *_residual_rows("conclusion", report, pub["sigma"]),
    ]


def cmd_report(args) -> None:
    builders = {
        "table1": _report_table1,
        "table2": _report_table2,
        "table3": _report_table3,
        "conclusion": _report_conclusion,
    }
    rows = builders[args.which](args)
    if args.which == "conclusion" and args.format == "markdown-table":
        computed = next(r for r in rows if r[1] == "intercept_db")[2]
        slope = next(r for r in rows if r[1] == "slope_db_per_decade")[2]
        pub = published.CONCLUSION
        sys.stdout.write(
            f"PL(d) = {computed:.2f} + {slope:.2f} log10(d) dB "
            f"(published: {pub['intercept_db']} + {pub['slope_db_per_decade']} log10(d), "
            f"sigma {pub['sigma']})\n\n"
        )
    _emit(args.format, REPORT_COLUMNS, rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2a60",
        description="60 GHz UAV-to-UAV path-loss toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # shared flags, each declared once: every subcommand takes the carrier, and
    # fit, compare and report also read points and format a table
    carrier = argparse.ArgumentParser(add_help=False)
    carrier.add_argument("--freq-ghz", type=float, default=published.CARRIER_FREQ_GHZ,
                         help="carrier frequency in GHz")
    table = argparse.ArgumentParser(add_help=False, parents=[carrier])
    table.add_argument("--input", default=None, help="aggregated-schema CSV (default: bundled data)")
    table.add_argument("--format", choices=FORMATS, default="csv")

    fit = subs.add_parser("fit", parents=[table],
                          help="fit a path-loss law to aggregated measurements")
    fit.add_argument("--model", choices=("ci", "fi"), required=True)
    fit.add_argument("--height", default="all", help='height filter in meters, or "all"')
    fit.add_argument("--rank", default="all",
                     help='beam-pair rank filter, "none" for best pair, or "all"')
    fit.set_defaults(func=cmd_fit)

    compare = subs.add_parser("compare", parents=[table],
                              help="tabulate fitted, reference and free-space losses")
    compare.add_argument("--distances", default="6:40:2",
                         help="distance grid START:STOP:STEP in meters")
    compare.set_defaults(func=cmd_compare)

    sample = subs.add_parser("sample", parents=[carrier],
                             help="draw shadowed path-loss values, one per line")
    sample.add_argument("--model", choices=("ci", "fi"), default="ci")
    sample.add_argument("--distance", type=float, required=True, help="distance in meters")
    sample.add_argument("--n", type=int, required=True, help="number of samples")
    sample.add_argument("--seed", type=int, default=0, help="generator seed")
    sample.add_argument("--ple", type=float, default=None,
                        help="path-loss exponent (default: published model)")
    sample.add_argument("--sigma", type=float, default=None,
                        help="shadowing sigma in dB (default: published model)")
    sample.add_argument("--intercept", type=float, default=None,
                        help="floating intercept in dB (fi model only)")
    sample.set_defaults(func=cmd_sample)

    report = subs.add_parser("report", parents=[table],
                             help="regenerate a published table with deltas")
    report.add_argument("--which", choices=("table1", "table2", "table3", "conclusion"),
                        required=True)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
