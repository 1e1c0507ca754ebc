"""Command-line front end.

Four subcommands: `fit` (estimate a path-loss law from aggregated
measurements), `compare` (evaluate the fitted law against the terrestrial
reference models and free space over a distance grid), `sample` (draw
shadowed path-loss values), and `report` (regenerate the campaign tables
side by side with the published values). `fit`, `compare` and `report` load
`--input` or the bundled data as one table of aggregated points, through one
loader that tells a raw-trial table by its fields and rejects it in every
subcommand: aggregate raw trials first.

Results go to stdout, diagnostics to stderr; the exit code is nonzero iff a
diagnostic was emitted. Output contains no timestamps, so identical
arguments and input files give byte-identical output. Library modules are
read through their module objects, so each runs on first use: `sample` runs
`pathloss` and `published` alone, and no subcommand runs `beams`. numpy loads
with the first library module a command runs, so `--help` and usage errors
finish without it.
"""

import argparse
import importlib.util
import os
import sys

from . import dataset, fitting, pathloss, published, tr38901

FORMATS = ("csv", "json", "markdown-table")
REPORT_COLUMNS = ("section", "param", "computed", "published", "abs_delta", "note")

_BLOCK = 1 << 10  # draws per check and write of `sample`, `compare` rows per evaluation and write
_MAX_GRID_POINTS = 10 ** 6  # distances `compare` evaluates
_MAX_DRAWS = 10 ** 8  # draws `sample` makes, about 1.8 GB of text
# the thread-count variables OpenBLAS reads, any of which leaves the count to the user
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# dispersion note shown wherever a mean-square residual meets a published value
_MSE_NOTE = "published dispersion values follow the mean-square (dB^2) convention"


def _cell(value, float_format):
    if value is None:
        return ""
    return float_format(value) if isinstance(value, float) else str(value)


def _emit(fmt: str, columns, rows) -> None:
    out = sys.stdout
    if fmt == "csv":  # no cell holds a comma, a quote or a line break, which csv.writer quotes
        for row in (columns, *rows):  # a list: the header, then fit's or report's rows
            out.write(",".join([_cell(v, repr) for v in row]) + "\n")
    elif fmt == "json":  # one object at a time, laid out as json.dump(rows, indent=2) would
        import json  # here, not at the top: no other format or command loads it
        opening = "[\n  "
        for row in rows:
            out.write(opening + json.dumps(dict(zip(columns, row)), indent=2).replace("\n", "\n  "))
            opening = ",\n  "
        out.write("[]\n" if opening == "[\n  " else "\n]\n")
    else:  # markdown-table, the last of FORMATS, which argparse holds --format to
        out.write("| " + " | ".join(columns) + " |\n")
        out.write("|" + "|".join(" --- " for _ in columns) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(_cell(v, "{:.2f}".format) for v in row) + " |\n")


def _read_points(args):
    """Aggregated points from --input or the bundled fixture; raw trials are rejected."""
    if not args.input:
        return dataset.load_measurement_points()
    return dataset._check_schema(dataset.load_csv(args.input), dataset.AGGREGATED_COLUMNS, args.command)


def _selection(args, flag, field, convert):
    """The --FLAG filter of to_fit_points: "all", or the text `convert`ed, in `field`'s range."""
    text = getattr(args, flag)
    if text == "all":
        return text
    try:
        dataset._check_fields(((field, value := convert(text)),))
    except ValueError as exc:
        raise ValueError(f"invalid --{flag} {text!r}: {exc}") from None
    return value


def cmd_fit(args) -> None:
    rank = _selection(args, "rank", "rank", lambda text: 1 if text.lower() in ("none", "best", "")
                      else int(text))
    height = _selection(args, "height", "height_m", float)
    points = dataset.to_fit_points(_read_points(args), height, rank)
    report = fitting.fit_ci(*points, args.freq_ghz) if args.model == "ci" else fitting.fit_fi(*points)
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
        pathloss._check_finite("START", start)
        pathloss._check_finite("STOP", stop, ge=start, note=" (START)")
        pathloss._check_finite("STEP", step, gt=0.0)
        pathloss._check_finite("(STOP - START) / STEP", (stop - start) / step)
    except ValueError as exc:
        raise ValueError(f"invalid --distances {spec!r}: {exc}") from None
    return start, step, int((stop - start) / step + 1e-9)


def cmd_compare(args) -> None:
    import numpy as np  # here, not at the top: parsing, --help and usage errors do not load it
    start, step, last = _parse_distances(args.distances)
    ci = fitting.fit_ci(*dataset.to_fit_points(_read_points(args), rank=1), args.freq_ghz).model
    oxygen = (tr38901.DEFAULT_OXYGEN_ALPHA_DB_PER_KM if args.oxygen_db_per_km is None
              else args.oxygen_db_per_km)
    pathloss._check_finite("--oxygen-db-per-km", oxygen, ge=0.0)
    references = [tr38901.scenario_defaults(name, oxygen) for name in tr38901.SCENARIOS]

    def columns(d):
        return np.array((d, pathloss.mean_pl(ci, d), *(tr38901.pl_3gpp_los(r, args.freq_ghz, d)
                         for r in references), pathloss.free_space_pl(args.freq_ghz, d)))

    far = start + last * step  # the oxygen term, alpha * d / 1000, is largest here
    if far >= 0.0 and not np.isfinite(tr38901.oxygen_loss(far, oxygen)):
        raise ValueError(f"--oxygen-db-per-km {oxygen!r} overflows the oxygen loss at {far!r} m")
    # each column's valid distances form an interval: if the grid's two ends
    # pass, every point does, so no row of an out-of-range grid is written
    columns(np.array([start, far]))
    try:  # then its size, before any row is written
        pathloss._check_finite("grid point count", last + 1, le=_MAX_GRID_POINTS)
    except ValueError as exc:
        raise ValueError(f"invalid --distances {args.distances!r}: {exc}") from None
    # the default is a 57-64 GHz figure; a carrier outside 0.5-100 GHz failed above
    if args.oxygen_db_per_km is None and not 57.0 <= args.freq_ghz <= 64.0:
        raise ValueError(f"--oxygen-db-per-km is required at --freq-ghz {args.freq_ghz}: the "
                         f"default {tr38901.DEFAULT_OXYGEN_ALPHA_DB_PER_KM} dB/km holds for 57-64 GHz")
    header = ("distance_m", "ci_fit", *tr38901.SCENARIOS, "fspl")
    blocks = (columns(start + np.arange(i, min(i + _BLOCK, last + 1)) * step)
              for i in range(0, last + 1, _BLOCK))  # the same floats as start + i * step
    if args.format == "csv":  # float cells only, which csv.writer would not quote
        sys.stdout.write(",".join(header) + "\n")
        sys.stdout.writelines(map(_lines, blocks))
    else:
        _emit(args.format, header, (row for block in blocks for row in zip(*block.tolist())))


def _lines(block) -> str:
    """One line per value of a float column, or per row of a 2-D block of float columns."""
    if block.ndim == 2:
        return "\n".join(map(",".join, zip(*(map(repr, c) for c in block.tolist())))) + "\n"
    return "\n".join(map(repr, block.tolist())) + "\n"


def cmd_sample(args) -> None:
    pathloss._check_finite("--n", args.n, ge=0, le=_MAX_DRAWS)
    pathloss._check_finite("--seed", args.seed, ge=0)
    pub = published.TABLE1[args.model]
    ple = pub["ple"] if args.ple is None else args.ple
    sigma = pub["sigma"] if args.sigma is None else args.sigma
    if args.model == "ci" and args.intercept is not None:  # its intercept is the 1 m Friis loss
        raise ValueError("--intercept needs --model fi")
    model = (pathloss.CiModel(args.freq_ghz, ple, sigma) if args.model == "ci" else
             pathloss.FiModel(pub["intercept_db"] if args.intercept is None else args.intercept,
                              ple, sigma))
    draws = (model, args.distance, args.n, args.seed, _BLOCK)  # each pass draws afresh from --seed
    for _ in pathloss._draw_blocks(*draws):  # check every draw first: an error leaves stdout empty
        pass
    sys.stdout.writelines(map(_lines, pathloss._draw_blocks(*draws)))  # flat memory for any --n


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
    points = dataset.to_fit_points(_read_points(args), rank=1)
    return (_fit_rows("ci", fitting.fit_ci(*points, args.freq_ghz), published.TABLE1["ci"])
            + _fit_rows("fi", fitting.fit_fi(*points), published.TABLE1["fi"]))


def _report_table2(args):
    points = _read_points(args)
    rows = []
    mirror = "published h=6 / h=15 columns are mirrored relative to the bundled series"
    for key, label in (("all", "all"), (6.0, "h=6"), (12.0, "h=12"), (15.0, "h=15")):
        report = fitting.fit_ci(*dataset.to_fit_points(points, height=key, rank=1), args.freq_ghz)
        note = mirror if key in (6.0, 15.0) else ""
        rows.append(_row(label, "ple", report.model.ple, published.TABLE2_PLE[key], note))
        rows += _residual_rows(label, report, published.TABLE2_SIGMA[key])
    return rows


def _report_table3(args):
    rank_points, missing = {}, []
    for rank, name in dataset.RANK_FILES.items():
        try:
            rank_points[rank] = dataset.load_rank_points(rank)
        except FileNotFoundError:
            missing.append(name)
    if missing:
        raise ValueError(f"missing rank fixtures: {', '.join(sorted(missing))}")

    reports = {1: fitting.fit_ci(*dataset.to_fit_points(_read_points(args), rank=1), args.freq_ghz)}
    for rank, points in rank_points.items():
        reports[rank] = fitting.fit_fi(*dataset.to_fit_points(points, rank=rank))
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
        note = "zero by definition for the best pair" if rank == 1 else needs_beams
        rows.append(_row(section, "delta_deg", 0.0 if rank == 1 else None,
                         published.TABLE3_DELTA_DEG[rank], note))
    return rows


def _report_conclusion(args):
    report = fitting.fit_ci(*dataset.to_fit_points(_read_points(args), rank=1), args.freq_ghz)
    pub, intercept, slope = published.CONCLUSION, report.model.intercept_db, 10.0 * report.model.ple
    rows = [_row("conclusion", "intercept_db", intercept, pub["intercept_db"]),
            _row("conclusion", "slope_db_per_decade", slope, pub["slope_db_per_decade"]),
            *_residual_rows("conclusion", report, pub["sigma"])]
    if args.format == "markdown-table":  # the fitted law as an equation, above the table
        sys.stdout.write(f"PL(d) = {intercept:.2f} + {slope:.2f} log10(d) dB (published: "
                         f"{pub['intercept_db']} + {pub['slope_db_per_decade']} log10(d), "
                         f"sigma {pub['sigma']})\n\n")
    return rows


_REPORTS = {"table1": _report_table1, "table2": _report_table2, "table3": _report_table3,
            "conclusion": _report_conclusion}


def cmd_report(args) -> None:
    _emit(args.format, REPORT_COLUMNS, _REPORTS[args.which](args))


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
                     help='beam-pair rank filter: 1-400 ("1" or "none": the best pair) or "all"')
    fit.set_defaults(func=cmd_fit)

    compare = subs.add_parser("compare", parents=[table],
                              help="tabulate fitted, reference and free-space losses")
    compare.add_argument("--distances", default="6:40:2",
                         help="distance grid START:STOP:STEP in meters")
    compare.add_argument("--oxygen-db-per-km", type=float, default=None,
                         help="oxygen absorption of the references (default: 15 in 57-64 GHz)")
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
    report.add_argument("--which", choices=_REPORTS, required=True)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    if argv is None:  # a program run, the only one that changes the process, before numpy loads
        # one OpenBLAS thread, not a pool that a 27-point fit never uses, unless the user chose
        if "numpy" not in sys.modules and not os.environ.keys() & _BLAS_THREADS:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        # numpy.random loads OpenSSL's libcrypto (3.4 MiB) only through `_hashlib`: blocked for
        # the run, hashlib uses CPython's built-in hashes; not if one is missing, as hashlib logs it
        hashes = ["_md5", "_sha1", "_sha3", "_blake2"] + (
            ["_sha2"] if sys.version_info >= (3, 12) else ["_sha256", "_sha512"])
        if "_hashlib" not in sys.modules and all(map(importlib.util.find_spec, hashes)):
            sys.modules["_hashlib"] = None
        code = main(sys.argv[1:])
        try:  # a failed flush keeps its data, and the flush at exit would fail on it again
            sys.stdout.flush()
        except OSError:  # so write it to nothing: main has said why, unless stdout's reader left
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return code
    args = _build_parser().parse_args(argv)
    try:  # every subcommand takes the carrier, in TR 38.901's range; the fi law never reads it
        pathloss._check_finite("--freq-ghz", args.freq_ghz, ge=0.5, le=100.0, unit="GHz")
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader left: say nothing
        pass
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
