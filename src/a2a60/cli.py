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
arguments and input files give byte-identical output.
"""

from __future__ import annotations

import argparse
import collections
import csv as _csv
import json
import os
import sys

import numpy as np

from . import published
from .dataset import (
    AGGREGATED_COLUMNS,
    RANK_FILES,
    load_csv,
    load_measurement_points,
    load_rank_points,
    to_fit_points,
)
from .fitting import fit_ci, fit_fi
from .pathloss import CiModel, FiModel, _check_finite, _draw_blocks, free_space_pl, mean_pl
from .tr38901 import SCENARIOS, pl_3gpp_los, scenario_defaults

FORMATS = ("csv", "json", "markdown-table")
REPORT_COLUMNS = ("section", "param", "computed", "published", "abs_delta", "note")

_BLOCK = 1 << 10  # draws per check and write of `sample`, grid points per evaluation of `compare`
_MAX_GRID_POINTS = 10 ** 6  # distances `compare` evaluates
_MAX_DRAWS = 10 ** 8  # draws `sample` makes, about 1.8 GB of text
_AHEAD = 4  # odd blocks at the helper at once: slack for when a busy host stalls either side
# `sample`'s numpy-free helper: each length-prefixed float64 block in, its `_lines`
# out; a reader thread drains stdin, so neither process waits on the other for good
# while lines fill the pipe back, whatever the pipe sizes
_HELPER = """import queue, sys, threading
i, o, frames = sys.stdin.buffer, sys.stdout.buffer, queue.SimpleQueue()
def read():
    while head := i.read(8):
        frames.put(i.read(int.from_bytes(head, "little")))
    frames.put(None)
threading.Thread(target=read, daemon=True).start()
while (raw := frames.get()) is not None:
    text = ("\\n".join(map(repr, memoryview(raw).cast("d").tolist())) + "\\n").encode()
    o.write(len(text).to_bytes(8, "little") + text)
    o.flush()
"""

# dispersion note shown wherever a mean-square residual meets a published value
_MSE_NOTE = "published dispersion values follow the mean-square (dB^2) convention"


def _cell(value, float_format):
    if value is None:
        return ""
    return float_format(value) if isinstance(value, float) else str(value)


def _emit(fmt: str, columns, rows, out=None) -> None:
    out = out or sys.stdout
    if fmt == "csv":
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v, repr) for v in row])
    elif fmt == "json":  # one object at a time, laid out as json.dump(rows, indent=2) would
        opening = "[\n  "
        for row in rows:
            out.write(opening + json.dumps(dict(zip(columns, row)), indent=2).replace("\n", "\n  "))
            opening = ",\n  "
        out.write("[]\n" if opening == "[\n  " else "\n]\n")
    elif fmt == "markdown-table":
        out.write("| " + " | ".join(columns) + " |\n")
        out.write("|" + "|".join(" --- " for _ in columns) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(_cell(v, "{:.2f}".format) for v in row) + " |\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _read_points(args):
    """Aggregated points from --input or the bundled fixture; raw trials are rejected."""
    if not args.input:
        return load_measurement_points()
    points = load_csv(args.input)
    if points.dtype.names != AGGREGATED_COLUMNS:
        raise ValueError(
            f"{args.command} expects the aggregated schema "
            "(distance_m,height_m,rank,path_loss_db); aggregate raw trials first"
        )
    return points


def _selection(args, flag, convert):
    """The --FLAG filter for to_fit_points, which checks its range: "all", or
    the text converted by `convert`; text that does not convert names the flag."""
    text = getattr(args, flag)
    try:
        return text if text == "all" else convert(text)
    except ValueError as exc:
        raise ValueError(f"invalid --{flag} {text!r}: {exc}") from None


def cmd_fit(args) -> None:
    rank = _selection(args, "rank", lambda text: None if text.lower() in ("none", "best", "")
                      else int(text))
    points = to_fit_points(_read_points(args), height=_selection(args, "height", float), rank=rank)
    report = fit_ci(*points, args.freq_ghz) if args.model == "ci" else fit_fi(*points)
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
    ci = fit_ci(*to_fit_points(_read_points(args)), args.freq_ghz).model
    references = [scenario_defaults(name) for name in SCENARIOS]

    def columns(d):
        return (d, mean_pl(ci, d), *(pl_3gpp_los(ref, args.freq_ghz, d) for ref in references),
                free_space_pl(args.freq_ghz, d))

    # each column's valid distances form an interval: if the grid's two ends
    # pass, every point does, so no row of an out-of-range grid is written
    columns(np.array([start, start + last * step]))
    try:  # then its size, before any row is written
        _check_finite("grid point count", last + 1, le=_MAX_GRID_POINTS)
    except ValueError as exc:
        raise ValueError(f"invalid --distances {args.distances!r}: {exc}") from None
    blocks = (columns(start + np.arange(i, min(i + _BLOCK, last + 1)) * step)
              for i in range(0, last + 1, _BLOCK))  # the same floats as start + i * step
    _emit(args.format, ("distance_m", "ci_fit", *SCENARIOS, "fspl"),
          (row for block in blocks for row in zip(*(column.tolist() for column in block))))


def _lines(values) -> str:
    return "\n".join(map(repr, values.tolist())) + "\n"


def _spawn_helper():
    """(pid, stdin fd, stdout file) of a process running `_HELPER`, or None."""
    if not (hasattr(os, "posix_spawn") and sys.executable):
        return None
    (to_r, to_w), (from_r, from_w) = os.pipe(), os.pipe()
    try:
        pid = os.posix_spawn(sys.executable, [sys.executable, "-I", "-S", "-c", _HELPER],
                             os.environ, file_actions=[
                                 (os.POSIX_SPAWN_DUP2, to_r, 0), (os.POSIX_SPAWN_DUP2, from_w, 1),
                                 (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
    except OSError:
        pid = None
    for fd in (to_r, from_w) if pid else (to_r, from_w, to_w, from_r):
        os.close(fd)
    return (pid, to_w, open(from_r, "rb")) if pid else None


def _send(to, block) -> None:
    """Write one length-prefixed block of draws to the helper's stdin."""
    frame = memoryview(block.nbytes.to_bytes(8, "little") + block.tobytes())
    try:
        while frame:
            frame = frame[os.write(to, frame):]
    except BrokenPipeError:  # the helper is gone, which its missing answer shows
        pass


def _receive(source) -> str:
    """The lines of the oldest block sent to the helper, read from its stdout."""
    size = int.from_bytes(source.read(8), "little")
    text = source.read(size)
    if not size or len(text) != size:
        raise OSError("the helper process formatting the draws exited early")
    return text.decode()


def _pairs(blocks, helper):
    """Each even block of draws, and whether the helper formats the odd block
    after it; each odd block goes to the helper up to `_AHEAD` pairs early."""
    pending = collections.deque()
    for even in blocks:
        odd = next(blocks, None) if helper else None
        if odd is not None:
            _send(helper[1], odd)
        pending.append((even, odd is not None))
        if len(pending) == _AHEAD:
            yield pending.popleft()
    yield from pending


def cmd_sample(args) -> None:
    _check_finite("--n", args.n, ge=0, le=_MAX_DRAWS)
    pub = published.TABLE1[args.model]
    ple = pub["ple"] if args.ple is None else args.ple
    sigma = pub["sigma"] if args.sigma is None else args.sigma
    if args.model == "ci":
        model = CiModel(args.freq_ghz, ple, sigma)
    else:
        model = FiModel(pub["intercept_db"] if args.intercept is None else args.intercept,
                        ple, sigma)
    blocks = _draw_blocks(model, args.distance, args.n, args.seed, _BLOCK)
    # from 64 blocks on, where it saves more than its start-up costs, a helper
    # formats every odd block; it starts up during the check pass
    helper = _spawn_helper() if args.n > 63 * _BLOCK else None
    try:
        for _ in blocks():  # a first pass checks every draw, so an error leaves stdout empty
            pass
        for even, helped in _pairs(blocks(), helper):  # memory does not grow with --n
            sys.stdout.writelines((_lines(even), _receive(helper[2]) if helped else ""))
    finally:
        if helper:
            os.close(helper[1]), helper[2].close()
            try:
                os.waitpid(helper[0], 0)
            except ChildProcessError:  # reaped already, by a caller that ignores SIGCHLD
                pass


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
    return (_fit_rows("ci", fit_ci(*points, args.freq_ghz), published.TABLE1["ci"])
            + _fit_rows("fi", fit_fi(*points), published.TABLE1["fi"]))


def _report_table2(args):
    points = _read_points(args)
    rows = []
    mirror = "published h=6 / h=15 columns are mirrored relative to the bundled series"
    for key, label in (("all", "all"), (6.0, "h=6"), (12.0, "h=12"), (15.0, "h=15")):
        report = fit_ci(*to_fit_points(points, height=key), args.freq_ghz)
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

    reports = {1: fit_ci(*to_fit_points(_read_points(args)), args.freq_ghz)}
    for rank, points in rank_points.items():
        reports[rank] = fit_fi(*to_fit_points(points, rank=rank))
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
    report = fit_ci(*to_fit_points(_read_points(args)), args.freq_ghz)
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
