"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold."""

import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from a2a60 import (
    BeamScanRecord,
    CiModel,
    aggregate_trials,
    fit_ci,
    fit_fi,
    free_space_pl,
    friis_reference_pl,
    load_csv,
    load_rank_points,
    mean_pl,
    pl_3gpp_los,
    rank_beam_pairs,
    sample_pl,
    scenario_defaults,
    to_fit_points,
)
from a2a60.dataset import RAW_COLUMNS

F = 60.48


def run_cli(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "a2a60.cli", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def test_criterion_1_headline_ci_fit(fig2_fit_points):
    report = fit_ci(*fig2_fit_points, F)
    assert 2.24 <= report.model.ple <= 2.26
    # the published dispersion value (3.56) is reproduced by the mean-square
    # residual of this fit; its square root, the rms residual, is ~1.89 dB
    assert 2.96 <= report.mse_db2 <= 4.16
    print(f"ACCEPTANCE criterion 1: PASS (ple={report.model.ple:.4f}, "
          f"mean_sq_resid={report.mse_db2:.4f} dB^2, rmse={report.sigma_db:.4f} dB)")


def test_criterion_2_headline_fi_fit(fig2_fit_points):
    report = fit_fi(*fig2_fit_points)
    assert 66.5 <= report.model.intercept_db <= 67.5
    assert 2.30 <= report.model.ple <= 2.36
    print(f"ACCEPTANCE criterion 2: PASS (intercept={report.model.intercept_db:.4f} dB, "
          f"ple={report.model.ple:.4f})")


def test_criterion_3_friis_intercept():
    value = friis_reference_pl(F)
    assert abs(value - 68.08) <= 0.01
    print(f"ACCEPTANCE criterion 3: PASS (friis_reference_pl(60.48 GHz)={value:.5f} dB)")


def test_criterion_4_height_independence(fig2_points):
    ples = {}
    for height in (6.0, 12.0, 15.0):
        report = fit_ci(*to_fit_points(fig2_points, height=height), F)
        ples[height] = report.model.ple
        assert 2.19 <= report.model.ple <= 2.32, height
    print("ACCEPTANCE criterion 4: PASS (per-height ple = "
          + ", ".join(f"h={h:g}: {p:.4f}" for h, p in ples.items()) + ")")


def test_criterion_5_reference_curve_reproduction(reference_curves):
    worst_3gpp = 0.0
    checked = 0
    for scenario in ("umi", "uma", "rma", "inoo"):
        params = scenario_defaults(scenario)
        for d, expected in reference_curves[scenario]:
            err = abs(pl_3gpp_los(params, F, d) - expected)
            worst_3gpp = max(worst_3gpp, err)
            checked += 1
            assert err <= 0.05, (scenario, d, err)
    assert checked == 60
    worst_fspl = 0.0
    for d, expected in reference_curves["fspl"]:
        err = abs(free_space_pl(F, d) - expected)
        worst_fspl = max(worst_fspl, err)
        assert err <= 0.01, (d, err)
    assert len(reference_curves["fspl"]) == 13
    print(f"ACCEPTANCE criterion 5: PASS (60 scenario samples, worst {worst_3gpp:.4f} dB; "
          f"13 free-space samples, worst {worst_fspl:.6f} dB)")


def test_criterion_6_aerial_loss_exceeds_references(fig2_fit_points):
    model = fit_ci(*fig2_fit_points, F).model
    distances = sorted(set(range(9, 41, 3)) | {40})
    min_gap = math.inf
    for scenario in ("umi", "uma", "rma", "inoo"):
        params = scenario_defaults(scenario)
        for d in distances:
            gap = mean_pl(model, float(d)) - pl_3gpp_los(params, F, float(d))
            min_gap = min(min_gap, gap)
            assert gap > 0.0, (scenario, d)
    print(f"ACCEPTANCE criterion 6: PASS (aerial fit above every scenario at "
          f"d in {{9..40}} m, smallest margin {min_gap:.3f} dB)")


def test_criterion_7_rank_fit_reproduction():
    published = {2: (69.68, 2.28), 3: (74.10, 2.07), 9: (79.73, 2.03)}
    fitted = {}
    for rank, (pub_intercept, pub_ple) in published.items():
        report = fit_fi(*to_fit_points(load_rank_points(rank), rank=rank))
        fitted[rank] = report.model
        assert abs(report.model.intercept_db - pub_intercept) <= 0.5, rank
        assert abs(report.model.ple - pub_ple) <= 0.05, rank
    spread = fitted[9].intercept_db - friis_reference_pl(F)
    assert abs(spread - 11.0) <= 1.0
    print("ACCEPTANCE criterion 7: PASS ("
          + ", ".join(f"rank {r}: ({m.intercept_db:.3f}, {m.ple:.3f})" for r, m in fitted.items())
          + f"; intercept spread {spread:.2f} dB)")


def test_criterion_8_property_suite(fig2_fit_points):
    # exact recovery of noiseless synthetic data
    friis = friis_reference_pl(F)
    distances = (2, 4, 8, 16, 32)
    ci_report = fit_ci(distances, [friis + 23.7 * math.log10(d) for d in distances], F)
    assert abs(ci_report.model.ple - 2.37) < 1e-9
    assert ci_report.sigma_db < 1e-9
    fi_report = fit_fi(distances, [70.0 + 21.0 * math.log10(d) for d in distances])
    assert abs(fi_report.model.intercept_db - 70.0) < 1e-9
    assert abs(fi_report.model.ple - 2.1) < 1e-9
    assert fi_report.sigma_db < 1e-9

    # floating-intercept shift equivariance
    shift = 7.25
    distance, path_loss = fig2_fit_points
    base, moved = fit_fi(distance, path_loss), fit_fi(distance, path_loss + shift)
    assert abs(moved.model.intercept_db - base.model.intercept_db - shift) < 1e-9
    assert abs(moved.model.ple - base.model.ple) < 1e-11
    assert abs(moved.sigma_db - base.sigma_db) < 1e-9

    # exponent 2 coincides with free space
    for d in (1.0, 2.5, 6.0, 40.0, 123.456):
        assert mean_pl(CiModel(F, 2.0), d) == free_space_pl(F, d)

    # deterministic, statistically convergent sampling
    model = CiModel(F, 2.25, 3.56)
    a = sample_pl(model, 20.0, 100_000, seed=20200925)
    b = sample_pl(model, 20.0, 100_000, seed=20200925)
    assert np.array_equal(a, b)
    assert abs(a.std() - 3.56) < 0.02 * 3.56
    assert abs(a.mean() - mean_pl(model, 20.0)) < 0.05

    # aggregation is permutation invariant
    def raw_table(rows):
        return load_csv(io.StringIO("\n".join([",".join(RAW_COLUMNS), *rows])))

    rng = random.Random(13)
    trials = [
        f"6.0,12.0,{tx},{rx},{t},{rng.uniform(85, 115)!r}"
        for tx in range(5) for rx in range(5) for t in range(15)
    ]
    shuffled = trials[:]
    rng.shuffle(shuffled)
    assert aggregate_trials(raw_table(trials)) == aggregate_trials(raw_table(shuffled))

    # ranking equals a brute-force sort on a full 400-pair scan
    records = [
        BeamScanRecord(12.0, 6.0, tx, rx, rng.uniform(85, 115))
        for tx in range(20) for rx in range(20)
    ]
    ranking = rank_beam_pairs(records)
    oracle = sorted(
        ((r.tx_beam_idx, r.rx_beam_idx, r.path_loss_db) for r in records),
        key=lambda t: (t[2], t[0], t[1]),
    )
    assert list(ranking.pairs) == oracle

    print("ACCEPTANCE criterion 8: PASS (recovery, equivariance, free-space "
          "coincidence, sampling, aggregation, ranking oracle)")


def test_criterion_9_cli_end_to_end(reference_curves):
    # byte-identical repeated runs
    for args in (("report", "--which", "table1"), ("compare", "--distances", "6:40:2")):
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    # criteria 1-2 through the CLI
    ci_row = parse_csv(run_cli("fit", "--model", "ci").stdout)[0]
    assert 2.24 <= float(ci_row["ple"]) <= 2.26
    assert 2.96 <= float(ci_row["mse_db2"]) <= 4.16
    fi_row = parse_csv(run_cli("fit", "--model", "fi").stdout)[0]
    assert 66.5 <= float(fi_row["intercept_db"]) <= 67.5
    assert 2.30 <= float(fi_row["ple"]) <= 2.36

    # criterion 5 through the CLI: the scenario grid ...
    rows = parse_csv(run_cli("compare", "--distances", "6:40:2.42857142857143").stdout)
    assert len(rows) == 15
    for column in ("umi", "uma", "rma", "inoo"):
        for row, (d, expected) in zip(rows, reference_curves[column]):
            assert abs(float(row["distance_m"]) - d) < 1e-6
            assert abs(float(row[column]) - expected) <= 0.05
    # ... and the free-space grid
    rows = parse_csv(run_cli("compare", "--distances", "6:42:3").stdout)
    for row, (d, expected) in zip(rows, reference_curves["fspl"]):
        assert abs(float(row["distance_m"]) - d) < 1e-9
        assert abs(float(row["fspl"]) - expected) <= 0.01

    # json and csv views carry the same numbers
    json_rows = json.loads(run_cli("compare", "--distances", "6:12:3", "--format", "json").stdout)
    csv_rows = parse_csv(run_cli("compare", "--distances", "6:12:3").stdout)
    for c_row, j_row in zip(csv_rows, json_rows):
        for key in c_row:
            assert math.isclose(float(c_row[key]), j_row[key], rel_tol=1e-10)

    print("ACCEPTANCE criterion 9: PASS (deterministic CLI output; fit, compare "
          "and report views reproduce criteria 1, 2 and 5)")
