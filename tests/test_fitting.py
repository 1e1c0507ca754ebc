import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from a2a60 import (
    DegenerateFitError,
    fit_ci,
    fit_fi,
    friis_reference_pl,
    load_measurement_points,
    load_rank_points,
    mean_pl,
    to_fit_points,
)

DISTANCES = (2.0, 4.0, 8.0, 16.0, 32.0)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def ci_points(freq_ghz, ple, distances=DISTANCES):
    f = friis_reference_pl(freq_ghz)
    return distances, [f + 10.0 * ple * math.log10(d) for d in distances]


def fi_points(intercept, ple, distances=DISTANCES):
    return distances, [intercept + 10.0 * ple * math.log10(d) for d in distances]


class TestExactRecovery:
    def test_ci_recovers_generating_exponent(self):
        report = fit_ci(*ci_points(60.48, 2.37), 60.48)
        assert report.model.ple == pytest.approx(2.37, abs=1e-9)
        assert report.sigma_db < 1e-9
        assert report.point_count == len(DISTANCES)

    def test_ci_on_rounded_free_space_data(self):
        # intercept 68.08 is the published rounding, 1.9e-5 dB off the exact
        # reference, so recovery is only that accurate
        distances = (2, 4, 8, 16)
        report = fit_ci(distances, [68.08 + 20.0 * math.log10(d) for d in distances], 60.48)
        assert report.model.ple == pytest.approx(2.0, abs=1e-5)
        assert report.sigma_db < 1e-4

    def test_fi_recovers_intercept_and_slope(self):
        report = fit_fi(*fi_points(70.0, 2.1))
        assert report.model.intercept_db == pytest.approx(70.0, abs=1e-9)
        assert report.model.ple == pytest.approx(2.1, abs=1e-9)
        assert report.sigma_db < 1e-9


class TestBundledAllHeights:
    def test_ci_fit(self, fig2_fit_points):
        report = fit_ci(*fig2_fit_points, 60.48)
        assert report.model.ple == pytest.approx(2.25, abs=0.01)
        assert report.model.ple == pytest.approx(2.2514435250769367, abs=1e-12)
        assert report.sigma_db == pytest.approx(1.8865895474051264, abs=1e-12)
        assert report.mse_db2 == pytest.approx(3.5592201203782796, abs=1e-12)
        # the published dispersion (3.56) matches the mean-square residual
        assert report.mse_db2 == pytest.approx(3.56, abs=0.01)

    def test_fi_fit(self, fig2_fit_points):
        report = fit_fi(*fig2_fit_points)
        assert report.model.intercept_db == pytest.approx(67.03, abs=0.5)
        assert report.model.ple == pytest.approx(2.33, abs=0.03)
        assert report.model.intercept_db == pytest.approx(67.02623850090802, abs=1e-12)
        assert report.model.ple == pytest.approx(2.3291188785753443, abs=1e-12)
        assert report.mse_db2 == pytest.approx(3.52, abs=0.01)

    def test_ci_fit_reproduces_plotted_curve(self, fig2_fit_points, fit_curves):
        model = fit_ci(*fig2_fit_points, 60.48).model
        for d, expected in fit_curves["ci_all"]:
            assert mean_pl(model, d) == pytest.approx(expected, abs=1e-5)

    def test_fi_fit_reproduces_plotted_curve(self, fig2_fit_points, fit_curves):
        model = fit_fi(*fig2_fit_points).model
        for d, expected in fit_curves["fi_all"]:
            assert mean_pl(model, d) == pytest.approx(expected, abs=1e-9)


class TestBundledPerHeight:
    EXPECTED_PLE = {6.0: 2.2760394365452314, 12.0: 2.252716240138404, 15.0: 2.2287018721802054}
    # the source series for h=6 and h=15 are label-swapped between the
    # plotted markers and the plotted per-height fit lines, so the fits
    # pair up with the mirrored curve
    CURVE_FOR_HEIGHT = {6.0: "ci_h15", 12.0: "ci_h12", 15.0: "ci_h6"}

    @pytest.mark.parametrize("height", [6.0, 12.0, 15.0])
    def test_ple_regression(self, fig2_points, height):
        report = fit_ci(*to_fit_points(fig2_points, height=height), 60.48)
        assert report.model.ple == pytest.approx(self.EXPECTED_PLE[height], abs=1e-12)

    def test_h12_matches_published(self, fig2_points):
        report = fit_ci(*to_fit_points(fig2_points, height=12.0), 60.48)
        assert report.model.ple == pytest.approx(2.25, abs=0.01)

    @pytest.mark.parametrize("height", [6.0, 12.0, 15.0])
    def test_fits_reproduce_mirrored_curves(self, fig2_points, height_curves, height):
        model = fit_ci(*to_fit_points(fig2_points, height=height), 60.48).model
        for d, expected in height_curves[self.CURVE_FOR_HEIGHT[height]]:
            assert mean_pl(model, d) == pytest.approx(expected, abs=1e-5)


class TestDegenerateInputs:
    def test_empty_set(self):
        with pytest.raises(DegenerateFitError):
            fit_ci([], [], 60.48)
        with pytest.raises(DegenerateFitError):
            fit_fi([], [])

    def test_ci_all_points_at_reference_distance(self):
        with pytest.raises(DegenerateFitError):
            fit_ci([1.0, 1.0], [68.0, 69.0], 60.48)

    def test_fi_needs_two_distinct_distances(self):
        with pytest.raises(DegenerateFitError):
            fit_fi([6.0], [85.0])
        with pytest.raises(DegenerateFitError):
            fit_fi([6.0, 6.0], [85.0, 88.0])

    def test_fi_fit_leaves_numpy_ma_unimported(self):
        # on numpy >= 2.3 np.unique imports numpy.ma (19 ms, 2.4 MiB) in every
        # FI-fitting process; a fresh interpreter shows whether anything still does
        code = ("import sys, contextlib, io\n"
                "from a2a60 import fit_fi\n"
                "from a2a60.cli import main\n"
                "fit_fi([6.0, 12.0, 40.0], [85.0, 90.0, 101.0])\n"
                "print('numpy.ma' in sys.modules)\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['report', '--which', 'table3']) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\nFalse\n"

    def test_fit_point_validation(self):
        # each column is checked as a whole, wherever its bad value sits
        for fit in (lambda d, pl: fit_ci(d, pl, 60.48), fit_fi):
            with pytest.raises(ValueError, match="distance_m must be >= 1 m, got 0.5 m"):
                fit([6.0, 0.5, 12.0], [85.0, 80.0, 90.0])
            with pytest.raises(ValueError, match="path_loss_db must be finite"):
                fit([6.0, 12.0, 18.0], [85.0, 90.0, float("nan")])
            with pytest.raises(ValueError, match="two columns of one length"):
                fit([6.0, 12.0], [85.0])

    def test_ci_carrier_whose_friis_loss_overflows_is_one_error(self):
        # the CLI bounds the carrier to 0.5-100 GHz, so only a library call reaches this check
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as raised:
                fit_ci(*ci_points(60.48, 2.25), 1e308)
        assert "freq_ghz" in str(raised.value)
        assert caught == []

    @pytest.mark.parametrize("fit", [lambda d, pl: fit_ci(d, pl, 60.48), fit_fi],
                             ids=["ci", "fi"])
    def test_finite_losses_whose_fit_overflows_are_one_error(self, fit):
        # each loss is finite, but their squares and sums are not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as raised:
                fit([10.0, 20.0, 30.0], [1.7e308] * 3)
        assert str(raised.value) == "path_loss_db values are too large to fit without overflow"
        assert caught == []

    @given(field=st.sampled_from(["distance_m", "path_loss_db"]), bad=NON_FINITE,
           at=st.integers(0, 2), kind=st.sampled_from(["ci", "fi"]))
    def test_fit_point_rejects_non_finite_field_by_name(self, field, bad, at, kind):
        columns = {"distance_m": [6.0, 12.0, 18.0], "path_loss_db": [85.0, 90.0, 93.0]}
        columns[field][at] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            if kind == "ci":
                fit_ci(*columns.values(), 60.48)
            else:
                fit_fi(*columns.values())


class TestFitProperties:
    @given(shift=st.floats(-50.0, 50.0))
    def test_fi_shift_equivariance(self, shift):
        base = load_measurement_points()
        distance, path_loss = to_fit_points(base)
        ref, moved = fit_fi(distance, path_loss), fit_fi(distance, path_loss + shift)
        assert moved.model.intercept_db == pytest.approx(ref.model.intercept_db + shift, abs=1e-9)
        assert moved.model.ple == pytest.approx(ref.model.ple, abs=1e-11)
        assert moved.sigma_db == pytest.approx(ref.sigma_db, abs=1e-9)

    def test_fi_least_squares_optimality(self, fig2_fit_points):
        report = fit_fi(*fig2_fit_points)
        distance, pl = fig2_fit_points
        x = np.array([10.0 * math.log10(d) for d in distance])
        best = float(np.sum((pl - report.model.intercept_db - report.model.ple * x) ** 2))
        rng = np.random.default_rng(7)
        for _ in range(200):
            db, dn = rng.uniform(-1.0, 1.0, size=2) * rng.choice([1e-3, 1e-1, 1.0])
            perturbed = float(np.sum(
                (pl - (report.model.intercept_db + db) - (report.model.ple + dn) * x) ** 2
            ))
            assert perturbed >= best - 1e-9

    def test_ci_residual_orthogonality(self, fig2_fit_points):
        report = fit_ci(*fig2_fit_points, 60.48)
        x = np.array([10.0 * math.log10(d) for d in fig2_fit_points[0]])
        assert float(np.dot(x, report.residuals_db)) == pytest.approx(0.0, abs=1e-6)

    def test_report_sigma_is_rms_of_residuals(self, fig2_fit_points):
        for report in (fit_ci(*fig2_fit_points, 60.48), fit_fi(*fig2_fit_points)):
            rms = math.sqrt(sum(r * r for r in report.residuals_db) / len(report.residuals_db))
            assert report.sigma_db == pytest.approx(rms, abs=1e-12)
            assert report.mse_db2 == pytest.approx(rms * rms, abs=1e-12)


class TestFitGrouped:
    """Fits of the selections that group the points by height or by rank."""

    def test_per_height_groups(self, fig2_points):
        reports = {h: fit_ci(*to_fit_points(fig2_points, height=h), 60.48)
                   for h in (6.0, 12.0, 15.0)}
        assert set(reports) == {6.0, 12.0, 15.0}
        for report in reports.values():
            assert 2.2 <= report.model.ple <= 2.3

    def test_rank_groups_have_increasing_intercepts(self, fig2_fit_points):
        reports = {1: fit_fi(*fig2_fit_points)}
        for rank in (2, 3, 9):
            reports[rank] = fit_fi(*to_fit_points(load_rank_points(rank), rank=rank))
        intercepts = [reports[r].model.intercept_db for r in (1, 2, 3, 9)]
        assert intercepts == sorted(intercepts)
        assert intercepts[0] < 69.7
        assert intercepts[-1] == pytest.approx(79.73, abs=0.1)
