import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from a2a60 import (
    CiModel,
    FiModel,
    ci_mean_pl,
    fi_mean_pl,
    fit_ci,
    fit_fi,
    free_space_pl,
    friis_reference_pl,
    mean_pl,
    sample_pl,
)
from a2a60.pathloss import SPEED_OF_LIGHT_M_S


class TestFriisReference:
    def test_campaign_frequency(self):
        value = friis_reference_pl(60.48)
        assert abs(value - 68.08) <= 0.01
        assert value == pytest.approx(68.08001887174638, abs=1e-12)

    def test_unit_log_argument_gives_zero(self):
        # 4*pi*f/c == 1 when f = c / (4*pi)
        f_ghz = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * 1e9)
        assert abs(friis_reference_pl(f_ghz)) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, -60.48])
    def test_rejects_nonpositive_frequency(self, bad):
        with pytest.raises(ValueError):
            friis_reference_pl(bad)


class TestFreeSpace:
    def test_reference_distance_equals_intercept(self):
        assert free_space_pl(60.48, 1.0) == friis_reference_pl(60.48)

    def test_bundled_curve_at_6m(self):
        assert free_space_pl(60.48, 6.0) == pytest.approx(83.6430426625529, abs=0.005)

    def test_bundled_curve_at_42m(self):
        # the farthest bundled free-space sample sits at 42 m
        assert free_space_pl(60.48, 42.0) == pytest.approx(100.545003462838, abs=0.005)

    def test_at_40m(self):
        # hand evaluation: friis + 20 log10(40)
        expected = friis_reference_pl(60.48) + 20.0 * math.log10(40.0)
        assert free_space_pl(60.48, 40.0) == expected
        assert expected == pytest.approx(100.12121869830563, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -6.0])
    def test_rejects_nonpositive_distance(self, bad):
        with pytest.raises(ValueError):
            free_space_pl(60.48, bad)

    @given(
        f=st.floats(0.01, 120.0),
        d=st.floats(0.001, 1e5),
    )
    def test_composes_exactly_from_friis(self, f, d):
        assert free_space_pl(f, d) == friis_reference_pl(f) + 20.0 * math.log10(d)


class TestCiMeanPl:
    def test_fitted_all_heights_model_at_6m(self, fig2_fit_points):
        model = fit_ci(fig2_fit_points, 60.48).model
        value = ci_mean_pl(model, 6.0)
        assert value == pytest.approx(85.5996542949231, abs=1e-5)
        assert abs(value - 85.60) <= 0.01

    def test_reference_distance_collapses_to_intercept(self):
        for ple in (0.5, 2.0, 3.7):
            model = CiModel(60.48, ple)
            assert ci_mean_pl(model, 1.0) == friis_reference_pl(60.48)

    def test_published_exponent_at_40m(self):
        value = ci_mean_pl(CiModel(60.48, 2.25), 40.0)
        # hand evaluation: 68.08 + 22.5*log10(40) = 104.126
        assert abs(value - 104.13) <= 0.01

    def test_rejects_below_reference_distance(self):
        with pytest.raises(ValueError):
            ci_mean_pl(CiModel(60.48, 2.25), 0.999)

    @given(
        ple=st.floats(0.1, 6.0),
        d=st.floats(1.0, 1e4),
        factor=st.floats(1.001, 10.0),
    )
    def test_strictly_increasing_in_distance(self, ple, d, factor):
        model = CiModel(60.48, ple)
        assert ci_mean_pl(model, d * factor) > ci_mean_pl(model, d)

    @given(f=st.floats(0.01, 120.0), d=st.floats(1.0, 1e5))
    def test_exponent_two_equals_free_space(self, f, d):
        assert ci_mean_pl(CiModel(f, 2.0), d) == free_space_pl(f, d)


class TestFiMeanPl:
    def test_fitted_all_heights_model_at_6m(self, fig2_fit_points):
        model = fit_fi(fig2_fit_points).model
        value = fi_mean_pl(model, 6.0)
        assert value == pytest.approx(85.1503061774636, abs=1e-6)
        assert abs(value - 85.15) <= 0.01

    def test_intercept_at_reference_distance(self):
        assert fi_mean_pl(FiModel(67.03, 2.33), 1.0) == 67.03

    def test_ninth_rank_published_model_at_6m(self):
        value = fi_mean_pl(FiModel(79.73, 2.03), 6.0)
        assert abs(value - 95.53) <= 0.01

    def test_rejects_below_reference_distance(self):
        with pytest.raises(ValueError):
            fi_mean_pl(FiModel(67.03, 2.33), 0.5)

    @given(
        ple=st.floats(0.1, 6.0),
        d=st.floats(1.0, 1e4),
        factor=st.floats(1.001, 10.0),
    )
    def test_strictly_increasing_in_distance(self, ple, d, factor):
        model = FiModel(70.0, ple)
        assert fi_mean_pl(model, d * factor) > fi_mean_pl(model, d)


class TestMeanPlDispatch:
    def test_routes_by_model_type(self):
        assert mean_pl(CiModel(60.48, 2.25), 6.0) == ci_mean_pl(CiModel(60.48, 2.25), 6.0)
        assert mean_pl(FiModel(67.03, 2.33), 6.0) == fi_mean_pl(FiModel(67.03, 2.33), 6.0)

    def test_one_evaluator_for_both_laws(self):
        assert ci_mean_pl is mean_pl
        assert fi_mean_pl is mean_pl

    @given(f=st.floats(0.01, 120.0), ple=st.floats(0.1, 6.0), d=st.floats(1.0, 1e4))
    def test_ci_law_is_fi_law_with_friis_intercept(self, f, ple, d):
        ci = CiModel(f, ple)
        assert ci.intercept_db == friis_reference_pl(f)
        assert mean_pl(ci, d) == mean_pl(FiModel(ci.intercept_db, ple), d)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            mean_pl(object(), 6.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_distance(self, bad):
        for model in (CiModel(60.48, 2.25), FiModel(67.03, 2.33)):
            with pytest.raises(ValueError, match="distance_m must be finite"):
                mean_pl(model, bad)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestModelValidation:
    def test_ci_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            CiModel(0.0, 2.25)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            CiModel(60.48, 2.25, -0.1)
        with pytest.raises(ValueError):
            FiModel(67.0, 2.3, -3.0)

    @given(field=st.sampled_from(["freq_ghz", "ple", "sigma_db"]), bad=NON_FINITE)
    def test_ci_rejects_non_finite_field_by_name(self, field, bad):
        values = {"freq_ghz": 60.48, "ple": 2.25, "sigma_db": 3.56, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CiModel(**values)

    @given(field=st.sampled_from(["intercept_db", "ple", "sigma_db"]), bad=NON_FINITE)
    def test_fi_rejects_non_finite_field_by_name(self, field, bad):
        values = {"intercept_db": 67.03, "ple": 2.33, "sigma_db": 3.52, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FiModel(**values)

    @given(f=st.floats(), ple=st.floats(), sigma=st.floats())
    def test_ci_accepts_exactly_the_finite_domain(self, f, ple, sigma):
        if all(map(math.isfinite, (f, ple, sigma))) and f > 0 and sigma >= 0:
            assert CiModel(f, ple, sigma).ple == ple
        else:
            with pytest.raises(ValueError):
                CiModel(f, ple, sigma)

    @given(bad=NON_FINITE)
    def test_friis_reference_rejects_non_finite_frequency(self, bad):
        with pytest.raises(ValueError, match="freq_ghz must be finite"):
            friis_reference_pl(bad)


class TestSamplePl:
    def test_zero_sigma_returns_the_mean(self):
        model = CiModel(60.48, 2.25, 0.0)
        values = sample_pl(model, 10.0, 5, seed=99)
        assert values.shape == (5,)
        assert np.all(values == ci_mean_pl(model, 10.0))

    def test_zero_count(self):
        assert sample_pl(CiModel(60.48, 2.25, 3.56), 10.0, 0, seed=1).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_pl(CiModel(60.48, 2.25, 3.56), 10.0, -1, seed=1)

    def test_bit_identical_for_same_seed(self):
        model = FiModel(67.03, 2.33, 3.52)
        a = sample_pl(model, 20.0, 1000, seed=20200925)
        b = sample_pl(model, 20.0, 1000, seed=20200925)
        assert np.array_equal(a, b)
        c = sample_pl(model, 20.0, 1000, seed=20200926)
        assert not np.array_equal(a, c)

    def test_statistics_converge_to_model(self):
        model = CiModel(60.48, 2.25, 3.56)
        values = sample_pl(model, 20.0, 100_000, seed=20200925)
        assert abs(values.mean() - ci_mean_pl(model, 20.0)) < 0.05
        assert abs(values.std() - 3.56) < 0.02 * 3.56

    def test_propagates_distance_errors(self):
        with pytest.raises(ValueError):
            sample_pl(CiModel(60.48, 2.25, 3.56), 0.2, 10, seed=3)
