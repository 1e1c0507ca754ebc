import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from a2a60 import (
    CiModel,
    FiModel,
    fit_ci,
    fit_fi,
    free_space_pl,
    friis_reference_pl,
    mean_pl,
    sample_pl,
)
from a2a60 import pathloss
from a2a60.pathloss import SPEED_OF_LIGHT_M_S

# a dense campaign grid plus log-uniform draws out to 10 km
ARRAY_DISTANCES = np.concatenate([1.0 + np.arange(14_901) * 0.01,
                                  10.0 ** np.random.default_rng(7).uniform(0.0, 4.0, 2_000)])
LAWS = {
    "ci": lambda d: mean_pl(CiModel(60.48, 2.25), d),
    "fi": lambda d: mean_pl(FiModel(67.03, 2.33), d),
    "fspl": lambda d: free_space_pl(60.48, d),
}


def in_array(value):
    """`value` amid valid distances, as one array."""
    return np.array([6.0, value, 40.0])


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
        model = fit_ci(*fig2_fit_points, 60.48).model
        value = mean_pl(model, 6.0)
        assert value == pytest.approx(85.5996542949231, abs=1e-5)
        assert abs(value - 85.60) <= 0.01

    def test_reference_distance_collapses_to_intercept(self):
        for ple in (0.5, 2.0, 3.7):
            model = CiModel(60.48, ple)
            assert mean_pl(model, 1.0) == friis_reference_pl(60.48)

    def test_published_exponent_at_40m(self):
        value = mean_pl(CiModel(60.48, 2.25), 40.0)
        # hand evaluation: 68.08 + 22.5*log10(40) = 104.126
        assert abs(value - 104.13) <= 0.01

    def test_rejects_below_reference_distance(self):
        with pytest.raises(ValueError):
            mean_pl(CiModel(60.48, 2.25), 0.999)

    @given(
        ple=st.floats(0.1, 6.0),
        d=st.floats(1.0, 1e4),
        factor=st.floats(1.001, 10.0),
    )
    def test_strictly_increasing_in_distance(self, ple, d, factor):
        model = CiModel(60.48, ple)
        assert mean_pl(model, d * factor) > mean_pl(model, d)

    @given(f=st.floats(0.01, 120.0), d=st.floats(1.0, 1e5))
    def test_exponent_two_equals_free_space(self, f, d):
        assert mean_pl(CiModel(f, 2.0), d) == free_space_pl(f, d)


class TestFiMeanPl:
    def test_fitted_all_heights_model_at_6m(self, fig2_fit_points):
        model = fit_fi(*fig2_fit_points).model
        value = mean_pl(model, 6.0)
        assert value == pytest.approx(85.1503061774636, abs=1e-6)
        assert abs(value - 85.15) <= 0.01

    def test_intercept_at_reference_distance(self):
        assert mean_pl(FiModel(67.03, 2.33), 1.0) == 67.03

    def test_ninth_rank_published_model_at_6m(self):
        value = mean_pl(FiModel(79.73, 2.03), 6.0)
        assert abs(value - 95.53) <= 0.01

    def test_rejects_below_reference_distance(self):
        with pytest.raises(ValueError):
            mean_pl(FiModel(67.03, 2.33), 0.5)

    @given(
        ple=st.floats(0.1, 6.0),
        d=st.floats(1.0, 1e4),
        factor=st.floats(1.001, 10.0),
    )
    def test_strictly_increasing_in_distance(self, ple, d, factor):
        model = FiModel(70.0, ple)
        assert mean_pl(model, d * factor) > mean_pl(model, d)


class TestMeanPlDispatch:
    def test_routes_by_model_type(self):
        # each law adds its own intercept: the Friis loss at 1 m, or the fitted one
        assert mean_pl(CiModel(60.48, 2.25), 6.0) == (friis_reference_pl(60.48)
                                                      + 10.0 * 2.25 * math.log10(6.0))
        assert mean_pl(FiModel(67.03, 2.33), 6.0) == 67.03 + 10.0 * 2.33 * math.log10(6.0)

    def test_one_evaluator_for_both_laws(self):
        # no per-law alias is left beside mean_pl
        assert not {"ci_mean_pl", "fi_mean_pl"} & set(dir(pathloss))

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
            for distance in (bad, in_array(bad)):
                with pytest.raises(ValueError, match="distance_m must be finite"):
                    mean_pl(model, distance)


class TestArrayDistances:
    @pytest.mark.parametrize("law", LAWS)
    def test_array_matches_scalars_bit_for_bit(self, law):
        values = LAWS[law](ARRAY_DISTANCES)
        assert isinstance(values, np.ndarray)
        scalars = [LAWS[law](d) for d in ARRAY_DISTANCES.tolist()]
        assert values.tobytes() == np.array(scalars).tobytes()
        assert {type(value) for value in scalars} == {float}  # np.float64 would print differently
        assert LAWS[law](np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_distance_in_array_fails_as_the_scalar_does(self, law, bad):
        with pytest.raises(ValueError) as scalar:
            LAWS[law](bad)
        with pytest.raises(ValueError) as array:
            LAWS[law](in_array(bad))
        assert str(array.value) == str(scalar.value)

    def test_overflow_names_the_first_offending_distance(self):
        # 10 * ple * log10(d) passes the largest float from d of about 63 m on
        model = FiModel(0.0, 1e307)
        with pytest.raises(ValueError) as scalar:
            mean_pl(model, 100.0)
        with pytest.raises(ValueError) as array:
            mean_pl(model, np.array([1.0, 20.0, 100.0, 1000.0]))
        assert str(array.value) == str(scalar.value)
        assert str(array.value).endswith("at distance_m=100.0 m is not finite")

    @pytest.mark.parametrize("ple", [1e308, -1e308, 1.7976931348623157e308])
    def test_exponent_past_a_tenth_of_the_largest_float(self, ple):
        # 10 * ple alone overflows, but the loss is the intercept at 1 m, and finite
        # near it; the law is then evaluated as ple * (10 * log10(d)), the same value
        model = FiModel(67.03, ple)
        distances = [1.0, 1.2, 1.0 + 2 ** -52]
        expected = [67.03 + ple * (10.0 * math.log10(d)) for d in distances]
        assert [mean_pl(model, d) for d in distances] == expected
        assert {type(mean_pl(model, d)) for d in distances} == {float}
        assert mean_pl(model, np.array(distances)).tolist() == expected
        assert mean_pl(CiModel(60.48, ple), 1.0) == friis_reference_pl(60.48)
        with pytest.raises(ValueError, match="at distance_m=20.0 m is not finite"):
            mean_pl(model, np.array([1.0, 20.0]))


class TestColumnCheck:
    def test_column_passes_if_its_extremes_do(self):
        pathloss._check_finite("x", np.array([3.0, 1.0, 2.0]), ge=1.0, le=3.0)
        pathloss._check_finite("x", np.array([7, 5]), ge=5)
        pathloss._check_finite("x", np.empty(0), gt=0.0)

    @pytest.mark.parametrize("column, message", [
        ([2.0, 4.0, 3.0], "x must be >= 1 and <= 3, got 4.0"),
        ([2.0, 0.5, 4.0], "x must be >= 1 and <= 3, got 0.5"),  # the minimum is checked first
        ([2.0, math.nan], "x must be finite, got nan"),
        ([-math.inf, 2.0], "x must be finite, got -inf"),
    ])
    def test_column_fails_as_its_extreme_does(self, column, message):
        with pytest.raises(ValueError) as exc:
            pathloss._check_finite("x", np.array(column), ge=1.0, le=3.0)
        assert str(exc.value) == message


class TestHugeIntegers:
    @pytest.mark.parametrize("value, shown", [
        (10 ** 16, "10000000000000000"),  # 17 digits print whole
        (123456789012345678, "1.2345678901234567e+17"),  # 18 on: 17 digits, cut, not rounded
        (10 ** 60, "1.0000000000000000e+60"),
        (-(10 ** 40) - 1, "-1.0000000000000000e+40"),
        (10 ** 400, "1.0000000000000000e+400"),  # past float's range
    ])
    def test_a_huge_integer_prints_in_exponent_form(self, value, shown):
        with pytest.raises(ValueError) as exc:
            pathloss._check_finite("x", value, ge=0, le=10)
        assert str(exc.value) == f"x must be >= 0 and <= 10, got {shown}"


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

    @given(field=st.sampled_from(["freq_ghz", "distance_m"]), bad=NON_FINITE)
    def test_free_space_rejects_non_finite_argument_by_name(self, field, bad):
        values = {"freq_ghz": 60.48, "distance_m": 20.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            free_space_pl(**values)


class TestSamplePl:
    def test_zero_sigma_returns_the_mean(self):
        model = CiModel(60.48, 2.25, 0.0)
        values = sample_pl(model, 10.0, 5, seed=99)
        assert values.shape == (5,)
        assert np.all(values == mean_pl(model, 10.0))

    def test_zero_count(self):
        assert sample_pl(CiModel(60.48, 2.25, 3.56), 10.0, 0, seed=1).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_pl(CiModel(60.48, 2.25, 3.56), 10.0, -1, seed=1)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            sample_pl(CiModel(60.48, 2.25, 3.56), 10.0, 5, seed=-1)

    @pytest.mark.parametrize("name", ["n", "seed"])
    def test_count_and_seed_must_be_whole(self, name):
        # n=2.7 drew 2 values, and seed=1.5 was numpy's TypeError naming no input
        model, args = CiModel(60.48, 2.25, 3.56), {"n": 3, "seed": 7}
        expected = sample_pl(model, 10.0, **args)
        for whole in (np.int64(args[name]), float(args[name])):
            assert np.array_equal(sample_pl(model, 10.0, **{**args, name: whole}), expected)
        for bad in (2.7, 1.5):
            with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got {bad}$"):
                sample_pl(model, 10.0, **{**args, name: bad})

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
        assert abs(values.mean() - mean_pl(model, 20.0)) < 0.05
        assert abs(values.std() - 3.56) < 0.02 * 3.56

    def test_propagates_distance_errors(self):
        with pytest.raises(ValueError):
            sample_pl(CiModel(60.48, 2.25, 3.56), 0.2, 10, seed=3)
