import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from a2a60 import (
    ScenarioParams,
    fit_ci,
    free_space_pl,
    mean_pl,
    oxygen_loss,
    pl_3gpp_los,
    scenario_defaults,
)
from a2a60.tr38901 import SCENARIOS

F = 60.48
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# hand-evaluated pre-breakpoint values at 6 m with no oxygen term
BARE_AT_6M = {
    "umi": 84.37341190791952,
    "uma": 80.75156315830317,
    "rma": 83.3163693957303,
    "inoo": 81.49425228150004,
}


def bare(scenario):
    return scenario_defaults(scenario, oxygen_alpha_db_per_km=0.0)


def in_array(value):
    """`value` amid distances every scenario accepts, as one array."""
    return np.array([6.0, value, 40.0])


def scalars(law, distances):
    """`law` at each distance as a float: np.float64 would print differently."""
    values = [law(d) for d in distances.tolist()]
    assert {type(value) for value in values} == {float}
    return np.array(values)


class TestOxygenLoss:
    def test_zero_distance(self):
        assert oxygen_loss(0.0, 15.0) == 0.0

    def test_one_kilometer(self):
        assert oxygen_loss(1000.0, 15.0) == pytest.approx(15.0, abs=1e-12)

    def test_linearity(self):
        d1, d2, alpha = 123.4, 456.7, 15.0
        assert oxygen_loss(d1 + d2, alpha) == pytest.approx(
            oxygen_loss(d1, alpha) + oxygen_loss(d2, alpha), abs=1e-12
        )

    def test_rejects_negative_inputs(self):
        for distance in (-1.0, in_array(-1.0)):
            with pytest.raises(ValueError):
                oxygen_loss(distance, 15.0)
        with pytest.raises(ValueError):
            oxygen_loss(10.0, -0.5)

    def test_default_coefficient_recovered_from_curves(self):
        # derivation of the 15 dB/km default: default-params UMi at 6 m sits
        # 0.09 dB above the bare formula, and 15 * 6 / 1000 = 0.09
        gap = pl_3gpp_los(scenario_defaults("umi"), F, 6.0) - pl_3gpp_los(bare("umi"), F, 6.0)
        assert gap == pytest.approx(0.09, abs=1e-12)


class TestBareFormulas:
    def test_umi_hand_formula(self):
        expected = 32.4 + 21.0 * math.log10(6.0) + 20.0 * math.log10(F)
        assert pl_3gpp_los(bare("umi"), F, 6.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(BARE_AT_6M["umi"], abs=1e-9)

    def test_uma_hand_formula(self):
        expected = 28.0 + 22.0 * math.log10(6.0) + 20.0 * math.log10(F)
        assert pl_3gpp_los(bare("uma"), F, 6.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(BARE_AT_6M["uma"], abs=1e-9)

    def test_rma_hand_formula(self):
        h = 5.0
        expected = (
            20.0 * math.log10(40.0 * math.pi * 6.0 * F / 3.0)
            + min(0.03 * h**1.72, 10.0) * math.log10(6.0)
            - min(0.044 * h**1.72, 14.77)
            + 0.002 * math.log10(h) * 6.0
        )
        assert pl_3gpp_los(bare("rma"), F, 6.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(BARE_AT_6M["rma"], abs=1e-9)

    def test_inoo_hand_formula(self):
        expected = 32.4 + 17.3 * math.log10(6.0) + 20.0 * math.log10(F)
        assert pl_3gpp_los(bare("inoo"), F, 6.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(BARE_AT_6M["inoo"], abs=1e-9)


class TestBundledCurves:
    def test_default_params_reproduce_reference_curves(self, reference_curves):
        for scenario in ("umi", "uma", "rma", "inoo"):
            params = scenario_defaults(scenario)
            for d, expected in reference_curves[scenario]:
                assert pl_3gpp_los(params, F, d) == pytest.approx(expected, abs=0.01), (
                    scenario, d,
                )

    def test_free_space_matches_reference_samples(self, reference_curves):
        for d, expected in reference_curves["fspl"]:
            assert free_space_pl(F, d) == pytest.approx(expected, abs=1e-4)

    def test_curve_sample_counts(self, reference_curves):
        assert {k: len(v) for k, v in reference_curves.items()} == {
            "umi": 15, "uma": 15, "rma": 15, "inoo": 15, "fspl": 13,
        }


class TestCurveShape:
    def test_strictly_increasing_on_campaign_range(self):
        grid = [6 + 0.5 * i for i in range(69)]  # 6 .. 40
        for scenario in ("umi", "uma", "rma", "inoo"):
            params = scenario_defaults(scenario)
            values = [pl_3gpp_los(params, F, d) for d in grid]
            assert all(b > a for a, b in zip(values, values[1:])), scenario

    def test_ordering_at_6m(self):
        at6 = {s: pl_3gpp_los(scenario_defaults(s), F, 6.0) for s in ("umi", "uma", "rma", "inoo")}
        assert at6["uma"] < at6["inoo"] < at6["rma"] < at6["umi"]

    def test_uma_inoo_cross_before_9m(self):
        # the 22 dB/decade UMa slope overtakes the 17.3 dB/decade InOo slope
        # between the 8.43 m and 10.86 m reference samples
        uma, inoo = scenario_defaults("uma"), scenario_defaults("inoo")
        assert pl_3gpp_los(uma, F, 8.42857142857143) < pl_3gpp_los(inoo, F, 8.42857142857143)
        assert pl_3gpp_los(uma, F, 10.8571428571429) > pl_3gpp_los(inoo, F, 10.8571428571429)

    def test_umi_is_largest_beyond_6m(self):
        others = [scenario_defaults(s) for s in ("uma", "rma", "inoo")]
        umi = scenario_defaults("umi")
        for d in range(6, 41):
            top = pl_3gpp_los(umi, F, float(d))
            assert all(pl_3gpp_los(p, F, float(d)) < top for p in others)

    def test_aerial_fit_exceeds_every_scenario_beyond_9m(self, fig2_fit_points):
        model = fit_ci(*fig2_fit_points, 60.48).model
        for scenario in ("umi", "uma", "rma", "inoo"):
            params = scenario_defaults(scenario)
            for d in range(9, 41):
                assert mean_pl(model, float(d)) > pl_3gpp_los(params, F, float(d))


class TestBreakpointBranches:
    def test_umi_post_breakpoint(self):
        # at 0.5 GHz the UMi breakpoint is 4*9*0.5*f/c = 30 m exactly
        params = scenario_defaults("umi", oxygen_alpha_db_per_km=0.0)
        pre = 32.4 + 21.0 * math.log10(20.0) + 20.0 * math.log10(0.5)
        assert pl_3gpp_los(params, 0.5, 20.0) == pytest.approx(pre, abs=1e-12)
        post = (32.4 + 40.0 * math.log10(40.0) + 20.0 * math.log10(0.5)
                - 9.5 * math.log10(30.0**2 + 8.5**2))
        assert pl_3gpp_los(params, 0.5, 40.0) == pytest.approx(post, abs=1e-12)

    def test_uma_post_breakpoint(self):
        # 0.5 GHz UMa breakpoint: 4*24*0.5*f/c = 80 m
        params = scenario_defaults("uma", oxygen_alpha_db_per_km=0.0)
        post = (28.0 + 40.0 * math.log10(100.0) + 20.0 * math.log10(0.5)
                - 9.0 * math.log10(80.0**2 + 23.5**2))
        assert pl_3gpp_los(params, 0.5, 100.0) == pytest.approx(post, abs=1e-12)

    def test_rma_post_breakpoint_is_continuous(self):
        params = scenario_defaults("rma", oxygen_alpha_db_per_km=0.0)
        d_bp = 2.0 * math.pi * 35.0 * 1.5 * 0.5e9 / 3.0e8
        just_before = pl_3gpp_los(params, 0.5, d_bp * 0.999999)
        just_after = pl_3gpp_los(params, 0.5, d_bp * 1.000001)
        assert just_after == pytest.approx(just_before, abs=1e-3)
        far = pl_3gpp_los(params, 0.5, 2.0 * d_bp)
        at_bp = pl_3gpp_los(params, 0.5, d_bp)
        assert far == pytest.approx(at_bp + 40.0 * math.log10(2.0), abs=1e-9)

    @pytest.mark.parametrize("form", [float, in_array], ids=["scalar", "array"])
    def test_far_law_runs_only_past_the_breakpoint(self, form):
        # the far laws overflow at these heights (the square of the UMi
        # breakpoint, the RMa breakpoint itself), but no distance reaches them;
        # before the breakpoint, heights leave both laws unchanged
        umi = ScenarioParams("umi", 1e160, 1.5, oxygen_alpha_db_per_km=0.0)
        rma = ScenarioParams("rma", 1e200, 1e200, oxygen_alpha_db_per_km=0.0)
        d = form(20.0)
        assert np.array_equal(pl_3gpp_los(umi, F, d), pl_3gpp_los(bare("umi"), F, d))
        assert np.array_equal(pl_3gpp_los(rma, F, d), pl_3gpp_los(bare("rma"), F, d))

    def test_campaign_range_is_pre_breakpoint(self):
        # defaults keep every campaign distance on the first slope: the
        # smallest breakpoint (UMi at 60.48 GHz) is ~3.6 km
        params = scenario_defaults("umi", oxygen_alpha_db_per_km=0.0)
        for d in (6.0, 40.0):
            expected = 32.4 + 21.0 * math.log10(d) + 20.0 * math.log10(F)
            assert pl_3gpp_los(params, F, d) == pytest.approx(expected, abs=1e-12)


class TestValidation:
    def test_distance_floor(self):
        with pytest.raises(ValueError, match="1 m"):
            pl_3gpp_los(scenario_defaults("umi"), F, 0.5)

    @pytest.mark.parametrize("scenario,limit", [("umi", 5000), ("uma", 5000), ("rma", 10000), ("inoo", 150)])
    def test_distance_ceiling_names_bound(self, scenario, limit):
        for distance in (limit + 1.0, in_array(limit + 1.0)):
            with pytest.raises(ValueError, match=str(limit)):
                pl_3gpp_los(scenario_defaults(scenario), F, distance)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario_defaults("suburban")
        with pytest.raises(ValueError):
            ScenarioParams("umax", 10.0, 1.5)
        for scenario in (5, None, ["umi"]):  # not text: the same ValueError, not an AttributeError
            message = rf"^unknown scenario {re.escape(repr(scenario))}, expected one of \("
            with pytest.raises(ValueError, match=message):
                scenario_defaults(scenario)
            with pytest.raises(ValueError, match=message):
                ScenarioParams(scenario, 10.0, 1.5)

    def test_case_insensitive_defaults(self):
        assert scenario_defaults("UMi").scenario == "umi"

    def test_default_geometries(self):
        assert (scenario_defaults("umi").bs_height_m, scenario_defaults("umi").ut_height_m) == (10.0, 1.5)
        assert (scenario_defaults("uma").bs_height_m, scenario_defaults("uma").ut_height_m) == (25.0, 1.5)
        assert (scenario_defaults("rma").bs_height_m, scenario_defaults("rma").ut_height_m) == (35.0, 1.5)
        assert (scenario_defaults("inoo").bs_height_m, scenario_defaults("inoo").ut_height_m) == (3.0, 1.0)
        assert scenario_defaults("rma").avg_building_height_m == 5.0

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            pl_3gpp_los(scenario_defaults("umi"), 0.0, 6.0)

    def test_rejects_heights_at_environment_height(self):
        params = ScenarioParams("umi", 1.0, 1.5, oxygen_alpha_db_per_km=0.0)
        with pytest.raises(ValueError, match="environment height"):
            pl_3gpp_los(params, F, 6.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ScenarioParams("umi", -10.0, 1.5)
        with pytest.raises(ValueError):
            ScenarioParams("umi", 10.0, 1.5, oxygen_alpha_db_per_km=-1.0)

    @given(field=st.sampled_from(["bs_height_m", "ut_height_m", "avg_building_height_m",
                                  "oxygen_alpha_db_per_km"]), bad=NON_FINITE)
    def test_params_reject_non_finite_field_by_name(self, field, bad):
        values = {"bs_height_m": 10.0, "ut_height_m": 1.5, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioParams("umi", **values)

    @given(bad=NON_FINITE)
    def test_defaults_reject_non_finite_oxygen(self, bad):
        with pytest.raises(ValueError, match="oxygen_alpha_db_per_km must be finite"):
            scenario_defaults("umi", bad)

    @given(field=st.sampled_from(["freq_ghz", "distance_m"]), bad=NON_FINITE)
    def test_pl_rejects_non_finite_argument_by_name(self, field, bad):
        values = {"freq_ghz": F, "distance_m": 20.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            pl_3gpp_los(scenario_defaults("umi"), **values)

    @given(field=st.sampled_from(["distance_m", "alpha_db_per_km"]), bad=NON_FINITE)
    def test_oxygen_rejects_non_finite_argument_by_name(self, field, bad):
        values = {"distance_m": 20.0, "alpha_db_per_km": 15.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            oxygen_loss(**values)

    @pytest.mark.parametrize("freq_ghz", [0.4, 100.5, 300.0])
    def test_rejects_carrier_outside_standard_range(self, freq_ghz):
        with pytest.raises(ValueError, match=r"freq_ghz must be >= 0\.5 GHz and <= 100 GHz"):
            pl_3gpp_los(scenario_defaults("umi"), freq_ghz, 20.0)

    @pytest.mark.parametrize("distance", [5000.0, np.array([1.0, 5000.0, 5000.0])])
    def test_overflowing_result_names_scenario_and_distance(self, distance):
        # a finite but absurd oxygen coefficient overflows the oxygen term; the
        # array path must raise as the float path does, with no numpy warning
        with pytest.raises(ValueError, match=r"^LOS path loss of the umi scenario "
                                             r"at distance_m=5000\.0 m is not finite$"):
            pl_3gpp_los(scenario_defaults("umi", 1e308), F, distance)
        assert math.isfinite(pl_3gpp_los(scenario_defaults("umi", 1e308), F, 1.0))

    @pytest.mark.parametrize("distance", [100.0, np.array([6.0, 100.0, 5000.0])])
    def test_rma_building_height_that_overflows_is_named(self, distance):
        # h**1.72 overflows a float near 1.65e179 m; the error names the field, not errno 34
        params = ScenarioParams("rma", 35.0, 1.5, avg_building_height_m=1e200)
        with pytest.raises(ValueError, match=r"^avg_building_height_m must be <= 1e\+179 m "
                                             r"\(where h\*\*1\.72 overflows\), got 1e\+200 m$"):
            pl_3gpp_los(params, F, distance)
        params = ScenarioParams("rma", 35.0, 1.5, avg_building_height_m=1e179)
        assert np.all(np.isfinite(pl_3gpp_los(params, F, distance)))


class TestArrayDistances:
    # A grid from 1 m to each scenario's limit. Its breakpoints: UMi at 30 m
    # (0.5 GHz) and 120 m (2 GHz), UMa at 80 m and 320 m, RMa at 550 m and
    # 2.2 km; at 60.48 GHz only UMi (3.6 km) and UMa (9.7 km, past its range)
    @pytest.mark.parametrize("freq_ghz", [0.5, 2.0, F])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_array_matches_scalars_bit_for_bit(self, scenario, freq_ghz):
        params = scenario_defaults(scenario)
        limit = {"umi": 5000.0, "uma": 5000.0, "rma": 10_000.0, "inoo": 150.0}[scenario]
        d = np.concatenate([1.0 + np.arange(20_000) * ((limit - 1.0) / 19_999),
                            10.0 ** np.random.default_rng(5).uniform(0.0, math.log10(limit), 1_000)])

        def law(x):
            return pl_3gpp_los(params, freq_ghz, x)

        values = law(d)
        assert isinstance(values, np.ndarray)
        assert values.tobytes() == scalars(law, d).tobytes()
        assert law(np.empty(0)).shape == (0,)

    def test_breakpoints_fall_inside_the_grids(self):
        # 40 dB per decade is the slope past the breakpoint only, so each grid
        # above holds distances on both sides of it
        for scenario, freq_ghz, past in (("umi", 0.5, 40.0), ("uma", 2.0, 400.0),
                                         ("rma", 0.5, 1000.0), ("rma", 2.0, 9000.0)):
            params = bare(scenario)
            slope = pl_3gpp_los(params, freq_ghz, past * 1.1) - pl_3gpp_los(params, freq_ghz, past)
            assert slope == pytest.approx(40.0 * math.log10(1.1), abs=0.2), (scenario, freq_ghz)

    def test_oxygen_array_matches_scalars(self):
        d = np.arange(10_001) * 1.0
        assert oxygen_loss(d, 15.0).tobytes() == scalars(lambda x: oxygen_loss(x, 15.0), d).tobytes()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5, 1e5])
    def test_bad_distance_in_array_fails_as_the_scalar_does(self, scenario, bad):
        params = scenario_defaults(scenario)
        with pytest.raises(ValueError) as scalar:
            pl_3gpp_los(params, F, bad)
        with pytest.raises(ValueError) as array:
            pl_3gpp_los(params, F, in_array(bad))
        assert str(array.value) == str(scalar.value)
