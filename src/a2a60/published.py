"""Published reference values for the 60 GHz UAV-to-UAV measurement campaign.

Everything the toolkit regenerates from the bundled data is compared against
the numbers in this module. They are kept in one place so that reports can
show computed-vs-published deltas; computed results are never silently
replaced by them.

The campaign sounded a 2.16 GHz wide channel at up to 45 dBm effective
radiated power, at heights of 6, 12 and 15 m and distances of 6, 9, 12, 15,
18, 21, 24, 27, 28, 30, 32, 33, 36 and 40 m.

A note on the dispersion rows ("sigma"): the published per-fit shadow-fading
figures reproduce, to their printed precision, the *mean squared* residual of
the corresponding least-squares fit on the bundled points (dB^2), not its
square root. The toolkit therefore reports both the RMSE (`sigma_db`) and the
mean-square residual (`mse_db2`) for every fit, and compares the latter
against the values below. Take sqrt() of a value below to use it as a
Gaussian standard deviation. See README, "The sigma convention".
"""

# Radio / campaign constants
CARRIER_FREQ_GHZ = 60.48       # IEEE 802.11ad channel 2
BEAM_SPACING_DEG = 1.4         # codebook beam spacing in azimuth
SCAN_WINDOW_BEAMS = 20         # 20 x 20 = 400 scanned beam pairs per point
TRIALS_PER_SCAN = 15           # independent measurements averaged per scan

# Headline distance fits over all heights (campaign table 1)
TABLE1 = {
    "ci": {"intercept_db": 68.08, "ple": 2.25, "sigma": 3.56},
    "fi": {"intercept_db": 67.03, "ple": 2.33, "sigma": 3.52},
}

# Per-height close-in fits (campaign table 2). The published h=6 / h=15
# columns are mirrored with respect to fits of the bundled per-height points
# (the source series were evidently swapped upstream); reports show the
# values as published and let the deltas speak.
TABLE2_PLE = {"all": 2.25, 6.0: 2.23, 12.0: 2.25, 15.0: 2.28}
TABLE2_SIGMA = {"all": 3.56, 6.0: 0.82, 12.0: 2.62, 15.0: 8.06}

# Per-rank beam-pair fits (campaign table 3); rank 1 = best beam pair.
TABLE3_PLE = {1: 2.25, 2: 2.28, 3: 2.07, 4: 1.96, 5: 2.01,
              6: 1.93, 7: 1.99, 8: 2.02, 9: 2.03}
TABLE3_INTERCEPT_DB = {1: 68.08, 2: 69.68, 3: 74.10, 4: 76.79, 5: 77.26,
                       6: 79.31, 7: 79.35, 8: 79.52, 9: 79.73}
TABLE3_SIGMA = {1: 3.56, 2: 3.78, 3: 4.85, 4: 4.61, 5: 4.01,
                6: 5.76, 7: 5.80, 8: 5.38, 9: 4.82}
TABLE3_DELTA_DEG = {1: 0.0, 2: 1.87, 3: 2.59, 4: 2.70, 5: 3.47,
                    6: 3.42, 7: 4.20, 8: 3.89, 9: 4.20}

# Closing single-slope model: PL(d) = 68.08 + 22.5 log10(d) + Gaussian(0, sigma)
CONCLUSION = {"intercept_db": 68.08, "slope_db_per_decade": 22.5, "sigma": 3.56}
