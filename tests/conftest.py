import csv
from pathlib import Path

import pytest

from a2a60 import load_measurement_points, to_fit_points

TEST_DATA = Path(__file__).parent / "data"


def load_curve_fixture(name: str, key: str) -> dict[str, list[tuple[float, float]]]:
    """Read a test-side curve transcription as {series: [(d, pl), ...]}."""
    curves: dict[str, list[tuple[float, float]]] = {}
    with open(TEST_DATA / name, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            curves.setdefault(row[key], []).append(
                (float(row["distance_m"]), float(row["path_loss_db"]))
            )
    return curves


@pytest.fixture(scope="session")
def fig2_points():
    return load_measurement_points()


@pytest.fixture(scope="session")
def fig2_fit_points(fig2_points):
    return to_fit_points(fig2_points)


@pytest.fixture(scope="session")
def fit_curves():
    return load_curve_fixture("fig2_fit_curves.csv", "curve")


@pytest.fixture(scope="session")
def height_curves():
    return load_curve_fixture("fig3_height_curves.csv", "curve")


@pytest.fixture(scope="session")
def reference_curves():
    return load_curve_fixture("fig5_reference_curves.csv", "curve")


@pytest.fixture(scope="session")
def rank_curves():
    return {int(k): v for k, v in load_curve_fixture("fig7_rank_curves.csv", "rank").items()}


@pytest.fixture(scope="session")
def with_bad_byte():
    """A builder of CSV bytes: `header` then `rows` copies of `row`, as UTF-8
    with 0xff at the start of CSV row `at_row` (row 1 is the header)."""
    def build(header, row, at_row, rows=3000):
        lines = [header] + [row] * rows
        data = "".join(lines).encode()
        offset = len("".join(lines[:at_row - 1]))
        return data[:offset] + b"\xff" + data[offset:]

    return build
