import math

import numpy as np
import pytest

from mortgp import (
    MortalityCell,
    MortalityTable,
    SubsetSpec,
    load_table,
    save_table,
    subset,
)
from mortgp.data import SUBSET_PRESETS


def make_grid(years, ages, exposure=1e5, rate=0.01):
    return MortalityTable(
        [
            MortalityCell(age=a, year=y, deaths=rate * exposure, exposure=exposure)
            for y in years
            for a in ages
        ]
    )


class TestMortalityCell:
    def test_log_rate_matches_observed_rate(self):
        # published-style cell: rate 0.00722 at age 50 in 2011
        cell = MortalityCell(age=50, year=2011, deaths=722.0, exposure=100_000.0)
        assert cell.log_rate == pytest.approx(-4.931, abs=1e-3)

    def test_log_rate_definition(self):
        cell = MortalityCell(age=60, year=2000, deaths=123.0, exposure=45_678.0)
        assert abs(cell.log_rate - math.log(123.0 / 45_678.0)) < 1e-12

    def test_zero_exposure_rejected(self):
        with pytest.raises(ValueError, match="exposure"):
            MortalityCell(age=60, year=2000, deaths=1.0, exposure=0.0)

    def test_negative_deaths_rejected(self):
        with pytest.raises(ValueError, match="deaths"):
            MortalityCell(age=60, year=2000, deaths=-1.0, exposure=100.0)

    def test_deaths_must_stay_below_exposure(self):
        with pytest.raises(ValueError, match="below exposure"):
            MortalityCell(age=60, year=2000, deaths=100.0, exposure=100.0)

    def test_zero_deaths_flagged_not_trainable(self):
        with pytest.warns(UserWarning, match="zero-death"):
            table = MortalityTable([MortalityCell(age=60, year=2000, deaths=0.0, exposure=100.0)])
        assert not table.cells[0].trainable
        assert math.isnan(table.cells[0].log_rate)
        assert table.inputs().shape == (0, 2)

    def test_exposure_risk(self):
        cell = MortalityCell(age=60, year=2000, deaths=100.0, exposure=1000.0)
        assert cell.exposure_risk == 1050.0


class TestMortalityTable:
    def test_duplicate_cells_rejected(self):
        cells = [
            MortalityCell(age=60, year=2000, deaths=1.0, exposure=100.0),
            MortalityCell(age=60, year=2000, deaths=2.0, exposure=100.0),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            MortalityTable(cells)

    def test_iteration_sorted_by_year_then_age(self):
        cells = [
            MortalityCell(age=61, year=2001, deaths=1.0, exposure=100.0),
            MortalityCell(age=60, year=2001, deaths=1.0, exposure=100.0),
            MortalityCell(age=61, year=2000, deaths=1.0, exposure=100.0),
        ]
        table = MortalityTable(cells)
        assert [(c.year, c.age) for c in table] == [(2000, 61), (2001, 60), (2001, 61)]

    def test_order_independent_of_input_permutation(self):
        rng = np.random.default_rng(3)
        cells = [
            MortalityCell(age=a, year=y, deaths=float(rng.uniform(1, 50)), exposure=100.0)
            for y in range(2000, 2003)
            for a in range(60, 63)
        ]
        t1 = MortalityTable(cells)
        t2 = MortalityTable(list(reversed(cells)))
        assert t1 == t2


def load_csv(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    return load_table(path)


class TestLoadSave:
    CSV = "age,year,deaths,exposure\n50,2011,722,100000\n51,2011,800,100000\n"

    def test_load_basic(self, tmp_path):
        table = load_csv(tmp_path, self.CSV)
        assert len(table) == 2
        assert table.cells[0].age == 50
        assert table.cells[0].log_rate == pytest.approx(math.log(0.00722))

    def test_header_case_insensitive_and_reordered(self, tmp_path):
        text = "Exposure,YEAR,Age,Deaths\n100000,2011,50,722\n"
        table = load_csv(tmp_path, text)
        assert table.cells[0].deaths == 722.0

    def test_log_rate_column_ignored_on_input(self, tmp_path):
        text = "age,year,deaths,exposure,log_rate\n50,2011,722,100000,3.14\n"
        table = load_csv(tmp_path, text)
        assert table.cells[0].log_rate == pytest.approx(math.log(0.00722))

    def test_missing_column(self, tmp_path):
        with pytest.raises(ValueError, match="missing required column"):
            load_csv(tmp_path, "age,year,deaths\n50,2011,722\n")

    def test_malformed_row_reports_row_number(self, tmp_path):
        text = "age,year,deaths,exposure\n50,2011,722,100000\n51,oops,800,100000\n"
        with pytest.raises(ValueError, match="row 3"):
            load_csv(tmp_path, text)

    def test_zero_exposure_row_rejected(self, tmp_path):
        text = "age,year,deaths,exposure\n50,2011,0,0\n"
        with pytest.raises(ValueError, match="row 2.*exposure"):
            load_csv(tmp_path, text)

    def test_duplicate_cells_rejected(self, tmp_path):
        text = "age,year,deaths,exposure\n50,2011,722,100000\n50,2011,3,100000\n"
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(tmp_path, text)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        cells = [
            MortalityCell(age=a, year=y, deaths=float(rng.uniform(1, 900)), exposure=float(rng.uniform(1e4, 1e6)))
            for y in range(1999, 2003)
            for a in range(50, 55)
        ]
        table = MortalityTable(cells)
        save_table(table, tmp_path / "table.csv")
        reloaded = load_table(tmp_path / "table.csv")
        assert reloaded == table
        # log rates recomputed on load agree exactly with the originals
        np.testing.assert_array_equal(reloaded.responses(), table.responses())

    def test_saved_log_rate_has_six_decimals(self, tmp_path):
        table = make_grid([2000], [60])
        save_table(table, tmp_path / "table.csv")
        log_rate_field = (tmp_path / "table.csv").read_text().splitlines()[1].split(",")[4]
        assert len(log_rate_field.split(".")[1]) == 6


class TestSubset:
    def full_table(self):
        return make_grid(range(1999, 2015), range(50, 85))

    def test_rectangular_subset_count(self):
        # 12 years x 35 ages
        spec = SUBSET_PRESETS["subset1"]
        assert len(subset(self.full_table(), spec)) == 420

    def test_notched_subset_count(self):
        # two blocks: 12x35 + 4x21, enumerated independently
        spec = SUBSET_PRESETS["subset2"]
        expected = sum(
            1
            for y in range(1999, 2015)
            for a in range(50, 85)
            if (1999 <= y <= 2010 and 50 <= a <= 84) or (2011 <= y <= 2014 and 50 <= a <= 70)
        )
        assert expected == 504
        assert len(subset(self.full_table(), spec)) == expected

    def test_empty_subset_errors(self):
        spec = SubsetSpec.rectangle((1900, 1910), (50, 84))
        with pytest.raises(ValueError, match="no cells"):
            subset(self.full_table(), spec)

    def test_subset_idempotent(self):
        spec = SUBSET_PRESETS["subset2"]
        once = subset(self.full_table(), spec)
        twice = subset(once, spec)
        assert once == twice

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="min <= max"):
            SubsetSpec.rectangle((2010, 1999), (50, 84))
        with pytest.raises(ValueError, match="at least one block"):
            SubsetSpec(())

    def test_parse_round_trip(self):
        spec = SubsetSpec.parse("1999-2010:50-84,2011-2014:50-70")
        assert spec == SUBSET_PRESETS["subset2"]
