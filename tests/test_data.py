import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortgp import (
    DeltaMethodNoise,
    KernelHyperparams,
    MortalityTable,
    SubsetSpec,
    load_table,
    noise_diagonal,
    save_table,
    subset,
)
from mortgp.data import REQUIRED_COLUMNS, SUBSET_PRESETS

from conftest import simulate_grid_table


def make_grid(years, ages, exposure=1e5, rate=0.01):
    age, year = (column.ravel() for column in np.meshgrid(ages, years))
    return MortalityTable(age, year, np.full(age.size, rate * exposure), np.full(age.size, exposure))


def one_cell(age, year, deaths, exposure):
    return MortalityTable([age], [year], [deaths], [exposure])


class TestConstructor:
    def test_log_rate_matches_observed_rate(self):
        # published-style cell: rate 0.00722 at age 50 in 2011
        table = one_cell(50, 2011, 722.0, 100_000.0)
        assert table.log_rate[0] == pytest.approx(-4.931, abs=1e-3)

    def test_log_rate_definition(self):
        table = one_cell(60, 2000, 123.0, 45_678.0)
        assert table.log_rate[0] == math.log(123.0 / 45_678.0)

    def test_zero_exposure_rejected(self):
        with pytest.raises(ValueError, match=r"^cell \(60,2000\): exposure must be positive, got 0.0$"):
            one_cell(60, 2000, 1.0, 0.0)

    def test_negative_deaths_rejected(self):
        with pytest.raises(ValueError, match=r"^cell \(60,2000\): deaths must be non-negative, got -1.0$"):
            one_cell(60, 2000, -1.0, 100.0)

    def test_deaths_must_stay_below_exposure(self):
        with pytest.raises(ValueError, match=r"^cell \(60,2000\): deaths \(100.0\) must be below exposure \(100.0\)$"):
            one_cell(60, 2000, 100.0, 100.0)

    def test_zero_deaths_flagged_not_trainable(self):
        with pytest.warns(UserWarning, match=r"^1 zero-death cell\(s\) flagged: \(age 60, 2000\); they are excluded from training$"):
            table = one_cell(60, 2000, 0.0, 100.0)
        assert not table.trainable[0]
        assert math.isnan(table.log_rate[0])
        assert table.inputs().shape == (0, 2)

    def test_first_bad_row_in_input_order_is_named(self):
        with pytest.raises(ValueError, match=r"^cell \(61,2000\): deaths must be non-negative, got -2.0$"):
            MortalityTable([62, 61, 60], [2001, 2000, 2000], [0.0, -2.0, 100.0], [100.0, 100.0, 0.0])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="1-D columns of one length"):
            MortalityTable([60, 61], [2000, 2000], [1.0, 1.0], [100.0])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate cell for age 60, year 2000"):
            MortalityTable([60, 60], [2000, 2000], [1.0, 2.0], [100.0, 100.0])

    def test_rows_sorted_by_year_then_age(self):
        table = MortalityTable([61, 60, 61], [2001, 2001, 2000], [1.0, 2.0, 3.0], [100.0] * 3)
        assert list(zip(table.year.tolist(), table.age.tolist())) == [(2000, 61), (2001, 60), (2001, 61)]
        assert table.deaths.tolist() == [3.0, 2.0, 1.0]

    def test_order_independent_of_input_permutation(self):
        rng = np.random.default_rng(3)
        age, year = (column.ravel() for column in np.meshgrid(range(60, 63), range(2000, 2003)))
        deaths = rng.uniform(1, 50, size=age.size)
        t1 = MortalityTable(age, year, deaths, np.full(age.size, 100.0))
        t2 = MortalityTable(age[::-1], year[::-1], deaths[::-1], np.full(age.size, 100.0))
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
        assert table.age[0] == 50
        assert table.log_rate[0] == pytest.approx(math.log(0.00722))

    def test_header_case_insensitive_and_reordered(self, tmp_path):
        text = "Exposure,YEAR,Age,Deaths\n100000,2011,50,722\n"
        table = load_csv(tmp_path, text)
        assert table.deaths[0] == 722.0

    def test_log_rate_column_ignored_on_input(self, tmp_path):
        text = "age,year,deaths,exposure,log_rate\n50,2011,722,100000,3.14\n"
        table = load_csv(tmp_path, text)
        assert table.log_rate[0] == pytest.approx(math.log(0.00722))

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
        age, year = (column.ravel() for column in np.meshgrid(range(50, 55), range(1999, 2003)))
        draws = np.array([(rng.uniform(1, 900), rng.uniform(1e4, 1e6)) for _ in range(age.size)])
        table = MortalityTable(age, year, draws[:, 0], draws[:, 1])
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


class TestColumns:
    def test_columns_sorted_typed_and_read_only(self):
        with pytest.warns(UserWarning, match="1 zero-death"):
            table = MortalityTable([61, 60, 61], [2001, 2001, 2000], [3.0, 0.0, 2.0], [100.0] * 3)
        assert table.age.tolist() == [61, 60, 61] and table.year.tolist() == [2000, 2001, 2001]
        assert table.age.dtype == np.int64 and table.deaths.dtype == np.float64
        assert table.trainable.tolist() == [True, False, True]
        assert math.isnan(table.log_rate[1]) and table.log_rate[2] == math.log(3.0 / 100.0)
        with pytest.raises(ValueError, match="read-only"):
            table.deaths[0] = 1.0

    def test_loaded_rows_sorted_with_zero_deaths_flagged(self, tmp_path):
        with pytest.warns(UserWarning, match=r"^1 zero-death cell\(s\) flagged: \(age 51, 2011\); they are excluded from training$"):
            table = load_csv(tmp_path, "age,year,deaths,exposure\n51,2011,0,100000\n50,2011,722,100000\n")
        rows = list(zip(table.age.tolist(), table.year.tolist(), table.deaths.tolist(), table.exposure.tolist()))
        assert rows == [(50, 2011, 722.0, 100000.0), (51, 2011, 0.0, 100000.0)]
        assert table.log_rate[0] == math.log(722.0 / 100000.0) and table.trainable.tolist() == [True, False]
        assert table.ages().tolist() == [50, 51]

    def test_zero_death_warning_names_the_first_three_cells(self):
        with pytest.warns(UserWarning) as caught:
            MortalityTable([60, 61, 62, 63, 64], [2001, 2000, 2000, 2000, 2000], [0.0, 0.0, 1.0, 0.0, 0.0], [100.0] * 5)
        message = "4 zero-death cell(s) flagged: (age 61, 2000), (age 63, 2000), (age 64, 2000), ...; they are excluded from training"
        assert [str(w.message) for w in caught] == [message]

    def test_fractional_age_rejected(self):
        with pytest.raises(ValueError, match=r"^age must be an integer, got '60.5'$"):
            one_cell(60.5, 2000, 1.0, 100.0)

    def test_subset_does_not_warn_again(self):
        with pytest.warns(UserWarning, match="1 zero-death"):
            table = MortalityTable([60, 61], [2000, 2000], [0.0, 1.0], [100.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sub = subset(table, SubsetSpec.rectangle((2000, 2000), (60, 61)))
        assert sub == table and sub.trainable.tolist() == [False, True]

    def test_subset_is_a_mask_over_the_columns(self):
        table = make_grid(range(1999, 2015), range(50, 85))
        spec = SUBSET_PRESETS["subset2"]
        keep = np.array([spec.blocks[0][0][0] <= y <= spec.blocks[0][0][1] or a <= 70 for a, y in zip(table.age, table.year)])
        sub = subset(table, spec)
        for name in ("age", "year", "deaths", "exposure", "log_rate", "trainable"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(table, name)[keep])


def bits(values) -> np.ndarray:
    """The float64 bit patterns, so that a comparison tells -0.0 from 0.0 and one NaN payload from another."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def read_rows_reference(path):
    """Cell-by-cell reading, as ``load_table`` once did: ``float`` per field, sorted by (year, age)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = [h.strip().lower() for h in rows[0]]
    idx = [names.index(c) for c in ("age", "year", "deaths", "exposure")]
    cells = [tuple(float(row[i]) for i in idx) for row in rows[1:] if "".join(row).strip()]
    return sorted(cells, key=lambda c: (c[1], c[0]))


def decimal_text(rng, value: float) -> str:
    """``value`` written in one of several forms, some with more digits than a float holds."""
    form, value = rng.integers(4), float(value)
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value:.6e}"
    if form == 2:
        return f"{value:.25g}"  # beyond 17 digits: correct rounding decides the last bit
    return f"{int(value)}.{rng.integers(10**15):015d}{rng.integers(10**9):09d}"


class TestLoaderAgainstRowReference:
    """``load_table``'s bulk parse against a per-row reading, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_columns_arrays_and_delta_noise_bit_for_bit(self, tmp_path, seed):
        hp = KernelHyperparams(theta_ag=12.0, theta_yr=9.0, eta_sq=0.5, sigma_sq=1e-4)
        source = simulate_grid_table(np.arange(0, 101), np.arange(1975, 2015), hp, seed)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(source))
        path = tmp_path / "grid.csv"
        with open(path, "w", newline="") as fh:
            fh.write("Year,deaths,AGE,exposure,note\n")
            for i in order:
                exposure = float(rng.uniform(1e4, 1e7))
                fh.write(f"{source.year[i]},{decimal_text(rng, source.deaths[i] * 1e-3)},{source.age[i]},{decimal_text(rng, exposure)},x\n")
        table = load_table(path)

        ref = read_rows_reference(path)
        ages, years, deaths, exposure = (np.array(column) for column in zip(*ref))
        np.testing.assert_array_equal(table.age, ages.astype(np.int64))
        np.testing.assert_array_equal(table.year, years.astype(np.int64))
        np.testing.assert_array_equal(bits(table.deaths), bits(deaths))
        np.testing.assert_array_equal(bits(table.exposure), bits(exposure))
        log_rates = [math.log(d / e) for d, e in zip(deaths.tolist(), exposure.tolist())]
        np.testing.assert_array_equal(bits(table.log_rate), bits(log_rates))
        np.testing.assert_array_equal(bits(table.inputs()), bits(np.column_stack([ages, years])))
        np.testing.assert_array_equal(bits(table.responses()), bits(log_rates))
        k = 1.7
        delta = []
        for d, e in zip(deaths.tolist(), exposure.tolist()):
            risk = e + 0.5 * d
            p = d / risk
            delta.append(k * (1.0 - p) / (p * risk))
        np.testing.assert_array_equal(bits(noise_diagonal(DeltaMethodNoise(k), table)), bits(delta))


# one row of each kind that load_table rejects, in (age, year, deaths, exposure) order, and its message
BAD_ROWS = {
    "text": (["50", "oops", "722", "100000"], "could not convert string to float: 'oops'"),
    "fractional_age": (["50.5", "2011", "722", "100000"], "age must be an integer, got '50.5'"),
    "short": (["50", "2011", "722", "100000"], "list index out of range"),  # the last field is dropped
    "zero_exposure": (["50", "2011", "0", "0"], "cell (50,2011): exposure must be positive, got 0.0"),
    "negative_deaths": (["50", "2011", "-1", "100000"], "cell (50,2011): deaths must be non-negative, got -1.0"),
    "deaths_at_exposure": (["50", "2011", "100", "100"], "cell (50,2011): deaths (100.0) must be below exposure (100.0)"),
    "rate_underflow": (["50", "2011", "5e-324", "2"], "cell (50,2011): deaths / exposure (5e-324 / 2.0) underflows to 0"),
}


@st.composite
def csv_tables(draw):
    """Valid cells and a CSV text of them with the forms ``load_table`` accepts, maybe with duplicates and bad rows.

    Returns ``(cells, text, error)``: ``error`` is the message ``load_table`` must raise, or None.
    """
    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(2000, 2004)), min_size=1, max_size=12, unique=True))
    cells = []
    for age, year in keys:
        exposure = draw(st.floats(1.0, 1e7))
        deaths = draw(st.one_of(st.just(0.0), st.floats(0.0, exposure, exclude_max=True).filter(lambda d: d / exposure > 0)))
        cells.append((age, year, deaths, exposure))
    order = draw(st.permutations(range(4)))  # header position j holds field order[j]
    header = [draw(st.sampled_from([name, name.upper(), name.title()])) for name in (REQUIRED_COLUMNS[j] for j in order)]
    extra = draw(st.sampled_from([None, ("log_rate", "3.14"), ("note", '"x, y"')]))
    lay_out = lambda fields: [fields[j] for j in order] + ([extra[1]] if extra else [])  # noqa: E731
    rows = []
    for age, year, deaths, exposure in draw(st.permutations(cells)):
        age_text = draw(st.sampled_from([str(age), f"{age}.0", f" {age}"]))
        rows.append(lay_out([age_text, str(year), repr(deaths), repr(exposure)]))
        rows += draw(st.lists(st.sampled_from([[], [""] * len(header), [" "]]), max_size=1))  # blank, ",,," and "  " rows
    duplicate = draw(st.one_of(st.none(), st.sampled_from(cells)))
    if duplicate is not None:
        age, year, deaths, exposure = duplicate
        rows.insert(draw(st.integers(0, len(rows))), lay_out([str(age), str(year), repr(deaths / 2), repr(exposure)]))
    bad = []
    for kind in draw(st.lists(st.sampled_from(sorted(BAD_ROWS)), max_size=2)):
        fields, message = BAD_ROWS[kind]
        row = lay_out(fields)[: 3 if kind == "short" else None]
        at = draw(st.integers(0, len(rows)))
        bad = [(at2 + (at2 >= at), message2) for at2, message2 in bad] + [(at, message)]
        rows.insert(at, row)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in [header, *rows]) + draw(st.sampled_from(["", newline]))
    if bad:
        at, message = min(bad)
        error = f"row {at + 2}: {message}"  # the header is row 1
    elif duplicate is not None:
        error = f"duplicate cell for age {duplicate[0]}, year {duplicate[1]}"
    else:
        error = None
    return cells, text, error


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=csv_tables())
def test_load_table_over_csv_edge_cases(drawn, tmp_path_factory):
    cells, text, error = drawn
    path = tmp_path_factory.getbasetemp() / "edge.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-death cells are flagged
        if error is not None:
            with pytest.raises(ValueError) as caught:
                load_table(path)
            assert str(caught.value) == error
            return
        table = load_table(path)
    cells = sorted(cells, key=lambda c: (c[1], c[0]))
    ages, years, deaths, exposure = (list(column) for column in zip(*cells))
    assert table.age.tolist() == ages and table.year.tolist() == years
    np.testing.assert_array_equal(bits(table.deaths), bits(deaths))
    np.testing.assert_array_equal(bits(table.exposure), bits(exposure))
    np.testing.assert_array_equal(bits(table.log_rate), bits([math.log(d / e) if d > 0 else math.nan for d, e in zip(deaths, exposure)]))


@pytest.mark.parametrize(
    "fields",
    [BAD_ROWS[kind][0] for kind in ("fractional_age", "zero_exposure", "negative_deaths", "deaths_at_exposure", "rate_underflow")]
    + [["50", "2011.5", "722", "100000"]],
    ids=["fractional_age", "zero_exposure", "negative_deaths", "deaths_at_exposure", "rate_underflow", "fractional_year"],
)
def test_constructor_and_loader_share_each_message(tmp_path, fields):
    """One check serves both: the constructor's message for a bad value is ``load_table``'s without ``row N: ``."""
    with pytest.raises(ValueError) as built:
        MortalityTable(*([float(field)] for field in fields))
    with pytest.raises(ValueError) as loaded:
        load_csv(tmp_path, "age,year,deaths,exposure\n60,2000,1,100\n" + ",".join(fields) + "\n")
    assert str(loaded.value) == f"row 3: {built.value}"
