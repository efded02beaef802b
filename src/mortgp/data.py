"""Mortality table ingestion, validation and subsetting.

A mortality table is a collection of (age, year) cells, each carrying a death
count and a mid-year population.  The response modeled downstream is the log
central death rate ``log(deaths / exposure)``; cells with zero deaths have no
defined log rate and are flagged so that model fitting can skip them.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

REQUIRED_COLUMNS = ("age", "year", "deaths", "exposure")


def _first_bad_row(age, year, deaths, exposure) -> tuple[int, str] | None:
    """``(row, message)`` for the first row, in input order, holding a value no table accepts, else None.

    Ages and years must be integers below 2**53 in magnitude, ``0 <= deaths < exposure < inf``, and a
    nonzero rate ``deaths / exposure`` must not underflow to 0; a row's kinds are checked in that order.
    """
    with np.errstate(all="ignore"):
        kinds = np.array([
            ~((np.trunc(age) == age) & (np.abs(age) < 2.0**53)),
            ~((np.trunc(year) == year) & (np.abs(year) < 2.0**53)),
            ~(np.isfinite(exposure) & (exposure > 0)),
            ~(np.isfinite(deaths) & (deaths >= 0)),
            deaths >= exposure,
            (deaths > 0) & (deaths / exposure == 0),
        ])
    bad = kinds.any(axis=0)
    if not bad.any():
        return None
    row = int(bad.argmax())
    kind = int(kinds[:, row].argmax())
    a, y, d, e = (float(column[row]) for column in (age, year, deaths, exposure))
    if kind < 2:
        return row, f"{('age', 'year')[kind]} must be an integer, got '{(a, y)[kind]!r}'"
    problem = (
        f"exposure must be positive, got {e}",
        f"deaths must be non-negative, got {d}",
        f"deaths ({d}) must be below exposure ({e})",
        f"deaths / exposure ({d} / {e}) underflows to 0",
    )[kind - 2]
    return row, f"cell ({int(a)},{int(y)}): {problem}"


class MortalityTable:
    """An immutable mortality table: read-only columns sorted by (year, age), no (age, year) pair twice.

    Built from four equal-length columns in any row order.  ``age`` and ``year`` are int64, ``deaths``
    and ``exposure`` float64.  ``log_rate`` is derived by ``math.log`` per cell, NaN where deaths are
    zero; ``trainable`` marks the other cells, the only ones in :meth:`inputs` and :meth:`responses`.
    Zero-death cells are kept but flagged.
    """

    def __init__(self, age, year, deaths, exposure):
        columns = [np.asarray(column, dtype=float) for column in (age, year, deaths, exposure)]
        if columns[0].ndim != 1 or len({column.shape for column in columns}) > 1:
            raise ValueError("age, year, deaths and exposure must be 1-D columns of one length")
        bad = _first_bad_row(*columns)
        if bad is not None:
            raise ValueError(bad[1])
        order = np.lexsort(columns[:2])
        age, year, deaths, exposure = (column[order] for column in columns)
        age, year = age.astype(np.int64), year.astype(np.int64)
        dup = np.flatnonzero((age[1:] == age[:-1]) & (year[1:] == year[:-1]))
        if dup.size:
            raise ValueError(f"duplicate cell for age {age[dup[0]]}, year {year[dup[0]]}")
        log_rate = np.full(age.size, math.nan)
        alive = deaths > 0
        log_rate[alive] = list(map(math.log, (deaths[alive] / exposure[alive]).tolist()))
        self._set(age, year, deaths, exposure, log_rate)
        self._warn_zero_deaths()

    def _set(self, age, year, deaths, exposure, log_rate) -> None:
        self.age, self.year, self.deaths, self.exposure, self.log_rate, self.trainable = age, year, deaths, exposure, log_rate, deaths > 0
        for column in (self.age, self.year, self.deaths, self.exposure, self.log_rate, self.trainable):
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.age.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, MortalityTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in REQUIRED_COLUMNS)

    def inputs(self) -> np.ndarray:
        """(N, 2) array of (age, year) pairs for the trainable cells."""
        return np.column_stack((self.age[self.trainable], self.year[self.trainable])).astype(float)

    def responses(self) -> np.ndarray:
        """(N,) array of log rates for the trainable cells."""
        return self.log_rate[self.trainable]

    def ages(self) -> np.ndarray:
        return np.unique(self.age)

    def _warn_zero_deaths(self) -> None:
        """Warn, at the caller's caller, about the zero-death cells, naming the first three; silent when there are none."""
        dead = np.flatnonzero(~self.trainable)
        if dead.size:
            named = ", ".join(f"(age {self.age[i]}, {self.year[i]})" for i in dead[:3]) + (", ..." if dead.size > 3 else "")
            warnings.warn(f"{dead.size} zero-death cell(s) flagged: {named}; they are excluded from training", stacklevel=3)


@dataclass(frozen=True)
class SubsetSpec:
    """A union of rectangular (year-range x age-range) blocks.

    Each block is ``((year_lo, year_hi), (age_lo, age_hi))``, inclusive on both
    ends.  Multiple blocks express non-rectangular ("notched") regions.
    """

    blocks: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("subset spec needs at least one block")
        norm = []
        for block in self.blocks:
            (y0, y1), (a0, a1) = block
            if y0 > y1 or a0 > a1:
                raise ValueError(f"invalid block {block}: ranges must have min <= max")
            norm.append(((int(y0), int(y1)), (int(a0), int(a1))))
        object.__setattr__(self, "blocks", tuple(norm))

    @classmethod
    def rectangle(cls, years: tuple[int, int], ages: tuple[int, int]) -> "SubsetSpec":
        return cls(((tuple(years), tuple(ages)),))

    @classmethod
    def parse(cls, text: str) -> "SubsetSpec":
        """Parse ``"1999-2010:50-84,2011-2014:50-70"`` into a spec."""
        blocks = []
        for part in text.split(","):
            try:
                years_s, ages_s = part.strip().split(":")
                y0, y1 = (int(v) for v in years_s.split("-"))
                a0, a1 = (int(v) for v in ages_s.split("-"))
            except ValueError as exc:
                raise ValueError(f"cannot parse subset block {part!r}; expected Y0-Y1:A0-A1") from exc
            blocks.append(((y0, y1), (a0, a1)))
        return cls(tuple(blocks))


def subset(table: MortalityTable, spec: SubsetSpec) -> MortalityTable:
    """Restrict a table to the union of the spec's blocks.

    Raises if no cell falls inside the spec (degenerate subset).
    """
    keep = np.any([(table.year >= y0) & (table.year <= y1) & (table.age >= a0) & (table.age <= a1) for (y0, y1), (a0, a1) in spec.blocks], axis=0)
    if not keep.any():
        raise ValueError("subset selects no cells")
    sub = MortalityTable.__new__(MortalityTable)  # the parent's columns are checked and derived already
    sub._set(*(column[keep] for column in (table.age, table.year, table.deaths, table.exposure, table.log_rate)))
    return sub


def load_table(path: Union[str, Path]) -> MortalityTable:
    """Read a mortality table from CSV.

    The header must name ``age, year, deaths, exposure`` (case-insensitive,
    any order); an optional ``log_rate`` column is ignored and recomputed.
    The body is parsed by one quote-aware ``np.loadtxt`` call, whose floats
    are correctly rounded as ``float``'s are, and checked by column.  A body
    it cannot parse (blank ``,,,`` rows, ``1_000``) or that fails a check is
    read again by ``float`` row by row, up to the first row it cannot parse,
    and the first bad row is named: one the table's check rejects, else that row.
    """
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV: missing header row")
        names = [h.strip().lower() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in names]
        if missing:
            raise ValueError(f"missing required column(s): {', '.join(missing)}")
        idx = [names.index(c) for c in REQUIRED_COLUMNS]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on a header-only file
                columns = np.loadtxt(path, delimiter=",", quotechar='"', skiprows=reader.line_num, usecols=idx, comments=None, ndmin=2, unpack=True)
            return MortalityTable(*columns)
        except ValueError:  # read again row by row, which names the first bad row
            rows, rownums, error = [], [], None
        for rownum, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                rows.append([float(row[i]) for i in idx])
            except (ValueError, IndexError) as exc:
                error = f"row {rownum}: {exc}"
                break
            rownums.append(rownum)
    columns = np.array(rows, dtype=float).reshape(-1, 4).T
    bad = _first_bad_row(*columns)
    if bad is not None:
        raise ValueError(f"row {rownums[bad[0]]}: {bad[1]}")
    if error:
        raise ValueError(error)
    return MortalityTable(*columns)


def save_table(table: MortalityTable, path: Union[str, Path]) -> None:
    """Write a table as CSV with the log rate at 6 decimal places.

    Deaths and exposure use shortest round-trip formatting so that
    ``load_table(save_table(t)) == t`` exactly.
    """
    log_rates = ["" if math.isnan(v) else f"{v:.6f}" for v in table.log_rate.tolist()]
    columns = (table.age.tolist(), table.year.tolist(), table.deaths.tolist(), table.exposure.tolist(), log_rates)
    _write_csv(path, [*REQUIRED_COLUMNS, "log_rate"], [columns])


def _write_csv(path: Union[str, Path], header: list[str], blocks) -> None:
    """Write ``header``, then each block, a sequence of equal-length columns, joined into one string.

    A cell is written as its ``str``, so a float is its repr and reads back bit for bit; an empty
    cell is ``""``.  No cell needs quoting and no row is one cell, so the bytes match ``csv.writer``'s.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            fh.write("".join([",".join(row) + "\n" for row in zip(*(map(str, c) for c in columns))]))


# Named train/test splits used throughout the CLI; blocks are inclusive ranges.
SUBSET_PRESETS: dict[str, SubsetSpec] = {
    "subset1": SubsetSpec.rectangle((1999, 2010), (50, 84)),
    "subset2": SubsetSpec((((1999, 2010), (50, 84)), ((2011, 2014), (50, 70)))),
    "subset3": SubsetSpec.rectangle((1999, 2010), (50, 70)),
}

TEST_PRESETS: dict[str, SubsetSpec] = {
    "subset1": SubsetSpec.rectangle((2011, 2014), (50, 84)),
    "subset2": SubsetSpec.rectangle((2011, 2014), (71, 84)),
    "subset3": SubsetSpec.rectangle((2011, 2014), (71, 84)),
}
