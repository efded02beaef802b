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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

import numpy as np

REQUIRED_COLUMNS = ("age", "year", "deaths", "exposure")


@dataclass(frozen=True)
class MortalityCell:
    """A single (age, year) cell of a mortality table.

    ``deaths`` is treated as a real-valued count and ``exposure`` as the
    mid-year population.  ``log_rate`` is derived at construction and is NaN
    for zero-death cells, which are excluded from model training.
    """

    age: int
    year: int
    deaths: float
    exposure: float
    log_rate: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.exposure) or self.exposure <= 0:
            raise ValueError(f"cell ({self.age},{self.year}): exposure must be positive, got {self.exposure}")
        if not math.isfinite(self.deaths) or self.deaths < 0:
            raise ValueError(f"cell ({self.age},{self.year}): deaths must be non-negative, got {self.deaths}")
        if self.deaths >= self.exposure:
            raise ValueError(f"cell ({self.age},{self.year}): deaths ({self.deaths}) must be below exposure ({self.exposure})")
        rate = self.deaths / self.exposure
        if self.deaths > 0 and rate == 0:
            raise ValueError(f"cell ({self.age},{self.year}): deaths / exposure ({self.deaths} / {self.exposure}) underflows to 0")
        object.__setattr__(self, "log_rate", math.log(rate) if self.deaths > 0 else math.nan)

    @property
    def trainable(self) -> bool:
        """Whether the cell carries a defined log rate."""
        return self.deaths > 0


class MortalityTable:
    """An immutable mortality table: read-only columns sorted by (year, age), no (age, year) pair twice.

    ``age`` and ``year`` are int64, ``deaths`` and ``exposure`` float64.
    ``log_rate`` is derived by ``math.log`` per cell, NaN where deaths are
    zero; ``trainable`` marks the other cells, the only ones in :meth:`inputs`
    and :meth:`responses`.  Zero-death cells are kept but flagged.  ``cells``
    is a row view of :class:`MortalityCell`, built on first use.
    """

    def __init__(self, cells: Iterable[MortalityCell] = (), *, _columns=None):
        cells = [(c.age, c.year, c.deaths, c.exposure) for c in cells]
        self._set(*(np.array(cells, dtype=float).reshape(-1, 4).T if _columns is None else _columns))

    def _set(self, age, year, deaths, exposure, log_rate=None) -> None:
        # a log_rate column comes with a table's own columns, in its order; else check, sort and derive
        if log_rate is None:
            ay = np.abs(np.array([age, year]))
            valid = np.all((np.trunc(ay) == ay) & (ay < 2.0**53)) and np.all((deaths >= 0) & (deaths < exposure) & (exposure < math.inf))
            if not valid:
                raise ValueError("ages and years must be integers below 2**53 in magnitude, and 0 <= deaths < exposure < inf")
            order = np.lexsort((age, year))
            age, year, deaths, exposure = age[order].astype(np.int64), year[order].astype(np.int64), deaths[order], exposure[order]
            dup = np.flatnonzero((age[1:] == age[:-1]) & (year[1:] == year[:-1]))
            if dup.size:
                raise ValueError(f"duplicate cell for age {age[dup[0]]}, year {year[dup[0]]}")
            log_rate = np.full(age.size, math.nan)
            alive = deaths > 0
            log_rate[alive] = list(map(math.log, (deaths[alive] / exposure[alive]).tolist()))
            if not alive.all():
                warnings.warn(f"{age.size - alive.sum()} zero-death cell(s) flagged; they are excluded from training", stacklevel=3)
        self.age, self.year, self.deaths, self.exposure, self.log_rate, self.trainable = age, year, deaths, exposure, log_rate, deaths > 0
        for column in (self.age, self.year, self.deaths, self.exposure, self.log_rate, self.trainable):
            column.flags.writeable = False
        self._cells = None

    @property
    def cells(self) -> tuple[MortalityCell, ...]:
        if self._cells is None:
            self._cells = tuple(map(MortalityCell, self.age.tolist(), self.year.tolist(), self.deaths.tolist(), self.exposure.tolist()))
        return self._cells

    def __len__(self) -> int:
        return self.age.size

    def __iter__(self):
        return iter(self.cells)

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

    def cell(self, age: int, year: int) -> MortalityCell:
        row = np.flatnonzero((self.age == age) & (self.year == year))
        if not row.size:
            raise KeyError(f"no cell for age {age}, year {year}")
        return self.cells[row[0]]

    def has_cell(self, age: int, year: int) -> bool:
        return bool(np.any((self.age == age) & (self.year == year)))


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
    return MortalityTable(_columns=[column[keep] for column in (table.age, table.year, table.deaths, table.exposure, table.log_rate)])


def load_table(path: Union[str, Path]) -> MortalityTable:
    """Read a mortality table from CSV.

    The header must name ``age, year, deaths, exposure`` (case-insensitive,
    any order); an optional ``log_rate`` column is ignored and recomputed.
    The body is parsed by one quote-aware ``np.loadtxt`` call, whose floats
    are correctly rounded as ``float``'s are, and checked by column.  A body
    it cannot parse (blank ``,,,`` rows, ``1_000``) or that fails a check is
    read again row by row, which names the first bad row.
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
            return MortalityTable(_columns=columns)
        except ValueError:  # read again row by row, which names the first bad row
            cells = []
        for rownum, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                cells.append(MortalityCell(_parse_int(row[idx[0]], "age"), _parse_int(row[idx[1]], "year"), float(row[idx[2]]), float(row[idx[3]])))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"row {rownum}: {exc}") from None
    return MortalityTable(cells)


def _parse_int(text: str, name: str) -> int:
    value = float(text)
    if not value.is_integer() or abs(value) >= 2.0**53:
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(value)


def save_table(table: MortalityTable, path: Union[str, Path]) -> None:
    """Write a table as CSV with the log rate at 6 decimal places.

    Deaths and exposure use shortest round-trip formatting so that
    ``load_table(save_table(t)) == t`` exactly.
    """
    log_rates = ["" if math.isnan(v) else f"{v:.6f}" for v in table.log_rate.tolist()]
    rows = zip(table.age.tolist(), table.year.tolist(), map(repr, table.deaths.tolist()), map(repr, table.exposure.tolist()), log_rates)
    with open(path, "w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows([(*REQUIRED_COLUMNS, "log_rate"), *rows])


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
