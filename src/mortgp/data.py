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
        rate = math.log(self.deaths / self.exposure) if self.deaths > 0 else math.nan
        object.__setattr__(self, "log_rate", rate)

    @property
    def trainable(self) -> bool:
        """Whether the cell carries a defined log rate."""
        return self.deaths > 0

    @property
    def exposure_risk(self) -> float:
        """Approximate person-years exposed to risk: population plus half the deaths."""
        return self.exposure + 0.5 * self.deaths


class MortalityTable:
    """An immutable, deterministically ordered collection of mortality cells.

    Cells are sorted by (year, age) at construction and duplicate (age, year)
    pairs are rejected.  Zero-death cells are kept but flagged; they do not
    appear in the training arrays returned by :meth:`inputs` / :meth:`responses`.
    """

    def __init__(self, cells: Iterable[MortalityCell]):
        ordered = sorted(cells, key=lambda c: (c.year, c.age))
        self._index = {}
        for c in ordered:
            if (c.age, c.year) in self._index:
                raise ValueError(f"duplicate cell for age {c.age}, year {c.year}")
            self._index[(c.age, c.year)] = c
        self._cells = tuple(ordered)
        n_zero = sum(1 for c in ordered if not c.trainable)
        if n_zero:
            warnings.warn(f"{n_zero} zero-death cell(s) flagged; they are excluded from training", stacklevel=2)

    @property
    def cells(self) -> tuple[MortalityCell, ...]:
        return self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MortalityTable):
            return NotImplemented
        return [(c.age, c.year, c.deaths, c.exposure) for c in self._cells] == [
            (c.age, c.year, c.deaths, c.exposure) for c in other._cells
        ]

    def training_cells(self) -> tuple[MortalityCell, ...]:
        return tuple(c for c in self._cells if c.trainable)

    def inputs(self) -> np.ndarray:
        """(N, 2) array of (age, year) pairs for the trainable cells."""
        return np.array([[c.age, c.year] for c in self.training_cells()], dtype=float).reshape(-1, 2)

    def responses(self) -> np.ndarray:
        """(N,) array of log rates for the trainable cells."""
        return np.array([c.log_rate for c in self.training_cells()], dtype=float)

    def ages(self) -> np.ndarray:
        return np.array(sorted({c.age for c in self._cells}), dtype=int)

    def cell(self, age: int, year: int) -> MortalityCell:
        try:
            return self._index[(age, year)]
        except KeyError:
            raise KeyError(f"no cell for age {age}, year {year}") from None

    def has_cell(self, age: int, year: int) -> bool:
        return (age, year) in self._index


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

    def contains(self, age: int, year: int) -> bool:
        return any(y0 <= year <= y1 and a0 <= age <= a1 for (y0, y1), (a0, a1) in self.blocks)


def subset(table: MortalityTable, spec: SubsetSpec) -> MortalityTable:
    """Restrict a table to the union of the spec's blocks.

    Raises if no cell falls inside the spec (degenerate subset).
    """
    kept = [c for c in table if spec.contains(c.age, c.year)]
    if not kept:
        raise ValueError("subset selects no cells")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-death cells were already flagged on load
        return MortalityTable(kept)


def load_table(path: Union[str, Path]) -> MortalityTable:
    """Read a mortality table from CSV.

    The header must name ``age, year, deaths, exposure`` (case-insensitive,
    any order); an optional ``log_rate`` column is ignored and recomputed.
    """
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV: missing header row") from None
        names = [h.strip().lower() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in names]
        if missing:
            raise ValueError(f"missing required column(s): {', '.join(missing)}")
        idx = {c: names.index(c) for c in REQUIRED_COLUMNS}

        cells = []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not v.strip() for v in row):
                continue
            try:
                age = _parse_int(row[idx["age"]], "age")
                year = _parse_int(row[idx["year"]], "year")
                deaths = float(row[idx["deaths"]])
                exposure = float(row[idx["exposure"]])
                cells.append(MortalityCell(age=age, year=year, deaths=deaths, exposure=exposure))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"row {rownum}: {exc}") from None
        return MortalityTable(cells)


def _parse_int(text: str, name: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(value)


def save_table(table: MortalityTable, path: Union[str, Path]) -> None:
    """Write a table as CSV with the log rate at 6 decimal places.

    Deaths and exposure use shortest round-trip formatting so that
    ``load_table(save_table(t)) == t`` exactly.
    """
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["age", "year", "deaths", "exposure", "log_rate"])
        for c in table:
            log_rate = f"{c.log_rate:.6f}" if c.trainable else ""
            writer.writerow([c.age, c.year, repr(c.deaths), repr(c.exposure), log_rate])


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
