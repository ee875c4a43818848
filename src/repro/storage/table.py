"""Tables: named collections of equal-length columns."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.storage.column import Column
from repro.storage.types import ColumnType


class Table:
    """A named set of columns with consistent actual/nominal row counts."""

    def __init__(self, name: str, nominal_rows: Optional[int] = None):
        self.name = name
        self._columns: Dict[str, Column] = {}
        self._nominal_rows = nominal_rows
        self._actual_rows: Optional[int] = None

    def __repr__(self) -> str:
        return "<Table {} cols={} rows={} nominal={}>".format(
            self.name, len(self._columns), self.actual_rows, self.nominal_rows
        )

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    # -- construction ---------------------------------------------------

    def add_column(self, name: str, ctype: ColumnType, values: np.ndarray) -> Column:
        """Add a typed column of raw values."""
        column = Column(self.name, name, ctype, values,
                        nominal_rows=self._nominal_rows)
        return self._attach(column)

    def add_string_column(self, name: str, strings) -> Column:
        """Add a dictionary-encoded string column."""
        column = Column.from_strings(self.name, name, strings,
                                     nominal_rows=self._nominal_rows)
        return self._attach(column)

    def adopt_column(self, column: Column) -> Column:
        """Attach an externally constructed :class:`Column` — epoch
        snapshots build appended columns directly so dictionary-encoded
        codes (and compression choices) carry over unchanged."""
        return self._attach(column)

    def _attach(self, column: Column) -> Column:
        if column.name in self._columns:
            raise ValueError("duplicate column {}".format(column.key))
        if self._actual_rows is None:
            self._actual_rows = column.actual_rows
        elif column.actual_rows != self._actual_rows:
            raise ValueError(
                "column {} has {} rows, table {} has {}".format(
                    column.name, column.actual_rows, self.name, self._actual_rows
                )
            )
        self._columns[column.name] = column
        return column

    # -- access -----------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError("no column {} in table {}".format(name, self.name))

    @property
    def columns(self) -> List[Column]:
        return list(self._columns.values())

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    @property
    def actual_rows(self) -> int:
        return self._actual_rows if self._actual_rows is not None else 0

    @property
    def nominal_rows(self) -> int:
        if self._nominal_rows is not None:
            return self._nominal_rows
        return self.actual_rows

    @property
    def nominal_bytes(self) -> int:
        """Paper-scale footprint of the whole table."""
        return sum(c.nominal_bytes for c in self._columns.values())
