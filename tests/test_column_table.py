"""The one column table that holds the scan cells, the scan boundary and the
bound experiment's points."""

import math

import pytest

from twomode import (
    BoundaryPoint,
    BoundPoint,
    ColumnTable,
    Regime,
    SamplerConfig,
    ScanCell,
    bound_experiment,
    scan_ordering_3d,
    scan_ordering_slice,
)

TABLES = {
    "bound points": lambda: bound_experiment(SamplerConfig(seed=3, count=40)).points,
    "raw bound points": lambda: bound_experiment(
        SamplerConfig(seed=3, count=4, mode="raw_standard_form")).points,
    "slice cells": lambda: scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 12)[0],
    "3d boundary": lambda: scan_ordering_3d((1.5, 5.0), (-2.0, 2.0), (1.0, 9.0), 6)[1],
    "empty boundary": lambda: scan_ordering_slice(1.0, (1.0, 1.2), (1.0, 1.5), 4)[1],
}
ROWS = {"bound points": BoundPoint, "raw bound points": BoundPoint, "slice cells": ScanCell,
        "3d boundary": BoundaryPoint, "empty boundary": BoundaryPoint}


@pytest.mark.parametrize("use", TABLES)
def test_table_holds_python_scalars_and_iterates_its_rows(use):
    table = TABLES[use]()
    assert table.row is ROWS[use]
    assert (len(table) == 0) == (use == "empty boundary")
    assert len(table.columns) == len(table.row._fields)
    for column in table.columns:
        assert type(column) is list and len(column) == len(table)
        assert {type(value) for value in column} <= {int, float, bool, Regime}
    rows = [table.row(*(column[k] for column in table.columns)) for k in range(len(table))]
    assert list(table) == rows


def test_tables_compare_every_value():
    cells = scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 12)[0]
    again = scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 12)[0]
    assert any(math.isnan(m) for m in again.columns[3])  # distinct NaN objects match
    assert cells == again
    assert cells.__eq__(3) is NotImplemented and (cells == 3) is False
    moved = [list(column) for column in again.columns]
    moved[4][-1] = math.nextafter(moved[4][-1], math.inf)
    assert cells != ColumnTable(ScanCell, moved)
    assert cells != ColumnTable(BoundaryPoint, again.columns)
    assert cells != ColumnTable(ScanCell, [column[:-1] for column in again.columns])
