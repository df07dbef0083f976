"""``promised_rel_error_by_alias`` computed from arrays, against the per-row
loop it replaced (kept here verbatim as the oracle)."""

import math
from typing import Dict

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.aqua.system import promised_rel_error_by_alias  # noqa: E402
from repro.engine import Column, ColumnType, Schema, Table  # noqa: E402


def loop_promised_rel_error_by_alias(result: Table) -> Dict[str, float]:
    promised: Dict[str, float] = {}
    for name in result.schema.names:
        if not name.endswith("_error"):
            continue
        alias = name[: -len("_error")]
        if alias not in result.schema:
            continue
        halfwidths = result.column(name)
        estimates = result.column(alias)
        worst = -1.0
        for i in range(result.num_rows):
            halfwidth = float(halfwidths[i])
            try:
                value = float(estimates[i])
            except (TypeError, ValueError):
                continue
            if not (math.isfinite(halfwidth) and math.isfinite(value)):
                continue
            if value == 0.0:
                continue
            worst = max(worst, halfwidth / abs(value))
        if worst >= 0.0:
            promised[alias] = worst
    return promised


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300]),
)
VALUES = {
    ColumnType.FLOAT: FLOATS,
    ColumnType.INT: st.integers(min_value=-(2**40), max_value=2**40),
    ColumnType.STR: st.one_of(
        st.sampled_from(["", "x", "0", "2.5", "-3", "nan", "inf", " 7 ", "1e3"]),
        st.text(max_size=4),
    ),
}


@st.composite
def answer_tables(draw):
    """Estimate columns of any type, each with or without a FLOAT
    ``_error`` column, an orphan ``_error`` column, and a string key."""
    rows = draw(st.integers(min_value=0, max_value=12))

    def column(ctype):
        return draw(st.lists(VALUES[ctype], min_size=rows, max_size=rows))

    columns = [Column("k", ColumnType.STR)]
    data = {"k": column(ColumnType.STR)}
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        ctype = draw(st.sampled_from(sorted(VALUES, key=str)))
        columns.append(Column(f"a{i}", ctype))
        data[f"a{i}"] = column(ctype)
        if draw(st.booleans()):
            columns.append(Column(f"a{i}_error", ColumnType.FLOAT))
            data[f"a{i}_error"] = column(ColumnType.FLOAT)
    columns.append(Column("orphan_error", ColumnType.FLOAT))
    data["orphan_error"] = column(ColumnType.FLOAT)
    return Table.from_columns(Schema(columns), **data)


@settings(deadline=None, max_examples=80)
@given(answer_tables())
def test_array_form_equals_the_row_loop(table):
    assert promised_rel_error_by_alias(table) == (
        loop_promised_rel_error_by_alias(table)
    )
