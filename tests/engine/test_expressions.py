"""Unit tests for the scalar expression AST."""

import numpy as np
import pytest

from repro.engine import (
    Between,
    BinaryOp,
    Col,
    ColumnType,
    Comparison,
    Func,
    Lit,
    Schema,
    Table,
    UnaryOp,
    col,
    lit,
)
from repro.engine.predicates import _COMPARATORS


@pytest.fixture
def table():
    schema = Schema.of(("x", ColumnType.FLOAT), ("y", ColumnType.FLOAT))
    return Table.from_columns(schema, x=[1.0, 2.0, 3.0], y=[10.0, 20.0, 0.0])


class TestBasics:
    def test_col(self, table):
        assert Col("x").evaluate(table).tolist() == [1.0, 2.0, 3.0]

    def test_lit_broadcast(self, table):
        assert Lit(7).evaluate(table).tolist() == [7, 7, 7]

    def test_referenced_columns(self):
        expr = (col("a") + col("b")) * col("a")
        assert expr.referenced_columns() == ("a", "b")

    def test_lit_references_nothing(self):
        assert lit(1).referenced_columns() == ()


class TestArithmetic:
    def test_add(self, table):
        assert (col("x") + col("y")).evaluate(table).tolist() == [11.0, 22.0, 3.0]

    def test_sub(self, table):
        assert (col("y") - col("x")).evaluate(table).tolist() == [9.0, 18.0, -3.0]

    def test_mul_by_scalar(self, table):
        assert (col("x") * 100).evaluate(table).tolist() == [100.0, 200.0, 300.0]

    def test_rmul(self, table):
        assert (100 * col("x")).evaluate(table).tolist() == [100.0, 200.0, 300.0]

    def test_div(self, table):
        assert (col("y") / col("x")).evaluate(table).tolist() == [10.0, 10.0, 0.0]

    def test_div_by_zero_is_inf_not_error(self, table):
        result = (col("x") / col("y")).evaluate(table)
        assert result[2] == np.inf

    def test_neg(self, table):
        assert (-col("x")).evaluate(table).tolist() == [-1.0, -2.0, -3.0]

    def test_nested_precedence_via_composition(self, table):
        expr = col("x") * (col("y") + 1)
        assert expr.evaluate(table).tolist() == [11.0, 42.0, 3.0]

    def test_unsupported_binary_op_rejected(self):
        with pytest.raises(ValueError):
            BinaryOp("%", col("x"), col("y"))

    def test_unsupported_unary_op_rejected(self):
        with pytest.raises(ValueError):
            UnaryOp("+", col("x"))


class TestFunc:
    def test_abs(self, table):
        expr = Func("abs", col("x") - 2)
        assert expr.evaluate(table).tolist() == [1.0, 0.0, 1.0]

    def test_sqrt(self, table):
        expr = Func("sqrt", col("y"))
        np.testing.assert_allclose(
            expr.evaluate(table), [np.sqrt(10), np.sqrt(20), 0.0]
        )

    def test_unknown_func_rejected(self):
        with pytest.raises(ValueError, match="unsupported function"):
            Func("exp", col("x"))

    def test_func_referenced_columns(self):
        assert Func("abs", col("z")).referenced_columns() == ("z",)


class TestLiteralOperands:
    """A literal operand is one 0-d value, not a table-length column: every
    result is byte for byte, dtype included, the ``np.full`` column's."""

    CASES = [("i", 2), ("f", 1.5), ("s", "bb")]

    @pytest.fixture
    def typed(self):
        schema = Schema.of(
            ("i", ColumnType.INT), ("f", ColumnType.FLOAT), ("s", ColumnType.STR)
        )
        return Table.from_columns(
            schema, i=[3, -1, 7], f=[0.5, 2.0, -4.25], s=["a", "bb", "c"]
        )

    @staticmethod
    def _same(got, want):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("column, value", CASES)
    def test_arithmetic_matches_the_full_column(self, typed, column, value):
        values = typed.column(column)
        full = np.full(typed.num_rows, value)
        ops = {"+": np.add}
        if column != "s":
            ops.update({"-": np.subtract, "*": np.multiply})
        for op, ufunc in ops.items():
            for left, right, want in (
                (Col(column), Lit(value), ufunc(values, full)),
                (Lit(value), Col(column), ufunc(full, values)),
                (Lit(value), Lit(value), ufunc(full, full)),
            ):
                self._same(BinaryOp(op, left, right).evaluate(typed), want)
        if column != "s":
            self._same(
                BinaryOp("/", Col(column), Lit(value)).evaluate(typed),
                np.divide(np.asarray(values, dtype=np.float64), full),
            )
            self._same(
                BinaryOp("/", Lit(value), Lit(value)).evaluate(typed),
                np.divide(np.asarray(full, dtype=np.float64), full),
            )

    @pytest.mark.parametrize("column, value", CASES)
    def test_comparisons_match_the_full_column(self, typed, column, value):
        values = typed.column(column)
        full = np.full(typed.num_rows, value)
        shifted = BinaryOp("+", Col(column), Lit(value))
        for op, ufunc in _COMPARATORS.items():
            for left, right, want in (
                (Col(column), Lit(value), ufunc(values, full)),
                (Lit(value), Lit(value), ufunc(full, full)),
                (shifted, Col(column), ufunc(np.add(values, full), values)),
            ):
                self._same(Comparison(op, left, right).evaluate(typed), want)
        self._same(
            Between(Col(column), Lit(value), Lit(value)).evaluate(typed),
            (values >= full) & (values <= full),
        )
