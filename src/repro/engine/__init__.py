"""In-memory column-store relational engine.

This package is the "back-end DBMS" substrate of the reproduction: the Aqua
middleware (:mod:`repro.aqua`) registers base relations and sample relations
here, and the rewriting strategies (:mod:`repro.rewrite`) produce logical
queries that this engine executes.
"""

from .aggregates import (
    Aggregate,
    AggregateFunction,
    AggregateState,
    finalize_state,
    grouped_reduce,
    merge_states,
    partial_reduce,
)
from .catalog import Catalog, CatalogError
from .dates import date_to_ordinal, format_date, ordinal_to_date, parse_date
from .executor import ParallelConfig, ParallelExecutor, execute, execute_on_table
from .expressions import BinaryOp, Col, Expression, Func, Lit, UnaryOp, col, lit
from .groupby import (
    GroupByPartial,
    distinct,
    finalize_group_by,
    group_by,
    group_ids_for,
    merge_group_partials,
    partial_group_by,
)
from .partition import Partition, Partitioner
from .io import infer_schema, read_csv, write_csv
from .join import hash_join
from .predicates import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from .query import Projection, Query, QueryError
from .render import render_expression, render_predicate, render_query
from .schema import Column, ColumnType, Schema, SchemaError
from .sql import SqlError, parse_query
from .stream import (
    BOUNDED_AGGREGATES,
    STREAM_BOUND_METHODS,
    StreamChunk,
    chunk_bounds,
    expansion_estimate,
    stream_group_partials,
    stream_halfwidth,
)
from .table import Table, TableBuilder

__all__ = [
    "Aggregate",
    "AggregateFunction",
    "AggregateState",
    "And",
    "BOUNDED_AGGREGATES",
    "Between",
    "BinaryOp",
    "Catalog",
    "CatalogError",
    "Col",
    "Column",
    "ColumnType",
    "Comparison",
    "Expression",
    "Func",
    "GroupByPartial",
    "InList",
    "Lit",
    "Not",
    "Or",
    "ParallelConfig",
    "ParallelExecutor",
    "Partition",
    "Partitioner",
    "Predicate",
    "Projection",
    "Query",
    "QueryError",
    "Schema",
    "STREAM_BOUND_METHODS",
    "SchemaError",
    "SqlError",
    "StreamChunk",
    "Table",
    "TableBuilder",
    "TruePredicate",
    "UnaryOp",
    "chunk_bounds",
    "col",
    "date_to_ordinal",
    "distinct",
    "execute",
    "execute_on_table",
    "expansion_estimate",
    "finalize_group_by",
    "finalize_state",
    "format_date",
    "group_by",
    "group_ids_for",
    "grouped_reduce",
    "merge_group_partials",
    "merge_states",
    "partial_group_by",
    "partial_reduce",
    "hash_join",
    "infer_schema",
    "lit",
    "ordinal_to_date",
    "parse_date",
    "parse_query",
    "read_csv",
    "render_expression",
    "render_predicate",
    "render_query",
    "stream_group_partials",
    "stream_halfwidth",
    "write_csv",
]
