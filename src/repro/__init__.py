"""Congressional samples for approximate answering of group-by queries.

A full reproduction of Acharya, Gibbons & Poosala (SIGMOD 2000): the
House / Senate / Basic Congress / Congress sample allocation strategies, the
four query-rewriting strategies, one-pass construction and incremental
maintenance, the Aqua middleware they live in, and the paper's experimental
workloads.

Quickstart::

    from repro import AquaSystem, generate_census, CensusConfig

    aqua = AquaSystem(space_budget=5000)
    aqua.register_table("census", generate_census(CensusConfig()))
    answer = aqua.answer(
        "SELECT st, avg(sal) AS avg_sal FROM census GROUP BY st"
    )
    print(answer.result.to_dicts()[:3])

See ``examples/`` for runnable walkthroughs and ``DESIGN.md`` for the
paper-to-module map.
"""

from .aqua import (
    ApproximateAnswer,
    AquaError,
    AquaSystem,
    ComparisonReport,
    CubeExplorer,
    ForeignKey,
    GuardPolicy,
    GuardReport,
    Measure,
    QueryLog,
    RefreshPolicy,
    StarSchema,
    Synopsis,
    SynopsisHealth,
    build_join_synopsis,
    materialize_star_join,
)
from .errors import (
    GuardViolationError,
    QueryTooDeepError,
    StaleSynopsisError,
    SynopsisCorruptError,
    SynopsisMissingError,
    TableNotRegisteredError,
)
from .core import (
    Allocation,
    BasicCongress,
    Congress,
    GroupPreferences,
    GroupingCriterion,
    House,
    MultiCriteriaCongress,
    RangeBiasCriterion,
    Senate,
    VarianceCriterion,
    WorkloadCongress,
    allocate_from_table,
    build_sample,
)
from .engine import (
    Catalog,
    Column,
    ColumnType,
    Schema,
    Table,
    execute,
    parse_query,
)
from .estimators import GroupEstimate, estimate, estimate_single
from .maintenance import (
    CongressMaintainer,
    CountDataCube,
    construct_from_cube,
    construct_one_pass,
    construct_congress_topup,
)
from .metrics import GroupByError, groupby_error, mean_errors
from .obs import (
    MetricsRegistry,
    QueryTrace,
    Span,
    Telemetry,
    Tracer,
)
from .rewrite import (
    Integrated,
    KeyNormalized,
    NestedIntegrated,
    Normalized,
    recommend_strategy,
    strategy_by_name,
)
from .sampling import StratifiedSample
from .synthetic import (
    CensusConfig,
    LineitemConfig,
    generate_census,
    generate_lineitem,
    qg0_set,
    qg2,
    qg3,
)

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "ApproximateAnswer",
    "AquaError",
    "AquaSystem",
    "BasicCongress",
    "Catalog",
    "CensusConfig",
    "ComparisonReport",
    "Column",
    "ColumnType",
    "Congress",
    "CongressMaintainer",
    "CountDataCube",
    "CubeExplorer",
    "ForeignKey",
    "GroupByError",
    "GroupEstimate",
    "GroupPreferences",
    "GroupingCriterion",
    "GuardPolicy",
    "GuardReport",
    "GuardViolationError",
    "QueryTooDeepError",
    "House",
    "Integrated",
    "KeyNormalized",
    "LineitemConfig",
    "MetricsRegistry",
    "MultiCriteriaCongress",
    "Measure",
    "NestedIntegrated",
    "Normalized",
    "QueryLog",
    "QueryTrace",
    "RangeBiasCriterion",
    "RefreshPolicy",
    "Schema",
    "Senate",
    "Span",
    "StaleSynopsisError",
    "StarSchema",
    "StratifiedSample",
    "Synopsis",
    "SynopsisCorruptError",
    "SynopsisHealth",
    "SynopsisMissingError",
    "Table",
    "TableNotRegisteredError",
    "Telemetry",
    "Tracer",
    "VarianceCriterion",
    "WorkloadCongress",
    "allocate_from_table",
    "build_join_synopsis",
    "build_sample",
    "construct_congress_topup",
    "construct_from_cube",
    "construct_one_pass",
    "estimate",
    "estimate_single",
    "execute",
    "generate_census",
    "generate_lineitem",
    "groupby_error",
    "materialize_star_join",
    "mean_errors",
    "parse_query",
    "qg0_set",
    "qg2",
    "qg3",
    "recommend_strategy",
    "strategy_by_name",
]
