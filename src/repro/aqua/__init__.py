"""The Aqua approximate-query-answering middleware (Section 2)."""

from .join_synopsis import (
    ForeignKey,
    StarSchema,
    build_join_synopsis,
    materialize_star_join,
)
from .guard import (
    PROVENANCE_COLUMN,
    PROVENANCE_EXACT,
    PROVENANCE_REPAIRED,
    PROVENANCE_ROLLUP,
    PROVENANCE_SYNOPSIS,
    GuardPolicy,
    GuardReport,
    RefreshPolicy,
    SynopsisHealth,
    observe_guard,
    validate_sample,
)
from ..engine.executor import ParallelConfig, ParallelExecutor
from ..obs import MetricsRegistry, QueryTrace, Telemetry, Tracer
from .cache import AnswerCache, CacheStats, LRUCache, LRUStats
from .olap import CubeExplorer, Measure
from .portfolio import (
    CostErrorModel,
    PortfolioChoice,
    PortfolioMember,
    SynopsisPortfolio,
    SynopsisSpec,
    default_portfolio_specs,
)
from .reuse import ReuseSnapshot, RollupIndex, RollupIndexStats
from .stream import StreamingAnswer, stream_answers
from .synopsis import Synopsis
from .system import ApproximateAnswer, AquaError, AquaSystem, ComparisonReport
from .workload_log import QueryLog

__all__ = [
    "AnswerCache",
    "ApproximateAnswer",
    "AquaError",
    "AquaSystem",
    "CacheStats",
    "ComparisonReport",
    "LRUCache",
    "LRUStats",
    "ParallelConfig",
    "ParallelExecutor",
    "GuardPolicy",
    "GuardReport",
    "MetricsRegistry",
    "QueryTrace",
    "RefreshPolicy",
    "SynopsisHealth",
    "Telemetry",
    "Tracer",
    "observe_guard",
    "PROVENANCE_COLUMN",
    "PROVENANCE_SYNOPSIS",
    "PROVENANCE_REPAIRED",
    "PROVENANCE_ROLLUP",
    "PROVENANCE_EXACT",
    "validate_sample",
    "ReuseSnapshot",
    "RollupIndex",
    "RollupIndexStats",
    "CostErrorModel",
    "CubeExplorer",
    "Measure",
    "PortfolioChoice",
    "PortfolioMember",
    "QueryLog",
    "SynopsisPortfolio",
    "SynopsisSpec",
    "default_portfolio_specs",
    "ForeignKey",
    "StarSchema",
    "StreamingAnswer",
    "Synopsis",
    "stream_answers",
    "build_join_synopsis",
    "materialize_star_join",
]
