"""Logical/physical plan IR: one operator tree for every execution path.

The package splits query execution into four stages (see
``docs/ARCHITECTURE.md``):

* :mod:`repro.plan.logical` -- the immutable operator tree (``Scan``,
  ``Filter``, ``Project``, ``Join``, ``GroupBy``, ``ScaleUp``, ``Sort``,
  ``Limit``) with traversal, output-schema inference, and rendering;
* :mod:`repro.plan.planner` -- lowering of :class:`~repro.engine.query.Query`
  and rewrite-strategy :class:`~repro.rewrite.plan.RewrittenPlan` specs into
  logical trees;
* :mod:`repro.plan.optimizer` -- pure ``Plan -> Plan`` rewrite rules
  (constant folding, filter fusion, predicate pushdown, projection pruning)
  under a fixpoint driver;
* :mod:`repro.plan.physical` -- execution of a logical tree against the
  engine catalog, serial or partition-parallel, with per-operator spans.
"""

from .canonical import (
    CanonicalQuery,
    canonicalize,
    canonicalize_expression,
    canonicalize_predicate,
    canonicalize_query,
    predicate_conjuncts,
    predicate_fingerprint,
)
from .cost import CostModel, TableStats, plan_cost, plan_rows
from .logical import (
    Filter,
    GroupBy,
    Join,
    Limit,
    Plan,
    PlanError,
    Project,
    Ratio,
    ScaleUp,
    Scan,
    Sort,
    output_columns,
    render_plan,
    walk,
)
from .optimizer import (
    DEFAULT_RULES,
    fold_constants,
    fuse_filters,
    optimize,
    prune_projections,
    push_down_predicates,
    transform,
)
from .physical import execute_plan
from .planner import lower_query, lower_rewritten

__all__ = [
    "CanonicalQuery",
    "CostModel",
    "DEFAULT_RULES",
    "Filter",
    "GroupBy",
    "Join",
    "Limit",
    "Plan",
    "PlanError",
    "Project",
    "Ratio",
    "ScaleUp",
    "Scan",
    "Sort",
    "TableStats",
    "canonicalize",
    "canonicalize_expression",
    "canonicalize_predicate",
    "canonicalize_query",
    "execute_plan",
    "fold_constants",
    "fuse_filters",
    "lower_query",
    "lower_rewritten",
    "optimize",
    "output_columns",
    "plan_cost",
    "plan_rows",
    "predicate_conjuncts",
    "predicate_fingerprint",
    "prune_projections",
    "push_down_predicates",
    "render_plan",
    "transform",
    "walk",
]
