"""Sampling primitives: Bernoulli helpers, strata, rounding."""

from .bernoulli import BernoulliSampler, subsample_exact, thin_to_probability
from .groups import (
    GroupKey,
    all_groupings,
    finest_group_ids,
    group_counts,
    group_members,
    make_key,
    project_key,
    projected_counts,
)
from .rounding import floor_round, largest_remainder_round, randomized_round
from .stratified import GID_COLUMN, SF_COLUMN, StratifiedSample, Stratum

__all__ = [
    "BernoulliSampler",
    "GID_COLUMN",
    "GroupKey",
    "SF_COLUMN",
    "StratifiedSample",
    "Stratum",
    "all_groupings",
    "finest_group_ids",
    "floor_round",
    "group_counts",
    "group_members",
    "largest_remainder_round",
    "make_key",
    "project_key",
    "projected_counts",
    "randomized_round",
    "subsample_exact",
    "thin_to_probability",
]
