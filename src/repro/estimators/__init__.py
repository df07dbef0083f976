"""Unbiased estimators over stratified samples and probabilistic bounds."""

from .errors import (
    DEFAULT_CONFIDENCE,
    ErrorBound,
    chebyshev_from_variance,
    chebyshev_halfwidth,
    hoeffding_halfwidth_mean,
    hoeffding_halfwidth_stratified_sum,
    hoeffding_halfwidth_sum,
    normal_halfwidth,
    normal_quantile,
    standard_error,
)
from .moments import SampleMoments
from .point import GroupEstimate, estimate, estimate_single

__all__ = [
    "DEFAULT_CONFIDENCE",
    "ErrorBound",
    "GroupEstimate",
    "chebyshev_from_variance",
    "chebyshev_halfwidth",
    "estimate",
    "estimate_single",
    "hoeffding_halfwidth_mean",
    "hoeffding_halfwidth_stratified_sum",
    "hoeffding_halfwidth_sum",
    "normal_halfwidth",
    "normal_quantile",
    "SampleMoments",
    "standard_error",
]
