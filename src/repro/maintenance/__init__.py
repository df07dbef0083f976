"""One-pass construction and incremental maintenance (Section 6)."""

from .base import MaintainedSample
from .congress import CongressMaintainer
from .datacube import CountDataCube
from .onepass import (
    construct_from_cube,
    construct_one_pass,
    maintainer_for,
    subsample_to_budget,
)
from .topup import construct_congress_topup

__all__ = [
    "CongressMaintainer",
    "CountDataCube",
    "MaintainedSample",
    "construct_congress_topup",
    "construct_from_cube",
    "construct_one_pass",
    "maintainer_for",
    "subsample_to_budget",
]
