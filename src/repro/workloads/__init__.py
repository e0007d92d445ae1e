"""Workload models: the Facebook/ETC statistical model and trace
record/replay/fitting."""

from .facebook import (
    ETC_BURST,
    ETC_CONCURRENCY,
    ETC_KEY_RATE,
    ETC_MEAN_KEY_BYTES,
    ETC_MEAN_VALUE_BYTES,
    ETC_ZIPF_EXPONENT,
    FacebookWorkload,
)
from .traces import KeyTrace

__all__ = [
    "ETC_BURST",
    "ETC_CONCURRENCY",
    "ETC_KEY_RATE",
    "ETC_MEAN_KEY_BYTES",
    "ETC_MEAN_VALUE_BYTES",
    "ETC_ZIPF_EXPONENT",
    "FacebookWorkload",
    "KeyTrace",
]
