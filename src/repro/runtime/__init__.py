"""Streaming runtime for deploying compiled online schemes.

The deployment half of the compile/load/deploy lifecycle: stateful operators
(:class:`OnlineOperator`), per-key partitioned operators
(:class:`KeyedOperator`), lockstep pipelines (:class:`StreamPipeline`),
windowing helpers, and restart-safe checkpointing
(:mod:`repro.runtime.checkpoint`).
"""

from ..core.scheme import BACKENDS
from . import sources
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .keyed import KeyedOperator
from .stream import (
    OnlineOperator,
    StreamPipeline,
    compare_with_offline,
    scan,
    sliding,
    tumbling,
)

__all__ = [
    "BACKENDS",
    "CheckpointError",
    "KeyedOperator",
    "OnlineOperator",
    "sources",
    "StreamPipeline",
    "compare_with_offline",
    "load_checkpoint",
    "save_checkpoint",
    "scan",
    "sliding",
    "tumbling",
]
