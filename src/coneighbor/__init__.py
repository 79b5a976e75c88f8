"""Streaming temporal-graph link prediction with hashed neighbor sketches.

Per-node fixed-width slot arrays stand in for neighbor sets; counting
matching slots between two rows gives a fast common-neighbor estimate that
feeds a small sequence encoder for dynamic link prediction.
"""

from .config import RunConfig
from .history import HistoryStore
from .memory import ExactNeighborLog, HashTableMemory, TemporalDiverseMemory
from .model import LinkPredictor
from .synthetic import TriadicStreamConfig, triadic_closure_stream

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "TriadicStreamConfig", "triadic_closure_stream",
    "HashTableMemory", "TemporalDiverseMemory", "ExactNeighborLog",
    "HistoryStore", "LinkPredictor", "__version__",
]
