"""Streaming temporal-graph link prediction with hashed neighbor sketches.

Per-node fixed-width slot arrays stand in for neighbor sets; counting
matching slots between two rows gives a fast common-neighbor estimate that
feeds a small sequence encoder for dynamic link prediction.
"""

from .config import RunConfig
from .data import (CsvLayout, SplitSpec, TemporalGraph,
                   chronological_split, load_events, sample_negative,
                   select_inductive_nodes)
from .history import HistoryStore, NeighborSequence, NeighborSequenceBatch
from .memory import (CoNeighborFeature, ExactNeighborLog, HashTableMemory,
                     TemporalDiverseMemory)
from .metrics import auc_roc, average_precision
from .model import (AdamState, GradientTape, LinkPredictor, ModelDims,
                    SequenceFeatures, adam_init, adam_step, bce_loss,
                    init_params, layer_norm, time_encode)
from .synthetic import TriadicStreamConfig, random_stream, triadic_closure_stream

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "CsvLayout", "SplitSpec", "TemporalGraph",
    "chronological_split", "load_events", "sample_negative",
    "select_inductive_nodes", "HistoryStore", "NeighborSequence",
    "NeighborSequenceBatch", "CoNeighborFeature", "ExactNeighborLog",
    "HashTableMemory", "TemporalDiverseMemory",
    "auc_roc", "average_precision", "AdamState",
    "GradientTape", "LinkPredictor", "ModelDims", "SequenceFeatures",
    "adam_init", "adam_step", "bce_loss", "init_params", "layer_norm",
    "time_encode", "TriadicStreamConfig", "random_stream",
    "triadic_closure_stream", "__version__",
]
