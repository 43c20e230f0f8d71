"""aerotext: classify aviation operator records from narrative text.

The pipeline ingests operator/narrative CSV records, annotates operators
into Commercial/Military/Private via an external mapping, preprocesses
narratives into fixed-length id sequences, trains one of four
from-scratch sequence models (sRNN, LSTM, BLSTM, CNN) with a hand-derived
backward per layer, and emits the full evaluation suite (classification
report, confusion matrix, macro averages, training curves) as plot-ready
data.
"""

__version__ = "0.1.0"

from .corpus import LabeledRecord, OperatorClass, OperatorMapping, RawRecord, SplitDataset
from .models import ModelConfig
from .textprep import TokenSequence, Vocabulary
from .training import ModelCheckpoint, TrainConfig

__all__ = [
    "LabeledRecord",
    "ModelCheckpoint",
    "ModelConfig",
    "OperatorClass",
    "OperatorMapping",
    "RawRecord",
    "SplitDataset",
    "TokenSequence",
    "TrainConfig",
    "Vocabulary",
    "__version__",
]
