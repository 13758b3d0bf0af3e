"""Branch prediction: decoupled BTB + gshare PHT, per-context RAS and
global history, and the confidence estimator that gates TME forks."""

from .btb import BranchTargetBuffer
from .confidence import (
    CONFIDENCE_KINDS,
    ConfidenceEstimator,
    OnesConfidenceEstimator,
    SaturatingConfidenceEstimator,
    make_confidence,
)
from .pht import PatternHistoryTable
from .predictor import BranchPredictor, Prediction
from .ras import ReturnAddressStack

__all__ = [
    "BranchTargetBuffer",
    "CONFIDENCE_KINDS",
    "ConfidenceEstimator",
    "OnesConfidenceEstimator",
    "SaturatingConfidenceEstimator",
    "make_confidence",
    "PatternHistoryTable",
    "BranchPredictor",
    "Prediction",
    "ReturnAddressStack",
]
