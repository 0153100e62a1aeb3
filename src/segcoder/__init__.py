"""Segmented long-document encoder with per-class label attention for
multi-label code assignment, built on a small reverse-mode autodiff core.
"""

from . import kernels
from .corpus import LabelSet, Note, SyntheticSpec, generate_synthetic, load_corpus
from .metrics import EvalReport, PredictionSet, best_threshold, evaluate
from .model import CodingModel, new_model
from .tensor import Tensor, no_grad
from .tokenizer import TokenSequence, Vocab, tokenize
from .training import TrainConfig, train_loop
from .transformer import EncoderConfig, count_parameters

__version__ = "0.1.0"

__all__ = [
    "kernels",
    "LabelSet", "Note", "SyntheticSpec", "generate_synthetic", "load_corpus",
    "EvalReport", "PredictionSet", "best_threshold", "evaluate",
    "CodingModel", "new_model",
    "Tensor", "no_grad",
    "TokenSequence", "Vocab", "tokenize",
    "TrainConfig", "train_loop",
    "EncoderConfig", "count_parameters",
    "__version__",
]
