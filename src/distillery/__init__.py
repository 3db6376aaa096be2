"""Teacher-student distillation with privileged information.

Small differentiable classifiers, temperature-softened soft labels, the
imitation-weighted training objective, and an experiment harness around
them (synthetic problems, downscaled MNIST, noisy CIFAR-10, multitask
regression).
"""

__version__ = "0.1.0"

from .core import RngStream, cross_entropy, log_sum_exp, one_hot, softmax
from .distill import (
    Dataset,
    DatasetHeader,
    DistillConfig,
    Triplet,
    clean_subset,
    distill_student,
    soft_labels,
    train_teacher,
)
from .models import Arch, Model, Packed, TrainConfig

__all__ = [
    "__version__",
    "RngStream",
    "softmax",
    "cross_entropy",
    "log_sum_exp",
    "one_hot",
    "Triplet",
    "Dataset",
    "DatasetHeader",
    "DistillConfig",
    "clean_subset",
    "train_teacher",
    "soft_labels",
    "distill_student",
    "Arch",
    "Model",
    "Packed",
    "TrainConfig",
]
