"""Satellite image time series classification with a selective state-space
temporal encoder, dual classification/reconstruction heads, and a
self-contained numpy reverse-mode autodiff core."""

from .autodiff import Tensor, backward, no_grad
from .data import (SitsBatch, SitsDataset, SitsSample, generate_synthetic,
                   load_dataset, pad_batch, sample_timesteps, save_dataset)
from .losses import (LossConfig, LossReport, classification_loss, combined_loss,
                     positional_weights, reconstruction_loss)
from .metrics import ConfusionMatrix, scores
from .model import ModelConfig, ModelOutput, SitsClassifier, count_parameters
from .ssm import MambaBlock, discretize_zoh, kernel_convolve, scan_recurrence
from .trainer import Adam, TrainConfig, evaluate, train

__version__ = "0.1.0"
