"""Dynamic-static partitioning from temporal offset variance.

Splats whose predicted position offsets vary over time are dynamic; the rest
form the static background and render canonically. Scores are evaluated on a
stratified grid of timestamps with input noise forced off, so the partition
never depends on the annealing state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deform import predict_offsets_batch
from .gaussians import InvalidInputError


@dataclass(frozen=True)
class Partition:
    """Which splats are dynamic (a bool mask over all splats; the rest are
    static)."""

    dynamic: np.ndarray

    @property
    def dynamic_indices(self):
        return np.flatnonzero(self.dynamic)


def all_dynamic_partition(n):
    """Before the first evaluation every splat is treated as dynamic."""
    return Partition(dynamic=np.ones(n, dtype=bool))


def deformation_variance(offset_samples):
    """Per-splat temporal variance score of position offsets.

    offset_samples has shape (T, N, 3): the (N,) mean squared distance of
    each splat's T samples from their temporal mean.
    """
    samples = np.asarray(offset_samples, dtype=float)
    if samples.shape[0] < 2:
        raise InvalidInputError("need at least two offset samples")
    centered = samples - samples.mean(axis=0, keepdims=True)
    return np.mean(np.sum(centered**2, axis=-1), axis=0)


def classify(scores, tau) -> Partition:
    """Strict-greater threshold on the variance scores."""
    if tau < 0:
        raise InvalidInputError("tau must be >= 0")
    return Partition(dynamic=np.asarray(scores, dtype=float) > tau)


def evaluate_partition_schedule(iteration, warmup, repeat):
    """True at the warmup iteration and every `repeat` iterations after."""
    if iteration < warmup:
        return False
    return (iteration - warmup) % repeat == 0


def compute_scores(field, positions, quats, log_scales, n_samples):
    """Variance scores from noise-free offset predictions on a stratified
    timestamp grid over [0, 1]."""
    ts = (np.arange(n_samples) + 0.5) / n_samples
    samples = np.empty((n_samples, positions.shape[0], 3))
    for i, t in enumerate(ts):
        offsets, _ = predict_offsets_batch(field, positions, quats, log_scales,
                                           t, 0.0, None)
        samples[i] = offsets[:, 0:3]
    return deformation_variance(samples)
