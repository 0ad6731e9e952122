"""Dynamic-static partitioning from temporal offset variance.

Splats whose predicted position offsets vary over time are dynamic; the rest
form the static background and render canonically. Scores are evaluated on a
stratified grid of timestamps with input noise forced off, so the partition
never depends on the annealing state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deform import OffsetClamps, predict_offsets_batch
from .gaussians import InvalidInputError

DEFAULT_TAU = 2e-5
DEFAULT_SAMPLES = 16
DEFAULT_WARMUP = 3000
DEFAULT_REPEAT = 2000


@dataclass(frozen=True)
class Partition:
    """Disjoint dynamic/static index sets covering all splats."""

    dynamic_indices: np.ndarray
    static_indices: np.ndarray
    scores: np.ndarray

    @property
    def n(self):
        return self.scores.shape[0]

    def dynamic_mask(self):
        mask = np.zeros(self.n, dtype=bool)
        mask[self.dynamic_indices] = True
        return mask

    @staticmethod
    def from_mask(dynamic, scores):
        idx = np.arange(dynamic.shape[0])
        return Partition(dynamic_indices=idx[dynamic], static_indices=idx[~dynamic],
                         scores=scores)


def all_dynamic_partition(n):
    """Before the first evaluation every splat is treated as dynamic."""
    return Partition(dynamic_indices=np.arange(n),
                     static_indices=np.arange(0),
                     scores=np.full(n, np.inf))


def deformation_variance(offset_samples):
    """Per-splat temporal variance score of position offsets.

    offset_samples has shape (T, N, 3) (or (T, 3) for one splat): the mean
    squared distance of the T samples from their temporal mean.
    """
    samples = np.asarray(offset_samples, dtype=float)
    if samples.ndim == 2:
        samples = samples[:, None, :]
    if samples.shape[0] < 2:
        raise InvalidInputError("need at least two offset samples")
    centered = samples - samples.mean(axis=0, keepdims=True)
    scores = np.mean(np.sum(centered**2, axis=-1), axis=0)
    return scores if scores.size > 1 else float(scores[0])


def classify(scores, tau=DEFAULT_TAU) -> Partition:
    """Strict-greater threshold on the variance scores."""
    if tau < 0:
        raise InvalidInputError("tau must be >= 0")
    scores = np.asarray(scores, dtype=float)
    return Partition.from_mask(scores > tau, scores)


def evaluate_partition_schedule(iteration, warmup=DEFAULT_WARMUP, repeat=DEFAULT_REPEAT):
    """True at the warmup iteration and every `repeat` iterations after."""
    if iteration < warmup:
        return False
    return (iteration - warmup) % repeat == 0


def compute_scores(field, positions, quats, log_scales, clamps: OffsetClamps,
                   n_samples=DEFAULT_SAMPLES):
    """Variance scores from noise-free offset predictions on a stratified
    timestamp grid over [0, 1]."""
    ts = (np.arange(n_samples) + 0.5) / n_samples
    samples = np.empty((n_samples, positions.shape[0], 3))
    for i, t in enumerate(ts):
        offsets, _ = predict_offsets_batch(field, positions, quats, log_scales,
                                           t, 0.0, None, clamps)
        samples[i] = offsets[:, 0:3]
    return deformation_variance(samples)


def write_partition_dump(path, partition: Partition):
    """One `index,score,label` line per splat, for offline inspection."""
    mask = partition.dynamic_mask()
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(partition.n):
            label = "dynamic" if mask[i] else "static"
            fh.write(f"{i},{partition.scores[i]:.12g},{label}\n")
