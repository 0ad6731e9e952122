"""Motion blur as the exposure's second moment, batched over rows, with its
analytic backward.

A splat that moves at constant velocity v through an exposure of length
blur_dt sweeps its mean uniformly along blur_dt * v. The average of its
Gaussian over the sweep has the second moment cov + (blur_dt^2 / 12) v v^T,
and the renderer draws the Gaussian of that moment. The moment term needs
no motion frame, so it is continuous in v everywhere and vanishes as
v -> 0, and at blur_dt = 0 (eval renders) it adds exactly 0.

The names kinematic_frames_cached and kinematic_frames_backward are kept
for tracing: the traced benchmark times the renderer's calls under them.
"""
from __future__ import annotations

import numpy as np


def kinematic_frames_cached(velocity, blur_dt):
    """Moment terms (blur_dt^2 / 12) v v^T, (N, 3) velocities -> (N, 3, 3);
    plus the cache of kinematic_frames_backward."""
    v = np.asarray(velocity, dtype=float)
    weight = blur_dt**2 / 12.0
    return weight * v[:, :, None] * v[:, None, :], (v, weight)


def kinematic_frames_backward(cache, d_term):
    """Gradient wrt the velocities from the gradient of the moment terms:
    weight (D + D^T) v per row."""
    v, weight = cache
    d_sym = d_term + np.swapaxes(d_term, -1, -2)
    return weight * np.einsum("nij,nj->ni", d_sym, v)
