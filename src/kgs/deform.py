"""Time-conditioned deformation prediction.

A small fully connected predictor maps (encoded canonical position,
quaternion, log-scale, noisy time encoding) to per-splat offsets
(dx, d_rot, d_scale). Dynamic splats additionally aggregate their nearest
dynamic neighbors' offsets (spatial coherence) and add a learned per-splat
residual from a second head conditioned on a feature vector.

Forward passes cache enough to run the exact analytic backward; the renderer
drives both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import InvalidInputError, NumericalError

OFFSET_DIM = 9  # dx(3) + d_rot(3) + d_scale(3)

KNN_BLOCK = 32  # query rows per brute-force block: the distance temporary is KNN_BLOCK x N

# The FieldParams arrays the optimizer updates: predictor, fine head, features.
FIELD_PARAMS = ("w1", "b1", "w2", "b2", "fine_w1", "fine_b1", "fine_w2", "fine_b2",
                "features")


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def positional_encoding(t, bands):
    """Interleaved (sin, cos) frequency encoding of a scalar in [0,1]."""
    if bands < 1:
        raise InvalidInputError("band count must be >= 1")
    freqs = (2.0 ** np.arange(bands)) * np.pi
    arg = freqs * float(t)
    out = np.empty(2 * bands)
    out[0::2] = np.sin(arg)
    out[1::2] = np.cos(arg)
    return out


def encode_coords(x, bands):
    """Per-coordinate frequency encoding: (N,3) -> (N, 6*bands)."""
    x = np.asarray(x, dtype=float)
    freqs = (2.0 ** np.arange(bands)) * np.pi
    arg = x[..., :, None] * freqs                        # (N, 3, bands)
    enc = np.empty(x.shape[:-1] + (3, 2 * bands))
    enc[..., 0::2] = np.sin(arg)
    enc[..., 1::2] = np.cos(arg)
    return enc.reshape(x.shape[:-1] + (6 * bands,))


def encode_coords_backward(x, bands, d_enc):
    """Chain d(encoding)/dx: d_enc (N, 6*bands) -> (N, 3)."""
    x = np.asarray(x, dtype=float)
    freqs = (2.0 ** np.arange(bands)) * np.pi
    arg = x[..., :, None] * freqs
    d = d_enc.reshape(x.shape[:-1] + (3, 2 * bands))
    dsin = d[..., 0::2] * np.cos(arg) * freqs
    dcos = d[..., 1::2] * (-np.sin(arg)) * freqs
    return (dsin + dcos).sum(axis=-1)


# ---------------------------------------------------------------------------
# noise schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSchedule:
    """Annealed input noise: linear decay with a sine warm-up."""

    sigma_init: float
    sigma_final: float
    k_max: int
    w_delay: float = 1.0
    k_delay: int = 0

    def __post_init__(self):
        if self.sigma_init < self.sigma_final or self.sigma_final < 0:
            raise InvalidInputError("need sigma_init >= sigma_final >= 0")
        if not (0.0 < self.w_delay <= 1.0):
            raise InvalidInputError("w_delay must be in (0, 1]")
        if self.k_delay > self.k_max:
            raise InvalidInputError("k_delay must be <= k_max")

    def sigma(self, k):
        frac = np.clip(k / max(self.k_max, 1), 0.0, 1.0)
        base = self.sigma_init * (1.0 - frac) + self.sigma_final * frac
        if k < self.k_delay:
            w = self.w_delay + (1.0 - self.w_delay) * np.sin(0.5 * np.pi * k / self.k_delay)
        else:
            w = 1.0
        return w * base


# ---------------------------------------------------------------------------
# predictor parameters
# ---------------------------------------------------------------------------

@dataclass
class FieldParams:
    """Weights of the offset predictor, the fine-residual head, and the
    per-splat dynamic feature table."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    fine_w1: np.ndarray
    fine_b1: np.ndarray
    fine_w2: np.ndarray
    fine_b2: np.ndarray
    features: np.ndarray        # (N, feature_dim)
    time_bands: int
    pos_bands: int

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def param_items(self):
        """(name, array) pairs of everything the optimizer updates."""
        return [(name, getattr(self, name)) for name in FIELD_PARAMS]


def field_input_dim(pos_bands, time_bands):
    return 6 * pos_bands + 4 + 3 + 2 * time_bands


def init_field_params(rng, n_gaussians, hidden=64, time_bands=6, pos_bands=4,
                      feature_dim=16) -> FieldParams:
    """He-initialized hidden layer, zero output heads (deformation starts at
    the canonical scene), zero features."""
    d_in = field_input_dim(pos_bands, time_bands)
    d_fine = feature_dim + 2 * time_bands
    w1 = rng.normal(0.0, np.sqrt(2.0 / d_in), (hidden, d_in))
    fine_w1 = rng.normal(0.0, np.sqrt(2.0 / d_fine), (hidden, d_fine))
    return FieldParams(
        w1=w1, b1=np.zeros(hidden),
        w2=np.zeros((OFFSET_DIM, hidden)), b2=np.zeros(OFFSET_DIM),
        fine_w1=fine_w1, fine_b1=np.zeros(hidden),
        fine_w2=np.zeros((OFFSET_DIM, hidden)), fine_b2=np.zeros(OFFSET_DIM),
        features=np.zeros((n_gaussians, feature_dim)),
        time_bands=time_bands, pos_bands=pos_bands)


def mlp_forward(x, w1, b1, w2, b2, layer_name="predictor"):
    h_pre = x @ w1.T + b1
    h = np.maximum(h_pre, 0.0)
    out = h @ w2.T + b2
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise NumericalError(f"{layer_name}: non-finite output in row {int(np.argmax(bad))}")
    return out, (x, h_pre, h)


def mlp_backward(cache, w1, w2, d_out):
    x, h_pre, h = cache
    d_w2 = d_out.T @ h
    d_b2 = d_out.sum(axis=0)
    d_h = d_out @ w2
    d_hpre = d_h * (h_pre > 0)
    d_w1 = d_hpre.T @ x
    d_b1 = d_hpre.sum(axis=0)
    d_x = d_hpre @ w1
    return d_w1, d_b1, d_w2, d_b2, d_x


# ---------------------------------------------------------------------------
# offset clamps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffsetClamps:
    max_dx_norm: float = 3.0
    max_dr_norm: float = np.pi
    max_ds_abs: float = 5.0


def clamp_offsets(raw, clamps: OffsetClamps):
    """Bound raw (N,9) offsets; returns (clamped, cache) for the backward."""
    dx, dr, ds = raw[:, 0:3], raw[:, 3:6], raw[:, 6:9]
    dx_c, dx_cache = _clamp_norm(dx, clamps.max_dx_norm)
    dr_c, dr_cache = _clamp_norm(dr, clamps.max_dr_norm)
    ds_c = np.clip(ds, -clamps.max_ds_abs, clamps.max_ds_abs)
    ds_mask = np.abs(ds) < clamps.max_ds_abs
    out = np.concatenate([dx_c, dr_c, ds_c], axis=1)
    return out, (dx_cache, dr_cache, ds_mask)


def clamp_offsets_backward(cache, d_clamped):
    dx_cache, dr_cache, ds_mask = cache
    d_dx = _clamp_norm_backward(dx_cache, d_clamped[:, 0:3])
    d_dr = _clamp_norm_backward(dr_cache, d_clamped[:, 3:6])
    d_ds = d_clamped[:, 6:9] * ds_mask
    return np.concatenate([d_dx, d_dr, d_ds], axis=1)


def _clamp_norm(v, limit):
    norms = np.linalg.norm(v, axis=1)
    over = norms > limit
    factor = np.where(over, limit / np.where(over, norms, 1.0), 1.0)
    return v * factor[:, None], (v, norms, over, factor)


def _clamp_norm_backward(cache, d_out):
    v, norms, over, factor = cache
    d_v = d_out * factor[:, None]
    if np.any(over):
        # projection Jacobian of v -> limit * v/|v| on the clamped rows
        safe = np.where(over, norms, 1.0)
        vhat = v / safe[:, None]
        radial = np.sum(d_out * vhat, axis=1)
        d_v = np.where(over[:, None],
                       factor[:, None] * (d_out - radial[:, None] * vhat),
                       d_v)
    return d_v


# ---------------------------------------------------------------------------
# predictor forward/backward
# ---------------------------------------------------------------------------

def predict_offsets_batch(params: FieldParams, positions, quats, log_scales, t,
                          noise_sigma, rng, clamps: OffsetClamps):
    """Predict clamped (N,9) offsets for all splats at time t.

    Noise perturbs the time encoding only, drawn per splat. Deterministic
    for a fixed rng state, and drawn only when noise_sigma > 0 so noise-free
    runs leave the rng untouched.
    """
    n = positions.shape[0]
    enc_t = positional_encoding(t, params.time_bands)
    gamma = np.broadcast_to(enc_t, (n, enc_t.size)).copy()
    if noise_sigma > 0.0:
        if rng is None:
            raise InvalidInputError("noise_sigma > 0 requires an rng")
        gamma += rng.normal(0.0, noise_sigma, (n, enc_t.size))
    enc_x = encode_coords(positions, params.pos_bands)
    inputs = np.concatenate([enc_x, quats, log_scales, gamma], axis=1)
    raw, mlp_cache = mlp_forward(inputs, params.w1, params.b1, params.w2,
                                 params.b2, "predictor")
    clamped, clamp_cache = clamp_offsets(raw, clamps)
    cache = {"mlp": mlp_cache, "clamp": clamp_cache, "positions": positions,
             "pos_bands": params.pos_bands, "time_bands": params.time_bands}
    return clamped, cache


def predict_offsets_backward(params: FieldParams, cache, d_offsets):
    """Backward of predict_offsets_batch.

    Returns (d_w1, d_b1, d_w2, d_b2, d_positions, d_quats, d_log_scales);
    gradients flow into the canonical parameters through the encoder inputs.
    """
    d_raw = clamp_offsets_backward(cache["clamp"], d_offsets)
    d_w1, d_b1, d_w2, d_b2, d_inputs = mlp_backward(cache["mlp"], params.w1,
                                                    params.w2, d_raw)
    n_enc = 6 * cache["pos_bands"]
    d_positions = encode_coords_backward(cache["positions"], cache["pos_bands"],
                                         d_inputs[:, :n_enc])
    d_quats = d_inputs[:, n_enc:n_enc + 4]
    d_log_scales = d_inputs[:, n_enc + 4:n_enc + 7]
    return d_w1, d_b1, d_w2, d_b2, d_positions, d_quats, d_log_scales


def fine_offsets_batch(params: FieldParams, feature_rows, t, clamps: OffsetClamps):
    """Fine residual offsets for the dynamic subset from its feature rows."""
    n = feature_rows.shape[0]
    enc_t = positional_encoding(t, params.time_bands)
    inputs = np.concatenate([feature_rows,
                             np.broadcast_to(enc_t, (n, enc_t.size))], axis=1)
    raw, mlp_cache = mlp_forward(inputs, params.fine_w1, params.fine_b1,
                                 params.fine_w2, params.fine_b2, "fine head")
    clamped, clamp_cache = clamp_offsets(raw, clamps)
    return clamped, {"mlp": mlp_cache, "clamp": clamp_cache,
                     "feature_dim": feature_rows.shape[1]}


def fine_offsets_backward(params: FieldParams, cache, d_offsets):
    d_raw = clamp_offsets_backward(cache["clamp"], d_offsets)
    d_w1, d_b1, d_w2, d_b2, d_inputs = mlp_backward(
        cache["mlp"], params.fine_w1, params.fine_w2, d_raw)
    d_features = d_inputs[:, :cache["feature_dim"]]
    return d_w1, d_b1, d_w2, d_b2, d_features


# ---------------------------------------------------------------------------
# neighborhood aggregation
# ---------------------------------------------------------------------------

def build_neighbor_table(positions, k):
    """(N, k') neighbor indices for every row of positions, self excluded.

    Exact brute-force search in blocks of KNN_BLOCK rows: k' = min(k, N - 1)
    nearest first; equal squared distances (summed x, y, z) go to the lower
    index. With k = 0 the table has no columns, and with a single row it
    degenerates to the row itself; either way callers fall back to the
    splat's own offsets.
    """
    positions = np.asarray(positions, dtype=float)
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        raise InvalidInputError(f"non-finite position in row {int(np.argmax(bad))}")
    n = positions.shape[0]
    if n == 0 or k == 0:
        return np.zeros((n, 0), dtype=int)
    if n == 1:
        return np.zeros((1, 1), dtype=int)
    k_eff = min(k, n - 1)
    table = np.empty((n, k_eff), dtype=int)
    for start in range(0, n, KNN_BLOCK):
        stop = min(start + KNN_BLOCK, n)
        d2 = np.square(positions[start:stop, 0, None] - positions[:, 0])
        for axis in range(1, positions.shape[1]):
            d2 += np.square(positions[start:stop, axis, None] - positions[:, axis])
        # self is NaN: it partitions last and fails every <= test
        d2[np.arange(stop - start), np.arange(start, stop)] = np.nan
        kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1, None]
        r, c = np.nonzero(d2 <= kth)  # row-major, so r is sorted
        order = np.lexsort((c, d2[r, c], r))  # by row, distance, index
        first = np.searchsorted(r, np.arange(stop - start))
        table[start:stop] = c[order][first[:, None] + np.arange(k_eff)]
    return table


def coarse_offsets_batch(offsets, neighbor_table):
    """Neighborhood means of (M,9) offsets under an (M,k) neighbor table; a
    table with k = 0 keeps each row's own offsets."""
    if neighbor_table.shape[1] == 0:
        return offsets.copy()
    return offsets[neighbor_table].mean(axis=1)


def coarse_offsets_backward(neighbor_table, m, d_coarse):
    """Scatter d_coarse back onto the raw offsets of the dynamic set."""
    d_offsets = np.zeros((m, OFFSET_DIM))
    k = neighbor_table.shape[1]
    if k == 0:
        return d_coarse.copy()
    np.add.at(d_offsets, neighbor_table.reshape(-1),
              np.repeat(d_coarse / k, k, axis=0))
    return d_offsets
