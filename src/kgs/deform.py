"""Time-conditioned deformation prediction.

A small fully connected predictor maps (encoded canonical position,
quaternion, log-scale, noisy time encoding) to per-splat offsets
(dx, d_rot, d_scale). Dynamic splats additionally aggregate their nearest
dynamic neighbors' offsets (spatial coherence) and add a learned per-splat
residual from a second head conditioned on a feature vector.

Forward passes cache enough to run the exact analytic backward; the renderer
drives both.

Constants that no run varies bound the offsets: the norm of dx by
MAX_DX_NORM (world units), the norm of the so(3) residual d_rot by
MAX_DR_NORM (a half turn) and each log-scale offset by MAX_DS_ABS. The
input-noise weight rises from NOISE_W_DELAY at iteration 0 to 1 along a
quarter sine over the schedule's k_delay iterations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import InvalidInputError, NumericalError

OFFSET_DIM = 9  # dx(3) + d_rot(3) + d_scale(3)

# Neighbor search (build_neighbor_table): query rows per block. The distance
# temporary is KNN_BLOCK x (rows in the block's slab along the sweep axis).
KNN_BLOCK = 32

MAX_DX_NORM = 3.0
MAX_DR_NORM = np.pi
MAX_DS_ABS = 5.0
NOISE_W_DELAY = 0.2

# The FieldParams arrays the optimizer updates: predictor, fine head, features.
FIELD_PARAMS = ("w1", "b1", "w2", "b2", "fine_w1", "fine_b1", "fine_w2", "fine_b2",
                "features")


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def encode_coords(x, bands):
    """Interleaved (sin, cos) frequency encoding of each coordinate:
    (..., d) -> (..., 2 * d * bands)."""
    x = np.asarray(x, dtype=float)
    freqs = (2.0 ** np.arange(bands)) * np.pi
    arg = x[..., None] * freqs                           # (..., d, bands)
    enc = np.empty(arg.shape[:-1] + (2 * bands,))
    enc[..., 0::2] = np.sin(arg)
    enc[..., 1::2] = np.cos(arg)
    return enc.reshape(x.shape[:-1] + (2 * x.shape[-1] * bands,))


def encode_coords_backward(x, bands, d_enc):
    """Chain d(encoding)/dx: d_enc (..., 2 * d * bands) -> (..., d)."""
    x = np.asarray(x, dtype=float)
    freqs = (2.0 ** np.arange(bands)) * np.pi
    arg = x[..., None] * freqs
    d = d_enc.reshape(arg.shape[:-1] + (2 * bands,))
    dsin = d[..., 0::2] * np.cos(arg) * freqs
    dcos = d[..., 1::2] * (-np.sin(arg)) * freqs
    return (dsin + dcos).sum(axis=-1)


# ---------------------------------------------------------------------------
# noise schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSchedule:
    """Annealed input noise: sigma_init decays linearly to 0 at k_max, with
    a sine warm-up of its weight from NOISE_W_DELAY to 1 over k_delay."""

    sigma_init: float
    k_max: int
    k_delay: int

    def sigma(self, k):
        frac = np.clip(k / max(self.k_max, 1), 0.0, 1.0)
        base = self.sigma_init * (1.0 - frac)
        if k < self.k_delay:
            w = NOISE_W_DELAY + (1.0 - NOISE_W_DELAY) * np.sin(0.5 * np.pi * k / self.k_delay)
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

    def param_items(self):
        """(name, array) pairs of everything the optimizer updates."""
        return [(name, getattr(self, name)) for name in FIELD_PARAMS]


def field_input_dim(pos_bands, time_bands):
    return 6 * pos_bands + 4 + 3 + 2 * time_bands


def init_field_params(rng, n_gaussians, hidden, time_bands, pos_bands,
                      feature_dim) -> FieldParams:
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


# ---------------------------------------------------------------------------
# offset heads: a ReLU MLP, then bounds on its offsets
# ---------------------------------------------------------------------------

def clamp_offsets(raw):
    """Bound raw (N,9) offsets by MAX_DX_NORM, MAX_DR_NORM and MAX_DS_ABS;
    returns (clamped, cache) for the backward."""
    dx, dr, ds = raw[:, 0:3], raw[:, 3:6], raw[:, 6:9]
    dx_c, dx_cache = _clamp_norm(dx, MAX_DX_NORM)
    dr_c, dr_cache = _clamp_norm(dr, MAX_DR_NORM)
    ds_c = np.clip(ds, -MAX_DS_ABS, MAX_DS_ABS)
    ds_mask = np.abs(ds) < MAX_DS_ABS
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


def offset_head(x, w1, b1, w2, b2, layer_name):
    """Clamped (N,9) offsets of a one-hidden-layer ReLU MLP over input rows
    x; returns (offsets, cache) for offset_head_backward."""
    h = np.maximum(x @ w1.T + b1, 0.0)
    raw = h @ w2.T + b2
    bad = ~np.isfinite(raw).all(axis=1)
    if bad.any():
        raise NumericalError(f"{layer_name}: non-finite output in row {int(np.argmax(bad))}")
    offsets, clamp_cache = clamp_offsets(raw)
    return offsets, (x, h, clamp_cache)


def offset_head_backward(cache, w1, w2, d_offsets):
    """Returns (d_w1, d_b1, d_w2, d_b2, d_x)."""
    x, h, clamp_cache = cache
    d_out = clamp_offsets_backward(clamp_cache, d_offsets)
    d_w2 = d_out.T @ h
    d_b2 = d_out.sum(axis=0)
    d_h = d_out @ w2
    d_hpre = d_h * (h > 0)    # h > 0 exactly where its pre-activation is
    d_w1 = d_hpre.T @ x
    d_b1 = d_hpre.sum(axis=0)
    d_x = d_hpre @ w1
    return d_w1, d_b1, d_w2, d_b2, d_x


# ---------------------------------------------------------------------------
# predictor forward/backward
# ---------------------------------------------------------------------------

def predict_offsets_batch(params: FieldParams, positions, quats, log_scales, t,
                          noise_sigma, rng):
    """Predict clamped (N,9) offsets for all splats at time t.

    Noise perturbs the time encoding only, drawn per splat. Deterministic
    for a fixed rng state, and drawn only when noise_sigma > 0 so noise-free
    runs leave the rng untouched.
    """
    n = positions.shape[0]
    enc_t = encode_coords([t], params.time_bands)
    gamma = np.broadcast_to(enc_t, (n, enc_t.size)).copy()
    if noise_sigma > 0.0:
        if rng is None:
            raise InvalidInputError("noise_sigma > 0 requires an rng")
        gamma += rng.normal(0.0, noise_sigma, (n, enc_t.size))
    enc_x = encode_coords(positions, params.pos_bands)
    inputs = np.concatenate([enc_x, quats, log_scales, gamma], axis=1)
    offsets, head = offset_head(inputs, params.w1, params.b1, params.w2, params.b2,
                                "predictor")
    return offsets, {"head": head, "positions": positions}


def predict_offsets_backward(params: FieldParams, cache, d_offsets):
    """Backward of predict_offsets_batch.

    Returns (d_w1, d_b1, d_w2, d_b2, d_positions, d_quats, d_log_scales);
    gradients flow into the canonical parameters through the encoder inputs.
    """
    d_w1, d_b1, d_w2, d_b2, d_inputs = offset_head_backward(cache["head"], params.w1,
                                                            params.w2, d_offsets)
    n_enc = 6 * params.pos_bands
    d_positions = encode_coords_backward(cache["positions"], params.pos_bands,
                                         d_inputs[:, :n_enc])
    d_quats = d_inputs[:, n_enc:n_enc + 4]
    d_log_scales = d_inputs[:, n_enc + 4:n_enc + 7]
    return d_w1, d_b1, d_w2, d_b2, d_positions, d_quats, d_log_scales


def fine_offsets_batch(params: FieldParams, feature_rows, t):
    """Fine residual offsets for the dynamic subset from its feature rows."""
    n = feature_rows.shape[0]
    enc_t = encode_coords([t], params.time_bands)
    inputs = np.concatenate([feature_rows,
                             np.broadcast_to(enc_t, (n, enc_t.size))], axis=1)
    return offset_head(inputs, params.fine_w1, params.fine_b1, params.fine_w2,
                       params.fine_b2, "fine head")


def fine_offsets_backward(params: FieldParams, cache, d_offsets):
    """Returns (d_w1, d_b1, d_w2, d_b2, d_feature_rows)."""
    d_w1, d_b1, d_w2, d_b2, d_inputs = offset_head_backward(
        cache, params.fine_w1, params.fine_w2, d_offsets)
    return d_w1, d_b1, d_w2, d_b2, d_inputs[:, :params.features.shape[1]]


# ---------------------------------------------------------------------------
# neighborhood aggregation
# ---------------------------------------------------------------------------

def build_neighbor_table(positions, k):
    """(N, k') neighbor indices for every row of positions, self excluded.

    k' = min(k, N - 1), nearest first; equal squared distances go to the
    lower index. Squared distances are summed x, then y, then z, so they are
    the same floats an all-pairs search computes, and so is the table. With
    k = 0, or with a single row, each row is its own only neighbor: the table
    is the one column arange(N), and the neighborhood mean of a row is the
    row itself.

    Rows are sorted along their widest axis and taken KNN_BLOCK at a time.
    A block's candidates are the slab of rows within r of it along that
    axis; r starts at the mean row spacing along the axis, carries over from
    block to block, and doubles until every query's k-th candidate squared
    distance is below its squared margin to the nearest row outside the slab
    (every row outside is at least that far along the axis alone, and
    rounding keeps the order of the summed distances), or until the slab
    holds every row.
    """
    positions = np.asarray(positions, dtype=float)
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        raise InvalidInputError(f"non-finite position in row {int(np.argmax(bad))}")
    n = positions.shape[0]
    if n <= 1 or k == 0:
        return np.arange(n)[:, None]
    k_eff = min(k, n - 1)
    axis = int(np.argmax(np.ptp(positions, axis=0)))
    order = np.argsort(positions[:, axis], kind="stable")
    cols = np.ascontiguousarray(positions[order].T)
    key = cols[axis]
    r = float(key[-1] - key[0]) / n
    table = np.empty((n, k_eff), dtype=int)
    for start in range(0, n, KNN_BLOCK):
        stop = min(start + KNN_BLOCK, n)
        q, qkey = cols[:, start:stop, None], key[start:stop]
        while True:
            a0 = int(np.searchsorted(key, key[start] - r, "left"))
            a1 = int(np.searchsorted(key, key[stop - 1] + r, "right"))
            if a1 - a0 > k_eff:
                d2 = np.square(q[0] - cols[0, a0:a1])
                for ax in (1, 2):
                    d2 += np.square(q[ax] - cols[ax, a0:a1])
                # self is NaN: it partitions last and fails every <= test
                d2[np.arange(stop - start), np.arange(start - a0, stop - a0)] = np.nan
                kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1]
                # every row outside the slab is at least as far along the
                # sweep axis as the nearest one on its side
                below = qkey - key[a0 - 1] if a0 > 0 else np.inf
                above = key[a1] - qkey if a1 < n else np.inf
                if (kth < np.square(np.minimum(below, above))).all():
                    break
            r = 2.0 * r or np.inf  # a start of 0 (a subnormal extent) takes every row
        flat = np.flatnonzero(d2 <= kth[:, None])  # row-major: rows ascending
        rr, col = np.divmod(flat, d2.shape[1])
        cand = order[a0 + col]
        # nearest first, equal distances to the lower index
        pick = np.lexsort((cand, d2.ravel()[flat], rr))
        first = np.searchsorted(rr, np.arange(stop - start))
        table[order[start:stop]] = cand[pick][first[:, None] + np.arange(k_eff)]
    return table


def coarse_offsets_batch(offsets, neighbor_table):
    """Neighborhood means of (M,9) offsets under an (M,k) neighbor table. The
    one-column table of the rows themselves, build_neighbor_table's table for
    k = 0, keeps each row's own offsets exactly."""
    return offsets[neighbor_table].mean(axis=1)


def coarse_offsets_backward(neighbor_table, m, d_coarse):
    """Scatter d_coarse back onto the raw offsets of the dynamic set."""
    k = neighbor_table.shape[1]
    idx = neighbor_table.reshape(-1)
    share = np.repeat(d_coarse / k, k, axis=0)
    return np.stack([np.bincount(idx, weights=share[:, j], minlength=m)
                     for j in range(share.shape[1])], axis=1)
