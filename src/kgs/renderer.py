"""Differentiable software rasterizer for the full pipeline.

Forward: deform the dynamic set, gate on the partition, blur each dynamic
covariance over the exposure, project with the local affine pinhole
Jacobian, bin each splat into exactly the pixel tiles (8 x 8 px by default)
whose rectangle of pixel centres its footprint {q <= FOOTPRINT_CHI2}
reaches (a splat is "touched" when it is kept for some tile), and composite
front-to-back per pixel. The backward pass is fully analytic and mirrors
every stage. Binning takes the depth-ordered splats BIN_BLOCK at a time, so
its candidate (tile, splat) arrays stay a block's size.

The blur is the moment term of kinematics.py, (blur_dt^2 / 12) v v^T added
to the predicted covariance, called under the names kinematic_frames_cached
and kinematic_frames_backward, which are kept for tracing. The anisotropy
term of the loss sees the predicted scales, so it does not penalize the
blur. An eval-mode render has zero exposure, so the term adds exactly 0 and
the predicted covariance is drawn as it is. It also keeps no backward
state: the pose stage drops the head and clamp caches once the offsets
exist.

A tile is composited in depth-ordered slices of CHUNK (256) splats by one
chunk step. The forward carries transmittance from slice to slice. In
train mode the chunk step writes each slice's footprint weights G (pixels
x k) and its transmittance scan T (pixels x (k + 1), entering
transmittance first) to fresh arrays, and the tape keeps them: 16 B per
pixel x splat pair plus 8 B per pixel per slice, 3.2-3.7 MiB on a frame
of perfbench's blur_train (48 x 48). The backward walks the slices back
to front. From G and T it derives alpha, 1 - alpha, the processed mask and
the blend weights with the forward's own ufuncs, so they are the
forward's bit for bit, and it carries the summed contributions of the
splats behind each splat; it never runs the chunk step. An eval-mode
render keeps no G or T.

A tile's pixels are a grid of columns and rows, so the chunk step takes
each splat's offsets per column (dx) and per row (dy) and builds the
footprint exponent h = -0.5 q from per-column and per-row terms, with the
conic coefficients scaled by -0.5 first. It adds the same products in the
same order as at one pixel, and scaling by a power of two commutes with
rounding, so h is exactly -0.5 times the per-pixel q; only three of its
operations are pixels x splats. The backward sums d q over rows and over
columns and weights the sums by dx and dy: only the cross moment needs a
full-size product.

Every pixels x splats array but a train tape's G and T is a C-contiguous
view of a per-thread workspace (see _views), so a slice allocates no other.
The chunk step computes in place: G is exp(h) times the footprint mask,
and one scan buffer holds [t_in, 1 - alpha] for the running product. The
backward divides by 1 - alpha and uses one buffer for d_alpha G and then
for d_q.

Tiles run one after another, in tile order, on the calling thread.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .decomposition import Partition
from .deform import (
    FIELD_PARAMS,
    coarse_offsets_backward,
    coarse_offsets_batch,
    fine_offsets_backward,
    fine_offsets_batch,
    predict_offsets_backward,
    predict_offsets_batch,
)
from .gaussians import (
    ALPHA_MAX,
    FOOTPRINT_CHI2,
    FOOTPRINT_RADIUS,
    TRANSMITTANCE_CUTOFF,
    Camera,
    InvalidInputError,
    NumericalError,
    covariance_from_matrix,
    covariance_matrix_backward,
    dexp_map_so3,
    drotmat_dquat,
    exp_map_so3,
    project,
    project_backward,
    quat_normalize,
    quat_to_rotmat,
    sigmoid,
)
from .kinematics import kinematic_frames_backward, kinematic_frames_cached
from .lod import min_scale_per_gaussian
from .scene import SCENE_PARAMS

# Splats per depth-ordered slice of a tile: the compositor's temporaries are
# pixels x CHUNK, whatever a tile's depth. With RenderSettings.tile this was
# chosen by timing tile {8, 16} x CHUNK {64, 128, 256} on eval and train
# frames.
CHUNK = 256
# Depth-ordered splats per block of tile binning: the candidate (tile, splat)
# arrays are BIN_BLOCK splats' worth, whatever the frame's splat count.
BIN_BLOCK = 512

_SCRATCH = threading.local()    # per-thread compositor workspace, see _views


@dataclass(frozen=True)
class RenderSettings:
    background: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tile: int = 8
    kin_enabled: bool = True
    coarse_fine: bool = True
    l_max: int = 3              # LOD levels (lod.py)

    def __post_init__(self):
        # render clips the image to [0, 1] and render_backward does not, so
        # a background channel outside [0, 1] would give wrong gradients
        for i, v in enumerate(np.asarray(self.background, dtype=float).reshape(-1)):
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"RenderSettings: background channel {i} is {v}, "
                                        f"not in [0, 1]")


@dataclass
class RenderedFrame:
    image: np.ndarray          # (H,W,3), clamped to [0,1]
    transmittance: np.ndarray  # (H,W) remaining light per pixel
    importance: np.ndarray     # (N,) summed blend weights per splat


@dataclass
class RenderTape:
    """What render_backward reads. An eval-mode tape keeps only tiles,
    touched, cam, settings, n and transmittance; pose, proj and slices are
    None, and its render built no backward state."""
    pose: dict | None
    proj: dict | None
    tiles: list                # per tile, splat indices in depth order
    touched: np.ndarray        # (N,) splats kept for some tile
    cam: Camera
    settings: RenderSettings
    n: int
    slices: list | None        # per tile, per slice (G, T); see _chunk_step
    transmittance: np.ndarray  # (H,W) final transmittance


@dataclass
class ParamGrads:
    grads: dict                 # parameter name -> gradient, SCENE_PARAMS + FIELD_PARAMS
    densify_norm: np.ndarray
    densify_count: np.ndarray

    def scene_items(self):
        return [(name, self.grads[name]) for name in SCENE_PARAMS]

    def field_items(self):
        return [(name, self.grads[name]) for name in FIELD_PARAMS]

    def add_(self, other):
        for name, g in self.grads.items():
            g += other.grads[name]
        self.densify_norm += other.densify_norm
        self.densify_count += other.densify_count
        return self

    def scale_(self, factor):
        for g in self.grads.values():
            g *= factor
        return self


# ---------------------------------------------------------------------------
# pose stage: deformation, gating, motion blur
# ---------------------------------------------------------------------------

def _check_pose(n, *per_splat):
    """Raise, naming the first splat with a non-finite row in any array."""
    bad = ~np.all([np.isfinite(a.reshape(n, math.prod(a.shape[1:]))).all(axis=1)
                   for a in per_splat], axis=0)
    if bad.any():
        raise NumericalError("pose stage: non-finite position or covariance for "
                             f"splat {int(np.argmax(bad))}")


def _check_table(table, m):
    """Raise unless the neighbor table has one row of integers per dynamic
    splat, each holding indices in [0, m)."""
    if table.ndim != 2 or table.shape[0] != m or table.dtype.kind not in "iu":
        raise InvalidInputError(f"pose stage: neighbor_table of shape {table.shape} and "
                                f"dtype {table.dtype} is not {m} rows of integers")
    bad = ((table < 0) | (table >= m)).any(axis=1)
    if bad.any():
        raise InvalidInputError(f"pose stage: neighbor_table row {int(np.argmax(bad))} "
                                f"holds an index outside [0, {m})")


def _pose_forward(scene, partition: Partition, fieldp, neighbor_table, t, dt,
                  blur_dt, noise_sigma, rng, s: RenderSettings, keep=True):
    """Deformed positions and rendered covariances, with opacities and
    colours. With keep, everything _pose_backward reads; without, only
    pos_t, cov_render, opac and colors_c. The predictor runs on every row
    in both modes, so an eval pose is bit-identical to a train pose (BLAS
    may round a product of fewer rows differently)."""
    n = scene.n
    _check_pose(n, scene.positions, scene.quaternions, scene.log_scales)
    dyn = partition.dynamic
    if dyn.shape != (n,) or dyn.dtype != bool:
        raise InvalidInputError(f"pose stage: partition.dynamic of shape {dyn.shape} and "
                                f"dtype {dyn.dtype} is not {n} bools")
    dyn_idx = partition.dynamic_indices
    q_n, q_norm = quat_normalize(scene.quaternions, return_norm=True)

    raw, pred_cache = predict_offsets_batch(
        fieldp, scene.positions, q_n, scene.log_scales, t, noise_sigma, rng)
    raw_dyn = raw[dyn_idx]

    fine_cache = None
    if s.coarse_fine and dyn_idx.size:
        if neighbor_table is None:
            raise InvalidInputError("pose stage: coarse/fine deformation of the "
                                    "dynamic splats needs a neighbor_table")
        _check_table(neighbor_table, dyn_idx.size)
        coarse = coarse_offsets_batch(raw_dyn, neighbor_table)
        fine, fine_cache = fine_offsets_batch(fieldp, fieldp.features[dyn_idx], t)
        eff_dyn = coarse + fine
    else:
        eff_dyn = raw_dyn
    if not keep:
        raw = pred_cache = fine_cache = None    # freed before the rest of the stage

    offsets = np.zeros((n, 9))
    offsets[dyn_idx] = eff_dyn
    dx_r, dr_r, ds_r = offsets[:, 0:3], offsets[:, 3:6], offsets[:, 6:9]

    pos_t = scene.positions + dx_r
    E = exp_map_so3(dr_r)
    R_q = quat_to_rotmat(q_n)
    R_pred = R_q @ E
    s_min = min_scale_per_gaussian(scene.levels, s.l_max)[:, None]
    exp_term = np.exp(scene.log_scales + ds_r)
    s_pred = exp_term + s_min
    cov_render = covariance_from_matrix(R_pred, s_pred)

    # motion blur, the exposure's second moment, on every dynamic row; it
    # adds exactly 0 at blur_dt = 0
    kin_cache = None
    if s.kin_enabled:
        v = dx_r[dyn_idx] / dt
        blur, kin_cache = kinematic_frames_cached(v, blur_dt)
        cov_render[dyn_idx] += blur

    _check_pose(n, pos_t, cov_render)

    colors_c = np.clip(scene.colors, 0.0, 1.0)
    opac = sigmoid(scene.opacity_logits)
    if not keep:
        return {"pos_t": pos_t, "cov_render": cov_render, "opac": opac, "colors_c": colors_c}
    color_mask = (scene.colors > 0.0) & (scene.colors < 1.0)

    return {"n": n, "dyn": dyn, "dyn_idx": dyn_idx, "q_n": q_n, "raw": raw,
            "pred_cache": pred_cache, "fine_cache": fine_cache, "table": neighbor_table,
            "offsets": offsets, "pos_t": pos_t, "E": E, "R_q": R_q,
            "R_pred": R_pred, "exp_term": exp_term, "s_pred": s_pred, "kin": kin_cache,
            "cov_render": cov_render, "colors_c": colors_c,
            "color_mask": color_mask, "opac": opac, "dt": dt,
            "q_norm": q_norm,
            "cf_active": bool(s.coarse_fine and dyn_idx.size)}


def _pose_backward(pose, fieldp, d_pos_t, d_cov3, d_dx_extra, d_scales_extra):
    n = pose["n"]
    dyn = pose["dyn"]
    dyn_idx = pose["dyn_idx"]
    E = pose["E"]

    d_positions = d_pos_t.copy()
    d_dx_render = np.where(dyn[:, None], d_pos_t, 0.0)
    if pose["kin"] is not None:    # v = dx / dt
        d_v = kinematic_frames_backward(pose["kin"], d_cov3[dyn_idx])
        d_dx_render[dyn_idx] += d_v / pose["dt"]

    # predicted covariance for every row; the anisotropy term reads s_pred
    d_Rpred, d_s_pred = covariance_matrix_backward(pose["R_pred"], pose["s_pred"], d_cov3)
    d_s_pred += d_scales_extra
    d_ds_render = d_s_pred * pose["exp_term"]
    d_log_scales = d_ds_render.copy()

    # R_pred = R_q E
    d_Rq = d_Rpred @ np.swapaxes(E, -1, -2)
    d_E = np.swapaxes(pose["R_q"], -1, -2) @ d_Rpred

    # rotation residual (dynamic rows only; static rows held at zero)
    d_dr_render = np.zeros((n, 3))
    d_dr_render[dyn_idx] = dexp_map_so3(pose["offsets"][dyn_idx, 3:6], E[dyn_idx], d_E[dyn_idx])

    # assemble gradients wrt the applied (composed) offsets
    d_eff = np.concatenate([d_dx_render, d_dr_render, d_ds_render], axis=1)[dyn_idx]
    d_eff[:, 0:3] += d_dx_extra[dyn_idx]

    d_raw = np.zeros((n, 9))
    grads = {}
    d_features = np.zeros_like(fieldp.features)
    if pose["cf_active"]:
        d_raw[dyn_idx] = coarse_offsets_backward(pose["table"], dyn_idx.size, d_eff)
        (grads["fine_w1"], grads["fine_b1"], grads["fine_w2"], grads["fine_b2"],
         d_features[dyn_idx]) = fine_offsets_backward(fieldp, pose["fine_cache"], d_eff)
    else:
        grads.update({name: np.zeros_like(getattr(fieldp, name))
                      for name in ("fine_w1", "fine_b1", "fine_w2", "fine_b2")})
        if dyn_idx.size:
            d_raw[dyn_idx] = d_eff
    d_raw[~dyn, 0:3] += d_dx_extra[~dyn]

    (grads["w1"], grads["b1"], grads["w2"], grads["b2"], d_pos_enc, d_qn_pred,
     d_ls_pred) = predict_offsets_backward(fieldp, pose["pred_cache"], d_raw)
    d_positions += d_pos_enc
    d_log_scales += d_ls_pred

    # quaternion path: the rotation matrices and the predictor both read the
    # normalized quaternion, so one normalization backward serves both
    q_n = pose["q_n"]
    d_qn = drotmat_dquat(q_n, d_Rq) + d_qn_pred
    d_quats = (d_qn - np.sum(d_qn * q_n, axis=1, keepdims=True) * q_n) / pose["q_norm"]

    grads.update(positions=d_positions, quaternions=d_quats, log_scales=d_log_scales,
                 features=d_features)
    return grads


# ---------------------------------------------------------------------------
# rasterization stage
# ---------------------------------------------------------------------------

def _line_min(d, lo, hi, a, b, c):
    """Least of q = a d^2 + 2 b d t + c t^2 over t in [lo, hi], per row:
    the footprint quadratic along a line at offset d from the mean."""
    t = np.minimum(np.maximum(-b * d / c, lo), hi)
    return a * d * d + 2.0 * b * d * t + c * t * t


def _reaches(tx, ty, mx, my, a, b, c, tile, width, height):
    """Whether the footprint of the splat at (mx, my) with conic (a, b, c)
    reaches the pixel centres of tile (tx, ty), per pair; see _bin_tiles."""
    x0 = tx * tile + 0.5
    y0 = ty * tile + 0.5
    # offsets from the mean of the first and last pixel centres, and of the
    # point between them nearest the mean
    x_lo, x_hi = x0 - mx, np.minimum(x0 + (tile - 1), width - 0.5) - mx
    y_lo, y_hi = y0 - my, np.minimum(y0 + (tile - 1), height - 0.5) - my
    x_near = np.minimum(np.maximum(x_lo, 0.0), x_hi)
    y_near = np.minimum(np.maximum(y_lo, 0.0), y_hi)
    q_min = np.minimum(_line_min(x_near, y_lo, y_hi, a, b, c),
                       _line_min(y_near, x_lo, x_hi, c, b, a))
    return q_min <= FOOTPRINT_CHI2 * (1.0 + 1e-6)


def _bin_tiles(proj, width, height, tile):
    """Per tile, the indices of the splats whose footprint {q <= FOOTPRINT_CHI2}
    reaches the rectangle of the tile's pixel centres, in depth order; and
    the mask of splats kept for some tile.

    The candidates are the tiles under each splat's square 5-sigma extent.
    q is convex with its minimum at the mean, so its least value on a
    rectangle lies on a side that faces the mean: on the line, along x or
    along y, through the rectangle's point nearest the mean (through the
    mean itself when it is inside). A pair is kept when the lesser of q's
    minima on those two lines is at most FOOTPRINT_CHI2 with a relative
    slack of 1e-6. That exceeds the rounding of either evaluation of q, a
    few ulps times the conic's condition number, so every pair the
    compositor would draw is kept; a dropped pair has G = 0 at every pixel
    of its tile."""
    mean2d, cov2d, conic = proj["mean2d"], proj["cov2d"], proj["conic"]
    depth, valid = proj["depth"], proj["valid"]
    n = mean2d.shape[0]
    mid = 0.5 * (cov2d[:, 0, 0] + cov2d[:, 1, 1])
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    lam_max = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
    radius = FOOTPRINT_RADIUS * np.sqrt(lam_max)
    ntx = (width + tile - 1) // tile
    nty = (height + tile - 1) // tile
    order = np.argsort(depth, kind="stable")
    order = order[valid[order]]
    # tile ranges stay floats until clipped, so far-off splats cannot overflow
    lo = np.maximum(np.floor((mean2d[order] - radius[order, None]) / tile), 0.0)
    hi = np.minimum(np.floor((mean2d[order] + radius[order, None]) / tile),
                    [ntx - 1, nty - 1])
    hit = (lo <= hi).all(axis=1)
    order = order[hit]
    lo = lo[hit].astype(np.int64)
    span = hi[hit].astype(np.int64) - lo + 1
    # one candidate (tile, splat) pair per tile under the square, splats in
    # depth order; BIN_BLOCK splats at a time, so the candidates of a block
    # follow those of the blocks in front of it
    splats, tid = [order[:0]], [lo[:0, 0]]
    for start in range(0, order.size, BIN_BLOCK):
        blk = slice(start, start + BIN_BLOCK)
        counts = span[blk, 0] * span[blk, 1]
        owner = np.repeat(np.arange(counts.size), counts)
        k = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        row, col = np.divmod(k, span[blk, 0][owner])
        tx = lo[blk, 0][owner] + col
        ty = lo[blk, 1][owner] + row
        mine = order[blk]
        keep = _reaches(tx, ty, *mean2d[mine].T[:, owner], *conic[mine].T[:, owner],
                        tile, width, height)
        splats.append(mine[owner[keep]])
        tid.append(ty[keep] * ntx + tx[keep])
    splats, tid = np.concatenate(splats), np.concatenate(tid)
    touched = np.zeros(n, dtype=bool)
    touched[splats] = True
    # a stable sort by tile keeps depth order inside each tile
    splats = splats[np.argsort(tid, kind="stable")]
    bounds = np.cumsum(np.bincount(tid, minlength=ntx * nty))[:-1]
    return np.split(splats, bounds), touched


def _tile_rect(tile_id, ntx, tile, width, height):
    ty, tx = divmod(tile_id, ntx)
    x0 = tx * tile
    y0 = ty * tile
    return x0, y0, min(x0 + tile, width), min(y0 + tile, height)


def _pixel_axes(rect):
    x0, y0, x1, y1 = rect
    return np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5


def _views(rows, p, k):
    """C-contiguous (p, k) views of the calling thread's scratch rows, for a
    tile of p pixels and k <= CHUNK + 1: float64 rows 0-7 and bool rows 8-9
    of p * (CHUNK + 1) entries, made on first use and again for a tile of
    more pixels (at the defaults, 64 * 257 entries, 1.1 MB in all). The rows
    are per thread so that renders called from two threads never share
    them. The chunk step uses rows 0 and 2-5, 8 and 9, and rows 1 and 6 for
    G and T unless it keeps them; the tile backward uses rows 0-7, 8 and 9."""
    size = p * (CHUNK + 1)
    if getattr(_SCRATCH, "size", 0) < size:
        _SCRATCH.size = size
        _SCRATCH.rows = [*np.empty((8, size)), *np.empty((2, size), dtype=bool)]
    return [_SCRATCH.rows[i][:p * k].reshape(p, k) for i in rows]


def _blend(G, opac, alpha_raw, alpha, one_minus_alpha):
    """alpha_raw = opac G, alpha = min(alpha_raw, ALPHA_MAX) and 1 - alpha,
    into the given arrays."""
    np.multiply(opac, G, out=alpha_raw)
    np.minimum(alpha_raw, ALPHA_MAX, out=alpha)
    np.subtract(1.0, alpha, out=one_minus_alpha)


def _weights(alpha, t_before, proc, w):
    """The processed mask t_before >= TRANSMITTANCE_CUTOFF and the blend
    weights alpha t_before of the processed splats, into proc and w."""
    np.greater_equal(t_before, TRANSMITTANCE_CUTOFF, out=proc)
    np.multiply(alpha, t_before, out=w)
    w *= proc


def _chunk_step(idx, xs, ys, t_in, mean2d, conic, opac, keep=False):
    """Composite the row-major pixel grid of columns xs and rows ys,
    entering with transmittance t_in, against one depth-ordered slice idx of
    a tile's splats. Returns h, G, alpha_raw, T, proc, w and t_out.

    h is the exponent -0.5 q of each splat's footprint at each pixel and G
    its footprint weight. T is the transmittance scan: its first column is
    t_in and column i + 1 the product past splat i, the same sequential
    product as over the whole tile. The splats a pixel processes are a
    prefix of its list; t_out is the transmittance after its last processed
    one, which is both the seed of the next slice and, after the last
    slice, the pixel's final transmittance. With keep, G and T are fresh
    arrays; every other (pixels, splats) result, and G and T without keep,
    is a view into this thread's workspace, valid only until the next chunk
    step on that thread.
    """
    p, k = t_in.size, idx.size
    h, alpha_raw, alpha, w, inside, proc = _views((0, 2, 3, 4, 8, 9), p, k)
    scan, = _views((5,), p, k + 1)
    if keep:
        G, T = np.empty((p, k)), np.empty((p, k + 1))
    else:
        (G,), (T,) = _views((1,), p, k), _views((6,), p, k + 1)
    dx = xs[:, None] - mean2d[idx, 0]
    dy = ys[:, None] - mean2d[idx, 1]
    # -0.5 q from coefficients scaled by -0.5: a power of two, so each
    # product and sum is -0.5 times q's, exactly
    a, b, c = conic[idx].T
    h3 = h.reshape(ys.size, xs.size, k)
    np.multiply((-b * dx)[None], dy[:, None], out=h3)
    h3 += (-0.5 * a * dx * dx)[None]
    h3 += (-0.5 * c * dy * dy)[:, None]
    # exp(h) masked by a product, as np.where would: exp is finite at h <= 0
    np.exp(h, out=G)
    G *= np.greater_equal(h, -0.5 * FOOTPRINT_CHI2, out=inside)
    _blend(G, opac[idx], alpha_raw, alpha, scan[:, 1:])
    scan[:, 0] = t_in
    np.cumprod(scan, axis=1, out=T)
    _weights(alpha, T[:, :-1], proc, w)
    t_out = T[np.arange(p), proc.sum(axis=1)]
    return h, G, alpha_raw, T, proc, w, t_out


def _chunks(idx):
    return [(lo, idx[lo:lo + CHUNK]) for lo in range(0, idx.size, CHUNK)]


def _tile_forward(idx, rect, mean2d, conic, opac, colors, s: RenderSettings,
                  keep=False):
    """Composite one tile slice by slice. Returns its pixels, final
    transmittance and per-splat blend weights, and with keep each slice's
    (G, T) for the backward pass (None without)."""
    xs, ys = _pixel_axes(rect)
    trans = np.ones(ys.size * xs.size)
    pix = np.zeros((trans.size, 3))
    importance = np.empty(idx.size)
    kept = [] if keep else None
    for lo, sl in _chunks(idx):
        _, G, _, T, _, w, trans = _chunk_step(sl, xs, ys, trans, mean2d, conic, opac, keep)
        if keep:
            kept.append((G, T))
        pix += w @ colors[sl]
        importance[lo:lo + sl.size] = w.sum(axis=0)
    pix += trans[:, None] * s.background
    return (pix.reshape(ys.size, xs.size, 3), trans.reshape(ys.size, xs.size),
            importance, kept)


def _tile_backward(idx, rect, kept, t_final, mean2d, conic, opac, colors,
                   s: RenderSettings, d_img_tile):
    """Gradients of one tile's splats, columns (mean2d 2, conic 3, opacity 1,
    color 3). Walks the slices back to front from their kept (G, T),
    carrying the summed contributions behind each splat."""
    xs, ys = _pixel_axes(rect)
    p = d_img_tile.reshape(-1, 3)
    behind = (p @ s.background) * t_final.reshape(-1)
    grads = np.empty((idx.size, 9))
    for (lo, sl), (G, T) in reversed(list(zip(_chunks(idx), kept))):
        d_w, d_alpha, alpha_raw, alpha, w, one_minus_alpha, tmp, live, proc = _views(
            (0, 1, 2, 3, 4, 5, 7, 8, 9), p.shape[0], sl.size)
        acc, = _views((6,), p.shape[0], sl.size + 1)
        t_before = T[:, :-1]
        _blend(G, opac[sl], alpha_raw, alpha, one_minus_alpha)
        _weights(alpha, t_before, proc, w)
        dx = xs[:, None] - mean2d[sl, 0]
        dy = ys[:, None] - mean2d[sl, 1]
        np.matmul(p, colors[sl].T, out=d_w)
        # acc[:, i]: behind + the contributions d_w * w of the slice's last i
        # splats, so acc[:, -2::-1][:, k] sums everything behind splat k
        acc[:, 0] = behind
        np.multiply(d_w[:, ::-1], w[:, ::-1], out=acc[:, 1:])
        np.cumsum(acc, axis=1, out=acc)
        behind = acc[:, -1].copy()
        np.multiply(d_w, t_before, out=d_alpha)
        d_alpha -= np.divide(acc[:, -2::-1], one_minus_alpha, out=tmp)
        np.less_equal(alpha_raw, ALPHA_MAX, out=live)
        d_alpha *= np.logical_and(live, proc, out=live)   # d/d alpha_raw
        g = grads[lo:lo + sl.size]
        g[:, 5] = np.multiply(d_alpha, G, out=tmp).sum(axis=0)
        # d_q = d_alpha * opac * (-0.5 G), with the exact factor -0.5 on opac
        d_q = np.multiply(d_alpha, -0.5 * opac[sl], out=tmp)
        d_q *= G
        # moments of d_q against dx, dy: sum over the grid's rows (per
        # column) or its columns (per row), then weight by dx or dy
        d_q = d_q.reshape(ys.size, xs.size, sl.size)
        per_col = d_q.sum(axis=0)
        per_row = d_q.sum(axis=1)
        per_col_y = np.multiply(d_q, dy[:, None], out=d_alpha.reshape(d_q.shape)).sum(axis=0)
        sx, sy = (per_col * dx).sum(axis=0), (per_row * dy).sum(axis=0)
        a, b, c = conic[sl].T
        g[:, 0] = -(2.0 * a * sx + 2.0 * b * sy)
        g[:, 1] = -(2.0 * b * sx + 2.0 * c * sy)
        g[:, 2] = (per_col * dx * dx).sum(axis=0)
        g[:, 3] = 2.0 * (per_col_y * dx).sum(axis=0)
        g[:, 4] = (per_row * dy * dy).sum(axis=0)
        g[:, 6:9] = w.T @ p
    return grads


def _raster_forward(tiles, cam, proj, pose, s: RenderSettings, n, keep=False):
    ntx = (cam.width + s.tile - 1) // s.tile
    width, height = cam.width, cam.height
    image = np.empty((height, width, 3))
    trans = np.empty((height, width))
    mean2d, conic = proj["mean2d"], proj["conic"]
    opac, colors = pose["opac"], pose["colors_c"]

    slices, weights = [], []
    for tid, idx in enumerate(tiles):
        x0, y0, x1, y1 = rect = _tile_rect(tid, ntx, s.tile, width, height)
        pix, tfin, imp, kept = _tile_forward(idx, rect, mean2d, conic, opac, colors, s, keep)
        image[y0:y1, x0:x1] = pix
        trans[y0:y1, x0:x1] = tfin
        weights.append(imp)
        slices.append(kept)
    importance = np.bincount(np.concatenate(tiles), np.concatenate(weights), minlength=n)
    return image, trans, importance, slices if keep else None


def _raster_backward(tape: RenderTape, d_image):
    s = tape.settings
    proj, pose = tape.proj, tape.pose
    width, height = tape.cam.width, tape.cam.height
    ntx = (width + s.tile - 1) // s.tile
    mean2d, conic = proj["mean2d"], proj["conic"]
    opac, colors = pose["opac"], pose["colors_c"]

    per_tile = []
    for tid, (idx, kept) in enumerate(zip(tape.tiles, tape.slices)):
        x0, y0, x1, y1 = rect = _tile_rect(tid, ntx, s.tile, width, height)
        per_tile.append(_tile_backward(idx, rect, kept, tape.transmittance[y0:y1, x0:x1],
                                       mean2d, conic, opac, colors, s,
                                       d_image[y0:y1, x0:x1]))
    grads = np.concatenate(per_tile)
    idx = np.concatenate(tape.tiles)
    merged = np.stack([np.bincount(idx, col, minlength=tape.n) for col in grads.T],
                      axis=1)
    return merged[:, 0:2], merged[:, 2:5], merged[:, 5], merged[:, 6:9]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def render(scene, partition: Partition, fieldp, cam: Camera, t, settings: RenderSettings,
           mode="train", rng=None, noise_sigma=0.0, dt=1.0, neighbor_table=None,
           want_tape=None):
    """Render the scene at time t.

    Train mode injects predictor noise and models exposure blur over the
    frame interval dt; eval mode forces noise off and renders zero-exposure.
    Both modes read the velocity dx / dt, so dt must be finite and > 0.
    Returns RenderedFrame, or (RenderedFrame, RenderTape) when want_tape.
    """
    if mode not in ("train", "eval"):
        raise InvalidInputError(f"render mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 < dt < math.inf:
        raise InvalidInputError(f"render: dt must be finite and > 0, got {dt!r}")
    train = mode == "train"
    if want_tape is None:
        want_tape = train
    blur_dt = dt if train else 0.0
    sigma = noise_sigma if train else 0.0
    pose = _pose_forward(scene, partition, fieldp, neighbor_table, t, dt,
                         blur_dt, sigma, rng, settings, keep=train)
    proj = project(pose["pos_t"], pose["cov_render"], cam)
    tiles, touched = _bin_tiles(proj, cam.width, cam.height, settings.tile)
    image, trans, importance, slices = _raster_forward(tiles, cam, proj, pose,
                                                       settings, scene.n, keep=train)
    if not np.all(np.isfinite(image)):
        y, x = np.argwhere(~np.isfinite(image))[0, :2]
        raise NumericalError(f"raster stage: non-finite pixel at ({y}, {x})")
    frame = RenderedFrame(image=np.clip(image, 0.0, 1.0), transmittance=trans,
                          importance=importance)
    if not want_tape:
        return frame
    if not train:
        pose = proj = None
    tape = RenderTape(pose=pose, proj=proj, tiles=tiles, touched=touched,
                      cam=cam, settings=settings, n=scene.n, slices=slices,
                      transmittance=trans)
    return frame, tape


def render_backward(tape: RenderTape, d_image, fieldp, d_dx_extra,
                    d_scales_extra) -> ParamGrads:
    """Analytic gradients of a scalar loss through the rendered image.

    d_image is dLoss/dImage. The two (N, 3) extras are the loss's gradients
    wrt the applied position offsets (the offset regularizer) and the
    predicted scales (the anisotropy term); pass zeros for a loss without
    them.
    """
    if tape.pose is None:
        raise InvalidInputError("backward stage: an eval-mode tape keeps no backward "
                                "state; render with mode='train' to differentiate")
    d_mean2d, d_conic, d_opac, d_colors = _raster_backward(tape, d_image)
    d_pos_t, d_cov3 = project_backward(tape.proj, tape.cam, d_mean2d, d_conic)
    pose = tape.pose
    grads = _pose_backward(pose, fieldp, d_pos_t, d_cov3, d_dx_extra, d_scales_extra)
    grads["opacity_logits"] = d_opac * pose["opac"] * (1.0 - pose["opac"])
    grads["colors"] = d_colors * pose["color_mask"]

    half = np.array([tape.cam.width * 0.5, tape.cam.height * 0.5])
    return ParamGrads(grads={name: grads[name] for name in SCENE_PARAMS + FIELD_PARAMS},
                      densify_norm=np.linalg.norm(d_mean2d * half, axis=1),
                      densify_count=tape.touched.astype(float))


def render_points_naive(positions, cov3, colors, opacities, cam: Camera,
                        settings: RenderSettings) -> RenderedFrame:
    """Per-pixel reference compositor; same footprint and cutoff semantics as
    the tiled path, used to pin its correctness."""
    proj = project(np.asarray(positions, dtype=float), np.asarray(cov3, dtype=float), cam)
    order = np.argsort(proj["depth"], kind="stable")
    order = order[proj["valid"][order]]
    colors_c = np.clip(np.asarray(colors, dtype=float), 0.0, 1.0)
    opac = np.asarray(opacities, dtype=float)
    h, w = cam.height, cam.width
    image = np.zeros((h, w, 3))
    trans = np.ones((h, w))
    for yi in range(h):
        for xi in range(w):
            px, py = xi + 0.5, yi + 0.5
            color = np.zeros(3)
            T = 1.0
            for i in order:
                if T < TRANSMITTANCE_CUTOFF:
                    break
                dxi = px - proj["mean2d"][i, 0]
                dyi = py - proj["mean2d"][i, 1]
                a, b, c = proj["conic"][i]
                q = a * dxi * dxi + 2.0 * b * dxi * dyi + c * dyi * dyi
                if q > FOOTPRINT_CHI2:
                    continue
                alpha = min(opac[i] * np.exp(-0.5 * q), ALPHA_MAX)
                color = color + T * alpha * colors_c[i]
                T = T * (1.0 - alpha)
            image[yi, xi] = color + T * settings.background
            trans[yi, xi] = T
    return RenderedFrame(image=np.clip(image, 0.0, 1.0), transmittance=trans,
                         importance=np.zeros(np.asarray(positions).shape[0]))
