"""Training loop: Adam with exponential learning-rate decay, the composite
objective, densification bookkeeping, the partition/level schedules, and
exact-resume checkpoints.

Gradients across a batch reduce in fixed frame order and all structural
edits happen at iteration barriers, so a run is a deterministic function of
(config, dataset, seed).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .decomposition import (
    Partition,
    classify,
    compute_scores,
    evaluate_partition_schedule,
)
from .deform import FIELD_PARAMS, FieldParams, NoiseSchedule, build_neighbor_table
from .gaussians import InvalidInputError, NumericalError, quat_normalize
from .lod import (
    DensifyConfig,
    advance_level,
    densify_candidates,
    level_survivors,
    opacity_reset_logits,
    prune_mask_low_opacity,
    split_parameters,
)
from .losses import (
    ani_loss,
    ani_loss_backward,
    image_loss,
    image_loss_backward,
    reg_loss,
    reg_loss_backward,
)
from .renderer import ParamGrads, RenderSettings, render, render_backward
from .scene import SCENE_PARAMS, Scene, read_checkpoint, write_checkpoint

# Per-splat optimized arrays: their Adam moments follow every row edit.
ROW_PARAMS = SCENE_PARAMS + ("features",)
# (trailing shape, dtype) of each row-aligned entry save_checkpoint writes,
# besides the Adam moments; None: any width
ROW_ENTRIES = {
    "positions": ((3,), "float64"), "quaternions": ((4,), "float64"),
    "log_scales": ((3,), "float64"), "opacity_logits": ((), "float64"),
    "colors": ((3,), "float64"), "levels": ((), "int64"), "importance": ((), "float64"),
    "features": ((None,), "float64"), "grad_accum": ((), "float64"),
    "grad_count": ((), "float64"), "partition_dynamic": ((), "bool"),
}


def exponential_lr(initial, final, k, total):
    if total <= 0 or initial <= 0:
        return initial
    frac = np.clip(k / total, 0.0, 1.0)
    return float(initial * (final / initial) ** frac)


class Adam:
    """Adam over a dict of named arrays; TrainState.edit_rows keeps the
    per-splat moments aligned with the scene."""

    beta1, beta2, eps = 0.9, 0.999, 1e-15

    def __init__(self, names_shapes):
        self.t = 0
        self.m = {n: np.zeros(s) for n, s in names_shapes}
        self.v = {n: np.zeros(s) for n, s in names_shapes}

    def step(self, params: dict, grads: dict, lrs: dict):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lrs[name] * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_arrays(self):
        out = {}
        for n in self.m:
            out[f"adam_m_{n}"] = self.m[n]
            out[f"adam_v_{n}"] = self.v[n]
        return out

    def load_state_arrays(self, arrays):
        for n in self.m:
            self.m[n] = arrays[f"adam_m_{n}"]
            self.v[n] = arrays[f"adam_v_{n}"]


@dataclass
class LossWeights:
    lambda_dssim: float = 0.2
    lambda_reg: float = 0.01
    lambda_ani: float = 0.001


@dataclass
class TrainState:
    scene: Scene
    fieldp: FieldParams
    partition: Partition
    neighbor_table: np.ndarray | None
    adam: Adam
    rng: np.random.Generator
    iteration: int = 0
    grad_accum: np.ndarray = None
    grad_count: np.ndarray = None

    def __post_init__(self):
        if self.grad_accum is None:
            self.grad_accum = np.zeros(self.scene.n)
        if self.grad_count is None:
            self.grad_count = np.zeros(self.scene.n)

    def edit_rows(self, keep=None, parents=None, **replacements):
        """The one per-splat row edit: keep only the rows `keep`, or append a
        copy of each row in `parents`, with named replacement arrays in place
        of copied scene rows. Scene, features, the Adam moments of
        ROW_PARAMS, the gradient statistics and the partition change
        together. Appended rows start with zero moments, statistics and
        importance, and take their parent's partition label."""
        if keep is not None:
            self.scene.select(keep)
            rows = fresh = lambda a: a[keep]
        else:
            self.scene.append_rows(parents, importance=np.zeros(parents.size),
                                   **replacements)
            rows = lambda a: np.concatenate([a, a[parents]])
            fresh = lambda a: np.concatenate([a, np.zeros((parents.size,) + a.shape[1:])])
        self.fieldp.features = rows(self.fieldp.features)
        for name in ROW_PARAMS:
            self.adam.m[name] = fresh(self.adam.m[name])
            self.adam.v[name] = fresh(self.adam.v[name])
        self.grad_accum = fresh(self.grad_accum)
        self.grad_count = fresh(self.grad_count)
        self.partition = Partition(dynamic=rows(self.partition.dynamic))


def param_arrays(scene: Scene, fieldp: FieldParams):
    """The optimized arrays by name, SCENE_PARAMS then FIELD_PARAMS."""
    return {**{n: getattr(scene, n) for n in SCENE_PARAMS}, **dict(fieldp.param_items())}


def make_adam(scene: Scene, fieldp: FieldParams):
    return Adam([(n, a.shape) for n, a in param_arrays(scene, fieldp).items()])


def frame_loss_and_grads(state: TrainState, cam, target, t, dt, noise_sigma,
                         settings: RenderSettings, weights: LossWeights):
    """Render one frame in train mode and backpropagate the full objective."""
    frame, tape = render(state.scene, state.partition, state.fieldp, cam, t,
                         settings, mode="train", rng=state.rng,
                         noise_sigma=noise_sigma, dt=dt,
                         neighbor_table=state.neighbor_table, want_tape=True)
    img_val, img_cache = image_loss(frame.image, target, weights.lambda_dssim)
    d_image = image_loss_backward(img_cache)
    del img_cache    # its SSIM maps would otherwise live through render_backward

    pose = tape.pose
    dyn = pose["dyn"]
    # offsets the objective regularizes: composed for dynamic, raw for static
    dx_reg = np.where(dyn[:, None], pose["offsets"][:, 0:3], pose["raw"][:, 0:3])
    reg_val = reg_loss(dx_reg, dyn)
    d_dx_extra = reg_loss_backward(dx_reg, dyn, weights.lambda_reg)

    scales = pose["s_pred"]    # the predicted scales, before motion blur
    ani_val = ani_loss(scales)
    d_scales_extra = ani_loss_backward(scales, weights.lambda_ani)

    grads = render_backward(tape, d_image, state.fieldp, d_dx_extra, d_scales_extra)
    total = img_val + weights.lambda_reg * reg_val + weights.lambda_ani * ani_val
    terms = {"loss": total, "l_img": img_val, "l_reg": reg_val, "l_ani": ani_val}
    return terms, grads, frame


def apply_step(state: TrainState, grads: ParamGrads, lrs: dict):
    state.adam.step(param_arrays(state.scene, state.fieldp), grads.grads, lrs)
    state.scene.renormalize_rotations()


def learning_rates(cfg, k):
    """Per-parameter learning rates at iteration k (exponential decay)."""
    total = cfg.iterations
    field_lr = exponential_lr(cfg.lr_field, cfg.lr_field_final, k, total)
    return {"positions": exponential_lr(cfg.lr_position, cfg.lr_position_final, k, total),
            "quaternions": cfg.lr_rotation, "log_scales": cfg.lr_scale,
            "opacity_logits": cfg.lr_opacity, "colors": cfg.lr_color,
            **dict.fromkeys(FIELD_PARAMS, field_lr), "features": cfg.lr_features}


# ---------------------------------------------------------------------------
# structural edits
# ---------------------------------------------------------------------------

def rebuild_neighbors(state: TrainState, k):
    dyn_idx = state.partition.dynamic_indices
    if dyn_idx.size:
        state.neighbor_table = build_neighbor_table(state.scene.positions[dyn_idx], k)
    else:
        state.neighbor_table = None


def densify_and_prune(state: TrainState, iteration, dcfg: DensifyConfig, l_max):
    """Standard split/clone densification plus low-opacity pruning; the
    global opacity reset fires at its own iteration regardless of window."""
    scene = state.scene
    changed = False
    in_window = dcfg.window_start <= iteration <= dcfg.window_end
    if in_window and iteration % dcfg.interval == 0:
        split_mask, clone_mask = densify_candidates(scene, state.grad_accum,
                                                    state.grad_count, dcfg, l_max)
        split_idx = np.where(split_mask)[0]
        clone_idx = np.where(clone_mask)[0]
        # clones first: their rows precede the split children's
        if clone_idx.size:
            state.edit_rows(parents=clone_idx)
        if split_idx.size:
            rep, positions, log_scales = split_parameters(scene, split_idx, l_max, state.rng)
            state.edit_rows(parents=rep, positions=positions, log_scales=log_scales)
        changed = bool(clone_idx.size or split_idx.size)
        # drop split parents and anything too transparent
        drop = prune_mask_low_opacity(scene.opacity_logits)
        if split_idx.size:
            drop[split_idx] = True
        if drop.any():
            keep = np.where(~drop)[0]
            if keep.size == 0:
                keep = np.array([int(np.argmax(scene.opacity_logits))])
            state.edit_rows(keep=keep)
            changed = True
        state.grad_accum[:] = 0.0
        state.grad_count[:] = 0.0
    if iteration == dcfg.reset_iteration:
        scene.opacity_logits = opacity_reset_logits(scene.opacity_logits)
        # the reset rewrites opacities wholesale; stale moments would undo it
        state.adam.m["opacity_logits"][:] = 0.0
        state.adam.v["opacity_logits"][:] = 0.0
        changed = True
    return changed


def advance_scene_level(state: TrainState, l_max):
    """Prune, then move the survivors a level finer; returns the clamp count."""
    state.edit_rows(keep=level_survivors(state.scene, l_max))
    return advance_level(state.scene, l_max)


def recompute_partition(state: TrainState, tau, n_samples):
    scores = compute_scores(state.fieldp, state.scene.positions,
                            quat_normalize(state.scene.quaternions),
                            state.scene.log_scales, n_samples)
    state.partition = classify(scores, tau)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, state: TrainState, config_dict: dict):
    arrays = {**state.scene.per_gaussian_arrays(), **dict(state.fieldp.param_items()),
              **state.adam.state_arrays()}
    arrays["partition_dynamic"] = state.partition.dynamic
    arrays["grad_accum"] = state.grad_accum
    arrays["grad_count"] = state.grad_count
    if state.neighbor_table is not None:
        arrays["neighbor_table"] = state.neighbor_table
    meta = {
        "iteration": state.iteration,
        "adam_t": state.adam.t,
        "rng_state": state.rng.bit_generator.state,
        "config": config_dict,
        "field_meta": {"time_bands": state.fieldp.time_bands,
                       "pos_bands": state.fieldp.pos_bands},
    }
    write_checkpoint(path, arrays, meta)


def load_checkpoint(path):
    """The TrainState and meta that save_checkpoint wrote. Raises, naming the
    file and the entry, when an entry is missing, when a per-splat array's
    row count differs from positions', or when the neighbor table's differs
    from the number of dynamic splats, or when such an entry's dtype or
    trailing shape differs from what save_checkpoint writes."""
    arrays, meta = read_checkpoint(path)
    try:
        layout = {**ROW_ENTRIES,
                  **{f"adam_{m}_{n}": ROW_ENTRIES[n] for n in ROW_PARAMS for m in "mv"}}
        want = dict.fromkeys(layout, np.atleast_1d(arrays["positions"]).shape[:1])
        if "neighbor_table" in arrays:
            layout["neighbor_table"] = ((None,), "int64")
            want["neighbor_table"] = (int(arrays["partition_dynamic"].sum()),)
        for name, rows in want.items():
            entry = arrays[name]
            if entry.shape[:1] != rows:
                raise InvalidInputError(f"checkpoint {path}: entry {name!r} has shape "
                                        f"{entry.shape}, not {rows[0]} rows")
            trail, dtype = layout[name]
            if entry.ndim != 1 + len(trail) or any(
                    w not in (None, got) for w, got in zip(trail, entry.shape[1:])):
                shape = ", ".join("k" if w is None else str(w) for w in (rows[0], *trail))
                raise InvalidInputError(f"checkpoint {path}: entry {name!r} has shape "
                                        f"{entry.shape}, not ({shape})")
            if entry.dtype != dtype:
                raise InvalidInputError(f"checkpoint {path}: entry {name!r} has dtype "
                                        f"{entry.dtype}, not {dtype}")
        scene = Scene(**{f.name: arrays[f.name] for f in fields(Scene)})
        fieldp = FieldParams(**{n: arrays[n] for n in FIELD_PARAMS}, **meta["field_meta"])
        adam = make_adam(scene, fieldp)
        adam.load_state_arrays(arrays)
        adam.t = meta["adam_t"]
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        state = TrainState(scene=scene, fieldp=fieldp,
                           partition=Partition(dynamic=arrays["partition_dynamic"]),
                           neighbor_table=arrays.get("neighbor_table"), adam=adam, rng=rng,
                           iteration=meta["iteration"], grad_accum=arrays["grad_accum"],
                           grad_count=arrays["grad_count"])
    except KeyError as err:
        raise InvalidInputError(f"checkpoint {path}: missing entry {err}") from None
    return state, meta


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

def train_loop(state: TrainState, dataset, cfg, settings: RenderSettings,
               weights: LossWeights, dcfg: DensifyConfig, schedule: NoiseSchedule,
               log_rows: list, iterations=None, on_checkpoint=None):
    """Run (or continue) training. dataset supplies train_frames():
    a list of (cam, target, t) and dt. Appends one log row per iteration.

    `iterations` only says where to stop; every schedule follows
    cfg.iterations, so a run stopped early is a prefix of the full run."""
    frames = dataset.train_frames()
    dt = dataset.frame_interval()
    total = iterations if iterations is not None else cfg.iterations
    level_budget = max(cfg.iterations // settings.l_max, 1)

    while state.iteration < total:
        k = state.iteration + 1
        t0 = time.perf_counter()

        current_level = int(state.scene.levels.max(initial=1))
        if (current_level < settings.l_max and k > 1
                and (k - 1) % level_budget == 0
                and (k - 1) // level_budget == current_level):
            advance_scene_level(state, settings.l_max)
            rebuild_neighbors(state, cfg.k_neighbors)

        sigma = schedule.sigma(k)
        picks = state.rng.choice(len(frames), size=min(cfg.batch, len(frames)),
                                 replace=False)
        grads = None
        terms_sum = None
        for j in picks:
            cam, target, t = frames[j]
            try:
                terms, g, frame = frame_loss_and_grads(state, cam, target, t, dt,
                                                       sigma, settings, weights)
            except NumericalError as err:
                raise NumericalError(f"iteration {k}: {err}") from err
            state.scene.importance += frame.importance
            grads = g if grads is None else grads.add_(g)
            terms_sum = (terms if terms_sum is None else
                         {n: terms_sum[n] + terms[n] for n in terms})
        nb = len(picks)
        grads.scale_(1.0 / nb)
        terms_avg = {n: v / nb for n, v in terms_sum.items()}
        if not np.isfinite(terms_avg["loss"]):
            raise NumericalError(f"non-finite loss at iteration {k}")

        state.grad_accum += grads.densify_norm / nb
        state.grad_count += grads.densify_count / nb

        apply_step(state, grads, learning_rates(cfg, k))
        state.iteration = k

        changed = densify_and_prune(state, k, dcfg, settings.l_max)
        if evaluate_partition_schedule(k, cfg.decomp_warmup, cfg.decomp_repeat):
            recompute_partition(state, cfg.decomp_tau, cfg.decomp_samples)
            changed = True
        if changed or k % cfg.cf_refresh == 0:
            rebuild_neighbors(state, cfg.k_neighbors)

        wall_ms = (time.perf_counter() - t0) * 1000.0
        log_rows.append({
            "iteration": k, "loss": terms_avg["loss"], "l_img": terms_avg["l_img"],
            "l_reg": terms_avg["l_reg"], "l_ani": terms_avg["l_ani"],
            "n_gaussians": state.scene.n,
            "n_dynamic": state.partition.dynamic_indices.size,
            "wall_ms": wall_ms,
        })
        if on_checkpoint is not None:
            on_checkpoint(state)
    return state
