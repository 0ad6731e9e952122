"""Level-of-detail lifecycle: scale floors, importance pruning, level
cloning, and the standard densify/prune loop.

Each level imposes a lower bound on splat scale; training advances through
levels coarse to fine, pruning low-importance splats at each transition and
re-solving the unconstrained scale parameter so effective scales carry over.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import InvalidInputError, inverse_sigmoid, sigmoid

_SOLVE_FLOOR = 1e-12
# A split replaces its parent with SPLIT_CHILDREN children whose effective
# scale is the parent's divided by SPLIT_SCALE_FACTOR.
SPLIT_CHILDREN = 2
SPLIT_SCALE_FACTOR = 1.6


@dataclass(frozen=True)
class LodConfig:
    l_max: int = 3
    lam: float = 0.002            # level-1 scale floor, world units
    rho: float = 0.5              # geometric factor across levels: rho**(1-l)
    q_prune: float = 0.1          # importance quantile dropped per transition

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise InvalidInputError("rho must be in (0,1)")
        if self.lam <= 0:
            raise InvalidInputError("lam must be > 0")
        if self.l_max < 1:
            raise InvalidInputError("l_max must be >= 1")


@dataclass(frozen=True)
class DensifyConfig:
    grad_threshold: float = 1e-4
    opacity_prune: float = 0.005
    interval: int = 300
    window_start: int = 500
    window_end: int = 10000
    reset_iteration: int = 3000
    reset_value: float = 0.01
    percent_dense: float = 0.01
    scene_extent: float = 3.0
    max_gaussians: int = 100000


def min_scale(level, cfg: LodConfig):
    """Scale floor at a level: zero at the finest level, geometric elsewhere."""
    if level < 1 or level > cfg.l_max:
        raise InvalidInputError(f"level {level} outside [1, {cfg.l_max}]")
    if level == cfg.l_max:
        return 0.0
    return cfg.lam * cfg.rho**(1 - level)


def min_scale_per_gaussian(levels, cfg: LodConfig):
    """Scale floor per splat; raises naming the first splat whose level is
    outside [1, l_max]."""
    levels = np.asarray(levels, dtype=int)
    bad = ((levels < 1) | (levels > cfg.l_max)).reshape(-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(f"splat {i}: level {levels.reshape(-1)[i]} "
                                f"outside [1, {cfg.l_max}]")
    table = np.array([min_scale(l, cfg) for l in range(1, cfg.l_max + 1)])
    return table[levels - 1]


def effective_scale(log_scale_opt, level, cfg: LodConfig):
    """exp(s_opt) + floor(level), component-wise."""
    s = np.exp(np.asarray(log_scale_opt, dtype=float))
    return s + min_scale_per_gaussian(level, cfg)[..., None]


def solve_log_scale(target_effective, level, cfg: LodConfig):
    """Invert effective_scale for a new level.

    Returns (log_scale_opt, feasible); infeasible components (target at or
    below the new floor) clamp to a tiny positive exp() argument.
    """
    floor = min_scale_per_gaussian(level, cfg)[..., None]
    diff = np.asarray(target_effective, dtype=float) - floor
    feasible = diff > _SOLVE_FLOOR
    out = np.log(np.where(feasible, diff, _SOLVE_FLOOR))
    return out, feasible


def level_survivors(scene, cfg: LodConfig):
    """Rows that survive the move one level finer, in their current order:
    all but the lowest-importance quantile, never none."""
    if int(scene.levels.max(initial=1)) >= cfg.l_max:
        raise InvalidInputError("already at the finest level")
    n = scene.n
    order = np.argsort(scene.importance, kind="stable")
    n_prune = min(int(np.floor(cfg.q_prune * n)), n - 1)
    return np.sort(order[n_prune:])


def advance_level(scene, cfg: LodConfig):
    """Move the survivors one level finer, in place.

    Re-solves log scales so every splat keeps its effective scale where
    algebraically possible and resets the importance counters. Returns the
    number of clamped scale components.
    """
    old_eff = effective_scale(scene.log_scales, scene.levels, cfg)
    new_level = scene.levels + 1
    new_opt, feasible = solve_log_scale(old_eff, new_level, cfg)
    scene.log_scales = new_opt
    scene.levels = new_level
    scene.importance[:] = 0.0
    return int(np.sum(~feasible))


def densify_candidates(scene, grad_accum, grad_count, cfg_d: DensifyConfig,
                       lod_cfg: LodConfig):
    """Split/clone masks from accumulated screen-space gradient statistics,
    highest average gradient first while the scene, with clones and split
    children added and split parents dropped, stays within max_gaussians."""
    avg = grad_accum / np.maximum(grad_count, 1)
    eff = effective_scale(scene.log_scales, scene.levels, lod_cfg)
    big = eff.max(axis=1) > cfg_d.percent_dense * cfg_d.scene_extent
    growth = np.where(big, SPLIT_CHILDREN - 1, 1)
    order = np.argsort(-avg, kind="stable")
    order = order[avg[order] > cfg_d.grad_threshold]
    hot = np.zeros(scene.n, dtype=bool)
    hot[order[np.cumsum(growth[order]) <= cfg_d.max_gaussians - scene.n]] = True
    return hot & big, hot & ~big      # split_mask, clone_mask


def split_parameters(scene, split_idx, cfg_d: DensifyConfig, lod_cfg: LodConfig, rng):
    """Child parameters for a split: positions sampled inside the parent
    footprint, scales divided by SPLIT_SCALE_FACTOR."""
    from .gaussians import quat_to_rotmat
    idx = np.repeat(split_idx, SPLIT_CHILDREN)
    eff = effective_scale(scene.log_scales[idx], scene.levels[idx], lod_cfg)
    R = quat_to_rotmat(scene.quaternions[idx])
    local = rng.normal(0.0, 1.0, (idx.size, 3)) * eff
    positions = scene.positions[idx] + np.einsum("nij,nj->ni", R, local)
    child_eff = eff / SPLIT_SCALE_FACTOR
    log_scales, _ = solve_log_scale(child_eff, scene.levels[idx], lod_cfg)
    return idx, positions, log_scales


def opacity_reset_logits(opacity_logits, reset_value):
    """Clamp opacities down to the reset value (in logit space)."""
    ceiling = inverse_sigmoid(reset_value)
    return np.minimum(opacity_logits, ceiling)


def prune_mask_low_opacity(opacity_logits, threshold):
    return sigmoid(opacity_logits) < threshold
