"""Level-of-detail lifecycle: scale floors, importance pruning, level
cloning, and the standard densify/prune loop.

Each level imposes a lower bound on splat scale; training advances through
levels coarse to fine, pruning low-importance splats at each transition and
re-solving the unconstrained scale parameter so effective scales carry over.

The level count l_max is the one LOD setting. The rest are constants that no
run varies: level l < l_max floors scales at LOD_LAMBDA * LOD_RHO**(1 - l)
world units, and each transition prunes the LOD_Q_PRUNE share of least
importance. Densify prunes splats below OPACITY_PRUNE opacity, the opacity
reset lowers opacities to RESET_OPACITY, and a splat splits rather than
clones when its largest effective scale is above PERCENT_DENSE *
SCENE_EXTENT (the values of 3DGS).
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
LOD_LAMBDA = 0.002
LOD_RHO = 0.5
LOD_Q_PRUNE = 0.1
OPACITY_PRUNE = 0.005
RESET_OPACITY = 0.01
PERCENT_DENSE = 0.01
SCENE_EXTENT = 3.0


@dataclass(frozen=True)
class DensifyConfig:
    grad_threshold: float
    interval: int
    window_start: int
    window_end: int
    reset_iteration: int
    max_gaussians: int


def min_scale_per_gaussian(levels, l_max):
    """Scale floor per splat: lam * rho**(1 - level), and zero at the finest
    level. Raises naming the first splat whose level is outside [1, l_max]."""
    levels = np.asarray(levels, dtype=int)
    bad = ((levels < 1) | (levels > l_max)).reshape(-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(f"splat {i}: level {levels.reshape(-1)[i]} "
                                f"outside [1, {l_max}]")
    table = np.array([LOD_LAMBDA * LOD_RHO**(1 - l) for l in range(1, l_max)] + [0.0])
    return table[levels - 1]


def effective_scale(log_scale_opt, level, l_max):
    """exp(s_opt) + floor(level), component-wise."""
    s = np.exp(np.asarray(log_scale_opt, dtype=float))
    return s + min_scale_per_gaussian(level, l_max)[..., None]


def solve_log_scale(target_effective, level, l_max):
    """Invert effective_scale for a new level.

    Returns (log_scale_opt, feasible); infeasible components (target at or
    below the new floor) clamp to a tiny positive exp() argument.
    """
    floor = min_scale_per_gaussian(level, l_max)[..., None]
    diff = np.asarray(target_effective, dtype=float) - floor
    feasible = diff > _SOLVE_FLOOR
    out = np.log(np.where(feasible, diff, _SOLVE_FLOOR))
    return out, feasible


def level_survivors(scene, l_max):
    """Rows that survive the move one level finer, in their current order:
    all but the lowest-importance quantile, never none."""
    if int(scene.levels.max(initial=1)) >= l_max:
        raise InvalidInputError("already at the finest level")
    n = scene.n
    order = np.argsort(scene.importance, kind="stable")
    n_prune = min(int(np.floor(LOD_Q_PRUNE * n)), n - 1)
    return np.sort(order[n_prune:])


def advance_level(scene, l_max):
    """Move the survivors one level finer, in place.

    Re-solves log scales so every splat keeps its effective scale where
    algebraically possible and resets the importance counters. Returns the
    number of clamped scale components.
    """
    old_eff = effective_scale(scene.log_scales, scene.levels, l_max)
    new_level = scene.levels + 1
    new_opt, feasible = solve_log_scale(old_eff, new_level, l_max)
    scene.log_scales = new_opt
    scene.levels = new_level
    scene.importance[:] = 0.0
    return int(np.sum(~feasible))


def densify_candidates(scene, grad_accum, grad_count, cfg_d: DensifyConfig, l_max):
    """Split/clone masks from accumulated screen-space gradient statistics,
    highest average gradient first while the scene, with clones and split
    children added and split parents dropped, stays within max_gaussians."""
    avg = grad_accum / np.maximum(grad_count, 1)
    eff = effective_scale(scene.log_scales, scene.levels, l_max)
    big = eff.max(axis=1) > PERCENT_DENSE * SCENE_EXTENT
    growth = np.where(big, SPLIT_CHILDREN - 1, 1)
    order = np.argsort(-avg, kind="stable")
    order = order[avg[order] > cfg_d.grad_threshold]
    hot = np.zeros(scene.n, dtype=bool)
    hot[order[np.cumsum(growth[order]) <= cfg_d.max_gaussians - scene.n]] = True
    return hot & big, hot & ~big      # split_mask, clone_mask


def split_parameters(scene, split_idx, l_max, rng):
    """Child parameters for a split: positions sampled inside the parent
    footprint, scales divided by SPLIT_SCALE_FACTOR."""
    from .gaussians import quat_normalize, quat_to_rotmat
    idx = np.repeat(split_idx, SPLIT_CHILDREN)
    eff = effective_scale(scene.log_scales[idx], scene.levels[idx], l_max)
    R = quat_to_rotmat(quat_normalize(scene.quaternions[idx]))
    local = rng.normal(0.0, 1.0, (idx.size, 3)) * eff
    positions = scene.positions[idx] + np.einsum("nij,nj->ni", R, local)
    child_eff = eff / SPLIT_SCALE_FACTOR
    log_scales, _ = solve_log_scale(child_eff, scene.levels[idx], l_max)
    return idx, positions, log_scales


def opacity_reset_logits(opacity_logits):
    """Clamp opacities down to RESET_OPACITY (in logit space)."""
    return np.minimum(opacity_logits, inverse_sigmoid(RESET_OPACITY))


def prune_mask_low_opacity(opacity_logits):
    return sigmoid(opacity_logits) < OPACITY_PRUNE
