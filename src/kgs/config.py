"""Run configuration: one flat dataclass, loaded from flat JSON with dotted
keys ("loss.lambda_reg": 0.01). Unknown keys are rejected so ablation sweeps
diff cleanly."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .deform import NoiseSchedule, OffsetClamps
from .lod import DensifyConfig, LodConfig
from .renderer import RenderSettings


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


@dataclass
class RunConfig:
    seed: int = 0
    threads: int = 1
    iterations: int = 30000
    batch: int = 2

    tau: float = 2e-5
    decomp_samples: int = 16
    decomp_warmup: int = 3000
    decomp_repeat: int = 2000

    kappa: float = -2.1972
    lambda_s: float = 0.1
    velocity_floor: float = 1e-6
    kr_enabled: bool = True

    cf_enabled: bool = True
    k_neighbors: int = 8
    k_refresh: int = 500

    hidden: int = 64
    time_bands: int = 6
    pos_bands: int = 4
    feature_dim: int = 16
    noise_shared: bool = False

    clamp_dx: float = 3.0
    clamp_dr: float = math.pi
    clamp_ds: float = 5.0

    noise_sigma_init: float = 0.1
    noise_sigma_final: float = 0.0
    noise_k_max: int = 0          # 0 resolves to `iterations`
    noise_w_delay: float = 0.2
    noise_k_delay: int = 500

    lod_l_max: int = 3
    lod_lambda: float = 0.002
    lod_rho: float = 0.5
    lod_exponent_sign: str = "paper"
    lod_q_prune: float = 0.1

    densify_grad_threshold: float = 1e-4
    densify_interval: int = 300
    densify_start: int = 500
    densify_end: int = 10000
    densify_opacity_prune: float = 0.005
    densify_reset_iteration: int = 3000
    densify_reset_value: float = 0.01
    densify_percent_dense: float = 0.01
    densify_scene_extent: float = 3.0
    densify_max_gaussians: int = 100000

    lambda_dssim: float = 0.2
    lambda_reg: float = 0.01
    lambda_ani: float = 0.001
    eps_ani: float = 1e-6

    lr_position: float = 1.6e-4
    lr_position_final: float = 1.6e-6
    lr_rotation: float = 1e-3
    lr_scale: float = 5e-3
    lr_opacity: float = 0.05
    lr_color: float = 2.5e-3
    lr_field: float = 1.6e-3
    lr_field_final: float = 1.6e-5
    lr_features: float = 2.5e-3

    background: tuple = (0.0, 0.0, 0.0)
    tile: int = 16

    init_count: int = 400
    init_bound: float = 1.2
    init_scale: float = 0.08
    init_opacity: float = 0.1

    holdout_every: int = 8

    # -- derived bundles ---------------------------------------------------

    def render_settings(self) -> RenderSettings:
        return RenderSettings(
            background=np.asarray(self.background, dtype=float),
            tile=self.tile, threads=self.threads,
            kappa=self.kappa, lambda_s=self.lambda_s,
            velocity_floor=self.velocity_floor,
            refine_enabled=self.kr_enabled, coarse_fine=self.cf_enabled,
            clamps=self.clamps(), lod=self.lod(),
            noise_shared=self.noise_shared)

    def clamps(self) -> OffsetClamps:
        return OffsetClamps(max_dx_norm=self.clamp_dx, max_dr_norm=self.clamp_dr,
                            max_ds_abs=self.clamp_ds)

    def lod(self) -> LodConfig:
        return LodConfig(l_max=self.lod_l_max, lam=self.lod_lambda,
                         rho=self.lod_rho, exponent_sign=self.lod_exponent_sign,
                         q_prune=self.lod_q_prune)

    def densify(self) -> DensifyConfig:
        return DensifyConfig(
            grad_threshold=self.densify_grad_threshold,
            opacity_prune=self.densify_opacity_prune,
            interval=self.densify_interval, window_start=self.densify_start,
            window_end=self.densify_end,
            reset_iteration=self.densify_reset_iteration,
            reset_value=self.densify_reset_value,
            percent_dense=self.densify_percent_dense,
            scene_extent=self.densify_scene_extent,
            max_gaussians=self.densify_max_gaussians)

    def noise_schedule(self) -> NoiseSchedule:
        k_max = self.noise_k_max if self.noise_k_max > 0 else self.iterations
        return NoiseSchedule(sigma_init=self.noise_sigma_init,
                             sigma_final=self.noise_sigma_final,
                             k_max=k_max, w_delay=self.noise_w_delay,
                             k_delay=min(self.noise_k_delay, k_max))

    def loss_weights(self):
        from .train import LossWeights
        return LossWeights(lambda_dssim=self.lambda_dssim,
                           lambda_reg=self.lambda_reg,
                           lambda_ani=self.lambda_ani, eps_ani=self.eps_ani)


DOTTED_KEYS = {
    "seed": "seed", "threads": "threads", "iterations": "iterations", "batch": "batch",
    "decomp.tau": "tau", "decomp.samples": "decomp_samples",
    "decomp.warmup": "decomp_warmup", "decomp.repeat": "decomp_repeat",
    "kin.kappa": "kappa", "kin.lambda_s": "lambda_s",
    "kin.velocity_floor": "velocity_floor", "kin.enabled": "kr_enabled",
    "cf.enabled": "cf_enabled", "cf.k": "k_neighbors", "cf.refresh": "k_refresh",
    "field.hidden": "hidden", "field.time_bands": "time_bands",
    "field.pos_bands": "pos_bands", "field.feature_dim": "feature_dim",
    "field.noise_shared": "noise_shared",
    "clamp.dx": "clamp_dx", "clamp.dr": "clamp_dr", "clamp.ds": "clamp_ds",
    "noise.sigma_init": "noise_sigma_init", "noise.sigma_final": "noise_sigma_final",
    "noise.k_max": "noise_k_max", "noise.w_delay": "noise_w_delay",
    "noise.k_delay": "noise_k_delay",
    "lod.l_max": "lod_l_max", "lod.lambda": "lod_lambda", "lod.rho": "lod_rho",
    "lod.exponent_sign": "lod_exponent_sign", "lod.q_prune": "lod_q_prune",
    "densify.grad_threshold": "densify_grad_threshold",
    "densify.interval": "densify_interval", "densify.start": "densify_start",
    "densify.end": "densify_end", "densify.opacity_prune": "densify_opacity_prune",
    "densify.reset_iteration": "densify_reset_iteration",
    "densify.reset_value": "densify_reset_value",
    "densify.percent_dense": "densify_percent_dense",
    "densify.scene_extent": "densify_scene_extent",
    "densify.max_gaussians": "densify_max_gaussians",
    "loss.lambda_dssim": "lambda_dssim", "loss.lambda_reg": "lambda_reg",
    "loss.lambda_ani": "lambda_ani", "loss.eps_ani": "eps_ani",
    "lr.position": "lr_position", "lr.position_final": "lr_position_final",
    "lr.rotation": "lr_rotation", "lr.scale": "lr_scale",
    "lr.opacity": "lr_opacity", "lr.color": "lr_color",
    "lr.field": "lr_field", "lr.field_final": "lr_field_final",
    "lr.features": "lr_features",
    "render.background": "background", "render.tile": "tile",
    "init.count": "init_count", "init.bound": "init_bound",
    "init.scale": "init_scale", "init.opacity": "init_opacity",
    "eval.holdout_every": "holdout_every",
}

# Smallest value each bounded integer setting accepts.
_MINIMUM = {"tile": 1, "k_neighbors": 0}


def _is_finite_number(value):
    """JSON numbers only: bools are not numbers, and NaN and the infinities
    that Python's JSON parser accepts are rejected."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def config_from_dict(flat: dict, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    updates = {}
    for key, value in flat.items():
        if key not in DOTTED_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        attr = DOTTED_KEYS[key]
        if attr == "background":
            if (not isinstance(value, (list, tuple)) or len(value) != 3
                    or not all(_is_finite_number(v) for v in value)):
                raise ConfigError(f"{key} must be a list of 3 finite numbers, got {value!r}")
            updates[attr] = tuple(float(v) for v in value)
            continue
        current = getattr(cfg, attr)
        if isinstance(current, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{key} expects a boolean, got {value!r}")
            updates[attr] = value
        elif isinstance(current, int):
            if not _is_finite_number(value) or value != int(value):
                raise ConfigError(f"{key} expects an integer, got {value!r}")
            if value < _MINIMUM.get(attr, value):
                raise ConfigError(f"{key} must be >= {_MINIMUM[attr]}, got {value!r}")
            updates[attr] = int(value)
        elif isinstance(current, float):
            if not _is_finite_number(value):
                raise ConfigError(f"{key} expects a finite number, got {value!r}")
            updates[attr] = float(value)
        elif isinstance(current, str):
            if not isinstance(value, str):
                raise ConfigError(f"{key} expects a string, got {value!r}")
            updates[attr] = value
        else:
            updates[attr] = value
    return replace(cfg, **updates)


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for dotted, attr in DOTTED_KEYS.items():
        v = getattr(cfg, attr)
        out[dotted] = list(v) if isinstance(v, tuple) else v
    return out


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data, base)
