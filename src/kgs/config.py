"""Run configuration: one flat dataclass, loaded from flat JSON with dotted
keys ("loss.lambda_reg": 0.01). Unknown keys are rejected so ablation sweeps
diff cleanly.

A field's key is its name with the first "_" read as ".": `decomp_tau` loads
from "decomp.tau", and a name with no "_" is a top-level key ("seed"). The
six fields in _PERFBENCH_KEYS are the exceptions. perfbench reads them by
their flat names (`cfg.hidden`, `cfg.k_neighbors`, `cfg.background`, ...),
so those names stay until benchmark v2 sets itself up from dotted keys; the
exceptions go with it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .deform import NoiseSchedule, OffsetClamps
from .lod import DensifyConfig, LodConfig
from .renderer import RenderSettings


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


@dataclass
class RunConfig:
    seed: int = 0
    iterations: int = 30000
    batch: int = 2

    decomp_tau: float = 2e-5
    decomp_samples: int = 16
    decomp_warmup: int = 3000
    decomp_repeat: int = 2000

    kin_kappa: float = -2.1972
    kin_lambda_s: float = 0.1
    kin_enabled: bool = True

    cf_enabled: bool = True
    k_neighbors: int = 8
    cf_refresh: int = 500

    hidden: int = 64
    time_bands: int = 6
    pos_bands: int = 4
    feature_dim: int = 16

    clamp_dx: float = 3.0
    clamp_dr: float = math.pi
    clamp_ds: float = 5.0

    noise_sigma_init: float = 0.1
    noise_sigma_final: float = 0.0
    noise_w_delay: float = 0.2
    noise_k_delay: int = 500

    lod_l_max: int = 3
    lod_lambda: float = 0.002
    lod_rho: float = 0.5
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

    loss_lambda_dssim: float = 0.2
    loss_lambda_reg: float = 0.01
    loss_lambda_ani: float = 0.001

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
    render_tile: int = 16

    init_count: int = 400
    init_bound: float = 1.2
    init_scale: float = 0.08
    init_opacity: float = 0.1

    eval_holdout_every: int = 8

    # -- derived bundles ---------------------------------------------------

    def render_settings(self) -> RenderSettings:
        return RenderSettings(
            background=np.asarray(self.background, dtype=float),
            tile=self.render_tile,
            kappa=self.kin_kappa, lambda_s=self.kin_lambda_s,
            refine_enabled=self.kin_enabled, coarse_fine=self.cf_enabled,
            clamps=self.clamps(), lod=self.lod())

    def clamps(self) -> OffsetClamps:
        return OffsetClamps(max_dx_norm=self.clamp_dx, max_dr_norm=self.clamp_dr,
                            max_ds_abs=self.clamp_ds)

    def lod(self) -> LodConfig:
        return LodConfig(l_max=self.lod_l_max, lam=self.lod_lambda,
                         rho=self.lod_rho, q_prune=self.lod_q_prune)

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
        """The noise anneals over the whole run."""
        return NoiseSchedule(sigma_init=self.noise_sigma_init,
                             sigma_final=self.noise_sigma_final,
                             k_max=self.iterations, w_delay=self.noise_w_delay,
                             k_delay=min(self.noise_k_delay, self.iterations))

    def loss_weights(self):
        from .train import LossWeights
        return LossWeights(lambda_dssim=self.loss_lambda_dssim,
                           lambda_reg=self.loss_lambda_reg,
                           lambda_ani=self.loss_lambda_ani)


# The fields whose key does not follow from their name (see the module
# docstring).
_PERFBENCH_KEYS = {"hidden": "field.hidden", "time_bands": "field.time_bands",
                   "pos_bands": "field.pos_bands", "feature_dim": "field.feature_dim",
                   "k_neighbors": "cf.k", "background": "render.background"}

# dotted key -> RunConfig field
DOTTED_KEYS = {_PERFBENCH_KEYS.get(f.name, f.name.replace("_", ".", 1)): f.name
               for f in fields(RunConfig)}

# Smallest value each bounded setting accepts.
_MINIMUM = {"render_tile": 1, "k_neighbors": 0, "batch": 1, "cf_refresh": 1,
            "densify_interval": 1, "decomp_repeat": 1, "decomp_samples": 2,
            "decomp_tau": 0.0,
            **{f.name: 0.0 for f in fields(RunConfig) if f.name.startswith("lr_")}}


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
            continue
        if isinstance(current, int):
            if not _is_finite_number(value) or value != int(value):
                raise ConfigError(f"{key} expects an integer, got {value!r}")
            value = int(value)
        else:
            if not _is_finite_number(value):
                raise ConfigError(f"{key} expects a finite number, got {value!r}")
            value = float(value)
        if value < _MINIMUM.get(attr, value):
            raise ConfigError(f"{key} must be >= {_MINIMUM[attr]}, got {value!r}")
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
