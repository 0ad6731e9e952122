"""Run configuration: one flat dataclass, loaded from flat JSON with dotted
keys ("loss.lambda_reg": 0.01). Unknown keys are rejected so ablation sweeps
diff cleanly.

A field's key is its name with the first "_" read as ".": `decomp_tau` loads
from "decomp.tau", and a name with no "_" is a top-level key ("seed"). The
six fields in _PERFBENCH_KEYS are the exceptions. perfbench reads them by
their flat names (`cfg.hidden`, `cfg.k_neighbors`, `cfg.background`, ...),
so those names stay until benchmark v2 sets itself up from dotted keys; the
exceptions go with it.

A setting that no run varies is a module constant, not a key: the offset
bounds and the noise warm-up weight in deform.py, and the LOD floors, the
pruned share and the densify thresholds in lod.py. The noise decays to 0.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .deform import NoiseSchedule
from .lod import DensifyConfig
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

    kin_enabled: bool = True

    cf_enabled: bool = True
    k_neighbors: int = 8
    cf_refresh: int = 500

    hidden: int = 64
    time_bands: int = 6
    pos_bands: int = 4
    feature_dim: int = 16

    noise_sigma_init: float = 0.1
    noise_k_delay: int = 500

    lod_l_max: int = RenderSettings.l_max

    densify_grad_threshold: float = 1e-4
    densify_interval: int = 300
    densify_start: int = 500
    densify_end: int = 10000
    densify_reset_iteration: int = 3000
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
    render_tile: int = RenderSettings.tile

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
            kin_enabled=self.kin_enabled, coarse_fine=self.cf_enabled,
            l_max=self.lod_l_max)

    def densify(self) -> DensifyConfig:
        return DensifyConfig(
            grad_threshold=self.densify_grad_threshold,
            interval=self.densify_interval, window_start=self.densify_start,
            window_end=self.densify_end,
            reset_iteration=self.densify_reset_iteration,
            max_gaussians=self.densify_max_gaussians)

    def noise_schedule(self) -> NoiseSchedule:
        """The noise anneals over the whole run."""
        return NoiseSchedule(sigma_init=self.noise_sigma_init, k_max=self.iterations,
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

# The values each bounded setting accepts, as an interval: "[" and "]" are
# closed ends, "(" and ")" open ones.
_BOUNDS = {"render_tile": "[1, inf)", "k_neighbors": "[0, inf)", "batch": "[1, inf)",
           "cf_refresh": "[1, inf)", "densify_interval": "[1, inf)",
           "decomp_repeat": "[1, inf)", "decomp_samples": "[2, inf)",
           "decomp_tau": "[0, inf)", "noise_sigma_init": "[0, inf)", "hidden": "[1, inf)",
           "time_bands": "[1, inf)", "lod_l_max": "[1, inf)", "pos_bands": "[0, inf)",
           "feature_dim": "[0, inf)", "loss_lambda_dssim": "[0, 1]",
           "loss_lambda_reg": "[0, inf)", "loss_lambda_ani": "[0, inf)",
           **{f.name: "[0, inf)" for f in fields(RunConfig) if f.name.startswith("lr_")}}


def _in_interval(value, interval):
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value > low if interval[0] == "(" else value >= low
    below = value < high if interval[-1] == ")" else value <= high
    return above and below


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
        if attr in _BOUNDS and not _in_interval(value, _BOUNDS[attr]):
            raise ConfigError(f"{key} must be in {_BOUNDS[attr]}, got {value!r}")
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
