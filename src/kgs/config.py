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

A bounded setting declares its closed range with its field: `batch: int =
_range(1, 2)` has default 2 and range [1, inf), per channel for a tuple.
RANGES collects them. The four init.* keys have none: random_scene checks
them, open ends included. Each default is written here once; the bundles and
the set-up helpers take theirs from these fields.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .deform import NoiseSchedule
from .lod import DensifyConfig
from .renderer import RenderSettings


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


def _range(low, default, high=math.inf):
    """A field whose values must lie in [low, high]."""
    return field(default=default, metadata={"range": (low, high)})


@dataclass
class RunConfig:
    seed: int = _range(0, 0)
    iterations: int = _range(0, 30000)
    batch: int = _range(1, 2)

    decomp_tau: float = _range(0, 2e-5)
    decomp_samples: int = _range(2, 16)
    decomp_warmup: int = _range(0, 3000)
    decomp_repeat: int = _range(1, 2000)

    kin_enabled: bool = RenderSettings.kin_enabled

    cf_enabled: bool = RenderSettings.coarse_fine
    k_neighbors: int = _range(0, 8)
    cf_refresh: int = _range(1, 500)

    hidden: int = _range(1, 64)
    time_bands: int = _range(1, 6)
    pos_bands: int = _range(0, 4)
    feature_dim: int = _range(0, 16)

    noise_sigma_init: float = _range(0, 0.1)
    noise_k_delay: int = _range(0, 500)

    lod_l_max: int = _range(1, RenderSettings.l_max)

    densify_grad_threshold: float = _range(0, 1e-4)
    densify_interval: int = _range(1, 300)
    densify_start: int = _range(0, 500)
    densify_end: int = _range(0, 10000)
    densify_reset_iteration: int = _range(0, 3000)
    densify_max_gaussians: int = _range(0, 100000)

    loss_lambda_dssim: float = _range(0, 0.2, 1)
    loss_lambda_reg: float = _range(0, 0.01)
    loss_lambda_ani: float = _range(0, 0.001)

    lr_position: float = _range(0, 1.6e-4)
    lr_position_final: float = _range(0, 1.6e-6)
    lr_rotation: float = _range(0, 1e-3)
    lr_scale: float = _range(0, 5e-3)
    lr_opacity: float = _range(0, 0.05)
    lr_color: float = _range(0, 2.5e-3)
    lr_field: float = _range(0, 1.6e-3)
    lr_field_final: float = _range(0, 1.6e-5)
    lr_features: float = _range(0, 2.5e-3)

    background: tuple = _range(0, (0.0, 0.0, 0.0), 1)    # per channel
    render_tile: int = _range(1, RenderSettings.tile)

    init_count: int = 400
    init_bound: float = 1.2
    init_scale: float = 0.08
    init_opacity: float = 0.1

    eval_holdout_every: int = _range(1, 8)

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

# RunConfig field -> the closed range [low, high] it declares
RANGES = {f.name: f.metadata["range"] for f in fields(RunConfig) if "range" in f.metadata}


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
            value = tuple(float(v) for v in value)
        elif isinstance(getattr(cfg, attr), bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{key} expects a boolean, got {value!r}")
        elif isinstance(getattr(cfg, attr), int):
            if not _is_finite_number(value) or value != int(value):
                raise ConfigError(f"{key} expects an integer, got {value!r}")
            value = int(value)
        else:
            if not _is_finite_number(value):
                raise ConfigError(f"{key} expects a finite number, got {value!r}")
            value = float(value)
        low, high = RANGES.get(attr, (-math.inf, math.inf))
        channels = value if isinstance(value, tuple) else (value,)
        if not all(low <= v <= high for v in channels):
            end = ")" if high == math.inf else "]"
            raise ConfigError(f"{key} must be in [{low}, {high}{end}, got {value!r}")
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
