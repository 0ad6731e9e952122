import json
import math
from dataclasses import fields

import numpy as np
import pytest

from kgs.config import (
    DOTTED_KEYS,
    RANGES,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from kgs.deform import fine_offsets_batch, init_field_params, predict_offsets_batch
from kgs.renderer import RenderSettings


class TestRoundTrip:
    def test_default(self):
        cfg = RunConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_changed_values(self):
        cfg = config_from_dict({"seed": 7, "kin.enabled": False, "loss.lambda_reg": 0.02,
                                "lod.l_max": 2, "render.tile": 12,
                                "render.background": [0.1, 0.2, 0.3]})
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg
        assert again.background == (0.1, 0.2, 0.3) and again.render_tile == 12

    def test_tile_default_is_the_renderers(self):
        assert RunConfig().render_settings().tile == RenderSettings().tile


# The fields perfbench reads by name, whose keys do not follow the rule.
PERFBENCH_KEYS = {"hidden": "field.hidden", "time_bands": "field.time_bands",
                  "pos_bands": "field.pos_bands", "feature_dim": "field.feature_dim",
                  "k_neighbors": "cf.k", "background": "render.background"}


def other_value(value):
    """A valid value of the same type that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return tuple(v + 0.25 for v in value)
    return value + (3 if isinstance(value, int) else 0.375)


class TestRegistry:
    def test_every_field_has_one_dotted_key(self):
        """A RunConfig field without a key would drop out of config_to_dict
        and so out of checkpoints."""
        assert sorted(f.name for f in fields(RunConfig)) == sorted(DOTTED_KEYS.values())

    def test_key_is_the_name_with_its_first_underscore_a_dot(self):
        for f in fields(RunConfig):
            key = PERFBENCH_KEYS.get(f.name, f.name.replace("_", ".", 1))
            assert DOTTED_KEYS[key] == f.name

    def test_every_field_round_trips_through_its_key(self):
        """Each field, set alone to another value, loads from its key and is
        written back under it."""
        for key, name in DOTTED_KEYS.items():
            value = other_value(getattr(RunConfig(), name))
            flat = {key: list(value) if isinstance(value, tuple) else value}
            cfg = config_from_dict(flat)
            assert getattr(cfg, name) == value, key
            assert cfg == RunConfig(**{name: value}), key
            assert config_to_dict(cfg)[key] == flat[key], key

    def test_every_number_has_a_range_or_is_named(self):
        """A new numeric key has to declare its range or join UNRANGED; every
        default lies in its range."""
        for key, name in DOTTED_KEYS.items():
            default = getattr(RunConfig(), name)
            if isinstance(default, bool):
                continue
            assert (name in RANGES) != (key in UNRANGED), key
            low, high = RANGES.get(name, (-math.inf, math.inf))
            assert all(low <= v <= high for v in np.atleast_1d(default)), key


# The numeric keys without a declared range: random_scene checks them, open
# ends included.
UNRANGED = ("init.count", "init.bound", "init.scale", "init.opacity")

# The ranges the config checked before they were declared on the fields, as
# [low, high]; each end still loads, and a value just outside is rejected
# with the same message.
EARLIER_RANGES = {
    "render.tile": (1, math.inf), "cf.k": (0, math.inf), "batch": (1, math.inf),
    "cf.refresh": (1, math.inf), "densify.interval": (1, math.inf),
    "decomp.repeat": (1, math.inf), "decomp.samples": (2, math.inf),
    "decomp.tau": (0, math.inf), "noise.sigma_init": (0, math.inf),
    "field.hidden": (1, math.inf), "field.time_bands": (1, math.inf),
    "lod.l_max": (1, math.inf), "field.pos_bands": (0, math.inf),
    "field.feature_dim": (0, math.inf), "loss.lambda_dssim": (0, 1),
    "loss.lambda_reg": (0, math.inf), "loss.lambda_ani": (0, math.inf),
    **{k: (0, math.inf) for k in DOTTED_KEYS if k.startswith("lr.")},
}


class TestEarlierRanges:
    def test_the_earlier_range_list(self):
        assert len(EARLIER_RANGES) == 26

    @pytest.mark.parametrize("key", list(EARLIER_RANGES))
    def test_ends_load_and_just_outside_is_rejected(self, key):
        low, high = EARLIER_RANGES[key]
        name = DOTTED_KEYS[key]
        integer = isinstance(getattr(RunConfig(), name), int)
        ends = [(low, -1)] + ([(high, 1)] if high < math.inf else [])
        interval = f"[{low}, {high}]" if high < math.inf else f"[{low}, inf)"
        for end, outward in ends:
            assert getattr(config_from_dict({key: end}), name) == end
            outside = end + outward if integer else math.nextafter(end, outward * math.inf)
            with pytest.raises(ConfigError) as err:
                config_from_dict({key: outside})
            assert str(err.value) == f"{key} must be in {interval}, got {outside!r}"


# Every key the config accepted before keys were derived from field names,
# with a non-default value; None marks the nineteen settings deleted since.
EARLIER_KEYS = {
    "seed": 7, "iterations": 120, "batch": 3,
    "decomp.tau": 3e-6, "decomp.samples": 5, "decomp.warmup": 40, "decomp.repeat": 9,
    "kin.kappa": None, "kin.lambda_s": None, "kin.velocity_floor": None,
    "kin.enabled": False,
    "cf.enabled": False, "cf.k": 5, "cf.refresh": 11,
    "field.hidden": 24, "field.time_bands": 3, "field.pos_bands": 2,
    "field.feature_dim": 6, "field.noise_shared": None,
    "clamp.dx": None, "clamp.dr": None, "clamp.ds": None,
    "noise.sigma_init": 0.2, "noise.sigma_final": None, "noise.k_max": None,
    "noise.w_delay": None, "noise.k_delay": 7,
    "lod.l_max": 4, "lod.lambda": None, "lod.rho": None, "lod.exponent_sign": None,
    "lod.q_prune": None,
    "densify.grad_threshold": 2e-4, "densify.interval": 50, "densify.start": 20,
    "densify.end": 900, "densify.opacity_prune": None, "densify.reset_iteration": 77,
    "densify.reset_value": None, "densify.percent_dense": None,
    "densify.scene_extent": None, "densify.max_gaussians": 5000,
    "loss.lambda_dssim": 0.3, "loss.lambda_reg": 0.02, "loss.lambda_ani": 0.005,
    "loss.eps_ani": None,
    "lr.position": 1e-3, "lr.position_final": 1e-5, "lr.rotation": 2e-3,
    "lr.scale": 4e-3, "lr.opacity": 0.03, "lr.color": 1e-3, "lr.field": 2e-3,
    "lr.field_final": 2e-5, "lr.features": 3e-3,
    "render.background": [0.25, 0.5, 0.75], "render.tile": 12,
    "init.count": 50, "init.bound": 0.7, "init.scale": 0.03, "init.opacity": 0.2,
    "eval.holdout_every": 4,
}


class TestEarlierKeys:
    def test_the_earlier_key_list(self):
        assert len(EARLIER_KEYS) == 62
        kept = {k for k, v in EARLIER_KEYS.items() if v is not None}
        assert len(kept) == 43 and set(DOTTED_KEYS) == kept

    @pytest.mark.parametrize("key", [k for k, v in EARLIER_KEYS.items() if v is not None])
    def test_loads_to_the_same_value(self, key):
        value = EARLIER_KEYS[key]
        cfg = config_from_dict({key: value})
        assert cfg != RunConfig()
        assert config_to_dict(cfg)[key] == value

    @pytest.mark.parametrize("key", [k for k, v in EARLIER_KEYS.items() if v is None])
    def test_deleted_setting_is_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"^unknown config key: '{key}'$"):
            config_from_dict({key: 1})


class TestRejects:
    @pytest.mark.parametrize("flat,key", [
        ({"loss.lambda_typo": 0.1}, "loss.lambda_typo"),
        ({"seed": True}, "seed"),
        ({"densify.max_gaussians": 2.5}, "densify.max_gaussians"),
        ({"loss.lambda_reg": "0.1"}, "loss.lambda_reg"),
        ({"kin.enabled": 1}, "kin.enabled"),
        ({"render.background": [0.0, 0.0]}, "render.background"),
        ({"render.background": [0.0, 0.0, float("nan")]}, "render.background"),
        ({"decomp.tau": float("nan")}, "decomp.tau"),
        ({"lr.position": -math.inf}, "lr.position"),
        ({"iterations": math.inf}, "iterations"),
        ({"render.tile": 0}, "render.tile"),
        ({"render.tile": -4}, "render.tile"),
        ({"cf.k": -3}, "cf.k"),
        ({"threads": 2}, "threads"),
        ({"batch": 0}, "batch"),
        ({"cf.refresh": 0}, "cf.refresh"),
        ({"densify.interval": 0}, "densify.interval"),
        ({"decomp.repeat": 0}, "decomp.repeat"),
        ({"decomp.samples": 1}, "decomp.samples"),
        ({"decomp.tau": -1.0}, "decomp.tau"),
        ({"lr.position_final": -1e-6}, "lr.position_final"),
        ({"lr.field": -1e-3}, "lr.field"),
    ], ids=["unknown", "bool_for_int", "fraction_for_int", "string_for_float",
            "int_for_bool", "background_len", "background_nan", "nan", "minus_inf",
            "inf_for_int", "tile_zero", "tile_negative", "k_negative", "threads",
            "batch_zero", "refresh_zero", "densify_interval_zero", "repeat_zero",
            "one_sample", "tau_negative", "position_final_negative", "lr_negative"])
    def test_names_the_key(self, flat, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_dict(flat)

    @pytest.mark.parametrize("text,key", [
        ('{"decomp.tau": NaN}', "decomp.tau"),
        ('{"loss.lambda_reg": Infinity}', "loss.lambda_reg"),
        ('{"seed": -Infinity}', "seed"),
        ('{"render.tile": 0}', "render.tile"),
    ], ids=["nan", "infinity", "minus_infinity_for_int", "tile_zero"])
    def test_load_config(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("noise.sigma_init", -0.1), ("field.hidden", 0), ("field.hidden", -1),
        ("field.time_bands", 0), ("field.pos_bands", -1), ("field.feature_dim", -2),
        ("lod.l_max", 0), ("loss.lambda_dssim", 1.5), ("loss.lambda_dssim", -0.1),
        ("loss.lambda_reg", -0.01), ("loss.lambda_ani", -0.001),
        ("render.background", [2.0, -1.0, 0.5]), ("render.background", [0.0, 0.0, 1.5]),
        ("seed", -1), ("iterations", -5), ("decomp.warmup", -1), ("noise.k_delay", -1),
        ("densify.grad_threshold", -1e-4), ("densify.start", -1), ("densify.end", -1),
        ("densify.reset_iteration", -1), ("densify.max_gaussians", -1),
        ("eval.holdout_every", 0),
    ])
    def test_out_of_range_names_the_key(self, key, value):
        """Rejected when loaded, not later in a bundle or mid-run."""
        with pytest.raises(ConfigError, match=rf"^{key.replace('.', '[.]')} must be"):
            config_from_dict({key: value})

    @pytest.mark.parametrize("flat", [
        {"field.hidden": 1, "field.time_bands": 1, "field.pos_bands": 0,
         "field.feature_dim": 0, "lod.l_max": 1, "loss.lambda_dssim": 0.0,
         "loss.lambda_reg": 0.0, "loss.lambda_ani": 0.0},
        {"noise.sigma_init": 0.0, "loss.lambda_dssim": 1.0},
    ], ids=["low_ends", "high_ends"])
    def test_range_ends_load_and_build(self, flat):
        """Closed ends load, every bundle builds from them, and both offset
        heads of a field built from them predict."""
        cfg = config_from_dict(flat)
        for bundle in (cfg.render_settings, cfg.densify, cfg.noise_schedule):
            bundle()
        fieldp = init_field_params(np.random.default_rng(0), 3, cfg.hidden, cfg.time_bands,
                                   cfg.pos_bands, cfg.feature_dim)
        x, q = np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        out, _ = predict_offsets_batch(fieldp, x, q, x, 0.5, 0.0, None)
        fine, _ = fine_offsets_batch(fieldp, fieldp.features, 0.5)
        assert out.shape == fine.shape == (3, 9)

    def test_zero_neighbors_allowed(self):
        assert config_from_dict({"cf.k": 0}).k_neighbors == 0

    def test_load_config_accepts_finite(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"decomp.tau": 1e-5, "render.tile": 1}')
        cfg = load_config(path)
        assert cfg.decomp_tau == 1e-5 and cfg.render_tile == 1

    def test_zero_tau_and_learning_rates_allowed(self):
        zero = {"decomp.tau": 0, **{k: 0.0 for k in DOTTED_KEYS if k.startswith("lr.")}}
        cfg = config_from_dict(zero)
        assert cfg.decomp_tau == 0.0 and cfg.lr_position_final == 0.0
