import json
import math

import pytest

from kgs.config import ConfigError, RunConfig, config_from_dict, config_to_dict, load_config


class TestRoundTrip:
    def test_default(self):
        cfg = RunConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_changed_values(self):
        cfg = config_from_dict({"seed": 7, "kin.enabled": False, "clamp.dr": 1.5,
                                "lod.exponent_sign": "flod", "render.tile": 8,
                                "render.background": [0.1, 0.2, 0.3]})
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg
        assert again.background == (0.1, 0.2, 0.3) and again.tile == 8


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
    ], ids=["unknown", "bool_for_int", "fraction_for_int", "string_for_float",
            "int_for_bool", "background_len", "background_nan", "nan", "minus_inf",
            "inf_for_int", "tile_zero", "tile_negative", "k_negative"])
    def test_names_the_key(self, flat, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_dict(flat)

    @pytest.mark.parametrize("text,key", [
        ('{"decomp.tau": NaN}', "decomp.tau"),
        ('{"kin.kappa": Infinity}', "kin.kappa"),
        ('{"seed": -Infinity}', "seed"),
        ('{"render.tile": 0}', "render.tile"),
    ], ids=["nan", "infinity", "minus_infinity_for_int", "tile_zero"])
    def test_load_config(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(path)

    def test_zero_neighbors_allowed(self):
        assert config_from_dict({"cf.k": 0}).k_neighbors == 0

    def test_load_config_accepts_finite(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"decomp.tau": 1e-5, "render.tile": 1}')
        cfg = load_config(path)
        assert cfg.tau == 1e-5 and cfg.tile == 1
