import json

import numpy as np
import pytest

import kgs.scene
from kgs.config import config_from_dict
from kgs.decomposition import all_dynamic_partition
from kgs.deform import build_neighbor_table, init_field_params
from kgs.gaussians import Camera, InvalidInputError
from kgs.scene import random_scene, read_checkpoint, write_checkpoint
from kgs.train import (
    TrainState,
    densify_and_prune,
    load_checkpoint,
    make_adam,
    save_checkpoint,
    train_loop,
)


class Clip:
    """Two 16x16 targets of a flat colour ramp, one camera."""

    def __init__(self):
        cam = Camera(rotation=np.eye(3), translation=np.array([0.0, 0.0, 3.0]),
                     fx=16.0, fy=16.0, cx=8.0, cy=8.0, width=16, height=16, near=0.01)
        ramp = np.linspace(0.2, 0.8, 16)
        target = np.stack(np.broadcast_arrays(ramp[None, :], ramp[:, None], 0.5), -1)
        self.frames = [(cam, target, 0.25), (cam, target[::-1], 0.75)]

    def train_frames(self):
        return self.frames

    def frame_interval(self):
        return 0.5


CONFIG = {"iterations": 12, "batch": 1, "lod.l_max": 3, "field.hidden": 8,
          "field.feature_dim": 4, "field.time_bands": 2, "field.pos_bands": 2,
          "cf.k": 4}


def initial_state(cfg, count=30):
    rng = np.random.default_rng(0)
    scene = random_scene(rng, count, 0.8, 0.1, 0.3)
    fieldp = init_field_params(rng, scene.n, cfg.hidden, cfg.time_bands,
                               cfg.pos_bands, cfg.feature_dim)
    return TrainState(scene=scene, fieldp=fieldp, partition=all_dynamic_partition(scene.n),
                      neighbor_table=build_neighbor_table(scene.positions, cfg.k_neighbors),
                      adam=make_adam(scene, fieldp), rng=np.random.default_rng(1))


def run(cfg, iterations=None, state=None):
    state = initial_state(cfg) if state is None else state
    rows, levels = [], []
    train_loop(state, Clip(), cfg, cfg.render_settings(), cfg.loss_weights(),
               cfg.densify(), cfg.noise_schedule(), rows, iterations=iterations,
               on_checkpoint=lambda st: levels.append(int(st.scene.levels.max())))
    return state, [r["loss"] for r in rows], levels


class TestStopEarly:
    def test_shortened_run_is_a_prefix(self):
        cfg = config_from_dict(CONFIG)
        _, losses, levels = run(cfg)
        assert levels == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        _, short_losses, short_levels = run(cfg, iterations=6)
        assert short_levels == levels[:6]
        assert short_losses == losses[:6]


class TestDensifyCap:
    def test_cap_just_above_n(self):
        """Every splat is a candidate, with room for three more: the three
        hottest densify, one clone (+1) and two splits (+2 children, -parent)."""
        cfg = config_from_dict({**CONFIG, "densify.start": 1, "densify.interval": 1,
                                "densify.max_gaussians": 33})
        state = initial_state(cfg)
        assert state.scene.n == 30
        state.scene.log_scales[:10] = np.log(0.001)     # small: clone
        state.scene.log_scales[10:] = np.log(0.2)       # big: split
        state.grad_accum[:] = 1.0
        state.grad_accum[[5, 20, 25]] = [3.0, 4.0, 5.0]
        state.grad_count[:] = 1.0
        before = state.scene.positions.copy()
        assert densify_and_prune(state, 1, cfg.densify(), cfg.render_settings().lod)
        assert state.scene.n == 33
        hits = (state.scene.positions[:, None] == before[None]).all(axis=2).sum(axis=0)
        want = np.ones(30, dtype=int)
        want[5], want[20], want[25] = 2, 0, 0
        np.testing.assert_array_equal(hits, want)
        # at the cap nothing densifies, but transparent splats still go
        state.grad_accum[:] = 1.0
        state.grad_count[:] = 1.0
        state.scene.opacity_logits[0] = -10.0
        assert densify_and_prune(state, 2, cfg.densify(), cfg.render_settings().lod)
        assert state.scene.n == 32


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(CONFIG)
        state, _, _ = run(cfg, iterations=5)
        path = tmp_path / "state.kgs"
        save_checkpoint(path, state, CONFIG)
        loaded, meta = load_checkpoint(path)
        assert meta["config"] == CONFIG
        assert loaded.iteration == state.iteration == 5
        assert loaded.adam.t == state.adam.t
        for name, arr in state.scene.per_gaussian_arrays().items():
            np.testing.assert_array_equal(loaded.scene.per_gaussian_arrays()[name], arr)
        for (name, arr), (_, got) in zip(state.fieldp.param_items(),
                                         loaded.fieldp.param_items()):
            np.testing.assert_array_equal(got, arr, err_msg=name)
        for name, arr in state.adam.state_arrays().items():
            np.testing.assert_array_equal(loaded.adam.state_arrays()[name], arr)
        np.testing.assert_array_equal(loaded.partition.dynamic_indices,
                                      state.partition.dynamic_indices)
        np.testing.assert_array_equal(loaded.neighbor_table, state.neighbor_table)
        np.testing.assert_array_equal(loaded.grad_accum, state.grad_accum)
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state

    def test_header_length_is_little_endian_uint32(self, tmp_path):
        path = tmp_path / "a.kgs"
        write_checkpoint(path, {"x": np.arange(3.0)}, {"k": 1})
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        assert json.loads(raw[8:8 + hlen])["version"] == kgs.scene.VERSION
        arrays, meta = read_checkpoint(path)
        np.testing.assert_array_equal(arrays["x"], np.arange(3.0))
        assert meta == {"k": 1}

    def test_unknown_version_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "future.kgs"
        monkeypatch.setattr(kgs.scene, "VERSION", kgs.scene.VERSION + 1)
        write_checkpoint(path, {"x": np.zeros(2)}, {})
        monkeypatch.undo()
        with pytest.raises(InvalidInputError, match="version"):
            read_checkpoint(path)
