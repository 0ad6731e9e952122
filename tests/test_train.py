import json

import numpy as np
import pytest

import kgs.scene
from kgs.config import config_from_dict
from kgs.decomposition import all_dynamic_partition, classify
from kgs.deform import FIELD_PARAMS, build_neighbor_table, init_field_params
from kgs.gaussians import Camera, InvalidInputError, NumericalError
from kgs.scene import SCENE_PARAMS, random_scene, read_checkpoint, write_checkpoint
from kgs.train import (
    ROW_PARAMS,
    TrainState,
    advance_scene_level,
    apply_step,
    densify_and_prune,
    frame_loss_and_grads,
    learning_rates,
    load_checkpoint,
    make_adam,
    param_arrays,
    recompute_partition,
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
    """Train; returns the state, the losses, and per iteration the splat
    count, the dynamic count and the level."""
    state = initial_state(cfg) if state is None else state
    rows, levels = [], []
    train_loop(state, Clip(), cfg, cfg.render_settings(), cfg.loss_weights(),
               cfg.densify(), cfg.noise_schedule(), rows, iterations=iterations,
               on_checkpoint=lambda st: levels.append(int(st.scene.levels.max())))
    counts = [(r["n_gaussians"], r["n_dynamic"], lv) for r, lv in zip(rows, levels)]
    return state, [r["loss"] for r in rows], counts


class TestStopEarly:
    def test_shortened_run_is_a_prefix(self):
        cfg = config_from_dict(CONFIG)
        _, losses, counts = run(cfg)
        assert [c[2] for c in counts] == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        _, short_losses, short_counts = run(cfg, iterations=6)
        assert short_counts == counts[:6]
        assert short_losses == losses[:6]


class TestNoNeighbors:
    def test_trains_with_k_zero(self):
        """cf.k = 0: each dynamic splat is its own only neighbor, so coarse
        aggregation keeps its own offsets."""
        cfg = config_from_dict({**CONFIG, "cf.k": 0})
        state, losses, _ = run(cfg, iterations=3)
        np.testing.assert_array_equal(state.neighbor_table,
                                      np.arange(state.partition.dynamic_indices.size)[:, None])
        assert np.all(np.isfinite(losses)) and len(losses) == 3


class TestErrors:
    def test_names_stage_splat_and_iteration(self):
        cfg = config_from_dict(CONFIG)
        state = initial_state(cfg)
        dynamic = np.ones(state.scene.n, dtype=bool)
        dynamic[7] = False
        state.partition = classify(dynamic.astype(float), 0.5)
        state.neighbor_table = build_neighbor_table(state.scene.positions[dynamic],
                                                    cfg.k_neighbors)
        state.scene.log_scales[7, 1] = np.nan
        with pytest.raises(NumericalError, match=r"^iteration 1: pose stage: .*splat 7$"):
            run(cfg, iterations=2, state=state)

    @pytest.mark.parametrize("dt", [0.0, -0.5, np.nan])
    def test_bad_frame_interval_rejected(self, dt):
        class BadInterval(Clip):
            def frame_interval(self):
                return dt

        cfg = config_from_dict(CONFIG)
        with pytest.raises(InvalidInputError) as err:
            train_loop(initial_state(cfg), BadInterval(), cfg, cfg.render_settings(),
                       cfg.loss_weights(), cfg.densify(), cfg.noise_schedule(), [])
        assert str(err.value) == f"render: dt must be finite and > 0, got {dt!r}"

    def test_dataset_without_train_frames_rejected(self):
        class NoFrames(Clip):
            def train_frames(self):
                return []

        cfg = config_from_dict(CONFIG)
        with pytest.raises(InvalidInputError, match="^train_loop: the dataset has no train"):
            train_loop(initial_state(cfg), NoFrames(), cfg, cfg.render_settings(),
                       cfg.loss_weights(), cfg.densify(), cfg.noise_schedule(), [])


class TestRandomScene:
    @pytest.mark.parametrize("name, value", [
        ("count", -1), ("count", 2.0), ("count", True),
        ("bound", -1.0), ("bound", np.inf), ("bound", np.nan),
        ("scale", 0.0), ("scale", -0.1), ("scale", np.inf), ("scale", np.nan),
        ("opacity", 0.0), ("opacity", 1.0), ("opacity", 1.5), ("opacity", np.nan)])
    def test_bad_argument_rejected(self, name, value):
        args = {"count": 5, "bound": 1.0, "scale": 0.05, "opacity": 0.1, name: value}
        with pytest.raises(InvalidInputError, match=f"^random_scene: {name} must be"):
            random_scene(np.random.default_rng(0), **args)

    @pytest.mark.parametrize("key, value", [("init.opacity", 0.0), ("init.opacity", 1.5),
                                            ("init.scale", 0.0), ("init.bound", -1.0)])
    def test_bad_config_value_named_at_set_up(self, key, value):
        """These keys load; set-up names the argument instead of failing
        inside numpy."""
        cfg = config_from_dict({key: value})
        with pytest.raises(InvalidInputError, match=f"^random_scene: {key[5:]} must be"):
            random_scene(np.random.default_rng(0), cfg.init_count, cfg.init_bound,
                         cfg.init_scale, cfg.init_opacity)

    def test_empty_and_flat_accepted(self):
        rng = np.random.default_rng(0)
        assert random_scene(rng, 0, 1.0, 0.05, 0.1).n == 0
        scene = random_scene(rng, np.int64(4), 0.0, 0.05, 0.1)
        assert scene.n == 4 and not scene.positions.any()


class TestBatch:
    def test_batch_two_is_the_mean_of_two_frames(self):
        """The default batch of 2: the logged loss and the densify statistics
        are the means of the two frames', and the step takes the mean of
        their gradients, summed and then halved as the loop does."""
        cfg = config_from_dict({**CONFIG, "batch": 2, "noise.sigma_init": 0.0})
        state, ref = initial_state(cfg), initial_state(cfg)
        rows = []
        train_loop(state, Clip(), cfg, cfg.render_settings(), cfg.loss_weights(),
                   cfg.densify(), cfg.noise_schedule(), rows, iterations=1)
        frames = Clip().train_frames()
        picks = ref.rng.choice(len(frames), size=2, replace=False)
        (t1, g1, _), (t2, g2, _) = (
            frame_loss_and_grads(ref, *frames[j], Clip().frame_interval(), 0.0,
                                 cfg.render_settings(), cfg.loss_weights()) for j in picks)
        assert rows[0]["loss"] == (t1["loss"] + t2["loss"]) / 2
        np.testing.assert_array_equal(state.grad_accum,
                                      (g1.densify_norm + g2.densify_norm) / 2)
        for name, g in g1.grads.items():
            g[...] = (g + g2.grads[name]) * 0.5
        apply_step(ref, g1, learning_rates(cfg, 1))
        assert state.scene.n == ref.scene.n
        got, want = param_arrays(state.scene, state.fieldp), param_arrays(ref.scene, ref.fieldp)
        for name, arr in want.items():
            np.testing.assert_array_equal(got[name], arr, err_msg=name)


class TestOneSplat:
    def test_recompute_partition(self):
        """densify_and_prune keeps at least one splat, so a run can reach a
        one-splat scene; its partition has one row, dynamic or static."""
        cfg = config_from_dict(CONFIG)
        state = initial_state(cfg, count=1)
        state.fieldp.w2 = np.random.default_rng(2).normal(0.0, 0.1, state.fieldp.w2.shape)
        for tau, dynamic in ((0.0, True), (np.inf, False)):
            recompute_partition(state, tau, cfg.decomp_samples)
            np.testing.assert_array_equal(state.partition.dynamic, [dynamic])


# Densify at 3, 6, 9 and 12, partition at 4, 8 and 12 (leaving static
# splats), level advance at the start of 5 and 9.
RESUME_CONFIG = {**CONFIG, "densify.start": 3, "densify.interval": 3, "densify.end": 12,
                 "densify.grad_threshold": 3e-3, "decomp.warmup": 4, "decomp.repeat": 4,
                 "decomp.tau": 1.05e-5, "cf.refresh": 5}


def state_arrays(state):
    """Every array a resumed run must reproduce, by name."""
    return {**state.named_arrays(), "dynamic_indices": state.partition.dynamic_indices}


@pytest.fixture(scope="module")
def uninterrupted():
    return run(config_from_dict(RESUME_CONFIG))


class TestResume:
    def test_schedule_has_every_event(self, uninterrupted):
        _, _, counts = uninterrupted
        n, dyn, level = (np.array(c) for c in zip(*counts))
        assert n[2] != n[1]                     # densify at 3
        assert dyn[3] < n[3] and dyn[2] == n[2]  # first partition at 4
        assert level[4] == level[3] + 1 and level[8] == level[7] + 1

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_resumed_run_is_the_uninterrupted_one(self, tmp_path, uninterrupted, k):
        """Stop at k, just before a densify (2), the first partition (3), a
        level advance (4), or a level advance and a densify with static
        splats (8); save, load and continue."""
        head, head_losses, _ = run(config_from_dict(RESUME_CONFIG), iterations=k)
        save_checkpoint(tmp_path / "head.kgs", head, RESUME_CONFIG)
        assert_resumes(tmp_path / "head.kgs", uninterrupted, head_losses, k)

    def test_file_holding_clamp_warnings(self, tmp_path, uninterrupted):
        """Version-2 files written while the training state counted clamped
        scales hold that count in their meta; they load and resume alike."""
        head, head_losses, _ = run(config_from_dict(RESUME_CONFIG), iterations=8)
        path = tmp_path / "head.kgs"
        save_checkpoint(path, head, RESUME_CONFIG)
        arrays, meta = read_checkpoint(path)
        write_checkpoint(path, arrays, {**meta, "clamp_warnings": 2})
        assert_resumes(path, uninterrupted, head_losses, 8)

    def test_file_holding_partition_scores(self, tmp_path, uninterrupted):
        """Version-2 files written while the partition kept its variance
        scores hold one per splat; they load and resume alike."""
        head, head_losses, _ = run(config_from_dict(RESUME_CONFIG), iterations=8)
        path = tmp_path / "head.kgs"
        save_checkpoint(path, head, RESUME_CONFIG)
        arrays, meta = read_checkpoint(path)
        assert "partition_scores" not in arrays
        scores = np.random.default_rng(3).uniform(0.0, 1e-4, head.scene.n)
        write_checkpoint(path, {**arrays, "partition_scores": scores}, meta)
        assert_resumes(path, uninterrupted, head_losses, 8)


def assert_resumes(path, uninterrupted, head_losses, k):
    """The checkpoint at path, saved after k iterations of RESUME_CONFIG,
    loads and continues as the uninterrupted run."""
    full, losses, counts = uninterrupted
    resumed, meta = load_checkpoint(path)
    assert meta["config"] == RESUME_CONFIG and resumed.iteration == k
    if k >= 4:
        assert not resumed.partition.dynamic.all()
    _, tail_losses, tail_counts = run(config_from_dict(meta["config"]), state=resumed)
    assert head_losses + tail_losses == losses
    assert tail_counts == counts[k:]
    assert resumed.adam.t == full.adam.t and resumed.iteration == full.iteration
    assert resumed.rng.bit_generator.state == full.rng.bit_generator.state
    got, want = state_arrays(resumed), state_arrays(full)
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        np.testing.assert_array_equal(got[name], arr, err_msg=name)


def row_arrays(state):
    """Every per-splat array of a training state, by name."""
    out = {f"scene.{n}": a for n, a in state.scene.per_gaussian_arrays().items()}
    out["features"] = state.fieldp.features
    out.update({f"m.{n}": state.adam.m[n] for n in ROW_PARAMS})
    out.update({f"v.{n}": state.adam.v[n] for n in ROW_PARAMS})
    out.update(grad_accum=state.grad_accum, grad_count=state.grad_count,
               dynamic=state.partition.dynamic)
    return out


def marked_state(cfg, seed):
    """A 30-splat state whose every per-splat array is random, with a mixed
    partition, unique colours and row i's moments all i + 1."""
    state = initial_state(cfg)
    rng = np.random.default_rng(seed)
    state.partition = classify(rng.uniform(size=30), 0.5)
    state.scene.colors = rng.uniform(0.1, 0.9, (30, 3))
    state.scene.importance = rng.uniform(size=30)
    state.scene.levels[:] = 1
    state.fieldp.features = rng.normal(size=state.fieldp.features.shape)
    state.grad_accum = rng.uniform(1.0, 2.0, 30)
    state.grad_count = rng.uniform(1.0, 2.0, 30)
    for name in ROW_PARAMS:
        for moments in (state.adam.m, state.adam.v):
            moments[name] = np.broadcast_to(
                (np.arange(30) + 1.0).reshape((30,) + (1,) * (moments[name].ndim - 1)),
                moments[name].shape).copy()
    return state


ZERO_WHEN_APPENDED = ("scene.importance", "grad_accum", "grad_count")


class TestRowEdit:
    def test_append_and_keep(self):
        cfg = config_from_dict(CONFIG)
        state = marked_state(cfg, 2)
        before = {n: a.copy() for n, a in row_arrays(state).items()}
        parents = np.array([4, 0, 4, 7])
        positions = np.random.default_rng(3).normal(size=(4, 3))
        state.edit_rows(parents=parents, positions=positions)
        rows = row_arrays(state)
        for name, arr in rows.items():
            assert arr.shape[0] == state.scene.n == 34, name
            np.testing.assert_array_equal(arr[:30], before[name], err_msg=name)
            new = arr[30:]
            if name == "scene.positions":
                np.testing.assert_array_equal(new, positions)
            elif name in ZERO_WHEN_APPENDED or name[:2] in ("m.", "v."):
                assert not new.any(), name
            else:
                np.testing.assert_array_equal(new, before[name][parents], err_msg=name)
        keep = np.array([33, 0, 5, 31])
        state.edit_rows(keep=keep)
        for name, arr in row_arrays(state).items():
            np.testing.assert_array_equal(arr, rows[name][keep], err_msg=name)
        np.testing.assert_array_equal(state.partition.dynamic_indices,
                                      np.where(rows["dynamic"][keep])[0])

    def test_densify_then_level_advance(self):
        """Every splat densifies: 0-9 clone, 10-29 split; 3 and 12 are
        transparent, so they, their clone and 12's children are pruned."""
        cfg = config_from_dict({**CONFIG, "densify.start": 1, "densify.interval": 1})
        state = marked_state(cfg, 4)
        state.scene.log_scales[:10] = np.log(0.001)
        state.scene.log_scales[10:] = np.log(0.2)
        state.scene.opacity_logits[[3, 12]] = -10.0
        before = {n: a.copy() for n, a in row_arrays(state).items()}

        def check():
            rows = row_arrays(state)
            for name, arr in rows.items():
                assert arr.shape[0] == state.scene.n, name
            # row identity: the original row with the same colour
            same = (state.scene.colors[:, None] == before["scene.colors"][None]).all(axis=2)
            origin = same.argmax(axis=1)
            ids = rows["m.positions"][:, 0]
            kept = ids > 0
            np.testing.assert_array_equal(ids[kept], origin[kept] + 1)
            for name in ROW_PARAMS:
                for m in ("m.", "v."):
                    np.testing.assert_array_equal(
                        rows[m + name][kept], before[m + name][origin[kept]])
                    assert not rows[m + name][~kept].any()
            for name in ("dynamic", "features", "scene.quaternions"):
                np.testing.assert_array_equal(rows[name], before[name][origin])
            return origin, kept

        assert densify_and_prune(state, 1, cfg.densify(), cfg.lod_l_max)
        origin, kept = check()
        # kept rows in order, then the clones, then two children per split
        cloned = np.delete(np.arange(10), 3)
        split = np.repeat(np.delete(np.arange(10, 30), 2), 2)
        np.testing.assert_array_equal(origin, np.concatenate([cloned, cloned, split]))
        np.testing.assert_array_equal(kept, np.arange(state.scene.n) < 9)
        assert not state.grad_accum.any() and not state.grad_count.any()

        state.scene.importance = np.random.default_rng(5).uniform(size=state.scene.n)
        n = state.scene.n
        advance_scene_level(state, cfg.lod_l_max)
        assert state.scene.n == n - int(0.1 * n)
        assert np.all(state.scene.levels == 2)
        check()


class TestRegistry:
    def test_every_parameter_list_follows_the_registry(self, tmp_path):
        """A new optimized array fails here unless it is registered in
        SCENE_PARAMS or FIELD_PARAMS."""
        names = list(SCENE_PARAMS + FIELD_PARAMS)
        cfg = config_from_dict(CONFIG)
        state = initial_state(cfg)
        cam, target, t = Clip().train_frames()[0]
        _, grads, _ = frame_loss_and_grads(state, cam, target, t, 0.5, 0.0,
                                           cfg.render_settings(), cfg.loss_weights())
        assert list(grads.grads) == names
        assert [n for n, _ in grads.scene_items() + grads.field_items()] == names
        assert list(param_arrays(state.scene, state.fieldp)) == names
        assert list(state.adam.m) == list(state.adam.v) == names
        assert list(learning_rates(cfg, 1)) == names
        assert set(SCENE_PARAMS) <= set(state.scene.per_gaussian_arrays()) <= set(
            state.named_arrays())
        save_checkpoint(tmp_path / "s.kgs", state, CONFIG)
        arrays, _ = read_checkpoint(tmp_path / "s.kgs")
        assert list(arrays) == list(state.named_arrays())
        assert [n for n in arrays if f"adam_m_{n}" in arrays] == names


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
        assert densify_and_prune(state, 1, cfg.densify(), cfg.lod_l_max)
        assert state.scene.n == 33
        hits = (state.scene.positions[:, None] == before[None]).all(axis=2).sum(axis=0)
        want = np.ones(30, dtype=int)
        want[5], want[20], want[25] = 2, 0, 0
        np.testing.assert_array_equal(hits, want)
        # at the cap nothing densifies, but transparent splats still go
        state.grad_accum[:] = 1.0
        state.grad_count[:] = 1.0
        state.scene.opacity_logits[0] = -10.0
        assert densify_and_prune(state, 2, cfg.densify(), cfg.lod_l_max)
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

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.kgs"
        write_checkpoint(path, {"x": np.arange(1000.0)}, {"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(InvalidInputError, match="unreadable checkpoint"):
            read_checkpoint(path)

    def test_flipped_data_byte_rejected(self, tmp_path):
        """One bit of one array's data changes: the member's CRC-32 no longer
        matches."""
        path = tmp_path / "flip.kgs"
        x = np.arange(1000.0)
        write_checkpoint(path, {"x": x}, {"k": 1})
        raw = bytearray(path.read_bytes())
        start = raw.find(x.tobytes())
        assert start > 0
        raw[start + 8 * 500 + 3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidInputError, match="CRC"):
            read_checkpoint(path)

    def test_plain_npy_file_rejected(self, tmp_path):
        path = tmp_path / "array.kgs"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(InvalidInputError, match="unreadable checkpoint"):
            read_checkpoint(path)

    def test_version_one_file_rejected(self, tmp_path):
        """The earlier format: magic KGS1, a little-endian uint32 header
        length, a JSON header, then the raw arrays."""
        header = json.dumps({"version": 1, "meta": {},
                             "fields": [{"name": "x", "dtype": "<f8", "shape": [2]}]})
        path = tmp_path / "old.kgs"
        path.write_bytes(b"KGS1" + len(header).to_bytes(4, "little") + header.encode()
                         + np.zeros(2).tobytes())
        with pytest.raises(InvalidInputError, match="unreadable checkpoint"):
            read_checkpoint(path)

    @pytest.mark.parametrize("entry", ["positions", "adam_v_features", "rng_state"])
    def test_missing_entry_named(self, tmp_path, entry):
        path, arrays, meta = saved_checkpoint(tmp_path)
        del (meta if entry == "rng_state" else arrays)[entry]
        write_checkpoint(path, arrays, meta)
        assert_rejected(path, f"missing entry {entry!r}")

    @pytest.mark.parametrize("entry", ["quaternions", "features", "adam_m_colors",
                                       "grad_count", "partition_dynamic"])
    def test_per_splat_row_count_checked(self, tmp_path, entry):
        path, arrays, meta = saved_checkpoint(tmp_path)
        before = arrays[entry].shape
        assert before[0] == arrays["positions"].shape[0] > 5
        arrays[entry] = arrays[entry][:5]
        write_checkpoint(path, arrays, meta)
        assert_rejected(path, f"entry {entry!r} has shape {arrays[entry].shape}, not {before}")

    @pytest.mark.parametrize("entry,change,detail", [
        ("partition_dynamic", lambda a: a.astype(float), "has dtype float64, not bool"),
        ("quaternions", lambda a: a[:, :3], "has shape ({n}, 3), not ({n}, 4)"),
        ("neighbor_table", lambda a: a[:, 0], "has shape ({m},), with no axis 1"),
        ("positions", lambda a: a[0, 0], "has shape (), with no axis 0"),
        ("w1", lambda a: a[0, 0], "has shape (), with no axis 0"),
        ("features", lambda a: a[:, 0], "has shape ({n},), with no axis 1"),
        ("partition_dynamic", lambda a: a.astype(str), "has dtype <U5, not bool"),
    ], ids=["dynamic_as_float", "quaternions_n_by_3", "one_dimensional_table",
            "scalar_positions", "scalar_w1", "one_dimensional_features", "dynamic_as_str"])
    def test_dtype_and_trailing_shape_checked(self, tmp_path, entry, change, detail):
        """Caught when the checkpoint loads, not at the first render; the
        entries that size the fresh state are caught by name too, not inside
        numpy."""
        path, arrays, meta = saved_checkpoint(tmp_path)
        n, m = arrays["positions"].shape[0], arrays["neighbor_table"].shape[0]
        arrays[entry] = change(arrays[entry])
        write_checkpoint(path, arrays, meta)
        assert_rejected(path, f"entry {entry!r} " + detail.format(n=n, m=m))

    def test_neighbor_table_row_count_checked(self, tmp_path):
        """One row per dynamic splat."""
        path, arrays, meta = saved_checkpoint(tmp_path)
        table = arrays["neighbor_table"]
        arrays["neighbor_table"] = table[:-1]
        write_checkpoint(path, arrays, meta)
        assert_rejected(path, f"entry 'neighbor_table' has shape {table[:-1].shape}, "
                              f"not {table.shape}")

    def test_table_without_dynamic_splats_checked(self, tmp_path):
        """Without dynamic splats a table has no rows; a build over no rows
        gives one column."""
        path, arrays, meta = saved_checkpoint(tmp_path)
        arrays["partition_dynamic"][:] = False
        write_checkpoint(path, arrays, meta)
        assert_rejected(path, f"entry 'neighbor_table' has shape "
                              f"{arrays['neighbor_table'].shape}, not (0, 1)")

    @pytest.mark.parametrize("index", [-3, 10**6])
    def test_neighbor_table_range_checked(self, tmp_path, index):
        """Every entry indexes a dynamic splat."""
        path, arrays, meta = saved_checkpoint(tmp_path)
        table = arrays["neighbor_table"].copy()
        table[2, 1] = index
        write_checkpoint(path, {**arrays, "neighbor_table": table}, meta)
        assert_rejected(path, "entry 'neighbor_table' holds an index outside "
                              f"[0, {table.shape[0]})")

    @pytest.mark.parametrize("entry", FIELD_PARAMS)
    def test_field_weight_shapes_checked(self, tmp_path, entry):
        """Three extra columns in one array are caught at load, not inside the
        first render's matmul. The feature width is features' column count,
        so widened features leave fine_w1 three columns short."""
        path, arrays, meta = saved_checkpoint(tmp_path)
        before = arrays[entry].shape
        arrays[entry] = np.concatenate([arrays[entry], np.zeros(before[:-1] + (3,))], -1)
        write_checkpoint(path, arrays, meta)
        if entry == "features":
            have = arrays["fine_w1"].shape
            assert_rejected(path, f"entry 'fine_w1' has shape {have}, "
                                  f"not {(have[0], have[1] + 3)}")
        else:
            assert_rejected(path, f"entry {entry!r} has shape {arrays[entry].shape}, "
                                  f"not {before}")

    @pytest.mark.parametrize("entry", [f"adam_{m}_{n}" for n in SCENE_PARAMS + FIELD_PARAMS
                                       for m in "mv"])
    def test_adam_moment_shapes_checked(self, tmp_path, entry):
        """Three extra columns (three extra entries when 1-D) in one moment
        are caught at load, not inside the first Adam step."""
        path, arrays, meta = saved_checkpoint(tmp_path)
        before = arrays[entry].shape
        arrays[entry] = np.concatenate([arrays[entry], np.zeros(before[:-1] + (3,))], -1)
        write_checkpoint(path, arrays, meta)
        assert_rejected(path, f"entry {entry!r} has shape {arrays[entry].shape}, not {before}")

    @pytest.mark.parametrize("entry,value,detail", [
        ("iteration", "5", "is '5', not an integer >= 0"),
        ("iteration", 5.0, "is 5.0, not an integer >= 0"),
        ("iteration", True, "is True, not an integer >= 0"),
        ("adam_t", -1, "is -1, not an integer >= 0"),
        ("field_meta", {"pos_bands": 2, "time_bands": "2"},
         "is {'pos_bands': 2, 'time_bands': '2'}: field.time_bands expects an integer, "
         "got '2'"),
        ("field_meta", {"pos_bands": 2, "time_bands": 0},
         "is {'pos_bands': 2, 'time_bands': 0}: field.time_bands must be in [1, inf), got 0"),
        ("field_meta", [2, 2], "is [2, 2]: list indices must be integers or slices, not str"),
        ("rng_state", {"bit_generator": "MT19937", "state": {"key": [1] * 624, "pos": 624}},
         "is not a PCG64 state (state must be for a PCG64 RNG)"),
        ("rng_state", 7, "is not a PCG64 state (state must be a dict)"),
    ], ids=["iteration_str", "iteration_float", "iteration_bool", "adam_t_negative",
            "bands_str", "bands_out_of_range", "bands_list", "rng_mt19937", "rng_int"])
    def test_meta_entries_checked(self, tmp_path, entry, value, detail):
        path, arrays, meta = saved_checkpoint(tmp_path)
        write_checkpoint(path, arrays, {**meta, entry: value})
        assert_rejected(path, f"meta entry {entry!r} " + detail)

    def test_missing_band_named(self, tmp_path):
        path, arrays, meta = saved_checkpoint(tmp_path)
        write_checkpoint(path, arrays, {**meta, "field_meta": {"time_bands": 2}})
        assert_rejected(path, "missing entry 'pos_bands'")

    def test_header_without_meta_rejected(self, tmp_path):
        path = tmp_path / "bare.kgs"
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps({"version": kgs.scene.VERSION})),
                     x=np.zeros(2))
        with pytest.raises(InvalidInputError) as err:
            read_checkpoint(path)
        assert str(err.value) == f"checkpoint {path}: header has no entry 'meta'"

    @pytest.mark.parametrize("header,detail", [
        ([2], "header is a list, not a JSON object"),
        ({"version": kgs.scene.VERSION, "meta": [1]},
         "header entry 'meta' is a list, not a JSON object"),
    ], ids=["header_list", "meta_list"])
    def test_header_and_meta_must_be_objects(self, tmp_path, header, detail):
        """Both readers name the file, not fail inside a lookup."""
        path = tmp_path / "odd.kgs"
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(header)), x=np.zeros(2))
        for reader in (read_checkpoint, load_checkpoint):
            with pytest.raises(InvalidInputError) as err:
                reader(path)
            assert str(err.value) == f"checkpoint {path}: {detail}"

    def test_unknown_version_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "future.kgs"
        monkeypatch.setattr(kgs.scene, "VERSION", kgs.scene.VERSION + 1)
        write_checkpoint(path, {"x": np.zeros(2)}, {})
        monkeypatch.undo()
        with pytest.raises(InvalidInputError, match="version"):
            read_checkpoint(path)


def saved_checkpoint(tmp_path):
    """The path, arrays and meta of a checkpoint after 5 iterations."""
    state, _, _ = run(config_from_dict(CONFIG), iterations=5)
    path = tmp_path / "state.kgs"
    save_checkpoint(path, state, CONFIG)
    return (path, *read_checkpoint(path))


def assert_rejected(path, detail):
    with pytest.raises(InvalidInputError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"checkpoint {path}: {detail}"
