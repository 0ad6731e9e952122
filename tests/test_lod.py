import numpy as np
import pytest

from kgs.gaussians import InvalidInputError, inverse_sigmoid, sigmoid
from kgs.lod import (
    DensifyConfig,
    LodConfig,
    advance_level,
    densify_candidates,
    effective_scale,
    level_survivors,
    min_scale,
    min_scale_per_gaussian,
    opacity_reset_logits,
    prune_mask_low_opacity,
    solve_log_scale,
    split_parameters,
)
from kgs.scene import make_scene, random_scene

CFG = LodConfig(l_max=5, lam=0.1, rho=0.5)


class TestMinScale:
    def test_level_one_is_lambda(self):
        assert min_scale(1, CFG) == pytest.approx(0.1)

    def test_finest_level_zero(self):
        assert min_scale(5, CFG) == 0.0

    def test_paper_exponent_growth(self):
        # rho**(1-l) grows with level for rho < 1
        assert min_scale(3, CFG) == pytest.approx(0.1 * 0.5**-2)

    def test_positive_below_finest(self):
        for l in range(1, 5):
            assert min_scale(l, CFG) > 0

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            min_scale(0, CFG)
        with pytest.raises(InvalidInputError):
            min_scale(6, CFG)

    @pytest.mark.parametrize("bad", [0, 6])
    def test_per_gaussian_names_the_first_splat_out_of_range(self, bad):
        """Level 0 would wrap to the finest floor through index -1, and
        l_max + 1 would index past the table."""
        levels = np.array([1, 2, bad, 5, bad])
        with pytest.raises(InvalidInputError, match=rf"^splat 2: level {bad} outside \[1, 5\]$"):
            min_scale_per_gaussian(levels, CFG)
        np.testing.assert_array_equal(min_scale_per_gaussian(np.array([1, 5]), CFG),
                                      [min_scale(1, CFG), 0.0])


class TestEffectiveScale:
    def test_zero_opt_at_finest(self):
        np.testing.assert_allclose(effective_scale(np.zeros(3), 5, CFG), np.ones(3), atol=0)

    def test_floor_behavior(self):
        out = effective_scale(np.full(3, -60.0), 2, CFG)
        np.testing.assert_allclose(out, min_scale(2, CFG), rtol=1e-12)

    def test_always_above_floor(self):
        rng = np.random.default_rng(0)
        for level in range(1, 6):
            s = effective_scale(rng.normal(0, 3, (50, 3)), level, CFG)
            assert np.all(s >= min_scale(level, CFG))

    def test_round_trip_across_levels(self):
        rng = np.random.default_rng(1)
        opt = rng.normal(0, 1.0, (100, 3))
        eff1 = effective_scale(opt, 1, CFG)
        solved, feasible = solve_log_scale(eff1, 2, CFG)
        eff2 = effective_scale(solved[feasible.all(axis=1)], 2, CFG)
        np.testing.assert_allclose(eff2, eff1[feasible.all(axis=1)], rtol=1e-9)


def tiny_scene(n=6, seed=0):
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n, 1.0, scale=0.3)
    scene.log_scales = rng.normal(-1.0, 0.2, (n, 3))
    return scene, rng


def advance(scene, cfg):
    """Both halves of a level transition: select the survivors, rescale."""
    scene.select(level_survivors(scene, cfg))
    return advance_level(scene, cfg)


class TestAdvanceLevel:
    def test_pure_clone_preserves_count(self):
        scene, _ = tiny_scene()
        cfg = LodConfig(l_max=3, lam=0.01, rho=0.5, q_prune=0.0)
        np.testing.assert_array_equal(level_survivors(scene, cfg), np.arange(6))
        advance(scene, cfg)
        assert scene.n == 6
        assert np.all(scene.levels == 2)
        assert np.all(scene.importance == 0)

    def test_prunes_lowest_importance(self):
        scene, _ = tiny_scene(n=2)
        scene.importance = np.array([0.0, 10.0])
        cfg = LodConfig(l_max=3, lam=0.01, rho=0.5, q_prune=0.5)
        np.testing.assert_array_equal(level_survivors(scene, cfg), [1])
        advance(scene, cfg)
        assert scene.n == 1
        assert np.all(scene.levels == 2)

    def test_effective_scale_preserved(self):
        scene, _ = tiny_scene()
        cfg = LodConfig(l_max=3, lam=0.001, rho=0.5, q_prune=0.0)
        before = effective_scale(scene.log_scales, scene.levels, cfg)
        clamped = advance(scene, cfg)
        after = effective_scale(scene.log_scales, scene.levels, cfg)
        assert clamped == 0
        np.testing.assert_allclose(after, before, rtol=1e-9)

    def test_never_empties_scene(self):
        scene, _ = tiny_scene(n=1)
        cfg = LodConfig(l_max=2, lam=0.01, rho=0.5, q_prune=0.99)
        advance(scene, cfg)
        assert scene.n == 1
        with pytest.raises(InvalidInputError, match="finest"):
            level_survivors(scene, cfg)


class TestDensify:
    def test_no_candidates_below_threshold(self):
        scene, _ = tiny_scene()
        d = DensifyConfig(scene_extent=2.0)
        split, clone = densify_candidates(scene, np.full(6, 5e-5), np.ones(6), d,
                                          LodConfig(l_max=3, lam=0.01, rho=0.5))
        assert not split.any() and not clone.any()

    def test_split_vs_clone_partition(self):
        scene, _ = tiny_scene()
        lod = LodConfig(l_max=3, lam=0.001, rho=0.5)
        d = DensifyConfig(scene_extent=2.0, percent_dense=0.1)
        scene.log_scales[:3] = np.log(0.9)     # big -> split
        scene.log_scales[3:] = np.log(0.01)    # small -> clone
        split, clone = densify_candidates(scene, np.full(6, 1e-3), np.ones(6), d, lod)
        assert split[:3].all() and not split[3:].any()
        assert clone[3:].all() and not clone[:3].any()

    def test_split_children_count_and_scale(self):
        scene, rng = tiny_scene()
        lod = LodConfig(l_max=3, lam=1e-4, rho=0.5)
        d = DensifyConfig(scene_extent=2.0)
        idx, positions, log_scales = split_parameters(scene, np.array([0, 2]), d, lod, rng)
        assert idx.size == 4  # two children per split parent
        parent_eff = effective_scale(scene.log_scales[idx], scene.levels[idx], lod)
        child_eff = effective_scale(log_scales, scene.levels[idx], lod)
        np.testing.assert_allclose(child_eff, parent_eff / 1.6, rtol=1e-9)

    def test_opacity_prune_threshold_strictness(self):
        logits = inverse_sigmoid(np.array([0.004, 0.005, 0.5]))
        mask = prune_mask_low_opacity(logits, 0.005)
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_opacity_reset(self):
        logits = inverse_sigmoid(np.array([0.9, 0.005]))
        out = sigmoid(opacity_reset_logits(logits, 0.01))
        assert out[0] == pytest.approx(0.01)
        assert out[1] == pytest.approx(0.005)
