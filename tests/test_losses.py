import numpy as np
import pytest

from kgs.gaussians import InvalidInputError
from kgs.losses import (
    SSIM_SIGMA,
    SSIM_WINDOW,
    _blur,
    ani_loss,
    ani_loss_backward,
    image_loss,
    image_loss_backward,
    psnr,
    reg_loss,
    reg_loss_backward,
    ssim,
    ssim_backward,
)


def rand_img(rng, h=16, w=16):
    return rng.uniform(0, 1, (h, w, 3))


class TestSSIM:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        img = rand_img(rng)
        val, _ = ssim(img, img)
        assert abs(val - 1.0) < 1e-6

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rand_img(rng), rand_img(rng)
        va, _ = ssim(a, b)
        vb, _ = ssim(b, a)
        assert abs(va - vb) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            v, _ = ssim(rand_img(rng), rand_img(rng))
            assert -1.0 <= v <= 1.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a, b = rand_img(rng, 12, 12), rand_img(rng, 12, 12)
        _, cache = ssim(a, b)
        grad = ssim_backward(cache)
        h = 1e-6
        for idx in [(0, 0, 0), (5, 7, 1), (11, 11, 2), (3, 2, 0)]:
            ap, am = a.copy(), a.copy()
            ap[idx] += h
            am[idx] -= h
            fd = (ssim(ap, b)[0] - ssim(am, b)[0]) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-6


class TestWindow:
    def stack(self):
        return np.random.default_rng(7).uniform(0, 1, (2, 3, 13, 17))

    def test_stack_matches_each_map(self):
        stack = self.stack()
        out = _blur(stack)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[idx], _blur(stack[idx]))

    def test_matches_2d_window_sum(self):
        """Zero-padded 'same' 11x11 Gaussian window, sigma 1.5, per pixel."""
        stack = self.stack()
        x = np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2
        w = np.exp(-0.5 * (x / SSIM_SIGMA) ** 2)
        w2d = np.outer(w, w) / w.sum() ** 2
        half = SSIM_WINDOW // 2
        padded = np.pad(stack, [(0, 0), (0, 0), (half, half), (half, half)])
        want = np.empty_like(stack)
        for i, j in np.ndindex(13, 17):
            window = padded[..., i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            want[..., i, j] = np.sum(window * w2d, axis=(-2, -1))
        assert np.abs(_blur(stack) - want).max() <= 1e-15

    def test_gray_image_is_one_channel(self):
        rng = np.random.default_rng(8)
        a, b = rand_img(rng, 9, 14)[..., 0], rand_img(rng, 9, 14)[..., 0]
        v2, cache2 = ssim(a, b)
        v3, cache3 = ssim(a[..., None], b[..., None])
        assert v2 == v3
        np.testing.assert_array_equal(ssim_backward(cache2), ssim_backward(cache3))


class TestImageLoss:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        img = rand_img(rng)
        val, _ = image_loss(img, img, 0.2)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_pure_l1_constant_offset(self):
        a = np.full((8, 8, 3), 0.5)
        b = np.full((8, 8, 3), 0.3)
        val, _ = image_loss(a, b, 0.0)
        assert val == pytest.approx(0.2)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            image_loss(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)), 0.2)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a, b = rand_img(rng, 12, 12), rand_img(rng, 12, 12)
        _, cache = image_loss(a, b, 0.2)
        grad = image_loss_backward(cache)
        h = 1e-6
        for idx in [(0, 3, 0), (6, 6, 1), (11, 2, 2)]:
            ap, am = a.copy(), a.copy()
            ap[idx] += h
            am[idx] -= h
            fd = (image_loss(ap, b, 0.2)[0] - image_loss(am, b, 0.2)[0]) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-6

    def test_small_image_works(self):
        # 8x8 is smaller than the 11x11 window; zero-padded stats still defined
        rng = np.random.default_rng(6)
        a, b = rand_img(rng, 8, 8), rand_img(rng, 8, 8)
        val, _ = image_loss(a, b, 0.2)
        assert np.isfinite(val) and val >= 0


class TestPSNR:
    def test_identical_clamps(self):
        img = np.full((8, 8, 3), 0.25)
        assert psnr(img, img) == 99.0

    def test_constant_offset_20db(self):
        a = np.full((16, 16, 3), 0.5)
        b = np.full((16, 16, 3), 0.4)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_monotone_in_mse(self):
        a = np.zeros((8, 8, 3))
        assert psnr(a + 0.05, a) > psnr(a + 0.1, a)


class TestRegLoss:
    def test_zero_offsets(self):
        dx = np.zeros((10, 3))
        mask = np.zeros(10, dtype=bool)
        mask[:4] = True
        assert reg_loss(dx, mask) == 0.0

    def test_single_static_norm(self):
        dx = np.array([[3.0, 4.0, 0.0]])
        assert reg_loss(dx, np.array([False])) == pytest.approx(5.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        dx = rng.normal(size=(40, 3))
        mask = rng.uniform(size=40) < 0.5
        norms = np.linalg.norm(dx, axis=1)
        expected = norms[~mask].mean() + norms[mask].mean()
        assert reg_loss(dx, mask) == pytest.approx(expected, abs=1e-10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        dx = rng.normal(size=(30, 3))
        mask = rng.uniform(size=30) < 0.4
        perm = rng.permutation(30)
        assert reg_loss(dx, mask) == pytest.approx(reg_loss(dx[perm], mask[perm]))

    def test_backward(self):
        rng = np.random.default_rng(9)
        dx = rng.normal(size=(12, 3))
        mask = rng.uniform(size=12) < 0.5
        grad = reg_loss_backward(dx, mask)
        h = 1e-6
        for idx in [(0, 0), (5, 2), (11, 1)]:
            dp, dm = dx.copy(), dx.copy()
            dp[idx] += h
            dm[idx] -= h
            fd = (reg_loss(dp, mask) - reg_loss(dm, mask)) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-6


class TestAniLoss:
    def test_isotropic_near_one(self):
        s = np.full((5, 3), 0.7)
        assert ani_loss(s, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_aspect_four(self):
        s = np.array([[4.0, 1.0, 1.0]])
        assert ani_loss(s, 1e-12) == pytest.approx(4.0)

    def test_scale_invariance_up_to_eps(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(0.5, 2.0, (20, 3))
        a = ani_loss(s, 1e-6)
        b = ani_loss(10 * s, 1e-6)
        exact = np.mean(s.max(axis=1) / s.min(axis=1))
        assert abs(a - exact) < 1e-5
        assert abs(b - exact) < 1e-6

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.1, 3.0, (25, 3))
        perm = rng.permutation(25)
        assert ani_loss(s) == pytest.approx(ani_loss(s[perm]))

    def test_backward(self):
        rng = np.random.default_rng(12)
        s = rng.uniform(0.5, 2.0, (8, 3))
        grad = ani_loss_backward(s, 1e-6)
        h = 1e-7
        for idx in [(0, 0), (3, 1), (7, 2)]:
            sp, sm = s.copy(), s.copy()
            sp[idx] += h
            sm[idx] -= h
            fd = (ani_loss(sp, 1e-6) - ani_loss(sm, 1e-6)) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-5
