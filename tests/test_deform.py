import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgs.deform import (
    NoiseSchedule,
    OffsetClamps,
    build_neighbor_table,
    clamp_offsets,
    clamp_offsets_backward,
    coarse_offsets_backward,
    coarse_offsets_batch,
    encode_coords,
    encode_coords_backward,
    fine_offsets_backward,
    fine_offsets_batch,
    init_field_params,
    positional_encoding,
    predict_offsets_backward,
    predict_offsets_batch,
)
from kgs.gaussians import InvalidInputError, NumericalError

CLAMPS = OffsetClamps()


def random_field(rng, n, nonzero_out=True, **kw):
    params = init_field_params(rng, n, **kw)
    if nonzero_out:
        params.w2 = rng.normal(0, 0.05, params.w2.shape)
        params.b2 = rng.normal(0, 0.02, params.b2.shape)
        params.fine_w2 = rng.normal(0, 0.05, params.fine_w2.shape)
        params.fine_b2 = rng.normal(0, 0.02, params.fine_b2.shape)
        params.features = rng.normal(0, 0.3, params.features.shape)
    return params


def random_inputs(rng, n):
    positions = rng.normal(0, 0.8, (n, 3))
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    log_scales = rng.normal(-2.5, 0.3, (n, 3))
    return positions, quats, log_scales


class TestPositionalEncoding:
    def test_t_zero(self):
        enc = positional_encoding(0.0, 6)
        np.testing.assert_allclose(enc[0::2], 0.0, atol=0)
        np.testing.assert_allclose(enc[1::2], 1.0, atol=0)

    def test_t_one_single_band(self):
        np.testing.assert_allclose(positional_encoding(1.0, 1), [np.sin(np.pi), -1.0],
                                   atol=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 1, 1000):
            enc = positional_encoding(t, 5)
            assert np.all(np.abs(enc) <= 1.0)

    def test_coord_encoding_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (4, 3))
        d_enc = rng.normal(size=(4, 24))
        grad = encode_coords_backward(x, 4, d_enc)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = np.sum((encode_coords(xp, 4) - encode_coords(xm, 4)) * d_enc) / (2 * h)
                assert abs(grad[i, j] - fd) < 1e-6


class TestNoiseSchedule:
    SCHED = NoiseSchedule(sigma_init=0.2, sigma_final=0.01, k_max=1000,
                          w_delay=0.3, k_delay=100)

    def test_endpoint(self):
        assert self.SCHED.sigma(1000) == pytest.approx(0.01)
        assert self.SCHED.sigma(5000) == pytest.approx(0.01)

    def test_warmup_start(self):
        assert self.SCHED.sigma(0) == pytest.approx(0.3 * 0.2)

    def test_monotone_after_warmup(self):
        vals = [self.SCHED.sigma(k) for k in range(100, 1100, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_no_warmup_variant(self):
        sched = NoiseSchedule(sigma_init=0.1, sigma_final=0.0, k_max=10)
        assert sched.sigma(0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseSchedule(sigma_init=0.0, sigma_final=0.1, k_max=10)


class TestPredictor:
    def test_zero_init_gives_zero_offsets(self):
        rng = np.random.default_rng(2)
        params = init_field_params(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        out, _ = predict_offsets_batch(params, positions, quats, log_scales,
                                       0.3, 0.0, None, CLAMPS)
        np.testing.assert_allclose(out, 0.0, atol=0)

    def test_deterministic_without_noise(self):
        rng = np.random.default_rng(3)
        params = random_field(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        a, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7, 0.0, None, CLAMPS)
        b, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7, 0.0, None, CLAMPS)
        np.testing.assert_array_equal(a, b)

    def test_noise_deterministic_for_fixed_rng_state(self):
        rng = np.random.default_rng(4)
        params = random_field(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        a, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7,
                                     0.05, np.random.default_rng(9), CLAMPS)
        b, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7,
                                     0.05, np.random.default_rng(9), CLAMPS)
        np.testing.assert_array_equal(a, b)

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        n = 6
        params = random_field(rng, n)
        positions, quats, log_scales = random_inputs(rng, n)
        d_out = rng.normal(size=(n, 9))

        def loss(p):
            out, _ = predict_offsets_batch(p, positions, quats, log_scales, 0.4, 0.0, None, CLAMPS)
            return np.sum(out * d_out)

        _, cache = predict_offsets_batch(params, positions, quats, log_scales, 0.4, 0.0, None, CLAMPS)
        d_w1, d_b1, d_w2, d_b2, d_pos, d_q, d_ls = predict_offsets_backward(params, cache, d_out)
        h = 1e-4
        checks = [(params.w1, d_w1, (3, 7)), (params.b1, d_b1, (11,)),
                  (params.w2, d_w2, (4, 20)), (params.b2, d_b2, (2,))]
        for arr, grad, idx in checks:
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss(params)
            arr[idx] = orig - h
            dn = loss(params)
            arr[idx] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(grad[idx] - fd) / max(abs(fd), 1e-8)
            assert rel < 1e-4, (idx, grad[idx], fd)
        # input-side gradients (canonical parameters feed the predictor)
        for arr, grad in [(positions, d_pos), (quats, d_q), (log_scales, d_ls)]:
            i, j = 1, 2 if arr.shape[1] > 2 else 1
            orig = arr[i, j]
            arr[i, j] = orig + h
            up = loss(params)
            arr[i, j] = orig - h
            dn = loss(params)
            arr[i, j] = orig
            fd = (up - dn) / (2 * h)
            assert abs(grad[i, j] - fd) / max(abs(fd), 1e-8) < 1e-4


class TestClamps:
    def test_clamp_active_and_backward(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(0, 4.0, (20, 9))
        clamps = OffsetClamps(max_dx_norm=1.0, max_dr_norm=0.5, max_ds_abs=1.5)
        out, cache = clamp_offsets(raw, clamps)
        assert np.all(np.linalg.norm(out[:, 0:3], axis=1) <= 1.0 + 1e-12)
        assert np.all(np.linalg.norm(out[:, 3:6], axis=1) <= 0.5 + 1e-12)
        assert np.all(np.abs(out[:, 6:9]) <= 1.5)
        d_out = rng.normal(size=(20, 9))
        grad = clamp_offsets_backward(cache, d_out)
        h = 1e-6
        for idx in [(0, 0), (3, 4), (7, 8), (11, 2), (15, 6)]:
            rp, rm = raw.copy(), raw.copy()
            rp[idx] += h
            rm[idx] -= h
            fd = np.sum((clamp_offsets(rp, clamps)[0] - clamp_offsets(rm, clamps)[0]) * d_out) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-5


class TestFineHead:
    def test_zero_init_zero_offsets(self):
        rng = np.random.default_rng(7)
        params = init_field_params(rng, 5)
        out, _ = fine_offsets_batch(params, np.zeros((5, 16)), 0.2, CLAMPS)
        np.testing.assert_allclose(out, 0.0, atol=0)

    def test_pure(self):
        rng = np.random.default_rng(8)
        params = random_field(rng, 5)
        f = rng.normal(size=(5, 16))
        a, _ = fine_offsets_batch(params, f, 0.9, CLAMPS)
        b, _ = fine_offsets_batch(params, f, 0.9, CLAMPS)
        np.testing.assert_array_equal(a, b)

    def test_feature_gradient(self):
        rng = np.random.default_rng(9)
        params = random_field(rng, 5)
        f = rng.normal(0, 0.5, (5, 16))
        d_out = rng.normal(size=(5, 9))
        _, cache = fine_offsets_batch(params, f, 0.6, CLAMPS)
        _, _, _, _, d_f = fine_offsets_backward(params, cache, d_out)
        h = 1e-4
        for idx in [(0, 0), (2, 7), (4, 15)]:
            fp, fm = f.copy(), f.copy()
            fp[idx] += h
            fm[idx] -= h
            up = np.sum(fine_offsets_batch(params, fp, 0.6, CLAMPS)[0] * d_out)
            dn = np.sum(fine_offsets_batch(params, fm, 0.6, CLAMPS)[0] * d_out)
            fd = (up - dn) / (2 * h)
            assert abs(d_f[idx] - fd) / max(abs(fd), 1e-8) < 1e-4


class TestNonFiniteOutput:
    """The MLP check names the layer and the first row it cannot finish."""

    def test_predictor_names_row(self):
        rng = np.random.default_rng(10)
        params = random_field(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        positions[[5, 7], 1] = np.nan
        with pytest.raises(NumericalError, match=r"^predictor: non-finite output in row 5$"):
            predict_offsets_batch(params, positions, quats, log_scales, 0.3, 0.0, None, CLAMPS)

    def test_fine_head_names_row(self):
        rng = np.random.default_rng(11)
        params = random_field(rng, 5)
        f = rng.normal(size=(5, 16))
        f[3, 2] = np.nan
        with pytest.raises(NumericalError, match=r"^fine head: non-finite output in row 3$"):
            fine_offsets_batch(params, f, 0.4, CLAMPS)


class TestCoarseAggregation:
    def test_constant_field_identity(self):
        offsets = np.tile(np.arange(9.0), (6, 1))
        table = build_neighbor_table(np.random.default_rng(0).normal(size=(6, 3)), 3)
        np.testing.assert_allclose(coarse_offsets_batch(offsets, table), offsets, atol=0)

    def test_cancellation(self):
        offsets = np.zeros((3, 9))
        offsets[1, 0:3] = [1.0, 0, 0]
        offsets[2, 0:3] = [-1.0, 0, 0]
        table = np.array([[1, 2], [0, 2], [0, 1]])
        np.testing.assert_allclose(coarse_offsets_batch(offsets, table)[0], 0.0, atol=0)

    def test_mean_of_three(self):
        offsets = np.zeros((4, 9))
        offsets[1, 0:3] = [1, 0, 0]
        offsets[2, 0:3] = [0, 1, 0]
        offsets[3, 0:3] = [0, 0, 1]
        table = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        out = coarse_offsets_batch(offsets, table)
        np.testing.assert_allclose(out[0, 0:3], [1 / 3] * 3, atol=1e-15)

    def test_empty_neighborhood_falls_back_to_own(self):
        offsets = np.arange(18.0).reshape(2, 9)
        table = np.zeros((2, 0), dtype=int)
        np.testing.assert_array_equal(coarse_offsets_batch(offsets, table), offsets)

    def test_backward_scatter(self):
        rng = np.random.default_rng(10)
        pos = rng.normal(size=(7, 3))
        table = build_neighbor_table(pos, 3)
        offsets = rng.normal(size=(7, 9))
        d_coarse = rng.normal(size=(7, 9))
        grad = coarse_offsets_backward(table, 7, d_coarse)
        h = 1e-6
        for idx in [(0, 0), (3, 5), (6, 8)]:
            op, om = offsets.copy(), offsets.copy()
            op[idx] += h
            om[idx] -= h
            fd = np.sum((coarse_offsets_batch(op, table) - coarse_offsets_batch(om, table)) * d_coarse) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-6


class TestKnn:
    def test_colinear_line(self):
        pos = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        np.testing.assert_array_equal(np.sort(build_neighbor_table(pos, 2)[0]), [1, 2])

    def test_saturation(self):
        pos = np.random.default_rng(0).normal(size=(4, 3))
        assert set(build_neighbor_table(pos, 10)[1]) == {0, 2, 3}

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_neighbors(self, n):
        """k = 0 gives a table without columns: every splat keeps its own offsets."""
        rng = np.random.default_rng(n)
        table = build_neighbor_table(rng.normal(size=(n, 3)), 0)
        assert table.shape == (n, 0) and table.dtype == int
        offsets = rng.normal(size=(n, 9))
        np.testing.assert_array_equal(coarse_offsets_batch(offsets, table), offsets)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(500, 3))
        table = build_neighbor_table(pos, 8)
        for q in rng.integers(0, 500, 25):
            d2 = np.sum((pos - pos[q]) ** 2, axis=1)
            order = [i for i in np.argsort(d2, kind="stable") if i != q][:8]
            np.testing.assert_array_equal(table[q], order)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ties_and_coincident_points(self, data):
        """Integer-grid positions: nearest first, equal distances by index."""
        n = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(0, n + 2))
        coords = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
        pos = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)), dtype=float)
        table = build_neighbor_table(pos, k)
        assert table.dtype == int
        if n == 1 and k >= 1:
            np.testing.assert_array_equal(table, [[0]])
            return
        assert table.shape == (n, min(k, n - 1))
        for i in range(n):
            d2 = [(sum((pos[j, a] - pos[i, a]) ** 2 for a in range(3)), j)
                  for j in range(n) if j != i]
            assert list(table[i]) == [j for _, j in sorted(d2)][:min(k, n - 1)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, bad):
        pos = np.random.default_rng(3).normal(size=(6, 3))
        pos[4, 1] = bad
        with pytest.raises(InvalidInputError, match="row 4"):
            build_neighbor_table(pos, 3)
