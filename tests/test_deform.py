import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgs import deform
from kgs.config import RunConfig
from kgs.deform import (
    NoiseSchedule,
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
    predict_offsets_backward,
    predict_offsets_batch,
)
from kgs.gaussians import InvalidInputError, NumericalError


def default_field(rng, n):
    """Zero heads and features, at RunConfig's field sizes."""
    cfg = RunConfig()
    return init_field_params(rng, n, cfg.hidden, cfg.time_bands, cfg.pos_bands,
                             cfg.feature_dim)


def random_field(rng, n, nonzero_out=True):
    params = default_field(rng, n)
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
    """The time encoding is encode_coords of the one coordinate [t]."""

    def test_t_zero(self):
        enc = encode_coords([0.0], 6)
        np.testing.assert_allclose(enc[0::2], 0.0, atol=0)
        np.testing.assert_allclose(enc[1::2], 1.0, atol=0)

    def test_t_one_single_band(self):
        np.testing.assert_allclose(encode_coords([1.0], 1), [np.sin(np.pi), -1.0],
                                   atol=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 1, 1000):
            enc = encode_coords([t], 5)
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
    SCHED = NoiseSchedule(sigma_init=0.2, k_max=1000, k_delay=100)

    def test_endpoint(self):
        assert self.SCHED.sigma(1000) == 0.0
        assert self.SCHED.sigma(5000) == 0.0

    def test_warmup_start(self, monkeypatch):
        assert self.SCHED.sigma(0) == pytest.approx(0.2 * 0.2)
        monkeypatch.setattr(deform, "NOISE_W_DELAY", 0.3)
        assert self.SCHED.sigma(0) == pytest.approx(0.3 * 0.2)

    def test_monotone_after_warmup(self):
        vals = [self.SCHED.sigma(k) for k in range(100, 1100, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_no_warmup_variant(self):
        sched = NoiseSchedule(sigma_init=0.1, k_max=10, k_delay=0)
        assert sched.sigma(0) == pytest.approx(0.1)


class TestPredictor:
    def test_zero_init_gives_zero_offsets(self):
        rng = np.random.default_rng(2)
        params = default_field(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        out, _ = predict_offsets_batch(params, positions, quats, log_scales,
                                       0.3, 0.0, None)
        np.testing.assert_allclose(out, 0.0, atol=0)

    def test_deterministic_without_noise(self):
        rng = np.random.default_rng(3)
        params = random_field(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        a, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7, 0.0, None)
        b, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7, 0.0, None)
        np.testing.assert_array_equal(a, b)

    def test_noise_deterministic_for_fixed_rng_state(self):
        rng = np.random.default_rng(4)
        params = random_field(rng, 8)
        positions, quats, log_scales = random_inputs(rng, 8)
        a, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7,
                                     0.05, np.random.default_rng(9))
        b, _ = predict_offsets_batch(params, positions, quats, log_scales, 0.7,
                                     0.05, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        n = 6
        params = random_field(rng, n)
        positions, quats, log_scales = random_inputs(rng, n)
        d_out = rng.normal(size=(n, 9))

        def loss(p):
            out, _ = predict_offsets_batch(p, positions, quats, log_scales, 0.4, 0.0, None)
            return np.sum(out * d_out)

        _, cache = predict_offsets_batch(params, positions, quats, log_scales, 0.4, 0.0, None)
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
    def test_clamp_active_and_backward(self, monkeypatch):
        rng = np.random.default_rng(6)
        raw = rng.normal(0, 4.0, (20, 9))
        monkeypatch.setattr(deform, "MAX_DX_NORM", 1.0)
        monkeypatch.setattr(deform, "MAX_DR_NORM", 0.5)
        monkeypatch.setattr(deform, "MAX_DS_ABS", 1.5)
        out, cache = clamp_offsets(raw)
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
            fd = np.sum((clamp_offsets(rp)[0] - clamp_offsets(rm)[0]) * d_out) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-5


class TestFineHead:
    def test_zero_init_zero_offsets(self):
        rng = np.random.default_rng(7)
        params = default_field(rng, 5)
        out, _ = fine_offsets_batch(params, np.zeros((5, 16)), 0.2)
        np.testing.assert_allclose(out, 0.0, atol=0)

    def test_pure(self):
        rng = np.random.default_rng(8)
        params = random_field(rng, 5)
        f = rng.normal(size=(5, 16))
        a, _ = fine_offsets_batch(params, f, 0.9)
        b, _ = fine_offsets_batch(params, f, 0.9)
        np.testing.assert_array_equal(a, b)

    def test_feature_gradient(self):
        rng = np.random.default_rng(9)
        params = random_field(rng, 5)
        f = rng.normal(0, 0.5, (5, 16))
        d_out = rng.normal(size=(5, 9))
        _, cache = fine_offsets_batch(params, f, 0.6)
        _, _, _, _, d_f = fine_offsets_backward(params, cache, d_out)
        h = 1e-4
        for idx in [(0, 0), (2, 7), (4, 15)]:
            fp, fm = f.copy(), f.copy()
            fp[idx] += h
            fm[idx] -= h
            up = np.sum(fine_offsets_batch(params, fp, 0.6)[0] * d_out)
            dn = np.sum(fine_offsets_batch(params, fm, 0.6)[0] * d_out)
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
            predict_offsets_batch(params, positions, quats, log_scales, 0.3, 0.0, None)

    def test_fine_head_names_row(self):
        rng = np.random.default_rng(11)
        params = random_field(rng, 5)
        f = rng.normal(size=(5, 16))
        f[3, 2] = np.nan
        with pytest.raises(NumericalError, match=r"^fine head: non-finite output in row 3$"):
            fine_offsets_batch(params, f, 0.4)


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
        """The k = 0 table, each row its own only neighbor, keeps every row's
        offsets and its gradient exactly."""
        offsets = np.arange(18.0).reshape(2, 9) / 7.0
        table = np.arange(2)[:, None]
        np.testing.assert_array_equal(coarse_offsets_batch(offsets, table), offsets)
        np.testing.assert_array_equal(coarse_offsets_backward(table, 2, offsets), offsets)

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

    def test_backward_equals_ordered_scatter(self):
        """The same sums, added in the same order, as an unbuffered scatter."""
        rng = np.random.default_rng(12)
        table = build_neighbor_table(rng.normal(size=(300, 3)), 5)
        d_coarse = rng.normal(size=(300, 9))
        expected = np.zeros((300, 9))
        np.add.at(expected, table.reshape(-1), np.repeat(d_coarse / 5, 5, axis=0))
        np.testing.assert_array_equal(coarse_offsets_backward(table, 300, d_coarse), expected)


def brute_force_table(positions, k):
    """All-pairs oracle for build_neighbor_table, 32 query rows at a time:
    squared distances summed x, then y, then z; nearest first, equal
    distances to the lower index."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n <= 1 or k == 0:
        return np.arange(n)[:, None]
    k_eff = min(k, n - 1)
    table = np.empty((n, k_eff), dtype=int)
    for start in range(0, n, 32):
        stop = min(start + 32, n)
        d2 = np.square(positions[start:stop, 0, None] - positions[:, 0])
        for axis in range(1, positions.shape[1]):
            d2 += np.square(positions[start:stop, axis, None] - positions[:, axis])
        d2[np.arange(stop - start), np.arange(start, stop)] = np.nan
        kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1, None]
        r, c = np.nonzero(d2 <= kth)
        order = np.lexsort((c, d2[r, c], r))
        first = np.searchsorted(r, np.arange(stop - start))
        table[start:stop] = c[order][first[:, None] + np.arange(k_eff)]
    return table


def assert_matches_oracle(positions, k, block=None):
    """build_neighbor_table equals the oracle; block, when given, replaces
    KNN_BLOCK for the call."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(deform, "KNN_BLOCK", block)
        table = build_neighbor_table(positions, k)
    expected = brute_force_table(positions, k)
    assert table.dtype == expected.dtype
    np.testing.assert_array_equal(table, expected)


def reordered(positions, seed):
    """The rows as given (seed None) or permuted by default_rng(seed), so the
    same point set is searched, and its ties broken, under another row order."""
    if seed is None:
        return positions
    return positions[np.random.default_rng(seed).permutation(len(positions))]


def clustered(rng, n_blob, n_backdrop):
    """A dense blob inside a uniform backdrop, rows shuffled together."""
    pos = np.concatenate([rng.normal(0.3, 0.02, (n_blob, 3)),
                          rng.uniform(-1.0, 1.0, (n_backdrop, 3))])
    return pos[rng.permutation(len(pos))]


class TestKnnOracle:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_inputs(self, data):
        """Uniform, clustered, integer-grid, flat and thin rows through small
        blocks and slabs that start too small, so blocks are searched more
        than once."""
        n = data.draw(st.integers(2, 300))
        k = data.draw(st.one_of(st.integers(0, 12), st.integers(n - 2, n + 2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        kind = data.draw(st.sampled_from(["uniform", "clustered", "grid", "flat", "thin"]))
        if kind == "uniform":
            pos = rng.uniform(-1.0, 1.0, (n, 3)) * rng.uniform(0.1, 10.0, 3)
        elif kind == "clustered":
            pos = clustered(rng, n // 2, n - n // 2)
        elif kind == "grid":
            pos = rng.integers(-3, 4, (n, 3)).astype(float)
        elif kind == "flat":
            pos = rng.uniform(-1.0, 1.0, (n, 3))
            pos[:, rng.integers(0, 3)] = 0.5
        else:  # one axis spread 1e-3 of the others: the sweep axis matters
            pos = rng.uniform(-1.0, 1.0, (n, 3))
            pos[:, rng.integers(0, 3)] *= 1e-3
        assert_matches_oracle(pos, k, block=data.draw(st.sampled_from([3, 8, 32])))

    @pytest.mark.parametrize("order_seed", [0, None])
    def test_clustered(self, order_seed):
        """A dense blob inside a sparse backdrop: the slab that a block
        needs changes along the sweep."""
        pos = clustered(np.random.default_rng(4), 2400, 600)
        assert_matches_oracle(reordered(pos, order_seed), 8)

    @pytest.mark.parametrize("order_seed", [0, None])
    @pytest.mark.parametrize("shape", ["coincident", "collinear", "planar", "two_sites"])
    def test_degenerate_extent(self, shape, order_seed):
        """Axes on which every row agrees: no division by a zero extent
        (warnings are errors here) and no search along them."""
        rng = np.random.default_rng(6)
        n = 700
        if shape == "coincident":
            pos = np.tile([0.25, -1.0, 3.0], (n, 1))
        elif shape == "collinear":
            pos = np.outer(rng.uniform(-1.0, 1.0, n), [1.0, -2.0, 0.5]) + [1.0, 2.0, 3.0]
        elif shape == "planar":
            pos = np.column_stack([rng.uniform(-1, 1, n), np.full(n, 0.7), rng.uniform(-1, 1, n)])
        else:
            pos = np.repeat([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], n // 2, axis=0)
        assert_matches_oracle(reordered(pos, order_seed), 8)

    @pytest.mark.parametrize("order_seed", [0, None])
    def test_large_offset_fine_spacing(self, order_seed):
        rng = np.random.default_rng(8)
        pos = 1e6 + 1e-3 * rng.integers(0, 12, (800, 3)) + 1e-4 * rng.uniform(size=(800, 3))
        assert_matches_oracle(reordered(pos, order_seed), 8)

    def test_tied_sweep_coordinate(self):
        """The widest axis takes only 3 values, so rows with equal sort keys
        straddle every block boundary and fill each slab's ends."""
        rng = np.random.default_rng(10)
        pos = rng.uniform(-1.0, 1.0, (2000, 3))
        pos[:, 1] = 1.5 * rng.integers(0, 3, 2000)
        assert_matches_oracle(pos, 8)

    def test_subnormal_extent(self):
        """The mean spacing along the sweep axis rounds to 0, so a zero
        start radius must still widen."""
        pos = np.zeros((100, 3))
        pos[-1, 0] = 5e-324
        assert_matches_oracle(pos, 8)

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_with_nearest_row_outside(self, seed):
        """Integer points on a line, 3 queries per block: a k-th candidate
        often ties with the nearest row outside the slab, which may hold the
        lower index, so the slab must grow past it."""
        pos = np.zeros((40, 3))
        pos[:, 0] = np.random.default_rng(seed).integers(-6, 7, 40)
        assert_matches_oracle(pos, 3, block=3)

    @pytest.mark.parametrize("k_offset", [-1, 0, 5])
    def test_k_at_least_n_minus_one(self, k_offset):
        pos = np.random.default_rng(9).uniform(-1, 1, (90, 3))
        assert_matches_oracle(pos, 89 + k_offset, block=8)


class TestKnn:
    def test_colinear_line(self):
        pos = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        np.testing.assert_array_equal(np.sort(build_neighbor_table(pos, 2)[0]), [1, 2])

    def test_saturation(self):
        pos = np.random.default_rng(0).normal(size=(4, 3))
        assert set(build_neighbor_table(pos, 10)[1]) == {0, 2, 3}

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_neighbors(self, n):
        """k = 0 gives each row itself as its only neighbor: every splat
        keeps its own offsets."""
        rng = np.random.default_rng(n)
        table = build_neighbor_table(rng.normal(size=(n, 3)), 0)
        assert table.dtype == int
        np.testing.assert_array_equal(table, np.arange(n)[:, None])
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
        if n == 1 or k == 0:
            np.testing.assert_array_equal(table, np.arange(n)[:, None])
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
