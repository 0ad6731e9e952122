from dataclasses import replace

import numpy as np
import pytest

from kgs.decomposition import classify
from kgs.deform import build_neighbor_table, init_field_params
from kgs.gaussians import FOOTPRINT_RADIUS, TRANSMITTANCE_CUTOFF, Camera, project
from kgs.renderer import (
    CHUNK,
    RenderSettings,
    _bin_tiles,
    _chunk_step,
    _pixel_axes,
    _raster_forward,
    _tile_backward,
    _tile_forward,
    _tile_rect,
    render,
    render_backward,
    render_points,
    render_points_naive,
)
from kgs.scene import make_scene
from kgs.train import param_arrays

# enough splats on every tile for three depth slices
N_DEEP = 2 * CHUNK + 44


def make_camera(w=20, h=12, f=20.0):
    return Camera(rotation=np.eye(3), translation=np.zeros(3), fx=f, fy=f,
                  cx=w / 2, cy=h / 2, width=w, height=h, near=0.01)


def deep_points(rng, n, sigma_px, opacity):
    """n splats around the image center of make_camera(), at depths 2.5..3.5,
    so every 8-px tile lists all of them."""
    z = rng.uniform(2.5, 3.5, n)
    xy = rng.uniform(-0.3, 0.3, (n, 2))
    positions = np.column_stack([xy, z])
    sig = np.asarray(sigma_px) * z / 20.0
    cov3 = sig[:, None, None] ** 2 * np.eye(3)
    colors = rng.uniform(0.05, 0.95, (n, 3))
    opac = np.full(n, opacity) if np.isscalar(opacity) else opacity
    return positions, cov3, colors, opac


SETTINGS = RenderSettings(background=np.array([0.1, 0.2, 0.3]), tile=8)


class TestTiledMatchesNaive:
    def check(self, positions, cov3, colors, opac):
        cam = make_camera()
        tiled = render_points(positions, cov3, colors, opac, cam, SETTINGS)
        naive = render_points_naive(positions, cov3, colors, opac, cam, SETTINGS)
        np.testing.assert_array_equal(tiled.transmittance, naive.transmittance)
        np.testing.assert_allclose(tiled.image, naive.image, rtol=0, atol=1e-12)
        return tiled

    def test_tiles_hold_several_slices(self):
        rng = np.random.default_rng(0)
        positions, cov3, _, _ = deep_points(rng, N_DEEP, 2.0, 0.5)
        proj = project(positions, cov3, make_camera(), SETTINGS.dilation)
        tiles, _ = _bin_tiles(proj["mean2d"], proj["cov2d"], proj["depth"],
                              proj["valid"], 20, 12, 8)
        assert len(tiles) == 6
        assert all(t.size == N_DEEP > 2 * CHUNK for t in tiles)

    def test_opaque_crosses_cutoff_in_first_slice(self):
        rng = np.random.default_rng(1)
        pts = deep_points(rng, N_DEEP, rng.uniform(1.0, 6.0, N_DEEP),
                          rng.uniform(0.8, 0.99, N_DEEP))
        frame = self.check(*pts)
        assert (frame.transmittance < TRANSMITTANCE_CUTOFF).any()

    def test_cutoff_crossed_past_first_slice(self):
        rng = np.random.default_rng(2)
        pts = deep_points(rng, N_DEEP, 8.0, 0.06)
        frame = self.check(*pts)
        assert (frame.transmittance < TRANSMITTANCE_CUTOFF).any()
        # the nearest CHUNK splats alone leave every pixel above the cutoff
        near = np.argsort(pts[0][:, 2])[:CHUNK]
        first = render_points(*(a[near] for a in pts), make_camera(), SETTINGS)
        assert first.transmittance.min() > TRANSMITTANCE_CUTOFF

    def test_low_opacity_never_crosses(self):
        rng = np.random.default_rng(3)
        pts = deep_points(rng, N_DEEP, rng.uniform(1.0, 8.0, N_DEEP), 0.01)
        frame = self.check(*pts)
        assert frame.transmittance.min() > TRANSMITTANCE_CUTOFF


# ---------------------------------------------------------------------------
# the chunk step and the tile backward against per-pixel oracles
# ---------------------------------------------------------------------------

def composite_pixel(px, py, idx, t, mean2d, conic, opac, s):
    """Per-pixel reference of the chunk step: splat by splat from
    transmittance t. Returns per-splat rows (q, G, alpha_raw, t_before, w)
    and the transmittance after the last processed splat."""
    rows, t_out = [], t
    for i in idx:
        dx, dy = px - mean2d[i, 0], py - mean2d[i, 1]
        a, b, c = conic[i]
        q = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
        G = np.exp(-0.5 * q) if q <= s.chi2 else 0.0
        alpha_raw = opac[i] * G
        alpha = min(alpha_raw, s.alpha_max)
        processed = t >= s.cutoff
        rows.append((q, G, alpha_raw, t, alpha * t if processed else 0.0))
        t = t * (1.0 - alpha)
        if processed:
            t_out = t
    return np.array(rows).T, t_out


def tile_backward_oracle(idx, rect, mean2d, conic, opac, colors, s, d_img_tile):
    """Per-pixel reference of _tile_backward: each pixel composites the whole
    list, then walks it back to front adding its own footprint moments."""
    x0, y0, x1, y1 = rect
    grads = np.zeros((idx.size, 9))
    for yi in range(y0, y1):
        for xi in range(x0, x1):
            px, py = xi + 0.5, yi + 0.5
            (_, G, alpha_raw, t_before, w), t_final = composite_pixel(
                px, py, idx, 1.0, mean2d, conic, opac, s)
            p = d_img_tile[yi - y0, xi - x0]
            behind = (p @ s.background) * t_final
            for k in reversed(range(idx.size)):
                i = idx[k]
                d_w = p @ colors[i]
                grads[k, 6:9] += w[k] * p
                if t_before[k] >= s.cutoff and alpha_raw[k] <= s.alpha_max:
                    d_alpha = d_w * t_before[k] - behind / (1.0 - alpha_raw[k])
                    grads[k, 5] += d_alpha * G[k]
                    d_q = -0.5 * d_alpha * opac[i] * G[k]
                    dx, dy = px - mean2d[i, 0], py - mean2d[i, 1]
                    a, b, c = conic[i]
                    grads[k, 0] -= d_q * (2.0 * a * dx + 2.0 * b * dy)
                    grads[k, 1] -= d_q * (2.0 * b * dx + 2.0 * c * dy)
                    grads[k, 2] += d_q * dx * dx
                    grads[k, 3] += 2.0 * d_q * dx * dy
                    grads[k, 4] += d_q * dy * dy
                behind += d_w * w[k]
    return grads


def kernel_tiles(tile):
    """Tiles of the 20x12 camera over deep splats of mixed size and opacity,
    a few opaque enough to hit alpha_max, with the tile rects."""
    rng = np.random.default_rng(11)
    n = N_DEEP
    opac = rng.uniform(0.01, 0.2, n)
    opac[[3, 70, 140]] = 0.999
    positions, cov3, colors, opac = deep_points(rng, n, rng.uniform(1.0, 6.0, n), opac)
    cam = make_camera()
    s = RenderSettings(background=SETTINGS.background, tile=tile)
    proj = project(positions, cov3, cam, s.dilation)
    tiles, _ = _bin_tiles(proj["mean2d"], proj["cov2d"], proj["depth"],
                          proj["valid"], cam.width, cam.height, tile)
    ntx = (cam.width + tile - 1) // tile
    rects = [_tile_rect(tid, ntx, tile, cam.width, cam.height) for tid in range(len(tiles))]
    return tiles, rects, proj["mean2d"], proj["conic"], opac, colors, s


class TestKernel:
    @pytest.mark.parametrize("tile", [16, 6])
    def test_chunk_step_matches_per_pixel(self, tile):
        """Full and ragged tiles with W != H (16x12 and 4x12; 6x6 and 2x6),
        over slices seeded with the previous slice's transmittance."""
        tiles, rects, mean2d, conic, opac, _, s = kernel_tiles(tile)
        shapes, crossed, missed, clamped = set(), 0, 0, 0
        for idx, rect in zip(tiles, rects):
            xs, ys = _pixel_axes(rect)
            shapes.add((xs.size, ys.size))
            assert idx.size > 2 * CHUNK
            pixels = [(x, y) for y in ys for x in xs]
            t_in = np.ones(len(pixels))
            for lo in range(0, idx.size, CHUNK):
                sl = idx[lo:lo + CHUNK]
                _, _, q, G, _, _, t_before, proc, w, t_out = _chunk_step(
                    sl, xs, ys, t_in, mean2d, conic, opac, s)
                for p, (px, py) in enumerate(pixels):
                    (q_p, G_p, _, t_p, w_p), t_end = composite_pixel(
                        px, py, sl, t_in[p], mean2d, conic, opac, s)
                    np.testing.assert_array_equal(q[p], q_p)
                    np.testing.assert_array_equal(G[p], G_p)
                    np.testing.assert_array_equal(t_before[p], t_p)
                    np.testing.assert_array_equal(w[p], w_p)
                    assert t_out[p] == t_end
                crossed += int((proc[:, 0] & ~proc[:, -1]).sum())
                missed += int((G == 0).sum())
                clamped += int((opac[sl] * G > s.alpha_max).sum())
                t_in = t_out
        assert shapes == ({(16, 12), (4, 12)} if tile == 16 else {(6, 6), (2, 6)})
        assert crossed > 0 and missed > 0 and clamped > 0

    @pytest.mark.parametrize("tile", [16, 6])
    def test_tile_backward_matches_per_pixel_moments(self, tile):
        tiles, rects, mean2d, conic, opac, colors, s = kernel_tiles(tile)
        rng = np.random.default_rng(12)
        for idx, rect in zip(tiles, rects):
            x0, y0, x1, y1 = rect
            _, t_final, _, starts = _tile_forward(idx, rect, mean2d, conic, opac,
                                                  colors, s)
            d_img = rng.normal(size=(y1 - y0, x1 - x0, 3))
            got = _tile_backward(idx, rect, starts, t_final, mean2d, conic, opac,
                                 colors, s, d_img)
            want = tile_backward_oracle(idx, rect, mean2d, conic, opac, colors, s,
                                        d_img)
            scale = np.abs(want).max(axis=0)
            assert (scale > 0).all()
            assert (np.abs(got - want) <= 1e-13 * scale).all(), \
                np.abs(got - want).max(axis=0) / scale


# ---------------------------------------------------------------------------
# full pipeline: deep train-mode frames
# ---------------------------------------------------------------------------

def deep_scene(seed, n=N_DEEP, opacity=0.015):
    """Large low-opacity splats, all in every tile and inside each
    footprint at every pixel, so the objective is smooth; a dynamic
    majority with non-zero heads, so refinement and coarse/fine run."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)),
                                 rng.uniform(-0.5, 0.5, n)])
    quats = rng.normal(size=(n, 4))
    log_scales = np.log(rng.uniform(0.6, 1.0, (n, 3)))
    logits = np.log(opacity / (1.0 - opacity)) + rng.normal(0.0, 0.2, n)
    colors = rng.uniform(0.1, 0.9, (n, 3))
    levels = rng.integers(1, 3, n)
    scene = make_scene(positions, quats, log_scales, logits, colors, levels)
    fieldp = init_field_params(rng, n, 16, 3, 2, 4)
    for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
        head[...] = rng.normal(0.0, 0.02, head.shape)
    fieldp.features[...] = rng.normal(0.0, 0.5, fieldp.features.shape)
    partition = classify((rng.uniform(size=n) < 0.7).astype(float), 0.5)
    table = build_neighbor_table(scene.positions[partition.dynamic_indices], 4)
    cam = Camera(rotation=np.eye(3), translation=np.array([0.0, 0.0, 3.0]),
                 fx=20.0, fy=20.0, cx=10.0, cy=6.0, width=20, height=12, near=0.01)
    return scene, fieldp, partition, table, cam


def train_frame(scene, fieldp, partition, table, cam, settings=SETTINGS):
    return render(scene, partition, fieldp, cam, 0.3, settings, mode="train",
                  dt=0.125, neighbor_table=table)


def fd_case(case):
    """deep_scene(4) set up so that render_backward takes one branch."""
    scene, fieldp, partition, table, cam = deep_scene(4)
    settings = SETTINGS
    if case == "coarse_fine_off":
        settings = replace(SETTINGS, coarse_fine=False)
    elif case == "all_static":
        partition, table = classify(np.zeros(scene.n), 0.5), None
    elif case == "below_velocity_floor":
        # the floor halfway between the two middle dynamic speeds
        offsets = train_frame(scene, fieldp, partition, table, cam)[1].pose["offsets"]
        speed = np.sort(np.linalg.norm(offsets[partition.dynamic_indices, :3], axis=1) / 0.125)
        m = speed.size // 2
        settings = replace(SETTINGS, velocity_floor=0.5 * (speed[m - 1] + speed[m]))
    elif case == "behind_camera":
        scene.positions[partition.static_indices[0], 2] = -4.0
    return scene, fieldp, partition, table, cam, settings


class TestBackward:
    @pytest.mark.parametrize("case", ["generic", "coarse_fine_off", "all_static",
                                      "below_velocity_floor", "behind_camera"])
    def test_central_differences(self, case):
        scene, fieldp, partition, table, cam, settings = fd_case(case)
        frame, tape = train_frame(scene, fieldp, partition, table, cam, settings)
        pose = tape.pose
        assert max(t.size for t in tape.tiles) > 2 * CHUNK
        assert 0.0 < frame.image.min() and frame.image.max() < 1.0
        assert frame.transmittance.min() > TRANSMITTANCE_CUTOFF
        assert pose["cf_active"] == (case not in ("coarse_fine_off", "all_static"))
        if case == "all_static":
            assert pose["dyn_idx"].size == 0 and pose["ridx"].size == 0
        elif case == "below_velocity_floor":
            assert 0 < pose["ridx"].size < pose["dyn_idx"].size
        else:
            assert pose["ridx"].size == pose["dyn_idx"].size > 0
        rng = np.random.default_rng(5)
        weights = rng.normal(size=frame.image.shape)
        grads = render_backward(tape, weights, fieldp)
        analytic = dict(grads.scene_items() + grads.field_items())
        params = param_arrays(scene, fieldp)
        assert set(analytic) == set(params)
        if case == "behind_camera":
            hidden = partition.static_indices[0]
            assert not tape.proj["valid"][hidden]
            assert np.all(analytic["positions"][hidden] == 0.0)

        def loss():
            img = train_frame(scene, fieldp, partition, table, cam, settings)[0].image
            return float(np.sum(weights * img))

        h = 1e-6
        for name, p in params.items():
            v = rng.normal(size=p.shape)
            p += h * v
            up = loss()
            p -= 2.0 * h * v
            down = loss()
            p += h * v
            fd = (up - down) / (2.0 * h)
            an = float(np.sum(analytic[name] * v))
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an)) + 1e-8, (name, fd, an)

    def test_thread_count_invariance(self):
        scene, fieldp, partition, table, cam = deep_scene(6, opacity=0.3)
        d_img = np.random.default_rng(7).normal(size=(12, 20, 3))
        out = []
        for threads in (1, 2):
            s = RenderSettings(background=SETTINGS.background, tile=8, threads=threads)
            frame, tape = train_frame(scene, fieldp, partition, table, cam, s)
            grads = render_backward(tape, d_img, fieldp)
            out.append((frame, dict(grads.scene_items() + grads.field_items())))
        (f1, g1), (f2, g2) = out
        np.testing.assert_array_equal(f1.image, f2.image)
        np.testing.assert_array_equal(f1.transmittance, f2.transmittance)
        np.testing.assert_array_equal(f1.importance, f2.importance)
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])


class TestPoseStage:
    def test_coarse_fine_needs_neighbor_table(self):
        scene, fieldp, partition, _, cam = deep_scene(10, n=40)
        assert partition.dynamic_indices.size > 0
        with pytest.raises(ValueError, match="pose stage.*neighbor_table"):
            render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode="train", dt=0.125)
        s = RenderSettings(background=SETTINGS.background, tile=8, coarse_fine=False)
        render(scene, partition, fieldp, cam, 0.3, s, mode="train", dt=0.125)


# ---------------------------------------------------------------------------
# binning and the tape
# ---------------------------------------------------------------------------

def bin_tiles_loop(mean2d, cov2d, depth, valid, width, height, tile):
    """Per-splat reference binning over the square 5-sigma extent."""
    n = mean2d.shape[0]
    mid = 0.5 * (cov2d[:, 0, 0] + cov2d[:, 1, 1])
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    lam_max = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
    radius = FOOTPRINT_RADIUS * np.sqrt(lam_max)
    ntx = (width + tile - 1) // tile
    nty = (height + tile - 1) // tile
    tiles = [[] for _ in range(ntx * nty)]
    touched = np.zeros(n, dtype=bool)
    order = np.argsort(depth, kind="stable")
    order = order[valid[order]]
    for i in order:
        mx, my, r = mean2d[i, 0], mean2d[i, 1], radius[i]
        tx0 = max(int(np.floor((mx - r) / tile)), 0)
        tx1 = min(int(np.floor((mx + r) / tile)), ntx - 1)
        ty0 = max(int(np.floor((my - r) / tile)), 0)
        ty1 = min(int(np.floor((my + r) / tile)), nty - 1)
        if tx0 > tx1 or ty0 > ty1:
            continue
        touched[i] = True
        for ty in range(ty0, ty1 + 1):
            for tx in range(tx0, tx1 + 1):
                tiles[ty * ntx + tx].append(i)
    return [np.asarray(t, dtype=int) for t in tiles], touched


def scattered_projection(seed, n=400, width=37, height=29):
    """Splats on and off screen, some behind the camera, with tied depths."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([rng.uniform(-3.0, 3.0, (n, 2)),
                                 rng.choice([-1.0, 0.5, 1.0, 2.0, 4.0], n)])
    A = rng.normal(0.0, 0.15, (n, 3, 3))
    cov3 = A @ np.swapaxes(A, 1, 2) + 1e-4 * np.eye(3)
    cam = Camera(rotation=np.eye(3), translation=np.zeros(3), fx=30.0, fy=30.0,
                 cx=width / 2, cy=height / 2, width=width, height=height, near=0.01)
    return project(positions, cov3, cam, 0.3), cam


class TestBinning:
    @pytest.mark.parametrize("seed,tile", [(0, 16), (1, 8), (2, 5)])
    def test_matches_per_splat_loop(self, seed, tile):
        proj, cam = scattered_projection(seed)
        args = (proj["mean2d"], proj["cov2d"], proj["depth"], proj["valid"],
                cam.width, cam.height, tile)
        tiles, touched = _bin_tiles(*args)
        want_tiles, want_touched = bin_tiles_loop(*args)
        assert (~proj["valid"]).any() and (~want_touched & proj["valid"]).any()
        np.testing.assert_array_equal(touched, want_touched)
        assert len(tiles) == len(want_tiles)
        for got, want in zip(tiles, want_tiles):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_nothing_visible(self):
        proj, cam = scattered_projection(3, n=5)
        tiles, touched = _bin_tiles(proj["mean2d"], proj["cov2d"], proj["depth"],
                                    np.zeros(5, dtype=bool), cam.width, cam.height, 16)
        assert len(tiles) == 6 and all(t.size == 0 for t in tiles)
        assert not touched.any()


class TestTape:
    def test_fields_read_by_tracing(self):
        """A traced benchmark run counts pixel x splat pairs from tape.tiles,
        tape.cam and tape.settings.tile, and touched splats from tape.touched."""
        scene, fieldp, partition, table, cam = deep_scene(8, n=60, opacity=0.3)
        scene.positions[:5, 2] -= 10.0     # behind the camera
        s = RenderSettings(background=SETTINGS.background, tile=6)
        frame, tape = render(scene, partition, fieldp, cam, 0.5, s, mode="eval",
                             neighbor_table=table, want_tape=True)
        proj = tape.proj
        want_tiles, want_touched = bin_tiles_loop(
            proj["mean2d"], proj["cov2d"], proj["depth"], proj["valid"],
            cam.width, cam.height, s.tile)
        assert tape.cam is cam and tape.settings.tile == 6
        np.testing.assert_array_equal(tape.touched, want_touched)
        assert 0 < np.count_nonzero(tape.touched) < scene.n
        ntx = (cam.width + s.tile - 1) // s.tile
        assert len(tape.tiles) == len(want_tiles) == ntx * 2
        pairs = want_pairs = 0
        for tid, (idx, want) in enumerate(zip(tape.tiles, want_tiles)):
            np.testing.assert_array_equal(idx, want)
            assert np.all(np.diff(proj["depth"][idx]) >= 0)
            ty, tx = divmod(tid, ntx)
            area = min(s.tile, cam.width - tx * s.tile) * min(s.tile, cam.height - ty * s.tile)
            pairs += area * len(idx)
            want_pairs += area * want.size
        assert pairs == want_pairs > 0

    def test_replay_is_bit_identical(self):
        """Compositing again from the tape reproduces the forward image."""

        def replay_tape(tape):
            image, _, _, _ = _raster_forward(tape.tiles, tape.cam, tape.proj, tape.pose,
                                             tape.settings, tape.n)
            return np.clip(image, 0.0, 1.0)

        scene, fieldp, partition, table, cam = deep_scene(9, opacity=0.3)
        frame, tape = train_frame(scene, fieldp, partition, table, cam)
        np.testing.assert_array_equal(replay_tape(tape), frame.image)
