import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from kgs import deform, renderer
from kgs.decomposition import Partition, classify
from kgs.deform import build_neighbor_table, init_field_params
from kgs.gaussians import (
    ALPHA_MAX,
    FOOTPRINT_CHI2,
    FOOTPRINT_RADIUS,
    TRANSMITTANCE_CUTOFF,
    Camera,
    InvalidInputError,
    covariance_from_matrix,
    project,
    quat_normalize,
    quat_to_rotmat,
    sigmoid,
)
from kgs.losses import ani_loss, ani_loss_backward, reg_loss, reg_loss_backward
from kgs.renderer import (
    RenderedFrame,
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
    render_points_naive,
)
from kgs.scene import make_scene
from kgs.train import param_arrays

# The deep scenes are sized for depth slices of SLICE splats, whatever the
# production CHUNK: N_DEEP puts three slices on every tile.
SLICE = 64
N_DEEP = 2 * SLICE + 44


@pytest.fixture(autouse=True)
def slices_of_64(monkeypatch):
    monkeypatch.setattr(renderer, "CHUNK", SLICE)


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


def render_points(positions, cov3, colors, opacities, cam, settings):
    """Composite bare world-space splats, with no deformation and no
    motion blur, through the tiled compositor: project, bin, raster."""
    proj = project(positions, cov3, cam)
    tiles, _ = _bin_tiles(proj, cam.width, cam.height, settings.tile)
    pose = {"opac": opacities, "colors_c": np.clip(colors, 0.0, 1.0)}
    image, trans, importance, _ = _raster_forward(tiles, cam, proj, pose, settings,
                                                  positions.shape[0])
    return RenderedFrame(image=np.clip(image, 0.0, 1.0), transmittance=trans,
                         importance=importance)


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
        proj = project(positions, cov3, make_camera())
        tiles, _ = _bin_tiles(proj, 20, 12, 8)
        assert len(tiles) == 6
        assert all(t.size == N_DEEP > 2 * SLICE for t in tiles)

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
        # the nearest slice alone leaves every pixel above the cutoff
        near = np.argsort(pts[0][:, 2])[:SLICE]
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

def composite_pixel(px, py, idx, t, mean2d, conic, opac):
    """Per-pixel reference of the chunk step: splat by splat from
    transmittance t. Returns per-splat rows (q, G, alpha_raw, t_before, w)
    and the transmittance after the last processed splat."""
    rows, t_out = [], t
    for i in idx:
        dx, dy = px - mean2d[i, 0], py - mean2d[i, 1]
        a, b, c = conic[i]
        q = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
        G = np.exp(-0.5 * q) if q <= FOOTPRINT_CHI2 else 0.0
        alpha_raw = opac[i] * G
        alpha = min(alpha_raw, ALPHA_MAX)
        processed = t >= TRANSMITTANCE_CUTOFF
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
                px, py, idx, 1.0, mean2d, conic, opac)
            p = d_img_tile[yi - y0, xi - x0]
            behind = (p @ s.background) * t_final
            for k in reversed(range(idx.size)):
                i = idx[k]
                d_w = p @ colors[i]
                grads[k, 6:9] += w[k] * p
                if t_before[k] >= TRANSMITTANCE_CUTOFF and alpha_raw[k] <= ALPHA_MAX:
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
    proj = project(positions, cov3, cam)
    tiles, _ = _bin_tiles(proj, cam.width, cam.height, tile)
    ntx = (cam.width + tile - 1) // tile
    rects = [_tile_rect(tid, ntx, tile, cam.width, cam.height) for tid in range(len(tiles))]
    return tiles, rects, proj["mean2d"], proj["conic"], opac, colors, s


def check_chunk_step(sl, xs, ys, t_in, mean2d, conic, opac):
    """_chunk_step on one slice against composite_pixel at every pixel: -2 h
    is the oracle's q exactly, and G, alpha_raw, t_before, w, t_out and the
    processed mask are equal. Returns the chunk step's results, valid until
    the next chunk step."""
    out = _chunk_step(sl, xs, ys, t_in, mean2d, conic, opac)
    _, _, h, G, alpha_raw, _, t_before, proc, w, t_out = out
    for p, (px, py) in enumerate((x, y) for y in ys for x in xs):
        (q_p, G_p, a_p, t_p, w_p), t_end = composite_pixel(
            px, py, sl, t_in[p], mean2d, conic, opac)
        np.testing.assert_array_equal(-2.0 * h[p], q_p)
        np.testing.assert_array_equal(G[p], G_p)
        np.testing.assert_array_equal(alpha_raw[p], a_p)
        np.testing.assert_array_equal(t_before[p], t_p)
        np.testing.assert_array_equal(w[p], w_p)
        np.testing.assert_array_equal(proc[p], t_p >= TRANSMITTANCE_CUTOFF)
        assert t_out[p] == t_end
    return out


def three_slice_tile():
    """One 8x8 tile and three slices of SLICE round splats of 6 px, depth
    ordered: faint ones (opacity 0.02) that every pixel processes whole;
    faint ones (0.01) with one opaque (0.999) and narrow (0.6 px) splat on a
    pixel centre, capped at ALPHA_MAX there, still processed whole; then
    half-opaque ones, past whose first few every pixel is below the
    cutoff."""
    rng = np.random.default_rng(21)
    n = 3 * SLICE
    mean2d = rng.uniform(2.0, 6.0, (n, 2))
    sigma = np.full(n, 6.0)
    opac = np.repeat([0.02, 0.01, 0.5], SLICE)
    mean2d[SLICE + 5], sigma[SLICE + 5], opac[SLICE + 5] = (3.5, 4.5), 0.6, 0.999
    proj = screen_projection(mean2d, sigma, sigma, np.zeros(n))
    colors = rng.uniform(0.05, 0.95, (n, 3))
    return np.arange(n), (0, 0, 8, 8), proj["mean2d"], proj["conic"], opac, colors


class TestKernel:
    @pytest.mark.parametrize("tile", [16, 6])
    def test_chunk_step_matches_per_pixel(self, tile):
        """Full and ragged tiles with W != H (16x12 and 4x12; 6x6 and 2x6),
        over slices seeded with the previous slice's transmittance."""
        tiles, rects, mean2d, conic, opac, *_ = kernel_tiles(tile)
        shapes, crossed, missed, clamped = set(), 0, 0, 0
        for idx, rect in zip(tiles, rects):
            xs, ys = _pixel_axes(rect)
            shapes.add((xs.size, ys.size))
            assert idx.size > 2 * SLICE
            t_in = np.ones(xs.size * ys.size)
            for lo in range(0, idx.size, SLICE):
                sl = idx[lo:lo + SLICE]
                _, _, _, G, _, _, _, proc, _, t_out = check_chunk_step(
                    sl, xs, ys, t_in, mean2d, conic, opac)
                crossed += int((proc[:, 0] & ~proc[:, -1]).sum())
                missed += int((G == 0).sum())
                clamped += int((opac[sl] * G > ALPHA_MAX).sum())
                t_in = t_out
        assert shapes == ({(16, 12), (4, 12)} if tile == 16 else {(6, 6), (2, 6)})
        assert crossed > 0 and missed > 0 and clamped > 0

    def test_whole_capped_and_crossing_slices(self):
        """A slice processed whole and uncapped, one processed whole and
        capped, and one crossing the cutoff mid-slice at every pixel, in
        the chunk step and in the tile backward."""
        idx, rect, mean2d, conic, opac, colors = three_slice_tile()
        xs, ys = _pixel_axes(rect)
        t_in = np.ones(64)
        kinds = []
        for lo in range(0, idx.size, SLICE):
            *_, alpha_raw, _, _, proc, _, t_out = check_chunk_step(
                idx[lo:lo + SLICE], xs, ys, t_in, mean2d, conic, opac)
            kinds.append((bool((alpha_raw > ALPHA_MAX).any()), bool(proc.all()),
                          bool(proc[:, 0].all() and not proc[:, -1].any())))
            t_in = t_out
        assert kinds == [(False, True, False), (True, True, False), (False, False, True)]
        s = RenderSettings(background=SETTINGS.background, tile=8)
        _, t_final, _, starts = _tile_forward(idx, rect, mean2d, conic, opac, colors, s)
        d_img = np.random.default_rng(22).normal(size=(8, 8, 3))
        got = _tile_backward(idx, rect, starts, t_final, mean2d, conic, opac, colors, s,
                             d_img)
        want = tile_backward_oracle(idx, rect, mean2d, conic, opac, colors, s, d_img)
        scale = np.abs(want).max(axis=0)
        assert (scale > 0).all()
        assert (np.abs(got - want) <= 1e-13 * scale).all(), \
            np.abs(got - want).max(axis=0) / scale

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
    majority with non-zero heads, so motion blur and coarse/fine run."""
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


def train_frame(scene, fieldp, partition, table, cam, settings=SETTINGS, dt=0.125):
    return render(scene, partition, fieldp, cam, 0.3, settings, mode="train",
                  dt=dt, neighbor_table=table)


def fd_case(case, monkeypatch):
    """deep_scene(4) set up so that render_backward takes one branch; with
    the settings and the frame interval."""
    scene, fieldp, partition, table, cam = deep_scene(4)
    settings, dt = SETTINGS, 0.125
    if case == "coarse_fine_off":
        settings = replace(SETTINGS, coarse_fine=False)
    elif case == "all_static":
        partition, table = classify(np.zeros(scene.n), 0.5), None
    elif case == "long_blur":
        # position offsets 20 times as large, so that the moment term is a
        # tenth of the covariance on the dynamic rows, not 3e-4 of it
        for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
            head[0:3] *= 20.0
    elif case == "behind_camera":
        scene.positions[np.flatnonzero(~partition.dynamic)[0], 2] = -4.0
    elif case == "clamp_saturation":
        # each clamp halfway between the two middle dynamic predictor outputs
        raw = train_frame(scene, fieldp, partition, table, cam)[1].pose["raw"]
        raw = raw[partition.dynamic_indices]
        for name, size in (("MAX_DX_NORM", np.linalg.norm(raw[:, 0:3], axis=1)),
                           ("MAX_DR_NORM", np.linalg.norm(raw[:, 3:6], axis=1)),
                           ("MAX_DS_ABS", np.abs(raw[:, 6:9]))):
            monkeypatch.setattr(deform, name, halfway(size))
    elif case == "empty_tile":
        # the rightmost tiles lie past every splat's extent
        cam = replace(cam, width=64)
    elif case == "training_start":
        # as random_scene starts training: every splat isotropic, and no
        # predicted rotation or scale offsets, so every predicted row is a
        # three-way tie of its scales
        scene.log_scales[:] = scene.log_scales[:, :1]
        for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
            head[3:9] = 0.0
    elif case == "one_dynamic":
        only = partition.dynamic_indices[:1]
        mask = np.zeros(scene.n)
        mask[only] = 1.0
        partition = classify(mask, 0.5)
        table = build_neighbor_table(scene.positions[only], 4)
    return scene, fieldp, partition, table, cam, settings, dt


def halfway(values):
    """The point halfway between the two middle values."""
    v = np.sort(values.ravel())
    m = v.size // 2
    return 0.5 * (v[m - 1] + v[m])


class TestBackward:
    @pytest.mark.parametrize("case", ["generic", "coarse_fine_off", "all_static",
                                      "long_blur", "behind_camera",
                                      "clamp_saturation", "empty_tile", "one_dynamic"])
    def test_central_differences(self, case, monkeypatch):
        scene, fieldp, partition, table, cam, settings, dt = fd_case(case, monkeypatch)
        frame, tape = train_frame(scene, fieldp, partition, table, cam, settings, dt)
        pose = tape.pose
        assert max(t.size for t in tape.tiles) > 2 * SLICE
        assert 0.0 < frame.image.min() and frame.image.max() < 1.0
        assert frame.transmittance.min() > TRANSMITTANCE_CUTOFF
        assert pose["cf_active"] == (case not in ("coarse_fine_off", "all_static"))
        assert (pose["dyn_idx"].size == 0) == (case == "all_static")
        assert_blur_share(pose, case)
        if case == "clamp_saturation":
            *_, ((*_, dx_over, _), (*_, dr_over, _), ds_free) = pose["pred_cache"]["head"]
            for hit in (dx_over, dr_over, ~ds_free):
                assert 0 < hit[pose["dyn_idx"]].sum() < hit[pose["dyn_idx"]].size
        if case == "empty_tile":
            assert min(t.size for t in tape.tiles) == 0
        if case == "one_dynamic":
            assert pose["dyn_idx"].size == 1 and pose["table"].shape == (1, 1)
        rng = np.random.default_rng(5)
        weights = rng.normal(size=frame.image.shape)
        grads = render_backward(tape, weights, fieldp, *no_extras(tape))
        analytic = dict(grads.scene_items() + grads.field_items())
        params = param_arrays(scene, fieldp)
        assert set(analytic) == set(params)
        if case == "behind_camera":
            hidden = np.flatnonzero(~partition.dynamic)[0]
            assert not tape.proj["valid"][hidden]
            assert np.all(analytic["positions"][hidden] == 0.0)

        def loss():
            img = train_frame(scene, fieldp, partition, table, cam, settings, dt)[0].image
            return float(np.sum(weights * img))

        check_central_differences(params, analytic, loss, rng)

    @pytest.mark.parametrize("case", ["generic", "all_static", "long_blur",
                                      "training_start"])
    def test_regularizer_central_differences(self, case, monkeypatch):
        """The l_reg and l_ani gradients alone (d_image = 0), injected as
        frame_loss_and_grads does: l_reg reaches dynamic rows through the
        composed offsets and static rows through the raw ones, l_ani reaches
        every row through its predicted scales, which the blur leaves out."""
        scene, fieldp, partition, table, cam, settings, dt = fd_case(case, monkeypatch)
        lam_reg, lam_ani = 0.7, 0.3

        def regularized():
            frame, tape = train_frame(scene, fieldp, partition, table, cam, settings, dt)
            dyn = tape.pose["dyn"]
            dx = np.where(dyn[:, None], tape.pose["offsets"][:, 0:3], tape.pose["raw"][:, 0:3])
            return frame, tape, dx, dyn, tape.pose["s_pred"]

        frame, tape, dx, dyn, scales = regularized()
        assert_blur_share(tape.pose, case)
        grads = render_backward(tape, np.zeros_like(frame.image), fieldp,
                                reg_loss_backward(dx, dyn, lam_reg),
                                ani_loss_backward(scales, lam_ani))
        analytic = dict(grads.scene_items() + grads.field_items())
        params = param_arrays(scene, fieldp)
        assert set(analytic) == set(params) and len(params) == 14
        assert analytic["positions"].any() and analytic["log_scales"].any()

        def loss():
            _, _, dx, dyn, scales = regularized()
            return lam_reg * reg_loss(dx, dyn) + lam_ani * ani_loss(scales)

        check_central_differences(params, analytic, loss, np.random.default_rng(6))


def assert_blur_share(pose, case):
    """The moment term's share of the covariance trace, summed over the
    dynamic rows: at least a tenth in the long_blur case, so that a wrong
    backward of the term shows in the central differences; tiny, but not
    0, in the others with dynamic rows."""
    dyn_idx = pose["dyn_idx"]
    if not dyn_idx.size:
        return
    cov_pred = covariance_from_matrix(pose["R_pred"], pose["s_pred"])[dyn_idx]
    blur = np.trace(pose["cov_render"][dyn_idx] - cov_pred, axis1=1, axis2=2).sum()
    share = blur / np.trace(cov_pred, axis1=1, axis2=2).sum()
    if case == "long_blur":
        assert share >= 0.1
    else:
        assert 0.0 < share < 1e-3


def no_extras(tape):
    """Zero gradients wrt the applied position offsets and the predicted
    scales: render_backward's extras for a loss of the image alone."""
    return np.zeros((tape.n, 3)), np.zeros((tape.n, 3))


def check_central_differences(params, analytic, loss, rng):
    """Each analytic gradient against the central difference of loss() along
    one random direction of its parameter array."""
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


def render_and_backward(case):
    """A train frame and its gradients at one tile size, as a list of
    arrays; checks that none aliases the calling thread's workspace."""
    (scene, fieldp, partition, table, cam), tile = case
    s = RenderSettings(background=SETTINGS.background, tile=tile)
    frame, tape = train_frame(scene, fieldp, partition, table, cam, s)
    d_img = np.random.default_rng(tile).normal(size=frame.image.shape)
    grads = render_backward(tape, d_img, fieldp, *no_extras(tape))
    out = [frame.image, frame.transmittance, frame.importance,
           tape.transmittance, *tape.chunk_starts, *grads.grads.values(),
           grads.densify_norm, grads.densify_count]
    for buf in renderer._SCRATCH.rows:
        assert not any(np.shares_memory(a, buf) for a in out)
    return out


class TestRetiling:
    def test_tile_and_chunk_regroup_sums_only(self, monkeypatch):
        """Tile 16 with slices of 64 against tile 8 with slices of 256:
        transmittance is the same sequential product, so it is equal;
        images, importance and gradients only regroup sums over tiles and
        slices (importance and gradients relative to their largest entry)."""
        scene, fieldp, partition, table, cam = deep_scene(4, n=300, opacity=0.3)
        out = []
        for tile, chunk in ((16, 64), (8, 256)):
            monkeypatch.setattr(renderer, "CHUNK", chunk)
            s = RenderSettings(background=SETTINGS.background, tile=tile)
            frame = render(scene, partition, fieldp, cam, 0.3, s, mode="eval",
                           neighbor_table=table)
            train, tape = train_frame(scene, fieldp, partition, table, cam, s)
            assert max(t.size for t in tape.tiles) > chunk
            d_img = np.random.default_rng(7).normal(size=train.image.shape)
            grads = render_backward(tape, d_img, fieldp, *no_extras(tape))
            out.append((frame, train, grads))
        (eval16, train16, grads16), (eval8, train8, grads8) = out
        for a, b in ((eval16, eval8), (train16, train8)):
            np.testing.assert_array_equal(a.transmittance, b.transmittance)
            assert np.abs(a.image - b.image).max() <= 1e-15
            assert np.abs(a.importance - b.importance).max() <= 1e-15 * a.importance.max()
        for name, g in grads16.grads.items():
            assert np.abs(g - grads8.grads[name]).max() <= 1e-13 * np.abs(g).max(), name


class TestWorkspace:
    def test_interleaved_calls(self):
        """Renders and backwards of a scene at two tile sizes (with partial
        edge tiles) and of a 48x48 frame share the thread's scratch
        workspace: every call repeats its first result exactly, nothing
        returned aliases the workspace, and a later call changes nothing
        returned earlier."""
        small = deep_scene(6, opacity=0.3)
        scene, fieldp, partition, table, cam = deep_scene(13, n=550, opacity=0.3)
        large = scene, fieldp, partition, table, replace(cam, width=48, height=48,
                                                          cx=24.0, cy=24.0)
        cases = [(small, 16), (large, 16), (small, 6)]

        first = [render_and_backward(case) for case in cases]
        kept = [[a.copy() for a in out] for out in first]
        for i in (1, 0, 2, 1, 2, 0):
            for got, want in zip(render_and_backward(cases[i]), kept[i], strict=True):
                np.testing.assert_array_equal(got, want)
        for out, want in zip(first, kept):
            for a, b in zip(out, want):
                np.testing.assert_array_equal(a, b)

    def test_caller_threads(self):
        """Two threads that render and back-propagate different frames at
        the same time, switching often, each get what one thread alone
        gets: each has its own workspace."""
        cases = [(deep_scene(6, opacity=0.3), 16), (deep_scene(13, opacity=0.3), 6)]
        want = [render_and_backward(case) for case in cases]
        got = [[], []]

        def work(i):
            for _ in range(3):
                got[i].append(render_and_backward(cases[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for runs, expected in zip(got, want):
            assert len(runs) == 3
            for out in runs:
                for a, b in zip(out, expected, strict=True):
                    np.testing.assert_array_equal(a, b)

    def test_sized_by_the_tile_drawn(self):
        """A fresh thread's workspace holds the pixels of the tiles it draws,
        not tile x tile of them: one 20x12 frame at tile 1024 makes rows of
        20 * 12 * (CHUNK + 1) entries."""
        scene, fieldp, partition, table, cam = deep_scene(6, opacity=0.3)
        s = RenderSettings(background=SETTINGS.background, tile=1024)
        sizes = []

        def work():
            frame, tape = train_frame(scene, fieldp, partition, table, cam, s)
            render_backward(tape, np.ones_like(frame.image), fieldp, *no_extras(tape))
            sizes.append(renderer._SCRATCH.size)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=120)
        assert (cam.width, cam.height) == (20, 12)
        assert sizes == [20 * 12 * (renderer.CHUNK + 1)]


class TestPoseStage:
    def test_coarse_fine_needs_neighbor_table(self):
        scene, fieldp, partition, _, cam = deep_scene(10, n=40)
        assert partition.dynamic_indices.size > 0
        with pytest.raises(ValueError, match="pose stage.*neighbor_table"):
            render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode="train", dt=0.125)
        s = RenderSettings(background=SETTINGS.background, tile=8, coarse_fine=False)
        render(scene, partition, fieldp, cam, 0.3, s, mode="train", dt=0.125)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad", ["minus_one", "past_end", "five_rows_short", "float"])
    def test_bad_neighbor_table_rejected(self, mode, bad):
        """A table entry outside [0, m) for m dynamic splats, or a table
        without one row of integers per dynamic splat, is rejected in both
        modes; an entry of -1 would otherwise pick the last dynamic splat."""
        scene, fieldp, partition, table, cam = deep_scene(10, n=40)
        m = partition.dynamic_indices.size
        table = table.copy()
        if bad == "five_rows_short":
            table = table[:-5]
            detail = rf"of shape \({m - 5}, 4\) and dtype int64 is not {m} rows"
        elif bad == "float":
            table = table.astype(float)
            detail = rf"of shape \({m}, 4\) and dtype float64 is not {m} rows of integers"
        else:
            table[3, 2] = -1 if bad == "minus_one" else m
            detail = rf"row 3 holds an index outside \[0, {m}\)"
        with pytest.raises(InvalidInputError, match=r"^pose stage: neighbor_table " + detail):
            render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode=mode, dt=0.125,
                   neighbor_table=table)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad", ["int", "one_short", "one_long"])
    def test_partition_mask_must_be_n_bools(self, mode, bad):
        """An int mask would select rows by index (~1 is -2) in the
        regularizer and the pose backward, and a mask of n - 1 rows would
        gate the wrong splats; each is rejected, with a table of one row per
        dynamic entry."""
        scene, fieldp, partition, _, cam = deep_scene(10, n=40)
        dynamic = {"int": partition.dynamic.astype(int),
                   "one_short": partition.dynamic[:-1],
                   "one_long": np.append(partition.dynamic, True)}[bad]
        table = build_neighbor_table(scene.positions[:np.count_nonzero(dynamic)], 4)
        with pytest.raises(InvalidInputError) as err:
            render(scene, Partition(dynamic=dynamic), fieldp, cam, 0.3, SETTINGS, mode=mode,
                   dt=0.125, neighbor_table=table)
        assert str(err.value) == (f"pose stage: partition.dynamic of shape {dynamic.shape} "
                                  f"and dtype {dynamic.dtype} is not 40 bools")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dt", [0.0, -0.125, np.nan, np.inf])
    def test_bad_frame_interval_rejected(self, mode, dt):
        """v = dx / dt: dt = 0 or NaN would fail later as a non-finite pose,
        and a negative dt would render and train."""
        scene, fieldp, partition, table, cam = deep_scene(10, n=40)
        with pytest.raises(InvalidInputError) as err:
            render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode=mode, dt=dt,
                   neighbor_table=table)
        assert str(err.value) == f"render: dt must be finite and > 0, got {dt!r}"

    @pytest.mark.parametrize("case", ["generic", "all_static", "one_dynamic"])
    def test_eval_pose_is_the_train_pose(self, case, monkeypatch):
        """Without backward state the pose stage gives the train mode's
        positions and covariances at noise 0 and zero exposure, also with a
        single dynamic row."""
        scene, fieldp, partition, table, cam, settings, dt = fd_case(case, monkeypatch)
        args = (scene, partition, fieldp, table, 0.3, dt, 0.0, 0.0, None, settings)
        train = renderer._pose_forward(*args)
        pose = renderer._pose_forward(*args, keep=False)
        assert set(pose) == {"pos_t", "cov_render", "opac", "colors_c"}
        for key in pose:
            np.testing.assert_array_equal(pose[key], train[key])

    @pytest.mark.parametrize("mode", ["Train", "test", None])
    def test_unknown_mode_rejected(self, mode):
        """Only "train" and "eval" render; anything else would otherwise
        render as eval, with no blur and no noise."""
        scene, fieldp, partition, table, cam = deep_scene(10, n=40)
        with pytest.raises(InvalidInputError, match="render mode must be 'train' or 'eval'"):
            render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode=mode, dt=0.125,
                   neighbor_table=table)


# ---------------------------------------------------------------------------
# degenerate scenes
# ---------------------------------------------------------------------------

DEGENERATE_KINDS = ["all_static", "one_dynamic", "coincident", "behind_camera"]


def degenerate_scene(kind, n, seed):
    """n splats in front of deep_scene's camera (at z = -3), with non-zero
    heads so that dynamic splats move and blur, of one kind: every splat
    static, one dynamic splat, every splat at one position, or some splats
    behind the camera."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([rng.uniform(-0.3, 0.3, (n, 2)), rng.uniform(-0.5, 0.5, n)])
    if kind == "coincident":
        positions[:] = positions[0]
    elif kind == "behind_camera":
        positions[rng.permutation(n)[:(n + 1) // 2], 2] = -3.5
    scene = make_scene(positions, rng.normal(size=(n, 4)),
                       np.log(rng.uniform(0.05, 0.3, (n, 3))), rng.normal(0.0, 1.5, n),
                       rng.uniform(-0.1, 1.1, (n, 3)), rng.integers(1, 4, n))
    fieldp = init_field_params(rng, n, 8, 2, 2, 3)
    for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
        head[...] = rng.normal(0.0, 0.05, head.shape)
    fieldp.features[...] = rng.normal(0.0, 0.5, fieldp.features.shape)
    dynamic = rng.uniform(size=n) < 0.5
    if kind == "all_static":
        dynamic[:] = False
    elif kind == "one_dynamic":
        dynamic[:] = np.arange(n) == rng.integers(n)
    partition = classify(dynamic.astype(float), 0.5)
    table = build_neighbor_table(scene.positions[partition.dynamic_indices], 2)
    cam = Camera(rotation=np.eye(3), translation=np.array([0.0, 0.0, 3.0]),
                 fx=20.0, fy=20.0, cx=10.0, cy=6.0, width=20, height=12, near=0.01)
    return scene, fieldp, partition, table, cam


class TestDegenerateScenes:
    @hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
    @hypothesis.given(kind=st.sampled_from(DEGENERATE_KINDS), n=st.integers(1, 6),
                      seed=st.integers(0, 2**32 - 1))
    def test_finite_and_canonical_frame_is_naive(self, kind, n, seed):
        """A train frame and its gradients are finite. With zero output heads
        and every splat at the finest level, the eval frame composites the
        canonical splats, as the per-pixel compositor does."""
        scene, fieldp, partition, table, cam = degenerate_scene(kind, n, seed)
        rng = np.random.default_rng(seed)
        frame, tape = render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode="train",
                             rng=rng, noise_sigma=0.05, dt=0.125, neighbor_table=table)
        assert np.isfinite(frame.image).all() and np.isfinite(frame.transmittance).all()
        grads = render_backward(tape, rng.normal(size=frame.image.shape), fieldp,
                                *no_extras(tape))
        for name, g in grads.grads.items():
            assert np.isfinite(g).all(), name

        for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
            head[...] = 0.0
        scene.levels[:] = SETTINGS.l_max
        frame = render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode="eval",
                       neighbor_table=table)
        cov3 = covariance_from_matrix(quat_to_rotmat(quat_normalize(scene.quaternions)),
                                      np.exp(scene.log_scales))
        naive = render_points_naive(scene.positions, cov3, scene.colors,
                                    sigmoid(scene.opacity_logits), cam, SETTINGS)
        np.testing.assert_array_equal(frame.transmittance, naive.transmittance)
        np.testing.assert_allclose(frame.image, naive.image, rtol=0, atol=1e-12)


    def test_empty_scene(self):
        """Zero splats: eval and train frames are the background at every
        pixel, and the backward returns per-splat gradients with zero rows
        and zero gradients for the field weights."""
        scene, fieldp, partition, table, cam = degenerate_scene("all_static", 0, 3)
        background = np.broadcast_to(SETTINGS.background, (cam.height, cam.width, 3))
        frame = render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode="eval",
                       neighbor_table=table)
        np.testing.assert_array_equal(frame.image, background)
        rng = np.random.default_rng(3)
        frame, tape = render(scene, partition, fieldp, cam, 0.3, SETTINGS, mode="train",
                             rng=rng, noise_sigma=0.05, dt=0.125, neighbor_table=table)
        np.testing.assert_array_equal(frame.image, background)
        grads = render_backward(tape, rng.normal(size=frame.image.shape), fieldp,
                                *no_extras(tape))
        for name, g in grads.grads.items():
            if name in ("positions", "quaternions", "log_scales", "opacity_logits",
                        "colors", "features"):
                assert g.shape[0] == 0, name
            else:
                assert g.shape == getattr(fieldp, name).shape and not g.any(), name
        assert grads.densify_norm.shape == grads.densify_count.shape == (0,)


# ---------------------------------------------------------------------------
# binning and the tape
# ---------------------------------------------------------------------------

def square_bins(proj, width, height, tile):
    """Per-splat reference of the candidate pass: per tile, the splats whose
    square 5-sigma extent overlaps it, in depth order."""
    mean2d, cov2d = proj["mean2d"], proj["cov2d"]
    mid = 0.5 * (cov2d[:, 0, 0] + cov2d[:, 1, 1])
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    lam_max = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
    radius = FOOTPRINT_RADIUS * np.sqrt(lam_max)
    ntx = (width + tile - 1) // tile
    nty = (height + tile - 1) // tile
    tiles = [[] for _ in range(ntx * nty)]
    order = np.argsort(proj["depth"], kind="stable")
    for i in order[proj["valid"][order]]:
        mx, my, r = mean2d[i, 0], mean2d[i, 1], radius[i]
        tx0 = max(int(np.floor((mx - r) / tile)), 0)
        tx1 = min(int(np.floor((mx + r) / tile)), ntx - 1)
        ty0 = max(int(np.floor((my - r) / tile)), 0)
        ty1 = min(int(np.floor((my + r) / tile)), nty - 1)
        for ty in range(ty0, ty1 + 1):
            for tx in range(tx0, tx1 + 1):
                tiles[ty * ntx + tx].append(i)
    return [np.asarray(t, dtype=int) for t in tiles]


def footprint_reaches(mean, conic, rect):
    """Whether q <= FOOTPRINT_CHI2 (relative slack 1e-6) somewhere on the
    rectangle of rect's pixel centres: 0 with the mean inside it, else the
    least of each edge's quadratic at its clamped stationary point."""
    x0, y0, x1, y1 = rect
    x_lo, x_hi = x0 + 0.5 - mean[0], x1 - 0.5 - mean[0]
    y_lo, y_hi = y0 + 0.5 - mean[1], y1 - 0.5 - mean[1]
    if x_lo <= 0.0 <= x_hi and y_lo <= 0.0 <= y_hi:
        return True
    a, b, c = conic
    least = np.inf
    for d, lo, hi, a_d, c_t in ((x_lo, y_lo, y_hi, a, c), (x_hi, y_lo, y_hi, a, c),
                                (y_lo, x_lo, x_hi, c, a), (y_hi, x_lo, x_hi, c, a)):
        t = min(max(-b * d / c_t, lo), hi)
        least = min(least, a_d * d * d + 2.0 * b * d * t + c_t * t * t)
    return least <= FOOTPRINT_CHI2 * (1.0 + 1e-6)


def bin_tiles_loop(proj, width, height, tile):
    """Per-pair reference binning: each square candidate, kept when its
    footprint reaches the tile's pixel centres."""
    ntx = (width + tile - 1) // tile
    tiles, touched = [], np.zeros(proj["mean2d"].shape[0], dtype=bool)
    for tid, cand in enumerate(square_bins(proj, width, height, tile)):
        rect = _tile_rect(tid, ntx, tile, width, height)
        kept = [i for i in cand if footprint_reaches(proj["mean2d"][i], proj["conic"][i], rect)]
        touched[kept] = True
        tiles.append(np.asarray(kept, dtype=int))
    return tiles, touched


def check_binning(proj, width, height, tile):
    """_bin_tiles against the per-pair loop, as depth-ordered subsets of the
    square lists, and every dropped pair by brute force: the chunk step
    gives it q > FOOTPRINT_CHI2 and G = 0 at every pixel of its tile.
    Returns the number of dropped pairs."""
    tiles, touched = _bin_tiles(proj, width, height, tile)
    want_tiles, want_touched = bin_tiles_loop(proj, width, height, tile)
    square = square_bins(proj, width, height, tile)
    np.testing.assert_array_equal(touched, want_touched)
    assert len(tiles) == len(want_tiles) == len(square)
    ntx = (width + tile - 1) // tile
    s = RenderSettings(tile=tile)
    n = proj["mean2d"].shape[0]
    kept_anywhere = np.zeros(n, dtype=bool)
    dropped = 0
    for tid, (got, want, sq) in enumerate(zip(tiles, want_tiles, square)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        at = {int(i): j for j, i in enumerate(sq)}
        assert np.all(np.diff([at[int(i)] for i in got]) > 0)
        assert np.all(np.diff(proj["depth"][got]) >= 0)
        kept_anywhere[got] = True
        gone = np.setdiff1d(sq, got)
        dropped += gone.size
        xs, ys = _pixel_axes(_tile_rect(tid, ntx, tile, width, height))
        for lo in range(0, gone.size, SLICE):
            sl = gone[lo:lo + SLICE]
            _, _, h, G, *_ = _chunk_step(sl, xs, ys, np.ones(xs.size * ys.size),
                                         proj["mean2d"], proj["conic"], np.ones(n), s)
            assert np.all(-2.0 * h > FOOTPRINT_CHI2) and not G.any()
    np.testing.assert_array_equal(touched, kept_anywhere)
    return dropped


def screen_projection(mean2d, sigma_major, sigma_minor, angle):
    """A projection of screen-space splats, valid and at increasing depth,
    with the covariance and conic that project would give them."""
    mean2d = np.asarray(mean2d, dtype=float)
    n = mean2d.shape[0]
    cos, sin = np.cos(angle), np.sin(angle)
    R = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
    var = np.stack([np.square(sigma_major), np.square(sigma_minor)], -1)
    cov2d = (R * var[:, None, :]) @ np.swapaxes(R, 1, 2)
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conic = np.stack([cov2d[:, 1, 1] / det, -cov2d[:, 0, 1] / det, cov2d[:, 0, 0] / det],
                     axis=-1)
    return {"mean2d": mean2d, "cov2d": cov2d, "conic": conic,
            "depth": np.arange(1.0, n + 1.0), "valid": np.ones(n, dtype=bool)}


def scattered_projection(seed, n=400, width=37, height=29):
    """Splats on and off screen, some behind the camera, with tied depths."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([rng.uniform(-3.0, 3.0, (n, 2)),
                                 rng.choice([-1.0, 0.5, 1.0, 2.0, 4.0], n)])
    A = rng.normal(0.0, 0.15, (n, 3, 3))
    cov3 = A @ np.swapaxes(A, 1, 2) + 1e-4 * np.eye(3)
    cam = Camera(rotation=np.eye(3), translation=np.zeros(3), fx=30.0, fy=30.0,
                 cx=width / 2, cy=height / 2, width=width, height=height, near=0.01)
    return project(positions, cov3, cam), cam


class TestBinning:
    @pytest.mark.parametrize("seed,tile", [(0, 16), (1, 8), (2, 5)])
    def test_matches_per_splat_loop(self, seed, tile):
        """Splats on and off screen and behind the camera; at tile 5 the
        37x29 image has partial edge tiles. Some splats' squares reach the
        image but their footprints do not: they are not touched."""
        proj, cam = scattered_projection(seed)
        assert check_binning(proj, cam.width, cam.height, tile) > 0
        _, touched = _bin_tiles(proj, cam.width, cam.height, tile)
        on_square = np.zeros_like(touched)
        on_square[np.concatenate(square_bins(proj, cam.width, cam.height, tile))] = True
        assert (~proj["valid"]).any() and (proj["valid"] & ~on_square).any()
        assert (on_square & ~touched).any()

    def test_partial_edge_tiles(self):
        """20x12 at tile 8: the last column and row of tiles are 4 pixels."""
        rng = np.random.default_rng(4)
        n = 60
        proj = screen_projection(rng.uniform([-4.0, -4.0], [24.0, 16.0], (n, 2)),
                                 rng.uniform(0.5, 4.0, n), rng.uniform(0.55, 1.0, n),
                                 rng.uniform(0.0, np.pi, n))
        assert check_binning(proj, 20, 12, 8) > 0

    @pytest.mark.parametrize("shift,kept", [(0.0, True), (1e-3, False)])
    def test_ellipse_grazing_a_tile_corner(self, shift, kept):
        """A round unit-variance splat, whose footprint is the circle of
        radius 5, reaching exactly the corner pixel centre (8.5, 8.5) of
        tile (1, 1) is kept there; moved away by 1e-3 px it is dropped."""
        proj = screen_projection([[5.5 - shift, 4.5]], [1.0], [1.0], [0.0])
        assert 9.0 + 16.0 == FOOTPRINT_CHI2
        tiles, touched = _bin_tiles(proj, 20, 12, 8)
        assert (tiles[4].size == 1) == kept and touched[0]
        check_binning(proj, 20, 12, 8)

    def test_needle_across_tile_diagonals(self):
        """40:1 needles crossing the tiles diagonally, one with its mean off
        screen, keep the tiles along their axis and drop most of the square."""
        proj = screen_projection([[32.0, 32.0], [-30.0, 10.0], [40.0, 20.0]],
                                 [40.0, 30.0, 20.0], [1.0, 0.75, 0.5],
                                 [np.pi / 4, np.pi / 6, -np.pi / 4])
        tiles, touched = _bin_tiles(proj, 64, 64, 8)
        assert touched.all()
        per_splat = np.bincount(np.concatenate(tiles), minlength=3)
        square = np.bincount(np.concatenate(square_bins(proj, 64, 64, 8)), minlength=3)
        assert np.all(per_splat < square // 2)
        assert check_binning(proj, 64, 64, 8) > 64

    @pytest.mark.parametrize("block", [1, 7, 401])
    @pytest.mark.parametrize("seed,tile", [(0, 8), (2, 5)])
    def test_blocks_bin_alike(self, monkeypatch, seed, tile, block):
        """Any BIN_BLOCK gives the per-pair loop's tile lists and touched
        splats; at tile 5 the 37x29 image has partial edge tiles."""
        proj, cam = scattered_projection(seed)
        monkeypatch.setattr(renderer, "BIN_BLOCK", block)
        tiles, touched = _bin_tiles(proj, cam.width, cam.height, tile)
        want_tiles, want_touched = bin_tiles_loop(proj, cam.width, cam.height, tile)
        np.testing.assert_array_equal(touched, want_touched)
        assert len(tiles) == len(want_tiles)
        for got, want in zip(tiles, want_tiles):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert touched.sum() > block or block == 401 > proj["valid"].size

    def test_nothing_visible(self):
        proj, cam = scattered_projection(3, n=5)
        proj["valid"] = np.zeros(5, dtype=bool)
        tiles, touched = _bin_tiles(proj, cam.width, cam.height, 16)
        assert len(tiles) == 6 and all(t.size == 0 for t in tiles)
        assert not touched.any()


class TestTape:
    def test_fields_read_by_tracing(self):
        """A traced benchmark run counts pixel x splat pairs from tape.tiles,
        tape.cam and tape.settings.tile, and touched splats from
        tape.touched, on eval-mode tapes, which keep no backward state."""
        scene, fieldp, partition, table, cam = deep_scene(8, n=60, opacity=0.3)
        scene.positions[:5, 2] -= 10.0     # behind the camera
        s = RenderSettings(background=SETTINGS.background, tile=6)
        frame, tape = render(scene, partition, fieldp, cam, 0.5, s, mode="eval",
                             neighbor_table=table, want_tape=True)
        assert tape.pose is None and tape.proj is None and tape.chunk_starts is None
        pose = renderer._pose_forward(scene, partition, fieldp, table, 0.5, 1.0, 0.0,
                                      0.0, None, s)
        proj = project(pose["pos_t"], pose["cov_render"], cam)
        want_tiles, want_touched = bin_tiles_loop(proj, cam.width, cam.height, s.tile)
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

    def test_backward_of_eval_tape_rejected(self):
        scene, fieldp, partition, table, cam = deep_scene(8, n=60, opacity=0.3)
        frame, tape = render(scene, partition, fieldp, cam, 0.5, SETTINGS, mode="eval",
                             neighbor_table=table, want_tape=True)
        with pytest.raises(InvalidInputError, match="backward stage: an eval-mode tape"):
            render_backward(tape, np.ones_like(frame.image), fieldp, *no_extras(tape))

    def test_replay_is_bit_identical(self):
        """Compositing again from the tape reproduces the forward image."""

        def replay_tape(tape):
            image, _, _, _ = _raster_forward(tape.tiles, tape.cam, tape.proj, tape.pose,
                                             tape.settings, tape.n)
            return np.clip(image, 0.0, 1.0)

        scene, fieldp, partition, table, cam = deep_scene(9, opacity=0.3)
        frame, tape = train_frame(scene, fieldp, partition, table, cam)
        np.testing.assert_array_equal(replay_tape(tape), frame.image)


@pytest.mark.parametrize("background,channel", [
    ([2.0, -1.0, 0.5], 0), ([0.5, -1e-9, 0.5], 1), ([0.0, 0.0, np.nan], 2)])
def test_background_outside_unit_range_rejected(background, channel):
    """render clips the image to [0, 1] and render_backward does not, so a
    channel outside [0, 1] would give wrong gradients."""
    with pytest.raises(InvalidInputError, match=rf"^RenderSettings: background channel "
                                                rf"{channel} is "):
        RenderSettings(background=np.array(background))
