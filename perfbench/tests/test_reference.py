"""Tests of the benchmark's reference renderer and blur oracle.

    python3 -m pytest perfbench/tests -q
"""
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import reference as ref  # noqa: E402
from kgs.gaussians import (  # noqa: E402
    ALPHA_MAX,
    COV2D_DILATION,
    FOOTPRINT_CHI2,
    TRANSMITTANCE_CUTOFF,
    Camera,
)


def small_camera(w=12, h=10):
    return Camera.look_at([0.0, 0.0, -3.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                          20.0, 22.0, w / 2 - 0.3, h / 2 + 0.2, w, h)


def random_splats(rng, n):
    return {"positions": rng.uniform(-0.4, 0.4, (n, 3)),
            "quats": rng.normal(size=(n, 4)),
            "scales": rng.uniform(0.03, 0.15, (n, 3)),
            "opacities": rng.uniform(0.2, 1.0, n),
            "colors": rng.uniform(-0.1, 1.1, (n, 3))}


def loop_composite(mean2d, cov2d, depth, valid, opac, colors, w, h, bg):
    """Scalar per-pixel loop: the compositing rule written out plainly."""
    colors = np.clip(colors, 0.0, 1.0)
    order = [i for i in np.argsort(depth, kind="stable") if valid[i]]
    img = np.zeros((h, w, 3))
    for y in range(h):
        for x in range(w):
            c, T = np.zeros(3), 1.0
            for i in order:
                if T < TRANSMITTANCE_CUTOFF:
                    break
                d = np.array([x + 0.5, y + 0.5]) - mean2d[i]
                q = d @ np.linalg.inv(cov2d[i]) @ d
                if q > FOOTPRINT_CHI2:
                    continue
                a = min(opac[i] * np.exp(-0.5 * q), ALPHA_MAX)
                c = c + T * a * colors[i]
                T *= 1.0 - a
            img[y, x] = c + T * bg
    return np.clip(img, 0.0, 1.0)


def test_rotations_are_orthonormal():
    R = ref.quat_to_rotmat(np.random.default_rng(0).normal(size=(20, 4)))
    assert np.allclose(R @ np.swapaxes(R, 1, 2), np.eye(3), atol=1e-14)
    assert np.allclose(np.linalg.det(R), 1.0)
    Rz = ref.quat_to_rotmat(ref.rotz_quat(np.array([0.3])))[0]
    assert np.allclose(Rz, [[np.cos(0.3), -np.sin(0.3), 0], [np.sin(0.3), np.cos(0.3), 0],
                            [0, 0, 1]])


def test_projection_on_the_optical_axis():
    cam = small_camera()
    mean2d, cov2d, depth, valid = ref.project(np.array([[0.0, 0.0, 1.0]]),
                                              (0.1 ** 2) * np.eye(3)[None], cam)
    z = 4.0
    assert valid[0] and depth[0] == pytest.approx(z)
    assert np.allclose(mean2d[0], [cam.cx, cam.cy])
    want = np.diag([(cam.fx * 0.1 / z) ** 2, (cam.fy * 0.1 / z) ** 2]) + COV2D_DILATION * np.eye(2)
    assert np.allclose(cov2d[0], want, rtol=1e-13)


def test_projection_jacobian_matches_finite_differences():
    """The affine Jacobian is the derivative of the pinhole map at the mean."""
    cam = small_camera()
    p = np.array([0.3, -0.2, 0.5])
    cov = np.diag([1e-2, 4e-3, 9e-3])
    _, cov2d, _, _ = ref.project(p[None], cov[None], cam, dilation=0.0)

    def pix(x):
        c = cam.rotation @ x + cam.translation
        return np.array([cam.fx * c[0] / c[2] + cam.cx, cam.fy * c[1] / c[2] + cam.cy])

    h = 1e-6
    J = np.stack([(pix(p + h * e) - pix(p - h * e)) / (2 * h) for e in np.eye(3)], axis=1)
    assert np.allclose(cov2d[0], J @ cov @ J.T, rtol=1e-7)


def test_points_behind_the_near_plane_are_not_drawn():
    cam = small_camera()
    s = random_splats(np.random.default_rng(1), 3)
    s["positions"][:, 2] = -3.5
    img = ref.render(s, cam, np.array([0.2, 0.3, 0.4]))
    assert np.allclose(img, [0.2, 0.3, 0.4])


def test_compositor_matches_the_per_pixel_loop():
    cam = small_camera()
    s = random_splats(np.random.default_rng(2), 25)
    bg = np.array([0.1, 0.2, 0.05])
    cov3 = ref.covariances(s["quats"], s["scales"])
    proj = ref.project(s["positions"], cov3, cam)
    got = ref.composite(*proj, s["opacities"], s["colors"], cam.width, cam.height, bg)
    want = loop_composite(*proj, s["opacities"], s["colors"], cam.width, cam.height, bg)
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_transmittance_cutoff_stops_blending():
    """Ten stacked splats of alpha 0.99: the third still blends, since the
    light left before it (about 1e-4) is not below the cutoff; the fourth
    does not."""
    cam = small_camera(4, 4)
    n = 10
    mean2d = np.tile([2.5, 2.5], (n, 1))
    cov2d = np.tile(np.eye(2) * 4.0, (n, 1, 1))
    colors = np.zeros((n, 3))
    colors[:, 0] = np.arange(n) / 10.0
    img = ref.composite(mean2d, cov2d, np.arange(n, dtype=float), np.ones(n, bool),
                        np.ones(n), colors, 4, 4, np.zeros(3))
    a = ALPHA_MAX
    want = a * 0.0 + (1 - a) * a * 0.1 + (1 - a) ** 2 * a * 0.2
    assert img[2, 2, 0] == pytest.approx(want, rel=1e-12)


def test_matches_the_programs_naive_compositor():
    """Cross-check against kgs.renderer.render_points_naive, which the
    benchmark's reference code itself does not use."""
    from kgs.renderer import RenderSettings, render_points_naive
    cam = small_camera(16, 14)
    s = random_splats(np.random.default_rng(3), 30)
    bg = np.array([0.3, 0.1, 0.2])
    cov3 = ref.covariances(s["quats"], s["scales"])
    want = render_points_naive(s["positions"], cov3, s["colors"], s["opacities"], cam,
                               RenderSettings(background=bg)).image
    assert np.allclose(ref.render(s, cam, bg), want, rtol=0, atol=1e-12)


def test_blurred_frame_is_the_mean_across_the_exposure():
    cam = small_camera(24, 24)
    oracle = ref.make_oracle(np.random.default_rng(4))
    t, dt = 0.4, 0.125
    taus = ref.exposure_times(t, dt, 4)
    assert np.allclose(taus.mean(), t) and taus.min() > t - dt / 2 and taus.max() < t + dt / 2
    frames = [ref.render(ref.oracle_splats(oracle, tau), cam, np.zeros(3)) for tau in taus]
    blurred = ref.blurred_frame(oracle, cam, t, dt, 4, np.zeros(3))
    assert np.array_equal(blurred, np.mean(frames, axis=0))
    sharp = ref.blurred_frame(oracle, cam, t, dt, 1, np.zeros(3))
    assert np.array_equal(sharp, ref.render(ref.oracle_splats(oracle, t), cam, np.zeros(3)))
    assert not np.allclose(blurred, sharp)


def test_oracle_backdrop_is_static_and_the_bar_moves_and_bends():
    oracle = ref.make_oracle(np.random.default_rng(5))
    a, b = ref.oracle_splats(oracle, 0.2), ref.oracle_splats(oracle, 0.7)
    nb = oracle["back_pos"].shape[0]
    assert np.array_equal(a["positions"][:nb], b["positions"][:nb])
    bar_a, bar_b = a["positions"][nb:], b["positions"][nb:]
    assert np.linalg.norm(bar_a.mean(0) - bar_b.mean(0)) > 0.1
    # a rigid motion keeps pairwise distances; the bend does not
    mid = bar_a.shape[0] // 2
    da = np.linalg.norm(bar_a[0] - bar_a[mid])
    db = np.linalg.norm(bar_b[0] - bar_b[mid])
    assert abs(da - db) > 1e-3
