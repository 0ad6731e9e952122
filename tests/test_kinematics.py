import numpy as np
import pytest

from kgs import renderer
from kgs.decomposition import classify
from kgs.deform import build_neighbor_table, init_field_params
from kgs.gaussians import covariance_from_matrix, exp_map_so3
from kgs.kinematics import kinematic_frames_backward, kinematic_frames_cached
from kgs.renderer import RenderSettings
from kgs.scene import make_scene

def blurred(cov, v, blur_dt):
    """One covariance plus the moment term of one velocity."""
    term = kinematic_frames_cached(np.asarray(v, dtype=float)[None], blur_dt)[0]
    return np.asarray(cov, dtype=float) + term[0]


class TestRefineCovariance:
    """The kinematic refinement of a covariance: the exposure's second
    moment, cov + (blur_dt^2 / 12) v v^T."""

    def test_isotropic_elongation_along_motion(self):
        # blur_dt |v| = 6: the variance along the motion grows by 36 / 12
        w, vecs = np.linalg.eigh(blurred(np.eye(3), [0.0, 0.0, 3.0], 2.0))
        np.testing.assert_allclose(w, [1, 1, 4], rtol=0, atol=1e-15)
        assert abs(vecs[:, np.argmax(w)] @ np.array([0, 0, 1.0])) == 1.0

    def test_zero_blur_limit_recovers_isotropic(self):
        out = blurred(np.eye(3), [0.0, 0.0, 1e-5], 1e-7)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-9)

    def test_trace_inflation(self):
        """The trace grows by exactly the variance of the sweep along v."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            cov = covariance_from_matrix(exp_map_so3(rng.normal(size=3)),
                                         rng.uniform(0.3, 2.0, 3))
            v, blur_dt = rng.normal(size=3), rng.uniform(0.01, 1.0)
            gain = np.trace(blurred(cov, v, blur_dt)) - np.trace(cov)
            np.testing.assert_allclose(gain, blur_dt**2 * (v @ v) / 12.0, rtol=0, atol=1e-14)

    def test_rotational_equivariance_of_refinement(self):
        """Rotating the splat and its velocity rotates the blurred
        covariance, for every direction of motion: no reference axis."""
        rng = np.random.default_rng(2)
        for _ in range(50):
            Q = exp_map_so3(rng.normal(size=3))
            cov = covariance_from_matrix(exp_map_so3(rng.normal(size=3)),
                                         rng.uniform(0.5, 2.0, 3))
            v = rng.normal(size=3)
            base = blurred(cov, v, 0.5)
            np.testing.assert_allclose(blurred(Q @ cov @ Q.T, Q @ v, 0.5), Q @ base @ Q.T,
                                       rtol=0, atol=1e-13)


class TestFramesBackward:
    def test_central_differences(self):
        """The moment term's backward against central differences of its
        forward, with a non-symmetric upstream gradient, row by row so that
        a wrong row cannot hide in the sum."""
        rng = np.random.default_rng(20)
        v = rng.normal(size=(24, 3)) * rng.uniform(0.05, 5.0, (24, 1))
        blur_dt = 0.4
        term, cache = kinematic_frames_cached(v, blur_dt)
        for i in range(v.shape[0]):
            np.testing.assert_array_equal(term[i], blur_dt**2 / 12.0 * v[i, :, None] * v[i])
        W = rng.normal(size=term.shape)
        d_v = kinematic_frames_backward(cache, W)
        h = 1e-3    # the term is quadratic: no truncation error at any step
        for i in range(v.shape[0]):
            direction = np.zeros_like(v)
            direction[i] = rng.normal(size=3)
            up = np.sum(W * kinematic_frames_cached(v + h * direction, blur_dt)[0])
            down = np.sum(W * kinematic_frames_cached(v - h * direction, blur_dt)[0])
            fd = (up - down) / (2.0 * h)
            an = float(np.sum(d_v * direction))
            assert abs(fd - an) <= 1e-8 * max(abs(fd), abs(an)) + 1e-12, (i, fd, an)


# ---------------------------------------------------------------------------
# the pose stage's covariances
# ---------------------------------------------------------------------------

DT = 0.125


def pose_scene(seed=3, n=12):
    """n anisotropic splats, about two thirds dynamic, and zero offset
    heads."""
    rng = np.random.default_rng(seed)
    scene = make_scene(rng.uniform(-0.3, 0.3, (n, 3)), rng.normal(size=(n, 4)),
                       np.log(rng.uniform(0.05, 0.3, (n, 3))), rng.normal(size=n),
                       rng.uniform(0.1, 0.9, (n, 3)), rng.integers(1, 4, n))
    fieldp = init_field_params(rng, n, 8, 2, 2, 3)
    dynamic = np.arange(n) % 3 != 0
    return scene, fieldp, classify(dynamic.astype(float), 0.5)


def pose(scene, fieldp, partition, blur_dt, settings, table=None, keep=True):
    return renderer._pose_forward(scene, partition, fieldp, table, 0.3, DT, blur_dt, 0.0,
                                  None, settings, keep=keep)


def constant_offset_covariances(dx):
    """Train-mode rendered covariances with every dynamic row offset by the
    same dx (only the position bias of the predictor head is set, and
    coarse/fine is off), so v = dx / DT on every dynamic row and the
    predicted covariance does not depend on dx."""
    scene, fieldp, partition = pose_scene()
    fieldp.b2[0:3] = dx
    s = RenderSettings(coarse_fine=False)
    return pose(scene, fieldp, partition, DT, s)["cov_render"], partition.dynamic


def relative_change(a, b):
    return (np.linalg.norm(a - b, axis=(1, 2)) / np.linalg.norm(b, axis=(1, 2))).max()


class TestPoseBlur:
    @pytest.mark.parametrize("kin", [True, False])
    def test_moment_term_on_the_dynamic_rows(self, kin):
        """cov_render is the predicted covariance plus (blur_dt^2 / 12) v v^T
        on the dynamic rows, with v the offset over the frame interval, and
        the predicted covariance elsewhere; with kin off, everywhere."""
        scene, fieldp, partition = pose_scene()
        rng = np.random.default_rng(4)
        for head in (fieldp.w2, fieldp.b2, fieldp.fine_w2, fieldp.fine_b2):
            head[...] = rng.normal(0.0, 0.3, head.shape)
        table = build_neighbor_table(scene.positions[partition.dynamic_indices], 3)
        p = pose(scene, fieldp, partition, DT, RenderSettings(kin_enabled=kin), table)
        cov_pred = covariance_from_matrix(p["R_pred"], p["s_pred"])
        dyn = partition.dynamic
        v = p["offsets"][dyn, 0:3] / DT
        want = cov_pred.copy()
        if kin:
            want[dyn] += DT**2 / 12.0 * v[:, :, None] * v[:, None, :]
        np.testing.assert_array_equal(p["cov_render"][~dyn], cov_pred[~dyn])
        np.testing.assert_allclose(p["cov_render"], want, rtol=1e-14, atol=0)
        share = relative_change(p["cov_render"][dyn], cov_pred[dyn])
        assert (share > 1e-3) == kin

    def test_eval_pose_draws_the_predicted_covariance(self):
        """An eval pose has zero exposure, so the term adds exactly 0 to the
        train pose's predicted covariance, though every dynamic row moves."""
        scene, fieldp, partition = pose_scene()
        fieldp.b2[...] = np.random.default_rng(6).normal(0.0, 0.3, 9)
        s = RenderSettings(coarse_fine=False)
        train = pose(scene, fieldp, partition, DT, s)
        cov_pred = covariance_from_matrix(train["R_pred"], train["s_pred"])
        assert np.abs(train["offsets"][partition.dynamic, 0:3]).min() > 0.0
        assert relative_change(train["cov_render"], cov_pred) > 1e-3
        eval_pose = pose(scene, fieldp, partition, 0.0, s, keep=False)
        np.testing.assert_array_equal(eval_pose["cov_render"], cov_pred)

    def test_continuous_across_any_direction(self):
        """A 1e-8 turn of v across the cone |u . x| = 0.99, where a motion
        frame would switch its reference axis, moves every covariance by
        O(1e-8) relative."""
        rng = np.random.default_rng(7)
        theta = np.arccos(0.99)
        for _ in range(3):
            p = rng.normal(size=3)
            p[0] = 0.0
            p /= np.linalg.norm(p)
            covs = [constant_offset_covariances(
                        0.3 * (np.cos(theta + d) * np.array([1.0, 0, 0]) + np.sin(theta + d) * p))
                    for d in (-5e-9, 5e-9)]
            (inside, dyn), (outside, _) = covs
            np.testing.assert_array_equal(inside[~dyn], outside[~dyn])
            assert relative_change(inside[dyn], outside[dyn]) <= 1e-7

    @pytest.mark.parametrize("speed", [1e-4, 2e-6, 1e-8])
    def test_continuous_as_velocity_vanishes(self, speed):
        """Slow motion changes the shape by O(speed^2), also at speeds about
        1e-6, where a velocity floor would switch the blur on."""
        still, dyn = constant_offset_covariances(np.zeros(3))
        moving, _ = constant_offset_covariances(speed * DT * np.array([0.6, 0.0, 0.8]))
        np.testing.assert_array_equal(moving[~dyn], still[~dyn])
        assert relative_change(moving[dyn], still[dyn]) <= 1e-8
