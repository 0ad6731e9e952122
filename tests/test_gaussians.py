import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgs.gaussians import (
    ALPHA_MAX,
    COV2D_DILATION,
    Camera,
    covariance_from_matrix,
    dexp_map_so3,
    drotmat_dquat,
    exp_map_so3,
    project,
    project_backward,
    quat_to_rotmat,
    skew,
)
from kgs.renderer import RenderSettings, _tile_forward

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def project_gaussian(cov3, position, cam):
    """Project one Gaussian; (mean2d, cov2d), or None in front of the near
    plane."""
    proj = project(np.asarray(position, dtype=float)[None],
                   np.asarray(cov3, dtype=float)[None], cam)
    return (proj["mean2d"][0], proj["cov2d"][0]) if proj["valid"][0] else None


def alpha_blend(splats, background=(0.0, 0.0, 0.0)):
    """The renderer's front-to-back compositing of depth-sorted (color,
    alpha) pairs at one pixel: each splat is centred on the pixel, so its
    footprint is 1 and its alpha is its opacity."""
    n = len(splats)
    colors = np.array([c for c, _ in splats], dtype=float).reshape(n, 3)
    opac = np.array([a for _, a in splats], dtype=float)
    s = RenderSettings(background=np.asarray(background, dtype=float))
    pix, *_ = _tile_forward(np.arange(n), (0, 0, 1, 1), np.full((n, 2), 0.5),
                            np.tile([1.0, 0.0, 1.0], (n, 1)), opac, colors, s)
    return pix[0, 0]


def dexp_jacobian(omega):
    """Oracle: dR/d omega_m of exp_map_so3 as a (..., 3, 3, 3) tensor, from
    dR/dw_i = ((w_i [w]x + [w x ((I - R) e_i)]x) / |w|^2) R and the skew
    generators at w = 0 (accurate away from zero angle)."""
    omega = np.asarray(omega, dtype=float)
    R = exp_map_so3(omega)
    theta2 = np.sum(omega * omega, axis=-1)
    small = theta2 < 1e-16
    t2safe = np.where(small, 1.0, theta2)
    ImR = np.eye(3) - R
    out = np.empty(omega.shape[:-1] + (3, 3, 3))
    for i, e in enumerate(np.eye(3)):
        num = omega[..., i, None, None] * skew(omega) + skew(np.cross(omega, ImR @ e))
        out[..., i, :, :] = np.where(small[..., None, None], skew(e),
                                     (num / t2safe[..., None, None]) @ R)
    return out


def quat_polynomial_partials(u):
    """Oracle: the partials (..., 4, 3, 3) of quat_to_rotmat's polynomial in
    the (w, x, y, z) components, without normalization."""
    w, x, y, z = (u[..., i] for i in range(4))
    o = np.zeros_like(w)

    def m3(r0, r1, r2):
        return np.stack([np.stack(r0, -1), np.stack(r1, -1), np.stack(r2, -1)], -2)

    bw = 2 * m3([o, -z, y], [z, o, -x], [-y, x, o])
    bx = 2 * m3([o, y, z], [y, -2 * x, -w], [z, w, -2 * x])
    by = 2 * m3([-2 * y, x, w], [x, o, z], [-w, z, -2 * y])
    bz = 2 * m3([-2 * z, -w, x], [w, -2 * z, y], [x, y, o])
    return np.stack([bw, bx, by, bz], axis=-3)


def drotmat_dquat_jacobian(q):
    """Oracle: dR/dq_m of quat_to_rotmat wrt a raw quaternion as a
    (..., 4, 3, 3) tensor, the polynomial partials times the normalization
    Jacobian (I - u u^T) / |q|."""
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    u = q / n
    P = (np.eye(4) - u[..., :, None] * u[..., None, :]) / n[..., None]
    return np.einsum("...jab,...jm->...mab", quat_polynomial_partials(u), P)


def make_camera(fx=100.0, fy=100.0, cx=32.0, cy=32.0, w=64, h=64, near=0.01):
    return Camera(rotation=np.eye(3), translation=np.zeros(3),
                  fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h, near=near)


class TestCovarianceFromRS:
    """R diag(s)^2 R^T from a quaternion's rotation and scales."""

    def test_identity(self):
        cov = covariance_from_matrix(quat_to_rotmat(IDENTITY_Q), np.ones(3))
        np.testing.assert_allclose(cov, np.eye(3), atol=1e-12)

    def test_axis_aligned(self):
        cov = covariance_from_matrix(quat_to_rotmat(IDENTITY_Q), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(cov, np.diag([4.0, 1.0, 1.0]), atol=1e-12)

    def test_rotated_90deg_about_z(self):
        # hand multiplication of R diag(4,1,1) R^T with R the 90-degree z-rotation
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        cov = covariance_from_matrix(quat_to_rotmat(q), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(cov, np.diag([1.0, 4.0, 1.0]), atol=1e-12)

    def test_symmetric_and_positive_definite(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(200, 4))
        s = rng.uniform(1e-6, 3.0, (200, 3))
        cov = covariance_from_matrix(quat_to_rotmat(q), s)
        np.testing.assert_allclose(cov, np.swapaxes(cov, -1, -2), atol=0)
        assert np.linalg.eigvalsh(cov).min() > 0


class TestExpMap:
    def test_zero(self):
        np.testing.assert_allclose(exp_map_so3(np.zeros(3)), np.eye(3), atol=0)

    def test_quarter_turn_about_z(self):
        R = exp_map_so3(np.array([0.0, 0.0, np.pi / 2]))
        np.testing.assert_allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_orthogonality_sweep(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 2.0, (1000, 3))
        R = exp_map_so3(w)
        err = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max()
        assert err < 1e-9

    def test_small_angle_series(self):
        R = exp_map_so3(np.array([1e-13, 0, 0]))
        assert np.abs(R - np.eye(3)).max() < 1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for w in [rng.normal(0, 1.5, 3) for _ in range(5)] + [np.zeros(3), np.array([1e-6, 0, 0])]:
            d_R = rng.normal(size=(3, 3))
            d_w = dexp_map_so3(w, exp_map_so3(w), d_R)
            h = 1e-6
            for m in range(3):
                e = np.zeros(3)
                e[m] = h
                fd = np.sum(d_R * (exp_map_so3(w + e) - exp_map_so3(w - e))) / (2 * h)
                np.testing.assert_allclose(d_w[m], fd, atol=1e-6)

    def test_vjp_matches_the_jacobian_tensor(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 1.5, (300, 3))
        d_R = rng.normal(size=(300, 3, 3))
        want = np.einsum("nab,nmab->nm", d_R, dexp_jacobian(w))
        got = dexp_map_so3(w, exp_map_so3(w), d_R)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-8, 1e-6, 1e-4 * (1 - 1e-9),
                                       1e-4 * (1 + 1e-9), 0.1, 3.0])
    def test_vjp_is_the_right_jacobian_at_any_angle(self, theta):
        """d_omega = J_r(omega)^T a, with a_i = <R^T d_R, [e_i]x> and
        J_r^T = sum_k [omega]x^k / (k + 1)! summed to convergence, across
        the series switch at 1e-4 and down to zero angle."""
        rng = np.random.default_rng(10)
        axes = rng.normal(size=(4, 3))
        w = theta * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        R = exp_map_so3(w)
        d_R = rng.normal(size=(4, 3, 3))
        M = np.swapaxes(R, -1, -2) @ d_R
        a = np.stack([np.sum(M * skew(e), axis=(-2, -1)) for e in np.eye(3)], axis=-1)
        K = skew(w)
        term = np.broadcast_to(np.eye(3), K.shape)
        jt = term.copy()
        for k in range(1, 40):
            term = term @ K / (k + 1)
            jt = jt + term
        want = (jt @ a[..., None])[..., 0]
        assert np.abs(dexp_map_so3(w, R, d_R) - want).max() <= 1e-13


class TestQuaternions:
    def test_known_rotations(self):
        np.testing.assert_array_equal(quat_to_rotmat(IDENTITY_Q), np.eye(3))
        # half turn about x
        np.testing.assert_array_equal(quat_to_rotmat(np.array([0.0, 1.0, 0.0, 0.0])),
                                      np.diag([1.0, -1.0, -1.0]))

    def test_sign_invariant(self):
        q = np.random.default_rng(3).normal(size=(500, 4))
        np.testing.assert_array_equal(quat_to_rotmat(-q), quat_to_rotmat(q))

    def test_orthonormal(self):
        """Non-unit quaternions are normalized first: R is a proper rotation."""
        q = np.random.default_rng(4).normal(size=(500, 4)) * 3.0
        R = quat_to_rotmat(q)
        np.testing.assert_allclose(R @ np.swapaxes(R, 1, 2),
                                   np.broadcast_to(np.eye(3), R.shape), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)

    def test_vjp_matches_the_polynomial_partials(self):
        """At a unit quaternion the VJP is the contraction with the partials
        of quat_to_rotmat's polynomial, before normalization."""
        rng = np.random.default_rng(11)
        u = rng.normal(size=(300, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        d_R = rng.normal(size=(300, 3, 3))
        want = np.einsum("nab,nmab->nm", d_R, quat_polynomial_partials(u))
        got = drotmat_dquat(u, d_R)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 1e3])
    def test_vjp_through_normalization(self, norm):
        """The VJP, then the normalization's backward, is the gradient wrt
        a raw quaternion of any norm: against the Jacobian tensor and
        against central differences."""
        rng = np.random.default_rng(12)
        q = rng.normal(size=(20, 4))
        q *= norm / np.linalg.norm(q, axis=1, keepdims=True)
        d_R = rng.normal(size=(20, 3, 3))
        n = np.linalg.norm(q, axis=1, keepdims=True)
        u = q / n
        d_u = drotmat_dquat(u, d_R)
        got = (d_u - np.sum(d_u * u, axis=1, keepdims=True) * u) / n
        want = np.einsum("nab,nmab->nm", d_R, drotmat_dquat_jacobian(q))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        h = 1e-6 * norm
        fd = np.empty_like(q)
        for m in range(4):
            e = np.zeros(4)
            e[m] = h
            diff = quat_to_rotmat(q + e) - quat_to_rotmat(q - e)
            fd[:, m] = np.sum(d_R * diff, axis=(1, 2)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-8 / norm)


class TestProjection:
    def test_on_axis_mean(self):
        cam = make_camera()
        out = project_gaussian(np.eye(3) * 0.01, np.array([0.0, 0.0, 2.0]), cam)
        assert out is not None
        mean2d, _ = out
        np.testing.assert_allclose(mean2d, [32.0, 32.0], atol=1e-12)

    def test_on_axis_isotropic_cov(self):
        # symbolic Jacobian on the optical axis: J = diag(f/d, f/d)
        f, d, sigma = 120.0, 3.0, 0.2
        cam = make_camera(fx=f, fy=f)
        out = project_gaussian(np.eye(3) * sigma**2, np.array([0.0, 0.0, d]), cam)
        mean2d, cov2d = out
        expected = (f * sigma / d) ** 2 * np.eye(2) + COV2D_DILATION * np.eye(2)
        np.testing.assert_allclose(cov2d, expected, atol=1e-12)

    def test_behind_near_plane_culled(self):
        cam = make_camera()
        assert project_gaussian(np.eye(3), np.array([0.0, 0.0, -1.0]), cam) is None
        assert project_gaussian(np.eye(3), np.array([0.0, 0.0, 0.005]), cam) is None

    def test_roll_equivariance(self):
        # rolling the camera about the optical axis rotates the projection
        rng = np.random.default_rng(4)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        roll = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        cam = make_camera()
        cam_rolled = Camera(rotation=roll @ cam.rotation,
                            translation=roll @ cam.translation,
                            fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                            width=cam.width, height=cam.height, near=cam.near)
        rot2d = roll[:2, :2]
        pp = np.array([cam.cx, cam.cy])
        for _ in range(20):
            pos = rng.normal(0, 0.5, 3) + np.array([0, 0, 4.0])
            cov = covariance_from_matrix(quat_to_rotmat(rng.normal(size=4)),
                                         rng.uniform(0.05, 0.3, 3))
            m1, c1 = project_gaussian(cov, pos, cam)
            m2, c2 = project_gaussian(cov, pos, cam_rolled)
            np.testing.assert_allclose(m2 - pp, rot2d @ (m1 - pp), atol=1e-6)
            np.testing.assert_allclose(c2, rot2d @ c1 @ rot2d.T, atol=1e-6)

    def test_central_differences_with_row_behind_near_plane(self):
        rng = np.random.default_rng(7)
        cam = Camera.look_at([0.3, -0.2, -3.0], [0.0, 0.1, 0.0], [0.0, -1.0, 0.0],
                             90.0, 80.0, 32.0, 30.0, 64, 60)
        pos = rng.normal(0, 0.6, (12, 3))
        pos[3] = [0.1, 0.0, -3.5]         # behind the camera
        A = rng.normal(0.0, 0.2, (12, 3, 3))
        cov3 = A @ np.swapaxes(A, 1, 2) + 0.01 * np.eye(3)
        valid = project(pos, cov3, cam)["valid"]
        assert not valid[3] and valid.sum() == 11
        w_mean = rng.normal(size=(12, 2))
        w_conic = rng.normal(size=(12, 3))
        d_pos, d_cov3 = project_backward(project(pos, cov3, cam), cam, w_mean, w_conic)
        np.testing.assert_array_equal(d_pos[3], 0.0)
        np.testing.assert_array_equal(d_cov3[3], 0.0)

        def loss():
            # a row in front of the near plane is not drawn: its placeholder
            # mean and conic carry no loss
            proj = project(pos, cov3, cam)
            keep = proj["valid"][:, None]
            return float(np.sum(keep * w_mean * proj["mean2d"])
                         + np.sum(keep * w_conic * proj["conic"]))

        h = 1e-6
        for x, grad in [(pos, d_pos), (cov3, d_cov3)]:
            for _ in range(4):
                v = rng.normal(size=x.shape)
                x += h * v
                up = loss()
                x -= 2.0 * h * v
                down = loss()
                x += h * v
                fd = (up - down) / (2.0 * h)
                an = float(np.sum(grad * v))
                assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an)), (fd, an)


class TestAlphaBlend:
    def test_single_nearly_opaque(self):
        # alpha is capped at ALPHA_MAX; the rest of the light is background
        c = np.array([0.2, 0.4, 0.8])
        bg = np.array([0.1, 0.2, 0.3])
        out = alpha_blend([(c, 1.0 - 1e-9)], bg)
        np.testing.assert_allclose(out, ALPHA_MAX * c + (1.0 - ALPHA_MAX) * bg, atol=1e-15)

    def test_two_half_splats(self):
        c1, c2 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        out = alpha_blend([(c1, 0.5), (c2, 0.5)])
        np.testing.assert_allclose(out, 0.5 * c1 + 0.25 * c2, atol=0)

    def test_empty_gives_background(self):
        bg = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(alpha_blend([], bg), bg, atol=0)

    def test_equal_alpha_equal_color_permutation_invariant(self):
        c = np.array([0.3, 0.3, 0.3])
        splats = [(c, 0.4)] * 5
        a = alpha_blend(splats)
        b = alpha_blend(list(reversed(splats)))
        np.testing.assert_allclose(a, b, atol=0)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 0.999)), max_size=12),
           st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_output_in_range(self, pairs, bg):
        splats = [(np.full(3, c), a) for c, a in pairs]
        out = alpha_blend(splats, np.full(3, bg))
        assert np.all(out >= 0) and np.all(out <= 1 + 1e-9)
