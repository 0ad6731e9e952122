import numpy as np

from kgs.gaussians import covariance_from_matrix, exp_map_so3, quat_to_rotmat, sigmoid
from kgs.kinematics import (
    COLINEAR_LIMIT,
    DEFAULT_KAPPA,
    DEFAULT_LAMBDA_S,
    kinematic_frames_backward,
    kinematic_frames_cached,
    refine,
    refine_backward,
)

IDENTITY = quat_to_rotmat(np.array([1.0, 0.0, 0.0, 0.0]))


def frame_errors(R):
    orth = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max()
    det = np.linalg.det(R)
    return orth, det


def frames(v):
    return kinematic_frames_cached(np.atleast_2d(np.asarray(v, dtype=float)))[0]


def refine_one(cov, U, r_z=None, speed=0.0, blur_dt=1.0, d_scale=np.zeros(3),
               d_rot=np.zeros(3), kappa=DEFAULT_KAPPA, lambda_s=DEFAULT_LAMBDA_S):
    """refine on one row; r_z defaults to the frame's motion axis."""
    U = np.asarray(U, dtype=float)[None]
    r_z = U[:, :, 2] if r_z is None else np.asarray(r_z, dtype=float)[None]
    cov, scales, cache = refine(U, np.asarray(cov, dtype=float)[None], r_z,
                                exp_map_so3(np.asarray(d_rot, dtype=float))[None],
                                np.array([speed]), np.asarray(d_scale, dtype=float)[None],
                                blur_dt, kappa, lambda_s)
    return cov[0], scales[0], cache


def refine_moving(cov, v, dt, **kw):
    """Refine against a velocity the way the renderer does: its motion frame,
    its speed, and the exposure dt."""
    v = np.asarray(v, dtype=float)
    return refine_one(cov, frames(v)[0], speed=np.linalg.norm(v), blur_dt=dt, **kw)


def variances(cov, U):
    """Variances of cov along the frame's axes, read from refine."""
    return refine_one(cov, U)[2]["sig"][0] ** 2


def gate(r_z, u_z, kappa):
    return refine_one(np.eye(3), frames(u_z)[0], r_z=r_z, kappa=kappa)[2]["eta"][0]


def s_prime(sig, v_z, eta_dot):
    """Blurred scales of an axis-aligned splat moving along +z at speed v_z
    whose principal axis makes cos = eta_dot with the motion (dt = 1)."""
    r_z = np.array([np.sqrt(1.0 - eta_dot**2), 0.0, eta_dot])
    return refine_one(np.diag(np.asarray(sig, dtype=float) ** 2), np.eye(3), r_z=r_z,
                      speed=v_z, kappa=-20.0)[2]["s_prime"][0]


class TestKinematicBasis:
    def test_velocity_along_z(self):
        b = frames([0.0, 0.0, 5.0])[0]
        np.testing.assert_allclose(b[:, 0], [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(b[:, 1], [-1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(b[:, 2], [0, 0, 1], atol=1e-12)

    def test_velocity_along_x_uses_alternate_reference(self):
        b = frames([3.0, 0.0, 0.0])[0]
        np.testing.assert_allclose(b[:, 0], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(b[:, 1], [0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(b[:, 2], [1, 0, 0], atol=1e-12)

    def test_random_sweep_orthonormal_right_handed(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(100000, 3))
        v *= (10.0 ** rng.uniform(-5, 3, 100000) / np.linalg.norm(v, axis=1))[:, None]
        R = frames(v)
        orth, det = frame_errors(R)
        assert orth < 1e-6
        assert np.abs(det - 1).max() < 1e-6
        align = np.einsum("ni,ni->n", R[:, :, 2], v / np.linalg.norm(v, axis=1, keepdims=True))
        assert (align > 1 - 1e-9).all()

    def test_smooth_within_branch(self):
        # directional finite-difference stays bounded away from the switch
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=3)
            if abs(v[0] / np.linalg.norm(v)) > 0.9:
                continue
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            h = 1e-6
            diff = (frames(v + h * d) - frames(v - h * d)) / (2 * h)
            assert np.abs(diff).max() < 100.0 / np.linalg.norm(v)

    def test_rotational_equivariance_of_refinement(self):
        # equivariance holds when v and Qv share the reference branch AND the
        # in-plane frame orientation is immaterial: either Q fixes the world
        # reference axis, or the covariance is isotropic transverse to v
        rng = np.random.default_rng(2)

        def check(cov, v, Q):
            qv = Q @ v
            if abs(v[0]) / np.linalg.norm(v) > 0.9 or abs(qv[0]) / np.linalg.norm(qv) > 0.9:
                return False
            base = refine_moving(cov, v, 0.5)[0]
            rot = refine_moving(Q @ cov @ Q.T, qv, 0.5)[0]
            np.testing.assert_allclose(rot, Q @ base @ Q.T, atol=1e-6)
            return True

        checked_axis = checked_iso = 0
        while checked_axis < 20:
            v = rng.normal(size=3)
            Q = exp_map_so3(np.array([rng.normal(), 0.0, 0.0]))  # fixes (1,0,0)
            cov = covariance_from_matrix(IDENTITY, rng.uniform(0.5, 2.0, 3))
            checked_axis += check(cov, v, Q)
        while checked_iso < 20:
            v = rng.normal(size=3)
            vhat = v / np.linalg.norm(v)
            a, b = rng.uniform(0.5, 2.0, 2)
            cov = a * np.eye(3) + b * np.outer(vhat, vhat)  # transversely isotropic
            Q = exp_map_so3(rng.normal(size=3))
            checked_iso += check(cov, v, Q)


class TestProjectVariances:
    def test_identity_frame_diag(self):
        out = variances(np.diag([3.0, 5.0, 7.0]), np.eye(3))
        np.testing.assert_allclose(out, [3, 5, 7], rtol=1e-15, atol=0)

    def test_isotropic_any_frame(self):
        b = frames([1.0, 2.0, -0.5])[0]
        np.testing.assert_allclose(variances(np.eye(3), b), [1, 1, 1], atol=1e-12)

    def test_motion_axis_picks_up_large_variance(self):
        b = frames([1.0, 0.0, 0.0])[0]
        sx2, sy2, sz2 = variances(np.diag([4.0, 1.0, 1.0]), b)
        assert (sx2, sy2, sz2) == (1.0, 1.0, 4.0)

    def test_exact_under_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            Q = exp_map_so3(rng.normal(size=3))
            cov = covariance_from_matrix(IDENTITY, rng.uniform(0.2, 2.0, 3))
            U = frames(rng.normal(size=3))[0]
            a = variances(cov, U)
            b = variances(Q @ cov @ Q.T, Q @ U)
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestAlignmentFactor:
    def test_perfect_alignment(self):
        u = np.array([0.0, 0.0, 1.0])
        assert gate(u, u, 0.0) == 1.0

    def test_orthogonal_hits_floor(self):
        assert gate(np.array([1.0, 0, 0]), np.array([0, 0, 1.0]), 0.0) == 0.5

    def test_above_floor_passes_through(self):
        # kappa with sigmoid(kappa) ~ 0.1: alignment of 0.8 wins the max
        r = np.array([0.8, 0.0, 0.6])
        u = np.array([1.0, 0.0, 0.0])
        assert abs(gate(r, u, -2.1972) - 0.8) < 1e-12


class TestBlurScales:
    def test_zero_velocity(self):
        np.testing.assert_allclose(s_prime([1.0, 2.0, 3.0], 0.0, 1.0), [1, 2, 3], atol=0)

    def test_full_gate(self):
        np.testing.assert_allclose(s_prime(np.ones(3), 2.0, 1.0), [1, 1, 3], atol=0)

    def test_half_gate(self):
        np.testing.assert_allclose(s_prime(np.ones(3), 2.0, 0.5), [1, 1, 2], atol=0)


class TestRefineCovariance:
    def base(self, **kw):
        d = dict(cov=np.eye(3), v=np.array([0.0, 0.0, 1.0]), dt=2.0, kappa=100.0)
        d.update(kw)
        return refine_moving(d.pop("cov"), d.pop("v"), d.pop("dt"), **d)[0]

    def test_isotropic_elongation_along_motion(self):
        # blur scales (1,1,3) in the motion frame -> eigenvalues (1,1,9)
        w, vecs = np.linalg.eigh(self.base())
        np.testing.assert_allclose(sorted(w), [1, 1, 9], atol=1e-9)
        big_axis = vecs[:, np.argmax(w)]
        assert abs(big_axis @ np.array([0, 0, 1.0])) > 1 - 1e-9

    def test_zero_blur_limit_recovers_isotropic(self):
        out = self.base(v=np.array([0.0, 0.0, 1e-5]), dt=1e-7)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-9)

    def test_log_residual_scales_axis(self):
        out = self.base(d_scale=np.array([np.log(2.0), 0, 0]), lambda_s=1.0)
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(out)), [1, 4, 9], atol=1e-9)

    def test_factorization_reconstructs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cov = covariance_from_matrix(IDENTITY, rng.uniform(0.3, 2.0, 3))
            out, scales, cache = refine_moving(
                cov, rng.normal(size=3), rng.uniform(0.01, 1.0),
                d_scale=rng.normal(0, 0.5, 3), d_rot=rng.normal(0, 0.5, 3),
                r_z=_unit(rng.normal(size=3)))
            R = cache["R_kin"][0]
            recon = R @ np.diag(scales**2) @ R.T
            assert np.abs(out - recon).max() < 1e-10
            assert np.linalg.eigvalsh(out).min() > 0

    def test_trace_inflation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cov = covariance_from_matrix(IDENTITY, rng.uniform(0.3, 2.0, 3))
            v = rng.normal(size=3)
            refined = refine_moving(cov, v, 0.5)[0]
            frame = frames(v)[0]
            baseline = frame @ np.diag(variances(cov, frame)) @ frame.T
            assert np.trace(refined) >= np.trace(baseline) - 1e-12


# ---------------------------------------------------------------------------
# backward passes against central differences
# ---------------------------------------------------------------------------

def central_difference(loss, x, direction, h=1e-6):
    x += h * direction
    up = loss()
    x -= 2.0 * h * direction
    down = loss()
    x += h * direction
    return (up - down) / (2.0 * h)


def assert_directional(loss, x, grad, direction, rel=1e-6):
    """Central difference of loss along direction against grad . direction,
    relative to the largest either could be, |grad| |direction|."""
    fd = central_difference(loss, x, direction)
    an = float(np.sum(grad * direction))
    scale = max(abs(fd), np.linalg.norm(grad) * np.linalg.norm(direction))
    assert abs(fd - an) <= rel * scale + 1e-12, (fd, an)


class TestFramesBackward:
    def velocities(self, rng):
        """Rows on the +x reference branch (|u_z . x| <= 0.9) and on the +y
        one (>= 0.995), away from the switch at COLINEAR_LIMIT."""
        v = rng.normal(size=(40, 3))
        v[20:, 0] = np.sign(v[20:, 0] + 0.5) * 20.0 * np.linalg.norm(v[20:, 1:], axis=1)
        v *= rng.uniform(0.05, 5.0, (40, 1))
        cos = np.abs(v[:, 0]) / np.linalg.norm(v, axis=1)
        keep = (cos <= 0.9) | (cos >= 0.995)
        return v[keep], cos[keep]

    def test_central_differences_with_speed(self):
        rng = np.random.default_rng(20)
        v, cos = self.velocities(rng)
        _, cache = kinematic_frames_cached(v)
        use_alt = (cache["r_ref"] == [0.0, 1.0, 0.0]).all(axis=1)
        np.testing.assert_array_equal(use_alt, cos > COLINEAR_LIMIT)
        assert use_alt.sum() >= 5 and (~use_alt).sum() >= 5
        W = rng.normal(size=(v.shape[0], 3, 3))
        w_speed = rng.normal(size=v.shape[0])
        d_v = kinematic_frames_backward(cache, W, w_speed)

        def loss():
            return float(np.sum(W * kinematic_frames_cached(v)[0])
                         + np.sum(w_speed * np.linalg.norm(v, axis=1)))

        for _ in range(6):
            assert_directional(loss, v, d_v, rng.normal(size=v.shape))
        # row by row, so a wrong row cannot hide in the sum
        for i in range(v.shape[0]):
            direction = np.zeros_like(v)
            direction[i] = rng.normal(size=3)
            assert_directional(loss, v, d_v * (direction != 0), direction)


class TestRefineBackward:
    def inputs(self, rng, n=24):
        """Rows with the gate open (|r_z . u_z| >= floor + 0.1) and rows on
        its floor (<= floor - 0.05), in motion frames of random velocities."""
        floor = sigmoid(DEFAULT_KAPPA)
        U = frames(rng.normal(size=(n, 3)))
        cos = np.where(np.arange(n) % 2 == 0, rng.uniform(floor + 0.1, 1.0, n),
                       rng.uniform(0.0, floor - 0.05, n)) * rng.choice([-1.0, 1.0], n)
        perp = _unit(np.cross(U[:, :, 2], rng.normal(size=(n, 3))))
        r_z = cos[:, None] * U[:, :, 2] + np.sqrt(1.0 - cos**2)[:, None] * perp
        A = rng.normal(0.0, 0.5, (n, 3, 3))
        cov_p = A @ np.swapaxes(A, 1, 2) + 0.2 * np.eye(3)
        E = exp_map_so3(rng.normal(0.0, 0.5, (n, 3)))
        return {"U": U, "cov_p": cov_p, "r_z": r_z, "E": E,
                "speed": rng.uniform(0.1, 3.0, n), "d_scale": rng.normal(0.0, 0.5, (n, 3))}

    def check(self, with_scales):
        rng = np.random.default_rng(21 + with_scales)
        x = self.inputs(rng)

        def run():
            return refine(x["U"], x["cov_p"], x["r_z"], x["E"], x["speed"], x["d_scale"],
                          0.4, DEFAULT_KAPPA, DEFAULT_LAMBDA_S)

        cov, scales, cache = run()
        gate_open = cache["gate_open"]
        assert gate_open.sum() >= 5 and (~gate_open).sum() >= 5
        W = rng.normal(size=cov.shape)
        Ws = rng.normal(size=scales.shape) if with_scales else None
        grads = dict(zip(["cov_p", "U", "r_z", "E", "speed", "d_scale"],
                         refine_backward(cache, W, Ws)))
        np.testing.assert_array_equal(grads["r_z"][~gate_open], 0.0)

        def loss():
            c, s, _ = run()
            return float(np.sum(W * c) + (np.sum(Ws * s) if with_scales else 0.0))

        for name, g in grads.items():
            for rows in (gate_open, ~gate_open):
                direction = rng.normal(size=x[name].shape) * (
                    rows.reshape((-1,) + (1,) * (x[name].ndim - 1)))
                assert_directional(loss, x[name], g * (direction != 0), direction)

    def test_central_differences(self):
        self.check(with_scales=False)

    def test_central_differences_with_scale_gradient(self):
        self.check(with_scales=True)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
