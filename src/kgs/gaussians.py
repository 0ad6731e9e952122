"""Core Gaussian-splat algebra.

Quaternion and SO(3) helpers, covariance assembly and its backward, the
pinhole camera, and the projection with the local affine (EWA-style)
approximation and its backward, which the renderer runs on every splat. The
compositing constants live here so the renderer and its references agree.
Everything is a pure function over numpy arrays: the SO(3) and covariance
helpers broadcast over leading batch dimensions, and the projection takes
(N, ...) rows.

The two rotation backwards, dexp_map_so3 and drotmat_dquat, are
vector-Jacobian products in closed form. They keep the names of the
Jacobian tensors they replaced, under which traced benchmark runs count
them; the tensor forms are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Projected-covariance dilation (px^2), added to the diagonal as the usual
# splatting anti-alias floor.
COV2D_DILATION = 0.3
# Per-splat opacity ceiling during compositing.
ALPHA_MAX = 0.99
# Stop blending a pixel once this little light remains.
TRANSMITTANCE_CUTOFF = 1e-4
# Splats vanish beyond this Mahalanobis radius (5 sigma). Keeps support
# compact and identical between the tiled rasterizer and the naive loop.
FOOTPRINT_RADIUS = 5.0
FOOTPRINT_CHI2 = FOOTPRINT_RADIUS**2


class InvalidInputError(ValueError):
    """An operation received arguments outside its contract."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite intermediates."""


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def inverse_sigmoid(p):
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


# ---------------------------------------------------------------------------
# quaternions / SO(3)
# ---------------------------------------------------------------------------

def quat_normalize(q, return_norm=False):
    """q / |q|, and with return_norm the norms |q| (..., 1) as well."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise InvalidInputError("zero-norm quaternion")
    return (q / n, n) if return_norm else q / n


def quat_to_rotmat(q):
    """Rotation matrices of unit (w,x,y,z) quaternions; normalize with
    quat_normalize first. On a non-unit q it evaluates the same polynomial,
    which is then no rotation."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def skew(v):
    v = np.asarray(v, dtype=float)
    z = np.zeros_like(v[..., 0])
    return np.stack([
        np.stack([z, -v[..., 2], v[..., 1]], axis=-1),
        np.stack([v[..., 2], z, -v[..., 0]], axis=-1),
        np.stack([-v[..., 1], v[..., 0], z], axis=-1),
    ], axis=-2)


def _rodrigues_coeffs(omega):
    """sin(t)/t, (1 - cos t)/t^2 and (t - sin t)/t^3 at t = |omega|, each by
    its Taylor series below t = 1e-4."""
    theta = np.linalg.norm(omega, axis=-1)
    t2 = theta * theta
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0, (1.0 - a) / (safe * safe))
    return a, b, c


def exp_map_so3(omega):
    """Rodrigues exponential map: R = I + a K + b K^2 with K = [omega]x."""
    omega = np.asarray(omega, dtype=float)
    a, b, _ = _rodrigues_coeffs(omega)
    K = skew(omega)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + a[..., None, None] * K + b[..., None, None] * (K @ K)


def _axial(M):
    """(M21 - M12, M02 - M20, M10 - M01): <M, [v]x> = v . _axial(M)."""
    return np.stack([M[..., 2, 1] - M[..., 1, 2], M[..., 0, 2] - M[..., 2, 0],
                     M[..., 1, 0] - M[..., 0, 1]], axis=-1)


def dexp_map_so3(omega, R, d_R):
    """The gradient wrt omega of a loss with gradient d_R wrt
    R = exp_map_so3(omega). R + dR = R exp([J_r(omega) d omega]x), so it is
    J_r(omega)^T a = a + b omega x a + c omega x (omega x a) with
    a = _axial(R^T d_R) (Sola et al., "A micro Lie theory", 2018)."""
    omega = np.asarray(omega, dtype=float)
    _, _, c = _rodrigues_coeffs(omega)
    # b = (1 - cos t)/t^2 as 2 sin^2(t/2)/t^2: the 1 - cos form loses about
    # eps/t^2 just above the series, which R does not feel but omega x a does
    b = 0.5 * _rodrigues_coeffs(0.5 * omega)[0] ** 2
    a = _axial(np.swapaxes(R, -1, -2) @ d_R)
    wa = np.cross(omega, a)
    return a + b[..., None] * wa + c[..., None] * np.cross(omega, wa)


def drotmat_dquat(u, d_R):
    """The gradient wrt a unit (w, x, y, z) quaternion u of a loss with
    gradient d_R wrt R = quat_to_rotmat(u), a polynomial in u's components:
    (2 v.s, 2 w s + 2 S v - 4 tr(d_R) v) with v = (x, y, z),
    s = _axial(d_R) and S = d_R + d_R^T. The caller adds any other gradient
    wrt u and then applies the normalization's backward once."""
    w, v = u[..., :1], u[..., 1:]
    s = _axial(d_R)
    Sv = ((d_R + np.swapaxes(d_R, -1, -2)) @ v[..., None])[..., 0]
    tr = np.trace(d_R, axis1=-2, axis2=-1)[..., None]
    return 2.0 * np.concatenate([np.sum(v * s, axis=-1, keepdims=True),
                                 w * s + Sv - 2.0 * tr * v], axis=-1)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def covariance_from_matrix(R, scale):
    M = R * (np.asarray(scale, dtype=float)[..., None, :] ** 2)
    return M @ np.swapaxes(R, -1, -2)


def covariance_matrix_backward(R, scale, grad_cov):
    """Backward of covariance_from_matrix: returns (d_R, d_scale)."""
    G = _sym(grad_cov)
    d_R = 2.0 * G @ (R * (scale**2)[..., None, :])
    diag = np.einsum("nik,nij,njk->nk", R, G, R)
    d_scale = 2.0 * scale * diag
    return d_R, d_scale


def _sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


# ---------------------------------------------------------------------------
# cameras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Camera:
    """Pinhole camera: world-to-camera rigid transform plus intrinsics."""

    rotation: np.ndarray       # (3,3) world -> camera
    translation: np.ndarray    # (3,)
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        for name in ("rotation", "translation", "fx", "fy", "cx", "cy", "near"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise InvalidInputError(f"camera {name} must be finite, not {value!r}")
        R = self.rotation
        if R.shape != (3, 3) or np.max(np.abs(R @ R.T - np.eye(3))) > 1e-6:
            raise InvalidInputError("camera rotation must be orthonormal")
        if np.linalg.det(R) < 0:
            raise InvalidInputError("camera rotation must have det +1")
        for name in ("width", "height"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size <= 0:
                raise InvalidInputError(f"camera {name} must be a positive integer, not {size!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be > 0")
        if self.near <= 0:
            raise InvalidInputError("near plane must be > 0")

    @staticmethod
    def look_at(eye, target, up, fx, fy, cx, cy, width, height, near=0.01):
        eye = np.asarray(eye, dtype=float)
        z = np.asarray(target, dtype=float) - eye
        nz = np.linalg.norm(z)
        if nz < 1e-12:
            raise InvalidInputError("camera eye and target coincide")
        z = z / nz
        x = np.cross(np.asarray(up, dtype=float), z)
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            raise InvalidInputError("camera up parallel to view direction")
        x = x / nx
        y = np.cross(z, x)
        R = np.stack([x, y, z], axis=0)
        return Camera(rotation=R, translation=-R @ eye, fx=fx, fy=fy,
                      cx=cx, cy=cy, width=width, height=height, near=near)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def project(pos, cov3, cam: Camera):
    """Project (N,3) world means and (N,3,3) covariances into the image.

    The projected covariance is M Sigma M^T + COV2D_DILATION * I with M the
    local affine Jacobian of the pinhole map composed with the camera
    rotation; conic is its inverse as (a, b, c) = ([0,0], [0,1], [1,1]). Rows with
    valid == False lie in front of the near plane: their entries are
    placeholders that must not be drawn, and project_backward gives them
    zero gradient. Returns the dict project_backward takes.
    """
    p_cam = pos @ cam.rotation.T + cam.translation
    x, y, z = p_cam[:, 0], p_cam[:, 1], p_cam[:, 2]
    valid = z >= cam.near
    zs = np.where(valid, z, 1.0)
    inv_z = 1.0 / zs
    inv_z2 = inv_z * inv_z
    n = pos.shape[0]
    J = np.zeros((n, 2, 3))
    J[:, 0, 0] = cam.fx * inv_z
    J[:, 0, 2] = -cam.fx * x * inv_z2
    J[:, 1, 1] = cam.fy * inv_z
    J[:, 1, 2] = -cam.fy * y * inv_z2
    M = J @ cam.rotation
    cov2d = _sym(M @ cov3 @ np.swapaxes(M, -1, -2))
    cov2d[:, 0, 0] += COV2D_DILATION
    cov2d[:, 1, 1] += COV2D_DILATION
    mean2d = np.stack([cam.fx * x * inv_z + cam.cx, cam.fy * y * inv_z + cam.cy], axis=-1)
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conic = np.stack([cov2d[:, 1, 1] / det, -cov2d[:, 0, 1] / det,
                      cov2d[:, 0, 0] / det], axis=-1)
    return {"p_cam": p_cam, "valid": valid, "M": M, "cov2d": cov2d,
            "mean2d": mean2d, "conic": conic, "depth": z, "cov3": cov3}


def project_backward(proj, cam: Camera, d_mean2d, d_conic):
    """Backward of project from the gradients of mean2d and conic; returns
    (d_pos, d_cov3)."""
    valid = proj["valid"]
    M = proj["M"]
    n = M.shape[0]
    # conic = inverse of cov2d; off-diagonal gradient splits across the two
    # symmetric entries
    Gl = np.empty((n, 2, 2))
    Gl[:, 0, 0] = d_conic[:, 0]
    Gl[:, 0, 1] = Gl[:, 1, 0] = 0.5 * d_conic[:, 1]
    Gl[:, 1, 1] = d_conic[:, 2]
    lam = np.empty((n, 2, 2))
    lam[:, 0, 0] = proj["conic"][:, 0]
    lam[:, 0, 1] = lam[:, 1, 0] = proj["conic"][:, 1]
    lam[:, 1, 1] = proj["conic"][:, 2]
    d_cov2d = -lam @ Gl @ lam
    G2 = _sym(d_cov2d)
    d_cov3 = np.swapaxes(M, -1, -2) @ G2 @ M
    d_M = 2.0 * G2 @ M @ proj["cov3"]
    d_J = d_M @ cam.rotation.T

    x, y, z = proj["p_cam"][:, 0], proj["p_cam"][:, 1], proj["p_cam"][:, 2]
    zs = np.where(valid, z, 1.0)
    inv_z = 1.0 / zs
    inv_z2 = inv_z * inv_z
    inv_z3 = inv_z2 * inv_z
    d_x = d_J[:, 0, 2] * (-cam.fx * inv_z2) + d_mean2d[:, 0] * cam.fx * inv_z
    d_y = d_J[:, 1, 2] * (-cam.fy * inv_z2) + d_mean2d[:, 1] * cam.fy * inv_z
    d_z = (d_J[:, 0, 0] * (-cam.fx * inv_z2) + d_J[:, 1, 1] * (-cam.fy * inv_z2)
           + d_J[:, 0, 2] * (2.0 * cam.fx * x * inv_z3)
           + d_J[:, 1, 2] * (2.0 * cam.fy * y * inv_z3)
           + d_mean2d[:, 0] * (-cam.fx * x * inv_z2)
           + d_mean2d[:, 1] * (-cam.fy * y * inv_z2))
    d_pcam = np.stack([d_x, d_y, d_z], axis=-1)
    d_pcam[~valid] = 0.0
    d_cov3[~valid] = 0.0
    d_pos = d_pcam @ cam.rotation
    return d_pos, d_cov3
