"""Core Gaussian-splat algebra.

Quaternion and SO(3) helpers, covariance assembly and its backward, the
pinhole camera, and the projection with the local affine (EWA-style)
approximation and its backward, which the renderer runs on every splat. The
compositing constants live here so the renderer and its references agree.
Everything is a pure function over numpy arrays: the SO(3) and covariance
helpers broadcast over leading batch dimensions, and the projection takes
(N, ...) rows.
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


def require_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise InvalidInputError(f"non-finite values in {name}")


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

def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise InvalidInputError("zero-norm quaternion")
    return q / n


def quat_to_rotmat(q):
    """Convert (w,x,y,z) quaternions to rotation matrices (normalizing first)."""
    q = quat_normalize(q)
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


def exp_map_so3(omega):
    """Rodrigues exponential map, with a series fallback near zero angle."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega, axis=-1)
    t2 = theta * theta
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / np.where(small, 1.0, t2))
    K = skew(omega)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + a[..., None, None] * K + b[..., None, None] * (K @ K)


def dexp_map_so3(omega):
    """Partial derivatives of exp_map_so3 wrt each component of omega.

    Returns D with shape (..., 3, 3, 3) where D[..., m, :, :] = dR/d omega_m,
    using the closed form dR/dw_i = ((w_i [w]x + [w x ((I-R)e_i)]x) / |w|^2) R
    and the skew-generator limit at w = 0.
    """
    omega = np.asarray(omega, dtype=float)
    R = exp_map_so3(omega)
    theta2 = np.sum(omega * omega, axis=-1)
    small = theta2 < 1e-16
    t2safe = np.where(small, 1.0, theta2)
    eye = np.broadcast_to(np.eye(3), R.shape)
    ImR = eye - R
    out = np.empty(omega.shape[:-1] + (3, 3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        ImRe = ImR @ e                                     # (...,3)
        cross = np.cross(omega, ImRe)
        num = omega[..., i, None, None] * skew(omega) + skew(cross)
        Di = (num / t2safe[..., None, None]) @ R
        Di = np.where(small[..., None, None], skew(e), Di)
        out[..., i, :, :] = Di
    return out


def drotmat_dquat(q):
    """Partials of quat_to_rotmat wrt the raw quaternion components.

    Returns (..., 4, 3, 3) with entry [m] = dR/dq_m. Includes the
    normalization chain, so q need not be unit.
    """
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    u = q / n
    w, x, y, z = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    o = np.zeros_like(w)

    def m3(r0, r1, r2):
        return np.stack([np.stack(r0, -1), np.stack(r1, -1), np.stack(r2, -1)], -2)

    bw = 2 * m3([o, -z, y], [z, o, -x], [-y, x, o])
    bx = 2 * m3([o, y, z], [y, -2 * x, -w], [z, w, -2 * x])
    by = 2 * m3([-2 * y, x, w], [x, o, z], [-w, z, -2 * y])
    bz = 2 * m3([-2 * z, -w, x], [w, -2 * z, y], [x, y, o])
    B = np.stack([bw, bx, by, bz], axis=-3)                     # (...,4,3,3)
    P = (np.eye(4) - u[..., :, None] * u[..., None, :]) / n[..., None]
    return np.einsum("...jab,...jm->...mab", B, P)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def covariance_from_rs(rotation, scale):
    """Build a world covariance R diag(s)^2 R^T from a quaternion and scales."""
    rotation = np.asarray(rotation, dtype=float)
    scale = np.asarray(scale, dtype=float)
    require_finite("covariance_from_rs", rotation, scale)
    if np.any(scale <= 0):
        raise InvalidInputError("scale components must be > 0")
    R = quat_to_rotmat(rotation)
    return covariance_from_matrix(R, scale)


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
        R = self.rotation
        if R.shape != (3, 3) or np.max(np.abs(R @ R.T - np.eye(3))) > 1e-6:
            raise InvalidInputError("camera rotation must be orthonormal")
        if np.linalg.det(R) < 0:
            raise InvalidInputError("camera rotation must have det +1")
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

def project(pos, cov3, cam: Camera, dilation=COV2D_DILATION):
    """Project (N,3) world means and (N,3,3) covariances into the image.

    The projected covariance is M Sigma M^T + dilation*I with M the local
    affine Jacobian of the pinhole map composed with the camera rotation;
    conic is its inverse as (a, b, c) = ([0,0], [0,1], [1,1]). Rows with
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
    cov2d[:, 0, 0] += dilation
    cov2d[:, 1, 1] += dilation
    mean2d = np.stack([cam.fx * x * inv_z + cam.cx, cam.fy * y * inv_z + cam.cy], axis=-1)
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conic = np.stack([cov2d[:, 1, 1] / det, -cov2d[:, 0, 1] / det,
                      cov2d[:, 0, 0] / det], axis=-1)
    return {"p_cam": p_cam, "valid": valid, "J": J, "M": M, "cov2d": cov2d,
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
