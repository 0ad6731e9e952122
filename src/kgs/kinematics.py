"""Motion-aligned frames and covariance refinement, batched over the refined
rows, each with its analytic backward.

A dynamic splat's instantaneous velocity defines a right-handed orthonormal
frame with one axis along the motion (`kinematic_frames_cached`). `refine`
measures the predicted covariance in that frame, elongates it along the
motion axis in proportion to the displacement over the exposure (gated by
how well the predicted orientation agrees with the velocity), recombines it
with the learnable log-scale and rotation residuals, and reassembles an SPD
covariance. The renderer refines only rows at or above the velocity floor.
"""
from __future__ import annotations

import numpy as np

from .gaussians import covariance_from_matrix, covariance_matrix_backward, sigmoid

# Division guard in the basis construction. Directions are renormalized
# exactly afterwards, so the guard only prevents 0/0 for vanishing input.
BASIS_EPS = 1e-8
# Switch to the alternate reference direction when the motion axis is nearly
# colinear with +x.
COLINEAR_LIMIT = 0.99
# Below this speed the frame is noise-dominated; callers skip refinement.
VELOCITY_FLOOR = 1e-6
# Alignment-gate floor parameter: sigmoid(DEFAULT_KAPPA) ~= 0.1.
DEFAULT_KAPPA = -2.1972
# Weight of the log-space scale residual.
DEFAULT_LAMBDA_S = 0.1

_REF_X = np.array([1.0, 0.0, 0.0])
_REF_Y = np.array([0.0, 1.0, 0.0])


def kinematic_frames_cached(velocity):
    """Motion-aligned frames, (..., 3) velocities -> (..., 3, 3) with columns
    (u_x, u_y, u_z) and u_z along the velocity; plus the intermediates the
    backward needs.

    All rows must be above VELOCITY_FLOOR (the renderer gates on that before
    refining). Returns (frames, cache).
    """
    v = np.asarray(velocity, dtype=float)
    n = np.linalg.norm(v, axis=-1)
    u_z = v / (n + BASIS_EPS)[..., None]
    u_z = u_z / np.linalg.norm(u_z, axis=-1, keepdims=True)
    use_alt = np.abs(u_z[..., 0]) > COLINEAR_LIMIT
    r_ref = np.where(use_alt[..., None], _REF_Y, _REF_X)
    w = np.cross(u_z, r_ref)
    m = np.linalg.norm(w, axis=-1)
    u_x = w / (m + BASIS_EPS)[..., None]
    u_x = u_x / np.linalg.norm(u_x, axis=-1, keepdims=True)
    u_y = np.cross(u_z, u_x)
    frames = np.stack([u_x, u_y, u_z], axis=-1)
    return frames, {"n": n, "m": m, "u_x": u_x, "u_z": u_z, "r_ref": r_ref}


def kinematic_frames_backward(cache, d_frames, d_speed):
    """Chain gradients from a frame and from the speed |v| back to the
    velocity. The reference-direction branch is locally constant."""
    u_x, u_z = cache["u_x"], cache["u_z"]
    r_ref = cache["r_ref"]
    n, m = cache["n"], cache["m"]
    d_ux = d_frames[..., 0].copy()
    d_uy = d_frames[..., 1]
    d_uz = d_frames[..., 2].copy()
    # u_y = u_z x u_x
    d_uz += np.cross(u_x, d_uy)
    d_ux -= np.cross(u_z, d_uy)
    # u_x = w/|w| with w = u_z x r_ref
    d_w = (d_ux - np.sum(d_ux * u_x, axis=-1, keepdims=True) * u_x) / m[..., None]
    d_uz += np.cross(r_ref, d_w)
    # u_z = v/|v|
    d_v = (d_uz - np.sum(d_uz * u_z, axis=-1, keepdims=True) * u_z) / n[..., None]
    return d_v + u_z * d_speed[..., None]


def refine(U, cov_p, r_z, E, speed, d_scale, blur_dt, kappa, lambda_s):
    """Refine (N,3,3) predicted covariances cov_p in their motion frames U.

    r_z is the predicted rotation's principal axis, E the rotation residual
    (exp of the predicted d_rot), speed |v| and d_scale the log-scale
    residual, per row. Each frame's variances give per-axis scales; the
    motion axis grows by eta * speed * blur_dt with the alignment gate
    eta = max(|r_z . u_z|, sigmoid(kappa)). Returns the refined covariance
    (U E) diag(S)^2 (U E)^T, its scales S = exp(log s' + lambda_s d_scale),
    and the cache of refine_backward.
    """
    variances = np.einsum("nik,nij,njk->nk", U, cov_p, U)
    sig = np.sqrt(variances)
    u_z = U[:, :, 2]
    dot = np.sum(r_z * u_z, axis=1)
    gate_floor = sigmoid(kappa)
    eta = np.maximum(np.abs(dot), gate_floor)
    gate_open = np.abs(dot) > gate_floor
    blur_len = eta * speed * blur_dt
    s_prime = sig.copy()
    s_prime[:, 2] += blur_len
    ell = np.log(s_prime) + lambda_s * d_scale
    S_diag = np.exp(ell)
    R_kin = U @ E
    cov = covariance_from_matrix(R_kin, S_diag)
    cache = {"U": U, "cov_p": cov_p, "r_z": r_z, "E": E, "speed": speed,
             "blur_dt": blur_dt, "lambda_s": lambda_s, "sig": sig, "dot": dot,
             "eta": eta, "gate_open": gate_open, "s_prime": s_prime,
             "S_diag": S_diag, "R_kin": R_kin}
    return cov, S_diag, cache


def refine_backward(cache, d_cov, d_scales):
    """Backward of refine from the gradients of its covariance and of its
    scales. Returns (d_cov_p, d_U, d_r_z, d_E, d_speed, d_d_scale); the gate
    has zero subgradient on its floor."""
    U, E, S_diag = cache["U"], cache["E"], cache["S_diag"]
    blur_dt = cache["blur_dt"]
    d_Rkin, d_ell_from_cov = covariance_matrix_backward(cache["R_kin"], S_diag, d_cov)
    # d/d ell of exp(ell): one more factor of S_diag
    d_ell = d_ell_from_cov * S_diag + d_scales * S_diag
    d_d_scale = cache["lambda_s"] * d_ell
    d_sig = d_ell / cache["s_prime"]    # s' = sig, plus the blur on axis z
    d_blur = d_sig[:, 2]
    d_eta = d_blur * cache["speed"] * blur_dt
    d_speed = d_blur * cache["eta"] * blur_dt
    # eta = max(|dot|, floor): zero subgradient on the floor branch
    d_dot = np.where(cache["gate_open"], np.sign(cache["dot"]) * d_eta, 0.0)
    d_r_z = d_dot[:, None] * U[:, :, 2]
    d_uz_eta = d_dot[:, None] * cache["r_z"]
    d_vars = d_sig / (2.0 * cache["sig"])
    d_cov_p = np.einsum("nk,nik,njk->nij", d_vars, U, U)
    d_U = 2.0 * np.einsum("nk,nij,njk->nik", d_vars, cache["cov_p"], U)
    d_U += d_Rkin @ np.swapaxes(E, -1, -2)
    d_E = np.swapaxes(U, -1, -2) @ d_Rkin
    d_U[:, :, 2] += d_uz_eta
    return d_cov_p, d_U, d_r_z, d_E, d_speed, d_d_scale
