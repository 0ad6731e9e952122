"""The benchmark's own reference renderer and blur oracle.

Nothing here comes from ``kgs.renderer``: the projection, the compositor and
the oracle scene are written out again so that the benchmark can check the
program's images against a separate computation. Only the compositing
constants are shared, taken from ``kgs.gaussians`` so both sides agree on
what a splat's footprint and cutoff are.

The compositor walks the splats front to back, each one updating the pixels
inside the exact bounding box of its footprint ellipse. Per pixel this is the
same rule as the program's: skip a splat outside its Mahalanobis footprint,
clamp alpha to ``ALPHA_MAX``, and stop blending once the remaining
transmittance falls below ``TRANSMITTANCE_CUTOFF``.
"""
from __future__ import annotations

import numpy as np

from kgs.gaussians import (
    ALPHA_MAX,
    COV2D_DILATION,
    FOOTPRINT_CHI2,
    TRANSMITTANCE_CUTOFF,
)


def quat_to_rotmat(q):
    """(N,4) quaternions (w,x,y,z), normalized first -> (N,3,3) rotations."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def rotz_quat(angle):
    """Quaternions of rotations by `angle` about the world z axis."""
    angle = np.asarray(angle, dtype=float)
    z = np.zeros_like(angle)
    return np.stack([np.cos(0.5 * angle), z, z, np.sin(0.5 * angle)], axis=-1)


def covariances(quats, scales):
    """R diag(s)^2 R^T for every splat."""
    R = quat_to_rotmat(quats)
    return (R * np.asarray(scales, dtype=float)[:, None, :] ** 2) @ np.swapaxes(R, 1, 2)


def project(positions, cov3, cam, dilation=COV2D_DILATION):
    """Pinhole projection with the local affine Jacobian of the perspective
    map (EWA splatting) and the anti-alias dilation on the 2-D diagonal.

    Returns (mean2d, cov2d, depth, valid); rows with valid False lie in
    front of the near plane and must not be drawn.
    """
    p = np.asarray(positions, dtype=float) @ cam.rotation.T + cam.translation
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    valid = z >= cam.near
    z = np.where(valid, z, 1.0)
    J = np.zeros((p.shape[0], 2, 3))
    J[:, 0, 0] = cam.fx / z
    J[:, 0, 2] = -cam.fx * x / (z * z)
    J[:, 1, 1] = cam.fy / z
    J[:, 1, 2] = -cam.fy * y / (z * z)
    M = J @ cam.rotation
    cov2d = M @ cov3 @ np.swapaxes(M, 1, 2)
    cov2d = 0.5 * (cov2d + np.swapaxes(cov2d, 1, 2))
    cov2d[:, 0, 0] += dilation
    cov2d[:, 1, 1] += dilation
    mean2d = np.stack([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy], axis=-1)
    return mean2d, cov2d, p[:, 2], valid


def composite(mean2d, cov2d, depth, valid, opacities, colors, width, height,
              background):
    """Front-to-back alpha compositing, one splat at a time in depth order.

    Returns the (height, width, 3) image clipped to [0, 1].
    """
    colors = np.clip(np.asarray(colors, dtype=float), 0.0, 1.0)
    opacities = np.asarray(opacities, dtype=float)
    acc = np.zeros((height, width, 3))
    T = np.ones((height, width))
    r = np.sqrt(FOOTPRINT_CHI2)
    order = np.argsort(depth, kind="stable")
    for i in order[valid[order]]:
        mx, my = mean2d[i]
        sxx, sxy, syy = cov2d[i, 0, 0], cov2d[i, 0, 1], cov2d[i, 1, 1]
        hx, hy = r * np.sqrt(sxx), r * np.sqrt(syy)
        # pixel centres sit at integer + 0.5; one pixel of slack either side
        x0 = max(int(np.floor(mx - hx - 0.5)), 0)
        x1 = min(int(np.ceil(mx + hx - 0.5)) + 1, width)
        y0 = max(int(np.floor(my - hy - 0.5)), 0)
        y1 = min(int(np.ceil(my + hy - 0.5)) + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        det = sxx * syy - sxy * sxy
        a, b, c = syy / det, -sxy / det, sxx / det
        dx = (np.arange(x0, x1) + 0.5 - mx)[None, :]
        dy = (np.arange(y0, y1) + 0.5 - my)[:, None]
        q = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
        t_box = T[y0:y1, x0:x1]
        alpha = np.where(q <= FOOTPRINT_CHI2,
                         np.minimum(opacities[i] * np.exp(-0.5 * q), ALPHA_MAX), 0.0)
        alpha = np.where(t_box >= TRANSMITTANCE_CUTOFF, alpha, 0.0)
        acc[y0:y1, x0:x1] += (t_box * alpha)[..., None] * colors[i]
        T[y0:y1, x0:x1] = t_box * (1.0 - alpha)
    image = acc + T[..., None] * np.asarray(background, dtype=float)
    return np.clip(image, 0.0, 1.0)


def render(splats, cam, background):
    """Sharp render of a dict of world-space splats (positions, quats,
    scales, opacities, colors)."""
    cov3 = covariances(splats["quats"], splats["scales"])
    mean2d, cov2d, depth, valid = project(splats["positions"], cov3, cam)
    return composite(mean2d, cov2d, depth, valid, splats["opacities"],
                     splats["colors"], cam.width, cam.height, background)


# ---------------------------------------------------------------------------
# blur oracle: a static backdrop and a bar that moves rigidly and bends
# ---------------------------------------------------------------------------

def make_oracle(rng, backdrop_side=10, bar_splats=24):
    """Scene description for the blur oracle, drawn from `rng`.

    The backdrop is a grid of flat splats on the plane z = 0.9, with a fixed
    colour ramp and orientation pattern that the seed jitters; the bar lies
    along x near z = 0 and its motion (translation, turn and bend) has a
    seed-dependent amplitude within fixed ranges.
    """
    g = (np.arange(backdrop_side) + 0.5) / backdrop_side * 2.4 - 1.2
    gx, gy = np.meshgrid(g, g)
    nb = gx.size
    cell = 2.4 / backdrop_side
    back_pos = np.stack([gx.ravel(), gy.ravel(), np.full(nb, 0.9)], axis=1)
    back_pos[:, :2] += rng.uniform(-0.1, 0.1, (nb, 2)) * cell
    back_ang = 0.25 * np.pi * (np.arange(nb) % 4) + rng.uniform(-0.2, 0.2, nb)
    # a fixed colour gradient across the backdrop, jittered per splat
    ramp = np.column_stack([gx.ravel(), gy.ravel(), -0.5 * (gx + gy).ravel()]) / 1.2
    back_col = 0.5 + 0.25 * ramp + rng.uniform(-0.05, 0.05, (nb, 3))
    u = np.linspace(-0.5, 0.5, bar_splats)
    return {
        "back_pos": back_pos,
        "back_quat": rotz_quat(back_ang),
        "back_scale": np.column_stack([np.full(nb, 0.45 * cell),
                                       np.full(nb, 0.3 * cell), np.full(nb, 0.02)]),
        "back_col": back_col,
        "bar_u": u,
        "bar_col": np.clip(np.array([0.95, 0.55, 0.1]) + rng.uniform(-0.05, 0.05, 3)
                           + 0.2 * np.outer(u, [0.0, 1.0, 0.0]), 0.0, 1.0),
        "motion": np.array([rng.uniform(0.8, 0.9), rng.uniform(-0.05, 0.05),
                            rng.uniform(0.6, 0.8), rng.uniform(0.8, 1.0)]),
    }


def oracle_splats(oracle, t):
    """World-space splats of the oracle scene at time t in [0, 1]."""
    sweep, lift, turn, bend = oracle["motion"]
    u = oracle["bar_u"]
    s = t - 0.5
    centre = np.array([sweep * s, lift + 0.2 * s * s, 0.0])
    theta = turn * s
    curv = bend * np.sin(np.pi * t)
    # bent bar in its own frame: y = curv * u^2, tangent angle atan(2 curv u)
    local = np.stack([u, curv * u * u, np.zeros_like(u)], axis=1)
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]])
    bar_pos = local @ rot.T + centre
    bar_ang = theta + np.arctan(2.0 * curv * u)
    m = u.size
    bar_scale = np.column_stack([np.full(m, 0.03), np.full(m, 0.05), np.full(m, 0.05)])
    nb = oracle["back_pos"].shape[0]
    return {
        "positions": np.concatenate([oracle["back_pos"], bar_pos]),
        "quats": np.concatenate([oracle["back_quat"], rotz_quat(bar_ang)]),
        "scales": np.concatenate([oracle["back_scale"], bar_scale]),
        "opacities": np.concatenate([np.full(nb, 0.95), np.full(m, 0.9)]),
        "colors": np.concatenate([oracle["back_col"], oracle["bar_col"]]),
    }


def exposure_times(t, dt, k):
    """K sub-frame times spread evenly across the exposure [t-dt/2, t+dt/2]."""
    return t + dt * ((np.arange(k) + 0.5) / k - 0.5)


def blurred_frame(oracle, cam, t, dt, k, background):
    """Temporal-integration blur: the mean of K sharp renders across the
    exposure window centred on t."""
    frames = [render(oracle_splats(oracle, tau), cam, background)
              for tau in exposure_times(t, dt, k)]
    return np.mean(frames, axis=0)
