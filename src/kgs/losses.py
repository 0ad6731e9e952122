"""Training objective terms and image metrics.

The photometric loss mixes mean absolute error with structural dissimilarity
(11x11 Gaussian window, sigma 1.5, unit dynamic range, channels averaged).
The window is separable and zero-padded, so it is a product with a banded
(H, H) matrix on the left and a banded (W, W) one on the right. Offset and
anisotropy regularizers keep static regions still and splat aspect ratios
bounded. Every term has an exact analytic backward, validated against
central differences in the tests.
"""
from __future__ import annotations

import functools

import numpy as np

from .gaussians import InvalidInputError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
PSNR_CLAMP_DB = 99.0
# Keeps the anisotropy ratio finite for a vanishing smallest scale.
EPS_ANI = 1e-6


@functools.lru_cache(maxsize=None)
def _band(n):
    """The (n, n) matrix of the zero-padded 'same' 1-D Gaussian window:
    entry (i, k) is the tap at k - i. Symmetric, as the window is."""
    offsets = np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2
    taps = np.exp(-0.5 * (offsets / SSIM_SIGMA) ** 2)
    band = sum(np.eye(n, k=k) * w for k, w in zip(offsets, taps / taps.sum()))
    band.flags.writeable = False
    return band


def _blur(stack):
    """Window every (H, W) map of a (..., H, W) stack: band(H) @ map @ band(W).
    The bands are symmetric, so this is also the window's adjoint."""
    return _band(stack.shape[-2]) @ stack @ _band(stack.shape[-1])


def ssim(a, b):
    """Mean structural similarity of two HxWxC images in [0,1].

    Returns (value, cache); the cache feeds ssim_backward for d/da.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[..., None]
        b = b[..., None]
    # channel-first (C, H, W) maps; each blur call covers every channel
    x, y = (np.ascontiguousarray(np.moveaxis(v, -1, 0)) for v in (a, b))
    mu_x, mu_y, xx, yy, xy = (_blur(m) for m in (x, y, x * x, y * y, x * y))
    var_x = xx - mu_x**2
    var_y = yy - mu_y**2
    cov = xy - mu_x * mu_y
    a1 = 2 * mu_x * mu_y + SSIM_C1
    a2 = 2 * cov + SSIM_C2
    b1 = mu_x**2 + mu_y**2 + SSIM_C1
    b2 = var_x + var_y + SSIM_C2
    smap = (a1 * a2) / (b1 * b2)
    return float(np.mean([m.mean() for m in smap])), (x, y, mu_x, mu_y, a1, a2, b1, b2)


def ssim_backward(cache, d_value=1.0):
    """Gradient of ssim(a, b) with respect to the first image."""
    x, y, mu_x, mu_y, a1, a2, b1, b2 = cache
    scale = d_value / x.size
    denom = b1 * b2
    d_a1 = scale * a2 / denom
    d_a2 = scale * a1 / denom
    d_b1 = -scale * a1 * a2 / (b1 * denom)
    d_b2 = -scale * a1 * a2 / (b2 * denom)
    # a1, b1 depend on mu_x; a2 on cov; b2 on var_x
    d_mu = 2 * mu_y * d_a1 + 2 * mu_x * d_b1
    d_cov = 2 * d_a2
    d_var = d_b2
    # var_x = blur(x^2) - mu_x^2, cov = blur(x*y) - mu_x*mu_y
    d_xx = d_var
    d_xy = d_cov
    d_mu = d_mu - 2 * mu_x * d_var - mu_y * d_cov
    # adjoint of the zero-padded separable blur is the same blur
    b_mu, b_xx, b_xy = (_blur(m) for m in (d_mu, d_xx, d_xy))
    d_x = b_mu + b_xx * 2 * x + b_xy * y
    return np.ascontiguousarray(np.moveaxis(d_x, 0, -1))  # the image's (H, W, C) layout


def image_loss(img, gt, lambda_dssim=0.2):
    """(1-l)*mean|I-I_gt| + l*(1-SSIM). Returns (value, cache)."""
    img = np.asarray(img, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if img.shape != gt.shape:
        raise InvalidInputError(f"shape mismatch {img.shape} vs {gt.shape}")
    diff = img - gt
    l1 = np.mean(np.abs(diff))
    s, s_cache = ssim(img, gt)
    value = (1.0 - lambda_dssim) * l1 + lambda_dssim * (1.0 - s)
    return float(value), (diff, s_cache, lambda_dssim)


def image_loss_backward(cache, d_value=1.0):
    diff, s_cache, lambda_dssim = cache
    g = d_value * (1.0 - lambda_dssim) * np.sign(diff) / diff.size
    # ssim treats a grey (H, W) image as (H, W, 1)
    return g + ssim_backward(s_cache, -d_value * lambda_dssim).reshape(diff.shape)


def psnr(img, gt):
    """10*log10(1/MSE) on unit range, clamped to 99 dB."""
    img = np.asarray(img, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if img.shape != gt.shape:
        raise InvalidInputError(f"shape mismatch {img.shape} vs {gt.shape}")
    mse = np.mean((img - gt) ** 2)
    if mse <= 0.0:
        return PSNR_CLAMP_DB
    return float(min(10.0 * np.log10(1.0 / mse), PSNR_CLAMP_DB))


def reg_loss(dx, dynamic_mask):
    """Mean offset norm over the static set plus mean over the dynamic set."""
    dx = np.asarray(dx, dtype=float)
    norms = np.linalg.norm(dx, axis=1)
    value = 0.0
    for mask in (~dynamic_mask, dynamic_mask):
        if mask.any():
            value += norms[mask].mean()
    return float(value)


def reg_loss_backward(dx, dynamic_mask, d_value=1.0):
    dx = np.asarray(dx, dtype=float)
    norms = np.linalg.norm(dx, axis=1)
    grad = np.zeros_like(dx)
    for mask in (~dynamic_mask, dynamic_mask):
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        safe = np.where(norms > 0, norms, 1.0)
        rows = mask & (norms > 0)
        grad[rows] = (d_value / cnt) * dx[rows] / safe[rows, None]
    return grad


def ani_loss(scales):
    """Mean aspect ratio max(s)/(min(s)+EPS_ANI) over splats."""
    scales = np.asarray(scales, dtype=float)
    if np.any(scales <= 0):
        raise InvalidInputError("scales must be positive")
    return float(np.mean(scales.max(axis=1) / (scales.min(axis=1) + EPS_ANI)))


def ani_loss_backward(scales, d_value=1.0):
    scales = np.asarray(scales, dtype=float)
    n = scales.shape[0]
    i_max = scales.argmax(axis=1)
    i_min = scales.argmin(axis=1)
    smax = scales[np.arange(n), i_max]
    smin = scales[np.arange(n), i_min]
    grad = np.zeros_like(scales)
    denom = smin + EPS_ANI
    same = i_max == i_min
    grad[np.arange(n), i_max] += d_value / (n * denom)
    grad[np.arange(n), i_min] -= d_value * smax / (n * denom**2)
    if same.any():
        # isotropic splat: ratio is s/(s+eps), one combined derivative
        rows = np.where(same)[0]
        grad[rows, i_max[rows]] = d_value * EPS_ANI / (n * denom[rows] ** 2)
    return grad
