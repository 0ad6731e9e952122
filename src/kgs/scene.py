"""Scene container (struct-of-arrays over splats) and checkpoint I/O.

A checkpoint is an uncompressed ``np.savez`` archive: one entry per named
array, plus ``header``, a 0-d string array holding the JSON text
``{"version": VERSION, "meta": {...}}``. Each zip member carries a CRC-32,
so a damaged file fails to load; arrays load with pickling off.
``train.TrainState.named_arrays`` is the one list of a training state's
arrays: ``train.save_checkpoint`` writes it, and ``train.load_checkpoint``
checks a file against it for a fresh state of the file's dimensions.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .gaussians import InvalidInputError, quat_normalize

VERSION = 2

# The Scene arrays the optimizer updates; levels and importance are not.
SCENE_PARAMS = ("positions", "quaternions", "log_scales", "opacity_logits", "colors")


@dataclass
class Scene:
    """All per-splat optimization state, kept as parallel arrays."""

    positions: np.ndarray       # (N,3)
    quaternions: np.ndarray     # (N,4) unit, (w,x,y,z)
    log_scales: np.ndarray      # (N,3) unconstrained
    opacity_logits: np.ndarray  # (N,)
    colors: np.ndarray          # (N,3), clamped to [0,1] at render
    levels: np.ndarray          # (N,) int, >= 1
    importance: np.ndarray      # (N,) accumulated blend weights

    @property
    def n(self):
        return self.positions.shape[0]

    def per_gaussian_arrays(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def select(self, indices):
        """Keep only the given rows (in the given order)."""
        for name, arr in self.per_gaussian_arrays().items():
            setattr(self, name, arr[indices])

    def append_rows(self, parents, **replacements):
        """Append a copy of each parent row; a named replacement array
        stands in for that array's copied rows."""
        for name, arr in self.per_gaussian_arrays().items():
            setattr(self, name, np.concatenate([arr, replacements.get(name, arr[parents])]))

    def renormalize_rotations(self):
        self.quaternions = quat_normalize(self.quaternions)


def make_scene(positions, quaternions, log_scales, opacity_logits, colors, levels=None):
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if levels is None:
        levels = np.ones(n, dtype=np.int64)
    return Scene(positions=positions,
                 quaternions=quat_normalize(np.asarray(quaternions, dtype=float)),
                 log_scales=np.asarray(log_scales, dtype=float),
                 opacity_logits=np.asarray(opacity_logits, dtype=float),
                 colors=np.asarray(colors, dtype=float),
                 levels=np.asarray(levels, dtype=np.int64),
                 importance=np.zeros(n))


def random_scene(rng, count, bound, scale, opacity):
    """Uniform random initialization inside a centered cube, at level 1:
    count splats within bound of the origin on each axis, isotropic with
    scale, of opacity in (0, 1)."""
    from .gaussians import inverse_sigmoid
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise InvalidInputError(f"random_scene: count must be a non-negative integer, "
                                f"not {count!r}")
    for name, value, ok, want in (("bound", bound, 0.0 <= bound < np.inf, "finite and >= 0"),
                                  ("scale", scale, 0.0 < scale < np.inf, "finite and > 0"),
                                  ("opacity", opacity, 0.0 < opacity < 1.0, "in (0, 1)")):
        if not ok:
            raise InvalidInputError(f"random_scene: {name} must be {want}, not {value!r}")
    positions = rng.uniform(-bound, bound, (count, 3))
    quats = np.zeros((count, 4))
    quats[:, 0] = 1.0
    log_scales = np.full((count, 3), np.log(scale))
    logits = np.full(count, inverse_sigmoid(opacity))
    colors = np.full((count, 3), 0.5)
    return make_scene(positions, quats, log_scales, logits, colors)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def write_checkpoint(path, arrays: dict, meta: dict):
    """Write named arrays plus JSON-serializable metadata."""
    header = json.dumps({"version": VERSION, "meta": meta}, sort_keys=True)
    with open(path, "wb") as fh:  # a file object: np.savez would append .npz to a path
        np.savez(fh, header=np.array(header), **arrays)


def read_checkpoint(path):
    """Read back (arrays, meta) written by write_checkpoint."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            arrays = {name: archive[name] for name in archive.files if name != "header"}
    # TypeError: a plain .npy file loads as an array, not as an archive
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, TypeError) as err:
        raise InvalidInputError(f"unreadable checkpoint {path}: {err}") from err
    if header.get("version") != VERSION:
        raise InvalidInputError(
            f"unsupported checkpoint version {header.get('version')!r} in {path}")
    if "meta" not in header:
        raise InvalidInputError(f"checkpoint {path}: header has no entry 'meta'")
    return arrays, header["meta"]
