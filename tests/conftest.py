from __future__ import annotations

import numpy as np
import pytest

from pancseg.volume import Volume


def random_spacing(rng, lo=0.5, hi=4.0):
    return tuple(float(s) for s in rng.uniform(lo, hi, size=3))


def random_mask(rng, dims, style="noise"):
    """Random non-empty boolean mask.

    ``noise`` draws uniform voxel noise; ``blob`` places an ellipsoid plus a
    few stray voxels, which keeps surfel counts moderate on larger grids.
    """
    dims = tuple(int(d) for d in dims)
    if style == "noise":
        bits = rng.random(dims) < rng.uniform(0.1, 0.9)
    else:
        centre = np.array([rng.uniform(0.2, 0.8) * (d - 1) for d in dims])
        radii = np.array([max(rng.uniform(0.1, 0.45) * d, 0.8) for d in dims])
        grid = np.indices(dims).astype(np.float64)
        dist = sum(((grid[a] - centre[a]) / radii[a]) ** 2 for a in range(3))
        bits = dist <= 1.0
        n_extra = int(rng.integers(0, 30))
        if n_extra:
            flat = rng.integers(0, bits.size, size=n_extra)
            bits.flat[flat] = True
    if not bits.any():
        bits.flat[int(rng.integers(0, bits.size))] = True
    return bits


def label_volume(bits, spacing, label=2):
    data = np.where(np.asarray(bits, bool), np.int32(label), np.int32(0))
    return Volume(data, spacing, kind="labels")


def image_volume(rng, dims, spacing, dtype=np.float32):
    data = rng.normal(size=tuple(int(d) for d in dims)).astype(dtype)
    return Volume(data, spacing, kind="image")


def probability_volume(rng, dims, spacing, n_classes=3):
    raw = rng.random(tuple(int(d) for d in dims) + (n_classes,))
    probs = raw / raw.sum(axis=-1, keepdims=True)
    return Volume(probs.astype(np.float32), spacing, kind="probabilities")


def damaged_gzip(raw: bytes, defect: str) -> bytes:
    """A gzip stream cut in half ("truncated"), or with 40 bytes of its
    deflate data flipped ("corrupted")."""
    mid = len(raw) // 2
    if defect == "truncated":
        return raw[:mid]
    return raw[:mid] + bytes(b ^ 0xFF for b in raw[mid : mid + 40]) + raw[mid + 40 :]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
