"""Grid resampling between voxel spacings.

Conventions, fixed so that independent implementations can agree exactly:

- Voxel-center (pixel-as-area) alignment.  The center of output voxel ``j``
  lies at ``corner + (j + 0.5) * target_spacing`` where ``corner`` is the
  physical edge of the volume; in source index space that is
  ``c = (j + 0.5) * target_spacing / source_spacing - 0.5``.
- Target dims use round-half-away-from-zero of
  ``source_dims * source_spacing / target_spacing``, floor-clamped to 1.
- Out-of-bounds samples clamp to the edge voxel (no mirror or zero padding).
- Tricubic kernel is Catmull-Rom (a = -0.5); trilinear and nearest as usual.
  Nearest rounds half up, ``floor(c + 0.5)``.
- Label maps resample either nearest (order 0) or by trilinear interpolation
  of one-hot indicators with argmax decoding, ties to the lowest label id
  (order 1).  Either way the output label set is a subset of the input's.
- Order 0 gathers and keeps the dtype; orders 1 and 3 compute in float64 and
  hand back float64 for float64 input, float32 for any other dtype.

Grids and point maps share one home per rule: ``interp_taps`` (taps and
weights), ``sample_labels`` (label rule) and ``float_result`` (result dtype).
One separable resampler, ``resample_separable``, serves both plan resampling
(centre ratio ``target_spacing / source_spacing`` per axis) and the low-res
simulation in ``augment`` (ratio ``source_dims / target_dims``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatchError
from .volume import Volume, check_same_grid, label_argmax, same_grid, unique_labels

IMAGE_ORDERS = (0, 1, 3)
LABEL_ORDERS = (0, 1)

# Largest grid target_grid derives: 2**30 voxels, 8 GiB as the float64 that
# interpolation computes in.  A 512x512x1000 CT resampled to 0.5 mm fits; a
# mistyped spacing fails as a ConfigError before anything is allocated
# instead of as a MemoryError or a numpy size error.
MAX_TARGET_VOXELS = 2**30


def target_grid(source_dims, source_spacing, target_spacing) -> tuple[int, int, int]:
    """Output dims for a spacing change, round-half-away-from-zero, min 1.

    Raises ConfigError when they hold more than ``MAX_TARGET_VOXELS``.
    """
    if not all(0 < s < math.inf for s in (*source_spacing, *target_spacing)):
        raise ConfigError("spacings must be positive and finite")
    if any(d < 1 for d in source_dims):
        raise ConfigError("dims must be >= 1")
    # the cap leaves every in-budget axis unchanged and keeps an overflowing
    # ratio (inf) out of math.floor; a capped axis alone exceeds the budget
    dims = tuple(
        max(1, math.floor(min(d * s / t, MAX_TARGET_VOXELS + 1) + 0.5))
        for d, s, t in zip(source_dims, source_spacing, target_spacing)
    )
    if math.prod(dims) > MAX_TARGET_VOXELS:
        raise ConfigError(
            f"spacing {tuple(target_spacing)} turns {tuple(source_dims)} voxels at "
            f"{tuple(source_spacing)} into more than {MAX_TARGET_VOXELS} voxels"
        )
    return dims


@dataclass(frozen=True)
class ResamplePlan:
    """A resampling recipe from one regular grid to another.

    ``target_dims`` is always derived from the other fields.  Order pairs
    correspond to the named interpolation variants: (3, 1) cubic image with
    one-hot-linear labels, (0, 0) nearest for both, (3, 0) cubic image with
    nearest labels.
    """

    source_dims: tuple[int, int, int]
    source_spacing: tuple[float, float, float]
    target_spacing: tuple[float, float, float]
    image_order: int = 3
    label_order: int = 1
    clamp_cubic: bool = False
    target_dims: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "source_dims", tuple(int(d) for d in self.source_dims))
        object.__setattr__(
            self, "source_spacing", tuple(float(s) for s in self.source_spacing)
        )
        object.__setattr__(
            self, "target_spacing", tuple(float(s) for s in self.target_spacing)
        )
        if self.image_order not in IMAGE_ORDERS:
            raise ConfigError(f"image_order must be one of {IMAGE_ORDERS}, got {self.image_order}")
        if self.label_order not in LABEL_ORDERS:
            raise ConfigError(f"label_order must be one of {LABEL_ORDERS}, got {self.label_order}")
        dims = target_grid(self.source_dims, self.source_spacing, self.target_spacing)
        object.__setattr__(self, "target_dims", dims)

    @classmethod
    def for_volume(
        cls,
        volume: Volume,
        target_spacing,
        image_order: int = 3,
        label_order: int = 1,
        clamp_cubic: bool = False,
    ) -> "ResamplePlan":
        return cls(
            source_dims=volume.dims,
            source_spacing=volume.spacing,
            target_spacing=tuple(float(s) for s in target_spacing),
            image_order=image_order,
            label_order=label_order,
            clamp_cubic=clamp_cubic,
        )

    def is_identity(self) -> bool:
        return same_grid(
            (self.source_dims, self.source_spacing), (self.target_dims, self.target_spacing)
        )


def interp_taps(c: np.ndarray, n: int, order: int):
    """Tap indices and kernel weights for source coordinates ``c``.

    Returns (taps, weights) with leading axis K = 1/2/4 for order 0/1/3.
    Taps are clipped into [0, n-1], which realizes edge clamping.
    """
    c = np.asarray(c, dtype=np.float64)
    if order == 0:
        idx = np.clip(np.floor(c + 0.5).astype(np.int64), 0, n - 1)
        return idx[np.newaxis], np.ones((1,) + c.shape)
    base = np.floor(c).astype(np.int64)
    t = c - base
    if order == 1:
        taps = np.stack([base, base + 1])
        weights = np.stack([1.0 - t, t])
    elif order == 3:
        # Catmull-Rom, a = -0.5
        w_m1 = ((-0.5 * t + 1.0) * t - 0.5) * t
        w_0 = (1.5 * t - 2.5) * t * t + 1.0
        w_p1 = ((-1.5 * t + 2.0) * t + 0.5) * t
        w_p2 = (0.5 * t - 0.5) * t * t
        taps = np.stack([base - 1, base, base + 1, base + 2])
        weights = np.stack([w_m1, w_0, w_p1, w_p2])
    else:
        raise ConfigError(f"unsupported interpolation order {order}")
    return np.clip(taps, 0, n - 1), weights


def resample_separable(data: np.ndarray, target_dims, ratios, order: int) -> np.ndarray:
    """Resample a 3D array onto ``target_dims``, one axis at a time.

    Output index ``j`` on axis ``ax`` samples source coordinate
    ``(j + 0.5) * ratios[ax] - 0.5`` with the kernels and edge clamping of
    ``interp_taps``.  Order 0 is a pure gather and keeps the dtype; orders 1
    and 3 compute in float64.
    """
    out = data if order == 0 else data.astype(np.float64, copy=False)
    for ax in range(3):
        c = (np.arange(target_dims[ax], dtype=np.float64) + 0.5) * ratios[ax] - 0.5
        taps, weights = interp_taps(c, out.shape[ax], order)
        if order == 0:
            out = np.take(out, taps[0], axis=ax)
            continue
        acc = None
        wshape = [1, 1, 1]
        wshape[ax] = len(c)
        for k in range(taps.shape[0]):
            term = np.take(out, taps[k], axis=ax) * weights[k].reshape(wshape)
            acc = term if acc is None else acc + term
        out = acc
    return out


def _apply_plan(data: np.ndarray, plan: ResamplePlan, order: int) -> np.ndarray:
    ratios = [t / s for s, t in zip(plan.source_spacing, plan.target_spacing)]
    return resample_separable(data, plan.target_dims, ratios, order)


def float_result(out: np.ndarray, source_dtype) -> np.ndarray:
    """Samples in the dtype handed back: gathered ones already carry the source
    dtype, and float64 interpolation stays float64 only for float64 input."""
    return out if out.dtype == source_dtype else out.astype(np.float32)


def sample_labels(data: np.ndarray, order: int, sample, shape) -> np.ndarray:
    """The label rule of every sampler: order 0 gathers the labels; order 1
    samples each one-hot indicator trilinearly and decodes by argmax, ties to
    the lowest label.  ``sample(array, order)`` maps one array onto the
    output points, of shape ``shape``."""
    if order == 0:
        return sample(data, 0)
    return label_argmax(
        unique_labels(data), lambda v: sample((data == v).astype(np.float64), 1), shape
    )


def _on_target_grid(volume: Volume, plan: ResamplePlan, out: np.ndarray) -> Volume:
    origin = tuple(
        o - 0.5 * s + 0.5 * t
        for o, s, t in zip(volume.origin, plan.source_spacing, plan.target_spacing)
    )
    return Volume(
        data=out,
        spacing=plan.target_spacing,
        origin=origin,
        kind=volume.kind,
    )


def resample_image(volume: Volume, plan: ResamplePlan) -> Volume:
    """Resample a scalar image onto the plan's target grid.

    Order 0 is a pure gather and preserves dtype bit-exactly (the identity
    plan returns identical voxels); orders 1 and 3 compute in float64 and
    return float64 for float64 input, float32 otherwise.
    """
    if volume.kind != "image":
        raise GridMismatchError(f"resample_image expects an image volume, got {volume.kind}")
    check_same_grid(
        (volume.dims, volume.spacing), (plan.source_dims, plan.source_spacing), "volume and plan"
    )
    out = _apply_plan(volume.data, plan, plan.image_order)
    if plan.image_order == 3 and plan.clamp_cubic:
        out = np.clip(out, float(volume.data.min()), float(volume.data.max()))
    return _on_target_grid(volume, plan, float_result(out, volume.data.dtype))


def resample_labels(volume: Volume, plan: ResamplePlan) -> Volume:
    """Resample a label map; output labels always come from the input set."""
    if volume.kind != "labels":
        raise GridMismatchError(f"resample_labels expects a label volume, got {volume.kind}")
    check_same_grid(
        (volume.dims, volume.spacing), (plan.source_dims, plan.source_spacing), "volume and plan"
    )
    out = sample_labels(
        volume.data, plan.label_order, lambda d, o: _apply_plan(d, plan, o), plan.target_dims
    )
    return _on_target_grid(volume, plan, out)


def sample_points(data: np.ndarray, coords: np.ndarray, order: int) -> np.ndarray:
    """Sample a 3D scalar array at fractional index coordinates.

    ``coords`` has shape ``(3,) + S``; the result has shape ``S``.  Uses the
    same kernels and edge clamping as grid resampling, so a separable grid
    resample and a point sample at the grid centers agree to rounding error.
    Order 0 preserves dtype; higher orders return float64.

    Each tap is one ``np.take`` from the flattened array at the linear index
    ``(i * ny + j) * nz + k``; order 0 is the single unweighted tap.
    """
    coords = np.asarray(coords, dtype=np.float64)
    _, ny, nz = data.shape
    (t0, w0), (t1, w1), (t2, w2) = (interp_taps(c, n, order) for c, n in zip(coords, data.shape))
    if order == 0:
        return np.take(data.reshape(-1), (t0[0] * ny + t1[0]) * nz + t2[0])
    src = data.astype(np.float64, copy=False).reshape(-1)
    # accumulate from +0.0 in (a, b, k) order, so a zero region stays +0.0
    out = np.zeros(coords.shape[1:], dtype=np.float64)
    for a in range(len(t0)):
        for b in range(len(t1)):
            wab = w0[a] * w1[b]
            row = (t0[a] * ny + t1[b]) * nz
            for k in range(len(t2)):
                out += (wab * w2[k]) * np.take(src, row + t2[k])
    return out
