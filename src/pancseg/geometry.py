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
  At order 1 a point whose taps all hold one label takes that label, which
  is what the argmax gives it, so only the other points are scored.
- Order 0 gathers and keeps the dtype; orders 1 and 3 compute in float64 and
  hand back float64 for float64 input, float32 for any other dtype.

Grids and point maps share one home per rule: ``interp_taps`` (taps and
weights; ``linear_taps`` gives its order-1 taps alone, for the label rule's
tap bounds), ``sample_labels`` (label rule) and ``float_result`` (result
dtype).  A label map is laid out in C order before either path samples it.
One separable resampler, ``resample_separable``, serves both plan resampling
(centre ratio ``target_spacing / source_spacing`` per axis) and the low-res
simulation in ``augment`` (ratio ``source_dims / target_dims``).  Point maps
are sampled by ``sample_points`` in blocks of ``POINT_BLOCK`` points, so its
temporaries stay cache-sized whatever the number of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatchError
from .nifti import c_order
from .volume import Grid, Volume, check_same_grid, label_argmax, same_grid, unique_labels

IMAGE_ORDERS = (0, 1, 3)
LABEL_ORDERS = (0, 1)

# Largest grid target_grid derives: 2**30 voxels.  This bounds voxels, not
# bytes: measured with tracemalloc, order-3 resample_separable peaks at
# 19.5 bytes per target voxel for 2x upsampling per axis and 25 for 1.1x (a
# float64 accumulator and one term, 8 bytes each, plus the previous axis's
# output), so a grid at the cap needs about 20 GiB.  A 512x512x1000 CT
# resampled to 0.5 mm fits the cap; a mistyped spacing fails as a
# ConfigError before anything is allocated instead of as a MemoryError or a
# numpy size error.
MAX_TARGET_VOXELS = 2**30

# Points per block of sample_points: 128 KiB per float64 temporary, small
# enough to stay in cache (blocks of 32 k points and more are slower).
POINT_BLOCK = 1 << 14


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
            target_spacing=target_spacing,
            image_order=image_order,
            label_order=label_order,
            clamp_cubic=clamp_cubic,
        )

    def is_identity(self) -> bool:
        return same_grid(
            Grid(self.source_dims, self.source_spacing), Grid(self.target_dims, self.target_spacing)
        )


def interp_taps(c: np.ndarray, n: int, order: int):
    """Tap indices and kernel weights for source coordinates ``c``.

    Returns (taps, weights) with leading axis K = 1/2/4 for order 0/1/3.
    Taps are clipped into [0, n-1], which realizes edge clamping.  Every
    float64 beyond 2**52 is an integer, so clipping ``c`` to +-2**53 first
    keeps the int64 casts from wrapping and changes no tap or weight.
    """
    c = np.clip(np.asarray(c, dtype=np.float64), -(2.0**53), 2.0**53)
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


def linear_taps(c: np.ndarray, n: int) -> np.ndarray:
    """The taps of ``interp_taps(c, n, 1)``, without its weights."""
    base = np.floor(np.clip(np.asarray(c, dtype=np.float64), -(2.0**53), 2.0**53)).astype(np.int64)
    return np.clip(np.stack([base, base + 1]), 0, n - 1)


def _centres(part: slice, ratio: float) -> np.ndarray:
    """Source coordinates ``(j + 0.5) * ratio - 0.5`` of output indices ``part``."""
    return (np.arange(part.start, part.stop, dtype=np.float64) + 0.5) * ratio - 0.5


def resample_separable(data: np.ndarray, target_dims, ratios, order: int, window=None) -> np.ndarray:
    """Resample a 3D array onto ``target_dims``, one axis at a time.

    Output index ``j`` on axis ``ax`` samples source coordinate
    ``(j + 0.5) * ratios[ax] - 0.5`` with the kernels and edge clamping of
    ``interp_taps``.  Order 0 is a pure gather and keeps the dtype; orders 1
    and 3 compute in float64.  ``window``, one slice of output indices per
    axis, computes that box of the output only; each voxel has the bits it
    has in the whole output, as it depends on its own taps alone.  Only the
    source box that the taps reach is read.  Each axis accumulates its taps
    in place, in tap order (``term *= w``, ``acc += term``), gathering each
    term into one reused buffer, so an axis pass holds its input, the
    accumulator and one term.
    """
    box = window or tuple(slice(0, n) for n in target_dims)
    taps = [interp_taps(_centres(part, r), n, order) for part, r, n in zip(box, ratios, data.shape)]
    reach = tuple(slice(int(t.min()), int(t.max()) + 1) for t, _ in taps)
    out = data[reach]
    if order != 0:
        out = out.astype(np.float64, copy=False)
    for ax, ((t, weights), part) in enumerate(zip(taps, reach)):
        t = t - part.start
        if order == 0:
            out = np.take(out, t[0], axis=ax)
            continue
        wshape = [1, 1, 1]
        wshape[ax] = t.shape[1]
        acc = np.take(out, t[0], axis=ax)
        acc *= weights[0].reshape(wshape)
        term = np.empty_like(acc)
        for k in range(1, t.shape[0]):
            # the taps lie in range, so "clip" gathers them unbuffered
            np.take(out, t[k], axis=ax, out=term, mode="clip")
            term *= weights[k].reshape(wshape)
            acc += term
        del term  # before the next axis allocates its own
        out = acc
    return out


@dataclass(frozen=True)
class GridSampler:
    """The output grid of ``resample_separable`` as a sampler for
    ``sample_labels``: ``target_dims`` at centre ratios ``ratios``."""

    target_dims: tuple
    ratios: tuple

    def __call__(self, data: np.ndarray, order: int, window=None) -> np.ndarray:
        return resample_separable(data, self.target_dims, self.ratios, order, window)

    def tap_bounds(self, data: np.ndarray):
        """Per output voxel, the lowest and highest of its 8 order-1 taps:
        min and max are separable, so one axis at a time over 2 taps."""
        lo = hi = data
        for ax, (n, r) in enumerate(zip(self.target_dims, self.ratios)):
            t0, t1 = linear_taps(_centres(slice(0, n), r), data.shape[ax])
            lo = np.minimum(np.take(lo, t0, axis=ax), np.take(lo, t1, axis=ax))
            hi = np.maximum(np.take(hi, t0, axis=ax), np.take(hi, t1, axis=ax))
        return lo, hi

    def restrict(self, where: np.ndarray):
        """The bbox of the output voxels in ``where``, and a sampler of it."""
        box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(where))
        return box, lambda data, order: self(data, order, box)


def _plan_sampler(plan: ResamplePlan) -> GridSampler:
    ratios = tuple(t / s for s, t in zip(plan.source_spacing, plan.target_spacing))
    return GridSampler(plan.target_dims, ratios)


def float_result(out: np.ndarray, source_dtype) -> np.ndarray:
    """Samples in the dtype handed back: gathered ones already carry the source
    dtype, and float64 interpolation stays float64 only for float64 input."""
    return out if out.dtype == source_dtype else out.astype(np.float32)


def sample_labels(data: np.ndarray, order: int, sampler) -> np.ndarray:
    """The label rule of every sampler: order 0 gathers the labels; order 1
    samples each one-hot indicator trilinearly and decodes by argmax, ties to
    the lowest label.

    At order 1 a point whose 8 taps all hold one label L takes L without
    scoring: the weights are >= 0 and each axis's pair sums to more than 0, so
    L scores above 0 and every other label exactly +0.0.  The indicators are
    sampled only where the taps disagree.  ``sampler(array, order)`` maps one
    array onto the output points; ``sampler.tap_bounds(data)`` gives each
    point's lowest and highest tap label; ``sampler.restrict(where)`` gives an
    index covering the points in ``where`` and a sampler of just those.
    """
    data = c_order(data)  # both samplers flatten or gather it in C order
    if order == 0:
        return sampler(data, 0)
    out, hi = sampler.tap_bounds(data)
    unsettled = out != hi
    if unsettled.any():
        index, sub = sampler.restrict(unsettled)
        out[index] = label_argmax(
            unique_labels(data),
            lambda v: sub((data == v).astype(np.float64), 1),
            out[index].shape,
        )
    return out


def _on_target_grid(volume: Volume, plan: ResamplePlan, out: np.ndarray) -> Volume:
    per_axis = zip(volume.origin, plan.source_spacing, plan.target_spacing)
    origin = [o - 0.5 * s + 0.5 * t for o, s, t in per_axis]
    return Volume(out, plan.target_spacing, origin, kind=volume.kind)


def resample_image(volume: Volume, plan: ResamplePlan) -> Volume:
    """Resample a scalar image onto the plan's target grid.

    Order 0 is a pure gather and preserves dtype bit-exactly (the identity
    plan returns identical voxels); orders 1 and 3 compute in float64 and
    return float64 for float64 input, float32 otherwise.
    """
    if volume.kind != "image":
        raise GridMismatchError(f"resample_image expects an image volume, got {volume.kind}")
    check_same_grid(volume.grid, Grid(plan.source_dims, plan.source_spacing), "volume and plan")
    out = _plan_sampler(plan)(volume.data, plan.image_order)
    if plan.image_order == 3 and plan.clamp_cubic:
        out = np.clip(out, float(volume.data.min()), float(volume.data.max()))
    return _on_target_grid(volume, plan, float_result(out, volume.data.dtype))


def resample_labels(volume: Volume, plan: ResamplePlan) -> Volume:
    """Resample a label map; output labels always come from the input set."""
    if volume.kind != "labels":
        raise GridMismatchError(f"resample_labels expects a label volume, got {volume.kind}")
    check_same_grid(volume.grid, Grid(plan.source_dims, plan.source_spacing), "volume and plan")
    out = sample_labels(volume.data, plan.label_order, _plan_sampler(plan))
    return _on_target_grid(volume, plan, out)


def _point_taps(src: np.ndarray, shape, coords: np.ndarray, order: int):
    """(block, weight, values) for every tap of every block of up to
    ``POINT_BLOCK`` points of ``coords`` (3, N), taps in (a, b, k) order:
    ``values`` is gathered from the flat ``src`` at the linear index
    ``(i * ny + j) * nz + k``."""
    _, ny, nz = shape
    for start in range(0, coords.shape[1], POINT_BLOCK):
        block = slice(start, start + POINT_BLOCK)
        (t0, w0), (t1, w1), (t2, w2) = (interp_taps(c[block], n, order) for c, n in zip(coords, shape))
        for a in range(len(t0)):
            for b in range(len(t1)):
                wab = w0[a] * w1[b]
                row = (t0[a] * ny + t1[b]) * nz
                for k in range(len(t2)):
                    yield block, wab * w2[k], np.take(src, row + t2[k])


def sample_points(data: np.ndarray, coords: np.ndarray, order: int) -> np.ndarray:
    """Sample a 3D scalar array at fractional index coordinates.

    ``coords`` has shape ``(3,) + S``; the result has shape ``S``.  Uses the
    same kernels and edge clamping as grid resampling, so a separable grid
    resample and a point sample at the grid centers agree to rounding error.
    Order 0 preserves dtype; higher orders return float64.

    Points go in blocks of ``POINT_BLOCK``, each with its own taps, so every
    temporary is block-sized.  Each tap is one ``np.take`` from the flattened
    array; order 0 is the single unweighted tap.  Each point's value is
    independent of the blocking.
    """
    coords = np.asarray(coords, dtype=np.float64)
    flat = coords.reshape(3, -1)
    if order == 0:
        src, out = data.reshape(-1), np.empty(flat.shape[1], dtype=data.dtype)
    else:
        # accumulate from +0.0 in (a, b, k) order, so a zero region stays +0.0
        src, out = data.astype(np.float64, copy=False).reshape(-1), np.zeros(flat.shape[1])
    for block, weight, values in _point_taps(src, data.shape, flat, order):
        if order == 0:
            out[block] = values
        else:
            values *= weight
            out[block] += values
    return out.reshape(coords.shape[1:])


@dataclass(frozen=True)
class PointSampler:
    """A point map ``coords`` of shape (3,) + S as a sampler for
    ``sample_labels``."""

    coords: np.ndarray

    def __call__(self, data: np.ndarray, order: int) -> np.ndarray:
        return sample_points(data, self.coords, order)

    def tap_bounds(self, data: np.ndarray):
        """Per point, the lowest and highest of its 8 order-1 tap labels,
        block by block; the taps are gathered without their weights."""
        coords = self.coords.reshape(3, -1)
        src, (_, ny, nz) = data.reshape(-1), data.shape
        lo = np.empty(coords.shape[1], dtype=data.dtype)
        hi = np.empty_like(lo)
        for start in range(0, coords.shape[1], POINT_BLOCK):
            block = slice(start, start + POINT_BLOCK)
            t0, t1, t2 = (linear_taps(c[block], n) for c, n in zip(coords, data.shape))
            index = (t0[:, None, None] * ny + t1[None, :, None]) * nz + t2[None, None, :]
            values = np.take(src, index).reshape(8, -1)
            lo[block] = values.min(axis=0)
            hi[block] = values.max(axis=0)
        shape = self.coords.shape[1:]
        return lo.reshape(shape), hi.reshape(shape)

    def restrict(self, where: np.ndarray):
        """The points in ``where``, and a sampler of just those."""
        index = np.nonzero(where)
        return index, PointSampler(self.coords[(slice(None),) + index])
