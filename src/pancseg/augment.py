"""Deterministic, seedable augmentation pipeline.

The preset family differs only in interpolation orders for the shared
spatial transform: ``da5`` uses tricubic for the image with one-hot-linear
labels, ``da5ord0`` nearest for both, and ``da5segord0`` tricubic for the
image with nearest labels.  Intensity transforms (blur, sharpen, simulated
low resolution, gamma, additive noise) touch only the image.

Randomness comes from a counter-based Philox generator keyed as
``(seed, transform_index)``, so each transform owns an independent stream:
adding or removing a transform never perturbs the draws of the others, and
outputs are bit-reproducible across platforms.  Within a stream the first
draw decides firing; remaining parameters are drawn in sorted name order
(spatial: rotation triple, then scale triple).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ConfigError, FormatError, ValidationError
from .geometry import (
    IMAGE_ORDERS,
    LABEL_ORDERS,
    PointSampler,
    float_result,
    resample_separable,
    sample_labels,
    sample_points,
    target_grid,
)
from .volume import Volume, check_same_grid, parse_float, parse_int, read_json_object

# Each transform's range keys: (required, optional).  Sharpen's sigma_mm
# defaults to 1.0 mm when absent.
TRANSFORM_PARAMS = {
    "spatial": (("rotation_rad", "scale"), ()),
    "blur": (("sigma_mm",), ()),
    "sharpen": (("strength",), ("sigma_mm",)),
    "lowres": (("factor",), ()),
    "gamma": (("gamma",), ()),
    "noise": (("sigma",), ()),
}

TRANSFORM_NAMES = tuple(TRANSFORM_PARAMS)

# Each range key's lowest allowed value and whether the value itself is
# allowed.  rotation_rad and strength take any finite value.
RANGE_FLOORS = {
    "scale": (0.0, False),
    "sigma_mm": (0.0, False),
    "gamma": (0.0, False),
    "factor": (1.0, True),
    "sigma": (0.0, True),
}

PRESET_ORDERS = {"da5": (3, 1), "da5ord0": (0, 0), "da5segord0": (3, 0)}

BLUR_TRUNCATE = 4.0

_MASK64 = (1 << 64) - 1

# Seeds key a Philox generator as one uint64 word.
SEED_RANGE = range(1 << 64)


def check_seed(seed: int, error=ConfigError, what: str = "seed") -> int:
    """``seed``, or ``error`` when it lies outside ``SEED_RANGE``."""
    if seed not in SEED_RANGE:
        raise error(f"{what} must be in 0..2**64 - 1, got {seed}")
    return seed


def _check_floor(name: str, key: str, value: float, error=ValidationError) -> None:
    """Raise ``error`` when ``value`` lies below the floor of range ``key``."""
    floor, inclusive = RANGE_FLOORS.get(key, (-math.inf, False))
    if not (value >= floor if inclusive else value > floor):
        raise error(f"{name}.{key} must be {'>=' if inclusive else '>'} {floor:g}, got {value}")


@dataclass(frozen=True)
class TransformSpec:
    """One pipeline stage: a name, a firing probability and parameter ranges."""

    name: str
    probability: float
    ranges: dict

    def __post_init__(self):
        if self.name not in TRANSFORM_NAMES:
            raise ConfigError(f"unknown transform {self.name!r}; known: {TRANSFORM_NAMES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        required, optional = TRANSFORM_PARAMS[self.name]
        missing = sorted(set(required) - set(self.ranges))
        unknown = sorted(set(self.ranges) - set(required) - set(optional))
        if missing or unknown:
            raise ConfigError(
                f"{self.name}: missing range(s) {missing}, unknown range(s) {unknown}; "
                f"takes {list(required + optional)}"
            )
        for key, (lo, hi) in self.ranges.items():
            if not (-math.inf < lo <= hi < math.inf):
                raise ConfigError(
                    f"{self.name}.{key}: range ({lo}, {hi}) must be finite and ordered"
                )
            _check_floor(self.name, key, lo, ConfigError)


@dataclass(frozen=True)
class AugmentPreset:
    name: str
    image_order: int = 3
    label_order: int = 1
    transforms: tuple[TransformSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.image_order not in IMAGE_ORDERS or self.label_order not in LABEL_ORDERS:
            raise ConfigError(
                f"order pair ({self.image_order}, {self.label_order}) is not supported"
            )
        fixed = PRESET_ORDERS.get(self.name)
        if fixed is not None and (self.image_order, self.label_order) != fixed:
            raise ConfigError(f"preset {self.name!r} fixes the order pair {fixed}")
        object.__setattr__(self, "transforms", tuple(self.transforms))
        check_seed(self.seed)


def _standard_transforms(p: float) -> tuple[TransformSpec, ...]:
    return (
        TransformSpec(
            "spatial",
            p,
            {"rotation_rad": (-math.pi / 6, math.pi / 6), "scale": (0.7, 1.4)},
        ),
        TransformSpec("blur", p, {"sigma_mm": (0.5, 1.5)}),
        TransformSpec("sharpen", p, {"sigma_mm": (1.0, 1.0), "strength": (0.5, 2.0)}),
        TransformSpec("lowres", p, {"factor": (1.0, 2.0)}),
        TransformSpec("gamma", p, {"gamma": (0.7, 1.5)}),
        TransformSpec("noise", p, {"sigma": (0.0, 0.1)}),
    )


def preset(name: str, seed: int = 0) -> AugmentPreset:
    """Build one of the named presets with its default ranges.

    The heavy-augmentation family fires each transform with probability 0.4;
    ``default`` keeps the (3, 1) orders at probability 0.2.  Ranges are
    conventions, not claims; override them via a preset file.
    """
    if name in PRESET_ORDERS:
        image_order, label_order = PRESET_ORDERS[name]
        transforms = _standard_transforms(0.4)
    elif name == "default":
        image_order, label_order = 3, 1
        transforms = _standard_transforms(0.2)
    else:
        raise ConfigError(f"unknown preset {name!r}")
    return AugmentPreset(
        name=name,
        image_order=image_order,
        label_order=label_order,
        transforms=transforms,
        seed=seed,
    )


def load_preset(path) -> AugmentPreset:
    """Read a preset from a JSON file.

    Either {"preset": "<named>", "seed": N} referencing a named preset, or a
    full description: {"name", "image_order", "label_order", "seed",
    "transforms": [{"name", "probability", "<param>": [lo, hi], ...}]}.
    """
    path = Path(path)
    doc = read_json_object(path, "preset file")
    try:
        seed = check_seed(parse_int(doc.get("seed", 0)), FormatError, f"preset file {path}: seed")
        if "preset" in doc:
            return preset(doc["preset"], seed=seed)
        image_order = parse_int(doc.get("image_order", 3))
        label_order = parse_int(doc.get("label_order", 1))
        entries = doc.get("transforms", [])
        if not isinstance(entries, list):
            raise FormatError(f"preset file {path}: 'transforms' must be a list")
        transforms = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise FormatError(f"preset file {path}: transform {i} must be an object")
            fields = dict(entry)
            name = fields.pop("name", None)
            if name is None:
                raise FormatError(f"preset file {path}: transform entry without a name")
            probability = parse_float(fields.pop("probability", 1.0))
            ranges = {}
            for key, pair in fields.items():
                if not isinstance(pair, list) or len(pair) != 2:
                    raise FormatError(
                        f"preset file {path}: {name}.{key} must be a [lo, hi] pair, got {pair!r}"
                    )
                ranges[key] = (parse_float(pair[0]), parse_float(pair[1]))
            transforms.append(TransformSpec(name=name, probability=probability, ranges=ranges))
        return AugmentPreset(
            name=doc.get("name", "custom"),
            image_order=image_order,
            label_order=label_order,
            transforms=tuple(transforms),
            seed=seed,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"preset file {path}: malformed value ({exc})") from exc


def _generator(seed: int, stream: int) -> np.random.Generator:
    # a uint64 array: a list of Python ints >= 2**63 would become float64
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rotation_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mx @ my @ mz


def _spatial_coords(dims, spacing, rotation, scale) -> np.ndarray:
    """Fractional source indices for every output voxel.

    The output voxel at physical offset p from the volume center samples the
    input at (R @ p) / scale: scale > 1 magnifies the object, and applying
    scale s then 1/s composes to the identity map.
    """
    rot = _rotation_matrix(*rotation)
    axes = [
        (np.arange(dims[ax], dtype=np.float64) - (dims[ax] - 1) / 2.0) * spacing[ax]
        for ax in range(3)
    ]
    coords = np.empty((3,) + tuple(dims), dtype=np.float64)
    for ax in range(3):
        phys = (
            (rot[ax, 0] * axes[0])[:, None, None]
            + (rot[ax, 1] * axes[1])[None, :, None]
            + (rot[ax, 2] * axes[2])[None, None, :]
        )
        coords[ax] = phys / (scale[ax] * spacing[ax]) + (dims[ax] - 1) / 2.0
    return coords


def spatial_transform(img: Volume, lab: Volume, rotation, scale, preset: AugmentPreset):
    """Rigid rotation plus per-axis scaling about the volume center.

    Image and labels traverse the identical coordinate map; only the sampling
    differs (image_order for the image, nearest or one-hot-linear argmax for
    labels).  Output grids equal input grids.
    """
    for s in scale:
        _check_floor("spatial", "scale", s)
    check_same_grid(img.grid, lab.grid, "image and label")

    coords = _spatial_coords(img.dims, img.spacing, rotation, scale)

    img_out = sample_points(img.data, coords, preset.image_order)
    lab_out = sample_labels(lab.data, preset.label_order, PointSampler(coords))
    return img.with_data(float_result(img_out, img.data.dtype)), lab.with_data(lab_out)


def _blur_data(data: np.ndarray, sigma_mm: float, spacing) -> np.ndarray:
    sigma_vox = [sigma_mm / s for s in spacing]
    return ndimage.gaussian_filter(
        data.astype(np.float64, copy=False), sigma=sigma_vox, truncate=BLUR_TRUNCATE, mode="nearest"
    )


def intensity_transform(img: Volume, kind: str, params: dict, seed: int = 0) -> Volume:
    """Apply one intensity-only transform to an image volume.

    blur: Gaussian with physical-units sigma (mm), separable, 4-sigma cutoff.
    sharpen: unsharp mask img + strength * (img - blur(img)).
    gamma: exponent on min-max-normalized intensities, then de-normalized.
    noise: additive Gaussian noise drawn from the seeded generator.
    """
    if img.kind != "image":
        raise ValidationError(f"intensity transforms expect an image volume, got {img.kind}")
    for key, value in params.items():
        _check_floor(kind, key, float(value))
    data = img.data.astype(np.float64, copy=False)
    if kind == "blur":
        out = _blur_data(data, float(params["sigma_mm"]), img.spacing)
    elif kind == "sharpen":
        sigma = float(params.get("sigma_mm", 1.0))
        strength = float(params["strength"])
        out = data + strength * (data - _blur_data(data, sigma, img.spacing))
    elif kind == "gamma":
        gamma = float(params["gamma"])
        lo = float(data.min())
        hi = float(data.max())
        if hi == lo:
            out = data.copy()
        else:
            out = ((data - lo) / (hi - lo)) ** gamma * (hi - lo) + lo
    elif kind == "noise":
        sigma = float(params["sigma"])
        g = _generator(seed, 0)
        out = data + sigma * g.standard_normal(data.shape)
    else:
        raise ConfigError(f"unknown intensity transform {kind!r}")
    return img.with_data(float_result(out, img.data.dtype))


def simulate_low_res(img: Volume, factor: float) -> Volume:
    """Nearest-neighbor downsample by ``factor``, tricubic upsample back."""
    if img.kind != "image":
        raise ValidationError(f"simulate_low_res expects an image volume, got {img.kind}")
    _check_floor("lowres", "factor", factor)
    small_dims = target_grid(img.dims, (1.0,) * 3, (factor,) * 3)
    # shape-ratio alignment: going from n to m voxels, center j maps to
    # (j + 0.5) * n/m - 0.5
    down = [d / s for d, s in zip(img.dims, small_dims)]
    up = [s / d for d, s in zip(img.dims, small_dims)]
    small = resample_separable(img.data, small_dims, down, 0)
    out = resample_separable(small, img.dims, up, 3)
    return img.with_data(float_result(out, img.data.dtype))


def apply_pipeline(img: Volume, lab: Volume, preset: AugmentPreset):
    """Run the preset's transforms in declared order.

    Transform i draws from stream (preset.seed, i): first the firing uniform,
    then its parameters.  Labels change only through the spatial stage.
    """
    for index, spec in enumerate(preset.transforms):
        g = _generator(preset.seed, index)
        if g.random() >= spec.probability:
            continue
        if spec.name == "spatial":
            lo, hi = spec.ranges["rotation_rad"]
            rotation = g.uniform(lo, hi, size=3)
            lo, hi = spec.ranges["scale"]
            scale = g.uniform(lo, hi, size=3)
            img, lab = spatial_transform(img, lab, rotation, scale, preset)
        elif spec.name == "lowres":
            lo, hi = spec.ranges["factor"]
            img = simulate_low_res(img, float(g.uniform(lo, hi)))
        else:
            params = {k: float(g.uniform(*spec.ranges[k])) for k in sorted(spec.ranges)}
            sub_seed = int(g.integers(0, 2**63)) if spec.name == "noise" else 0
            img = intensity_transform(img, spec.name, params, seed=sub_seed)
    return img, lab
