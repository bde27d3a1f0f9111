from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from pancseg.augment import (
    TRANSFORM_NAMES,
    TRANSFORM_PARAMS,
    AugmentPreset,
    TransformSpec,
    _generator,
    apply_pipeline,
    intensity_transform,
    load_preset,
    preset,
    simulate_low_res,
    spatial_transform,
)
from pancseg.errors import ConfigError, FormatError, GridMismatchError, ValidationError
from pancseg.volume import Volume

from conftest import image_volume, label_volume, random_mask


def _pair(rng, dims=(9, 9, 9), spacing=(1.0, 1.0, 1.0)):
    img = image_volume(rng, dims, spacing)
    lab = label_volume(random_mask(rng, dims), spacing)
    return img, lab


def test_named_presets_fix_their_orders():
    assert (preset("da5").image_order, preset("da5").label_order) == (3, 1)
    assert (preset("da5ord0").image_order, preset("da5ord0").label_order) == (0, 0)
    assert (preset("da5segord0").image_order, preset("da5segord0").label_order) == (3, 0)
    assert (preset("default").image_order, preset("default").label_order) == (3, 1)
    assert all(t.probability == 0.4 for t in preset("da5").transforms)
    assert all(t.probability == 0.2 for t in preset("default").transforms)
    with pytest.raises(ConfigError):
        preset("da6")
    with pytest.raises(ConfigError):
        AugmentPreset(name="da5ord0", image_order=3, label_order=1)


def test_transform_spec_validation():
    with pytest.raises(ConfigError):
        TransformSpec("warp", 0.5, {})
    with pytest.raises(ConfigError):
        TransformSpec("blur", 1.5, {"sigma_mm": (0.5, 1.0)})
    for bad in ((1.5, 0.5), (float("nan"), 1.2), (0.5, float("inf"))):
        with pytest.raises(ConfigError):
            TransformSpec("blur", 0.5, {"sigma_mm": bad})
    # each transform takes exactly its own range names
    assert TRANSFORM_NAMES == tuple(TRANSFORM_PARAMS)
    with pytest.raises(ConfigError, match="missing range"):
        TransformSpec("spatial", 1.0, {"scale": (0.9, 1.1)})
    with pytest.raises(ConfigError, match="'gama'"):
        TransformSpec("gamma", 1.0, {"gama": (0.7, 1.5)})
    # sharpen's sigma_mm is optional and defaults to 1 mm
    TransformSpec("sharpen", 1.0, {"strength": (0.5, 2.0)})
    for t in preset("da5").transforms:
        required, optional = TRANSFORM_PARAMS[t.name]
        assert set(required) <= set(t.ranges) <= set(required + optional)


def test_load_preset_files(tmp_path):
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"preset": "da5ord0", "seed": 7}))
    p = load_preset(named)
    assert p.name == "da5ord0"
    assert p.seed == 7
    assert (p.image_order, p.label_order) == (0, 0)

    custom = tmp_path / "custom.json"
    custom.write_text(
        json.dumps(
            {
                "name": "mild",
                "image_order": 1,
                "label_order": 0,
                "seed": 3,
                "transforms": [
                    {"name": "blur", "probability": 0.5, "sigma_mm": [0.4, 0.8]},
                    {"name": "noise", "probability": 1.0, "sigma": [0.05, 0.05]},
                ],
            }
        )
    )
    p = load_preset(custom)
    assert p.name == "mild"
    assert [t.name for t in p.transforms] == ["blur", "noise"]
    assert p.transforms[0].ranges == {"sigma_mm": (0.4, 0.8)}

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(FormatError):
        load_preset(broken)

    nameless = tmp_path / "nameless.json"
    nameless.write_text(json.dumps({"transforms": [{"probability": 0.5}]}))
    with pytest.raises(FormatError):
        load_preset(nameless)


def test_spatial_identity_is_bit_exact(rng):
    img, lab = _pair(rng)
    p = preset("da5ord0")
    out_img, out_lab = spatial_transform(img, lab, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), p)
    assert np.array_equal(out_img.data, img.data)
    assert out_img.data.dtype == img.data.dtype
    assert np.array_equal(out_lab.data, lab.data)


def test_spatial_quarter_turn_permutes_voxels(rng):
    n = 7
    img, lab = _pair(rng, dims=(n, n, n))
    p = preset("da5ord0")
    out_img, out_lab = spatial_transform(
        img, lab, (math.pi / 2, 0.0, 0.0), (1.0, 1.0, 1.0), p
    )
    # rotating the sampling grid 90° about x pulls voxel (i, n-1-k, j)
    # into output position (i, j, k)
    expected_img = np.empty_like(img.data)
    expected_lab = np.empty_like(lab.data)
    for j in range(n):
        for k in range(n):
            expected_img[:, j, k] = img.data[:, n - 1 - k, j]
            expected_lab[:, j, k] = lab.data[:, n - 1 - k, j]
    assert np.array_equal(out_img.data, expected_img)
    assert np.array_equal(out_lab.data, expected_lab)


def test_spatial_scale_round_trip(rng):
    # magnify by 2 then shrink by 2: the shrink pass re-reads only cleanly
    # interpolated voxels, so everything outside the clamped 2-voxel border
    # band comes back to the original
    n = 9
    data = rng.normal(size=(n, n, n))
    img = Volume(data, (1.0, 1.0, 1.0))
    lab = label_volume(np.zeros((n, n, n), dtype=bool), (1.0, 1.0, 1.0))
    p = AugmentPreset(name="roundtrip", image_order=1, label_order=0)
    once, lab = spatial_transform(img, lab, (0, 0, 0), (2.0, 2.0, 2.0), p)
    back, _ = spatial_transform(once, lab, (0, 0, 0), (0.5, 0.5, 0.5), p)
    inner = (slice(2, -2),) * 3
    assert np.max(np.abs(back.data[inner] - data[inner])) < 1e-3


def test_spatial_transform_validation(rng):
    img, lab = _pair(rng)
    p = preset("da5")
    with pytest.raises(ValidationError):
        spatial_transform(img, lab, (0, 0, 0), (0.0, 1.0, 1.0), p)
    with pytest.raises(ValidationError):
        spatial_transform(img, lab, (0, 0, 0), (1.0, -0.5, 1.0), p)
    other = label_volume(random_mask(rng, (8, 9, 9)), (1, 1, 1))
    with pytest.raises(GridMismatchError):
        spatial_transform(img, other, (0, 0, 0), (1, 1, 1), p)


def test_spatial_labels_never_leave_input_set(rng):
    for order_pair in ((3, 1), (0, 0), (3, 0)):
        img, lab = _pair(rng, dims=(8, 7, 9))
        p = AugmentPreset(name="free", image_order=order_pair[0], label_order=order_pair[1])
        rotation = rng.uniform(-math.pi / 6, math.pi / 6, size=3)
        scale = rng.uniform(0.7, 1.4, size=3)
        _, out = spatial_transform(img, lab, rotation, scale, p)
        assert set(np.unique(out.data)) <= set(np.unique(lab.data))
        assert out.data.dtype == lab.data.dtype


def test_image_and_label_paths_share_the_coordinate_map(rng):
    # an indicator image pushed through the image path (order 0) must agree
    # bit-for-bit with the label path (order 0) on the same transform
    dims = (8, 9, 7)
    bits = random_mask(rng, dims)
    img = Volume(bits.astype(np.float32), (1.0, 1.3, 0.8))
    lab = label_volume(bits, (1.0, 1.3, 0.8), label=1)
    p = preset("da5ord0")
    rotation = rng.uniform(-0.5, 0.5, size=3)
    scale = rng.uniform(0.8, 1.3, size=3)
    out_img, out_lab = spatial_transform(img, lab, rotation, scale, p)
    assert np.array_equal(out_img.data.astype(np.int32), out_lab.data)


def test_blur_keeps_constants_and_smooths(rng):
    flat = Volume(np.full((8, 8, 8), 3.25, dtype=np.float32), (1, 1, 1))
    out = intensity_transform(flat, "blur", {"sigma_mm": 1.0})
    assert np.allclose(out.data, 3.25, atol=1e-6)

    img = image_volume(rng, (12, 12, 12), (1, 1, 1))
    blurred = intensity_transform(img, "blur", {"sigma_mm": 1.5})
    assert blurred.data.var() < img.data.var()
    assert blurred.data.dtype == np.float32


def test_blur_sigma_is_physical(rng):
    # the same physical object blurred with the same sigma in mm must look
    # the same regardless of the grid it was sampled on
    from pancseg.geometry import ResamplePlan, resample_image

    n = 24
    grid = np.indices((n, n, n)).astype(np.float64)
    centre = (n - 1) / 2.0
    blob = np.exp(-(((grid - centre) ** 2).sum(axis=0)) / (2 * 4.0**2))
    coarse = Volume(blob, (1.0, 1.0, 1.0))

    fine_grid = np.indices((2 * n, 2 * n, 2 * n)).astype(np.float64)
    fine_blob = np.exp(
        -((((fine_grid * 0.5 + 0.25) - (centre + 0.5)) ** 2).sum(axis=0)) / (2 * 4.0**2)
    )
    fine = Volume(fine_blob, (0.5, 0.5, 0.5))

    sigma = 2.0
    coarse_blur = intensity_transform(coarse, "blur", {"sigma_mm": sigma})
    fine_blur = intensity_transform(fine, "blur", {"sigma_mm": sigma})
    plan = ResamplePlan.for_volume(fine_blur, (1.0, 1.0, 1.0))
    downsampled = resample_image(fine_blur, plan)
    scale = np.max(np.abs(coarse_blur.data))
    inner = (slice(2, -2),) * 3
    rel = np.max(np.abs(downsampled.data[inner] - coarse_blur.data[inner])) / scale
    assert rel < 1e-2


def test_sharpen_zero_strength_is_identity(rng):
    img = image_volume(rng, (6, 6, 6), (1, 1, 1))
    out = intensity_transform(img, "sharpen", {"sigma_mm": 1.0, "strength": 0.0})
    assert np.array_equal(out.data, img.data)


def test_sharpen_amplifies_contrast(rng):
    img = image_volume(rng, (10, 10, 10), (1, 1, 1))
    out = intensity_transform(img, "sharpen", {"sigma_mm": 1.0, "strength": 1.5})
    assert out.data.var() > img.data.var()


def test_gamma_examples():
    data = np.zeros((3, 1, 1), dtype=np.float64)
    data[0, 0, 0] = 0.0
    data[1, 0, 0] = 1.0
    data[2, 0, 0] = 2.0
    img = Volume(data, (1, 1, 1))
    out = intensity_transform(img, "gamma", {"gamma": 2.0})
    assert out.data[0, 0, 0] == pytest.approx(0.0)  # min fixed
    assert out.data[2, 0, 0] == pytest.approx(2.0)  # max fixed
    assert out.data[1, 0, 0] == pytest.approx(0.5)  # (1/2)^2 * 2

    flat = Volume(np.full((4, 4, 4), 7.0, dtype=np.float32), (1, 1, 1))
    out = intensity_transform(flat, "gamma", {"gamma": 0.7})
    assert np.array_equal(out.data, flat.data)


def test_gamma_preserves_order(rng):
    img = image_volume(rng, (8, 8, 8), (1, 1, 1), dtype=np.float64)
    out = intensity_transform(img, "gamma", {"gamma": 1.7})
    flat_in = img.data.ravel()
    flat_out = out.data.ravel()
    order = np.argsort(flat_in, kind="stable")
    assert np.all(np.diff(flat_out[order]) >= -1e-12)


def test_noise_is_seeded_and_optional(rng):
    img = image_volume(rng, (6, 6, 6), (1, 1, 1))
    quiet = intensity_transform(img, "noise", {"sigma": 0.0}, seed=1)
    assert np.allclose(quiet.data, img.data, atol=0)
    a = intensity_transform(img, "noise", {"sigma": 0.1}, seed=42)
    b = intensity_transform(img, "noise", {"sigma": 0.1}, seed=42)
    c = intensity_transform(img, "noise", {"sigma": 0.1}, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_intensity_transform_validation(rng):
    img = image_volume(rng, (4, 4, 4), (1, 1, 1))
    with pytest.raises(ValidationError):
        intensity_transform(img, "blur", {"sigma_mm": 0.0})
    with pytest.raises(ValidationError):
        intensity_transform(img, "gamma", {"gamma": -1.0})
    with pytest.raises(ValidationError):
        intensity_transform(img, "noise", {"sigma": -0.1})
    with pytest.raises(ConfigError):
        intensity_transform(img, "posterize", {})
    lab = label_volume(random_mask(rng, (4, 4, 4)), (1, 1, 1))
    with pytest.raises(ValidationError):
        intensity_transform(lab, "blur", {"sigma_mm": 1.0})


def test_low_res_factor_one_is_identity(rng):
    img = image_volume(rng, (7, 6, 9), (1, 1, 1))
    out = simulate_low_res(img, 1.0)
    assert np.array_equal(out.data, img.data)
    with pytest.raises(ValidationError):
        simulate_low_res(img, 0.5)


def test_low_res_removes_high_frequencies(rng):
    n = 16
    grid = np.indices((n, n, n))
    checker = ((grid.sum(axis=0) % 2) * 2.0 - 1.0).astype(np.float64)
    img = Volume(checker, (1, 1, 1))
    out = simulate_low_res(img, 2.0)
    assert out.dims == img.dims

    def laplacian_var(x):
        lap = (
            -6 * x[1:-1, 1:-1, 1:-1]
            + x[:-2, 1:-1, 1:-1]
            + x[2:, 1:-1, 1:-1]
            + x[1:-1, :-2, 1:-1]
            + x[1:-1, 2:, 1:-1]
            + x[1:-1, 1:-1, :-2]
            + x[1:-1, 1:-1, 2:]
        )
        return lap.var()

    assert laplacian_var(out.data) < laplacian_var(img.data)


def test_low_res_preserves_dims_for_odd_factors(rng):
    img = image_volume(rng, (7, 11, 5), (1, 1, 1))
    for factor in (1.3, 1.7, 2.0):
        out = simulate_low_res(img, factor)
        assert out.dims == img.dims


def test_pipeline_zero_probability_is_identity(rng):
    img, lab = _pair(rng)
    transforms = tuple(
        TransformSpec(t.name, 0.0, t.ranges) for t in preset("da5").transforms
    )
    p = AugmentPreset(name="da5", image_order=3, label_order=1, transforms=transforms, seed=9)
    out_img, out_lab = apply_pipeline(img, lab, p)
    assert np.array_equal(out_img.data, img.data)
    assert np.array_equal(out_lab.data, lab.data)


def test_pipeline_is_deterministic(rng):
    img, lab = _pair(rng, dims=(10, 9, 8))
    for name in ("da5", "da5ord0", "da5segord0"):
        p = preset(name, seed=123)
        first = apply_pipeline(img, lab, p)
        second = apply_pipeline(img, lab, p)
        assert np.array_equal(first[0].data, second[0].data)
        assert np.array_equal(first[1].data, second[1].data)
        other = apply_pipeline(img, lab, preset(name, seed=124))
        assert not np.array_equal(first[0].data, other[0].data)


def test_pipeline_streams_are_independent(rng):
    # silencing one stage must not change the draws of the others
    img = Volume(np.full((6, 6, 6), 1.0, dtype=np.float64), (1, 1, 1))
    lab = label_volume(np.zeros((6, 6, 6), dtype=bool), (1, 1, 1))
    noise = TransformSpec("noise", 1.0, {"sigma": (0.2, 0.2)})
    spatial = TransformSpec(
        "spatial", 1.0, {"rotation_rad": (-0.4, 0.4), "scale": (0.9, 1.1)}
    )
    silenced = TransformSpec("spatial", 0.0, spatial.ranges)
    with_spatial = AugmentPreset(
        name="pair", image_order=1, label_order=0, transforms=(spatial, noise), seed=5
    )
    without_spatial = AugmentPreset(
        name="pair", image_order=1, label_order=0, transforms=(silenced, noise), seed=5
    )
    # both images are constant 1.0 when the noise stage runs, so the noise
    # fields are directly comparable
    a, _ = apply_pipeline(img, lab, with_spatial)
    b, _ = apply_pipeline(img, lab, without_spatial)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_pipeline_only_spatial_touches_labels(rng):
    img, lab = _pair(rng, dims=(8, 8, 8))
    transforms = tuple(
        TransformSpec(t.name, 0.0 if t.name == "spatial" else 1.0, t.ranges)
        for t in preset("da5").transforms
    )
    p = AugmentPreset(name="da5", image_order=3, label_order=1, transforms=transforms, seed=2)
    out_img, out_lab = apply_pipeline(img, lab, p)
    assert np.array_equal(out_lab.data, lab.data)
    assert not np.array_equal(out_img.data, img.data)


def test_pipeline_label_safety_across_seeds(rng):
    img, lab = _pair(rng, dims=(8, 7, 6))
    input_set = set(np.unique(lab.data))
    for seed in range(10):
        p = preset("da5ord0", seed=seed)
        _, out = apply_pipeline(img, lab, p)
        assert set(np.unique(out.data)) <= input_set


def test_every_64_bit_seed_keys_its_own_stream_without_warning():
    # numpy turns a key list with an entry >= 2**63 into float64, which would
    # give 2**63 and 2**63 + 1 one stream and cast -1 with a warning
    seeds = (0, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = {_generator(seed, 0).random(4).tobytes() for seed in seeds}
        spare = _generator(2**63, 1).random(4).tobytes()
    assert len(streams) == len(seeds)
    assert spare not in streams
    # below 2**63 the key keeps the bits of the old list key
    philox = np.random.Philox(key=[2**62 + 1, 3])
    assert _generator(2**62 + 1, 3).random(4).tobytes() == np.random.Generator(philox).random(4).tobytes()


def test_seeds_outside_64_bits_are_rejected(tmp_path):
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed must be in 0..2"):
            preset("da5", seed=seed)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"preset": "da5", "seed": seed}))
        with pytest.raises(FormatError, match="seed must be in 0..2"):
            load_preset(path)
    assert preset("da5", seed=2**64 - 1).seed == 2**64 - 1
