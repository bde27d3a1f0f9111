"""Pinned digests of the files that ``ensemble``, ``resample`` and ``augment``
write.

The inputs are drawn here from fixed seeds and written with ``write_volume``;
each command runs through ``cli.main`` and the sha256 of every file it writes
must equal a recorded constant.  Any change to sampling, label decoding,
fusion or the NIfTI writer that moves one output byte fails this test.  The
grids are large enough that the point sampler covers several blocks.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from pancseg.cli import main
from pancseg.nifti import write_volume
from pancseg.volume import Volume

SPACING = (1.4, 1.1, 2.5)
DIMS = (48, 40, 22)

EXPECTED = {
    "ensemble": {"fused.nii.gz": "b605f09802dad5f5662452894da9af8093237670521e965b0d8b39423ca56edc"},
    "resample-image": {"image_1mm.nii.gz": "4410a84c3d721eccbdff50529f193fe02f839900ea75c5b59c70ecfdf20d9f28"},
    "resample-labels": {"labels_1mm.nii.gz": "caaca305c84373529a25c65dbbcb31fb429eb080a719e04c579ad8dd3b20e004"},
    "augment": {
        "au_image.nii.gz": "735b8ddfd5a7e9c12b84072a894c0f8c43aeceb44a9257cdd699231d64ff5e5b",
        "au_labels.nii.gz": "0845273c3fda926c2b730397a6dfe0325cdc3c10c7b1f93e85d0b6530edc1325",
    },
}

AUGMENT_PRESET = {
    "name": "all-stages",
    "image_order": 3,
    "label_order": 1,
    "transforms": [
        {"name": "spatial", "probability": 1.0, "rotation_rad": [-0.5236, 0.5236], "scale": [0.7, 1.4]},
        {"name": "blur", "probability": 1.0, "sigma_mm": [0.5, 1.5]},
        {"name": "sharpen", "probability": 1.0, "sigma_mm": [1.0, 1.0], "strength": [0.5, 2.0]},
        {"name": "lowres", "probability": 1.0, "factor": [1.0, 2.0]},
        {"name": "gamma", "probability": 1.0, "gamma": [0.7, 1.5]},
        {"name": "noise", "probability": 1.0, "sigma": [0.0, 0.1]},
    ],
}


def _ellipsoids(rng, dims, n):
    """A label map of ``n`` random ellipsoids, each labelled 1 or 2."""
    grid = np.indices(dims).astype(np.float64)
    out = np.zeros(dims, dtype=np.int32)
    for _ in range(n):
        centre = rng.uniform(0.2, 0.8, size=3) * np.array(dims)
        radii = rng.uniform(0.1, 0.35, size=3) * np.array(dims)
        inside = sum(((grid[a] - centre[a]) / radii[a]) ** 2 for a in range(3)) <= 1.0
        out[inside] = rng.integers(1, 3)
    return out


def _inputs(tmp_path):
    rng = np.random.default_rng(19)
    labels = _ellipsoids(rng, DIMS, 4)
    image = (labels * 40.0 + rng.normal(0.0, 10.0, size=DIMS)).astype(np.float32)
    write_volume(Volume(labels, SPACING, kind="labels"), tmp_path / "labels.nii.gz")
    write_volume(Volume(image, SPACING, kind="image"), tmp_path / "image.nii.gz")
    members = []
    for m in range(3):
        (tmp_path / f"m{m}").mkdir()
        member = np.where(rng.random(DIMS) < 0.05, rng.integers(0, 3, size=DIMS), labels)
        write_volume(Volume(member.astype(np.int32), SPACING, kind="labels"), tmp_path / f"m{m}" / "c1.nii.gz")
        members.append({"member_id": f"m{m}", "path": f"m{m}/{{case}}.nii.gz"})
    (tmp_path / "spec.json").write_text(json.dumps({"mode": "majority", "members": members}))
    (tmp_path / "preset.json").write_text(json.dumps(AUGMENT_PRESET))


def _argv(tmp_path, op):
    d = str(tmp_path)
    return {
        "ensemble": ["ensemble", "--spec", f"{d}/spec.json", "--case-id", "c1", "--output", f"{d}/out/fused.nii.gz"],
        "resample-image": [
            "resample", "--input", f"{d}/image.nii.gz", "--output", f"{d}/out/image_1mm.nii.gz",
            "--spacing", "1", "1", "1", "--image-order", "3",
        ],
        "resample-labels": [
            "resample", "--input", f"{d}/labels.nii.gz", "--output", f"{d}/out/labels_1mm.nii.gz",
            "--kind", "labels", "--spacing", "1", "1", "1", "--label-order", "1",
        ],
        "augment": [
            "augment", "--image", f"{d}/image.nii.gz", "--labels", f"{d}/labels.nii.gz",
            "--preset-file", f"{d}/preset.json", "--seed", "7",
            "--out-image", f"{d}/out/au_image.nii.gz", "--out-labels", f"{d}/out/au_labels.nii.gz",
        ],
    }[op]


@pytest.mark.parametrize("op", sorted(EXPECTED))
def test_written_bytes_are_pinned(tmp_path, capsys, op):
    (tmp_path / "out").mkdir()
    _inputs(tmp_path)
    assert main(_argv(tmp_path, op)) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in EXPECTED[op]
    }
    assert digests == EXPECTED[op]
