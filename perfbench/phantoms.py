"""Deterministic synthetic phantoms and op plans for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng((seed, stream))``, so a
workload seed fixes every byte written.  Geometry is defined in millimetres
(pancreas ellipsoid, tumor ellipsoid, false-positive islands) and rasterized
onto the workload's grid, which lets the ``toy`` size reuse the same shapes on
a coarse grid.

Run as a script it is the benchmark's set-up step: it imports pancseg,
generates and writes one workload's inputs with ``write_volume``, and prints a
JSON plan (ops to run, known answers, input sizes) plus its own set-up time.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import ndimage  # noqa: E402

from pancseg.nifti import write_volume  # noqa: E402
from pancseg.volume import Volume  # noqa: E402

WORKLOADS = ("eval-cohort", "select", "transform-write")

CLINICAL_SPACING = (0.78, 0.78, 2.5)
SELECT_SPACING = (1.2, 1.2, 2.5)

# Grids per size.  "full" is the benchmark; "toy" keeps the same physical
# extent on coarse grids so the smoke test runs in seconds.
SIZES = {
    "full": {
        "clinical": ((512, 512, 100), CLINICAL_SPACING),
        "select": ((128, 128, 48), SELECT_SPACING),
        "resample": ((192, 192, 48), CLINICAL_SPACING),
        "augment": ((112, 112, 40), (1.4, 1.4, 3.0)),
        "cohort_cases": 5,
        "select_cases": 2,
        "members": 5,
        "target_mm": 1.0,
    },
    "toy": {
        "clinical": ((64, 64, 20), (6.24, 6.24, 12.5)),
        "select": ((32, 32, 16), (4.8, 4.8, 7.5)),
        "resample": ((24, 24, 12), (6.24, 6.24, 10.0)),
        "augment": ((20, 20, 10), (7.84, 7.84, 12.0)),
        "cohort_cases": 3,
        "select_cases": 2,
        "members": 3,
        "target_mm": 8.0,
    },
}

def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed,) + stream)


def _f32(spacing) -> tuple[float, float, float]:
    # NIfTI stores spacing as float32; known answers use the stored value
    return tuple(float(np.float32(s)) for s in spacing)


def paint_ellipsoid(arr, spacing, center_mm, semi_mm, value) -> None:
    """Set every voxel whose centre lies inside the ellipsoid to ``value``."""
    lo = [max(0, int(np.floor((c - r) / s))) for c, r, s in zip(center_mm, semi_mm, spacing)]
    hi = [min(n, int(np.ceil((c + r) / s)) + 1) for c, r, s, n in zip(center_mm, semi_mm, spacing, arr.shape)]
    if any(h <= l for l, h in zip(lo, hi)):
        return
    axes = [
        ((np.arange(l, h) * s - c) / r) ** 2
        for l, h, s, c, r in zip(lo, hi, spacing, center_mm, semi_mm)
    ]
    inside = axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :] <= 1.0
    view = arr[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    view[inside] = value


def _extent(dims, spacing):
    return np.array([d * s for d, s in zip(dims, spacing)])


def stratified_radius(rng, k: int, n: int) -> float:
    """Tumor radius in stratum ``k`` of ``n`` over 8-20 mm.

    Stratifying keeps the set of tumor sizes, and so the work, nearly the
    same for every seed while each seed still draws its own shapes.
    """
    return 8.0 + 12.0 * (k + 0.5 + rng.uniform(-0.3, 0.3)) / n


def draw_anatomy(rng, dims, spacing, radius: float) -> dict:
    """Pancreas ellipsoid plus a compact tumor of about ``radius`` mm inside it."""
    mid = _extent(dims, spacing) / 2.0
    panc_c = mid + rng.uniform(-10.0, 10.0, 3) * np.array([1.0, 1.0, 0.5])
    panc_r = rng.uniform([45.0, 12.0, 15.0], [60.0, 18.0, 22.0])
    tumor_c = panc_c + rng.uniform(-0.4, 0.4, 3) * panc_r
    tumor_r = radius * rng.uniform(0.9, 1.1, 3)
    return {"panc_c": panc_c, "panc_r": panc_r, "tumor_c": tumor_c, "tumor_r": tumor_r}


def perturb(rng, anat: dict, shift_mm: float, scale: float) -> dict:
    """Boundary shift and rescale of both organs, as a model would err."""
    return {
        "panc_c": anat["panc_c"] + rng.uniform(-shift_mm, shift_mm, 3) * 0.5,
        "panc_r": anat["panc_r"] * rng.uniform(1 - scale / 2, 1 + scale / 2, 3),
        "tumor_c": anat["tumor_c"] + rng.uniform(-shift_mm, shift_mm, 3),
        "tumor_r": anat["tumor_r"] * rng.uniform(1 - scale, 1 + scale),
    }


def draw_islands(rng, dims, spacing, count: int, lo: float, hi: float) -> list:
    """Small false-positive blobs scattered over the box [lo, hi] of the grid
    (as fractions of its extent).

    The first two sit near opposite corners of the box, so the bounding box
    of the islands, and with it the metric crop, barely depends on the seed.
    """
    ext = _extent(dims, spacing)
    corners = [np.full(3, lo + 0.02), np.full(3, hi - 0.02)]
    sites = []
    for i in range(count):
        frac = corners[i] + rng.uniform(-0.02, 0.02, 3) if i < 2 else rng.uniform(lo, hi, 3)
        sites.append((frac * ext, np.full(3, rng.uniform(2.0, 5.0))))
    return sites


def rasterize(dims, spacing, anat: dict, tumor: bool = True, islands=()) -> np.ndarray:
    labels = np.zeros(dims, dtype=np.uint8)
    paint_ellipsoid(labels, spacing, anat["panc_c"], anat["panc_r"], 1)
    if tumor:
        paint_ellipsoid(labels, spacing, anat["tumor_c"], anat["tumor_r"], 2)
    for center, semi in islands:
        paint_ellipsoid(labels, spacing, center, semi, 2)
    return labels


def ct_image(rng, labels: np.ndarray, spacing) -> np.ndarray:
    """CT-like float32 intensities: air, soft-tissue body, organs, noise."""
    body = np.zeros(labels.shape, dtype=np.uint8)
    ext = _extent(labels.shape, spacing)
    paint_ellipsoid(body, spacing, ext / 2.0, ext * np.array([0.45, 0.35, 0.6]), 1)
    img = np.where(body > 0, 40.0, -1000.0).astype(np.float32)
    img[labels == 1] = 100.0
    img[labels == 2] = 70.0
    img += rng.normal(0.0, 15.0, labels.shape).astype(np.float32)
    return img


def soft_probabilities(labels: np.ndarray, n_classes: int = 3) -> np.ndarray:
    """One-hot labels smoothed in-plane and renormalized (float32).

    Away from every object the background class stays at 1, so members
    agree there and disagree only near boundaries and islands.
    """
    onehot = np.stack([(labels == c).astype(np.float32) for c in range(n_classes)], axis=-1)
    smooth = ndimage.gaussian_filter(onehot, sigma=(1.0, 1.0, 0.5, 0.0), truncate=3.0)
    smooth = np.clip(smooth, 0.0, 1.0)
    return (smooth / smooth.sum(axis=-1, keepdims=True)).astype(np.float32)


def tumor_volume_mm3(labels: np.ndarray, spacing) -> float:
    sx, sy, sz = _f32(spacing)
    return float(int((labels == 2).sum())) * sx * sy * sz


def label_values(*arrays) -> list[int]:
    present = set()
    for arr in arrays:
        present.update(np.flatnonzero(np.bincount(arr.ravel())).tolist())
    return sorted(present)


def _write(path: Path, data: np.ndarray, spacing, kind: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_volume(Volume(data=data, spacing=spacing, kind=kind), path)


# ------------------------------------------------------------------ workloads


def make_eval_cohort(out: Path, seed: int, size: dict) -> dict:
    """A manifest of clinical-size label pairs: compact tumors, one prediction
    with false-positive islands, and one empty prediction (``penalize``)."""
    dims, spacing = size["clinical"]
    n = size["cohort_cases"]
    kinds = ["compact"] * (n - 2) + ["islands", "empty"]
    rows, expected = [], {}
    for k, kind in enumerate(kinds):
        rng = _rng(seed, 1, k)
        radius = stratified_radius(rng, k, n - 2) if kind == "compact" else rng.uniform(12.0, 16.0)
        anat = draw_anatomy(rng, dims, spacing, radius)
        ref = rasterize(dims, spacing, anat)
        pred_anat = perturb(rng, anat, shift_mm=3.0, scale=0.2)
        islands = draw_islands(rng, dims, spacing, 8, 0.2, 0.8) if kind == "islands" else ()
        pred = rasterize(dims, spacing, pred_anat, tumor=kind != "empty", islands=islands)
        case = f"case{k:02d}"
        _write(out / "refs" / f"{case}.nii.gz", ref, spacing, "labels")
        _write(out / "preds" / f"{case}.nii.gz", pred, spacing, "labels")
        rows.append(f"{case},refs/{case}.nii.gz,preds/{case}.nii.gz")
        expected[case] = {
            "volume_ref_mm3": tumor_volume_mm3(ref, spacing),
            "volume_pred_mm3": tumor_volume_mm3(pred, spacing),
            "penalized": kind == "empty",
        }
    (out / "manifest.csv").write_text("case_id,reference,prediction\n" + "\n".join(rows) + "\n")
    ops = [
        {
            "name": "eval-cohort",
            "argv": ["eval-cohort", "--manifest", "manifest.csv", "--jobs", "2"],
            "outputs": [],
        }
    ]
    return {"ops": ops, "expected": {"cases": expected}, "voxels": n * 2 * int(np.prod(dims))}


def make_select(out: Path, seed: int, size: dict) -> dict:
    """Exhaustive selection over a prob_avg pool.

    Members agree except near the boundary; each also carries three small
    islands from a per-case set of six sites, in a fixed pattern (member m
    holds sites m, m+1 and m+3), so islands shared by a majority of a
    subset survive fusion and the per-subset EDT crop varies across subsets
    but not across seeds.
    """
    dims, spacing = size["select"]
    n_members = size["members"]
    n_cases = size["select_cases"]
    cases = []
    for k in range(n_cases):
        rng = _rng(seed, 2, k)
        anat = draw_anatomy(rng, dims, spacing, stratified_radius(rng, k, n_cases))
        case = f"val{k:02d}"
        _write(out / "refs" / f"{case}.nii.gz", rasterize(dims, spacing, anat), spacing, "labels")
        sites = draw_islands(rng, dims, spacing, 6, 0.15, 0.85)
        for m in range(n_members):
            member_anat = perturb(rng, anat, shift_mm=2.0, scale=0.1)
            picks = [sites[(m + j) % len(sites)] for j in (0, 1, 3)]
            labels = rasterize(dims, spacing, member_anat, islands=picks)
            _write(out / f"m{m}" / f"{case}.nii.gz", soft_probabilities(labels), spacing, "probabilities")
        cases.append({"case_id": case, "reference": f"refs/{case}.nii.gz"})
    pool = {
        "mode": "prob_avg",
        "members": [
            {"member_id": f"m{m}", "path": f"m{m}/{{case}}.nii.gz", "fold": m % 5}
            for m in range(n_members)
        ],
        "cases": cases,
    }
    (out / "pool.json").write_text(json.dumps(pool, indent=2) + "\n")
    ops = [{"name": "select", "argv": ["select", "--pool", "pool.json"], "outputs": []}]
    voxels = len(cases) * (1 + n_members * 3) * int(np.prod(dims))
    return {
        "ops": ops,
        "expected": {"n_evaluated": 2**n_members - 1},
        "voxels": voxels,
    }


def make_transform_write(out: Path, seed: int, size: dict) -> dict:
    """Majority fusion of clinical-size members, image and label resampling
    to 1 mm, and an augmentation whose every stage fires."""
    dims, spacing = size["clinical"]
    rng = _rng(seed, 3, 0)
    anat = draw_anatomy(rng, dims, spacing, rng.uniform(12.0, 16.0))
    members, member_labels = [], []
    for m in range(size["members"]):
        member_anat = perturb(rng, anat, shift_mm=3.0, scale=0.15)
        islands = draw_islands(rng, dims, spacing, 3, 0.3, 0.7)
        labels = rasterize(dims, spacing, member_anat, islands=islands)
        _write(out / f"m{m}" / "fused.nii.gz", labels, spacing, "labels")
        member_labels.append(label_values(labels))
        members.append({"member_id": f"m{m}", "path": f"m{m}/{{case}}.nii.gz", "fold": m % 5})
    (out / "ensemble.json").write_text(json.dumps({"mode": "majority", "members": members}, indent=2) + "\n")

    rs_dims, rs_spacing = size["resample"]
    rs_anat = draw_anatomy(_rng(seed, 3, 1), rs_dims, rs_spacing, 14.0)
    rs_labels = rasterize(rs_dims, rs_spacing, rs_anat)
    _write(out / "rs_image.nii.gz", ct_image(_rng(seed, 3, 2), rs_labels, rs_spacing), rs_spacing, "image")
    _write(out / "rs_labels.nii.gz", rs_labels, rs_spacing, "labels")

    au_dims, au_spacing = size["augment"]
    au_anat = draw_anatomy(_rng(seed, 3, 3), au_dims, au_spacing, 14.0)
    au_labels = rasterize(au_dims, au_spacing, au_anat)
    _write(out / "au_image.nii.gz", ct_image(_rng(seed, 3, 4), au_labels, au_spacing), au_spacing, "image")
    _write(out / "au_labels.nii.gz", au_labels, au_spacing, "labels")
    # every stage fires, so the work does not depend on which draws fire
    preset = {
        "name": "bench-da5-all",
        "image_order": 3,
        "label_order": 1,
        "transforms": [
            {"name": "spatial", "probability": 1.0, "rotation_rad": [-0.5236, 0.5236], "scale": [0.7, 1.4]},
            {"name": "blur", "probability": 1.0, "sigma_mm": [0.5, 1.5]},
            {"name": "lowres", "probability": 1.0, "factor": [1.0, 2.0]},
            {"name": "noise", "probability": 1.0, "sigma": [0.0, 0.1]},
        ],
    }
    (out / "augment.json").write_text(json.dumps(preset, indent=2) + "\n")

    # the checker derives the expected output dims with pancseg's target_grid
    resampled = {"dims": list(rs_dims), "spacing": list(_f32(rs_spacing)), "target": [size["target_mm"]] * 3}
    ops = [
        {
            "name": "ensemble",
            "argv": ["ensemble", "--spec", "ensemble.json", "--case-id", "fused", "--output", "out/fused.nii.gz"],
            "outputs": [{"path": "out/fused.nii.gz", "kind": "labels", "dims": list(dims), "labels": sorted(set().union(*member_labels))}],
        },
        {
            "name": "resample-image",
            "argv": ["resample", "--input", "rs_image.nii.gz", "--output", "out/rs_image_1mm.nii.gz", "--spacing", *[str(size["target_mm"])] * 3],
            "outputs": [{"path": "out/rs_image_1mm.nii.gz", "kind": "image", "resampled_from": resampled}],
        },
        {
            "name": "resample-labels",
            "argv": ["resample", "--input", "rs_labels.nii.gz", "--output", "out/rs_labels_1mm.nii.gz", "--kind", "labels", "--spacing", *[str(size["target_mm"])] * 3],
            "outputs": [{"path": "out/rs_labels_1mm.nii.gz", "kind": "labels", "resampled_from": resampled, "labels": label_values(rs_labels)}],
        },
        {
            "name": "augment",
            "argv": [
                "augment", "--image", "au_image.nii.gz", "--labels", "au_labels.nii.gz",
                "--preset-file", "augment.json", "--seed", str(seed),
                "--out-image", "out/au_image.nii.gz", "--out-labels", "out/au_labels.nii.gz",
            ],
            "outputs": [
                {"path": "out/au_image.nii.gz", "kind": "image", "dims": list(au_dims)},
                {"path": "out/au_labels.nii.gz", "kind": "labels", "dims": list(au_dims), "labels": label_values(au_labels)},
            ],
        },
    ]
    voxels = (
        size["members"] * int(np.prod(dims))
        + 2 * int(np.prod(rs_dims))
        + 2 * int(np.prod(au_dims))
    )
    return {"ops": ops, "expected": {}, "voxels": voxels}


MAKERS = {
    "eval-cohort": make_eval_cohort,
    "select": make_select,
    "transform-write": make_transform_write,
}


def _input_files(out: Path) -> dict:
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files[path.relative_to(out).as_posix()] = {
            "bytes": len(data),
            "sha256": "sha256:" + hashlib.sha256(data).hexdigest(),
        }
    return files


def generate(workload: str, seed: int, out: Path, size_name: str = "full") -> dict:
    """Write one workload's inputs under ``out`` and return its plan."""
    out.mkdir(parents=True, exist_ok=True)
    plan = MAKERS[workload](out, seed, SIZES[size_name])
    plan.update(workload=workload, seed=seed, size=size_name)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    out = Path(args.out)
    plan = generate(args.workload, args.seed, out, args.size)
    setup_s = time.perf_counter() - _T0
    plan["setup_s"] = setup_s
    plan["inputs"] = _input_files(out)  # digests are taken after the clock stops
    sys.stdout.write(json.dumps(plan) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
