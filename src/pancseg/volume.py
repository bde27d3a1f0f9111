"""In-memory grid, volume and manifest-row types.

The canonical in-memory layout is a numpy array indexed ``[x, y, z]`` (plus a
trailing class axis for probability stacks) with axis 0 increasing to the
anatomical Right, axis 1 to Anterior and axis 2 to Superior (RAS+).  Spacing
and origin are in millimetres; ``origin`` is the physical position of the
centre of voxel ``(0, 0, 0)``.  A ``Grid`` holds dims, spacing and origin,
alone normalizes and validates them, and is what every grid check compares.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FormatError, GridMismatchError, LabelSetError, ValidationError

VOLUME_KINDS = ("image", "labels", "probabilities")

DEFAULT_LABEL_SET = (0, 1, 2)  # background, pancreas, tumor

PROB_SUM_TOL = 1e-5

# Widest class axis whose ``sum(axis=-1)`` numpy computes as in-order adds
# from +0.0 (pinned by a parity test); from 8 classes on it sums pairwise
# where the class axis is the fastest, and in order where it is not.
COLUMN_SUM_MAX_CLASSES = 7

# Relative spacing tolerance of every grid-compatibility check.
GRID_RTOL = 1e-5

# Widest min..max span scanned by per-value presence tests; one ``==`` pass
# costs about 1/50 of a full-volume sort, so wider spans fall back to it.
LABEL_SCAN_MAX_SPAN = 32

# Bytes per block of a blockwise pass (``nifti._layout_copy``'s staged slabs,
# ``unique_labels``' presence tests, ``BinaryMask.from_labels``' slabs), and
# voxels per slab of ``ensemble._Group._disagreement``: small enough to stay in
# cache.
SLAB_BYTES = 1 << 20


def memory_frame(array: np.ndarray) -> tuple[tuple[slice, ...], tuple[int, ...]]:
    """``(flips, axes)`` such that ``array[flips].transpose(axes)`` walks
    ``array`` in memory order: ``flips`` undo negative strides, and ``axes``
    run from the largest |stride| to the smallest, ties in axis order."""
    flips = tuple(slice(None, None, -1 if s < 0 else None) for s in array.strides)
    axes = tuple(sorted(range(array.ndim), key=lambda ax: -abs(array.strides[ax])))
    return flips, axes


def slab_axis(array: np.ndarray, axes) -> int:
    """The first of ``axes`` along which ``array`` is longer than 1, else the
    first: slabs along a length-1 axis are one slab of the whole array."""
    return next((ax for ax in axes if array.shape[ax] > 1), axes[0])


def unique_labels(data: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, exactly as ``np.unique``.

    Label maps hold a handful of values, so after a min/max pass each value
    strictly between the two is tested for presence instead of sorting the
    whole volume: block by block over the flat data, each block of about
    SLAB_BYTES tested for the values not yet seen, stopping once all are.
    """
    if data.size == 0:
        return np.unique(data)
    lo, hi = int(data.min()), int(data.max())
    if hi - lo > LABEL_SCAN_MAX_SPAN:
        return np.unique(data)
    # presence ignores order: undo flips (see ``memory_frame``) so a
    # reoriented file view flattens without a copy
    flat = data[memory_frame(data)[0]].ravel(order="K")
    step = max(1, SLAB_BYTES // flat.itemsize)
    missing = set(range(lo + 1, hi))
    for start in range(0, flat.size, step):
        if not missing:
            break
        block = flat[start : start + step]
        missing = {v for v in missing if not (block == v).any()}
    return np.array([v for v in range(lo, hi + 1) if v not in missing], dtype=data.dtype)


def label_argmax(values: np.ndarray, score, shape) -> np.ndarray:
    """Per voxel, the ``values[j]`` with the highest ``score(values[j])``.

    ``values`` is ascending and ties go to the lowest label, as with
    ``np.argmax`` over the stacked scores.  Scores are computed one value at a
    time and dropped once folded into a running maximum, so memory holds two
    score arrays instead of one per label.
    """
    out = np.full(shape, values[0], dtype=values.dtype)
    if len(values) == 1:
        return out
    best = score(values[0])
    for value in values[1:]:
        s = score(value)
        out[s > best] = value
        np.maximum(best, s, out=best)
        del s
    return out


@dataclass(frozen=True)
class Grid:
    """The voxel grid of a volume or mask: dims, spacing and origin (mm)."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if len(self.spacing) != 3 or not all(0 < s < np.inf for s in self.spacing):
            raise ValidationError(f"spacing must be 3 positive finite reals, got {self.spacing}")
        if len(self.origin) != 3 or not np.isfinite(self.origin).all():
            raise ValidationError(f"origin must be 3 finite reals, got {self.origin}")


def same_grid(a: Grid, b: Grid) -> bool:
    """True when two grids have equal dims and spacings equal to within
    ``GRID_RTOL`` relative.  Origins are not compared."""
    return a.dims == b.dims and not any(
        abs(x - y) > GRID_RTOL * max(abs(x), abs(y)) for x, y in zip(a.spacing, b.spacing)
    )


def check_same_grid(a: Grid, b: Grid, what: str) -> None:
    """Raise GridMismatchError unless the grids agree (see ``same_grid``)."""
    if not same_grid(a, b):
        raise GridMismatchError(
            f"{what} grids differ: {a.dims}@{a.spacing} vs {b.dims}@{b.spacing}"
        )


def class_sums(data: np.ndarray) -> np.ndarray:
    """``data.sum(axis=-1)``, bit for bit.  Up to COLUMN_SUM_MAX_CLASSES
    float32/float64 classes the class planes are added in order into sums
    laid out as a plane, which gives the same bits in any layout and skips
    the slow reduction along a short axis."""
    n = data.shape[-1]
    if n > COLUMN_SUM_MAX_CLASSES or data.dtype not in (np.float32, np.float64):
        return data.sum(axis=-1)
    sums = np.zeros_like(data[..., 0])  # +0.0 first, as numpy's sum
    for k in range(n):
        sums += data[..., k]
    return sums


def c_class_sums(data: np.ndarray) -> np.ndarray:
    """``class_sums`` of ``data`` laid out in C order, bit for bit, whatever
    the layout of ``data``.  Past COLUMN_SUM_MAX_CLASSES numpy's bits depend
    on the layout, so the rare wide stack is summed from a C-order copy."""
    if data.shape[-1] > COLUMN_SUM_MAX_CLASSES:
        data = np.ascontiguousarray(data)
    return class_sums(data)


def check_probabilities(data: np.ndarray) -> None:
    """Raise ValidationError unless every vector along the last axis is a
    finite probability distribution (entries in [0, 1], sum 1).  The sums
    are those of ``data`` in C order (``c_class_sums``), so the outcome does
    not depend on the layout."""
    if not np.issubdtype(data.dtype, np.floating):
        raise ValidationError("probability stack must have float dtype")
    if not np.isfinite(data).all():
        raise ValidationError("probability stack contains non-finite voxels")
    if data.min() < -1e-6 or data.max() > 1 + 1e-6:
        raise ValidationError("probability values must lie in [0, 1]")
    err = np.abs(c_class_sums(data) - 1.0).max()
    if err > PROB_SUM_TOL:
        raise ValidationError(
            f"per-voxel class probabilities must sum to 1 within {PROB_SUM_TOL}, "
            f"worst deviation {err:.3g}"
        )


@dataclass(frozen=True)
class Volume:
    """A 3D scalar image, integer label map or per-class probability stack.

    ``data`` has shape ``dims`` for image/labels and ``dims + (n_classes,)``
    for probabilities.  The array is frozen after construction so volumes can
    be shared freely across threads.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    kind: str = "image"
    grid: Grid = field(init=False, repr=False)

    def __post_init__(self):
        data = np.asarray(self.data)
        object.__setattr__(self, "data", data)
        if self.kind not in VOLUME_KINDS:
            raise ValidationError(f"unknown volume kind {self.kind!r}")
        expected_ndim = 4 if self.kind == "probabilities" else 3
        if data.ndim != expected_ndim:
            raise ValidationError(
                f"{self.kind} volume must be {expected_ndim}D, got shape {data.shape}"
            )
        if any(d < 1 for d in data.shape):
            raise ValidationError(f"dims must all be >= 1, got {data.shape}")
        object.__setattr__(self, "grid", Grid(data.shape[:3], self.spacing, self.origin))
        object.__setattr__(self, "spacing", self.grid.spacing)
        object.__setattr__(self, "origin", self.grid.origin)
        self._validate_values(data)
        data.setflags(write=False)

    def _validate_values(self, data: np.ndarray):
        if self.kind == "image":
            if np.issubdtype(data.dtype, np.floating) and not np.isfinite(data).all():
                raise ValidationError("image volume contains non-finite voxels")
        elif self.kind == "labels":
            if not np.issubdtype(data.dtype, np.integer):
                raise ValidationError(f"label volume must have integer dtype, got {data.dtype}")
            # an unsigned map cannot hold a negative label, so it is not scanned
            if data.dtype.kind == "i" and data.size and data.min() < 0:
                raise ValidationError("label volume contains negative values")
        else:
            check_probabilities(data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.dims

    @property
    def n_classes(self) -> int:
        if self.kind != "probabilities":
            raise ValidationError("n_classes is only defined for probability stacks")
        return int(self.data.shape[3])

    def with_data(self, data: np.ndarray, kind: str | None = None) -> "Volume":
        """New voxel data on this grid, of this kind unless ``kind`` is given."""
        return Volume(data=data, spacing=self.spacing, origin=self.origin, kind=kind or self.kind)


def validate_label_set(labels: np.ndarray, label_set: Iterable[int]) -> None:
    """Raise LabelSetError if the integer ``labels`` use a label outside
    ``label_set``."""
    allowed = set(int(v) for v in label_set)
    present = set(int(v) for v in unique_labels(labels))
    unknown = sorted(present - allowed)
    if unknown:
        raise LabelSetError(
            f"label volume contains unknown label(s) {unknown}; declared set is {sorted(allowed)}"
        )


@dataclass(frozen=True)
class ManifestRow:
    case_id: str
    reference: str
    prediction: str


MANIFEST_COLUMNS = ("case_id", "reference", "prediction")


def parse_int(value) -> int:
    """An integer from a JSON number or decimal text.  Booleans and numbers
    with a fraction raise ValueError instead of passing as 1 or truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def parse_float(value) -> float:
    """A float from a JSON number or decimal text; booleans raise ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def read_json_object(path: str | Path, what: str) -> dict:
    """Decode a file that must hold one JSON object.  Every failure, from
    unreadable bytes to a non-object top level, is a FormatError naming it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} {path} must hold a JSON object")
    return doc


def read_manifest(path: str | Path) -> tuple[ManifestRow, ...]:
    """Parse a cohort manifest CSV with header ``case_id,reference,prediction``.

    Rows are kept in file order.  Duplicate case ids, missing columns, empty
    manifests and bytes that are not UTF-8 CSV are FormatErrors.  CRLF and LF
    line endings parse identically.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise FormatError(f"manifest {path} is empty")
            missing = [c for c in MANIFEST_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise FormatError(f"manifest {path} is missing column(s) {missing}")
            rows = []
            seen: set[str] = set()
            for record in reader:
                case_id = (record["case_id"] or "").strip()
                reference = (record["reference"] or "").strip()
                prediction = (record["prediction"] or "").strip()
                if not case_id or not reference or not prediction:
                    raise FormatError(f"manifest {path}: empty field in row {len(rows) + 2}")
                if case_id in seen:
                    raise FormatError(f"manifest {path}: duplicate case_id {case_id!r}")
                seen.add(case_id)
                rows.append(ManifestRow(case_id, reference, prediction))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"manifest {path} is not UTF-8 CSV: {exc}") from exc
    if not rows:
        raise FormatError(f"manifest {path} has no rows")
    return tuple(rows)
