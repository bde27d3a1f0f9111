"""Combine stored member predictions into a single segmentation.

Members are (model, fold, checkpoint) provenance tags plus a path to the
stored prediction: a 4D probability stack for ``prob_avg`` mode or a label
volume for ``majority`` mode.  Combination is a pure reduction over files;
there is no model inference and no test-time augmentation here.

A spec holds its members in member_id order regardless of how they are
listed, and fusion reduces them in that order, which makes both modes
bit-exactly invariant under permutation of the member list.

Fusion splits the grid by each member's consensus codes
(``Volume.consensus_codes``, computed once per volume): a label map's code
is its label; a probability vector's code is its hot class when it is
exactly one-hot (one entry ``== 1.0``, all others ``== 0.0``) and -1
otherwise.  A voxel is *settled* when every member has the same code and it
is >= 0; its fused label is that code.  Only the remaining *active* voxels
are gathered (one member at a time for probabilities), go through the
per-voxel arithmetic (float64 accumulation in member order, division by the
weight sum, renormalization, probability validation and argmax; or the
weighted vote), and are scattered back.  When more than half the voxels are
active, the gather would cost more than it saves, and every voxel goes
through that arithmetic in place instead.

The split is exact for finite positive weights with a finite sum, which the
weight checks enforce.  Active voxels run the same elementwise arithmetic as
a full-volume pass.  A settled probability voxel averages to ``(x, 0, ...)``
with ``x > 0``, which renormalizes to exactly one-hot (``x/x == 1``,
``0/x == 0``), so it passes validation and its argmax is the hot class; a
settled vote has one candidate.  Validating only the active rows therefore
passes and fails exactly when the full stack does, with the same worst
deviation.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError, GridMismatchError, ValidationError
from .nifti import read_volume
from .volume import (
    Volume,
    check_probabilities,
    check_same_grid,
    label_argmax,
    parse_float,
    parse_int,
    read_json_object,
    unique_labels,
)

ENSEMBLE_MODES = ("prob_avg", "majority")
CHECKPOINTS = ("best", "final")

FOLD_RANGE = range(0, 5)

CASE_PLACEHOLDER = "{case}"


@dataclass(frozen=True)
class EnsembleMember:
    member_id: str
    path: str
    model_tag: str = ""
    fold: int = 0
    checkpoint: str = "best"
    weight: float = 1.0

    def __post_init__(self):
        if not self.member_id:
            raise ConfigError("member_id must be non-empty")
        if not self.path:
            raise ConfigError(f"member {self.member_id}: path must be non-empty")
        if self.fold not in FOLD_RANGE:
            raise ConfigError(f"member {self.member_id}: fold must be in 0..4, got {self.fold}")
        if self.checkpoint not in CHECKPOINTS:
            raise ConfigError(
                f"member {self.member_id}: checkpoint must be one of {CHECKPOINTS}"
            )
        if not 0 < self.weight < math.inf:
            raise ConfigError(
                f"member {self.member_id}: weight must be finite and > 0, got {self.weight}"
            )

    def resolve_path(self, case_id: str, base_dir: str | Path) -> Path:
        """Concrete prediction file for one case.

        A ``{case}`` placeholder in the path becomes ``case_id``; a relative
        path resolves against ``base_dir``, the directory of the file that
        names it; a path to a directory names its ``<case_id>.nii.gz``.
        """
        path = Path(base_dir) / self.path.replace(CASE_PLACEHOLDER, case_id)
        if path.is_dir():
            path = path / f"{case_id}.nii.gz"
        return path


def check_ids(ids: Iterable[str], what: str) -> None:
    """Reject an empty id, or ids that occur more than once, naming each
    repeated one."""
    counts = Counter(ids)
    if "" in counts:
        raise ConfigError(f"a {what} must not be empty")
    dupes = sorted(i for i, n in counts.items() if n > 1)
    if dupes:
        raise ConfigError(f"duplicate {what}(s): {dupes}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Members, held in member_id order, and the fusion mode."""

    members: tuple[EnsembleMember, ...]
    mode: str = "prob_avg"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members, key=lambda m: m.member_id)))
        if not self.members:
            raise ConfigError("an ensemble needs at least one member")
        if self.mode not in ENSEMBLE_MODES:
            raise ConfigError(f"mode must be one of {ENSEMBLE_MODES}, got {self.mode!r}")
        check_ids((m.member_id for m in self.members), "member_id")


def read_member_file(path: Path, what: str) -> tuple[dict, tuple[EnsembleMember, ...]]:
    """Decode a JSON object file and parse its required ``members`` list.

    Ensemble specs and candidate pools share this parser.  Every malformed
    input, from unreadable bytes to a mistyped member field, is a FormatError
    naming ``what`` and the file.
    """
    doc = read_json_object(path, what)
    entries = doc.get("members")
    if not isinstance(entries, list):
        raise FormatError(f"{what} {path} must be an object with a 'members' list")
    members = []
    for i, entry in enumerate(entries):
        where = f"{what} {path}: member {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object, got {entry!r}")
        try:
            member_id, member_path = entry["member_id"], entry["path"]
            fold = parse_int(entry.get("fold", 0))
            weight = parse_float(entry.get("weight", 1.0))
        except KeyError as exc:
            raise FormatError(f"{where} is missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(
                f"{where}: fold must be an integer and weight a number ({exc})"
            ) from exc
        model_tag = entry.get("model_tag", "")
        if not all(isinstance(v, str) for v in (member_id, member_path, model_tag)):
            raise FormatError(f"{where}: member_id, path and model_tag must be strings")
        members.append(
            EnsembleMember(
                member_id=member_id,
                path=member_path,
                model_tag=model_tag,
                fold=fold,
                checkpoint=entry.get("checkpoint", "best"),
                weight=weight,
            )
        )
    return doc, tuple(members)


def load_ensemble_spec(path: str | Path) -> EnsembleSpec:
    """Parse a JSON spec: {"mode": ..., "members": [{member fields}...]}."""
    path = Path(path)
    doc, members = read_member_file(path, "ensemble spec")
    return EnsembleSpec(members=members, mode=doc.get("mode", "prob_avg"))


def save_ensemble_spec(spec: EnsembleSpec, path: str | Path) -> None:
    doc = {
        "mode": spec.mode,
        "members": [
            {
                "member_id": m.member_id,
                "model_tag": m.model_tag,
                "fold": m.fold,
                "checkpoint": m.checkpoint,
                "path": m.path,
                "weight": m.weight,
            }
            for m in spec.members
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _check_grids(volumes: Sequence[Volume]):
    first = volumes[0]
    for v in volumes[1:]:
        check_same_grid((first.dims, first.spacing), (v.dims, v.spacing), "member")


def _member_weights(weights: Optional[Sequence[float]], n: int) -> list[float]:
    weights = [1.0] * n if weights is None else [float(w) for w in weights]
    if len(weights) != n:
        raise ValidationError("weights length must match the member count")
    if not (all(0 < w < math.inf for w in weights) and math.isfinite(sum(weights))):
        raise ValidationError(
            f"weights must be finite and positive with a finite sum, got {weights}"
        )
    return weights


def _probability_members(stacks: Sequence[Volume], weights: Optional[Sequence[float]]):
    """The checks every probability fusion makes, in order."""
    stacks = list(stacks)
    if not stacks:
        raise ValidationError("no probability stacks to average")
    if any(v.kind != "probabilities" for v in stacks):
        raise ValidationError("average_probabilities expects probability stacks")
    weights = _member_weights(weights, len(stacks))
    _check_grids(stacks)
    classes = {v.n_classes for v in stacks}
    if len(classes) != 1:
        raise GridMismatchError(f"class counts differ across members: {sorted(classes)}")
    return stacks, weights


def _average_rows(rows: Iterable[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted float64 mean over the class axis, in member order, renormalized.

    ``rows`` may be a generator, so only one member's rows need be held at
    a time besides the accumulator.
    """
    acc = None
    for r, w in zip(rows, weights):
        if acc is None:
            acc = np.zeros(r.shape, dtype=np.float64)
        acc += w * r.astype(np.float64, copy=False)
    acc /= sum(weights)
    acc /= acc.sum(axis=-1, keepdims=True)
    return acc


def average_probabilities(stacks: Sequence[Volume], weights: Optional[Sequence[float]] = None) -> Volume:
    """Weighted per-voxel, per-class mean of probability stacks, renormalized."""
    stacks, weights = _probability_members(stacks, weights)
    return Volume(
        data=_average_rows([v.data for v in stacks], weights),
        spacing=stacks[0].spacing,
        origin=stacks[0].origin,
        kind="probabilities",
    )


def _class_label_dtype(n_classes: int) -> np.dtype:
    """The dtype of a label map of class indices: uint8 while every one of
    ``n_classes`` indices fits, else int32."""
    return np.dtype(np.uint8 if n_classes <= 256 else np.int32)


def argmax_labels(p: Volume) -> Volume:
    """Per-voxel argmax class, uint8 up to 256 classes; ties go to the lowest
    class index."""
    if p.kind != "probabilities":
        raise ValidationError(f"argmax_labels expects a probability stack, got {p.kind}")
    labels = np.argmax(p.data, axis=-1).astype(_class_label_dtype(p.n_classes))
    return Volume(data=labels, spacing=p.spacing, origin=p.origin, kind="labels")


def _fuse_active(members: Sequence[Volume], fuse_rows, dtype) -> Volume:
    """The fused label map on the members' grid, of ``dtype`` (which holds
    every label the members can fuse to) in C order: settled voxels take the
    shared ``consensus_codes``; the flat indices of the active ones go to
    ``fuse_rows``, which returns their labels.  When most voxels are active,
    ``fuse_rows(None)`` fuses every voxel instead, which is as exact: settled
    voxels fuse to their code.
    """
    first = members[0].consensus_codes
    settled = first >= 0
    for m in members[1:]:
        settled &= m.consensus_codes == first
    # a fresh C-order copy, so the flat view below writes into ``out`` itself;
    # only active voxels can hold a code of -1, and they are overwritten
    out = np.array(first, dtype=dtype, order="C")
    active = np.flatnonzero(~settled)
    if 2 * active.size > out.size:
        out.reshape(-1)[:] = fuse_rows(None)
    elif active.size:
        out.reshape(-1)[active] = fuse_rows(active)
    return Volume(data=out, spacing=members[0].spacing, origin=members[0].origin, kind="labels")


def _fuse_probabilities(stacks: Sequence[Volume], weights: Sequence[float]) -> Volume:
    """``argmax_labels(average_probabilities(stacks, weights))``, fusing only
    the active voxels."""
    stacks, weights = _probability_members(stacks, weights)
    n_classes = stacks[0].n_classes
    flat = [v.data.reshape(-1, n_classes) for v in stacks]

    def fuse_rows(active):
        rows = flat if active is None else (np.take(f, active, axis=0) for f in flat)
        acc = _average_rows(rows, weights)
        check_probabilities(acc)
        return np.argmax(acc, axis=-1)

    return _fuse_active(stacks, fuse_rows, _class_label_dtype(n_classes))


def majority_vote(label_members: Sequence[Volume], weights: Optional[Sequence[float]] = None) -> Volume:
    """Weighted per-voxel plurality over label volumes; ties to lowest label."""
    label_members = list(label_members)
    if not label_members:
        raise ValidationError("no label volumes to vote over")
    if any(v.kind != "labels" for v in label_members):
        raise ValidationError("majority_vote expects label volumes")
    weights = _member_weights(weights, len(label_members))
    _check_grids(label_members)
    flat = [v.data.reshape(-1) for v in label_members]

    def vote_rows(active):
        rows = flat if active is None else [np.take(f, active) for f in flat]

        def votes(value):
            acc = weights[0] * (rows[0] == value)
            for r, w in zip(rows[1:], weights[1:]):
                acc += w * (r == value)
            return acc

        values = np.unique(np.concatenate([unique_labels(r) for r in rows]))
        return label_argmax(values, votes, rows[0].shape)

    # the members' common dtype holds every label any of them holds; uint64
    # and a signed dtype have none but float64, and uint64 holds the labels
    dtype = np.result_type(*(v.data.dtype for v in label_members))
    if dtype.kind == "f":
        dtype = np.dtype(np.uint64)
    return _fuse_active(label_members, vote_rows, dtype)


def combine_volumes(spec: EnsembleSpec, volumes: Mapping[str, Volume]) -> Volume:
    """Combine already-loaded member volumes keyed by member_id.

    Each volume computes its ``consensus_codes`` once, so a caller fusing
    many subsets of one pool from the same volumes pays for them once per
    member; a label map is its own code.
    """
    missing = [m.member_id for m in spec.members if m.member_id not in volumes]
    if missing:
        raise ValidationError(f"no volume supplied for member(s) {missing}")
    vols = [volumes[m.member_id] for m in spec.members]
    weights = [m.weight for m in spec.members]
    if spec.mode == "prob_avg":
        return _fuse_probabilities(vols, weights)
    return majority_vote(vols, weights)


def load_member_volume(member: EnsembleMember, mode: str, case_id: str, base_dir: str | Path) -> Volume:
    kind = "probabilities" if mode == "prob_avg" else "labels"
    path = member.resolve_path(case_id, base_dir)
    try:
        return read_volume(path, kind=kind, label_set=None)
    except FormatError as exc:
        raise FormatError(f"member {member.member_id}: {exc}") from exc


def combine(spec: EnsembleSpec, case_id: str, base_dir: str | Path) -> Volume:
    """Load every member's prediction for one case and combine them."""
    volumes = {
        m.member_id: load_member_volume(m, spec.mode, case_id, base_dir) for m in spec.members
    }
    return combine_volumes(spec, volumes)
