"""Combine stored member predictions into a single segmentation.

Members are (model, fold, checkpoint) provenance tags plus a path to the
stored prediction: a 4D probability stack for ``prob_avg`` mode or a label
volume for ``majority`` mode.  Combination is a pure reduction over files;
there is no model inference and no test-time augmentation here.

Members are always reduced in member_id order regardless of how the spec
lists them, which makes both modes bit-exactly invariant under permutation
of the member list.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError, GridMismatchError, ValidationError
from .nifti import read_volume
from .volume import Volume, check_same_grid, label_argmax, unique_labels

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
        if not self.weight > 0:
            raise ConfigError(f"member {self.member_id}: weight must be > 0, got {self.weight}")

    def resolve_path(self, case_id: Optional[str] = None, base_dir: Optional[Path] = None) -> Path:
        """Concrete prediction file for one case.

        Paths may contain a ``{case}`` placeholder or point at a directory
        holding ``<case_id>.nii.gz`` files; both require a case id.
        """
        text = self.path
        if CASE_PLACEHOLDER in text:
            if case_id is None:
                raise ConfigError(
                    f"member {self.member_id}: path template needs a case id"
                )
            text = text.replace(CASE_PLACEHOLDER, case_id)
        path = Path(text)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if path.is_dir():
            if case_id is None:
                raise ConfigError(f"member {self.member_id}: directory path needs a case id")
            path = path / f"{case_id}.nii.gz"
        return path


@dataclass(frozen=True)
class EnsembleSpec:
    members: tuple[EnsembleMember, ...]
    mode: str = "prob_avg"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ConfigError("an ensemble needs at least one member")
        if self.mode not in ENSEMBLE_MODES:
            raise ConfigError(f"mode must be one of {ENSEMBLE_MODES}, got {self.mode!r}")
        ids = [m.member_id for m in self.members]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"duplicate member_id(s): {dupes}")

    def sorted_members(self) -> tuple[EnsembleMember, ...]:
        return tuple(sorted(self.members, key=lambda m: m.member_id))


def read_member_file(path: Path, what: str) -> tuple[dict, tuple[EnsembleMember, ...]]:
    """Decode a JSON object file and parse its ``members`` list (default empty).

    Ensemble specs and candidate pools share this parser.  Every malformed
    input, from unreadable bytes to a mistyped member field, is a FormatError
    naming ``what`` and the file.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} {path} must hold a JSON object")
    entries = doc.get("members", [])
    if not isinstance(entries, list):
        raise FormatError(f"{what} {path}: 'members' must be a list")
    members = []
    for i, entry in enumerate(entries):
        where = f"{what} {path}: member {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object, got {entry!r}")
        try:
            member_id, member_path = entry["member_id"], entry["path"]
            fold = int(entry.get("fold", 0))
            weight = float(entry.get("weight", 1.0))
        except KeyError as exc:
            raise FormatError(f"{where} is missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{where}: fold and weight must be numbers ({exc})") from exc
        if not isinstance(member_id, str) or not isinstance(member_path, str):
            raise FormatError(f"{where}: member_id and path must be strings")
        members.append(
            EnsembleMember(
                member_id=member_id,
                path=member_path,
                model_tag=entry.get("model_tag", ""),
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
    if "members" not in doc:
        raise FormatError(f"ensemble spec {path} must be an object with a 'members' list")
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


def average_probabilities(stacks: Sequence[Volume], weights: Optional[Sequence[float]] = None) -> Volume:
    """Weighted per-voxel, per-class mean of probability stacks, renormalized."""
    stacks = list(stacks)
    if not stacks:
        raise ValidationError("no probability stacks to average")
    if any(v.kind != "probabilities" for v in stacks):
        raise ValidationError("average_probabilities expects probability stacks")
    if weights is None:
        weights = [1.0] * len(stacks)
    weights = [float(w) for w in weights]
    if len(weights) != len(stacks):
        raise ValidationError("weights length must match the member count")
    if any(w <= 0 for w in weights):
        raise ValidationError(f"weights must be positive, got {weights}")
    _check_grids(stacks)
    classes = {v.n_classes for v in stacks}
    if len(classes) != 1:
        raise GridMismatchError(f"class counts differ across members: {sorted(classes)}")

    acc = np.zeros(stacks[0].data.shape, dtype=np.float64)
    for v, w in zip(stacks, weights):
        acc += w * v.data.astype(np.float64, copy=False)
    acc /= sum(weights)
    acc /= acc.sum(axis=-1, keepdims=True)
    return Volume(
        data=acc,
        spacing=stacks[0].spacing,
        origin=stacks[0].origin,
        kind="probabilities",
    )


def argmax_labels(p: Volume) -> Volume:
    """Per-voxel argmax class; ties go to the lowest class index."""
    if p.kind != "probabilities":
        raise ValidationError(f"argmax_labels expects a probability stack, got {p.kind}")
    labels = np.argmax(p.data, axis=-1).astype(np.int32)
    return Volume(data=labels, spacing=p.spacing, origin=p.origin, kind="labels")


def majority_vote(label_members: Sequence[Volume], weights: Optional[Sequence[float]] = None) -> Volume:
    """Weighted per-voxel plurality over label volumes; ties to lowest label."""
    label_members = list(label_members)
    if not label_members:
        raise ValidationError("no label volumes to vote over")
    if any(v.kind != "labels" for v in label_members):
        raise ValidationError("majority_vote expects label volumes")
    if weights is None:
        weights = [1.0] * len(label_members)
    weights = [float(w) for w in weights]
    if len(weights) != len(label_members):
        raise ValidationError("weights length must match the member count")
    if any(w <= 0 for w in weights):
        raise ValidationError(f"weights must be positive, got {weights}")
    _check_grids(label_members)

    def votes(value):
        acc = weights[0] * (label_members[0].data == value)
        for v, w in zip(label_members[1:], weights[1:]):
            acc += w * (v.data == value)
        return acc

    values = np.unique(np.concatenate([unique_labels(v.data) for v in label_members]))
    out = label_argmax(values, votes, label_members[0].dims).astype(np.int32, copy=False)
    return Volume(
        data=out,
        spacing=label_members[0].spacing,
        origin=label_members[0].origin,
        kind="labels",
    )


def combine_volumes(spec: EnsembleSpec, volumes: Mapping[str, Volume]) -> Volume:
    """Combine already-loaded member volumes keyed by member_id."""
    ordered = spec.sorted_members()
    missing = [m.member_id for m in ordered if m.member_id not in volumes]
    if missing:
        raise ValidationError(f"no volume supplied for member(s) {missing}")
    vols = [volumes[m.member_id] for m in ordered]
    weights = [m.weight for m in ordered]
    if spec.mode == "prob_avg":
        return argmax_labels(average_probabilities(vols, weights))
    return majority_vote(vols, weights)


def load_member_volume(
    member: EnsembleMember,
    mode: str,
    case_id: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> Volume:
    kind = "probabilities" if mode == "prob_avg" else "labels"
    path = member.resolve_path(case_id, base_dir)
    try:
        return read_volume(path, kind=kind, label_set=None)
    except FormatError as exc:
        raise FormatError(f"member {member.member_id}: {exc}") from exc


def combine(
    spec: EnsembleSpec,
    case_id: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> Volume:
    """Load every member's prediction for one case and combine them."""
    volumes = {
        m.member_id: load_member_volume(m, spec.mode, case_id, base_dir)
        for m in spec.sorted_members()
    }
    return combine_volumes(spec, volumes)
