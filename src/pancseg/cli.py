"""Batch command-line surface: resample, augment, ensemble, evaluate, select.

Conventions across all subcommands:

- each subcommand computes one document (JSON or CSV); stdout carries it,
  ``--out`` copies it (written first, so a failed write prints nothing), and
  stderr carries only diagnostics.  A JSON document's last key is its
  provenance: the tool version, the resolved configuration and a sha256
  digest of every input file, taken before any output is written, unless
  ``--no-provenance`` (eval-case, eval-cohort) is given.  Documents hold no
  timestamps, so reruns over identical inputs are byte-identical;
- no two outputs of one run may be the same file (an output may replace an
  input);
- exit 0 on success, 1 on validation/config errors, 2 on I/O or format
  errors; ``--json-errors`` emits a machine-readable error object on stderr;
- shared options resolve as config file < PANCSEG_* environment < flags.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import __version__
from .augment import apply_pipeline, load_preset, preset
from .ensemble import EnsembleSpec, check_ids, combine, load_ensemble_spec, save_ensemble_spec
from .errors import ConfigError, FormatError, PancsegError
from .geometry import IMAGE_ORDERS, LABEL_ORDERS, ResamplePlan, resample_image, resample_labels
from .metrics import EMPTY_POLICIES, VOLUME_UNITS, BinaryMask, EvalConfig
from .metrics import aggregate_cohort, evaluate_case
from .nifti import read_volume, write_volume
from .report import (
    case_report_to_dict,
    config_to_dict,
    dumps_json,
    format_sig,
    report_to_csv,
    report_to_dict,
    round_sig,
)
from .schedules import DEFAULT_EXPONENT, FAMILIES, ScheduleSpec, schedule_curve
from .selection import (
    DEFAULT_BUDGET,
    DEFAULT_WEIGHTS,
    METRIC_NAMES,
    NORMALIZATIONS,
    SubsetEvaluator,
    beam_search_subsets,
    check_weights,
    load_pool,
    search_subsets,
)
from .volume import (
    Volume,
    parse_float,
    parse_int,
    read_json_object,
    read_manifest,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

ENV_PREFIX = "PANCSEG_"


class UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the documented contract is 1
    def error(self, message):
        raise UsageError(self, message)


@dataclass(frozen=True)
class RunConfig(EvalConfig):
    """The evaluation options, checked first, plus the run-wide ones."""

    seed: Optional[int] = None
    jobs: int = 1
    norm: str = "minmax"
    metric_weights: tuple[float, ...] = DEFAULT_WEIGHTS

    def __post_init__(self):
        super().__post_init__()
        if not self.jobs >= 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.norm not in NORMALIZATIONS:
            raise ConfigError(f"normalization must be one of {NORMALIZATIONS}, got {self.norm!r}")
        check_weights(self.metric_weights)


# The one table of shared options: every RunConfig field and the parser that its
# config-file value, PANCSEG_* text (comma-separated for a sequence) and flag
# value all go through.  Each flag stores to its field's name (argparse dest).
_CONFIG_PARSERS = {
    "label_id": parse_int,
    "tolerance_mm": parse_float,
    "empty_policy": str,
    "volume_unit": str,
    "seed": parse_int,
    "jobs": parse_int,
    "norm": str,
    "metric_weights": lambda v: tuple(map(parse_float, v.split(",") if isinstance(v, str) else v)),
}


def load_config_file(path: str | Path) -> dict:
    """Strict JSON config: every key must be a known RunConfig field."""
    path = Path(path)
    doc = read_json_object(path, "config file")
    out = {}
    for key, value in doc.items():
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        try:
            out[key] = _CONFIG_PARSERS[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r} in {path}: {exc}") from exc
    return out


def _env_overrides() -> dict:
    out = {}
    for key, parse in _CONFIG_PARSERS.items():
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is None:
            continue
        try:
            out[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"environment {ENV_PREFIX}{key.upper()}={raw!r}: {exc}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults < config file < environment < explicit flags."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        values.update(load_config_file(config_path))
    values.update(_env_overrides())
    for key, parse in _CONFIG_PARSERS.items():
        value = getattr(args, key, None)
        if value is not None:
            values[key] = parse(value)
    return RunConfig(**values)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise FormatError(f"cannot digest {path}: {exc}") from exc
    return "sha256:" + h.hexdigest()


def _digest_inputs(args, inputs, digests: Optional[dict] = None) -> Optional[dict]:
    """``digests`` (a new dict by default) with each input not yet in it
    hashed once; None under ``--no-provenance``.  Commands call it before
    they write any output, so an output that replaces an input cannot change
    the digest recorded for that input."""
    if getattr(args, "no_provenance", False):
        return None
    digests = {} if digests is None else digests
    for path in map(str, inputs):
        if path not in digests:
            digests[path] = sha256_file(path)
    return digests


def _document(doc: dict, config_echo: dict, digests: Optional[dict]) -> str:
    """``doc`` as JSON text, with its provenance as the last key unless
    ``digests`` is None (``--no-provenance``); inputs are listed in path
    order."""
    if digests is not None:
        doc["provenance"] = {
            "tool": "pancseg",
            "version": __version__,
            "config": config_echo,
            "inputs": dict(sorted(digests.items())),
        }
    return dumps_json(doc)


def _output_path(path: str | Path) -> Path:
    """An output file's path, with its parent directories created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _check_outputs(args, *paths) -> None:
    """Raise ConfigError when two of a run's outputs, ``paths`` (None for
    one not asked for) plus ``--out``, resolve to one file; commands call it
    before they write anything."""
    seen = {}
    for path in (*paths, args.out):
        if path is None:
            continue
        key = os.path.realpath(path)
        if key in seen:
            raise ConfigError(f"outputs {seen[key]} and {path} are the same file")
        seen[key] = path


def _write_text(path: str | Path, text: str) -> None:
    _output_path(path).write_text(text, encoding="utf-8")


def _write_output_volume(volume: Volume, path: str | Path) -> str:
    """Write one output volume; return its digest for the report."""
    path = _output_path(path)
    write_volume(volume, path)
    return sha256_file(path)


def _rebased(path: str, base_dir, new_dir) -> str:
    """A relative path named in a file in ``base_dir``, rewritten to name the
    same file from ``new_dir``; an absolute path stays as written."""
    if Path(path).is_absolute():
        return path
    return os.path.relpath(Path(base_dir) / path, new_dir)


def _default_case_id(path: str | Path) -> str:
    name = Path(path).name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return Path(path).stem


# ---------------------------------------------------------------- subcommands


def cmd_resample(args, cfg: RunConfig) -> str:
    _check_outputs(args, args.output)
    volume = read_volume(args.input, kind=args.kind, label_set=None)
    plan = ResamplePlan.for_volume(
        volume,
        target_spacing=tuple(args.spacing),
        image_order=args.image_order,
        label_order=args.label_order,
        clamp_cubic=args.clamp_cubic,
    )
    if args.kind == "image":
        out = resample_image(volume, plan)
    else:
        out = resample_labels(volume, plan)
    digests = _digest_inputs(args, [args.input])
    outputs = {str(Path(args.output)): _write_output_volume(out, args.output)}
    echo = {
        "command": "resample",
        "kind": args.kind,
        "target_spacing": [round_sig(s) for s in plan.target_spacing],
        "target_dims": list(plan.target_dims),
        "image_order": plan.image_order,
        "label_order": plan.label_order,
        "clamp_cubic": plan.clamp_cubic,
    }
    return _document({"outputs": outputs}, echo, digests)


def cmd_augment(args, cfg: RunConfig) -> str:
    _check_outputs(args, args.out_image, args.out_labels)
    img = read_volume(args.image, kind="image")
    lab = read_volume(args.labels, kind="labels", label_set=None)
    if args.preset_file:
        pre = load_preset(args.preset_file)
    else:
        pre = preset(args.preset)
    if cfg.seed is not None:
        pre = replace(pre, seed=cfg.seed)
    img_out, lab_out = apply_pipeline(img, lab, pre)
    inputs = [args.image, args.labels] + ([args.preset_file] if args.preset_file else [])
    digests = _digest_inputs(args, inputs)
    outputs = {
        str(path): _write_output_volume(vol, path)
        for path, vol in ((args.out_image, img_out), (args.out_labels, lab_out))
    }
    echo = {
        "command": "augment",
        "preset": pre.name,
        "image_order": pre.image_order,
        "label_order": pre.label_order,
        "seed": pre.seed,
    }
    return _document({"outputs": outputs}, echo, digests)


def cmd_ensemble(args, cfg: RunConfig) -> str:
    # argparse has taken exactly one of --case-id, --cases and --manifest, and
    # one of --output and --output-dir
    if (args.case_id is None) != (args.output is None):
        raise ConfigError("--case-id goes with --output; --cases and --manifest with --output-dir")
    spec_path = Path(args.spec)
    spec = load_ensemble_spec(spec_path)
    base_dir = spec_path.parent

    if args.manifest is not None:
        case_ids = [row.case_id for row in read_manifest(args.manifest)]
    else:
        case_ids = [args.case_id] if args.cases is None else args.cases
        check_ids(case_ids, "case_id")
    if args.output is not None:
        out_paths = [Path(args.output)]
    else:
        out_paths = [Path(args.output_dir) / f"{c}.nii.gz" for c in case_ids]
    _check_outputs(args, *out_paths)

    outputs = {}
    inputs = [spec_path] + ([args.manifest] if args.manifest is not None else [])
    digests = _digest_inputs(args, inputs)
    for case_id, out_path in zip(case_ids, out_paths):
        combined = combine(spec, case_id=case_id, base_dir=base_dir)
        _digest_inputs(args, [m.resolve_path(case_id, base_dir) for m in spec.members], digests)
        outputs[str(out_path)] = _write_output_volume(combined, out_path)

    echo = {
        "command": "ensemble",
        "mode": spec.mode,
        "members": [m.member_id for m in spec.members],
    }
    return _document({"outputs": outputs}, echo, digests)


def _evaluate_files(ref_path, pred_path, config: EvalConfig, case_id: str):
    """Read and mask both label maps, then score them; each map is dropped
    once its mask exists."""
    ref, pred = (
        BinaryMask.from_labels(read_volume(path, kind="labels"), config.label_id)
        for path in (ref_path, pred_path)
    )
    return evaluate_case(ref, pred, config, case_id=case_id)


def cmd_eval_case(args, cfg: RunConfig) -> str:
    case_id = args.case_id or _default_case_id(args.pred)
    case = _evaluate_files(args.ref, args.pred, cfg, case_id)
    digests = _digest_inputs(args, [args.ref, args.pred])
    return _document(case_report_to_dict(case, cfg), config_to_dict(cfg), digests)


def _evaluate_manifest(manifest, config: EvalConfig, jobs: int):
    def one(row):
        return _evaluate_files(row.reference, row.prediction, config, row.case_id)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, manifest))
    return [one(row) for row in manifest]


def cmd_eval_cohort(args, cfg: RunConfig) -> str:
    manifest = read_manifest(args.manifest)
    cases = _evaluate_manifest(manifest, cfg, cfg.jobs)
    report = aggregate_cohort(cases, cfg)
    if args.csv:
        return report_to_csv(report)
    inputs = [args.manifest]
    for row in manifest:
        inputs += [row.reference, row.prediction]
    return _document(report_to_dict(report), config_to_dict(cfg), _digest_inputs(args, inputs))


def cmd_select(args, cfg: RunConfig) -> str:
    if not args.top >= 0:
        raise ConfigError(f"--top must be >= 0, got {args.top}")
    if args.beam is not None and args.size_min != 1:
        raise ConfigError(f"--beam grows subsets from size 1; got --size-min {args.size_min}")
    if args.beam is not None and args.budget is not None:
        raise ConfigError("--budget bounds exhaustive search; --beam takes no budget")
    _check_outputs(args, args.spec_out, args.report_out)
    pool = load_pool(args.pool)
    size_min = args.size_min
    size_max = args.size_max if args.size_max is not None else len(pool.members)
    evaluator = SubsetEvaluator(pool, cfg)
    if args.beam is not None:
        results = beam_search_subsets(
            pool,
            size_max=size_max,
            beam_width=args.beam,
            weights=cfg.metric_weights,
            norm=cfg.norm,
            evaluator=evaluator,
        )
    else:
        results = search_subsets(
            pool,
            size_min=size_min,
            size_max=size_max,
            weights=cfg.metric_weights,
            norm=cfg.norm,
            budget=DEFAULT_BUDGET if args.budget is None else args.budget,
            evaluator=evaluator,
        )

    ranking = [
        {
            "rank": rank,
            "member_ids": list(res.member_ids),
            "score": round_sig(res.score.score),
            "normalized": {
                name: round_sig(value) for name, value in zip(METRIC_NAMES, res.score.normalized)
            },
            "report": report_to_dict(res.report),
        }
        for rank, res in enumerate(results[: args.top], start=1)
    ]
    echo = {
        "command": "select",
        "mode": pool.mode,
        "normalization": cfg.norm,
        "metric_weights": [round_sig(w) for w in cfg.metric_weights],
        "size_min": size_min,
        "size_max": size_max,
        "beam_width": args.beam,
        **config_to_dict(cfg),
    }
    inputs = [args.pool] + ([pool.manifest] if pool.manifest else [])
    for case_id, ref_path in pool.cases:
        inputs.append(evaluator.base_dir / ref_path)
        inputs += [m.resolve_path(case_id, evaluator.base_dir) for m in pool.members]
    digests = _digest_inputs(args, inputs)
    winner = results[0]
    if args.spec_out:
        spec_path = _output_path(args.spec_out)
        members = tuple(
            replace(m, path=_rebased(m.path, evaluator.base_dir, spec_path.parent))
            for m in pool.members
            if m.member_id in winner.member_ids
        )
        save_ensemble_spec(EnsembleSpec(members=members, mode=pool.mode), spec_path)
    if args.report_out:
        _write_text(args.report_out, dumps_json(report_to_dict(winner.report)))

    doc = {"config": echo, "n_evaluated": len(results), "ranking": ranking}
    return _document(doc, echo, digests)


def cmd_lr_curve(args, cfg: RunConfig) -> str:
    spec = ScheduleSpec(
        family=args.family,
        lr0=args.lr0,
        max_epochs=args.max_epochs,
        exponent=args.exponent,
        warmup_epochs=args.warmup_epochs,
    )
    lines = ["epoch,lr"]
    for epoch, lr in schedule_curve(spec):
        lines.append(f"{epoch},{format_sig(lr)}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file with shared option defaults")
    common.add_argument(
        "--json-errors",
        action="store_true",
        help="emit a machine-readable error object on stderr",
    )
    common.add_argument("--out", help="also write the stdout document to this file")

    eval_opts = _Parser(add_help=False)
    eval_opts.add_argument("--label", dest="label_id", type=int, help="tumor label id (default 2)")
    eval_opts.add_argument(
        "--tolerance", dest="tolerance_mm", type=float, help="surface dice tolerance in mm (default 5.0)"
    )
    eval_opts.add_argument(
        "--empty-policy", choices=EMPTY_POLICIES, help="empty-mask policy"
    )
    eval_opts.add_argument("--volume-unit", choices=VOLUME_UNITS, help="unit for volume RMSE")

    parser = _Parser(prog="pancseg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pancseg {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("resample", parents=[common], help="change a volume's voxel spacing")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kind", choices=("image", "labels"), default="image")
    p.add_argument("--spacing", type=float, nargs=3, required=True, metavar=("SX", "SY", "SZ"))
    p.add_argument("--image-order", type=int, choices=IMAGE_ORDERS, default=3)
    p.add_argument("--label-order", type=int, choices=LABEL_ORDERS, default=1)
    p.add_argument("--clamp-cubic", action="store_true")
    p.set_defaults(handler=cmd_resample)

    p = sub.add_parser("augment", parents=[common], help="apply a deterministic augmentation preset")
    p.add_argument("--image", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-image", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--preset", default="da5", help="named preset (da5, da5ord0, da5segord0, default)")
    p.add_argument("--preset-file", help="JSON preset file (overrides --preset)")
    p.add_argument("--seed", type=int, help="pipeline seed")
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("ensemble", parents=[common], help="combine member predictions")
    p.add_argument("--spec", required=True, help="ensemble spec JSON")
    cases = p.add_mutually_exclusive_group(required=True)
    cases.add_argument("--case-id", help="single case id")
    cases.add_argument("--cases", nargs="+", help="explicit case ids")
    cases.add_argument("--manifest", help="manifest CSV naming the case ids")
    outputs = p.add_mutually_exclusive_group(required=True)
    outputs.add_argument("--output", help="output file for --case-id")
    outputs.add_argument("--output-dir", help="output directory for --cases or --manifest")
    p.set_defaults(handler=cmd_ensemble)

    p = sub.add_parser(
        "eval-case", parents=[common, eval_opts], help="five metrics for one ref/pred pair"
    )
    p.add_argument("--ref", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--case-id")
    p.add_argument("--no-provenance", action="store_true")
    p.set_defaults(handler=cmd_eval_case)

    p = sub.add_parser(
        "eval-cohort", parents=[common, eval_opts], help="evaluate every case in a manifest"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--jobs", type=int, help="parallel case evaluations")
    p.add_argument("--no-provenance", action="store_true")
    p.set_defaults(handler=cmd_eval_cohort)

    p = sub.add_parser(
        "select", parents=[common, eval_opts], help="search for the best ensemble subset"
    )
    p.add_argument("--pool", required=True, help="candidate pool JSON")
    p.add_argument("--size-min", type=int, default=1)
    p.add_argument("--size-max", type=int)
    p.add_argument("--norm", choices=NORMALIZATIONS, help="metric normalization")
    p.add_argument(
        "--metric-weights",
        type=float,
        nargs=len(METRIC_NAMES),
        metavar=("W_DICE", "W_SDICE", "W_MASD", "W_HD95", "W_RMSE"),
    )
    p.add_argument("--budget", type=int, help=f"exhaustive search limit (default {DEFAULT_BUDGET})")
    p.add_argument("--beam", type=int, help="beam width (enables beam search)")
    p.add_argument("--top", type=int, default=10, help="ranking entries to emit")
    p.add_argument("--spec-out", help="write the winning ensemble spec here")
    p.add_argument("--report-out", help="write the winning cohort report here")
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("lr-curve", parents=[common], help="emit an (epoch, lr) CSV")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--lr0", type=float, required=True)
    p.add_argument("--max-epochs", type=int, required=True)
    p.add_argument("--exponent", type=float, default=DEFAULT_EXPONENT)
    p.add_argument("--warmup-epochs", type=int, default=0)
    p.set_defaults(handler=cmd_lr_curve)

    return parser


def _emit_error(exc: Exception, exit_code: int, json_errors: bool):
    if json_errors:
        doc = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exit_code,
            }
        }
        sys.stderr.write(json.dumps(doc) + "\n")
    else:
        sys.stderr.write(f"pancseg: error: {exc}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        # argparse stopped before it set args.json_errors: read the raw flag,
        # or an abbreviation that argparse would take for it
        raw = sys.argv[1:] if argv is None else argv
        if any(len(t) >= 4 and "--json-errors".startswith(t) for t in raw):
            _emit_error(exc, EXIT_VALIDATION, True)
        else:
            exc.parser.print_usage(sys.stderr)
            sys.stderr.write(f"pancseg: error: {exc}\n")
        return EXIT_VALIDATION
    json_errors = bool(getattr(args, "json_errors", False))
    try:
        cfg = resolve_config(args)
        text = args.handler(args, cfg)
        if args.out:
            _write_text(args.out, text)
        sys.stdout.write(text)
        return EXIT_OK
    except (FormatError, OSError) as exc:
        _emit_error(exc, EXIT_IO, json_errors)
        return EXIT_IO
    except PancsegError as exc:
        _emit_error(exc, EXIT_VALIDATION, json_errors)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
