from __future__ import annotations

import csv
import dataclasses
import gzip
import hashlib
import io
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from pancseg import cli, ensemble, nifti
from pancseg.cli import _CONFIG_PARSERS, RunConfig, build_parser, main, resolve_config
from pancseg.ensemble import EnsembleMember, EnsembleSpec, combine_volumes, load_ensemble_spec, save_ensemble_spec
from pancseg.nifti import read_volume, write_volume
from pancseg.schedules import MAX_EPOCHS
from pancseg.volume import Volume

from conftest import damaged_gzip, image_volume, probability_volume, raw_nifti

SPACING = (1.0, 1.0, 1.5)


def _ball(dims=(10, 10, 10), shift=(0, 0, 0), radius=3.2):
    grid = np.indices(dims).astype(np.float64)
    center = [d / 2.0 - 0.5 + s for d, s in zip(dims, shift)]
    dist2 = sum((grid[i] - center[i]) ** 2 for i in range(3))
    return (dist2 <= radius**2).astype(np.int32) * 2


def _write_labels(path, arr, spacing=SPACING):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_volume(Volume(arr, spacing, kind="labels"), path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- resample


def test_resample_beyond_the_byte_budget_exits_one_before_resampling(tmp_path, capsys, monkeypatch):
    # 8e8 target voxels, which the kernel killed when run; the samplers are
    # replaced, so nothing that size can be allocated here
    source = tmp_path / "map.nii.gz"
    _write_labels(source, np.zeros((20, 20, 20), dtype=np.uint8), spacing=(1.0, 1.0, 1.0))

    def refuse(volume, plan):
        raise AssertionError(f"resampled onto {plan.target_dims}")

    monkeypatch.setattr(cli, "resample_image", refuse)
    monkeypatch.setattr(cli, "resample_labels", refuse)
    for kind in ("image", "labels"):
        argv = ["resample", "--input", str(source), "--output", str(tmp_path / "out.nii.gz"),
                "--kind", kind, "--spacing", "1e-5", "1", "1", "--json-errors"]
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ConfigError", 1)
        assert "budget" in error["message"]
    assert not (tmp_path / "out.nii.gz").exists()


def test_resample_command_round_trip(tmp_path, capsys, rng):
    src = tmp_path / "img.nii.gz"
    write_volume(image_volume(rng, (8, 8, 8), (2.0, 2.0, 2.0)), src)
    dst = tmp_path / "out" / "img_1mm.nii.gz"
    code, out, err = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(dst),
        "--spacing", "1", "1", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["config"]["target_dims"] == [16, 16, 16]
    digest = "sha256:" + hashlib.sha256(dst.read_bytes()).hexdigest()
    assert doc["outputs"][str(dst)] == digest
    back = read_volume(dst, kind="image")
    assert back.data.shape == (16, 16, 16)
    assert back.spacing == (1.0, 1.0, 1.0)


def test_resample_identity_order0_is_bit_exact(tmp_path, capsys, rng):
    src = tmp_path / "img.nii.gz"
    vol = image_volume(rng, (6, 7, 5), SPACING)
    write_volume(vol, src)
    dst = tmp_path / "copy.nii.gz"
    code, out, _ = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(dst),
        "--spacing", *map(str, SPACING), "--image-order", "0",
    )
    assert code == 0
    assert np.array_equal(read_volume(dst, kind="image").data, vol.data)


@pytest.mark.parametrize("spacing", [("1e-300", "1", "1"), ("1e-4", "1e-4", "1e-4")])
def test_resample_over_the_voxel_budget_is_a_config_error(tmp_path, capsys, spacing):
    src = tmp_path / "lab.nii.gz"
    _write_labels(src, _ball(dims=(4, 4, 4), radius=1.2))
    out_file = tmp_path / "out.nii.gz"
    code, out, err = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(out_file), "--kind", "labels",
        "--spacing", *spacing, "--json-errors",
    )
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "voxels" in doc["error"]["message"]
    assert not out_file.exists()


def test_resample_beyond_the_float32_header_is_a_header_limit_error(tmp_path, capsys):
    src = tmp_path / "lab.nii.gz"
    _write_labels(src, _ball(dims=(4, 4, 4), radius=1.2))
    out_file = tmp_path / "out.nii.gz"
    code, out, err = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(out_file), "--kind", "labels",
        "--spacing", "1e39", "1", "1", "--json-errors",
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "HeaderLimitError"
    assert "float32" in doc["error"]["message"]
    assert not out_file.exists()


@pytest.mark.parametrize("label_order", ["0", "1"])
def test_resample_far_past_int64_clamps_to_the_last_voxel(tmp_path, capsys, label_order):
    # the one output voxel samples source coordinate 0.5e20 - 0.5, beyond
    # int64: its taps clamp to the last voxel instead of wrapping to the first
    src = tmp_path / "lab.nii.gz"
    _write_labels(src, np.array([0, 0, 0, 2]).reshape(4, 1, 1), spacing=(1.0, 1.0, 1.0))
    dst = tmp_path / "out.nii.gz"
    code, _, err = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(dst), "--kind", "labels",
        "--spacing", "1e20", "1", "1", "--label-order", label_order,
    )
    assert code == 0, err
    assert read_volume(dst, kind="labels").data.ravel().tolist() == [2]


def test_in_place_resample_records_the_digest_of_the_file_it_read(tmp_path, capsys):
    src = tmp_path / "a.nii.gz"
    _write_labels(src, _ball(), spacing=(1.0, 1.0, 1.0))
    digest_read = "sha256:" + hashlib.sha256(src.read_bytes()).hexdigest()
    code, out, err = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(src),
        "--kind", "labels", "--spacing", "2", "2", "2",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["provenance"]["inputs"] == {str(src): digest_read}
    assert doc["outputs"][str(src)] != digest_read


def test_resample_labels_kind(tmp_path, capsys):
    src = tmp_path / "lab.nii.gz"
    _write_labels(src, _ball(), spacing=(2.0, 2.0, 2.0))
    dst = tmp_path / "lab_1mm.nii.gz"
    code, out, _ = _run(
        capsys,
        "resample", "--input", str(src), "--output", str(dst),
        "--kind", "labels", "--spacing", "1", "1", "1",
    )
    assert code == 0
    back = read_volume(dst, kind="labels")
    assert back.data.shape == (20, 20, 20)
    assert set(np.unique(back.data)) <= {0, 2}


# ---------------------------------------------------------------- augment


def test_augment_command_is_deterministic(tmp_path, capsys, rng):
    img = tmp_path / "img.nii.gz"
    lab = tmp_path / "lab.nii.gz"
    write_volume(image_volume(rng, (9, 9, 9), SPACING), img)
    _write_labels(lab, _ball(dims=(9, 9, 9), radius=2.5))
    args = (
        "augment", "--image", str(img), "--labels", str(lab),
        "--preset", "da5", "--seed", "11",
    )
    code1, out1, _ = _run(
        capsys, *args,
        "--out-image", str(tmp_path / "a_img.nii.gz"),
        "--out-labels", str(tmp_path / "a_lab.nii.gz"),
    )
    code2, out2, _ = _run(
        capsys, *args,
        "--out-image", str(tmp_path / "b_img.nii.gz"),
        "--out-labels", str(tmp_path / "b_lab.nii.gz"),
    )
    assert code1 == code2 == 0
    assert (tmp_path / "a_img.nii.gz").read_bytes() == (tmp_path / "b_img.nii.gz").read_bytes()
    assert (tmp_path / "a_lab.nii.gz").read_bytes() == (tmp_path / "b_lab.nii.gz").read_bytes()
    doc = json.loads(out1)
    assert doc["provenance"]["config"]["preset"] == "da5"
    assert doc["provenance"]["config"]["seed"] == 11


def test_augment_with_preset_file(tmp_path, capsys, rng):
    img = tmp_path / "img.nii.gz"
    lab = tmp_path / "lab.nii.gz"
    write_volume(image_volume(rng, (8, 8, 8), SPACING), img)
    _write_labels(lab, _ball(dims=(8, 8, 8), radius=2.2))
    preset_file = tmp_path / "quiet.json"
    preset_file.write_text(json.dumps({"name": "quiet", "seed": 3, "transforms": []}))
    code, out, _ = _run(
        capsys,
        "augment", "--image", str(img), "--labels", str(lab),
        "--preset-file", str(preset_file),
        "--out-image", str(tmp_path / "o_img.nii.gz"),
        "--out-labels", str(tmp_path / "o_lab.nii.gz"),
    )
    assert code == 0
    assert json.loads(out)["provenance"]["config"]["preset"] == "quiet"
    # an empty transform list is the identity pipeline
    before = read_volume(img, kind="image").data
    after = read_volume(tmp_path / "o_img.nii.gz", kind="image").data
    assert np.array_equal(before, after)


MALFORMED_PRESETS = {
    "top_level_list": [{"name": "blur", "probability": 1.0}],
    "non_numeric_range": {"transforms": [{"name": "gamma", "gamma": ["a", 2]}]},
    "range_not_a_pair": {"transforms": [{"name": "gamma", "gamma": [0.7, 1.0, 1.5]}]},
    "scalar_range": {"transforms": [{"name": "gamma", "gamma": 1.5}]},
    "transform_not_an_object": {"transforms": ["gamma"]},
    # numbers must not truncate or pass as booleans
    "seed_not_integral": {"preset": "da5", "seed": 1.7},
    "image_order_not_integral": {"image_order": 3.2, "transforms": []},
    "label_order_boolean": {"label_order": True, "transforms": []},
    "probability_boolean": {"transforms": [{"name": "gamma", "probability": True}]},
    "range_boolean": {"transforms": [{"name": "gamma", "gamma": [True, 1.5]}]},
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_PRESETS))
def test_malformed_preset_file_exits_two_with_json_error(tmp_path, capsys, defect):
    img = tmp_path / "img.nii.gz"
    lab = tmp_path / "lab.nii.gz"
    write_volume(image_volume(np.random.default_rng(0), (4, 4, 4), SPACING), img)
    _write_labels(lab, _ball(dims=(4, 4, 4), radius=1.2))
    preset_file = tmp_path / "preset.json"
    preset_file.write_text(json.dumps(MALFORMED_PRESETS[defect]))
    code, out, err = _run(
        capsys,
        "augment", "--image", str(img), "--labels", str(lab),
        "--preset-file", str(preset_file),
        "--out-image", str(tmp_path / "o_img.nii.gz"),
        "--out-labels", str(tmp_path / "o_lab.nii.gz"),
        "--json-errors",
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert doc["error"]["exit_code"] == 2


# each transform's range keys are checked against its parameter names
BAD_RANGE_NAMES = {
    "misspelt_gamma": {"name": "gamma", "probability": 1.0, "gama": [0.7, 1.5]},
    "spatial_without_ranges": {"name": "spatial", "probability": 1.0},
    "sharpen_without_strength": {"name": "sharpen", "probability": 1.0, "sigma_mm": [1, 2]},
    "blur_extra_key": {"name": "blur", "sigma_mm": [0.5, 1.0], "strength": [1, 2]},
}


@pytest.mark.parametrize("defect", sorted(BAD_RANGE_NAMES))
def test_preset_range_names_exit_one_with_json_error(tmp_path, capsys, defect):
    preset_file = tmp_path / "preset.json"
    preset_file.write_text(json.dumps({"transforms": [BAD_RANGE_NAMES[defect]]}))
    argv = _json_input_argv(tmp_path, "preset file", preset_file)
    code, out, err = _run(capsys, *argv, "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert BAD_RANGE_NAMES[defect]["name"] in doc["error"]["message"]


@pytest.mark.parametrize("seed", range(8))
def test_preset_range_below_its_floor_exits_one_for_every_seed(tmp_path, capsys, seed):
    # a range is checked at its low end, not only at the value a seed draws
    preset_file = tmp_path / "preset.json"
    blur = {"name": "blur", "probability": 1, "sigma_mm": [-1, 1]}
    preset_file.write_text(json.dumps({"transforms": [blur]}))
    argv = _json_input_argv(tmp_path, "preset file", preset_file)
    code, out, err = _run(capsys, *argv, "--seed", str(seed), "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "blur.sigma_mm" in doc["error"]["message"]


def _augment_argv(tmp_path, *flags):
    img = tmp_path / "img.nii.gz"
    lab = tmp_path / "lab.nii.gz"
    write_volume(image_volume(np.random.default_rng(0), (6, 6, 6), SPACING), img)
    _write_labels(lab, _ball(dims=(6, 6, 6), radius=1.8))
    return [
        "augment", "--image", str(img), "--labels", str(lab), *flags,
        "--out-image", str(tmp_path / "o_img.nii.gz"),
        "--out-labels", str(tmp_path / "o_lab.nii.gz"), "--json-errors",
    ]


@pytest.mark.parametrize(
    "source, seed",
    [("flag", -1), ("flag", 2**64), ("env", -1), ("env", 2**64 + 5), ("config_file", -1)],
)
def test_seed_outside_64_bits_exits_one_with_one_json_error(
    tmp_path, capsys, monkeypatch, source, seed
):
    if source == "flag":
        argv = _augment_argv(tmp_path, "--preset", "da5", "--seed", str(seed))
    elif source == "env":
        monkeypatch.setenv("PANCSEG_SEED", str(seed))
        argv = _augment_argv(tmp_path, "--preset", "da5")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": seed}))
        argv = _augment_argv(tmp_path, "--preset", "da5", "--config", str(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    doc = json.loads(err)  # one JSON object, nothing else
    assert doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"] == f"seed must be in 0..2**64 - 1, got {seed}"
    assert not (tmp_path / "o_img.nii.gz").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_preset_file_seed_outside_64_bits_exits_two(tmp_path, capsys, seed):
    preset_file = tmp_path / "preset.json"
    preset_file.write_text(json.dumps({"preset": "da5", "seed": seed}))
    code, out, err = _run(capsys, *_augment_argv(tmp_path, "--preset-file", str(preset_file)))
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert f"seed must be in 0..2**64 - 1, got {seed}" in doc["error"]["message"]


def test_seeds_from_2_63_write_distinct_images_without_warning(tmp_path, capsys):
    written = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (2**63, 2**63 + 1, 2**64 - 1):
            argv = _augment_argv(tmp_path, "--preset", "da5", "--seed", str(seed))
            code, out, _ = _run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["provenance"]["config"]["seed"] == seed
            written[seed] = (tmp_path / "o_img.nii.gz").read_bytes()
    assert len(set(written.values())) == 3


# ---------------------------------------------------------------- ensemble


def _ensemble_fixture(tmp_path, rng, n_members=3, cases=("c1",)):
    members = []
    stacks = {case: {} for case in cases}
    for i in range(n_members):
        member_dir = tmp_path / f"m{i}"
        member_dir.mkdir()
        for case in cases:
            stack = probability_volume(rng, (5, 5, 5), SPACING)
            write_volume(stack, member_dir / f"{case}.nii.gz")
            stacks[case][f"m{i}"] = stack
        members.append(EnsembleMember(f"m{i}", f"m{i}/{{case}}.nii.gz"))
    spec = EnsembleSpec(members=tuple(members))
    spec_path = tmp_path / "spec.json"
    save_ensemble_spec(spec, spec_path)
    return spec, spec_path, stacks


def test_ensemble_single_case(tmp_path, capsys, rng):
    spec, spec_path, stacks = _ensemble_fixture(tmp_path, rng)
    out_file = tmp_path / "fused" / "c1.nii.gz"
    code, out, _ = _run(
        capsys,
        "ensemble", "--spec", str(spec_path), "--case-id", "c1",
        "--output", str(out_file),
    )
    assert code == 0
    fused = read_volume(out_file, kind="labels")
    want = combine_volumes(spec, stacks["c1"])
    assert np.array_equal(fused.data, want.data)
    doc = json.loads(out)
    assert doc["provenance"]["config"]["members"] == ["m0", "m1", "m2"]
    # every member file enters the provenance digests
    assert sum("m1/c1.nii.gz" in k for k in doc["provenance"]["inputs"]) == 1


def test_ensemble_cohort_with_explicit_cases(tmp_path, capsys, rng):
    spec, spec_path, stacks = _ensemble_fixture(tmp_path, rng, cases=("c1", "c2"))
    out_dir = tmp_path / "fused"
    code, out, _ = _run(
        capsys,
        "ensemble", "--spec", str(spec_path), "--cases", "c1", "c2",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    for case in ("c1", "c2"):
        got = read_volume(out_dir / f"{case}.nii.gz", kind="labels")
        want = combine_volumes(spec, stacks[case])
        assert np.array_equal(got.data, want.data)


def test_ensemble_missing_member_file_is_an_io_error(tmp_path, capsys, rng):
    spec, spec_path, _ = _ensemble_fixture(tmp_path, rng)
    code, out, err = _run(
        capsys,
        "ensemble", "--spec", str(spec_path), "--case-id", "missing_case",
        "--output", str(tmp_path / "x.nii.gz"),
    )
    assert code == 2
    assert "member" in err


def test_ensemble_unreadable_third_member_exits_two_after_reading_the_first_two(
    tmp_path, capsys, rng, monkeypatch
):
    _, spec_path, _ = _ensemble_fixture(tmp_path, rng)
    (tmp_path / "m2" / "c1.nii.gz").write_bytes(b"not a nifti file")
    read = []
    real = ensemble.read_volume

    def recording(path, **kwargs):
        read.append(path.parent.name)
        return real(path, **kwargs)

    monkeypatch.setattr(ensemble, "read_volume", recording)
    code, out, err = _run(
        capsys,
        "ensemble", "--spec", str(spec_path), "--case-id", "c1",
        "--output", str(tmp_path / "o.nii.gz"), "--json-errors",
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert doc["error"]["message"].startswith("member m2: ")
    # members are read and added in spec order, one at a time
    assert read == ["m0", "m1", "m2"]
    assert not (tmp_path / "o.nii.gz").exists()


def test_ensemble_case_id_requires_output(tmp_path, capsys, rng):
    _, spec_path, _ = _ensemble_fixture(tmp_path, rng)
    code, _, err = _run(capsys, "ensemble", "--spec", str(spec_path), "--case-id", "c1")
    assert code == 1
    assert "--output" in err


ENSEMBLE_FLAG_MISUSES = {
    "output_and_output_dir": ["--cases", "c1", "--output", "x.nii.gz", "--output-dir", "od"],
    "case_id_and_cases": [
        "--case-id", "c1", "--cases", "c2", "c3", "--output", "one.nii.gz", "--output-dir", "od2",
    ],
    "case_id_and_manifest": ["--case-id", "c1", "--manifest", "m.csv", "--output", "x.nii.gz"],
    "no_case_flag": ["--output-dir", "od"],
    "case_id_with_output_dir": ["--case-id", "c1", "--output-dir", "od"],
    "cases_with_output": ["--cases", "c1", "--output", "x.nii.gz"],
    "manifest_with_output": ["--manifest", "m.csv", "--output", "x.nii.gz"],
    "repeated_case": ["--cases", "c1", "c1", "--output-dir", "od"],
    "empty_case_id": ["--case-id", "", "--output", "x.nii.gz"],
    "empty_case_in_cases": ["--cases", "c1", "", "--output-dir", "od"],
}


@pytest.mark.parametrize("misuse", sorted(ENSEMBLE_FLAG_MISUSES))
def test_ensemble_flags_that_do_not_go_together_exit_one(
    tmp_path, capsys, rng, monkeypatch, misuse
):
    _, spec_path, _ = _ensemble_fixture(tmp_path, rng, cases=("c1", "c2", "c3"))
    (tmp_path / "m.csv").write_text("case_id,reference,prediction\nc1,r.nii.gz,p.nii.gz\n")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(
        capsys, "ensemble", "--spec", str(spec_path), *ENSEMBLE_FLAG_MISUSES[misuse],
        "--json-errors",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["exit_code"] == 1
    assert sorted(tmp_path.rglob("*")) == before  # nothing was written


_GOOD_MEMBERS = [{"member_id": "a", "path": "a/{case}.nii.gz"}, {"member_id": "b", "path": "b"}]
_CASES = [{"case_id": "c1", "reference": "refs/c1.nii.gz"}]

MALFORMED_MEMBER_FILES = {
    "member_not_an_object": {"members": [1], "cases": _CASES},
    "fold_not_a_number": {
        "members": [{"member_id": "a", "path": "p", "fold": "abc"}, _GOOD_MEMBERS[1]],
        "cases": _CASES,
    },
    "top_level_list": [{"members": _GOOD_MEMBERS, "cases": _CASES}],
    "case_without_reference": {"members": _GOOD_MEMBERS, "cases": [{"case_id": "c1"}]},
    "fold_not_integral": {"members": [dict(_GOOD_MEMBERS[0], fold=2.9)], "cases": _CASES},
    "fold_boolean": {"members": [dict(_GOOD_MEMBERS[0], fold=True)], "cases": _CASES},
    "weight_boolean": {"members": [dict(_GOOD_MEMBERS[0], weight=True)], "cases": _CASES},
    "model_tag_not_a_string": {"members": [dict(_GOOD_MEMBERS[0], model_tag=5)], "cases": _CASES},
    "no_members": {"cases": _CASES},
    "members_not_a_list": {"members": {"a": "p"}, "cases": _CASES},
}


@pytest.mark.parametrize(
    "command, defect",
    [
        ("ensemble", "member_not_an_object"),
        ("ensemble", "fold_not_a_number"),
        ("ensemble", "top_level_list"),
        ("select", "member_not_an_object"),
        ("select", "fold_not_a_number"),
        ("select", "top_level_list"),
        ("select", "case_without_reference"),
        ("ensemble", "fold_not_integral"),
        ("ensemble", "fold_boolean"),
        ("ensemble", "weight_boolean"),
        ("select", "fold_not_integral"),
        ("select", "fold_boolean"),
        ("select", "weight_boolean"),
        ("ensemble", "model_tag_not_a_string"),
        ("select", "model_tag_not_a_string"),
        ("ensemble", "no_members"),
        ("select", "no_members"),
        ("ensemble", "members_not_a_list"),
        ("select", "members_not_a_list"),
    ],
)
def test_malformed_member_file_exits_two_with_json_error(tmp_path, capsys, command, defect):
    path = tmp_path / "members.json"
    path.write_text(json.dumps(MALFORMED_MEMBER_FILES[defect]))
    if command == "ensemble":
        argv = ["ensemble", "--spec", str(path), "--case-id", "c1"]
        argv += ["--output", str(tmp_path / "o.nii.gz")]
    else:
        argv = ["select", "--pool", str(path)]
    code, out, err = _run(capsys, *argv, "--json-errors")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert doc["error"]["exit_code"] == 2
    assert str(path) in doc["error"]["message"]  # the member file, not a member volume


@pytest.mark.parametrize("command", ["ensemble", "select"])
@pytest.mark.parametrize("weight", ["Infinity", "1e999", "-Infinity", "NaN"])
def test_non_finite_member_weight_exits_one_with_json_error(tmp_path, capsys, command, weight):
    members = json.dumps(_GOOD_MEMBERS).replace('"b"}', f'"b", "weight": {weight}}}', 1)
    path = tmp_path / "members.json"
    path.write_text(f'{{"members": {members}, "cases": {json.dumps(_CASES)}}}')
    if command == "ensemble":
        argv = ["ensemble", "--spec", str(path), "--case-id", "c1"]
        argv += ["--output", str(tmp_path / "o.nii.gz")]
    else:
        argv = ["select", "--pool", str(path)]
    code, out, err = _run(capsys, *argv, "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "weight must be finite" in doc["error"]["message"]


# ---------------------------------------------------------------- evaluation


def test_eval_case_perfect_prediction(tmp_path, capsys):
    ref = tmp_path / "ref.nii.gz"
    pred = tmp_path / "tumor_pred.nii.gz"
    _write_labels(ref, _ball())
    _write_labels(pred, _ball())
    code, out, _ = _run(capsys, "eval-case", "--ref", str(ref), "--pred", str(pred))
    assert code == 0
    doc = json.loads(out)
    case = doc["case"]
    assert case["case_id"] == "tumor_pred"  # defaults to the prediction stem
    assert case["dice"] == 1.0
    assert case["masd_mm"] == 0.0
    assert case["hd95_mm"] == 0.0
    assert case["flags"] == []
    assert set(doc["provenance"]["inputs"]) == {str(ref), str(pred)}


def test_eval_case_no_provenance_and_out_file(tmp_path, capsys):
    ref = tmp_path / "ref.nii.gz"
    pred = tmp_path / "pred.nii.gz"
    _write_labels(ref, _ball())
    _write_labels(pred, _ball(shift=(1, 0, 0)))
    saved = tmp_path / "case.json"
    code, out, _ = _run(
        capsys,
        "eval-case", "--ref", str(ref), "--pred", str(pred),
        "--case-id", "c9", "--no-provenance", "--out", str(saved),
    )
    assert code == 0
    assert saved.read_text() == out
    doc = json.loads(out)
    assert "provenance" not in doc
    assert doc["case"]["case_id"] == "c9"
    assert 0.0 < doc["case"]["dice"] < 1.0


def test_failed_out_write_prints_no_document(tmp_path, capsys):
    ref = tmp_path / "b.nii.gz"
    _write_labels(ref, _ball())
    out_dir = tmp_path / "adir"
    out_dir.mkdir()
    code, out, err = _run(
        capsys,
        "eval-case", "--ref", str(ref), "--pred", str(ref), "--no-provenance",
        "--out", str(out_dir), "--json-errors",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["exit_code"] == 2


def test_eval_case_grid_mismatch_is_a_validation_error(tmp_path, capsys):
    ref = tmp_path / "ref.nii.gz"
    pred = tmp_path / "pred.nii.gz"
    _write_labels(ref, _ball(dims=(10, 10, 10)))
    _write_labels(pred, _ball(dims=(11, 11, 11)))
    code, _, err = _run(capsys, "eval-case", "--ref", str(ref), "--pred", str(pred))
    assert code == 1
    assert "error" in err


# A case with two defects reports the one its first failing step meets: both
# reads come before the grid check.
TWO_DEFECTS = {
    "unknown_ref_label_and_grid": ("LabelSetError", 1, "unknown label(s) [5]"),
    "truncated_pred_and_grid": ("FormatError", 2, "pred.nii.gz"),
    "grid_only": ("GridMismatchError", 1, "label volume grids differ"),
}


@pytest.mark.parametrize("command", ["eval-case", "eval-cohort"])
@pytest.mark.parametrize("defects", sorted(TWO_DEFECTS))
def test_eval_reports_the_first_of_two_defects(tmp_path, capsys, command, defects):
    ref = tmp_path / "ref.nii.gz"
    pred = tmp_path / "pred.nii.gz"
    ref_labels = _ball()
    if defects.startswith("unknown_ref_label"):
        ref_labels[0, 0, 0] = 5
    _write_labels(ref, ref_labels)
    _write_labels(pred, _ball(dims=(11, 11, 11)))
    if defects.startswith("truncated_pred"):
        pred.write_bytes(damaged_gzip(pred.read_bytes(), "truncated"))
    if command == "eval-case":
        argv = ["eval-case", "--ref", str(ref), "--pred", str(pred)]
    else:
        manifest = tmp_path / "cohort.csv"
        manifest.write_text(f"case_id,reference,prediction\nc1,{ref},{pred}\n")
        argv = ["eval-cohort", "--manifest", str(manifest)]
    code, out, err = _run(capsys, *argv, "--json-errors")
    error_type, exit_code, text = TWO_DEFECTS[defects]
    assert (code, out) == (exit_code, "")
    doc = json.loads(err)["error"]
    assert (doc["type"], doc["exit_code"]) == (error_type, exit_code)
    assert text in doc["message"]


def _cohort_fixture(tmp_path):
    rows = ["case_id,reference,prediction"]
    for i, shift in enumerate(((0, 0, 0), (1, 0, 0))):
        ref = tmp_path / f"ref_{i}.nii.gz"
        pred = tmp_path / f"pred_{i}.nii.gz"
        _write_labels(ref, _ball())
        _write_labels(pred, _ball(shift=shift))
        rows.append(f"case_{i},{ref},{pred}")
    manifest = tmp_path / "cohort.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def test_eval_cohort_json_and_determinism(tmp_path, capsys):
    manifest = _cohort_fixture(tmp_path)
    code1, out1, _ = _run(capsys, "eval-cohort", "--manifest", str(manifest))
    code2, out2, _ = _run(capsys, "eval-cohort", "--manifest", str(manifest))
    assert code1 == code2 == 0
    assert out1 == out2  # reruns are byte-identical
    doc = json.loads(out1)
    assert doc["aggregate"]["n_cases"] == 2
    assert [c["case_id"] for c in doc["cases"]] == ["case_0", "case_1"]
    assert doc["cases"][0]["dice"] == 1.0
    assert "provenance" in doc


def test_eval_cohort_csv_and_jobs(tmp_path, capsys):
    manifest = _cohort_fixture(tmp_path)
    code, serial, _ = _run(capsys, "eval-cohort", "--manifest", str(manifest), "--csv")
    assert code == 0
    lines = serial.strip().split("\n")
    assert lines[0].startswith("case_id,")
    assert lines[-1].startswith("__aggregate__")
    code, threaded, _ = _run(
        capsys, "eval-cohort", "--manifest", str(manifest), "--csv", "--jobs", "2"
    )
    assert code == 0
    assert threaded == serial  # worker count must not leak into the document


def test_eval_cohort_csv_quotes_case_ids_that_need_it(tmp_path, capsys):
    ref, pred = tmp_path / "ref.nii.gz", tmp_path / "pred.nii.gz"
    _write_labels(ref, _ball())
    _write_labels(pred, _ball(shift=(1, 0, 0)))
    manifest = tmp_path / "cohort.csv"
    rows = ["case_id,reference,prediction"]
    rows += [f"{case_id},{ref},{pred}" for case_id in ('"a,b"', '"x""y"', "plain")]
    manifest.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(capsys, "eval-cohort", "--manifest", str(manifest), "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [9] * 5
    assert [row[0] for row in rows[1:-1]] == ["a,b", 'x"y', "plain"]
    assert out.splitlines()[3].startswith("plain,")  # an id that needs no quotes keeps none


def test_eval_cohort_missing_manifest_is_an_io_error(tmp_path, capsys):
    code, _, err = _run(capsys, "eval-cohort", "--manifest", str(tmp_path / "nope.csv"))
    assert code == 2


def _manifest_argv(tmp_path, caller, manifest):
    """argv of a command that reads ``manifest`` through the manifest reader."""
    if caller == "eval-cohort":
        return ["eval-cohort", "--manifest", str(manifest)]
    members = tmp_path / "members.json"
    if caller == "ensemble":
        members.write_text(json.dumps({"members": _GOOD_MEMBERS}))
        argv = ["ensemble", "--spec", str(members), "--manifest", str(manifest)]
        return argv + ["--output-dir", str(tmp_path / "fused")]
    members.write_text(json.dumps({"members": _GOOD_MEMBERS, "manifest": str(manifest)}))
    return ["select", "--pool", str(members)]


@pytest.mark.parametrize("caller", ["eval-cohort", "ensemble", "pool"])
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfecase_id,reference,prediction\n", b"case_id,reference,prediction\n" + b"x" * 200_000],
    ids=["not_utf8", "field_over_csv_limit"],
)
def test_unreadable_manifest_exits_two_with_json_error(tmp_path, capsys, caller, content):
    manifest = tmp_path / "cohort.csv"
    manifest.write_bytes(content)
    code, out, err = _run(capsys, *_manifest_argv(tmp_path, caller, manifest), "--json-errors")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert str(manifest) in doc["error"]["message"]


# ---------------------------------------------------------------- select


def _pool_fixture(tmp_path, mode="majority"):
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    ref = _ball()
    _write_labels(refs_dir / "c1.nii.gz", ref)
    predictions = {
        "good": ref.copy(),
        "off1": _ball(shift=(2, 0, 0)),
        "off2": _ball(shift=(0, 3, 0)),
    }
    members = []
    for member_id, arr in predictions.items():
        _write_labels(tmp_path / member_id / "c1.nii.gz", arr)
        members.append({"member_id": member_id, "path": f"{member_id}/{{case}}.nii.gz"})
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(
        json.dumps(
            {
                "mode": mode,
                "members": members,
                "cases": [{"case_id": "c1", "reference": "refs/c1.nii.gz"}],
            }
        )
    )
    return pool_path


def test_select_finds_the_planted_member(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    spec_out = tmp_path / "winner_spec.json"
    report_out = tmp_path / "winner_report.json"
    code, out, _ = _run(
        capsys,
        "select", "--pool", str(pool_path),
        "--spec-out", str(spec_out), "--report-out", str(report_out),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_evaluated"] == 7
    assert doc["ranking"][0]["member_ids"] == ["good"]
    assert doc["ranking"][0]["score"] == 1.0
    assert doc["ranking"][0]["report"]["aggregate"]["mean_dice"] == 1.0
    winner = load_ensemble_spec(spec_out)
    assert [m.member_id for m in winner.members] == ["good"]
    assert winner.mode == "majority"
    saved = json.loads(report_out.read_text())
    assert saved["aggregate"]["mean_dice"] == 1.0


def test_select_spec_out_in_another_directory_re_executes(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    spec_out = tmp_path / "out" / "w.json"
    code, _, err = _run(capsys, "select", "--pool", str(pool_path), "--spec-out", str(spec_out))
    assert code == 0, err
    assert [m.path for m in load_ensemble_spec(spec_out).members] == ["../good/{case}.nii.gz"]
    fused = tmp_path / "fused.nii.gz"
    code, _, err = _run(
        capsys, "ensemble", "--spec", str(spec_out), "--case-id", "c1", "--output", str(fused)
    )
    assert code == 0, err
    assert np.array_equal(read_volume(fused, kind="labels").data, _ball())


def _prob_avg_pool(tmp_path):
    """A prob_avg pool of three native float32 members of soft vectors, over
    two cases."""
    rng = np.random.default_rng(30)
    cases = []
    for case in ("c1", "c2"):
        ref = _ball(shift=(int(case[1]), 0, 0))
        _write_labels(tmp_path / "refs" / f"{case}.nii.gz", ref)
        cases.append({"case_id": case, "reference": f"refs/{case}.nii.gz"})
        for i in range(3):
            soft = 0.7 * np.eye(3)[ref] + 0.3 * rng.dirichlet(np.ones(3), size=ref.shape)
            path = tmp_path / f"p{i}" / f"{case}.nii.gz"
            path.parent.mkdir(exist_ok=True)
            write_volume(Volume(soft.astype(np.float32), SPACING, kind="probabilities"), path)
    members = [{"member_id": f"p{i}", "path": f"p{i}/{{case}}.nii.gz"} for i in range(3)]
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps({"mode": "prob_avg", "members": members, "cases": cases}))
    return pool


def test_prob_avg_select_and_ensemble_lay_out_no_probability_stack(tmp_path, capsys, monkeypatch):
    pool = _prob_avg_pool(tmp_path)
    spec_out, fused = tmp_path / "spec.json", tmp_path / "fused.nii.gz"
    commands = [
        (["select", "--pool", str(pool), "--spec-out", str(spec_out)], spec_out),
        (["ensemble", "--spec", str(pool), "--case-id", "c1", "--output", str(fused)], fused),
    ]

    def outcomes():
        runs = []
        for argv, output in commands:
            copies.clear()
            runs.append((_run(capsys, *argv), output.read_bytes(), list(copies)))
        return runs

    copies = []
    want = outcomes()
    real = nifti._layout_copy

    def layout_copy(view, dtype):
        if view.ndim == 4:
            raise AssertionError("a probability stack was laid out")
        copies.append(view.shape)
        return real(view, dtype)

    monkeypatch.setattr(nifti, "_layout_copy", layout_copy)
    got = outcomes()
    assert [run[0][0] for run in got] == [0, 0]
    # the members are read as views of their files: the one copy left is
    # the write of the fused label map
    assert [run[2] for run in got] == [[], [(10, 10, 10)]]
    assert [run[:2] for run in got] == [run[:2] for run in want]


def test_select_provenance_lists_the_pool_manifest(tmp_path, capsys):
    # the same pool in both forms: only the manifest pool reads a manifest
    pool_path = _pool_fixture(tmp_path)
    cases_form = json.loads(pool_path.read_text())
    manifest = tmp_path / "val.csv"
    manifest.write_text("case_id,reference,prediction\nc1,refs/c1.nii.gz,unused.nii.gz\n")
    manifest_form = {**cases_form, "manifest": "val.csv"}
    del manifest_form["cases"]
    manifest_pool = tmp_path / "manifest_pool.json"
    manifest_pool.write_text(json.dumps(manifest_form))
    docs = []
    for path in (pool_path, manifest_pool):
        code, out, err = _run(capsys, "select", "--pool", str(path))
        assert code == 0, err
        docs.append(json.loads(out))
    read = {str(tmp_path / "refs" / "c1.nii.gz")}
    read |= {str(tmp_path / m / "c1.nii.gz") for m in ("good", "off1", "off2")}
    assert set(docs[0]["provenance"]["inputs"]) == read | {str(pool_path)}
    assert set(docs[1]["provenance"]["inputs"]) == read | {str(manifest_pool), str(manifest)}
    assert docs[0]["ranking"] == docs[1]["ranking"]


# each JSON document's keys; provenance comes last unless --no-provenance is given
DOCUMENT_KEYS = {
    "eval-case": ["config", "case", "provenance"],
    "eval-cohort": ["config", "cases", "aggregate", "provenance"],
    "select": ["config", "n_evaluated", "ranking", "provenance"],
    "resample": ["outputs", "provenance"],
}


@pytest.mark.parametrize("command", sorted(DOCUMENT_KEYS))
def test_provenance_is_the_last_key_of_each_json_document(tmp_path, capsys, command):
    manifest = _cohort_fixture(tmp_path)
    ref = str(tmp_path / "ref_0.nii.gz")
    argv = {
        "eval-case": ["eval-case", "--ref", ref, "--pred", ref],
        "eval-cohort": ["eval-cohort", "--manifest", str(manifest)],
        "select": ["select", "--pool", str(_pool_fixture(tmp_path))],
        "resample": [
            "resample", "--input", ref, "--output", str(tmp_path / "o.nii.gz"),
            "--spacing", "2", "2", "2",
        ],
    }[command]
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert list(json.loads(out)) == DOCUMENT_KEYS[command]
    if command.startswith("eval-"):
        code, out, err = _run(capsys, *argv, "--no-provenance")
        assert code == 0, err
        assert list(json.loads(out)) == DOCUMENT_KEYS[command][:-1]


def test_select_beam_agrees_with_exhaustive(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    code, exhaustive, _ = _run(capsys, "select", "--pool", str(pool_path), "--top", "7")
    assert code == 0
    code, beamed, _ = _run(
        capsys, "select", "--pool", str(pool_path), "--beam", "3", "--top", "7"
    )
    assert code == 0
    full = json.loads(exhaustive)
    beam = json.loads(beamed)
    assert [r["member_ids"] for r in full["ranking"]] == [
        r["member_ids"] for r in beam["ranking"]
    ]


def test_select_budget_exhaustion_is_a_validation_error(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    code, _, err = _run(capsys, "select", "--pool", str(pool_path), "--budget", "2")
    assert code == 1
    assert "budget" in err


def test_select_beam_with_budget_is_a_config_error(tmp_path, capsys):
    # the budget bounds exhaustive search only; beam search used to drop it
    pool_path = _pool_fixture(tmp_path)
    code, out, err = _run(
        capsys, "select", "--pool", str(pool_path), "--beam", "1", "--budget", "1", "--json-errors"
    )
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "--budget" in doc["error"]["message"]


def test_select_pool_with_an_empty_case_id_exits_one(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    pool = json.loads(pool_path.read_text())
    pool["cases"][0]["case_id"] = ""
    pool_path.write_text(json.dumps(pool))
    code, out, err = _run(capsys, "select", "--pool", str(pool_path), "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"] == "a case_id must not be empty"


def test_select_missing_member_file_exits_two_naming_member_and_path(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    missing = tmp_path / "off1" / "c1.nii.gz"
    missing.unlink()
    code, out, err = _run(capsys, "select", "--pool", str(pool_path), "--json-errors")
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert "member off1" in message and str(missing) in message


def test_select_repeated_case_id_exits_one(tmp_path, capsys):
    # both members predict refa exactly, so a run that reused c1's first entry
    # for its second would score a perfect dice against refb
    refa, refb = _ball(), _ball(shift=(3, 0, 0))
    _write_labels(tmp_path / "refs" / "refa.nii.gz", refa)
    _write_labels(tmp_path / "refs" / "refb.nii.gz", refb)
    members = []
    for member_id in ("a", "b"):
        _write_labels(tmp_path / member_id / "c1.nii.gz", refa)
        members.append({"member_id": member_id, "path": f"{member_id}/{{case}}.nii.gz"})
    cases = [
        {"case_id": "c1", "reference": "refs/refa.nii.gz"},
        {"case_id": "c1", "reference": "refs/refb.nii.gz"},
    ]
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps({"mode": "majority", "members": members, "cases": cases}))
    code, out, err = _run(capsys, "select", "--pool", str(pool_path), "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"] == "duplicate case_id(s): ['c1']"


@pytest.mark.parametrize("size_min, exit_code", [("1", 0), ("2", 1), ("3", 1)])
def test_select_beam_takes_size_min_one_only(tmp_path, capsys, size_min, exit_code):
    pool_path = _pool_fixture(tmp_path)
    code, out, err = _run(
        capsys, "select", "--pool", str(pool_path), "--beam", "2", "--size-min", size_min,
        "--json-errors",
    )
    assert code == exit_code
    if exit_code:
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["type"] == "ConfigError"
        assert "--size-min" in doc["error"]["message"]
    else:
        assert json.loads(out)["config"]["size_min"] == 1


def test_select_rank_normalization_flag(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    code, out, _ = _run(capsys, "select", "--pool", str(pool_path), "--norm", "rank")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["normalization"] == "rank"
    assert doc["ranking"][0]["member_ids"] == ["good"]


# ---------------------------------------------------------------- lr-curve


def test_lr_curve_csv(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "lr-curve", "--family", "poly", "--lr0", "0.01", "--max-epochs", "4"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epoch,lr"
    assert len(lines) == 6
    assert lines[1] == "0,0.01"
    assert lines[-1] == "4,0"


@pytest.mark.parametrize("flag", ["--lr0", "--exponent"])
def test_lr_curve_rejects_an_infinite_rate_or_exponent(capsys, flag):
    argv = {"--lr0": "0.01", "--exponent": "0.9", flag: "inf"}
    code, out, err = _run(
        capsys, "lr-curve", "--family", "poly", "--max-epochs", "2",
        *(f"{k}={v}" for k, v in argv.items()), "--json-errors",
    )
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert flag[2:] in doc["error"]["message"]


def test_lr_curve_rejects_more_than_max_epochs(capsys):
    code, out, err = _run(
        capsys, "lr-curve", "--family", "poly", "--lr0", "0.01",
        "--max-epochs", str(MAX_EPOCHS + 1), "--json-errors",
    )
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert f"max_epochs must be in 1..{MAX_EPOCHS}" in doc["error"]["message"]


def test_lr_curve_rejects_bad_family(capsys):
    code, _, err = _run(capsys, "lr-curve", "--family", "step", "--lr0", "0.01", "--max-epochs", "4")
    assert code == 1
    assert "usage" in err


# ---------------------------------------------------------------- shared plumbing


def test_unknown_flag_exits_one_with_usage(capsys):
    code, _, err = _run(capsys, "eval-case", "--ref", "r", "--pred", "p", "--frobnicate")
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("flag", ["--json-errors", "--json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval-case", "--ref", "r", "--pred", "p", "--label", "1e3"],
        ["eval-case", "--ref", "r", "--pred", "p", "--frobnicate"],
        ["eval-case", "--ref", "r"],
        ["lr-curve", "--family", "step", "--lr0", "0.01", "--max-epochs", "4"],
    ],
)
def test_usage_error_under_json_errors_is_one_json_object(capsys, argv, flag):
    code, out, err = _run(capsys, *argv, flag)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "UsageError"
    assert doc["error"]["exit_code"] == 1
    assert doc["error"]["message"]


def test_missing_input_exits_two(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "resample", "--input", str(tmp_path / "nope.nii.gz"),
        "--output", str(tmp_path / "o.nii.gz"), "--spacing", "1", "1", "1",
    )
    assert code == 2


def test_json_errors_flag_emits_machine_readable_stderr(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "resample", "--input", str(tmp_path / "nope.nii.gz"),
        "--output", str(tmp_path / "o.nii.gz"), "--spacing", "1", "1", "1",
        "--json-errors",
    )
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["exit_code"] == 2
    assert doc["error"]["type"] in ("FormatError", "FileNotFoundError")


def _malformed_labels(path, defect):
    """A small label file carrying one header, value or gzip-stream defect."""
    arr = _ball()
    _write_labels(path, arr)
    raw = bytearray(path.read_bytes())
    if defect == "nan_vox_offset":
        struct.pack_into("<f", raw, 108, float("nan"))
    elif defect == "nan_srow_x":
        struct.pack_into("<f", raw, 280, float("nan"))
    elif defect.endswith("_gzip"):  # gzip magic under a .nii name still reads as gzip
        raw = damaged_gzip(gzip.compress(bytes(raw), mtime=0), defect[: -len("_gzip")])
    else:  # int64 label 2**32 + 2 would wrap to tumor label 2 in int32
        struct.pack_into("<2h", raw, 70, 1024, 64)
        wide = arr.astype("<i8")
        wide[wide == 2] = 2**32 + 2
        raw = raw[:352] + wide.tobytes(order="F")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "defect",
    ["nan_vox_offset", "nan_srow_x", "int64_label_wrap", "truncated_gzip", "corrupted_gzip"],
)
def test_malformed_label_file_exits_two_with_json_error(tmp_path, capsys, defect):
    ref = tmp_path / "ref.nii.gz"
    pred = tmp_path / "pred.nii"
    _write_labels(ref, _ball())
    _malformed_labels(pred, defect)
    code, out, err = _run(
        capsys, "eval-case", "--ref", str(ref), "--pred", str(pred), "--json-errors"
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"]["exit_code"] == 2
    assert doc["error"]["type"] == "FormatError"


def test_a_header_declaring_more_than_its_stream_holds_exits_two_without_allocating(
    tmp_path, capsys
):
    ref, pred = tmp_path / "ref.nii.gz", tmp_path / "pred.nii.gz"
    _write_labels(ref, _ball())
    raw = bytearray(gzip.decompress(ref.read_bytes()))
    struct.pack_into("<3h", raw, 42, 512, 512, 512)  # 134 MB from a file of 200 bytes
    pred.write_bytes(gzip.compress(bytes(raw), mtime=0))
    tracemalloc.start()
    try:
        code, out, err = _run(
            capsys, "eval-case", "--ref", str(ref), "--pred", str(pred), "--json-errors"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["exit_code"]) == ("FormatError", 2)
    assert "truncated data section" in error["message"]
    assert peak < (8 << 20)


def test_infinite_qform_pixdim_is_one_json_error_and_no_warning(tmp_path, capsys):
    # qform_code 1, sform_code 0: the qform affine multiplies the rotation by
    # pixdim, and 0 * inf must not warn before the error object is written
    ref = tmp_path / "ref.nii"
    pred = tmp_path / "pred.nii"
    arr = _ball(dims=(4, 4, 4), radius=1.2).astype(np.uint8)
    ref.write_bytes(raw_nifti(arr, qform={}))
    pred.write_bytes(raw_nifti(arr, pixdim=(float("inf"), 1.0, 1.0), qform={}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            capsys, "eval-case", "--ref", str(ref), "--pred", str(pred), "--json-errors"
        )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert "affine has non-finite entries" in doc["error"]["message"]


@pytest.mark.parametrize(
    "scaling, exit_code, error",
    [
        ((float("inf"), 0.0), 2, "FormatError"),
        ((float("-inf"), 0.0), 2, "FormatError"),
        ((float("nan"), 0.0), 2, "FormatError"),
        ((2.0, float("inf")), 2, "FormatError"),
        ((2.0, float("nan")), 2, "FormatError"),
        ((1e38, 0.0), 1, "ValidationError"),  # finite, but overflows float32
    ],
    ids=["slope_inf", "slope_minus_inf", "slope_nan", "inter_inf", "inter_nan", "slope_1e38"],
)
def test_scl_scaling_is_one_json_error_and_no_warning(tmp_path, capsys, scaling, exit_code, error):
    src = tmp_path / "img.nii"
    src.write_bytes(raw_nifti(np.arange(64, dtype=np.int16).reshape(4, 4, 4), scaling=scaling))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            capsys,
            "resample", "--input", str(src), "--output", str(tmp_path / "r.nii.gz"),
            "--spacing", "1", "1", "1", "--json-errors",
        )
    assert code == exit_code
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == error
    assert not (tmp_path / "r.nii.gz").exists()


def _collision_runs(tmp_path, rng):
    """Per case, the argv of a run two of whose outputs name one file."""
    img, lab = tmp_path / "img.nii.gz", tmp_path / "lab.nii.gz"
    write_volume(image_volume(rng, (6, 6, 6), SPACING), img)
    _write_labels(lab, _ball(dims=(6, 6, 6), radius=1.5))
    _, spec_path, _ = _ensemble_fixture(tmp_path, rng)
    pool_path = _pool_fixture(tmp_path)
    same = str(tmp_path / "same.nii.gz")
    return {
        "augment_image_and_labels": [
            "augment", "--image", str(img), "--labels", str(lab),
            "--out-image", same, "--out-labels", same,
        ],
        "resample_output_and_out": [
            "resample", "--input", str(img), "--output", same, "--out", same,
            "--spacing", "2", "2", "2",
        ],
        "resample_output_and_dotted_out": [
            "resample", "--input", str(img), "--output", same,
            "--out", str(tmp_path / "." / "same.nii.gz"), "--spacing", "2", "2", "2",
        ],
        "ensemble_output_and_out": [
            "ensemble", "--spec", str(spec_path), "--case-id", "c1", "--output", same, "--out", same,
        ],
        "ensemble_cases_naming_one_file": [
            "ensemble", "--spec", str(spec_path), "--cases", "c1", "x/../c1",
            "--output-dir", str(tmp_path / "od"),
        ],
        "select_spec_out_and_report_out": [
            "select", "--pool", str(pool_path), "--spec-out", same, "--report-out", same,
        ],
    }


@pytest.mark.parametrize(
    "run",
    [
        "augment_image_and_labels",
        "resample_output_and_out",
        "resample_output_and_dotted_out",
        "ensemble_output_and_out",
        "ensemble_cases_naming_one_file",
        "select_spec_out_and_report_out",
    ],
)
def test_two_outputs_naming_one_file_exit_one_before_any_write(tmp_path, capsys, rng, run):
    argv = _collision_runs(tmp_path, rng)[run]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, *argv, "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "same file" in doc["error"]["message"]
    assert sorted(tmp_path.rglob("*")) == before  # nothing was written


def test_config_layering_file_env_flags(tmp_path, capsys, monkeypatch):
    ref = tmp_path / "ref.nii.gz"
    pred = tmp_path / "pred.nii.gz"
    _write_labels(ref, _ball())
    _write_labels(pred, _ball(shift=(1, 0, 0)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tolerance_mm": 3.0}))
    base = (
        "eval-case", "--ref", str(ref), "--pred", str(pred),
        "--no-provenance", "--config", str(config),
    )

    code, out, _ = _run(capsys, *base)
    assert code == 0
    assert json.loads(out)["config"]["tolerance_mm"] == 3.0

    monkeypatch.setenv("PANCSEG_TOLERANCE_MM", "4.0")
    code, out, _ = _run(capsys, *base)
    assert code == 0
    assert json.loads(out)["config"]["tolerance_mm"] == 4.0

    code, out, _ = _run(capsys, *base, "--tolerance", "5.0")
    assert code == 0
    assert json.loads(out)["config"]["tolerance_mm"] == 5.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tolerance": 3.0}))  # the key is tolerance_mm
    code, _, err = _run(
        capsys,
        "eval-case", "--ref", str(ref), "--pred", str(ref), "--config", str(config),
    )
    assert code == 1
    assert "tolerance" in err


def test_bad_environment_value_is_a_config_error(tmp_path, capsys, monkeypatch):
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball())
    monkeypatch.setenv("PANCSEG_TOLERANCE_MM", "five")
    code, _, err = _run(capsys, "eval-case", "--ref", str(ref), "--pred", str(ref))
    assert code == 1
    assert "PANCSEG_TOLERANCE_MM" in err


@pytest.mark.parametrize(
    "entry",
    [
        {"label_id": 2.9},
        {"jobs": True},
        {"seed": 1.5},
        {"tolerance_mm": True},
        {"tolerance_mm": 10**400},
        {"metric_weights": [True, 0.2, 0.2, 0.2, 0.2]},
    ],
    ids=[
        "label_id_2.9", "jobs_true", "seed_1.5", "tolerance_true", "tolerance_1e400_int",
        "weight_true",
    ],
)
def test_config_file_number_must_be_exact(tmp_path, capsys, entry):
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball(dims=(4, 4, 4), radius=1.2))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(entry))
    code, out, err = _run(
        capsys,
        "eval-case", "--ref", str(ref), "--pred", str(ref), "--config", str(config),
        "--json-errors",
    )
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert next(iter(entry)) in doc["error"]["message"]


def _json_input_argv(tmp_path, reader, path):
    """argv of a command that reads ``path`` as the given JSON input."""
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball(dims=(4, 4, 4), radius=1.2))
    if reader == "config file":
        return ["eval-case", "--ref", str(ref), "--pred", str(ref), "--config", str(path)]
    if reader == "preset file":
        img = tmp_path / "img.nii.gz"
        write_volume(image_volume(np.random.default_rng(0), (4, 4, 4), SPACING), img)
        return [
            "augment", "--image", str(img), "--labels", str(ref), "--preset-file", str(path),
            "--out-image", str(tmp_path / "o_img.nii.gz"),
            "--out-labels", str(tmp_path / "o_lab.nii.gz"),
        ]
    if reader == "ensemble spec":
        return [
            "ensemble", "--spec", str(path), "--case-id", "c1",
            "--output", str(tmp_path / "o.nii.gz"),
        ]
    return ["select", "--pool", str(path)]


@pytest.mark.parametrize("reader", ["config file", "preset file", "ensemble spec", "pool file"])
@pytest.mark.parametrize(
    "content",
    [b"[1, 2]", b"\xff\xfe{}", b"{", b"[" * 100_000],
    ids=["not_an_object", "bad_utf8", "bad_json", "deep_nesting"],
)
def test_every_json_input_fails_as_a_format_error(tmp_path, capsys, reader, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = _run(capsys, *_json_input_argv(tmp_path, reader, path), "--json-errors")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "FormatError"
    assert reader in doc["error"]["message"]


def _non_finite_argv(tmp_path, monkeypatch, case):
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball())
    eval_case = ["eval-case", "--ref", str(ref), "--pred", str(ref)]
    if case == "tolerance_nan":
        return eval_case + ["--tolerance", "nan"]
    if case == "tolerance_inf":
        return eval_case + ["--tolerance", "inf"]
    if case == "env_tolerance_nan":
        monkeypatch.setenv("PANCSEG_TOLERANCE_MM", "nan")
        return eval_case
    if case == "metric_weights_nan":
        pool = _pool_fixture(tmp_path)
        return ["select", "--pool", str(pool), "--metric-weights", "nan", "0.2", "0.2", "0.2", "0.2"]
    if case == "spacing_nan":
        return [
            "resample", "--input", str(ref), "--kind", "labels",
            "--output", str(tmp_path / "o.nii.gz"), "--spacing", "nan", "1", "1",
        ]
    img = tmp_path / "img.nii.gz"
    write_volume(image_volume(np.random.default_rng(0), (10, 10, 10), SPACING), img)
    preset_file = tmp_path / "preset.json"
    preset_file.write_text('{"transforms": [{"name": "gamma", "gamma": [NaN, 1.2]}]}')
    return [
        "augment", "--image", str(img), "--labels", str(ref), "--preset-file", str(preset_file),
        "--out-image", str(tmp_path / "o_img.nii.gz"),
        "--out-labels", str(tmp_path / "o_lab.nii.gz"),
    ]


@pytest.mark.parametrize(
    "case",
    [
        "tolerance_nan",
        "tolerance_inf",
        "env_tolerance_nan",
        "metric_weights_nan",
        "spacing_nan",
        "preset_range_nan",
    ],
)
def test_non_finite_value_exits_one_with_json_error(tmp_path, capsys, monkeypatch, case):
    argv = _non_finite_argv(tmp_path, monkeypatch, case)
    code, out, err = _run(capsys, *argv, "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert doc["error"]["exit_code"] == 1


SCORING_DEFECTS = {
    "weights_sum": ({}, ["--metric-weights", "0.5", "0.5", "0.5", "0.5", "0.5"], "sum"),
    "env_norm": ({"PANCSEG_NORM": "bogus"}, [], "bogus"),
    "env_weights_count": ({"PANCSEG_METRIC_WEIGHTS": "0.5,0.5"}, [], "need 5"),
    "env_empty_policy": ({"PANCSEG_EMPTY_POLICY": "bogus"}, [], "empty_policy"),
    "env_tolerance_negative": ({"PANCSEG_TOLERANCE_MM": "-1"}, [], "tolerance_mm"),
    "env_volume_unit": ({"PANCSEG_VOLUME_UNIT": "l"}, [], "volume_unit"),
    "tolerance_negative": ({}, ["--tolerance", "-1"], "tolerance_mm"),
}


@pytest.mark.parametrize("defect", sorted(SCORING_DEFECTS))
def test_scoring_options_are_checked_before_any_read(tmp_path, capsys, monkeypatch, defect):
    env, flags, needle = SCORING_DEFECTS[defect]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    # a missing pool file would exit 2 if the scoring options were checked after reading it
    code, out, err = _run(
        capsys, "select", "--pool", str(tmp_path / "absent.json"), *flags, "--json-errors"
    )
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert needle in doc["error"]["message"]
    if env:  # an environment value reaches every subcommand
        ref = tmp_path / "ref.nii.gz"
        _write_labels(ref, _ball(dims=(4, 4, 4), radius=1.2))
        code, out, _ = _run(capsys, "eval-case", "--ref", str(ref), "--pred", str(ref))
        assert code == 1 and out == ""
        # including one that scores nothing
        code, out, _ = _run(
            capsys, "lr-curve", "--family", "poly", "--lr0", "0.01", "--max-epochs", "2"
        )
        assert code == 1 and out == ""


@pytest.mark.parametrize(
    "source, label_id",
    [
        ("flag", "-1"),
        ("flag", "99999999999999999999"),
        ("flag", "2147483648"),
        ("flag", "3"),  # outside the label set, which every evaluated map lies in
        ("env", "-1"),
        ("config_file", "99999999999999999999"),
    ],
)
def test_label_id_no_label_map_can_hold_is_a_config_error(
    tmp_path, capsys, monkeypatch, source, label_id
):
    # such an id matches no voxel, so every case would score as a perfect both_empty pair
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball(dims=(6, 6, 6), radius=1.5))
    argv = ["eval-case", "--ref", str(ref), "--pred", str(ref), "--json-errors"]
    if source == "flag":
        argv += ["--label", label_id]
    elif source == "env":
        monkeypatch.setenv("PANCSEG_LABEL_ID", label_id)
    else:
        config = tmp_path / "cfg.json"
        config.write_text('{"label_id": %s}' % label_id)
        argv += ["--config", str(config)]
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "label_id" in doc["error"]["message"]


def _label_error(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--json-errors")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "label_id" in doc["error"]["message"]


def test_largest_int32_label_id_is_a_config_error(tmp_path, capsys):
    # no accepted map can hold it, so it used to score a perfect both_empty pair
    ref = tmp_path / "ref.nii.gz"
    _write_labels(ref, _ball(dims=(6, 6, 6), radius=1.5))
    _label_error(capsys, "eval-case", "--ref", str(ref), "--pred", str(ref), "--label", "2147483647")


def test_label_id_beyond_a_uint8_map_is_a_config_error(tmp_path, capsys):
    # 258 mod 256 is the tumor label 2 that the map holds; the id is rejected
    # before any map is read
    ref = tmp_path / "ref.nii"
    ref.write_bytes(raw_nifti(_ball(dims=(6, 6, 6), radius=1.5).astype(np.uint8)))
    assert read_volume(ref, kind="labels").data.dtype == np.uint8
    _label_error(capsys, "eval-case", "--ref", str(ref), "--pred", str(ref), "--label", "258")


# (dtype, byte order) of one label map's files; reads keep the narrow integer
# dtypes and widen the rest to int32
LABEL_FILE_DTYPES = [
    (np.uint8, "<"), (np.int8, "<"), (np.uint16, "<"), (np.int16, "<"), (np.int32, "<"),
    (np.int32, ">"), (np.uint32, "<"), (np.int64, "<"), (np.float32, "<"),
]


def test_outputs_do_not_depend_on_the_label_file_dtype(tmp_path, capsys):
    dims = (12, 10, 8)
    pancreas = np.where(_ball(dims, radius=4.0) > 0, 1, 0)
    maps = [
        np.where(_ball(dims, shift=shift, radius=2.2) > 0, 2, pancreas)
        for shift in ((0, 0, 0), (1, 0, 0), (0, 1, -1))
    ]
    spec = {
        "mode": "majority",
        "members": [
            {"member_id": f"m{i}", "path": f"m{i}.nii", "weight": w}
            for i, w in enumerate((1.0, 1.5, 1.2))
        ],
    }
    outputs = []
    for dtype, endian in LABEL_FILE_DTYPES:
        case = tmp_path / f"{np.dtype(dtype).name}{endian}"
        case.mkdir()
        for i, labels in enumerate(maps):
            raw = raw_nifti(labels.astype(dtype), endian=endian, pixdim=SPACING)
            (case / f"m{i}.nii").write_bytes(raw)
        (case / "spec.json").write_text(json.dumps(spec))
        code, report, _ = _run(
            capsys, "eval-case", "--ref", str(case / "m0.nii"), "--pred", str(case / "m1.nii"),
            "--no-provenance",
        )
        assert code == 0
        fused, resampled = case / "fused.nii.gz", case / "resampled.nii.gz"
        code, _, _ = _run(
            capsys, "ensemble", "--spec", str(case / "spec.json"), "--case-id", "c",
            "--output", str(fused),
        )
        assert code == 0
        code, _, _ = _run(
            capsys, "resample", "--input", str(case / "m2.nii"), "--output", str(resampled),
            "--kind", "labels", "--spacing", "0.7", "0.8", "1.1",
        )
        assert code == 0
        outputs.append((report, fused.read_bytes(), resampled.read_bytes()))
    assert outputs[0][0].count('"dice"') == 1
    for got in outputs[1:]:
        assert got == outputs[0]


@pytest.mark.parametrize("source", ["flag_0", "flag_minus_3", "env", "config_file"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, source):
    argv = ["eval-cohort", "--manifest", str(_cohort_fixture(tmp_path)), "--json-errors"]
    if source == "flag_0":
        argv += ["--jobs", "0"]
    elif source == "flag_minus_3":
        argv += ["--jobs", "-3"]
    elif source == "env":
        monkeypatch.setenv("PANCSEG_JOBS", "0")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"jobs": 0}))
        argv += ["--config", str(config)]
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "jobs" in doc["error"]["message"]


def test_select_top_must_not_be_negative(tmp_path, capsys):
    pool_path = _pool_fixture(tmp_path)
    code, out, err = _run(capsys, "select", "--pool", str(pool_path), "--top", "-1", "--json-errors")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"
    code, out, _ = _run(capsys, "select", "--pool", str(pool_path), "--top", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ranking"] == []
    assert doc["n_evaluated"] == 7


# Per RunConfig field: a command that takes its flag, the flag, and three
# values in turn for file, environment and flag; neighbours differ so each
# layer visibly overrides the one below.
OPTION_TABLE = {
    "label_id": (["eval-case", "--ref", "r", "--pred", "p"], "--label", (1, 0, 2)),
    "tolerance_mm": (["eval-case", "--ref", "r", "--pred", "p"], "--tolerance", (3.5, 0.25, 7.0)),
    "empty_policy": (
        ["eval-case", "--ref", "r", "--pred", "p"], "--empty-policy",
        ("exclude", "penalize", "exclude"),
    ),
    "volume_unit": (["eval-case", "--ref", "r", "--pred", "p"], "--volume-unit", ("ml", "mm3", "ml")),
    "seed": (
        ["augment", "--image", "i", "--labels", "l", "--out-image", "a", "--out-labels", "b"],
        "--seed", (7, 11, 13),
    ),
    "jobs": (["eval-cohort", "--manifest", "m"], "--jobs", (2, 3, 4)),
    "norm": (["select", "--pool", "p"], "--norm", ("rank", "minmax", "rank")),
    "metric_weights": (
        ["select", "--pool", "p"], "--metric-weights",
        ((0.1, 0.2, 0.3, 0.2, 0.2), (0.5, 0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.25, 0.75)),
    ),
}


def _resolve(tmp_path, monkeypatch, key, file=None, env=None, flag=None):
    """The RunConfig value of ``key`` with it set in any of the three layers."""
    command, option, _ = OPTION_TABLE[key]
    for name in _CONFIG_PARSERS:
        monkeypatch.delenv("PANCSEG_" + name.upper(), raising=False)
    argv = list(command)
    if file is not None:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: file}))
        argv += ["--config", str(config)]
    if env is not None:
        text = ",".join(map(str, env)) if isinstance(env, tuple) else str(env)
        monkeypatch.setenv("PANCSEG_" + key.upper(), text)
    if flag is not None:
        argv += [option, *map(str, flag if isinstance(flag, tuple) else (flag,))]
    return getattr(resolve_config(build_parser().parse_args(argv)), key)


@pytest.mark.parametrize("key", list(_CONFIG_PARSERS))
def test_option_table_resolves_each_key_from_file_env_and_flag(tmp_path, monkeypatch, key):
    assert list(_CONFIG_PARSERS) == [f.name for f in dataclasses.fields(RunConfig)]
    values = OPTION_TABLE[key][2]
    for value in values:
        assert (
            _resolve(tmp_path, monkeypatch, key, file=value)
            == _resolve(tmp_path, monkeypatch, key, env=value)
            == _resolve(tmp_path, monkeypatch, key, flag=value)
            == value
        )
    first, second, third = values
    assert _resolve(tmp_path, monkeypatch, key) == getattr(RunConfig(), key) != first
    assert _resolve(tmp_path, monkeypatch, key, file=first, env=second) == second
    assert _resolve(tmp_path, monkeypatch, key, file=first, env=second, flag=third) == third
    assert _resolve(tmp_path, monkeypatch, key, file=first, flag=third) == third
