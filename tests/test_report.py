from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

import pytest

from pancseg.metrics import (
    CASE_METRICS,
    CASE_VOLUMES,
    VOLUME_RMSE,
    CaseMetrics,
    CohortReport,
    EvalConfig,
    aggregate_cohort,
    mean_field,
)
from pancseg.report import (
    AGGREGATE_ROW_ID,
    CSV_COLUMNS,
    case_report_to_dict,
    dumps_json,
    format_sig,
    report_to_csv,
    report_to_dict,
    round_sig,
)


def _report(config=EvalConfig()):
    cases = [
        CaseMetrics("case_b", 0.5, 0.625, 2.0, 4.0, 1000.0, 1250.0),
        CaseMetrics(
            "case_a", 0.0, 0.0, 17.3205081, 17.3205081, 500.0, 0.0, ("pred_empty", "penalized")
        ),
    ]
    return aggregate_cohort(cases, config)


def test_round_sig_truncates_to_nine_digits():
    assert round_sig(0.123456789123456) == 0.123456789
    assert round_sig(123456789.123) == 123456789.0
    assert round_sig(1.0) == 1.0
    assert round_sig(0.0) == 0.0
    assert round_sig(None) is None
    assert round_sig(1e-300) == 1e-300


def test_format_sig_handles_missing_values():
    assert format_sig(None) == ""
    assert format_sig(2.5) == "2.5"
    assert format_sig(1 / 3) == "0.333333333"


def test_report_document_layout():
    doc = report_to_dict(_report())
    assert list(doc.keys()) == ["config", "cases", "aggregate"]
    assert list(doc["config"].keys()) == [
        "label_id",
        "tolerance_mm",
        "empty_policy",
        "volume_unit",
    ]
    assert [c["case_id"] for c in doc["cases"]] == ["case_b", "case_a"]
    assert list(doc["cases"][0].keys()) == [
        "case_id",
        "dice",
        "surface_dice_5mm",
        "masd_mm",
        "hd95_mm",
        "volume_ref_mm3",
        "volume_pred_mm3",
        "flags",
    ]
    agg = doc["aggregate"]
    assert list(agg.keys()) == [
        "n_cases",
        "mean_dice",
        "mean_surface_dice_5mm",
        "mean_masd_mm",
        "mean_hd95_mm",
        "volume_rmse_mm3",
        "n_flagged",
        "flag_counts",
    ]
    assert agg["n_cases"] == 2
    assert agg["n_flagged"] == 1
    assert agg["flag_counts"] == {"penalized": 1, "pred_empty": 1}
    assert doc["cases"][1]["flags"] == ["penalized", "pred_empty"]


def test_rmse_key_follows_volume_unit():
    doc = report_to_dict(_report(EvalConfig(volume_unit="ml")))
    assert "volume_rmse_ml" in doc["aggregate"]
    assert "volume_rmse_mm3" not in doc["aggregate"]


def test_excluded_metrics_serialize_as_null():
    cases = [CaseMetrics("only", 0.0, None, None, None, 10.0, 0.0, ("pred_empty",))]
    report = aggregate_cohort(cases, EvalConfig(empty_policy="exclude"))
    text = dumps_json(report_to_dict(report))
    doc = json.loads(text)
    assert doc["cases"][0]["masd_mm"] is None
    assert doc["aggregate"]["mean_dice"] is None


def test_case_report_document():
    case = CaseMetrics("case_x", 1.0, 1.0, 0.0, 0.0, 10.0, 10.0)
    doc = case_report_to_dict(case, EvalConfig())
    assert list(doc.keys()) == ["config", "case"]
    assert doc["case"]["case_id"] == "case_x"


def test_json_bytes_are_deterministic():
    a = dumps_json(report_to_dict(_report()))
    b = dumps_json(report_to_dict(_report()))
    assert a == b
    assert a.endswith("\n")
    assert not a.endswith("\n\n")


def test_json_rejects_non_finite_values():
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_json({"x": float("inf")})


def test_csv_layout():
    text = report_to_csv(_report())
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # header + 2 cases + aggregate
    first = lines[1].split(",")
    assert first[0] == "case_b"
    assert first[7] == ""  # per-case rows leave cohort rmse empty
    flagged = lines[2].split(",")
    assert flagged[8] == "penalized;pred_empty"
    footer = lines[3].split(",")
    assert footer[0] == AGGREGATE_ROW_ID
    assert footer[1] == format_sig(0.25)
    assert footer[7] != ""
    assert footer[8] == "flagged=1"
    assert text.endswith("\n")


def test_csv_rows_read_back_with_any_case_id():
    ids = ["a,b", 'x"y', "cr\rid", "lf\nid", "crlf\r\nid", '"', ",", "plain", " spaced "]
    cases = [CaseMetrics(i, 1.0, 1.0, 0.0, 0.0, 10.0, 10.0) for i in ids]
    text = report_to_csv(aggregate_cohort(cases, EvalConfig()))
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * (len(ids) + 2)
    assert [row[0] for row in rows[1:-1]] == ids
    assert rows[-1][0] == AGGREGATE_ROW_ID
    # RFC 4180: a field is quoted only when it must be, and its quotes doubled
    assert text.splitlines()[1].startswith('"a,b",')
    assert '\n"x""y",' in text and "\nplain," in text and "\n spaced ," in text


def test_metric_table_names_the_dataclass_fields_in_order():
    names = [name for name, _ in CASE_METRICS]
    assert [f.name for f in fields(CaseMetrics)] == ["case_id", *names, *CASE_VOLUMES, "flags"]
    report_fields = [f.name for f in fields(CohortReport)]
    assert report_fields[2:7] == [*map(mean_field, names), VOLUME_RMSE]


GOLDEN_CSV_MM3 = """\
case_id,dice,surface_dice_5mm,masd_mm,hd95_mm,volume_ref_mm3,volume_pred_mm3,volume_rmse,flags
case_b,0.5,0.625,2,4,1000,1250,,
case_a,0,0,17.3205081,17.3205081,500,0,,penalized;pred_empty
__aggregate__,0.25,0.3125,9.66025405,10.6602541,,,395.284708,flagged=1
"""

GOLDEN_JSON_MM3 = """\
{
  "config": {
    "label_id": 2,
    "tolerance_mm": 5.0,
    "empty_policy": "penalize",
    "volume_unit": "mm3"
  },
  "cases": [
    {
      "case_id": "case_b",
      "dice": 0.5,
      "surface_dice_5mm": 0.625,
      "masd_mm": 2.0,
      "hd95_mm": 4.0,
      "volume_ref_mm3": 1000.0,
      "volume_pred_mm3": 1250.0,
      "flags": []
    },
    {
      "case_id": "case_a",
      "dice": 0.0,
      "surface_dice_5mm": 0.0,
      "masd_mm": 17.3205081,
      "hd95_mm": 17.3205081,
      "volume_ref_mm3": 500.0,
      "volume_pred_mm3": 0.0,
      "flags": [
        "penalized",
        "pred_empty"
      ]
    }
  ],
  "aggregate": {
    "n_cases": 2,
    "mean_dice": 0.25,
    "mean_surface_dice_5mm": 0.3125,
    "mean_masd_mm": 9.66025405,
    "mean_hd95_mm": 10.6602541,
    "volume_rmse_mm3": 395.284708,
    "n_flagged": 1,
    "flag_counts": {
      "penalized": 1,
      "pred_empty": 1
    }
  }
}
"""

# in ml only the unit echo, the RMSE key and the RMSE value change
GOLDEN_CSV_ML = GOLDEN_CSV_MM3.replace(",395.284708,", ",0.395284708,")
GOLDEN_JSON_ML = GOLDEN_JSON_MM3.replace(
    '"volume_unit": "mm3"', '"volume_unit": "ml"'
).replace('"volume_rmse_mm3": 395.284708', '"volume_rmse_ml": 0.395284708')

GOLDEN_CSV_ALL_FLAGGED = """\
case_id,dice,surface_dice_5mm,masd_mm,hd95_mm,volume_ref_mm3,volume_pred_mm3,volume_rmse,flags
x,0,,,,10,0,,pred_empty
y,0,,,,0,7.5,,ref_empty
__aggregate__,,,,,,,8.83883476,flagged=2
"""

GOLDEN_JSON_ALL_FLAGGED = """\
{
  "config": {
    "label_id": 2,
    "tolerance_mm": 5.0,
    "empty_policy": "exclude",
    "volume_unit": "mm3"
  },
  "cases": [
    {
      "case_id": "x",
      "dice": 0.0,
      "surface_dice_5mm": null,
      "masd_mm": null,
      "hd95_mm": null,
      "volume_ref_mm3": 10.0,
      "volume_pred_mm3": 0.0,
      "flags": [
        "pred_empty"
      ]
    },
    {
      "case_id": "y",
      "dice": 0.0,
      "surface_dice_5mm": null,
      "masd_mm": null,
      "hd95_mm": null,
      "volume_ref_mm3": 0.0,
      "volume_pred_mm3": 7.5,
      "flags": [
        "ref_empty"
      ]
    }
  ],
  "aggregate": {
    "n_cases": 2,
    "mean_dice": null,
    "mean_surface_dice_5mm": null,
    "mean_masd_mm": null,
    "mean_hd95_mm": null,
    "volume_rmse_mm3": 8.83883476,
    "n_flagged": 2,
    "flag_counts": {
      "pred_empty": 1,
      "ref_empty": 1
    }
  }
}
"""


def _all_flagged_report():
    cases = [
        CaseMetrics("x", 0.0, None, None, None, 10.0, 0.0, ("pred_empty",)),
        CaseMetrics("y", 0.0, None, None, None, 0.0, 7.5, ("ref_empty",)),
    ]
    return aggregate_cohort(cases, EvalConfig(empty_policy="exclude"))


@pytest.mark.parametrize(
    "report, golden_csv, golden_json",
    [
        pytest.param(_report(), GOLDEN_CSV_MM3, GOLDEN_JSON_MM3, id="mm3"),
        pytest.param(_report(EvalConfig(volume_unit="ml")), GOLDEN_CSV_ML, GOLDEN_JSON_ML, id="ml"),
        pytest.param(
            _all_flagged_report(), GOLDEN_CSV_ALL_FLAGGED, GOLDEN_JSON_ALL_FLAGGED,
            id="all_flagged_exclude",
        ),
    ],
)
def test_report_text_is_pinned(report, golden_csv, golden_json):
    assert report_to_csv(report) == golden_csv
    assert dumps_json(report_to_dict(report)) == golden_json
