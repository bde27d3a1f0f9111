"""Canonical JSON and CSV serialization of metric reports.

Documents are built with a fixed key order and every float pre-rounded to
9 significant digits, so identical inputs serialize to identical bytes on
every platform and run.  Optional fields serialize as JSON null.
"""
from __future__ import annotations

import json
from typing import Optional

from .metrics import (
    CASE_METRICS,
    CASE_VOLUMES,
    VOLUME_RMSE,
    CaseMetrics,
    CohortReport,
    EvalConfig,
    mean_field,
)

SIGNIFICANT_DIGITS = 9


def round_sig(value) -> Optional[float]:
    """Round to 9 significant digits; the JSON layer then prints the shortest
    exact representation of the rounded value."""
    if value is None:
        return None
    return float(format(float(value), f".{SIGNIFICANT_DIGITS}g"))


def format_sig(value) -> str:
    if value is None:
        return ""
    return format(float(value), f".{SIGNIFICANT_DIGITS}g")


def config_to_dict(config: EvalConfig) -> dict:
    return {
        "label_id": config.label_id,
        "tolerance_mm": round_sig(config.tolerance_mm),
        "empty_policy": config.empty_policy,
        "volume_unit": config.volume_unit,
    }


# The numeric CaseMetrics fields of a case row, in report order.
CASE_FIELDS = tuple(name for name, _ in CASE_METRICS) + CASE_VOLUMES


def case_to_dict(case: CaseMetrics) -> dict:
    return {
        "case_id": case.case_id,
        **{name: round_sig(getattr(case, name)) for name in CASE_FIELDS},
        "flags": sorted(case.flags),
    }


def aggregate_to_dict(report: CohortReport) -> dict:
    return {
        "n_cases": report.n_cases,
        **{
            mean_field(name): round_sig(getattr(report, mean_field(name)))
            for name, _ in CASE_METRICS
        },
        f"{VOLUME_RMSE}_{report.config.volume_unit}": round_sig(report.volume_rmse),
        "n_flagged": report.n_flagged,
        "flag_counts": {k: v for k, v in report.flag_counts},
    }


def report_to_dict(report: CohortReport) -> dict:
    return {
        "config": config_to_dict(report.config),
        "cases": [case_to_dict(c) for c in report.cases],
        "aggregate": aggregate_to_dict(report),
    }


def case_report_to_dict(case: CaseMetrics, config: EvalConfig) -> dict:
    return {"config": config_to_dict(config), "case": case_to_dict(case)}


def dumps_json(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


CSV_COLUMNS = ("case_id", *CASE_FIELDS, VOLUME_RMSE, "flags")

AGGREGATE_ROW_ID = "__aggregate__"


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: in double quotes, with each quote
    doubled, when it holds a comma, a quote, CR or LF; else as it is."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv(report: CohortReport) -> str:
    """One row per case plus an aggregate footer row, LF-terminated.

    Per-case rows leave the cohort-level volume_rmse column empty; the footer
    fills the metric columns with cohort means, leaves the volume columns
    empty and fills flags with the flagged case count.  A case id is quoted
    by ``_csv_field``, so any id reads back through a CSV reader.
    """
    lines = [",".join(CSV_COLUMNS)]
    for c in report.cases:
        values = [format_sig(getattr(c, name)) for name in CASE_FIELDS]
        flags = ";".join(sorted(c.flags))
        lines.append(",".join([_csv_field(c.case_id), *values, "", flags]))
    means = [format_sig(getattr(report, mean_field(name))) for name, _ in CASE_METRICS]
    volumes = [""] * len(CASE_VOLUMES)
    footer = [AGGREGATE_ROW_ID, *means, *volumes, format_sig(report.volume_rmse)]
    lines.append(",".join([*footer, f"flagged={report.n_flagged}"]))
    return "\n".join(lines) + "\n"
