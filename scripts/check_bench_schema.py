#!/usr/bin/env python3
"""Validate a bench --json result log against the xgbe-bench contract.

Accepts all schema versions: "xgbe-bench/1" (points + snapshots),
"xgbe-bench/2", which adds span-profiler stage breakdowns and flow-sampler
time series, and "xgbe-bench/3", which adds metric-scraper captures
(per-series integer points plus detector episodes) under "scrapes". For v2+
the validator also enforces the telescoping-ledger invariant: every
breakdown's stage total_ps values must sum *exactly* to its end_to_end
total_ps. For v3 it checks every scrape series' points are time-monotone
integer pairs and every episode carries a coherent (onset, clear) window.

Stdlib-only (no jsonschema dependency): this script hand-implements the
checks that bench/results.schema.json documents, so CI can run it on a
bare python3. Exits non-zero with one line per violation.

Usage: check_bench_schema.py result.json [result2.json ...]
"""

import json
import sys

NUMERIC_SENTINELS = {"nan", "inf", "-inf"}
METRIC_KINDS = {"counter", "gauge", "distribution"}
SCHEMAS = {"xgbe-bench/1", "xgbe-bench/2", "xgbe-bench/3"}
SCRAPE_UNITS = {"count", "milli"}
STAGES = ["app-write", "sockbuf", "tx-ring", "tx-dma", "wire", "switch-queue",
          "rx-ring", "intr-coalesce", "rx-stack", "app-read"]
SERIES_COLUMNS = ["at_ps", "flow", "cwnd_segments", "ssthresh_segments",
                  "flight_bytes", "srtt_us", "rwnd_bytes", "cc_state"]
# meta["cc"] appears only for non-default runs (--cc / XGBE_CC); when
# present it must name a known congestion-control algorithm.
CC_ALGORITHMS = {"newreno", "cubic", "dctcp"}


def _err(errors, path, message):
    errors.append(f"{path}: {message}")


def _check_number(errors, path, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if not (isinstance(value, str) and value in NUMERIC_SENTINELS):
            _err(errors, path, f"expected number or nan/inf sentinel, got {value!r}")


def _check_metric(errors, path, metric):
    if not isinstance(metric, dict):
        _err(errors, path, "metric must be an object")
        return
    mpath = metric.get("path")
    if not isinstance(mpath, str) or not mpath:
        _err(errors, path, "missing non-empty 'path'")
    kind = metric.get("kind")
    if kind not in METRIC_KINDS:
        _err(errors, path, f"bad kind {kind!r}")
        return
    if kind == "counter":
        if not isinstance(metric.get("value"), int) or isinstance(metric.get("value"), bool):
            _err(errors, path, "counter 'value' must be an integer")
    elif kind == "gauge":
        _check_number(errors, path + ".value", metric.get("value"))
    else:  # distribution
        if not isinstance(metric.get("count"), int):
            _err(errors, path, "distribution 'count' must be an integer")
        for key in ("mean", "min", "max", "stddev"):
            _check_number(errors, f"{path}.{key}", metric.get(key))


def _check_nonneg_int(errors, path, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        _err(errors, path, f"expected non-negative integer, got {value!r}")


def _check_breakdown(errors, where, entry):
    if not isinstance(entry, dict):
        _err(errors, where, "must be an object")
        return
    if not isinstance(entry.get("label"), str) or not entry.get("label"):
        _err(errors, where, "missing non-empty 'label'")
    b = entry.get("breakdown")
    if not isinstance(b, dict):
        _err(errors, where, "missing 'breakdown' object")
        return
    for key in ("journeys", "opened", "aborted", "overflowed"):
        _check_nonneg_int(errors, f"{where}.{key}", b.get(key))
    e2e = b.get("end_to_end")
    if not isinstance(e2e, dict):
        _err(errors, where, "missing 'end_to_end' object")
        return
    _check_nonneg_int(errors, f"{where}.end_to_end.total_ps", e2e.get("total_ps"))
    _check_number(errors, f"{where}.end_to_end.mean_us", e2e.get("mean_us"))
    stages = b.get("stages")
    if not isinstance(stages, list):
        _err(errors, where, "missing 'stages' array")
        return
    names = [s.get("stage") for s in stages if isinstance(s, dict)]
    if names != STAGES:
        _err(errors, f"{where}.stages",
             f"stages must be exactly {STAGES} in order, got {names}")
        return
    total = 0
    for j, s in enumerate(stages):
        _check_nonneg_int(errors, f"{where}.stages[{j}].total_ps", s.get("total_ps"))
        _check_number(errors, f"{where}.stages[{j}].mean_us", s.get("mean_us"))
        if isinstance(s.get("total_ps"), int):
            total += s["total_ps"]
    if isinstance(e2e.get("total_ps"), int) and total != e2e["total_ps"]:
        _err(errors, where,
             f"stage conservation violated: sum(stages.total_ps)={total} != "
             f"end_to_end.total_ps={e2e['total_ps']}")


def _check_series(errors, where, entry):
    if not isinstance(entry, dict):
        _err(errors, where, "must be an object")
        return
    if not isinstance(entry.get("label"), str) or not entry.get("label"):
        _err(errors, where, "missing non-empty 'label'")
    series = entry.get("series")
    if not isinstance(series, dict):
        _err(errors, where, "missing 'series' object")
        return
    interval = series.get("interval_ps")
    if not isinstance(interval, int) or isinstance(interval, bool) or interval < 1:
        _err(errors, f"{where}.series.interval_ps", "must be a positive integer")
    if series.get("columns") != SERIES_COLUMNS:
        _err(errors, f"{where}.series.columns",
             f"must be exactly {SERIES_COLUMNS}")
    rows = series.get("rows")
    if not isinstance(rows, list):
        _err(errors, f"{where}.series.rows", "must be an array")
        return
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(SERIES_COLUMNS):
            _err(errors, f"{where}.series.rows[{j}]",
                 f"must be an array of {len(SERIES_COLUMNS)} numbers")
            continue
        for k, value in enumerate(row):
            _check_number(errors, f"{where}.series.rows[{j}][{k}]", value)


def _check_scrape(errors, where, entry):
    if not isinstance(entry, dict):
        _err(errors, where, "must be an object")
        return
    if not isinstance(entry.get("label"), str) or not entry.get("label"):
        _err(errors, where, "missing non-empty 'label'")
    scrape = entry.get("scrape")
    if not isinstance(scrape, dict):
        _err(errors, where, "missing 'scrape' object")
        return
    period = scrape.get("period_ps")
    if not isinstance(period, int) or isinstance(period, bool) or period < 1:
        _err(errors, f"{where}.scrape.period_ps", "must be a positive integer")
    _check_nonneg_int(errors, f"{where}.scrape.scrapes", scrape.get("scrapes"))
    series = scrape.get("series")
    if not isinstance(series, list):
        _err(errors, f"{where}.scrape.series", "must be an array")
        return
    paths = [s.get("path") for s in series if isinstance(s, dict)]
    if paths != sorted(paths):
        _err(errors, f"{where}.scrape.series",
             "paths must be sorted (determinism contract)")
    for j, s in enumerate(series):
        swhere = f"{where}.scrape.series[{j}]"
        if not isinstance(s, dict):
            _err(errors, swhere, "must be an object")
            continue
        if not isinstance(s.get("path"), str) or not s.get("path"):
            _err(errors, swhere, "missing non-empty 'path'")
        if s.get("unit") not in SCRAPE_UNITS:
            _err(errors, f"{swhere}.unit",
                 f"expected one of {sorted(SCRAPE_UNITS)}, got {s.get('unit')!r}")
        _check_nonneg_int(errors, f"{swhere}.evicted", s.get("evicted"))
        points = s.get("points")
        if not isinstance(points, list):
            _err(errors, swhere, "missing 'points' array")
            continue
        prev_at = None
        for k, p in enumerate(points):
            if (not isinstance(p, list) or len(p) != 2
                    or any(isinstance(v, bool) or not isinstance(v, int)
                           for v in p)):
                _err(errors, f"{swhere}.points[{k}]",
                     "must be an [at_ps, value] integer pair")
                continue
            if prev_at is not None and p[0] < prev_at:
                _err(errors, f"{swhere}.points[{k}]",
                     "at_ps must be non-decreasing")
            prev_at = p[0]
    episodes = entry.get("episodes")
    if not isinstance(episodes, list):
        _err(errors, where, "missing 'episodes' array")
        return
    for j, e in enumerate(episodes):
        ewhere = f"{where}.episodes[{j}]"
        if not isinstance(e, dict):
            _err(errors, ewhere, "must be an object")
            continue
        for key in ("series", "cause"):
            if not isinstance(e.get(key), str) or not e.get(key):
                _err(errors, ewhere, f"missing non-empty {key!r}")
        _check_nonneg_int(errors, f"{ewhere}.onset_ps", e.get("onset_ps"))
        _check_nonneg_int(errors, f"{ewhere}.clear_ps", e.get("clear_ps"))
        if not isinstance(e.get("cleared"), bool):
            _err(errors, f"{ewhere}.cleared", "must be a boolean")
        if not isinstance(e.get("severity"), int) or isinstance(e.get("severity"), bool):
            _err(errors, f"{ewhere}.severity", "must be an integer")
        if (e.get("cleared") is True and isinstance(e.get("onset_ps"), int)
                and isinstance(e.get("clear_ps"), int)
                and e["clear_ps"] < e["onset_ps"]):
            _err(errors, ewhere, "cleared episode must have clear_ps >= onset_ps")


def validate(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        _err(errors, "schema",
             f"expected one of {sorted(SCHEMAS)}, got {schema!r}")
    if not isinstance(doc.get("binary"), str) or not doc.get("binary"):
        _err(errors, "binary", "must be a non-empty string")

    # Optional run-environment facts (e.g. the "cc" a --cc run used).
    # Emitted only when the run recorded at least one, so its absence is
    # fine.
    meta = doc.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            _err(errors, "meta", "must be an object when present")
        else:
            for key, value in meta.items():
                if not isinstance(value, str):
                    _err(errors, f"meta[{key!r}]",
                         f"must be a string, got {value!r}")
            cc = meta.get("cc")
            if cc is not None and cc not in CC_ALGORITHMS:
                _err(errors, "meta['cc']",
                     f"expected one of {sorted(CC_ALGORITHMS)}, got {cc!r}")

    points = doc.get("points")
    if not isinstance(points, list):
        _err(errors, "points", "must be an array")
        points = []
    for i, point in enumerate(points):
        where = f"points[{i}]"
        if not isinstance(point, dict):
            _err(errors, where, "must be an object")
            continue
        if not isinstance(point.get("name"), str) or not point.get("name"):
            _err(errors, where, "missing non-empty 'name'")
        counters = point.get("counters")
        if not isinstance(counters, dict):
            _err(errors, where, "missing 'counters' object")
            continue
        for key, value in counters.items():
            _check_number(errors, f"{where}.counters[{key!r}]", value)

    snapshots = doc.get("snapshots")
    if not isinstance(snapshots, list):
        _err(errors, "snapshots", "must be an array")
        snapshots = []
    labels = [s.get("label") for s in snapshots if isinstance(s, dict)]
    if labels != sorted(labels):
        _err(errors, "snapshots", "labels must be sorted (determinism contract)")
    for i, snap in enumerate(snapshots):
        where = f"snapshots[{i}]"
        if not isinstance(snap, dict):
            _err(errors, where, "must be an object")
            continue
        if not isinstance(snap.get("label"), str) or not snap.get("label"):
            _err(errors, where, "missing non-empty 'label'")
        inner = snap.get("snapshot")
        if not isinstance(inner, dict) or not isinstance(inner.get("metrics"), list):
            _err(errors, where, "missing 'snapshot.metrics' array")
            continue
        metrics = inner["metrics"]
        paths = [m.get("path") for m in metrics if isinstance(m, dict)]
        if paths != sorted(paths):
            _err(errors, f"{where}.snapshot.metrics",
                 "paths must be sorted (determinism contract)")
        for j, metric in enumerate(metrics):
            _check_metric(errors, f"{where}.snapshot.metrics[{j}]", metric)

    if schema in ("xgbe-bench/2", "xgbe-bench/3"):
        checkers = [("breakdowns", _check_breakdown),
                    ("timeseries", _check_series)]
        if schema == "xgbe-bench/3":
            checkers.append(("scrapes", _check_scrape))
        for key, checker in checkers:
            entries = doc.get(key)
            if not isinstance(entries, list):
                _err(errors, key, "must be an array (required in this schema)")
                continue
            labels = [e.get("label") for e in entries if isinstance(e, dict)]
            if labels != sorted(labels):
                _err(errors, key, "labels must be sorted (determinism contract)")
            for i, entry in enumerate(entries):
                checker(errors, f"{key}[{i}]", entry)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for filename in argv[1:]:
        try:
            with open(filename, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{filename}: unreadable: {exc}", file=sys.stderr)
            failed = True
            continue
        errors = validate(doc)
        if errors:
            failed = True
            for error in errors:
                print(f"{filename}: {error}", file=sys.stderr)
        else:
            npoints = len(doc.get("points", []))
            nsnaps = len(doc.get("snapshots", []))
            nbreak = len(doc.get("breakdowns", []))
            nseries = len(doc.get("timeseries", []))
            nscrapes = len(doc.get("scrapes", []))
            print(f"{filename}: OK ({npoints} points, {nsnaps} snapshots, "
                  f"{nbreak} breakdowns, {nseries} timeseries, "
                  f"{nscrapes} scrapes)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
