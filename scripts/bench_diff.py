#!/usr/bin/env python3
"""Diff two bench --json result logs and fail on regressions.

Compares the per-point counters of `current` against `baseline` (points are
matched by name). Any counter whose value moved by more than the tolerance —
or any baseline point/counter missing from `current` — is a regression and
the script exits 1. Points or counters that exist only in `current` are
reported but allowed: the schema grows additively.

The simulator is deterministic, so the default tolerances are tight
(rel 1e-6, abs 1e-9): a "diff" here means the model changed, not that the
measurement was noisy. Loosen the tolerances when diffing across intentional
model changes to see the magnitude of every shift.

Time-resolved telemetry (schema xgbe-bench/3) is diffed structurally, not
point-by-point: scrape entries are matched by label, and a matched entry
must agree on series count, total point count, and a canonical-JSON
fingerprint of the series data and the detector episodes. Entries that
exist only in `current` are allowed (an unarmed golden stays valid when the
current run is armed); entries the baseline has but `current` lost are
regressions. The tolerance flags do not apply — the series are integer
samples of a deterministic run, so any drift is a model change.

Registry snapshots are gated the same way: the snapshots sharing a label
(a label may repeat) get one canonical-JSON fingerprint, and a label the
baseline has must be present in `current` with the same fingerprint.
Labels that exist only in `current` are allowed.

Stdlib-only so CI can run it on a bare python3.

Usage:
  bench_diff.py baseline.json current.json [--rel-tol R] [--abs-tol A]
  bench_diff.py --self-test

Exit codes: 0 = no regression, 1 = regression / missing data,
2 = usage or I/O error.
"""

import argparse
import hashlib
import json
import sys

SENTINELS = {"nan", "inf", "-inf"}


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _points_by_name(doc):
    points = {}
    for point in doc.get("points", []):
        if isinstance(point, dict) and isinstance(point.get("name"), str):
            points[point["name"]] = point.get("counters", {})
    return points


def _scrapes_by_label(doc):
    entries = {}
    for entry in doc.get("scrapes", []):
        if isinstance(entry, dict) and isinstance(entry.get("label"), str):
            entries[entry["label"]] = entry
    return entries


def _snapshot_digests(doc):
    """One fingerprint per snapshot label, over its snapshots in order."""
    groups = {}
    for entry in doc.get("snapshots", []):
        if isinstance(entry, dict) and isinstance(entry.get("label"), str):
            groups.setdefault(entry["label"], []).append(entry.get("snapshot"))
    return {label: _fingerprint(snaps) for label, snaps in groups.items()}


def _fingerprint(obj):
    """Canonical-JSON digest: stable across key order and whitespace."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _scrape_shape(entry):
    """(series count, total point count) of one scrapes[] entry."""
    scrape = entry.get("scrape")
    series = scrape.get("series", []) if isinstance(scrape, dict) else []
    points = sum(
        len(s.get("points", [])) for s in series if isinstance(s, dict))
    return len(series), points


def diff_scrapes(baseline, current, out=sys.stdout):
    """Structural scrape diff; returns the number of regressions."""
    base = _scrapes_by_label(baseline)
    cur = _scrapes_by_label(current)
    regressions = 0

    for label in sorted(base):
        if label not in cur:
            print(f"MISSING scrape {label!r} (present in baseline)", file=out)
            regressions += 1
            continue
        base_series, base_points = _scrape_shape(base[label])
        cur_series, cur_points = _scrape_shape(cur[label])
        if base_series != cur_series:
            print(f"DIFF scrape {label}: series {base_series} -> {cur_series}",
                  file=out)
            regressions += 1
        if base_points != cur_points:
            print(f"DIFF scrape {label}: points {base_points} -> {cur_points}",
                  file=out)
            regressions += 1
        for part in ("scrape", "episodes"):
            base_fp = _fingerprint(base[label].get(part))
            cur_fp = _fingerprint(cur[label].get(part))
            if base_fp != cur_fp:
                print(f"DIFF scrape {label}: {part} fingerprint "
                      f"{base_fp} -> {cur_fp}", file=out)
                regressions += 1

    for label in sorted(set(cur) - set(base)):
        print(f"NEW scrape {label}", file=out)
    return regressions


def diff_snapshots(baseline, current, out=sys.stdout):
    """Per-label snapshot fingerprint diff; returns the number of
    regressions."""
    base = _snapshot_digests(baseline)
    cur = _snapshot_digests(current)
    regressions = 0
    for label in sorted(base):
        if label not in cur:
            print(f"MISSING snapshot {label!r} (present in baseline)",
                  file=out)
            regressions += 1
        elif base[label] != cur[label]:
            print(f"DIFF snapshot {label}: fingerprint "
                  f"{base[label]} -> {cur[label]}", file=out)
            regressions += 1
    for label in sorted(set(cur) - set(base)):
        print(f"NEW snapshot {label}", file=out)
    return regressions


def _differs(base, cur, rel_tol, abs_tol):
    """True when the two counter values are meaningfully different."""
    if isinstance(base, str) or isinstance(cur, str):
        # nan/inf sentinels: only an exact sentinel match is equal.
        return base != cur
    return abs(cur - base) > abs_tol + rel_tol * abs(base)


def diff(baseline, current, rel_tol, abs_tol, out=sys.stdout):
    """Returns the number of regressions; prints one line per finding."""
    base_points = _points_by_name(baseline)
    cur_points = _points_by_name(current)
    regressions = 0

    for name in sorted(base_points):
        if name not in cur_points:
            print(f"MISSING point {name!r} (present in baseline)", file=out)
            regressions += 1
            continue
        base_counters = base_points[name]
        cur_counters = cur_points[name]
        for key in sorted(base_counters):
            if key not in cur_counters:
                print(f"MISSING counter {name!r}:{key!r}", file=out)
                regressions += 1
                continue
            base_value = base_counters[key]
            cur_value = cur_counters[key]
            if _differs(base_value, cur_value, rel_tol, abs_tol):
                if isinstance(base_value, str) or isinstance(cur_value, str):
                    detail = f"{base_value!r} -> {cur_value!r}"
                else:
                    delta = cur_value - base_value
                    pct = (100.0 * delta / base_value) if base_value else float("inf")
                    detail = f"{base_value:g} -> {cur_value:g} ({delta:+g}, {pct:+.4g}%)"
                print(f"DIFF {name}:{key}: {detail}", file=out)
                regressions += 1
        for key in sorted(set(cur_counters) - set(base_counters)):
            print(f"NEW counter {name}:{key} = {cur_counters[key]}", file=out)

    for name in sorted(set(cur_points) - set(base_points)):
        print(f"NEW point {name}", file=out)

    regressions += diff_scrapes(baseline, current, out=out)
    regressions += diff_snapshots(baseline, current, out=out)
    return regressions


def self_test():
    """Exercises the matcher without touching the filesystem."""
    baseline = {
        "schema": "xgbe-bench/2",
        "binary": "fig6",
        "points": [
            {"name": "a", "counters": {"latency_us": 18.2087, "rtt_us": 36.4174}},
            {"name": "b", "counters": {"gbps": 2.37, "special": "nan"}},
        ],
    }
    import copy
    import io

    identical = copy.deepcopy(baseline)
    assert diff(baseline, identical, 1e-6, 1e-9, out=io.StringIO()) == 0, \
        "identical logs must not diff"

    perturbed = copy.deepcopy(baseline)
    perturbed["points"][0]["counters"]["latency_us"] *= 1.5
    assert diff(baseline, perturbed, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a 50% latency regression must be caught"
    assert diff(baseline, perturbed, 0.6, 1e-9, out=io.StringIO()) == 0, \
        "a loose rel-tol must absorb it"

    missing = copy.deepcopy(baseline)
    del missing["points"][1]
    assert diff(baseline, missing, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a dropped point must be caught"

    dropped_counter = copy.deepcopy(baseline)
    del dropped_counter["points"][0]["counters"]["rtt_us"]
    assert diff(baseline, dropped_counter, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a dropped counter must be caught"

    sentinel = copy.deepcopy(baseline)
    sentinel["points"][1]["counters"]["special"] = "inf"
    assert diff(baseline, sentinel, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a sentinel flip must be caught"

    additive = copy.deepcopy(baseline)
    additive["points"][0]["counters"]["new_metric"] = 1.0
    additive["points"].append({"name": "c", "counters": {"x": 1}})
    assert diff(baseline, additive, 1e-6, 1e-9, out=io.StringIO()) == 0, \
        "additive growth must be allowed"

    # --- structural scrape diff (schema xgbe-bench/3) ---------------------
    scraped = copy.deepcopy(baseline)
    scraped["schema"] = "xgbe-bench/3"
    scraped["scrapes"] = [{
        "label": "a",
        "scrape": {
            "period_ps": 1000000, "scrapes": 3,
            "series": [{
                "path": "switch/tor0/dropped_queue_full", "unit": "count",
                "evicted": 0,
                "points": [[1000000, 0], [2000000, 4], [3000000, 9]],
            }],
        },
        "episodes": [{
            "series": "switch/tor0/dropped_queue_full",
            "cause": "incast-collapse", "onset_ps": 2000000,
            "clear_ps": 0, "cleared": False, "severity": 9,
        }],
    }]

    same_scrape = copy.deepcopy(scraped)
    assert diff(scraped, same_scrape, 1e-6, 1e-9, out=io.StringIO()) == 0, \
        "identical scrapes must not diff"

    armed_only_current = copy.deepcopy(baseline)
    assert diff(armed_only_current, scraped, 1e-6, 1e-9,
                out=io.StringIO()) == 0, \
        "a scrape that exists only in current must be allowed"
    assert diff(scraped, armed_only_current, 1e-6, 1e-9,
                out=io.StringIO()) == 1, \
        "a scrape the baseline has but current lost must be caught"

    mutated_point = copy.deepcopy(scraped)
    mutated_point["scrapes"][0]["scrape"]["series"][0]["points"][2][1] = 10
    assert diff(scraped, mutated_point, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a mutated sample must be caught by the fingerprint"

    dropped_point = copy.deepcopy(scraped)
    del dropped_point["scrapes"][0]["scrape"]["series"][0]["points"][2]
    assert diff(scraped, dropped_point, 1e-6, 1e-9, out=io.StringIO()) == 2, \
        "a dropped sample must be caught by point count and fingerprint"

    mutated_episode = copy.deepcopy(scraped)
    mutated_episode["scrapes"][0]["episodes"][0]["onset_ps"] = 3000000
    assert diff(scraped, mutated_episode, 1e-6, 1e-9,
                out=io.StringIO()) == 1, \
        "a shifted episode onset must be caught"

    extra_series = copy.deepcopy(scraped)
    extra_series["scrapes"][0]["scrape"]["series"].append({
        "path": "switch/tor1/dropped_queue_full", "unit": "count",
        "evicted": 0, "points": [[1000000, 0]],
    })
    assert diff(scraped, extra_series, 1e-6, 1e-9, out=io.StringIO()) == 3, \
        "an extra series must be caught (series, points, fingerprint)"

    # --- snapshot fingerprints --------------------------------------------
    snapped = copy.deepcopy(baseline)
    snapped["snapshots"] = [
        {"label": "a", "snapshot": {"metrics": [
            {"path": "sw/port/l0/queued_bytes", "kind": "gauge",
             "value": 9014}]}},
        {"label": "a", "snapshot": {"metrics": [
            {"path": "sw/port/l0/queued_bytes", "kind": "gauge",
             "value": 0}]}},
        {"label": "b", "snapshot": {"metrics": [
            {"path": "l0/drops_queue", "kind": "counter", "value": 3}]}},
    ]
    same_snapshots = copy.deepcopy(snapped)
    assert diff(snapped, same_snapshots, 1e-6, 1e-9, out=io.StringIO()) == 0, \
        "identical snapshots must not diff"

    changed_value = copy.deepcopy(snapped)
    changed_value["snapshots"][1]["snapshot"]["metrics"][0]["value"] = 1
    assert diff(snapped, changed_value, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "one changed snapshot value must be caught"
    assert diff(snapped, changed_value, 0.9, 10.0, out=io.StringIO()) == 1, \
        "the tolerances must not absorb a snapshot change"

    lost_label = copy.deepcopy(snapped)
    del lost_label["snapshots"][2]
    assert diff(snapped, lost_label, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a snapshot label the baseline has but current lost must be caught"

    lost_repeat = copy.deepcopy(snapped)
    del lost_repeat["snapshots"][1]
    assert diff(snapped, lost_repeat, 1e-6, 1e-9, out=io.StringIO()) == 1, \
        "a dropped snapshot under a repeated label must be caught"

    new_label = copy.deepcopy(snapped)
    new_label["snapshots"].append(
        {"label": "c", "snapshot": {"metrics": []}})
    assert diff(snapped, new_label, 1e-6, 1e-9, out=io.StringIO()) == 0, \
        "a snapshot label that exists only in current must be allowed"

    print("bench_diff.py self-test: OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", help="baseline result log")
    parser.add_argument("current", nargs="?", help="current result log")
    parser.add_argument("--rel-tol", type=float, default=1e-6)
    parser.add_argument("--abs-tol", type=float, default=1e-9)
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in behaviour checks and exit")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        baseline = _load(args.baseline)
        current = _load(args.current)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable input: {exc}", file=sys.stderr)
        return 2
    regressions = diff(baseline, current, args.rel_tol, args.abs_tol)
    npoints = len(_points_by_name(baseline))
    nscrapes = len(_scrapes_by_label(baseline))
    nsnapshots = len(_snapshot_digests(baseline))
    if regressions == 0:
        print(f"OK: {npoints} baseline points matched within tolerance, "
              f"{nscrapes} scrapes matched structurally, "
              f"{nsnapshots} snapshot labels matched")
        return 0
    print(f"FAIL: {regressions} regression(s) against {npoints} baseline points",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
