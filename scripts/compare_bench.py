#!/usr/bin/env python3
"""Gate benchmark results against a committed baseline.

Compares a fresh benchmark report against the baseline JSON checked into
the repo and exits non-zero when any entry regressed beyond the
tolerance. The report kind is auto-detected per file, and it fixes the
direction of the gate:

  - google-benchmark JSON (BENCH_perf.json): per benchmark, the median
    of iteration cpu_times is compared; lower is better;
  - the blinkradar-obs-v1 metrics snapshot (BENCH_perf_stages.json):
    per stage/kernel histogram, mean_ns, p50_ns and p99_ns are each
    compared as separate entries ("stage.frame_total/p99"), so a
    kernel-level regression fails CI with the stage and the percentile
    that moved named in the verdict; lower is better;
  - the blinkradar-robustness-v1 sensor-fault sweep
    (BENCH_robustness.json): pooled blink F1 per fault point, keyed
    "fault@rate/f1" ("iq_saturation@0.05/f1"); higher is better;
  - the blinkradar-recovery-v1 crash drill (BENCH_recovery.json): blink
    F1 per checkpoint interval, keyed "interval/f1" ("250/f1"); higher
    is better.

Only regressions fail the gate (a slower latency, a lower F1);
improvements are reported but pass (refresh the baseline to bank them).
Entries whose baseline is <= 0 are skipped: there is no relative change
to measure. Entries present on one side only are reported and skipped —
renames should come with a baseline refresh.

Usage:
  scripts/compare_bench.py BASELINE CURRENT [--tolerance-pct P]
  scripts/compare_bench.py BENCH_perf.json /tmp/new_perf.json
  scripts/compare_bench.py BENCH_recovery.json /tmp/new_recovery.json \
      --tolerance-pct 10

Tolerance default is 10%. Microbench medians on shared CI hosts wobble
by a few percent; stage p50s (duty-cycled, smaller samples) wobble
more, so CI passes a looser tolerance for the stages file. The F1
sweeps are seed-deterministic: a rerun of the same build reproduces
every F1 exactly, so their tolerance only absorbs toolchain drift.
"""
import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def gbench_medians(report):
    """name -> median iteration cpu_time from a google-benchmark report."""
    times = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        times.setdefault(bench["run_name"], []).append(bench["cpu_time"])
    return {name: statistics.median(ts) for name, ts in times.items()}


def stage_stats(report):
    """"name/stat" -> ns for each histogram's mean, p50 and p99.

    Mean catches broad kernel regressions, p50 the typical frame, p99
    the spike behaviour (e.g. the bin-selection scan) — a regression in
    any one fails with that stat named.
    """
    stats = {}
    for name, hist in report.get("histograms", {}).items():
        if hist.get("count", 0) <= 0:
            continue
        for stat in ("mean_ns", "p50_ns", "p99_ns"):
            if stat in hist:
                stats[f"{name}/{stat[:-3]}"] = hist[stat]
    return stats


def robustness_f1(report):
    """"fault@rate/f1" -> pooled blink F1 per sensor-fault point."""
    return {f"{p['fault']}@{p['rate']:g}/f1": float(p["f1"])
            for p in report.get("points", [])}


def recovery_f1(report):
    """"interval/f1" -> blink F1 per checkpoint interval (frames)."""
    return {f"{p['snapshot_interval_frames']}/f1": float(p["f1"])
            for p in report.get("points", [])}


# schema -> (extractor, unit, higher is better)
SCHEMAS = {
    "google-benchmark": (gbench_medians, "ns", False),
    "blinkradar-obs-v1": (stage_stats, "ns", False),
    "blinkradar-robustness-v1": (robustness_f1, "F1", True),
    "blinkradar-recovery-v1": (recovery_f1, "F1", True),
}


def kind(report):
    """The report's schema; google-benchmark JSON names none."""
    return "google-benchmark" if "benchmarks" in report else report.get(
        "schema")


def extract(report, path):
    """-> (name -> value, unit, higher_is_better) for one report."""
    if kind(report) not in SCHEMAS:
        sys.exit(f"{path}: unrecognized report schema")
    fn, unit, higher_is_better = SCHEMAS[kind(report)]
    return fn(report), unit, higher_is_better


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--tolerance-pct", type=float, default=10.0,
                        help="max allowed regression (default 10%%)")
    args = parser.parse_args()

    base_report, curr_report = load(args.baseline), load(args.current)
    if kind(curr_report) != kind(base_report):
        sys.exit(f"{args.current}: not the same report kind as "
                 f"{args.baseline}")
    base, unit, higher_is_better = extract(base_report, args.baseline)
    curr, _, _ = extract(curr_report, args.current)
    digits = 1 if unit == "ns" else 4

    missing = sorted(set(base) - set(curr))
    added = sorted(set(curr) - set(base))
    for name in missing:
        print(f"  [gone]  {name}: in baseline only (baseline refresh due?)")
    for name in added:
        print(f"  [new]   {name}: {curr[name]:12.{digits}f} {unit} "
              f"(no baseline yet)")

    regressions = []
    for name in sorted(set(base) & set(curr)):
        if base[name] <= 0.0:
            continue
        pct = 100.0 * (curr[name] - base[name]) / base[name]
        worse_pct = -pct if higher_is_better else pct
        status = "ok"
        if worse_pct > args.tolerance_pct:
            status = "REGRESSION"
            regressions.append((name, pct, worse_pct))
        elif worse_pct < -args.tolerance_pct:
            status = "better"
        print(f"  [{status:>10}] {name}: {base[name]:12.{digits}f} -> "
              f"{curr[name]:12.{digits}f} {unit} ({pct:+.1f} %)")

    if regressions:
        worst = max(regressions, key=lambda r: r[2])
        sys.exit(f"FAIL: {len(regressions)} benchmark(s) worse than "
                 f"baseline by more than {args.tolerance_pct:.0f}% "
                 f"(worst: {worst[0]} {worst[1]:+.1f}%)")
    print(f"OK: no regressions beyond {args.tolerance_pct:.0f}% "
          f"({len(set(base) & set(curr))} compared)")


if __name__ == "__main__":
    main()
