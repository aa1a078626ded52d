#!/usr/bin/env python3
"""Diff two merged bench reports (tools/run_bench.sh output) and emit a
Markdown summary flagging regressions.

Usage:
    tools/diff_bench.py BASELINE.json CURRENT.json [--threshold=0.15]

Both inputs have the shape {"<bench_binary>": <google-benchmark report>}.
Benchmarks are matched by (binary, benchmark name); the compared metric is
real_time. A benchmark is flagged as a regression when its time grew by
more than the threshold (default +15%). Baseline benchmarks the current
run lacks are listed as gone, so a deleted or renamed benchmark cannot
drop out of the diff unnoticed. Exit code is always 0 — nightly
timings on hosted runners are too noisy to gate on; the summary is for
humans (and lands in $GITHUB_STEP_SUMMARY on CI). See docs/BENCHMARKING.md.
"""

import argparse
import json
import sys


_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """({(binary, name): real_time_ns}, build_type) from a merged report."""
    with open(path) as f:
        merged = json.load(f)
    times = {}
    build_types = set()
    for binary, report in merged.items():
        if report:
            bt = (report.get("context") or {}).get("library_build_type")
            if bt:
                build_types.add(bt)
        for bench in report.get("benchmarks", []) if report else []:
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            t = bench.get("real_time")
            if name is None or t is None or t <= 0:
                continue
            unit = _UNIT_TO_NS.get(bench.get("time_unit", "ns"), 1.0)
            times[(binary, name)] = float(t) * unit
    return times, "/".join(sorted(build_types)) or "unknown"


def fmt(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:,.2f} {unit}"
    return f"{ns:,.0f} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that counts as a regression")
    args = parser.parse_args()

    try:
        base, base_build = load_times(args.baseline)
    except (OSError, json.JSONDecodeError) as e:
        print(f"## Bench diff\n\nbaseline unreadable ({e}); nothing to diff")
        return 0
    try:
        cur, cur_build = load_times(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"## Bench diff\n\ncurrent report unreadable ({e})")
        return 0

    regressions, improvements, gone, steady = [], [], [], 0
    for key, t_base in sorted(base.items()):
        t_cur = cur.get(key)
        if t_cur is None:
            gone.append(key)
            continue
        ratio = t_cur / t_base
        row = (key[0], key[1], t_base, t_cur, ratio)
        if ratio > 1.0 + args.threshold:
            regressions.append(row)
        elif ratio < 1.0 - args.threshold:
            improvements.append(row)
        else:
            steady += 1
    only_new = sorted(k for k in cur if k not in base)

    pct = int(args.threshold * 100)
    print("## Bench diff vs baseline\n")
    if base_build != cur_build:
        # Apples-to-oranges timings would mask every real regression
        # behind the build-type gap; say so instead of pretending to diff.
        print(f"⚠️ **Build types differ** — baseline is `{base_build}`, "
              f"this run is `{cur_build}`. Ratios below are not "
              f"regression evidence; re-record the baseline with "
              f"`BENCH_BUILD_DIR=build/release tools/run_bench.sh`.\n")
    print(f"{len(base)} baseline benchmarks, {steady} within ±{pct}%, "
          f"{len(regressions)} regressed, {len(improvements)} improved, "
          f"{len(gone)} gone, {len(only_new)} new.\n")

    def table(title, rows):
        print(f"### {title}\n")
        print("| binary | benchmark | baseline | current | ratio |")
        print("|---|---|---:|---:|---:|")
        for binary, name, t_base, t_cur, ratio in rows:
            print(f"| {binary} | `{name}` | {fmt(t_base)} | "
                  f"{fmt(t_cur)} | {ratio:.2f}x |")
        print()

    if regressions:
        table(f"⚠️ Regressions (> +{pct}%)", regressions)
    if improvements:
        table(f"Improvements (> -{pct}%)", improvements)
    if gone:
        print("### Gone (in the baseline, not in this run)\n")
        for binary, name in gone:
            print(f"- {binary}: `{name}`")
        print()
    if only_new:
        print("### New benchmarks (no baseline)\n")
        for binary, name in only_new:
            print(f"- {binary}: `{name}`")
        print()
    if not regressions:
        print("No regressions beyond the threshold.")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # harmless: output piped into head/less
        sys.exit(0)
