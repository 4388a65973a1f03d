#!/usr/bin/env python3
"""Run one or more google-benchmark binaries and distill their JSON into a
single compact record.

Usage:
    tools/bench_to_json.py BENCH_BINARY [BENCH_BINARY ...]
                           [--filter REGEX] [--out FILE]
                           [--label KEY=VALUE ...]
                           [--compare BASELINE.json]

The full google-benchmark JSON is verbose (context + per-iteration noise);
this keeps one entry per benchmark (name, real/cpu time in seconds,
iterations, user counters) plus freeform labels (e.g. --label pr=3
--label baseline_s=0.2508), which is what the BENCH_*.json trajectory files
in the repo root record. With several binaries (e.g. bench_neighbor_graph
and bench_suite_throughput) the entries merge into one trajectory record;
each entry is tagged with the binary it came from so CI can track every
tracked bench in a single artifact.

--compare prints a markdown table of per-metric deltas against a previously
recorded trajectory file (e.g. BENCH_pr3.json): real time plus every shared
user counter, matched by benchmark name. It is informational only — shared
CI runners are far too noisy to gate on — which is why CI pipes it into the
job summary under continue-on-error and the exit code stays 0 even when
every metric regressed.
"""

import argparse
import json
import os
import subprocess
import sys


def run_benchmark(binary: str, bench_filter: str | None) -> dict:
    cmd = [binary, "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark binary failed with code {proc.returncode}")
    return json.loads(proc.stdout)


def to_seconds(value: float, unit: str) -> float:
    scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    return value * scale.get(unit, 1.0)


def distill(raw: dict) -> list[dict]:
    reserved = {
        "name", "run_name", "run_type", "repetitions", "repetition_index",
        "threads", "iterations", "real_time", "cpu_time", "time_unit",
        "family_index", "per_family_instance_index", "aggregate_name",
        "aggregate_unit", "label", "error_occurred", "error_message",
    }
    out = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            # UseRealTime() appends "/real_time" to the name; drop it so an
            # entry keeps matching its recorded trajectory.
            "name": b["name"].removesuffix("/real_time"),
            "real_time_s": to_seconds(b["real_time"], b.get("time_unit", "s")),
            "cpu_time_s": to_seconds(b["cpu_time"], b.get("time_unit", "s")),
            "iterations": b.get("iterations", 0),
        }
        # The benchmark's SetLabel string (e.g. "tier=avx512") pins the
        # machine-dependent config a number was measured under.
        if b.get("label"):
            entry["label"] = b["label"]
        counters = {k: v for k, v in b.items() if k not in reserved}
        if counters:
            entry["counters"] = counters
        out.append(entry)
    return out


def format_delta(baseline: float, current: float) -> str:
    if baseline == 0:
        return "n/a"
    pct = (current - baseline) / baseline * 100.0
    return f"{pct:+.1f}%"


def compare_records(baseline: dict, current: dict) -> str:
    """Markdown per-metric delta table between two trajectory records.

    Benchmarks match by name (binary tags can differ between a merged CI
    record and a single-binary baseline). real_time_s always reports;
    counters report when both records carry them.
    """
    by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    lines = [
        f"### Perf trajectory vs PR {baseline.get('labels', {}).get('pr', '?')}"
        f" (informational, not a gate)",
        "",
        "| benchmark | metric | baseline | current | delta |",
        "|---|---|---:|---:|---:|",
    ]
    matched = False
    for bench in current.get("benchmarks", []):
        base = by_name.get(bench["name"])
        if base is None:
            lines.append(f"| {bench['name']} | — | n/a (new) | — | — |")
            continue
        matched = True
        rows = [("real_time_s", base["real_time_s"], bench["real_time_s"])]
        base_counters = base.get("counters", {})
        for key, value in bench.get("counters", {}).items():
            if key in base_counters:
                rows.append((key, base_counters[key], value))
        for metric, base_value, value in rows:
            lines.append(
                f"| {bench['name']} | {metric} | {base_value:.4g} | "
                f"{value:.4g} | {format_delta(base_value, value)} |")
    if not matched:
        lines.append("| (no shared benchmarks) | — | — | — | — |")
    lines.append("")
    lines.append(f"_baseline record: host={baseline.get('host', '?')}, "
                 f"date={baseline.get('date', '?')}_")
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binaries", nargs="+", metavar="binary",
                        help="google-benchmark executable(s); entries merge")
    parser.add_argument("--filter", default=None, help="--benchmark_filter regex")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--label", action="append", default=[],
                        metavar="KEY=VALUE", help="freeform labels for the record")
    parser.add_argument("--compare", default=None, metavar="BASELINE.json",
                        help="print per-metric deltas against a recorded "
                             "trajectory file (informational; exit code stays 0)")
    args = parser.parse_args()

    labels = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--label expects KEY=VALUE, got '{item}'")
        labels[key] = value

    record = {"host": "", "num_cpus": 0, "date": "", "labels": labels,
              "benchmarks": []}
    for binary in args.binaries:
        raw = run_benchmark(binary, args.filter)
        context = raw.get("context", {})
        # Context comes from the first binary (same host for all of them).
        if not record["host"]:
            record["host"] = context.get("host_name", "")
            record["num_cpus"] = context.get("num_cpus", 0)
            record["date"] = context.get("date", "")
        entries = distill(raw)
        if len(args.binaries) > 1:
            name = os.path.basename(binary)
            for entry in entries:
                entry["binary"] = name
        record["benchmarks"].extend(entries)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        sys.stdout.write(compare_records(baseline, record))


if __name__ == "__main__":
    main()
