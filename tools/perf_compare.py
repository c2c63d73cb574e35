#!/usr/bin/env python3
"""Throughput gate for bench_simspeed (stdlib only).

Reads a google-benchmark JSON report (``--benchmark_out`` format) and
checks it two ways:

1. Baseline drift: every benchmark present in both the report and the
   committed baseline (BENCH_simspeed.json) must keep at least
   ``1 - tolerance`` of the baseline's items_per_second (default
   tolerance 15%). The baseline is host-dependent; refresh it with
   ``update`` when the reference machine changes.

   Benchmarks present on only one side (baseline or report) warn
   instead of failing, so filtered runs and freshly added benchmarks
   do not break the gate; only zero overlap is fatal.

2. Within-run ratios (host-independent): each feature-specialized
   access path is timed against the same configuration forced onto the
   fully-general path in the same process, and specialization must
   never lose meaningfully; the functional-warming and sampled-sweep
   pairs additionally assert their speedup floors (2x and 5x). Ratios
   are computed from the report alone, so they hold on any host.
   Floors marked parallel (multi-worker vs. serial) are skipped when
   the report was taken on a single-CPU host.

Usage:
  tools/perf_compare.py check  <report.json> [--baseline FILE]
                               [--tolerance F] [--ratio-slack F]
                               [--emit-json FILE]
  tools/perf_compare.py update <report.json> [--baseline FILE]

``--emit-json FILE`` additionally writes a machine-readable
``sac-perf-summary-v1`` document (per-benchmark ratio and drift,
pass/fail) so CI and tools/sac_report.py can chart the perf
trajectory instead of scraping stdout.

Short runs (``--benchmark_min_time=0.1``, as in the ``perf-smoke``
target) are noisy; pass a larger ``--tolerance`` and a nonzero
``--ratio-slack`` (subtracted from every ratio floor) there, and keep
the defaults for the full-length ``tools/check.sh perf`` leg.

The baseline path defaults to BENCH_simspeed.json next to the repo
root (this script's parent directory); the SAC_PERF_BASELINE
environment variable overrides it.
"""

import argparse
import json
import os
import sys

DEFAULT_TOLERANCE = 0.15

# (fast benchmark, slow benchmark, min ratio, parallel). The first
# three floors are no-regression guards with noise margin, not speedup
# claims: the soft lattice point keeps nearly every feature check, so
# its ratio hovers around 1.0; standard/prefetch run well above it.
# The warming and sampled floors ARE speedup claims (the acceptance
# criteria of the sampling engine): functional warming must run >=2x
# the detailed path, and the sampled sweep >=5x the full-detail sweep.
# Likewise the stack floor: ONE Mattson stack-distance traversal must
# answer the 8-cell standard family >=4x faster than eight exact
# replays (and, unlike sampling, with bit-identical miss counts).
# Floors marked parallel compare multi-worker against serial runs and
# are skipped when the report's host has a single CPU, where extra
# workers only add contention.
RATIO_FLOORS = [
    ("BM_SimulateStandard", "BM_SimulateStandardGeneral", 0.85, False),
    ("BM_SimulateSoft", "BM_SimulateSoftGeneral", 0.85, False),
    ("BM_SimulateSoftPrefetch", "BM_SimulateSoftPrefetchGeneral", 0.85,
     False),
    ("BM_SimulateSoftWarming", "BM_SimulateSoft", 2.0, False),
    ("BM_SweepSampled", "BM_SweepFullDetail", 5.0, False),
    # The live-point floor: a sampled re-sweep served from a warm
    # checkpoint library restores each window's architectural state
    # instead of functionally warming it, so it must run >=5x the cold
    # sampled sweep at the same deep-warmup geometry (the acceptance
    # gate of the checkpoint library; the Checkpoint tests prove the
    # restored runs are bit-identical in RunStats).
    ("BM_SweepSampledCheckpointed", "BM_SweepSampled", 5.0, False),
    ("BM_SweepStackSinglePass", "BM_SweepPerConfigReplay", 4.0, False),
    ("BM_StreamedSweep/2/real_time", "BM_StreamedSweep/1/real_time",
     1.0, True),
    # Intra-trace parallelism floors (both bit-identical to their
    # serial counterparts by the Parallel/Sharded differential tests):
    # checkpointed window replay fanned out over 8 workers must beat
    # one worker >=3x, and the set-sharded Mattson pass at 8 shards
    # must beat the single-stack pass >=2x (each shard re-reads the
    # whole stream, so its scaling is bounded by the filter's cost).
    ("BM_SweepSampledCheckpointedParallel/8/real_time",
     "BM_SweepSampledCheckpointedParallel/1/real_time", 3.0, True),
    ("BM_SweepStackSharded/8/real_time",
     "BM_SweepStackSharded/1/real_time", 2.0, True),
]


def default_baseline():
    env = os.environ.get("SAC_PERF_BASELINE")
    if env:
        return env
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(root, "BENCH_simspeed.json")


def load_report(path):
    """items_per_second per benchmark, aggregates skipped."""
    with open(path) as f:
        report = json.load(f)
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        ips = b.get("items_per_second")
        if ips:
            out[b["name"]] = float(ips)
    if not out:
        sys.exit(f"error: no items_per_second entries in {path}")
    return out, report.get("context", {})


def cmd_update(args):
    current, context = load_report(args.report)
    baseline = {
        "_meta": {
            "source": "tools/perf_compare.py update",
            "host_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "build_type": context.get("library_build_type"),
        },
        "items_per_second": {
            name: round(ips, 1) for name, ips in sorted(current.items())
        },
    }
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"wrote {len(current)} baseline entries to {args.baseline}")


def cmd_check(args):
    current, context = load_report(args.report)
    failures = []
    summary_benchmarks = []
    summary_ratios = []

    # 1. Drift against the committed baseline. Coverage mismatches in
    # either direction warn instead of fail: a renamed or added
    # benchmark should prompt a baseline refresh, not break the gate
    # for an unrelated change (only zero overlap is fatal).
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)["items_per_second"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read baseline {args.baseline}: {e}")
    compared = 0
    for name, base_ips in sorted(baseline.items()):
        ips = current.get(name)
        if ips is None:
            print(f"  warning: {name} is in the baseline but not in "
                  f"this report (filtered run, or a stale baseline — "
                  f"refresh with 'update')")
            continue
        compared += 1
        floor = base_ips * (1.0 - args.tolerance)
        verdict = "ok" if ips >= floor else "REGRESSED"
        summary_benchmarks.append({
            "name": name,
            "items_per_second": ips,
            "baseline_items_per_second": base_ips,
            "drift": ips / base_ips - 1.0,
            "floor": floor,
            "ok": ips >= floor,
        })
        print(f"  {verdict:9s} {name}: {ips / 1e6:.2f} M/s "
              f"(baseline {base_ips / 1e6:.2f}, floor {floor / 1e6:.2f})")
        if ips < floor:
            failures.append(
                f"{name} regressed: {ips / 1e6:.2f} M/s < "
                f"{floor / 1e6:.2f} M/s "
                f"({100 * args.tolerance:.0f}% below baseline)")
    for name in sorted(set(current) - set(baseline)):
        print(f"  warning: {name} is in this report but not in the "
              f"baseline (new benchmark? refresh with 'update')")
    if compared == 0:
        failures.append("no benchmark overlaps the baseline")

    # 2. Host-independent within-run ratios.
    host_cpus = context.get("num_cpus")
    for fast, general, floor, parallel in RATIO_FLOORS:
        if fast not in current or general not in current:
            print(f"  (skip) ratio {fast}/{general}: missing entries")
            summary_ratios.append({"fast": fast, "slow": general,
                                   "skipped": "missing entries"})
            continue
        if parallel and host_cpus == 1:
            print(f"  (skip) ratio {fast}/{general}: single-CPU host, "
                  f"parallel floor not meaningful")
            summary_ratios.append({"fast": fast, "slow": general,
                                   "skipped": "single-CPU host"})
            continue
        floor = max(0.0, floor - args.ratio_slack)
        ratio = current[fast] / current[general]
        verdict = "ok" if ratio >= floor else "REGRESSED"
        summary_ratios.append({"fast": fast, "slow": general,
                               "ratio": ratio, "floor": floor,
                               "ok": ratio >= floor})
        print(f"  {verdict:9s} {fast}/{general} = {ratio:.2f}x "
              f"(floor {floor:.2f}x)")
        if ratio < floor:
            failures.append(
                f"within-run ratio below floor: "
                f"{fast}/{general} = {ratio:.2f}x < {floor:.2f}x")

    if args.emit_json:
        summary = {
            "schema": "sac-perf-summary-v1",
            "report": args.report,
            "baseline": args.baseline,
            "tolerance": args.tolerance,
            "ratio_slack": args.ratio_slack,
            "host_cpus": host_cpus,
            "benchmarks": summary_benchmarks,
            "ratios": summary_ratios,
            "pass": not failures,
            "failures": failures,
        }
        with open(args.emit_json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
        print(f"  wrote machine-readable summary to {args.emit_json}")

    if failures:
        print("\nperf check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("\nperf check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, fn in (("check", cmd_check), ("update", cmd_update)):
        s = sub.add_parser(name)
        s.add_argument("report", help="google-benchmark JSON report")
        s.add_argument("--baseline", default=default_baseline())
        if name == "check":
            s.add_argument("--tolerance", type=float,
                           default=DEFAULT_TOLERANCE)
            s.add_argument("--ratio-slack", type=float, default=0.0,
                           help="subtract from every ratio floor "
                                "(for short, noisy smoke runs)")
            s.add_argument("--emit-json", metavar="FILE",
                           help="write a machine-readable "
                                "sac-perf-summary-v1 JSON summary "
                                "(per-benchmark drift, ratios, "
                                "pass/fail) for CI and sac_report.py")
        s.set_defaults(fn=fn)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
