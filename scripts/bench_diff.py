#!/usr/bin/env python3
"""Compare two BENCH_engine.json documents (committed baseline vs fresh).

Accepts schema bddmin-bench-engine/8 on both sides.  Reports
percentage deltas on phase wall times, the engine's work counters,
per-minimizer size and time totals, the "serve" section (daemon
load-generation throughput, tail latency, per-status reply counts,
server-side phase means and scraped daemon counters) and the "cbdd"
ablation.

Gates:
- phase seconds past --time-threshold; the capture phase has its own
  tight --capture-threshold, since the budget checks must cost nearly
  nothing when no budget is set;
- work counters past --count-threshold;
- any change of a minimizer's total_size (sizes are deterministic);
- serve throughput drop and p50/p95/p99 growth past the generous
  --serve-threshold (wall-clock latency on shared machines is noisy),
  a rising error or dnf rate, and a relative drop of the result-cache
  hit rate past the same threshold; busy_replies (backpressure
  refusals) are reported, never gated as errors;
- always, whatever the configuration: serve error replies, and a
  cbdd ablation whose verdicts diverge from the plain run (a
  correctness bug).

Runs whose configuration differs (jobs / quick / max_calls / image /
limits / repr) are reported without gating; serve deltas also need
the same load shape (clients / requests / workers).  Exit status is 0
unless --strict is given AND a gated regression was found AND the two
runs were comparable — CI runs this non-fatally on a quick smoke
capture, where only the report is wanted.

usage: bench_diff.py BASELINE FRESH [--time-threshold PCT]
                                    [--count-threshold PCT]
                                    [--capture-threshold PCT]
                                    [--serve-threshold PCT] [--strict]
"""

import argparse
import json
import sys

SCHEMA = "bddmin-bench-engine/8"

# Counters that measure algorithmic work (deterministic for a given
# configuration); capacities, live-node and hit-rate fields are
# reported but never gated.
WORK_COUNTERS = (
    "ite_recursions",
    "and_recursions",
    "xor_recursions",
    "constrain_recursions",
    "restrict_recursions",
    "quantify_recursions",
    "and_exists_recursions",
    "cache_lookups",
)

# Configuration keys that must match for timings/counters to be
# comparable.
CONFIG_KEYS = ("jobs", "quick", "max_calls", "image", "limits", "repr")


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != SCHEMA:
        sys.exit(f"{path}: unknown schema {schema!r} (expected {SCHEMA!r})")
    return doc


def pct(old, new):
    if old == 0:
        return None
    return 100.0 * (new - old) / old


def fmt_pct(p):
    return "   n/a" if p is None else f"{p:+6.1f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--time-threshold", type=float, default=25.0,
                    help="max tolerated %% increase in phase seconds (default 25)")
    ap.add_argument("--count-threshold", type=float, default=10.0,
                    help="max tolerated %% increase in work counters (default 10)")
    ap.add_argument("--capture-threshold", type=float, default=3.0,
                    help="max tolerated %% increase in capture seconds "
                         "(default 3; the budget checks must be ~free)")
    ap.add_argument("--serve-threshold", type=float, default=40.0,
                    help="max tolerated %% throughput drop / p95 latency "
                         "increase in the serve section (default 40; "
                         "tail latency on shared machines is noisy)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on gated regressions (comparable runs only)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    comparable = True
    for key in CONFIG_KEYS:
        b, f = base[key], fresh[key]
        if b != f:
            print(f"note: {key} differs (baseline {b!r}, fresh {f!r})")
            comparable = False
    if not comparable:
        print("note: configurations differ — reporting deltas without gating\n")

    regressions = []

    print(f"{'phase':<24}{'baseline':>14}{'fresh':>14}   delta")
    base_phases = {p["name"]: p["seconds"] for p in base["phases"]}
    for p in fresh["phases"]:
        name, new = p["name"], p["seconds"]
        old = base_phases.get(name)
        if old is None:
            print(f"{name:<24}{'—':>14}{new:>13.3f}s   (new phase)")
            continue
        d = pct(old, new)
        print(f"{name:<24}{old:>13.3f}s{new:>13.3f}s  {fmt_pct(d)}")
        threshold = (args.capture_threshold if name == "capture"
                     else args.time_threshold)
        if d is not None and d > threshold:
            regressions.append(f"phase {name}: {d:+.1f}% seconds"
                               f" (threshold {threshold:.0f}%)")

    print(f"\n{'engine counter':<24}{'baseline':>14}{'fresh':>14}   delta")
    be, fe = base["engine"], fresh["engine"]
    for key in WORK_COUNTERS:
        old, new = be[key], fe[key]
        d = pct(old, new)
        print(f"{key:<24}{old:>14}{new:>14}  {fmt_pct(d)}")
        if d is not None and d > args.count_threshold:
            regressions.append(f"counter {key}: {d:+.1f}%")

    # Did-not-finish rows.  A budgeted run with DNFs has incomparable
    # minimizer totals (they skip the starved calls), so note them and
    # keep the size gate off.
    base_dnf, fresh_dnf = base["dnf"], fresh["dnf"]
    if base_dnf or fresh_dnf:
        print(f"\nDNF rows: baseline {len(base_dnf)}, fresh {len(fresh_dnf)}")
        for row in fresh_dnf:
            print(f"  fresh: {row['bench']} DNF({row['reason']})")

    # Serve section (null when the phase was skipped).  Throughput should not drop and tail latency should not
    # grow — but both are wall-clock on possibly shared machines, so the
    # gate is generous and only applies when the load shapes match.
    base_srv, fresh_srv = base["serve"], fresh["serve"]

    def reply_rate(srv, key):
        """Per-request rate of a reply-status count."""
        if not srv["requests"]:
            return None
        return srv[key] / srv["requests"]

    if fresh_srv and not base_srv:
        print("\nserve: no baseline section — reporting fresh only")
        print(f"  {fresh_srv['clients']} clients x {fresh_srv['requests']} req:"
              f" {fresh_srv['requests_per_sec']:.1f} req/s,"
              f" p50 {fresh_srv['p50_ms']:.2f}ms p95 {fresh_srv['p95_ms']:.2f}ms"
              f" p99 {fresh_srv['p99_ms']:.2f}ms,"
              f" {fresh_srv['dnf_replies']} DNF {fresh_srv['error_replies']} err")
    elif base_srv and fresh_srv:
        same_load = all(base_srv[k] == fresh_srv[k]
                        for k in ("clients", "requests", "workers"))
        print(f"\n{'serve':<24}{'baseline':>14}{'fresh':>14}   delta")
        for key, higher_is_better in (("requests_per_sec", True),
                                      ("p50_ms", False), ("p95_ms", False),
                                      ("p99_ms", False), ("mean_ms", False)):
            old, new = base_srv[key], fresh_srv[key]
            d = pct(old, new)
            print(f"{key:<24}{old:>14.2f}{new:>14.2f}  {fmt_pct(d)}")
            if not (comparable and same_load) or d is None:
                continue
            if higher_is_better and -d > args.serve_threshold:
                regressions.append(f"serve {key}: {d:+.1f}%"
                                   f" (threshold -{args.serve_threshold:.0f}%)")
            elif key in ("p50_ms", "p95_ms", "p99_ms") \
                    and d > args.serve_threshold:
                regressions.append(f"serve {key}: {d:+.1f}%"
                                   f" (threshold {args.serve_threshold:.0f}%)")
        # Per-status reply counts.  Error and dnf *rates* gate on any
        # increase between comparable runs (they are determinism, not
        # wall-clock).  busy_replies are backpressure refusals, reported
        # but never gated as errors.
        for key in ("ok_replies", "dnf_replies", "partial_replies",
                    "busy_replies", "error_replies"):
            old, new = base_srv[key], fresh_srv[key]
            print(f"{key:<24}{old:>14}{new:>14}")
            if key in ("dnf_replies", "error_replies") and comparable \
                    and same_load:
                old_rate = reply_rate(base_srv, key)
                new_rate = reply_rate(fresh_srv, key)
                if old_rate is not None and new_rate is not None \
                        and new_rate > old_rate:
                    regressions.append(
                        f"serve {key} rate: {100 * old_rate:.1f}% ->"
                        f" {100 * new_rate:.1f}% of requests")
        if not same_load:
            print("  (load shapes differ; serve deltas not gated)")
        if fresh_srv["error_replies"]:
            regressions.append(
                f"serve: {fresh_srv['error_replies']} error replies")
        # Server-side phase means (reported, never gated — they are
        # sub-slices of the latency already gated above).
        fresh_tel = fresh_srv["telemetry"]
        if fresh_tel:
            base_tel = base_srv["telemetry"] or {}
            print(f"  telemetry over {fresh_tel['explained']} explained"
                  " replies (us, server-side means):")
            for key in ("queue_us_mean", "exec_us_mean", "write_us_mean"):
                old, new = base_tel.get(key), fresh_tel[key]
                d = None if old is None else pct(old, new)
                print(f"    {key:<20}"
                      f"{'—' if old is None else format(old, '>12.1f'):>14}"
                      f"{new:>14.1f}  {fmt_pct(d)}")
        # Scraped daemon counters.  Cache traffic is
        # deterministic for a given load shape, so the hit rate gates
        # (relative drop past the serve threshold) between comparable
        # runs; the session/batch/busy counters are informational.
        def cache_hit_rate(srv):
            ctr = srv["server"]
            if not ctr:
                return None
            hits = ctr["cache_hits"] + ctr["cache_canonical_hits"]
            lookups = hits + ctr["cache_misses"]
            return hits / lookups if lookups else None

        fresh_ctr = fresh_srv["server"]
        if fresh_ctr:
            base_ctr = base_srv["server"] or {}
            print("  server counters:")
            for key in ("cache_hits", "cache_canonical_hits", "cache_misses",
                        "cache_collapsed", "cache_evicted", "sessions_opened",
                        "sessions_evicted", "batches", "batched_requests",
                        "busy_replies"):
                old, new = base_ctr.get(key), fresh_ctr[key]
                print(f"    {key:<22}"
                      f"{'—' if old is None else old:>12}{new:>12}")
            old_rate = cache_hit_rate(base_srv)
            new_rate = cache_hit_rate(fresh_srv)
            if new_rate is not None:
                print(f"    cache hit rate: "
                      + ("—" if old_rate is None else f"{100 * old_rate:.1f}%")
                      + f" -> {100 * new_rate:.1f}%")
            if comparable and same_load \
                    and old_rate is not None and new_rate is not None \
                    and old_rate > 0 \
                    and 100.0 * (old_rate - new_rate) / old_rate \
                        > args.serve_threshold:
                regressions.append(
                    f"serve cache hit rate: {100 * old_rate:.1f}% ->"
                    f" {100 * new_rate:.1f}%"
                    f" (threshold -{args.serve_threshold:.0f}%)")

    # CBDD ablation section (null when the phase was skipped).
    # verdicts_identical gates unconditionally — a
    # chain-reduced capture must reach every plain verdict; compression
    # is reported only (it depends on the suite's chain structure).
    base_cbdd, fresh_cbdd = base["cbdd"], fresh["cbdd"]
    if fresh_cbdd:
        print(f"\n{'cbdd ablation':<24}{'baseline':>14}{'fresh':>14}")
        for key in ("calls", "plain_total", "chain_total"):
            old = (base_cbdd or {}).get(key)
            print(f"{key:<24}{'—' if old is None else old:>14}"
                  f"{fresh_cbdd[key]:>14}")
        for key in ("compression", "seconds"):
            old = (base_cbdd or {}).get(key)
            print(f"{key:<24}"
                  f"{'—' if old is None else format(old, '>12.3f'):>14}"
                  f"{fresh_cbdd[key]:>14.3f}")
        print(f"{'verdicts_identical':<24}"
              f"{'—' if base_cbdd is None else str(base_cbdd['verdicts_identical']):>14}"
              f"{str(fresh_cbdd['verdicts_identical']):>14}")
        if not fresh_cbdd["verdicts_identical"]:
            regressions.append(
                "cbdd: minimization verdicts diverged from the plain run")

    base_min = {m["name"]: m for m in base["minimizers"]}
    print(f"\n{'minimizer':<12}{'size':>10}{'sizeΔ':>8}{'seconds':>12}   delta")
    for m in fresh["minimizers"]:
        old = base_min.get(m["name"])
        if old is None:
            continue
        sized = m["total_size"] - old["total_size"]
        d = pct(old["total_seconds"], m["total_seconds"])
        dnf_calls = m["dnf_calls"] + old["dnf_calls"]
        print(f"{m['name']:<12}{m['total_size']:>10}{sized:>+8}"
              f"{m['total_seconds']:>11.3f}s  {fmt_pct(d)}"
              + (f"  ({m['dnf_calls']} DNF)" if dnf_calls else ""))
        # result sizes are deterministic per configuration: any drift in
        # a comparable run means the minimizers changed behaviour (DNFs
        # on either side make the totals cover different call sets)
        if comparable and not dnf_calls and sized != 0:
            regressions.append(f"minimizer {m['name']}: total_size {sized:+d}")

    if regressions:
        print("\nregressions past thresholds:")
        for r in regressions:
            print(f"  - {r}")
        if args.strict and comparable:
            sys.exit(1)
        if args.strict:
            print("(configurations differ; not gating)")
    else:
        print("\nno regressions past thresholds")


if __name__ == "__main__":
    main()
