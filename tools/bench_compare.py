#!/usr/bin/env python3
"""Compare two sunbfs.bench/1 summaries and fail on regressions.

Usage:

    python3 tools/bench_compare.py old.json new.json [--max-regress PCT]
                                   [--exact SUBSTR ...]

`old.json` / `new.json` are the BENCH_*.json files the bench binaries write
(e.g. bench_headline_graph500 -> BENCH_headline.json).  The comparison runs
over the *intersection* of the two "metrics" objects; keys present on only
one side are reported as warnings, not errors, so a bench that grows or
drops a metric (a new load point, say) still compares cleanly against older
baselines.  A metric regresses when it moves in its bad direction (lower
GTEPS/QPS, higher latency, wall/modeled time or peak RSS) by more than
--max-regress percent (default 10).  `--exact SUBSTR` (repeatable) pins
every shared metric whose key contains SUBSTR to its baseline value: any
change, in either direction, fails — for deterministic counts such as wire
bytes, where a move is a real change rather than noise.  Exit status: 0 when
no shared metric regresses or changes, 1 on a regression or exact-key change,
2 on malformed input or an empty intersection.
Stdlib only (tools/test_bench_compare.py covers the contract).
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "sunbfs.bench/1"

# Substrings marking larger-is-better metrics (throughputs, savings, and the
# distance-oracle cache effectiveness keys hit_rate/hits); everything else is
# smaller-is-better (times, latencies, memory, and the wire byte counts of
# the encoding ablation).  Latency quantiles (the p99 keys of the service
# bench's fault-mode points) fall in the default smaller-is-better class.
HIGHER_IS_BETTER_SUBSTRINGS = ("gteps", "qps", "teps", "reduction", "saved",
                               "hit_rate", "hits")

# Fault-mode counters move in coarse steps (one extra retry wave under a
# reshaped fault schedule multiplies the count), so they compare at a wider
# band: --max-regress times the matching multiplier.  Matched by key
# *prefix* — the fault points' latency keys carry "shed" in their point-name
# suffix (latency_p99_ms_fault_shed) and must gate at the normal band.
TOLERANCE_MULTIPLIER_PREFIXES = {"retries_": 3.0, "sheds_": 3.0,
                                 "failed_": 3.0}


def higher_is_better(key: str) -> bool:
    k = key.lower()
    return any(s in k for s in HIGHER_IS_BETTER_SUBSTRINGS)


def tolerance_multiplier(key: str) -> float:
    k = key.lower()
    mult = 1.0
    for prefix, m in TOLERANCE_MULTIPLIER_PREFIXES.items():
        if k.startswith(prefix):
            mult = max(mult, m)
    return mult


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(f"{path}: missing or empty 'metrics' object")
    return doc


def regression_pct(key: str, old: float, new: float) -> float:
    """Signed percent change in the metric's *bad* direction (>0 = worse)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old) * 100.0
    return -change if higher_is_better(key) else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="baseline BENCH_*.json")
    ap.add_argument("new", type=Path, help="candidate BENCH_*.json")
    ap.add_argument("--max-regress", type=float, default=10.0, metavar="PCT",
                    help="allowed movement in the bad direction, percent "
                         "(default: 10)")
    ap.add_argument("--exact", action="append", default=[], metavar="SUBSTR",
                    help="fail on any change of a metric whose key contains "
                         "SUBSTR (repeatable)")
    args = ap.parse_args()

    try:
        old_doc, new_doc = load(args.old), load(args.new)
    except ValueError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    if old_doc.get("bench") != new_doc.get("bench"):
        print(f"bench_compare: comparing different benches "
              f"({old_doc.get('bench')!r} vs {new_doc.get('bench')!r})",
              file=sys.stderr)
        return 2

    old_m, new_m = old_doc["metrics"], new_doc["metrics"]
    for key in sorted(set(old_m) - set(new_m)):
        print(f"bench_compare: warning: {key!r} only in baseline "
              f"{args.old} — skipped", file=sys.stderr)
    for key in sorted(set(new_m) - set(old_m)):
        print(f"bench_compare: warning: {key!r} only in candidate "
              f"{args.new} — skipped", file=sys.stderr)
    shared = sorted(set(old_m) & set(new_m))
    if not shared:
        print("bench_compare: no metrics in common", file=sys.stderr)
        return 2

    failed, changed = [], []
    print(f"{'metric':<18} {'old':>14} {'new':>14} {'worse by':>10}")
    for key in shared:
        old_v, new_v = float(old_m[key]), float(new_m[key])
        pct = regression_pct(key, old_v, new_v)
        allowed = args.max_regress * tolerance_multiplier(key)
        verdict = ""
        if any(s in key for s in args.exact):
            if new_v != old_v:
                changed.append(key)
                verdict = "  CHANGED (exact)"
        elif pct > allowed:
            failed.append(key)
            verdict = "  REGRESSED"
        print(f"{key:<18} {old_v:>14.6g} {new_v:>14.6g} {pct:>+9.1f}%{verdict}")

    if failed:
        print(f"bench_compare: REGRESSION in {', '.join(failed)} "
              f"(> {args.max_regress:.1f}% worse)", file=sys.stderr)
    if changed:
        print(f"bench_compare: exact metric CHANGED in {', '.join(changed)}",
              file=sys.stderr)
    if failed or changed:
        return 1
    print(f"bench_compare: OK (no shared metric more than "
          f"{args.max_regress:.1f}% worse"
          f"{', exact metrics unchanged' if args.exact else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
