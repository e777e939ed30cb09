#!/usr/bin/env python3
"""Layer-by-layer diff of two sets of perfbench results.

Usage:
    python3 perfbench/diff.py OLD.jsonl NEW.jsonl

Each file holds the lines `perfbench --record FILE` appends, one per
run. For every workload (and for traced and untraced runs apart) and
every metric, prints the median and quartiles of each side, the share
of pairs the new side won (runs paired by seed, else by order), and a
verdict against the bounds in BENCHMARK.json:

    regressed   the new median is worse than the old by more than the bound
    improved    the new side won at least 9 in 10 pairs and the medians
                differ by more than the old side's quartile spread
    unresolved  the old side's own quartile spread exceeds the bound, and
                not every new run beats every old run; also a would-be
                `improved` when the new side failed more jobs than the old
    unchanged   otherwise

Per-layer metrics have no bound; they get `identical` when every value
matches, else `-`. When the runs come from different hosts (core count,
CPU model or compiler differ), the comparison is still printed, labelled
as such, and every verdict reads `cross-host`: such a comparison is
never reported as regressed or improved. The median calibration time of
each side is printed with every workload. Only metrics present in every
run of both sides are compared; the others are named on stderr.
Exits 1 when a metric regressed, 2 on bad input (including metrics
missing from some runs), else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"diff.py: {path}:{n}: {e}")
    if not runs:
        sys.exit(f"diff.py: {path}: no runs")
    return runs


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def host_key(run):
    h = run["host"]
    return (h["nproc"], h["cpu"], h["rustc"])


def same_host(old, new):
    """(same, reason) for the two sets of runs."""
    keys = {host_key(r) for r in old + new}
    if len(keys) > 1:
        return False, "hosts differ: " + "; ".join(map(str, sorted(keys)))
    return True, ""


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def pairs(old, new):
    """(old value, new value) per run pair: by seed when seeds match."""
    by_seed_old = {r["seed"]: r for r in old}
    by_seed_new = {r["seed"]: r for r in new}
    common = sorted(set(by_seed_old) & set(by_seed_new))
    if len(common) == min(len(old), len(new)):
        return [(by_seed_old[s], by_seed_new[s]) for s in common]
    return list(zip(old, new))


def verdict(old_v, new_v, pair_vals, better, bound, more_failed):
    sign = 1 if better == "higher" else -1
    q1, om, q3 = quartiles(old_v)
    _, nm, _ = quartiles(new_v)
    wins = sum(1 for o, n in pair_vals if sign * (n - o) > 0)
    won = wins / len(pair_vals) if pair_vals else 0.0
    if bound is None:
        return ("identical" if set(old_v) == set(new_v) and len(set(old_v)) == 1 else "-"), won
    worse = sign * (om - nm) / abs(om) if om else 0.0
    spread = (q3 - q1) / abs(om) if om else 0.0
    if worse > bound:
        return "regressed", won
    if won >= 0.9 and sign * (nm - om) > q3 - q1:
        # A gain does not count when the new side failed more jobs.
        return ("unresolved" if more_failed else "improved"), won
    every_better = all(sign * (n - o) > 0 for o in old_v for n in new_v)
    if spread > bound and not every_better:
        return "unresolved", won
    return "unchanged", won


def main(argv):
    if len(argv) != 2 or any(a.startswith("--") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    old_all, new_all = load_runs(argv[0]), load_runs(argv[1])
    same, why = same_host(old_all, new_all)
    spec = load_spec()
    regressed = mismatch = False
    groups = sorted({(r["workload"], r["trace"]) for r in old_all + new_all})
    for wl, tr in groups:
        old = [r for r in old_all if (r["workload"], r["trace"]) == (wl, tr)]
        new = [r for r in new_all if (r["workload"], r["trace"]) == (wl, tr)]
        if not old or not new:
            print(f"== {wl} (trace {tr}): only one side has runs; skipped")
            continue
        pv = pairs(old, new)
        failed_old = sum(r["failed"] for r in old)
        failed_new = sum(r["failed"] for r in new)
        calib = [statistics.median(r["host"]["calib_s"] for r in side) for side in (old, new)]
        print(f"== {wl} (trace {tr}): {len(old)} old runs, {len(new)} new runs, "
              f"{len(pv)} pairs; failed jobs {failed_old} -> {failed_new}; "
              f"calibration {calib[0]:.4g} s -> {calib[1]:.4g} s"
              + ("" if same else f"  [CROSS-HOST: {why}]"))
        present = [set(r["metrics"]) for r in old + new]
        common = set.intersection(*present)
        missing = sorted(set.union(*present) - common)
        if missing:
            mismatch = True
            print(f"diff.py: {wl} (trace {tr}): not in every run, not compared: "
                  + ", ".join(missing), file=sys.stderr)
        print(f"  {'metric':<30} {'unit':<9} {'old median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'change':>8} {'won':>6}  verdict")
        for name in [n for n in spec if n in common]:
            better, bound = spec[name]
            old_v = [r["metrics"][name]["value"] for r in old]
            new_v = [r["metrics"][name]["value"] for r in new]
            unit = old[0]["metrics"][name]["unit"]
            p = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pv]
            v, won = verdict(old_v, new_v, p, better, bound, failed_new > failed_old)
            if not same:
                v = "cross-host"
            regressed |= v == "regressed"
            oq1, om, oq3 = quartiles(old_v)
            nq1, nm, nq3 = quartiles(new_v)
            change = f"{(nm - om) / abs(om) * 100:+.1f}%" if om else "-"
            old_col = f"{om:.6g} [{oq1:.6g}, {oq3:.6g}]"
            new_col = f"{nm:.6g} [{nq1:.6g}, {nq3:.6g}]"
            print(f"  {name:<30} {unit:<9} {old_col:<34} {new_col:<34} "
                  f"{change:>8} {won:>6.0%}  {v}")
    if mismatch:
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
