#!/usr/bin/env python3
"""Compare vtpbench result sets under the bounds in BENCHMARK.json, and keep
the committed ledger (baseline.json).

    compare.py PARENT_DIR CHANGE_DIR
        One row per (workload, metric): median and quartiles of each side,
        the number of seed pairs, the pair win rate and a verdict: improved,
        unchanged, regressed or unresolved. Pairs outside GATED are printed
        with their verdict in brackets and never fail the comparison. Exits
        1 on a gated regression, a higher failed fraction or more invalid
        runs on the change side.
    compare.py --record LABEL DIR [DIR ...]
        Appends a ledger entry to baseline.json: the host; for each result
        set of untraced runs the median, quartiles and max-min spread of
        every end-to-end metric, plus how far the set medians disagree;
        and the same statistics of the per-layer metrics of every traced
        (--trace 1) run in the directories.
    compare.py --trajectory
        Prints the end-to-end medians of every ledger entry in baseline.json.

A result directory holds the results.jsonl that `vtpbench --results DIR`
appends to, one record per measurement, invalid ones included.
"""
import datetime
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BASELINE = os.path.join(HERE, "baseline.json")

# The (metric, workload) pairs a change is judged on. The others are
# reported only: below saturation CPU cost hangs on batching, and
# goodput on churn is the offered load.
GATED = {
    "goodput_mbps": {"bulk", "light_small", "paced"},
    "cpu_ns_per_byte": {"bulk", "light_small"},
    "msg_p50_ms": {"paced", "churn"},
    "rss_peak_mb": {"bulk", "light_small", "paced", "churn"},
    "setup_s": {"bulk", "light_small", "paced", "churn"},
}
MIN_PAIRS = 10


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def load_runs(result_dir, trace=0):
    """workload -> (valid runs, invalid count) of the runs made with --trace
    `trace`. A valid run is {"seed", "metrics", "failed_frac"}."""
    runs, invalid = {}, {}
    with open(os.path.join(result_dir, "results.jsonl")) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] != trace:
                continue
            w = rec["workload"]
            runs.setdefault(w, [])
            if not rec["valid"]:
                invalid[w] = invalid.get(w, 0) + 1
                continue
            res = rec["result"]
            runs[w].append({
                "seed": rec["seed"],
                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                "failed_frac": res["failed"] / res["attempted"],
            })
    return runs, invalid


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """The metric's bound, and the gain rule of the choosing-metrics guide:
    at least MIN_PAIRS seed pairs, the change wins at least 9 in 10 of them
    (a tie is no win) and the medians differ by more than the parent's
    interquartile range. `parent` and `change` are paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    worse = sign * (pm - cm) / pm
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_rate = wins / len(parent)
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if worse > bound:
        v = "regressed"
    elif len(parent) < MIN_PAIRS:
        v = "unresolved"
    elif win_rate >= 0.9 and abs(cm - pm) > q3 - q1 and sign * (cm - pm) > 0:
        v = "improved"
    elif (q3 - q1) / pm > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, win_rate


def pairs(parent_runs, change_runs):
    """The runs of both sides whose seed is on both sides, in seed order
    (the first valid run of a seed), and the count of runs left unpaired."""
    p = {}
    for r in parent_runs:
        p.setdefault(r["seed"], r)
    c = {}
    for r in change_runs:
        c.setdefault(r["seed"], r)
    seeds = sorted(set(p) & set(c))
    unpaired = len(parent_runs) + len(change_runs) - 2 * len(seeds)
    return [p[s] for s in seeds], [c[s] for s in seeds], unpaired


def compare(parent_dir, change_dir):
    (parent, p_invalid), (change, c_invalid) = load_runs(parent_dir), load_runs(change_dir)
    specs = metric_specs()
    bad = 0
    print("%-12s %-16s %11s %23s %11s %23s %5s %5s  %s" % (
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "pairs", "wins",
        "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs, unpaired = pairs(parent[workload], change[workload])
        pi, ci = p_invalid.get(workload, 0), c_invalid.get(workload, 0)
        print("%s: %d seed pairs, %d runs unpaired, invalid runs %d parent / %d change" % (
            workload, len(p_runs), unpaired, pi, ci))
        if ci > pi:
            print("%-12s %-16s %11d %23s %11d %23s %5s %5s  %s" % (
                workload, "invalid_runs", pi, "", ci, "", "", "", "regressed"))
            bad += 1
        if not p_runs:
            continue
        for spec in specs:
            name = spec["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            v, win_rate = verdict(p, c, spec["better"], spec["bound"])
            gated = workload in GATED.get(name, ())
            pq, cq = quartiles(p), quartiles(c)
            print("%-12s %-16s %11.5g [%10.5g, %10.5g] %11.5g [%10.5g, %10.5g] %5d %4.0f%%  %s" % (
                workload, name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], len(p),
                100 * win_rate, v if gated else "(%s)" % v))
            bad += gated and v == "regressed"
        pf = statistics.mean(r["failed_frac"] for r in p_runs)
        cf = statistics.mean(r["failed_frac"] for r in c_runs)
        v = "regressed" if cf > pf else "unchanged"
        print("%-12s %-16s %11.5g %23s %11.5g %23s %5d %5s  %s" % (
            workload, "failed_frac", pf, "", cf, "", len(p_runs), "", v))
        bad += v == "regressed"
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print("workloads on one side only: " + ", ".join(missing))
    return 1 if bad else 0


def host():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release()}


def set_stats(runs):
    out = {}
    for workload, rs in sorted(runs.items()):
        if not rs:
            continue
        out[workload] = {}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name] for r in rs]
            q1, med, q3 = quartiles(vals)
            out[workload][name] = {"n": len(vals), "median": med, "q1": q1, "q3": q3,
                                   "spread": (max(vals) - min(vals)) / med if med else None}
    return out


def record(label, dirs):
    specs = {s["name"]: s for s in metric_specs()}
    loaded = [load_runs(d) for d in dirs]
    sets = [set_stats(runs) for runs, _ in loaded if any(runs.values())]
    invalid = {}
    for _, inv in loaded:
        for w, n in inv.items():
            invalid[w] = invalid.get(w, 0) + n
    traced = {}
    for d in dirs:
        for workload, rs in load_runs(d, trace=1)[0].items():
            traced.setdefault(workload, []).extend(rs)
    entry = {"label": label, "date": datetime.date.today().isoformat(), "host": host(),
             "sets": sets, "invalid_runs": invalid, "set_median_diff": {},
             "layers": set_stats(traced)}
    print("%-12s %-16s %6s %5s  %s" % ("workload", "metric", "bound", "gated",
                                        "max-min spread per set / median diff"))
    for workload in sets[0]:
        entry["set_median_diff"][workload] = {}
        for name in sets[0][workload]:
            meds = [s[workload][name]["median"] for s in sets if workload in s]
            diff = (max(meds) - min(meds)) / min(meds)
            entry["set_median_diff"][workload][name] = diff
            spreads = " ".join("%.3f" % s[workload][name]["spread"] for s in sets if workload in s)
            print("%-12s %-16s %6.3f %5s  %s / %.3f" % (
                workload, name, specs[name]["bound"],
                "yes" if workload in GATED.get(name, ()) else "no", spreads, diff))
    ledger = {"ledger": []}
    if os.path.exists(BASELINE):
        with open(BASELINE) as f:
            ledger = json.load(f)
    ledger["ledger"].append(entry)
    with open(BASELINE, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    return 0


def trajectory():
    with open(BASELINE) as f:
        ledger = json.load(f)["ledger"]
    for e in ledger:
        h = e["host"]
        print("%s  %s  nproc=%s  %s  kernel %s" % (e["date"], e["label"], h["nproc"], h["cpu"], h["kernel"]))
    keys = sorted({(w, m) for e in ledger for s in e["sets"] for w in s for m in s[w]})
    print("%-12s %-16s" % ("workload", "metric") + "".join(" %14s" % e["label"][:14] for e in ledger))
    for w, m in keys:
        cells = []
        for e in ledger:
            meds = [s[w][m]["median"] for s in e["sets"] if w in s and m in s[w]]
            cells.append(" %14.5g" % statistics.median(meds) if meds else " %14s" % "-")
        print("%-12s %-16s" % (w, m) + "".join(cells))
    return 0


def main(argv):
    if len(argv) == 1 and argv[0] == "--trajectory":
        return trajectory()
    if len(argv) >= 3 and argv[0] == "--record":
        return record(argv[1], argv[2:])
    if len(argv) == 2 and not argv[0].startswith("--"):
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
